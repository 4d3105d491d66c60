"""Command-line surface: transforms, norms, decompositions, symmetries,
paraball distances, partitions, covers, extremizer runs, affine measures,
and a built-in selftest.

Every run is deterministic given argv, input files, and the seed.  Numeric
output goes to stdout as CSV preceded by a one-line JSON metadata header;
grid functions travel as PRGF1 files.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import affine, extremizer, norms, paraball, symmetry
from .grid import GridFunction, box_spec, write_csv
from .norms import ExponentPair
from .operator import ADJOINT_MODES, TransformPlan, adjoint_transform, forward_transform


def _emit(meta: dict, rows, header: str) -> None:
    sys.stdout.write(json.dumps(meta) + "\n")
    write_csv(sys.stdout, header, rows)


def _given_flags(args, dests, reads, source: str) -> dict:
    """The flags among `dests` that were given (not None), by dest; a given
    one that `source` does not read is an error that names it."""
    given = {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}
    for dest in given:
        if dest not in reads:
            raise ValueError(f"{source} takes no --{dest.replace('_', '-')}")
    return given


# -- subcommand handlers ---------------------------------------------------

def _cmd_transform(args) -> int:
    """`transform` and `adjoint`, on a plan whose output grid is the input's."""
    f = GridFunction.load(args.infile)
    plan = TransformPlan(f.spec, t_step=args.tstep)
    p = ExponentPair(f.dim)
    meta = {"command": args.command, "in": args.infile, "out": args.out}
    if args.command == "adjoint":
        out = adjoint_transform(f, plan, args.mode)
        meta["mode"] = args.mode
        rows = [("output_lp", norms.lp_norm(out, p.p))]
    else:
        out = forward_transform(f, plan)
        rows = [("input_lp", norms.lp_norm(f, p.p)), ("output_lq", norms.lp_norm(out, p.q))]
    out.save(args.out)
    meta["t_count"] = plan.t_count()
    _emit(meta, rows, "quantity,value")
    return 0


def _cmd_norms(args) -> int:
    f = GridFunction.load(args.infile)
    p = ExponentPair(f.dim).p
    rows = [("lp_norm", norms.lp_norm(f, p)),
            ("lorentz_quasinorm", norms.lorentz_quasinorm(f)),
            ("tail_mass", norms.tail_mass(f, args.radius))]
    _emit({"command": "norms", "in": args.infile, "p": p, "r": norms.LORENTZ_R, "R": args.radius},
          rows, "quantity,value")
    return 0


def _cmd_decompose(args) -> int:
    f = GridFunction.load(args.infile)
    dec = norms.rough_decompose(f)
    cv, scores = f.spec.cell_volume, dec.scores()
    rows = [(lv.j, len(lv.cells), lv.measure(cv), scores[lv.j],
             float(lv.residuals.min()), float(lv.residuals.max()))
            for lv in dec.levels]
    _emit({"command": "decompose", "in": args.infile, "levels": len(dec.levels)},
          rows, "level,cells,measure,score,residual_min,residual_max")
    return 0


def _cmd_refine(args) -> int:
    f = GridFunction.load(args.infile)
    p = ExponentPair(f.dim).p
    refined, kept = norms.entropy_refine(f, args.eta)
    if args.out:
        refined.save(args.out)
    rows = [("kept_levels", float(len(kept))),
            ("refined_lp", norms.lp_norm(refined, p)),
            ("dropped_lp", norms.lp_norm(f.with_values(f.values - refined.values), p))]
    _emit({"command": "refine", "in": args.infile, "eta": args.eta, "p": p, "r": norms.LORENTZ_R,
           "kept": sorted(kept)}, rows, "quantity,value")
    return 0


def _make_generator(args) -> symmetry.GroupElement:
    params = args.params or []
    if args.generator == "translate":
        return symmetry.translation(params)
    if args.generator == "scale":
        if len(params) != 2 or not params[1].is_integer():
            raise ValueError("scale needs two parameters: r and an integer d")
        return symmetry.scaling(params[0], int(params[1]))
    if args.generator == "galilean":
        return symmetry.galilean(params)
    if args.generator == "linear":
        k = int(round(len(params) ** 0.5))
        if k * k != len(params):
            raise ValueError("linear needs a flattened square matrix")
        return symmetry.linear_symmetry(np.array(params).reshape(k, k))
    raise ValueError(f"unknown generator {args.generator}")


def _cmd_symmetry(args) -> int:
    if args.element:
        _given_flags(args, ("generator", "params"), (), f"an element loaded from {args.element}")
        el = symmetry.GroupElement.from_json(Path(args.element).read_text())
    elif args.generator:
        el = _make_generator(args)
    else:
        raise ValueError("symmetry needs --element or --generator")
    rows = [("lambda", el.t), ("jacobian", el.jacobian)]
    if args.point:
        if len(args.point) != el.dim:
            raise ValueError(f"--point needs {el.dim} values for a d = {el.dim} element, "
                             f"got {len(args.point)}")
        x = np.array(args.point)
        if not np.isfinite(x).all():
            raise ValueError(f"--point values must be finite, got {args.point}")
        with np.errstate(all="ignore"):  # an image that leaves the doubles is named below
            y = symmetry.apply_point(el, x)
            z = symmetry.apply_partner_point(el, x)
        if not (np.isfinite(y).all() and np.isfinite(z).all()):
            raise ValueError(f"the images of --point {args.point} hold non-finite values: "
                             f"phi = {y.tolist()}, psi = {z.tolist()}")
        rows += [(f"phi_{i}", float(v)) for i, v in enumerate(y)]
        rows += [(f"psi_{i}", float(v)) for i, v in enumerate(z)]
    _emit({"command": "symmetry", "element": el.to_json()}, rows, "quantity,value")
    return 0


def _cmd_paraball_dist(args) -> int:
    ball_a = paraball.Paraball.from_json(Path(args.a).read_text())
    ball_b = paraball.Paraball.from_json(Path(args.b).read_text())
    rows = [("quasidistance", paraball.quasidistance(ball_a, ball_b)),
            ("volume_a", paraball.volume(ball_a)),
            ("volume_b", paraball.volume(ball_b))]
    _emit({"command": "paraball-dist", "a": args.a, "b": args.b}, rows, "quantity,value")
    return 0


def _cmd_partition(args) -> int:
    f = GridFunction.load(args.infile)
    balls = [paraball.Paraball.from_json(Path(path).read_text()) for path in args.balls]
    plan = TransformPlan(f.spec, t_step=args.tstep)
    part = paraball.partition_by_interaction(f.values != 0, balls, args.eta, plan)
    rows = [(i, int(p.sum()), float(part.gammas[i])) for i, p in enumerate(part.parts)]
    rows.append(("remainder", int(part.remainder.sum()), 0.0))
    _emit({"command": "partition", "in": args.infile, "eta": args.eta,
           "balls": len(balls), "t_count": plan.t_count()}, rows, "part,cells,gamma")
    return 0


def _cmd_cover(args) -> int:
    f = GridFunction.load(args.infile)
    plan = TransformPlan(f.spec, t_step=args.tstep)
    pair = ExponentPair(f.dim)
    pieces, stop = paraball.greedy_cover(f, args.eta, args.budget, plan=plan, seed=args.seed)
    rows = []
    for i, (ball, piece) in enumerate(pieces):
        rows.append((i, norms.lp_norm(piece, pair.p), paraball.volume(ball), ball.to_json()))
    _emit({"command": "cover", "in": args.infile, "eta": args.eta, "pieces": len(pieces),
           "stop": stop, "t_count": plan.t_count()}, rows, "piece,lp_capture,ball_volume,ball_json")
    return 0


# the flags of the generated (gaussian) extremize start, with their defaults;
# a start loaded from a file reads none of them
START_FLAGS = {"dim": 2, "grid": 128, "box": 8.0}


def _cmd_extremize(args) -> int:
    final_path = os.path.splitext(args.out)[0] + ".prgf"
    if final_path == args.out:
        raise ValueError(f"the trace {args.out} and the final iterate {final_path} are one "
                         f"file; give --out an extension other than .prgf")
    reads = START_FLAGS if args.init == "gaussian" else ()
    given = _given_flags(args, START_FLAGS, reads, f"a start loaded from {args.init}")
    flags = {**START_FLAGS, **given}
    if reads:
        d = flags["dim"]
        half = flags["box"] / 2.0
        f0 = extremizer.gaussian_init(box_spec([-half] * d, [half] * d, [flags["grid"]] * d))
    else:
        f0 = GridFunction.load(args.init)
    plan = TransformPlan(f0.spec, t_step=args.tstep)
    trace = extremizer.extremize(f0, plan, max_iters=args.max_iters, tol=args.tol)
    with open(args.out, "w") as fh:
        write_csv(fh, "iter,phi,residual,extrapolated",
                  ((k, s.phi, s.residual, int(s.extrapolated)) for k, s in enumerate(trace.steps)))
    trace.final.save(final_path)
    # a quarter of the shortest box side: --box / 4 for a generated start
    radius = float(np.min(f0.spec.hi - f0.spec.lo)) / 4.0
    rows = [("a_estimate", trace.a_estimate),
            ("iterations", float(len(trace.steps) - 1)),
            ("final_residual", trace.steps[-1].residual),
            ("tail_mass", norms.tail_mass(trace.final, radius))]
    _emit({"command": "extremize", "trace": args.out, "final": final_path,
           "stop": trace.stop, "extrapolated": trace.extrapolated, "t_count": plan.t_count()},
          rows, "quantity,value")
    return 0


# affine-measure flags that set a chart parameter: dest -> parameter
CHART_FLAGS = {"interval": "interval", "coefficients": "coefficients", "chart_dim": "dim",
               "halfwidth": "halfwidth"}


def _cmd_affine_measure(args) -> int:
    make = affine.CHARTS[args.chart]
    takes = inspect.signature(make).parameters
    reads = [dest for dest, param in CHART_FLAGS.items() if param in takes]
    given = _given_flags(args, CHART_FLAGS, reads, f"the {args.chart} chart")
    for dest in reads:
        if dest not in given and takes[CHART_FLAGS[dest]].default is inspect.Parameter.empty:
            raise ValueError(f"the {args.chart} chart needs --{dest.replace('_', '-')}")
    chart = make(**{CHART_FLAGS[d]: v for d, v in given.items()})
    rows = [("measure", affine.measure(chart, step=args.step))]
    _emit({"command": "affine-measure", "chart": args.chart, "step": args.step},
          rows, "quantity,value")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


# -- parser -----------------------------------------------------------------

# flags that several commands share: (flag names, add_argument keywords)
IN = (("--in",), {"dest": "infile", "required": True})
OUT = (("--out",), {"required": True})
TSTEP = (("--tstep",), {"type": float, "help": "t-grid step (default: the input cell width)"})
ETA = (("--eta",), {"type": float, "required": True})


def _start_flag(dest: str, kind, what: str):
    """An extremize start flag: no argparse default, so a given one is seen."""
    return (f"--{dest}",), {"type": kind, "help": f"{what} (default {START_FLAGS[dest]})"}


# name -> (handler, summary, flags in help order); the one table of commands
COMMANDS = {
    "transform": (_cmd_transform, "forward transform of a PRGF1 function", (IN, OUT, TSTEP)),
    "adjoint": (_cmd_transform, "adjoint transform of a PRGF1 function", (
        IN, OUT, TSTEP,
        (("--mode",), {"default": "discrete", "choices": ADJOINT_MODES}))),
    "norms": (_cmd_norms, "L^p, Lorentz quasinorm, and tail mass", (
        IN,
        (("--radius",), {"type": float, "default": 1.0}))),
    "decompose": (_cmd_decompose, "rough level-set decomposition table", (IN,)),
    "refine": (_cmd_refine, "entropy refinement of the level sets", (
        IN, ETA,
        (("--out",), {}))),
    "symmetry": (_cmd_symmetry, "inspect a group element", (
        (("--element",), {"help": "JSON file with element parameters"}),
        (("--generator",), {"choices": ["translate", "scale", "galilean", "linear"]}),
        (("--params",), {"nargs": "*", "type": float}),
        (("--point",), {"nargs": "+", "type": float}))),
    "paraball-dist": (_cmd_paraball_dist, "quasidistance between two balls", (
        (("--a",), {"required": True}),
        (("--b",), {"required": True}))),
    "partition": (_cmd_partition, "interaction partition of a support set", (
        IN, ETA, TSTEP,
        (("--balls",), {"nargs": "+", "required": True}))),
    "cover": (_cmd_cover, "greedy paraball extraction", (
        IN, ETA, TSTEP,
        (("--seed",), {"type": int, "default": 0}),
        (("--budget",), {"type": int, "default": 400}))),
    "extremize": (_cmd_extremize, "fixed-point extremizer search", (
        TSTEP,
        _start_flag("dim", int, "dimension of a generated start"),
        _start_flag("grid", int, "cells per axis of a generated start"),
        _start_flag("box", float, "box side of a generated start"),
        (("--tol",), {"type": float, "default": 1e-4, "help": "optimality residual to stop at"}),
        (("--max-iters",), {"type": int, "default": 500}),
        (("--init",), {"default": "gaussian", "help": "gaussian or a PRGF1 path"}),
        (("--out",), {"required": True, "help": "trace CSV path"}))),
    "affine-measure": (_cmd_affine_measure, "affine arclength / surface measure", (
        (("--chart",), {"required": True, "type": str.lower, "choices": affine.CHARTS}),
        (("--interval",), {"nargs": 2, "type": float}),
        (("--coefficients",), {"nargs": "+", "type": float}),
        (("--chart-dim",), {"type": int}),
        (("--halfwidth",), {"type": float}),
        (("--step",), {"type": float, "default": 1e-3}))),
    "selftest": (_cmd_selftest, "run the acceptance criteria", ()),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command; main builds only the one it runs.  No prefix
    of a flag is read, so `norms --r` is not --radius."""
    func, summary, flags = COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"pararadon {name}", description=summary,
                                allow_abbrev=False)
    for names, kwargs in flags:
        p.add_argument(*names, **kwargs)
    p.set_defaults(func=func, command=name)
    return p


def _top_parser() -> argparse.ArgumentParser:
    """The top-level parser, which splits off the command's own arguments."""
    ap = argparse.ArgumentParser(
        prog="pararadon", allow_abbrev=False,
        description="Convolution with parabolic surface measure: transforms, "
                    "symmetries, paraballs, extremizer search, affine measures.",
    )
    ap.add_argument("--config", help="JSON file of flag values, keyed by flag name "
                                     "with _ for -; typed flags win")
    ap.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                    help="one of: " + ", ".join(COMMANDS))
    ap.add_argument("args", nargs=argparse.REMAINDER, help="the command's flags")
    return ap


def _config_tokens(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The entries of a config file that `command` has flags for, written as
    those flags so that argparse checks them like typed ones; entries for
    other commands are skipped."""
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    # the keys are the commands' optional flags but for --help, the path a run
    # writes, and the element that `symmetry` inspects
    keys = {a.dest for name in COMMANDS for a in command_parser(name)._actions
            if a.option_strings and not a.required}
    unknown = set(cfg) - (keys - {"help", "out", "element", "generator", "params", "point"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = {a.dest: a.option_strings[0] for a in command._actions if a.option_strings}
    tokens = []
    for key, val in cfg.items():
        if key in flags:
            tokens += [flags[key], *map(str, val if isinstance(val, list) else [val])]
    return tokens


def main(argv=None) -> int:
    top = _top_parser().parse_args(argv)
    command = command_parser(top.command)
    try:
        # config tokens go first, so a typed flag given again wins
        tokens = _config_tokens(command, top.config) if top.config else []
        args = command.parse_args(tokens + top.args)
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        status = args.func(args)
        sys.stdout.flush()  # so a reader that closed the pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout left (`| head -1`): what it did not take goes
        # to devnull, the rest of the buffer too when Python flushes at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a tool a closed pipe ended
    except (ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        # an exception with no message, such as a bare MemoryError, is named
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
