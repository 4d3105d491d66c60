"""Command-line surface: transforms, norms, decompositions, symmetries,
paraball distances, partitions, covers, extremizer runs, affine measures,
and a built-in selftest.

Every run is deterministic given argv, input files, and the seed.  Numeric
output goes to stdout as CSV preceded by a one-line JSON metadata header;
grid functions travel as PRGF1 files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import affine, extremizer, norms, paraball, symmetry
from .grid import GridFunction, box_spec
from .norms import ExponentPair
from .operator import ADJOINT_MODES, TransformPlan, adjoint_transform, forward_transform

# keys a --config file may set: each is the destination of a flag that is
# optional for at least one command (tests/test_cli.py guards this)
CONFIG_KEYS = {
    "tstep", "mode", "seed", "p", "r", "budget", "dim", "grid", "box", "theta", "tol",
    "max_iters", "init", "sigma", "step", "interval", "halfwidth", "coefficients",
    "chart_dim", "radius",
}


def _emit(meta: dict, rows, header: str) -> None:
    sys.stdout.write(json.dumps(meta) + "\n")
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


# -- subcommand handlers ---------------------------------------------------

def _cmd_transform(args) -> int:
    f = GridFunction.load(args.infile)
    plan = TransformPlan(f.spec, t_step=args.tstep)
    out = forward_transform(f, plan)
    out.save(args.out)
    p = ExponentPair(f.dim)
    _emit({"command": "transform", "in": args.infile, "out": args.out,
           "t_count": plan.t_count()},
          [("input_lp", norms.lp_norm(f, p.p)), ("output_lq", norms.lp_norm(out, p.q))],
          "quantity,value")
    return 0


def _cmd_adjoint(args) -> int:
    g = GridFunction.load(args.infile)
    plan = TransformPlan(g.spec, t_step=args.tstep)
    out = adjoint_transform(g, plan, args.mode)
    out.save(args.out)
    p = ExponentPair(g.dim)
    _emit({"command": "adjoint", "in": args.infile, "out": args.out, "mode": args.mode},
          [("output_lp", norms.lp_norm(out, p.p))], "quantity,value")
    return 0


def _cmd_norms(args) -> int:
    f = GridFunction.load(args.infile)
    p = args.p if args.p is not None else ExponentPair(f.dim).p
    rows = [("lp_norm", norms.lp_norm(f, p)),
            ("lorentz_quasinorm", norms.lorentz_quasinorm(f, p, args.r)),
            ("tail_mass", norms.tail_mass(f, args.radius, p))]
    _emit({"command": "norms", "in": args.infile, "p": p, "r": args.r, "R": args.radius},
          rows, "quantity,value")
    return 0


def _cmd_decompose(args) -> int:
    f = GridFunction.load(args.infile)
    pair = ExponentPair(f.dim)
    dec = norms.rough_decompose(f)
    cv = f.spec.cell_volume
    rows = [(lv.j, len(lv.cells), lv.measure(cv), lv.score(pair.p, cv),
             float(lv.residuals.min()), float(lv.residuals.max()))
            for lv in dec.levels]
    _emit({"command": "decompose", "in": args.infile, "levels": len(dec.levels)},
          rows, "level,cells,measure,score,residual_min,residual_max")
    return 0


def _cmd_refine(args) -> int:
    f = GridFunction.load(args.infile)
    p = args.p if args.p is not None else ExponentPair(f.dim).p
    refined, kept = norms.entropy_refine(f, args.eta, p, args.r)
    if args.out:
        refined.save(args.out)
    rows = [("kept_levels", float(len(kept))),
            ("refined_lp", norms.lp_norm(refined, p)),
            ("dropped_lp", norms.lp_norm(f.with_values(f.values - refined.values), p))]
    _emit({"command": "refine", "in": args.infile, "eta": args.eta, "p": p, "r": args.r,
           "kept": sorted(kept)}, rows, "quantity,value")
    return 0


def _make_generator(args) -> symmetry.GroupElement:
    if args.generator == "translate":
        return symmetry.translation(args.params)
    if args.generator == "scale":
        if len(args.params) != 2:
            raise ValueError("scale needs two parameters: r d")
        return symmetry.scaling(args.params[0], int(args.params[1]))
    if args.generator == "galilean":
        return symmetry.galilean(args.params)
    if args.generator == "linear":
        k = int(round(len(args.params) ** 0.5))
        if k * k != len(args.params):
            raise ValueError("linear needs a flattened square matrix")
        return symmetry.linear_symmetry(np.array(args.params).reshape(k, k))
    raise ValueError(f"unknown generator {args.generator}")


def _cmd_symmetry(args) -> int:
    if args.element:
        el = symmetry.GroupElement.from_json(Path(args.element).read_text())
    elif args.generator:
        el = _make_generator(args)
    else:
        raise ValueError("symmetry needs --element or --generator")
    rows = [("lambda", el.lam), ("jacobian", el.jacobian)]
    if args.point:
        x = np.array(args.point)
        y = symmetry.apply_point(el, x)
        rows += [(f"phi_{i}", float(v)) for i, v in enumerate(y)]
        z = symmetry.apply_partner_point(el, x)
        rows += [(f"psi_{i}", float(v)) for i, v in enumerate(z)]
    if args.defect_check:
        rng = np.random.default_rng(args.seed)
        x = rng.standard_normal((args.defect_check, el.dim))
        y = rng.standard_normal((args.defect_check, el.dim))
        defect = np.abs(symmetry.incidence_defect(el, x, y))
        rows.append(("max_defect", float(defect.max())))
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
    mask = f.support_mask()
    part = paraball.partition_by_interaction(mask, balls, args.eta, plan)
    rows = [(i, int(p.sum()), float(part.gammas[i])) for i, p in enumerate(part.parts)]
    rows.append(("remainder", int(part.remainder.sum()), 0.0))
    _emit({"command": "partition", "in": args.infile, "eta": args.eta,
           "balls": len(balls)}, rows, "part,cells,gamma")
    return 0


def _cmd_cover(args) -> int:
    f = GridFunction.load(args.infile)
    plan = TransformPlan(f.spec, t_step=args.tstep)
    pair = ExponentPair(f.dim)
    pieces = paraball.greedy_cover(f, args.eta, args.budget, plan=plan, seed=args.seed)
    rows = []
    for i, (ball, piece) in enumerate(pieces):
        rows.append((i, norms.lp_norm(piece, pair.p), paraball.volume(ball), ball.to_json()))
    _emit({"command": "cover", "in": args.infile, "eta": args.eta, "pieces": len(pieces)},
          rows, "piece,lp_capture,ball_volume,ball_json")
    return 0


def _cmd_extremize(args) -> int:
    if args.init in ("gaussian", "indicator"):
        d = args.dim
        half = args.box / 2.0
        spec = box_spec([-half] * d, [half] * d, [args.grid] * d)
        if args.init == "gaussian":
            f0 = extremizer.gaussian_init(spec, sigma=args.sigma)
        else:
            f0 = GridFunction.box_indicator(spec, [-1.0] * d, [1.0] * d)
    else:
        f0 = GridFunction.load(args.init)
    plan = TransformPlan(f0.spec, t_step=args.tstep)
    trace = extremizer.extremize(f0, plan, max_iters=args.max_iters, tol=args.tol,
                                 theta=args.theta)
    trace.write_csv(args.out)
    final_path = os.path.splitext(args.out)[0] + ".prgf"
    trace.final.save(final_path)
    # a quarter of the shortest box side: --box / 4 for a generated start
    radius = float(np.min(f0.spec.hi - f0.spec.lo)) / 4.0
    rows = [("a_estimate", trace.a_estimate),
            ("iterations", float(len(trace.steps) - 1)),
            ("final_residual", trace.steps[-1].residual),
            ("tail_mass", norms.tail_mass(trace.final, radius, ExponentPair(f0.dim).p))]
    _emit({"command": "extremize", "trace": args.out, "final": final_path},
          rows, "quantity,value")
    return 0


def _cmd_affine_measure(args) -> int:
    params = {}
    if args.interval:
        params["interval"] = tuple(args.interval)
    if args.coefficients:
        params["coefficients"] = args.coefficients
    if args.chart == "paraboloid":
        params["dim"] = args.chart_dim
        params["halfwidth"] = args.halfwidth
    chart = affine.chart_by_name(args.chart, **params)
    rows = [("measure", affine.measure(chart, step=args.step))]
    if args.matrix:
        A = np.array(args.matrix).reshape(chart.dim, chart.dim)
        rows.append(("linear_defect", affine.affine_invariance_defect(chart, A, step=args.step)))
    _emit({"command": "affine-measure", "chart": args.chart, "step": args.step},
          rows, "quantity,value")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


# -- parser -----------------------------------------------------------------

def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several commands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, which splits off the command's own arguments,
    and one parser per command."""
    commands = {}

    def command(name, func, description, parents=()):
        p = argparse.ArgumentParser(prog=f"pararadon {name}", description=description,
                                    parents=parents)
        p.set_defaults(func=func)
        commands[name] = p
        return p

    infile = _flag("--in", dest="infile", required=True)
    out = _flag("--out", required=True)
    tstep = _flag("--tstep", type=float, help="t-grid step (default: the input cell width)")
    eta = _flag("--eta", type=float, required=True)
    seed = _flag("--seed", type=int, default=0)
    exponents = _flag("--p", type=float, help="default: (d+1)/d for the input's d")
    exponents.add_argument("--r", type=float, default=2.0)

    command("transform", _cmd_transform, "forward transform of a PRGF1 function",
            [infile, out, tstep])
    p = command("adjoint", _cmd_adjoint, "adjoint transform of a PRGF1 function",
                [infile, out, tstep])
    p.add_argument("--mode", default="discrete", choices=ADJOINT_MODES)

    p = command("norms", _cmd_norms, "L^p, Lorentz quasinorm, and tail mass",
                [infile, exponents])
    p.add_argument("--radius", type=float, default=1.0)

    command("decompose", _cmd_decompose, "rough level-set decomposition table", [infile])

    p = command("refine", _cmd_refine, "entropy refinement of the level sets",
                [infile, eta, exponents])
    p.add_argument("--out")

    p = command("symmetry", _cmd_symmetry, "inspect a group element", [seed])
    p.add_argument("--element", help="JSON file with element parameters")
    p.add_argument("--generator", choices=["translate", "scale", "galilean", "linear"])
    p.add_argument("--params", nargs="*", type=float, default=[])
    p.add_argument("--point", nargs="*", type=float)
    p.add_argument("--defect-check", type=int, default=0)

    p = command("paraball-dist", _cmd_paraball_dist, "quasidistance between two balls")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = command("partition", _cmd_partition, "interaction partition of a support set",
                [infile, eta, tstep])
    p.add_argument("--balls", nargs="+", required=True)

    p = command("cover", _cmd_cover, "greedy paraball extraction", [infile, eta, tstep, seed])
    p.add_argument("--budget", type=int, default=400)

    p = command("extremize", _cmd_extremize, "fixed-point extremizer search", [tstep])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--box", type=float, default=8.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--init", default="gaussian", help="gaussian, indicator, or a PRGF1 path")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--out", required=True, help="trace CSV path")

    p = command("affine-measure", _cmd_affine_measure, "affine arclength / surface measure")
    p.add_argument("--chart", required=True)
    p.add_argument("--interval", nargs=2, type=float)
    p.add_argument("--coefficients", nargs="*", type=float)
    p.add_argument("--chart-dim", type=int, default=3)
    p.add_argument("--halfwidth", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--matrix", nargs="*", type=float)

    command("selftest", _cmd_selftest, "run the acceptance criteria at desk scale")

    ap = argparse.ArgumentParser(
        prog="pararadon",
        description="Convolution with parabolic surface measure: transforms, "
                    "symmetries, paraballs, extremizer search, affine measures.",
    )
    ap.add_argument("--config", help="JSON file of flag values, keyed by flag name "
                                     "with _ for -; typed flags win")
    ap.add_argument("command", choices=commands, metavar="COMMAND",
                    help="one of: " + ", ".join(commands))
    ap.add_argument("args", nargs=argparse.REMAINDER, help="the command's flags")
    return ap, commands


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
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = {a.dest: a.option_strings[0] for a in command._actions if a.option_strings}
    tokens = []
    for key, val in cfg.items():
        if key in flags:
            tokens += [flags[key], *map(str, val if isinstance(val, list) else [val])]
    return tokens


def main(argv=None) -> int:
    ap, commands = _build_parser()
    top = ap.parse_args(argv)
    command = commands[top.command]
    try:
        # config tokens go first, so a typed flag given again wins
        tokens = _config_tokens(command, top.config) if top.config else []
        args = command.parse_args(tokens + top.args)
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
