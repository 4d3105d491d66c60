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

KNOWN_CONFIG_KEYS = {
    "tstep", "t_step", "adjoint_mode", "seed", "p", "r",
    "budget", "dim", "grid", "box", "theta", "tol", "max_iters", "init",
    "sigma", "step", "interval", "halfwidth", "coefficients",
    "chart_dim", "radius",
}

CONFIG_ALIASES = {"t_step": "tstep", "adjoint_mode": "mode"}

# hard defaults applied after the config merge (argparse leaves None so a
# config file can supply values without clobbering explicit flags)
HARD_DEFAULTS = {
    "seed": 0, "mode": "discrete", "r": 2.0, "radius": 1.0, "budget": 400,
    "dim": 2, "grid": 128, "box": 8.0, "theta": 0.5, "tol": 1e-6,
    "max_iters": 500, "init": "gaussian", "sigma": 1.0, "chart_dim": 3,
    "halfwidth": 1.0, "step": 1e-3,
}


def _emit(meta: dict, rows, header: str) -> None:
    sys.stdout.write(json.dumps(meta) + "\n")
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(cfg) - KNOWN_CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _plan_for(f: GridFunction, args) -> TransformPlan:
    """The plan on f's grid; only `adjoint` and `extremize` take `--mode`."""
    return TransformPlan(f.spec, t_step=args.tstep,
                         adjoint_mode=getattr(args, "mode", "discrete"))


# -- subcommand handlers ---------------------------------------------------

def _cmd_transform(args) -> int:
    f = GridFunction.load(args.infile)
    plan = _plan_for(f, args)
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
    plan = _plan_for(g, args)
    out = adjoint_transform(g, plan)
    out.save(args.out)
    p = ExponentPair(g.dim)
    _emit({"command": "adjoint", "in": args.infile, "out": args.out, "mode": plan.adjoint_mode},
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
    params = [float(x) for x in args.params]
    if args.generator == "translate":
        return symmetry.translation(params)
    if args.generator == "scale":
        if len(params) != 2:
            raise ValueError("scale needs two parameters: r d")
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
        el = symmetry.GroupElement.from_json(Path(args.element).read_text())
    elif args.generator:
        el = _make_generator(args)
    else:
        raise ValueError("symmetry needs --element or --generator")
    rows = [("lambda", el.lam), ("jacobian", el.jacobian)]
    if args.point:
        x = np.array([float(v) for v in args.point])
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
    plan = _plan_for(f, args)
    mask = f.support_mask()
    part = paraball.partition_by_interaction(mask, balls, args.eta, plan)
    rows = [(i, int(p.sum()), float(part.gammas[i])) for i, p in enumerate(part.parts)]
    rows.append(("remainder", int(part.remainder.sum()), 0.0))
    _emit({"command": "partition", "in": args.infile, "eta": args.eta,
           "balls": len(balls)}, rows, "part,cells,gamma")
    return 0


def _cmd_cover(args) -> int:
    f = GridFunction.load(args.infile)
    plan = _plan_for(f, args)
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
    plan = _plan_for(f0, args)
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
        params["interval"] = tuple(float(v) for v in args.interval)
    if args.coefficients:
        params["coefficients"] = [float(v) for v in args.coefficients]
    if args.chart == "paraboloid":
        params["dim"] = args.chart_dim
        params["halfwidth"] = args.halfwidth
    chart = affine.chart_by_name(args.chart, **params)
    rows = [("measure", affine.measure(chart, step=args.step))]
    if args.matrix:
        vals = [float(v) for v in args.matrix]
        d = chart.dim
        A = np.array(vals).reshape(d, d)
        rows.append(("linear_defect", affine.affine_invariance_defect(chart, A, step=args.step)))
    _emit({"command": "affine-measure", "chart": args.chart, "step": args.step},
          rows, "quantity,value")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


# -- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pararadon",
        description="Convolution with parabolic surface measure: transforms, "
                    "symmetries, paraballs, extremizer search, affine measures.",
    )
    ap.add_argument("--config", help="JSON file with default parameter values")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="forward transform of a PRGF1 function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tstep", type=float, default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("adjoint", help="adjoint transform of a PRGF1 function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tstep", type=float, default=None)
    p.add_argument("--mode", default=None, choices=ADJOINT_MODES)
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("norms", help="L^p, Lorentz quasinorm, and tail mass")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("decompose", help="rough level-set decomposition table")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("refine", help="entropy refinement of the level sets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("symmetry", help="inspect a group element")
    p.add_argument("--element", help="JSON file with element parameters")
    p.add_argument("--generator", choices=["translate", "scale", "galilean", "linear"])
    p.add_argument("--params", nargs="*", default=[])
    p.add_argument("--point", nargs="*", default=None)
    p.add_argument("--defect-check", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser("paraball-dist", help="quasidistance between two balls")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_paraball_dist)

    p = sub.add_parser("partition", help="interaction partition of a support set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--balls", nargs="+", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tstep", type=float, default=None)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("cover", help="greedy paraball extraction")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tstep", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("extremize", help="fixed-point extremizer search")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--tstep", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--init", default=None,
                   help="gaussian, indicator, or a PRGF1 path")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--mode", default=None, choices=ADJOINT_MODES)
    p.set_defaults(func=_cmd_extremize)

    p = sub.add_parser("affine-measure", help="affine arclength / surface measure")
    p.add_argument("--chart", required=True)
    p.add_argument("--interval", nargs=2, default=None)
    p.add_argument("--coefficients", nargs="*", default=None)
    p.add_argument("--chart-dim", type=int, default=None)
    p.add_argument("--halfwidth", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--matrix", nargs="*", default=None)
    p.set_defaults(func=_cmd_affine_measure)

    p = sub.add_parser("selftest", help="run the acceptance criteria at desk scale")
    p.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            for key, val in _load_config(args.config).items():
                attr = CONFIG_ALIASES.get(key, key.replace("-", "_"))
                if hasattr(args, attr) and getattr(args, attr) is None:
                    setattr(args, attr, val)
        for attr, val in HARD_DEFAULTS.items():
            if hasattr(args, attr) and getattr(args, attr) is None:
                setattr(args, attr, val)
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
