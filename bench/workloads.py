"""The four benchmark workloads: seeded inputs, one timed pass, the output
check, and the call counts a traced pass must show.

Every workload runs in the current directory (the worker's working
directory under the checkout).  ``setup`` writes the seeded inputs as
PRGF1 files; ``run_pass`` is the timed, user-visible work; ``check`` and
``trace_expectations`` run outside the timed section and return a list
of problems (empty when the pass is correct).  Sizes are chosen in
:data:`SIZES`: ``full`` is the benchmark, ``small`` runs the same code
at a reduced size for the benchmark's own tests.

Why each workload exists, and which layer it stresses, is recorded in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import pararadon as pr
import pararadon.cli
from pararadon.paraball import from_incidence
from pararadon.testing import random_element, smooth_bump

REL_TOL = 1e-12  # agreement required of quantities the program computes two ways

SIZES = {
    # grid cells per axis, t-step
    "extremize": {"full": (64, 0.015625), "small": (16, 0.25)},
    # grid cells per axis, fit budget
    "cover": {"full": (192, 1000), "small": (48, 120)},
    # grid cells per axis, group elements, target t_count
    "pairing": {"full": (128, 10, 330), "small": (32, 2, 82)},
    # grid cells per axis
    "transform3d": {"full": 32, "small": 10},
}


@dataclass
class PassResult:
    """What one pass produced: per-command (argv, exit code, stdout), and
    in-memory results for library workloads."""

    commands: list = field(default_factory=list)
    data: list = field(default_factory=list)

    @property
    def stdout(self) -> str:
        return "".join(out for _, _, out in self.commands)

    def failures(self) -> list[str]:
        return [f"{argv[0]} exited {rc}" for argv, rc, _ in self.commands if rc != 0]


def run_cli(result: PassResult, argv: list[str]) -> str:
    """Run one CLI command in-process, capturing its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = pararadon.cli.main(argv)
        except SystemExit as exc:  # argparse and config errors exit
            rc = exc.code if isinstance(exc.code, int) else 1
    result.commands.append((argv, rc, buf.getvalue()))
    return buf.getvalue()


def quantities(stdout: str) -> dict[str, float]:
    """The `quantity,value` rows of one command's CSV output."""
    rows = stdout.splitlines()[2:]
    return {name: float(value) for name, value in (row.split(",", 1) for row in rows)}


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Workload:
    """Defaults for the traced-run hooks."""

    def trace_expectations(self, state, res: PassResult, calls, counters) -> list[str]:
        """Problems with the call counts of a traced pass."""
        return []

    def useful_work(self, state, res: PassResult, calls) -> dict[str, float]:
        """Useful-outcome ratios of a traced pass."""
        return {}


class Extremize(Workload):
    """The paper's headline search, through `pararadon extremize`."""

    name = "extremize"
    max_iters = 500  # the CLI default

    def __init__(self, size: str):
        self.grid, self.tstep = SIZES[self.name][size]

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        spec = pr.box_spec([-4.0, -4.0], [4.0, 4.0], [self.grid] * 2)
        f0 = pr.gaussian_init(spec)
        pr.GridFunction(spec, f0.values * (1.0 + 0.1 * rng.random(spec.shape))).save("f0.prgf")
        return {"spec": spec, "seed": seed}

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        run_cli(res, ["extremize", "--init", "f0.prgf", "--tstep", repr(self.tstep),
                      "--out", "tr.csv"])
        return res

    def check(self, state, res: PassResult) -> list[str]:
        problems = res.failures()
        if problems:
            return problems
        q = quantities(res.stdout)
        if not q["iterations"] < self.max_iters:
            problems.append(f"no plateau within {self.max_iters} iterations")
        if not q["final_residual"] <= 1e-3:
            problems.append(f"final residual {q['final_residual']:.3e} > 1e-3")
        with open("tr.csv") as fh:
            phis = [float(row.split(",")[1]) for row in fh.read().splitlines()[1:]]
        if q["a_estimate"] != max(phis):
            problems.append("a_estimate is not the largest ratio in the trace")
        final = pr.GridFunction.load("tr.prgf")
        if final.spec != state["spec"]:
            return problems + ["final iterate is on the wrong grid"]
        plan = pr.TransformPlan(final.spec, t_step=self.tstep)
        tf = pr.forward_transform(final, plan)
        if not close(pr.lp_norm(tf, pr.ExponentPair(2).q), phis[-1]):
            problems.append("the saved final iterate does not reproduce the last ratio")
        rng = np.random.default_rng(state["seed"])
        cells = rng.choice(final.spec.size, min(256, final.spec.size), replace=False)
        oracle = pr.forward_at_points(final, final.spec.midpoints()[cells], plan)
        err = np.abs(tf.values.ravel()[cells] - oracle).max() / np.abs(oracle).max()
        if not err <= REL_TOL:
            problems.append(f"Tf disagrees with the pointwise oracle by {err:.2e}")
        return problems

    def trace_expectations(self, state, res: PassResult, calls, counters) -> list[str]:
        iters = int(quantities(res.stdout)["iterations"])
        want = iters + 1
        got = (calls("operator.forward"), calls("operator.adjoint_discrete"))
        if got != (want, want) or counters.get("extremizer.iterations") != iters:
            return [f"forward/adjoint calls {got}, expected {want} each"]
        return []


class Cover(Workload):
    """Greedy paraball extraction, through `pararadon cover`.

    The input is five disjoint paraball indicators on distinct dyadic
    levels with equal L^p mass, placed in fixed slots and jittered by the
    seed, plus a 3x3 block of dust on a low level.  Each ball is one
    piece; the dust keeps the residual nonzero, so every seed ends with
    one fit that captures too little.  Every seed therefore costs the
    same six fits, and wall time compares across seeds.
    """

    name = "cover"
    eta = 0.05
    slots = ((-2.0, -2.5), (2.0, -2.5), (-2.0, 1.0), (2.0, 1.0), (0.0, -0.8))
    levels = (-1, 0, 1, 2, 3)

    def __init__(self, size: str):
        self.grid, self.budget = SIZES[self.name][size]

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        spec = pr.box_spec([-4.0, -4.0], [4.0, 4.0], [self.grid] * 2)
        p = pr.ExponentPair(2).p
        values = np.zeros(spec.shape)
        for (x, y), j in zip(self.slots, rng.permutation(self.levels)):
            area = 1.4 * 2.0 ** (-(j + 1) * p)  # equal L^p mass on every level
            aspect = rng.uniform(1.8, 2.2)      # radius / thickness
            rho = math.sqrt(area / (4.0 * aspect))
            dx, dy = rng.uniform(-0.2, 0.2, 2)
            ball = from_incidence([x + dx], y + dy, [x + dx], np.eye(1), [aspect * rho], rho)
            inside = pr.rasterize(ball, spec).values > 0
            if np.any(inside & (values > 0)):
                raise ValueError("cover input balls overlap")
            values[inside] = 2.0 ** j
        values[-6:-3, -6:-3] = 2.0 ** -4
        f = pr.GridFunction(spec, values)
        f.save("f.prgf")
        return {"f": f, "seed": seed}

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        run_cli(res, ["cover", "--in", "f.prgf", "--eta", repr(self.eta),
                      "--budget", str(self.budget), "--seed", str(state["seed"])])
        return res

    @staticmethod
    def pieces(stdout: str):
        """(ball, lp capture) per reported piece."""
        out = []
        for row in stdout.splitlines()[2:]:
            _, lp, _, ball = row.split(",", 3)
            out.append((pr.Paraball.from_json(ball), float(lp)))
        return out

    def check(self, state, res: PassResult) -> list[str]:
        """The CLI reports each piece's ball and L^p capture, not its cells,
        so disjointness and piece <= f are checked through mass: a set of
        disjoint pieces, each at most f and inside its ball, has total
        p-mass at most that of f on the union of their balls."""
        problems = res.failures()
        if problems:
            return problems
        f = state["f"]
        p = pr.ExponentPair(2).p
        mass = f.values.ravel() ** p * f.spec.cell_volume
        total = float(mass.sum())
        pieces = self.pieces(res.stdout)
        bound = math.ceil(0.05 ** (-p))
        if not 1 <= len(pieces) <= bound:
            problems.append(f"{len(pieces)} pieces, expected 1..{bound}")
        mids = f.spec.midpoints()
        inside = [pr.contains(ball, mids) for ball, _ in pieces]
        caps = [lp**p for _, lp in pieces]
        slack = 1.0 + REL_TOL
        for i, cap in enumerate(caps):
            if cap < 0.05**p * total / slack:
                problems.append(f"piece {i} captures less than 5% of ||f||_p")
            for j in range(i, len(caps)):
                union = inside[i] | inside[j]
                both = cap + caps[j] if j > i else cap
                if both > float(mass[union].sum()) * slack:
                    problems.append(f"pieces {i},{j} hold more mass than f on their balls")
        if sum(caps) > total * slack:
            problems.append("pieces hold more L^p mass than f")
        return problems

    def trace_expectations(self, state, res: PassResult, calls, counters) -> list[str]:
        pieces = len(self.pieces(res.stdout))
        fits, ratios = calls("paraball.fit"), calls("operator.rayleigh_ratio")
        # each cover step evaluates the residual's ratio once, then fits
        # unless the ratio is below eta; the last fit may capture too little
        if not (ratios - 1 <= fits <= ratios and pieces <= fits <= pieces + 1):
            return [f"{ratios} ratios, {fits} fits for {pieces} pieces"]
        return []

    def useful_work(self, state, res: PassResult, calls) -> dict[str, float]:
        p = pr.ExponentPair(2).p
        pieces = self.pieces(res.stdout)
        fpp = pr.lp_norm(state["f"], p) ** p
        return {"paraball.kept_ratio": len(pieces) / calls("paraball.fit"),
                "paraball.captured_frac": sum(lp**p for _, lp in pieces) / fpp}


class Pairing(Workload):
    """Pullbacks and transforms on mismatched grids, through the library.

    Of `candidates` seeded random elements, the `count` whose plan has
    t_count nearest the target of SIZES are used, so every seed does about
    the same quadrature work (t_count varies about sevenfold across random
    elements).  Choosing them is the benchmark's own work, not the
    program's: set-up reports its time as ``bench_s``, which ``setup_s``
    leaves out.
    """

    name = "pairing"
    candidates = 120

    def __init__(self, size: str):
        self.grid, self.count, self.target = SIZES[self.name][size]

    @staticmethod
    def _t_step(f2_spec) -> float:
        return float(min(f2_spec.widths[:-1]))

    def setup(self, seed: int) -> dict:
        spec = pr.box_spec([-1.5, -1.5], [1.5, 1.5], [self.grid] * 2)
        f = smooth_bump(spec, center=[0.1, 0.0], radius=1.2)
        g = smooth_bump(spec, center=[-0.1, 0.2], radius=1.1)
        f.save("f.prgf")
        g.save("g.prgf")
        # The pullback grids cover the mapped box whatever their counts, and
        # t_count depends only on the grids' bounds and the t-step, so a plan
        # between 2x2 probe grids scores an element without a full-size plan.
        t0 = time.perf_counter()
        probe = pr.GridFunction.zeros(pr.GridSpec(spec.bounds, (2, 2)))
        rng = np.random.default_rng(seed)
        scored = []
        for i in range(self.candidates):
            el = random_element(rng, 2)
            f2 = pr.partner_pullback(el, probe).spec
            g2 = pr.pullback(el, probe).spec
            step = self._t_step(pr.GridSpec(f2.bounds, spec.counts))
            t_count = pr.TransformPlan(f2, output=g2, t_step=step).t_count()
            scored.append((abs(t_count - self.target), i, el))
        elements = [el for _, _, el in sorted(scored, key=lambda s: s[:2])[:self.count]]
        return {"f": f, "g": g, "elements": elements, "bench_s": time.perf_counter() - t0}

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        lines = []
        for i, el in enumerate(state["elements"]):
            f2 = pr.partner_pullback(el, state["f"])
            g2 = pr.pullback(el, state["g"])
            plan = pr.TransformPlan(f2.spec, output=g2.spec, t_step=self._t_step(f2.spec))
            pairing = pr.bilinear_form(g2, f2, plan)
            h = pr.adjoint_transform(g2, plan, mode="discrete")
            adjoint_pairing = pr.inner(h, f2)
            lines.append(f"{i},{plan.t_count()},{pairing!r},{adjoint_pairing!r}\n")
            res.data.append((f2, g2, pairing, adjoint_pairing))
        res.commands.append((["pairing"], 0, "element,t_count,pairing,adjoint_pairing\n"
                             + "".join(lines)))
        return res

    def check(self, state, res: PassResult) -> list[str]:
        problems = []
        p = pr.ExponentPair(2).p
        base_f, base_g = pr.lp_norm(state["f"], p), pr.lp_norm(state["g"], p)
        for i, (f2, g2, pairing, adjoint_pairing) in enumerate(res.data):
            if not close(pairing, adjoint_pairing):
                problems.append(f"element {i}: adjointness defect "
                                f"{abs(pairing - adjoint_pairing) / abs(pairing):.2e}")
            for name, got, base in (("partner pullback", f2, base_f), ("pullback", g2, base_g)):
                drift = abs(pr.lp_norm(got, p) - base) / base
                if drift > 0.01:
                    problems.append(f"element {i}: {name} changes ||.||_p by {drift:.2%}")
        return problems

    def trace_expectations(self, state, res: PassResult, calls, counters) -> list[str]:
        n = self.count
        got = (calls("operator.plan"), calls("operator.forward"), calls("operator.adjoint_discrete"))
        if got != (n, n, n):
            return [f"plans/forwards/adjoints {got}, expected {n} each"]
        return []


class Transform3d(Workload):
    """A d = 3 chain of CLI commands over PRGF1 files."""

    name = "transform3d"
    eta = 0.1
    outputs = ("Tf.prgf", "TsTf.prgf", "TsTf_c.prgf", "Tf_refined.prgf")

    def __init__(self, size: str):
        self.grid = SIZES[self.name][size]

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        spec = pr.box_spec([-3.0] * 3, [3.0] * 3, [self.grid] * 3)
        f = smooth_bump(spec, center=rng.uniform(-0.3, 0.3, 3), radius=rng.uniform(1.8, 2.2))
        f.save("f.prgf")
        return {"f": f}

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        for argv in (["transform", "--in", "f.prgf", "--out", "Tf.prgf"],
                     ["adjoint", "--in", "Tf.prgf", "--out", "TsTf.prgf"],
                     ["adjoint", "--in", "Tf.prgf", "--out", "TsTf_c.prgf", "--mode", "continuum"],
                     ["norms", "--in", "Tf.prgf"],
                     ["decompose", "--in", "Tf.prgf"],
                     ["refine", "--in", "Tf.prgf", "--eta", repr(self.eta),
                      "--out", "Tf_refined.prgf"]):
            run_cli(res, argv)
        return res

    def check(self, state, res: PassResult) -> list[str]:
        problems = res.failures()
        if problems:
            return problems
        f = state["f"]
        pair = pr.ExponentPair(3)
        loaded = {}
        for path in self.outputs:
            loaded[path] = pr.GridFunction.load(path)
            if loaded[path].spec != f.spec:
                problems.append(f"{path} reloads on the wrong grid")
        if problems:
            return problems
        out = [quantities(stdout) for argv, _, stdout in res.commands
               if argv[0] in ("transform", "adjoint", "refine")]
        reported = ((loaded["Tf.prgf"], pair.q, out[0]["output_lq"]),
                    (loaded["TsTf.prgf"], pair.p, out[1]["output_lp"]),
                    (loaded["TsTf_c.prgf"], pair.p, out[2]["output_lp"]),
                    (loaded["Tf_refined.prgf"], pair.p, out[3]["refined_lp"]))
        for (path, (g, p, value)) in zip(self.outputs, reported):
            if np.any(g.values < 0):
                problems.append(f"{path} has negative values from a nonnegative input")
            if not close(pr.lp_norm(g, p), value):
                problems.append(f"{path} does not match the norm its command reported")
        tf, tstf = loaded["Tf.prgf"], loaded["TsTf.prgf"]
        if not close(pr.inner(tf, tf), pr.inner(tstf, f)):
            problems.append("<Tf, Tf> and <T*Tf, f> disagree")
        header = json.loads(res.commands[4][2].splitlines()[0])
        if header.get("levels", 0) < 1:
            problems.append("decompose found no levels")
        return problems

    def trace_expectations(self, state, res: PassResult, calls, counters) -> list[str]:
        got = {name: calls(name) for name in
               ("operator.forward", "operator.adjoint_discrete", "operator.adjoint_continuum",
                "operator.plan", "grid.prgf_load", "grid.prgf_save", "cli.main")}
        want = {"operator.forward": 1, "operator.adjoint_discrete": 1,
                "operator.adjoint_continuum": 1, "operator.plan": 3,
                "grid.prgf_load": 6, "grid.prgf_save": 4, "cli.main": 6}
        if got != want:
            return [f"call counts {got}, expected {want}"]
        return []


WORKLOADS = {cls.name: cls for cls in (Extremize, Cover, Pairing, Transform3d)}
