import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pararadon
from pararadon import affine, extremizer, selftest
from pararadon.cli import COMMANDS, command_parser, main
from pararadon.grid import GridFunction, box_spec
from pararadon.norms import tail_mass
from pararadon.operator import TransformPlan
from pararadon.paraball import from_incidence, unit_paraball
from pararadon.symmetry import scaling
from pararadon.testing import smooth_bump


@pytest.fixture()
def bump_file(tmp_path):
    spec = box_spec([-2, -2], [2, 2], [32, 32])
    f = smooth_bump(spec, radius=1.4)
    path = tmp_path / "f.prgf"
    f.save(path)
    return path


def test_transform_round_trip(tmp_path, bump_file, capsys):
    out = tmp_path / "Tf.prgf"
    rc = main(["transform", "--in", str(bump_file), "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["command"] == "transform"
    assert lines[1] == "quantity,value"
    tf = GridFunction.load(out)
    assert tf.values.min() >= 0 and tf.values.max() > 0


def test_adjoint_cli(tmp_path, bump_file):
    out = tmp_path / "Tsg.prgf"
    assert main(["adjoint", "--in", str(bump_file), "--out", str(out),
                 "--mode", "continuum"]) == 0
    assert GridFunction.load(out).values.max() > 0


def test_norms_and_decompose(bump_file, capsys):
    assert main(["norms", "--in", str(bump_file), "--radius", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "lp_norm" in out and "tail_mass" in out
    assert main(["decompose", "--in", str(bump_file)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1].startswith("level,")
    assert len(out) > 2


def test_refine_cli(tmp_path, bump_file, capsys):
    out = tmp_path / "refined.prgf"
    assert main(["refine", "--in", str(bump_file), "--eta", "0.05",
                 "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out.splitlines()[0])
    assert isinstance(meta["kept"], list)
    assert GridFunction.load(out).values.max() > 0


def test_symmetry_cli(capsys):
    assert main(["symmetry", "--generator", "scale", "--params", "2", "2",
                 "--point", "1", "1"]) == 0
    element = json.dumps({"L": [[2.0]], "u": [0.0], "t": 4.0, "a": 0.0, "v": [0.0]})
    header = json.dumps({"command": "symmetry", "element": element})
    rows = ["lambda,4", "jacobian,8", "phi_0,2", "phi_1,4", "psi_0,2", "psi_1,4"]
    assert capsys.readouterr().out == "\n".join([header, "quantity,value", *rows]) + "\n"


def test_paraball_dist_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(unit_paraball(2).to_json())
    b.write_text(from_incidence([0.5], 0.25, [0.0], np.eye(1), [1.0], 1.0).to_json())
    assert main(["paraball-dist", "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out
    assert "quasidistance," in out


def test_cover_cli(tmp_path, capsys):
    spec = box_spec([-1.6, -1.6], [1.6, 2.6], [40, 52])
    from pararadon.paraball import rasterize

    rasterize(unit_paraball(2), spec).save(tmp_path / "ball.prgf")
    assert main(["cover", "--in", str(tmp_path / "ball.prgf"), "--eta", "0.05",
                 "--budget", "200"]) == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    assert header["pieces"] >= 1
    # the plan's t_count comes last, as in the transform headers
    assert list(header) == ["command", "in", "eta", "pieces", "stop", "t_count"]
    assert header["t_count"] == TransformPlan(spec).t_count()


def test_partition_cli(tmp_path, capsys):
    spec = box_spec([-2.5, -2.5], [9.5, 3.0], [60, 28])
    a = unit_paraball(2)
    b = from_incidence([7.0], 0.0, [7.0], np.eye(1), [1.0], 1.0)
    from pararadon.paraball import expanded_contains

    mids = spec.midpoints()
    mask = (expanded_contains(a, 2.0, mids) | expanded_contains(b, 2.0, mids))
    GridFunction(spec, mask.reshape(spec.shape).astype(float)).save(tmp_path / "F.prgf")
    (tmp_path / "a.json").write_text(a.to_json())
    (tmp_path / "b.json").write_text(b.to_json())
    argv = ["partition", "--in", str(tmp_path / "F.prgf"), "--eta", "0.1",
            "--balls", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[1] == "part,cells,gamma"
    header = json.loads(lines[0])
    assert list(header) == ["command", "in", "eta", "balls", "t_count"]
    assert header["t_count"] == TransformPlan(spec).t_count()
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_extremize_cli(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["extremize", "--dim", "2", "--grid", "32", "--box", "6",
               "--tol", "1e-4", "--max-iters", "40", "--out", str(trace)])
    assert rc == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    assert list(header) == ["command", "trace", "final", "stop", "extrapolated", "t_count"]
    spec = box_spec([-3, -3], [3, 3], [32, 32])
    plan = TransformPlan(spec)
    assert header["t_count"] == plan.t_count()
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,phi,residual,extrapolated"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 2
    # the flag column sums to the header's count
    assert header["extrapolated"] > 0
    assert sum(int(row[3]) for row in rows) == header["extrapolated"]
    # each row is the library's step, to all 17 digits
    want = extremizer.extremize(extremizer.gaussian_init(spec), plan, max_iters=40, tol=1e-4)
    assert [(int(k), float(phi), float(res), int(ext)) for k, phi, res, ext in rows] == [
        (k, s.phi, s.residual, int(s.extrapolated)) for k, s in enumerate(want.steps)]
    assert (tmp_path / "trace.prgf").exists()


def test_extremize_trace_is_not_its_final_iterate(tmp_path, bump_file, capsys, monkeypatch):
    # the final iterate goes to the trace's path with the extension .prgf, so a
    # .prgf trace would be overwritten: the run stops before it reads a start
    monkeypatch.chdir(tmp_path)
    for argv in (["--grid", "16"], ["--init", str(bump_file)]):
        for out in ("run.prgf", "./run.prgf"):
            assert main(["extremize", *argv, "--out", out]) == 1
            message = (f"the trace {out} and the final iterate {out} are one file; "
                       "give --out an extension other than .prgf")
            assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == [bump_file]


def test_readme_cli_examples_parse():
    # each command but selftest has one example line in README's CLI block,
    # and it parses, so a doc that names a removed flag fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    names = []
    for line in block.replace("\\\n", " ").splitlines():
        prog, name, *argv = shlex.split(line)
        assert prog == "pararadon"
        command_parser(name).parse_args(argv)
        names.append(name)
    assert sorted(names) == sorted(set(COMMANDS) - {"selftest"})


def test_extremize_init_file_sets_dim_and_radius(tmp_path, capsys):
    # the exponent and the tail-mass radius (a quarter of the shortest box
    # side) come from the loaded grid, not from --dim and --box
    cases = ((box_spec([-2] * 3, [2] * 3, [12] * 3), 1.0, 4 / 3),
             (box_spec([-1, -1], [1, 1], [32, 32]), 0.5, 1.5))
    for k, (spec, radius, p) in enumerate(cases):
        init, trace = tmp_path / f"f{k}.prgf", tmp_path / f"trace{k}.csv"
        smooth_bump(spec, radius=0.9).save(init)
        capsys.readouterr()
        assert main(["extremize", "--init", str(init), "--max-iters", "2",
                     "--out", str(trace)]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[2:])
        reported = float(rows["tail_mass"])
        final = GridFunction.load(tmp_path / f"trace{k}.prgf")
        assert final.spec == spec
        outside = np.linalg.norm(spec.midpoints(), axis=1) >= radius
        assert reported == tail_mass(final, radius) == float(
            np.sum(np.abs(final.values.ravel()[outside]) ** p)) * spec.cell_volume
        assert reported > 0


def test_affine_measure_cli(capsys):
    assert main(["affine-measure", "--chart", "circle", "--step", "1e-3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    val = float(lines[-1].split(",")[1])
    assert val == pytest.approx(2 * np.pi, abs=1e-5)


def test_affine_measure_checks_the_chart_flags(capsys):
    # a chart flag that the chosen chart does not take is named, not ignored
    for chart, flag, *values in (("paraboloid", "--interval", "0", "1"),
                                 ("circle", "--chart-dim", "3"), ("parabola", "--halfwidth", "2"),
                                 ("parabola", "--coefficients", "1", "0")):
        capsys.readouterr()
        assert main(["affine-measure", "--chart", chart, flag, *values]) == 1
        assert capsys.readouterr() == ("", f"error: the {chart} chart takes no {flag}\n")
    # and a flag that it needs, and has no default for, is named too
    assert main(["affine-measure", "--chart", "polynomial"]) == 1
    assert capsys.readouterr() == ("", "error: the polynomial chart needs --coefficients\n")
    # a chart name is taken in any case
    assert main(["affine-measure", "--chart", "circle", "--step", "0.1"]) == 0
    lower = capsys.readouterr()
    assert main(["affine-measure", "--chart", "Circle", "--step", "0.1"]) == 0
    assert capsys.readouterr() == lower


# Full stdout of six runs, recorded while plane curves still had a chart type of
# their own; as d = 2 hypersurface charts they must print the same bytes.
AFFINE_MEASURE_PINNED = [
    ("--chart parabola", "parabola", 0.001, ["measure,1.259921049894881"]),
    ("--chart circle", "circle", 0.001, ["measure,6.2831853071795862"]),
    ("--chart polynomial --coefficients 1 0 -1 0 --interval 0.2 1",
     "polynomial", 0.001, ["measure,1.2034417078046036"]),
    ("--chart parabola --interval 0.2 0.9", "parabola", 0.001, ["measure,0.88194473492640701"]),
    ("--chart paraboloid --chart-dim 2", "paraboloid", 0.001, ["measure,2.5198420997897522"]),
    ("--chart paraboloid --chart-dim 3 --halfwidth 0.8 --step 4e-2", "paraboloid", 0.04,
     ["measure,3.6203867196750954"]),
]


@pytest.mark.parametrize("argv, chart, step, rows", AFFINE_MEASURE_PINNED,
                         ids=[case[0].split()[1] + str(i) for i, case in
                              enumerate(AFFINE_MEASURE_PINNED)])
def test_affine_measure_pinned_output(argv, chart, step, rows, capsys):
    assert main(["affine-measure", *argv.split()]) == 0
    header = json.dumps({"command": "affine-measure", "chart": chart, "step": step})
    assert capsys.readouterr().out == "\n".join([header, "quantity,value", *rows]) + "\n"


@pytest.mark.parametrize("argv, chart, step, rows", AFFINE_MEASURE_PINNED,
                         ids=[case[0].split()[1] + str(i) for i, case in
                              enumerate(AFFINE_MEASURE_PINNED)])
def test_affine_measure_output_does_not_depend_on_the_builtin_sum(argv, chart, step, rows,
                                                                  monkeypatch, capsys):
    # Python 3.12 made the builtin sum compensated; math.fsum gives its results
    monkeypatch.setattr(affine, "sum", math.fsum, raising=False)
    test_affine_measure_pinned_output(argv, chart, step, rows, capsys)


# quantity,value rows of transform and adjoint on a 2-D and a 3-D bump, recorded
# before the engines read one shared t-node table; matched grids run the
# lattice engine, whose output that table left bit for bit unchanged
TRANSFORM_PINNED = {
    2: (32, 32, ["input_lp,0.58733412564887832", "output_lq,0.65260625873924616"],
        ["output_lp,1.222634400660614"]),
    3: (12, 144, ["input_lp,0.771442382379942", "output_lq,0.80237124638865831"],
        ["output_lp,3.2984466603627198"]),
}


@pytest.mark.parametrize("d", sorted(TRANSFORM_PINNED))
def test_transform_and_adjoint_pinned_output(d, tmp_path, capsys):
    n, t_count, forward_rows, adjoint_rows = TRANSFORM_PINNED[d]
    spec = box_spec([-2] * d, [2] * d, [n] * d)
    infile, outfile = str(tmp_path / "f.prgf"), str(tmp_path / "o.prgf")
    smooth_bump(spec, radius=1.4).save(infile)
    io = {"in": infile, "out": outfile}
    cases = ((["transform"], {"command": "transform", **io}, forward_rows),
             (["adjoint"], {"command": "adjoint", **io, "mode": "discrete"}, adjoint_rows),
             (["adjoint", "--mode", "continuum"],
              {"command": "adjoint", **io, "mode": "continuum"}, adjoint_rows))
    for argv, meta, rows in cases:
        capsys.readouterr()
        assert main([argv[0], "--in", infile, "--out", outfile, *argv[1:]]) == 0
        # both commands report the plan's t_count last in the header
        header = json.dumps({**meta, "t_count": t_count})
        assert capsys.readouterr().out == "\n".join([header, "quantity,value", *rows]) + "\n"


def test_extremize_signed_init_is_an_error(tmp_path, capsys):
    spec = box_spec([-2, -2], [2, 2], [16, 16])
    values = smooth_bump(spec, radius=1.4).values.copy()
    values[8, 8] = -0.5
    init = tmp_path / "signed.prgf"
    GridFunction(spec, values, allow_negative=True).save(init)
    trace = tmp_path / "trace.csv"
    _error_exit(["extremize", "--init", str(init), "--max-iters", "3", "--out", str(trace)],
                capsys)
    assert not trace.exists()


def test_determinism(tmp_path, bump_file, capsys):
    out = tmp_path / "a.prgf"
    argv = ["transform", "--in", str(bump_file), "--out", str(out)]
    main(argv)
    first_stdout = capsys.readouterr().out
    first_bytes = out.read_bytes()
    out.unlink()
    main(argv)
    assert capsys.readouterr().out == first_stdout
    assert out.read_bytes() == first_bytes
    cover = ["cover", "--in", str(bump_file), "--eta", "0.05", "--budget", "100", "--seed", "4"]
    assert main(cover) == 0
    first_stdout = capsys.readouterr().out
    assert json.loads(first_stdout.splitlines()[0])["stop"] == "capture_below_tol"
    assert main(cover) == 0
    assert capsys.readouterr().out == first_stdout
    extremize = ["extremize", "--grid", "32", "--out", str(tmp_path / "trace.csv")]
    for extra, stop in (([], "residual"), (["--max-iters", "1"], "max_iters")):
        assert main(extremize + extra) == 0
        first_stdout = capsys.readouterr().out
        assert json.loads(first_stdout.splitlines()[0])["stop"] == stop
        assert main(extremize + extra) == 0
        assert capsys.readouterr().out == first_stdout


def _error_exit(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_prgf_is_an_error(tmp_path, bump_file, capsys):
    header, body = bump_file.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    malformed = "malformed PRGF1 header in"
    bad = {"array": [json.dumps([meta]).encode(), body, "not a PRGF1 file:"],
           "no_bounds": [json.dumps({k: v for k, v in meta.items() if k != "bounds"}).encode(), body,
                         malformed],
           "no_counts": [json.dumps({k: v for k, v in meta.items() if k != "counts"}).encode(), body,
                         malformed],
           # each loaded as a 32 x 32 grid while int() truncated 32.9 and parsed
           # "32", and float() parsed "-2"
           "float_counts": [json.dumps(dict(meta, counts=[32.9, 32])).encode(), body, malformed],
           "string_counts": [json.dumps(dict(meta, counts=["32", "32"])).encode(), body, malformed],
           "string_bounds": [json.dumps(dict(meta, bounds=[["-2", "2"], [-2, 2]])).encode(), body,
                             malformed],
           # a grid that GridSpec refuses is a malformed header too
           "one_cell_axis": [json.dumps(dict(meta, counts=[1, 32])).encode(), body, malformed],
           "dim": [json.dumps(dict(meta, dim=3)).encode(), body, "header dim 3 does not match"],
           "trailing": [header, body + b"\0", "trailing bytes after the value block in"]}
    for name, (head, values, message) in bad.items():
        path = tmp_path / f"{name}.prgf"
        path.write_bytes(head + b"\n" + values)
        capsys.readouterr()
        assert main(["norms", "--in", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_prgf_load_errors_name_the_file(tmp_path, bump_file, capsys):
    header, body = bump_file.read_bytes().split(b"\n", 1)
    cases = {"non_ascii": (b"\xff" + header + b"\n" + body, "not a PRGF1 file:"),
             "non_json": (b"PRGF1 header\n" + body, "not a PRGF1 file:"),
             "empty": (b"", "not a PRGF1 file:"),
             "short": (header + b"\n" + body[:-8], "truncated value block in")}
    for name, (data, message) in cases.items():
        path = tmp_path / f"{name}.prgf"
        path.write_bytes(data)
        capsys.readouterr()
        assert main(["norms", "--in", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message} {path}\n"


def test_prgf_counts_beyond_the_file_are_a_truncated_block(tmp_path, capsys):
    # 2^62 cells overflowed the read's size, and 2^64 wrapped GridSpec.size to 0;
    # the file's own size is checked before any read
    for counts in ([2 ** 31, 2 ** 31], [2 ** 32, 2 ** 32]):
        header = {"magic": "PRGF1", "dim": 2, "bounds": [[-2, 2], [-2, 2]], "counts": counts}
        for body in (b"", b"\0" * 8, b"\0" * 32):
            path = tmp_path / "huge.prgf"
            path.write_bytes(json.dumps(header).encode() + b"\n" + body)
            capsys.readouterr()
            assert main(["norms", "--in", str(path)]) == 1
            assert capsys.readouterr() == ("", f"error: truncated value block in {path}\n")


def test_prgf_from_a_pipe_is_read_in_bounded_chunks(bump_file, capsys, monkeypatch):
    # a pipe has no size to check first; the value block is read in
    # chunks, so a header declaring 2^62 cells gives the truncated-block
    # error, not an OverflowError from one read of that size.  Chunks of 20
    # bytes split the valid block mid-value.
    monkeypatch.setattr("pararadon.grid._READ_BYTES", 20)
    header = {"magic": "PRGF1", "dim": 2, "bounds": [[-2, 2], [-2, 2]],
              "counts": [2 ** 31, 2 ** 31]}
    valid = bump_file.read_bytes()
    cases = {"huge": (json.dumps(header).encode() + b"\n" + b"\0" * 32,
                      "error: truncated value block in"),
             "short": (valid[:-8], "error: truncated value block in"),
             "trailing": (valid + b"\0", "error: trailing bytes after the value block in")}
    for name, (data, message) in [*cases.items(), ("valid", (valid, None))]:
        r, w = os.pipe()
        try:
            os.write(w, data)  # within the pipe's buffer, so no writer thread
            os.close(w)
            path = f"/dev/fd/{r}"
            capsys.readouterr()
            if message is None:
                assert main(["norms", "--in", path]) == 0
                piped = capsys.readouterr().out.split("\n", 1)[1]  # the header names the path
                assert main(["norms", "--in", str(bump_file)]) == 0
                assert piped == capsys.readouterr().out.split("\n", 1)[1]
            else:
                assert main(["norms", "--in", path]) == 1
                assert capsys.readouterr() == ("", f"{message} {path}\n"), name
        finally:
            os.close(r)


def test_a_closed_stdout_ends_the_run_quietly(bump_file):
    # a reader that leaves early (`| head -1`) is not bad input: the run ends
    # with status 141 (128 + SIGPIPE) and no `error:` line, traceback or
    # "Exception ignored" message, whether the pipe closes between two
    # lines of unbuffered output or before the one flush of buffered output
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pararadon.__file__)))
    runs = ((["selftest"], "1", b"PASS  "),
            (["cover", "--in", str(bump_file), "--eta", "0.05"], "", None))
    for argv, unbuffered, first in runs:
        env["PYTHONUNBUFFERED"] = unbuffered  # the empty string leaves stdout buffered
        proc = subprocess.Popen([sys.executable, "-m", "pararadon.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if first is not None:
            assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        assert proc.stderr.read() == b"", argv[0]
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141


def test_an_exception_with_no_message_is_named(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setitem(COMMANDS, "decompose", (out_of_memory, "", ()))
    assert main(["decompose"]) == 1
    assert capsys.readouterr() == ("", "error: MemoryError\n")


def test_negative_seed_is_an_error(bump_file, capsys):
    cover = ["cover", "--in", str(bump_file), "--eta", "0.05", "--budget", "10"]
    assert main(cover + ["--seed", "0"]) == 0
    capsys.readouterr()
    assert main(cover + ["--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: --seed must be nonnegative, got -1\n")


def test_config_file(tmp_path, bump_file, capsys, monkeypatch):
    argv = ["transform", "--in", str(bump_file), "--out", str(tmp_path / "Tf.prgf")]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tstep": 0.05}))
    assert main(["--config", str(cfg)] + argv) == 0
    for text in ('{"unknown_key": 1}', '{"threads": 2}', '{"tstep": ', "[1, 2]"):
        cfg.write_text(text)
        _error_exit(["--config", str(cfg)] + argv, capsys)
    _error_exit(["--config", str(tmp_path / "missing.json")] + argv, capsys)
    # a required flag takes no value from the config file, so the key is unknown
    cfg.write_text(json.dumps({"eta": 0.1}))
    _error_exit(["--config", str(cfg), "refine", "--in", str(bump_file), "--eta", "0.2"], capsys)
    # the old alias keys are unknown: a key is its flag's destination name
    for key, val in (("t_step", 0.05), ("adjoint_mode", "discrete")):
        cfg.write_text(json.dumps({key: val}))
        _error_exit(["--config", str(cfg)] + argv, capsys)
    # so is the key of the removed extremize --theta
    cfg.write_text(json.dumps({"theta": 0.5}))
    capsys.readouterr()
    assert main(["--config", str(cfg), "extremize", "--out", str(tmp_path / "trace.csv")]) == 1
    assert capsys.readouterr() == ("", "error: unknown config keys: ['theta']\n")
    # a config value gets the checks of its typed flag, so a bad one is a usage error
    cover = ["cover", "--in", str(bump_file), "--eta", "0.1", "--budget", "20"]
    extremize = ["extremize", "--out", str(tmp_path / "trace.csv")]
    adjoint = ["adjoint", "--in", str(bump_file), "--out", str(tmp_path / "Tsg.prgf")]
    for entry, command in ((("budget", "x"), cover), (("seed", 1.5), cover),
                           (("dim", 2.0), extremize), (("grid", 8.5), extremize),
                           (("mode", "bogus"), adjoint)):
        cfg.write_text(json.dumps(dict([entry])))
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg)] + command)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"error: argument --{entry[0]}" in stderr and "Traceback" not in stderr
    # an integer --init is a path like any other, never a file descriptor
    fd = os.open(bump_file, os.O_RDONLY)
    try:
        monkeypatch.chdir(tmp_path)
        cfg.write_text(json.dumps({"init": fd}))
        _error_exit(["--config", str(cfg)] + extremize, capsys)
        assert os.read(fd, 6) == bump_file.read_bytes()[:6]
    finally:
        os.close(fd)
    # a typed flag beats the config value
    cfg.write_text(json.dumps({"tstep": 0.05}))
    t_counts = []
    for run in (["--config", str(cfg)] + argv, ["--config", str(cfg)] + argv + ["--tstep", "0.1"],
                argv + ["--tstep", "0.1"]):
        capsys.readouterr()
        assert main(run) == 0
        t_counts.append(json.loads(capsys.readouterr().out.splitlines()[0])["t_count"])
    assert t_counts[0] != t_counts[1] == t_counts[2]
    # a key of another command is skipped: cover takes no --mode
    cfg.write_text(json.dumps({"mode": "continuum"}))
    outputs = []
    for prefix in (["--config", str(cfg)], []):
        capsys.readouterr()
        assert main(prefix + cover) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # the keys are the commands' optional flags: a removed flag's key,
    # argparse's help, and the path a run writes are unknown
    for key, val in (("sigma", 2), ("p", 2), ("r", 2), ("help", True), ("out", "x.csv")):
        cfg.write_text(json.dumps({key: val}))
        capsys.readouterr()
        assert main(["--config", str(cfg)] + argv) == 1
        assert capsys.readouterr() == ("", f"error: unknown config keys: ['{key}']\n")


def test_usage_and_runtime_errors(tmp_path, bump_file, capsys):
    transform = ["transform", "--in", str(bump_file), "--out", str(tmp_path / "Tf.prgf")]
    extremize = ["extremize", "--grid", "16", "--out", str(tmp_path / "trace.csv")]
    # missing required flags or values, an unknown chart, and the removed options
    # that did nothing, had one value in use, or printed only rounding
    for argv in (["transform"], ["--threads", "2"] + transform, transform + ["--seed", "1"],
                 transform + ["--mode", "continuum"], ["selftest", "--seed", "1"],
                 ["affine-measure", "--chart", "sphere"],
                 ["affine-measure", "--chart", "polynomial", "--coefficients"],
                 ["affine-measure", "--chart", "parabola", "--matrix", "2", "0", "0", "1"],
                 ["symmetry", "--generator", "scale", "--params", "2", "2", "--defect-check", "4"],
                 ["symmetry", "--generator", "scale", "--params", "2", "2", "--seed", "5"],
                 ["symmetry", "--generator", "scale", "--params", "2", "2", "--point"],
                 ["adjoint", "--in", str(bump_file), "--out", str(tmp_path / "Tsg.prgf"),
                  "--mode", "discrete-transpose"], extremize + ["--mode", "continuum"],
                 extremize + ["--theta", "0.5"], extremize + ["--sigma", "2"],
                 ["norms", "--in", str(bump_file), "--p", "2"],
                 ["norms", "--in", str(bump_file), "--r", "3"],
                 ["refine", "--in", str(bump_file), "--eta", "0.1", "--p", "2"],
                 ["refine", "--in", str(bump_file), "--eta", "0.1", "--r", "3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    _error_exit(["norms", "--in", str(tmp_path / "missing.prgf")], capsys)
    _error_exit(["symmetry"], capsys)
    # an element needs d >= 2, and scale needs an integer d
    for generator in (["translate", "--params", "5"], ["galilean"], ["linear"],
                      ["scale", "--params", "2"], ["scale", "--params", "2", "1"],
                      ["scale", "--params", "2", "2.7"]):
        _error_exit(["symmetry", "--generator", *generator], capsys)
    # a NaN or negative tol never fires the residual stop, an infinite one always does
    for flag, value in (("--max-iters", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1")):
        _error_exit(extremize + [flag, value], capsys)
    for step in ("-1", "0", "nan"):
        _error_exit(["affine-measure", "--chart", "parabola", "--step", step], capsys)
    # a value list of the wrong length, and a chart below d = 2
    for argv, message in (
            (["affine-measure", "--chart", "paraboloid", "--chart-dim", "1"],
             "a chart needs d >= 2, got d = 1"),
            (["symmetry", "--generator", "scale", "--params", "2", "2", "--point", "1", "2", "3"],
             "--point needs 2 values for a d = 2 element, got 3"),
            # a value that is not finite, a domain that overflows, or more
            # quadrature nodes than the budget (none is evaluated)
            (["affine-measure", "--chart", "polynomial", "--coefficients", "nan", "0", "0"],
             "coefficients must be finite, got [nan, 0.0, 0.0]"),
            (["affine-measure", "--chart", "paraboloid", "--halfwidth", "inf"],
             "domain bounds must be finite, got [-inf, inf]"),
            (["affine-measure", "--chart", "circle", "--interval", "0", "inf"],
             "domain bounds must be finite, got [0.0, inf]"),
            (["affine-measure", "--chart", "polynomial", "--coefficients", "1", "0", "0",
              "--interval", "0", "1e308"],
             "step 0.001 gives the region ((0.0, 1e+308),) inf cells, more than the budget of "
             "16777216 midpoint nodes"),
            (["affine-measure", "--chart", "paraboloid", "--halfwidth", "1e200"],
             "step 0.001 gives the region ((-1e+200, 1e+200), (-1e+200, 1e+200)) 2e+203 x "
             "2e+203 cells, more than the budget of 16777216 midpoint nodes"),
            (["affine-measure", "--chart", "paraboloid", "--halfwidth", "1000"],
             "step 0.001 gives the region ((-1000.0, 1000.0), (-1000.0, 1000.0)) 2e+06 x "
             "2e+06 cells, more than the budget of 16777216 midpoint nodes"),
            (["affine-measure", "--chart", "parabola", "--step", "5e-324"],
             "step 5e-324 gives the region ((0.0, 1.0),) inf cells, more than the budget of "
             "16777216 midpoint nodes"),
            (["symmetry", "--generator", "scale", "--params", "2", "2", "--point", "nan", "1"],
             "--point values must be finite, got [nan, 1.0]"),
            # a generator below d = 2 names d, not numpy's negative dimension
            (["symmetry", "--generator", "translate"],
             "a translation needs w in R^d with d >= 2, got d = 0"),
            (["symmetry", "--generator", "scale", "--params", "2", "0"],
             "a scaling acts on R^d with d >= 2, got d = 0")):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # an allocation numpy refuses is an error line, not a traceback; a 200^7
    # start (90.9 PiB) exceeds every 64-bit address space, so no page is touched
    capsys.readouterr()
    assert main(["extremize", "--dim", "7", "--grid", "200",
                 "--out", str(tmp_path / "trace.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Unable to allocate") and err.count("\n") == 1
    # a t-step whose node table would take GiBs is refused before any node is laid out
    box8 = tmp_path / "box8.prgf"
    smooth_bump(box_spec([-4, -4], [4, 4], [32, 32]), radius=2.0).save(box8)
    assert main(["transform", "--in", str(box8), "--out", str(tmp_path / "Tf.prgf"),
                 "--tstep", "1e-9"]) == 1
    message = ("t step 1e-09 is too fine: its t-node table is larger than the budget "
               "of 268435456 bytes")
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # a start flag that the chosen start does not read is named, not ignored
    from_file = ["extremize", "--init", str(bump_file), "--max-iters", "2",
                 "--out", str(tmp_path / "trace.csv")]
    for flag, value in (("--dim", "3"), ("--grid", "64"), ("--box", "2")):
        capsys.readouterr()
        assert main(from_file + [flag, value]) == 1
        message = f"a start loaded from {bump_file} takes no {flag}"
        assert capsys.readouterr().err == f"error: {message}\n"
    # a generator flag that a loaded element does not read is named, not ignored
    element = tmp_path / "e.json"
    element.write_text(scaling(2.0, 2).to_json())
    for flags, flag in ((["--generator", "scale", "--params", "3", "2"], "--generator"),
                        (["--params", "3", "2"], "--params"), (["--params"], "--params")):
        capsys.readouterr()
        assert main(["symmetry", "--element", str(element), *flags]) == 1
        message = f"an element loaded from {element} takes no {flag}"
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # the one generated start is gaussian; any other --init is a PRGF1 path
    capsys.readouterr()
    assert main(["extremize", "--init", "indicator", "--out", str(tmp_path / "trace.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "'indicator'" in err
    assert err.count("\n") == 1
    # a signed input is named by cover itself, not by a residual inside its loop
    spec = box_spec([-2, -2], [2, 2], [32, 32])
    signed = tmp_path / "signed.prgf"
    GridFunction(spec, smooth_bump(spec, radius=1.4).values
                 - smooth_bump(spec, center=[1, 0], radius=0.7).values,
                 allow_negative=True).save(signed)
    capsys.readouterr()
    assert main(["cover", "--in", str(signed), "--eta", "0.05"]) == 1
    assert capsys.readouterr() == ("", "error: cover needs a nonnegative function\n")
    # --budget 0 is the unfitted moment candidate; a negative budget is an error
    _error_exit(["cover", "--in", str(bump_file), "--eta", "0.1", "--budget", "-5"], capsys)
    # a threshold that is not a finite positive number would print NaN or
    # Infinity in the JSON header
    for eta in ("nan", "inf"):
        _error_exit(["cover", "--in", str(bump_file), "--eta", eta], capsys)
        _error_exit(["refine", "--in", str(bump_file), "--eta", eta], capsys)
    for radius in ("-1", "nan", "inf"):
        _error_exit(["norms", "--in", str(bump_file), "--radius", radius], capsys)
    assert not (tmp_path / "trace.csv").exists()


def test_overflowing_group_parameters_are_one_error_line(tmp_path):
    # a fresh interpreter, so numpy's floating point warnings reach stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pararadon.__file__)))
    scale = "error: a scaling needs |r|^(d+1) finite and nonzero, got r = {}, d = {}"
    cases = (
        (["scale", "--params", "1e200", "2"], scale.format("1e+200", 2)),
        (["scale", "--params", "inf", "2"], scale.format("inf", 2)),
        (["scale", "--params", "nan", "2"], scale.format("nan", 2)),
        (["scale", "--params", "1e-200", "2"], scale.format("1e-200", 2)),
        (["scale", "--params", "1e150", "2"], scale.format("1e+150", 2)),
        (["scale", "--params", "1e100", "5"], scale.format("1e+100", 5)),
        (["galilean", "--params", "1e200"],
         "error: a galilean shear needs |u0|^2 finite, got u0 = [1e+200]"),
        (["galilean", "--params", "1e154", "1e154"],
         "error: a galilean shear needs |u0|^2 finite, got u0 = [1e+154, 1e+154]"),
        (["linear", "--params", "1e200", "0", "0", "1e200"],
         "error: L must be invertible with a finite determinant"),
        (["linear", "--params", "nan", "0", "0", "1"],
         "error: L must be invertible with a finite determinant"),
        # a finite point whose images overflow
        (["galilean", "--params", "1e154", "--point", "1e200", "1"],
         "error: the images of --point [1e+200, 1.0] hold non-finite values: "
         "phi = [1e+200, nan], psi = [1e+200, nan]"))
    cases = tuple((["--generator", *params], message) for params, message in cases)
    # a loaded element whose Jacobian |det L| * |t| overflows
    (tmp_path / "big.json").write_text(
        json.dumps({"L": [[1e200]], "u": [0], "t": 1e200, "a": 0, "v": [0]}))
    cases += ((["--element", "big.json"],
               "error: the Jacobian |det L| * |t| must be finite and nonzero"),)
    # every warning is shown, each time it is raised
    code = ("import sys; from pararadon.cli import main\n"
            "for argv in sys.argv[1:]: print(main(['symmetry', *argv.split()]))")
    out = subprocess.run([sys.executable, "-W", "always", "-c", code,
                          *(" ".join(params) for params, _ in cases)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0 and out.stdout == "1\n" * len(cases)
    assert out.stderr == "".join(message + "\n" for _, message in cases)


def test_malformed_json_inputs_are_errors(tmp_path, bump_file, capsys):
    element = {"L": [[1.0]], "u": [0.0], "t": 1.0, "a": 0.0, "v": [0.0]}
    ball = json.loads(unit_paraball(2).to_json())
    good = tmp_path / "ball.json"
    good.write_text(json.dumps(ball))
    cases = {"empty": ("{}", "{}"), "array": ("[1, 2]", "[1, 2]"),
             "missing": ({k: v for k, v in element.items() if k != "v"},
                         {k: v for k, v in ball.items() if k != "rho"}),
             "text": (dict(element, t="x"), dict(ball, radii="x")),
             "null": (dict(element, u=[None]), dict(ball, base=[None, 0.0]))}
    for name, (el_json, ball_json) in cases.items():
        el_path, ball_path = tmp_path / f"el_{name}.json", tmp_path / f"ball_{name}.json"
        for path, data in ((el_path, el_json), (ball_path, ball_json)):
            path.write_text(data if isinstance(data, str) else json.dumps(data))
        _error_exit(["symmetry", "--element", str(el_path)], capsys)
        _error_exit(["paraball-dist", "--a", str(good), "--b", str(ball_path)], capsys)
        _error_exit(["partition", "--in", str(bump_file), "--eta", "0.1",
                     "--balls", str(ball_path)], capsys)
    tiny = tmp_path / "ball_tiny.json"  # its dual radius rho / 1e-310 overflows
    tiny.write_text(json.dumps(dict(ball, radii=[1e-310])))
    half = tmp_path / "ball_half.json"  # a sign is exactly +1 or -1
    half.write_text(json.dumps(dict(ball, sign=1.5)))
    ball3 = tmp_path / "ball_3d.json"
    ball3.write_text(unit_paraball(3).to_json())
    for other in (tiny, half, ball3):
        _error_exit(["paraball-dist", "--a", str(good), "--b", str(other)], capsys)
    # a ball of the other dimension, in both directions
    cube = tmp_path / "cube.prgf"
    smooth_bump(box_spec([-2] * 3, [2] * 3, [8] * 3), radius=1.4).save(cube)
    for infile, ball_path, dims in ((bump_file, ball3, (2, 3)), (cube, good, (3, 2))):
        capsys.readouterr()
        assert main(["partition", "--in", str(infile), "--eta", "0.1",
                     "--balls", str(ball_path)]) == 1
        assert capsys.readouterr().err == ("error: points of dimension %d against a paraball "
                                           "of dimension %d\n" % dims)


def test_json_numbers_are_not_strings_or_bools(tmp_path, capsys):
    # float() took each of these: "2" as 2 and true as 1
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"L": [["2"]], "u": ["0"], "t": "1", "a": True, "v": [0]}))
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps(dict(json.loads(unit_paraball(2).to_json()),
                                    radii=["1"], rho=True, base=["0", "0"])))
    for argv, what in ((["symmetry", "--element", str(element)], "group element"),
                       (["paraball-dist", "--a", str(ball), "--b", str(ball)], "paraball")):
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: malformed {what} JSON") and err.count("\n") == 1
    # one field at a time
    good = json.loads(scaling(2.0, 2).to_json())
    for key, bad in (("L", [[True]]), ("u", ["0"]), ("t", True), ("a", "0"), ("v", [False])):
        element.write_text(json.dumps(dict(good, **{key: bad})))
        _error_exit(["symmetry", "--element", str(element)], capsys)


def test_selftest_cli(monkeypatch, capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:6] for line in lines] == ["PASS  "] * 13 + ["13/13 "]

    # a crash is one FAIL line; only four real criteria, so criterion 6 does not run again
    def criterion_05_transitivity():
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "CRITERIA", selftest.CRITERIA[:4] + (criterion_05_transitivity,))
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:6] for line in lines] == ["PASS  "] * 4 + ["FAIL  ", "4/5 ch"]
    assert "transitivity" in lines[4] and "RuntimeError: boom" in lines[4]
