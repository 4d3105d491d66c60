import json
import os

import numpy as np
import pytest

from pararadon import selftest
from pararadon.cli import CONFIG_KEYS, _build_parser, main
from pararadon.grid import GridFunction, box_spec
from pararadon.norms import tail_mass
from pararadon.paraball import from_incidence, unit_paraball
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
    rc = main(["symmetry", "--generator", "scale", "--params", "2", "2",
               "--point", "1", "1", "--defect-check", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda,4" in out
    assert "phi_0,2" in out and "phi_1,4" in out
    rows = {line.split(",")[0]: float(line.split(",")[1])
            for line in out.strip().splitlines()[2:]}
    assert rows["max_defect"] <= 1e-9


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
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["pieces"] >= 1


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
    assert main(["partition", "--in", str(tmp_path / "F.prgf"), "--eta", "0.1",
                 "--balls", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "part,cells,gamma"


def test_extremize_cli(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["extremize", "--dim", "2", "--grid", "32", "--box", "6",
               "--tol", "1e-4", "--max-iters", "40", "--out", str(trace)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,phi,residual,pnorm"
    assert len(lines) >= 3
    assert (tmp_path / "trace.prgf").exists()


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
        assert reported == tail_mass(final, radius, p)
        assert reported > 0


def test_affine_measure_cli(capsys):
    assert main(["affine-measure", "--chart", "circle", "--step", "1e-3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    val = float(lines[-1].split(",")[1])
    assert val == pytest.approx(2 * np.pi, abs=1e-5)


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


def _error_exit(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_prgf_is_an_error(tmp_path, bump_file, capsys):
    header, body = bump_file.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    bad = {"array": [json.dumps([meta]).encode(), body],
           "no_bounds": [json.dumps({k: v for k, v in meta.items() if k != "bounds"}).encode(), body],
           "no_counts": [json.dumps({k: v for k, v in meta.items() if k != "counts"}).encode(), body],
           "dim": [json.dumps(dict(meta, dim=3)).encode(), body],
           "trailing": [header, body + b"\0"]}
    for name, (head, values) in bad.items():
        path = tmp_path / f"{name}.prgf"
        path.write_bytes(head + b"\n" + values)
        _error_exit(["norms", "--in", str(path)], capsys)


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
    # every key names an optional flag of some command
    _, commands = _build_parser()
    optional = {action.dest for parser in commands.values() for action in parser._actions
                if action.option_strings and not action.required}
    assert CONFIG_KEYS <= optional


def test_usage_and_runtime_errors(tmp_path, bump_file, capsys):
    transform = ["transform", "--in", str(bump_file), "--out", str(tmp_path / "Tf.prgf")]
    extremize = ["extremize", "--grid", "16", "--out", str(tmp_path / "trace.csv")]
    # missing required flags, and the removed options that did nothing
    for argv in (["transform"], ["--threads", "2"] + transform, transform + ["--seed", "1"],
                 transform + ["--mode", "continuum"], ["selftest", "--seed", "1"],
                 ["adjoint", "--in", str(bump_file), "--out", str(tmp_path / "Tsg.prgf"),
                  "--mode", "discrete-transpose"], extremize + ["--mode", "continuum"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    _error_exit(["norms", "--in", str(tmp_path / "missing.prgf")], capsys)
    _error_exit(["symmetry"], capsys)
    _error_exit(["symmetry", "--generator", "scale", "--params", "2"], capsys)
    for flag, value in (("--theta", "0"), ("--max-iters", "-1"), ("--sigma", "0")):
        _error_exit(extremize + [flag, value], capsys)
    assert not (tmp_path / "trace.csv").exists()


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


def test_selftest_cli(monkeypatch, capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:6] for line in lines] == ["PASS  "] * 13 + ["13/13 "]

    def criterion_05_transitivity(scale):
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "CRITERIA", selftest.CRITERIA[:4]
                        + (criterion_05_transitivity,) + selftest.CRITERIA[5:])
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:6] for line in lines] == ["PASS  "] * 4 + ["FAIL  "] + ["PASS  "] * 8 + ["12/13 "]
    assert "transitivity" in lines[4] and "RuntimeError: boom" in lines[4]
