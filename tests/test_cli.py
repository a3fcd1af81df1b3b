import json
import os
import subprocess
import sys

import pytest

import normlab
from normlab.automorphic import PeriodicDistribution
from normlab.cli import main


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def test_decompose_passes(tmp_path):
    out = tmp_path / "r.json"
    assert main(["decompose", "--n", "500", "--seed", "3",
                 "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["ok"] and all(c["ok"] for c in rep["checks"])


def test_measure_check(tmp_path):
    out = tmp_path / "r.json"
    assert main(["measure-check", "--n", "40", "--out", str(out)]) == 0


def test_intertwine_reports_frozen_value(tmp_path):
    out = tmp_path / "r.json"
    assert main(["intertwine", "--u", "0.5", "--m", "0",
                 "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["c"][0] == pytest.approx(5.2441, abs=1e-4)
    assert [c["name"] for c in rep["checks"]] == ["closed-forms-agree"]


def test_intertwine_closed_forms_check(tmp_path, monkeypatch, capsys):
    # past |m| = 100 only one form is computed, so nothing is compared
    out = tmp_path / "r.json"
    assert main(["intertwine", "--u", "0.5", "--m", "150",
                 "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["checks"] == [] and rep["ok"] is None
    # Gamma(1/4) enters the reflection form only (u = 1/2, m = 0)
    import normlab.norms as norms
    real = norms._gamma
    monkeypatch.setattr(norms, "_gamma", lambda z: real(z) * (
        1.0 + 1e-6 * (abs(z - 0.25) < 1e-12)))
    assert main(["intertwine", "--u", "0.5", "--m", "0"]) == 3
    err = capsys.readouterr().err
    assert "closed forms disagree" in err and "Traceback" not in err


def test_verify_whittaker_example(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify-whittaker", "--u0", "0", "--u1", "1",
                 "--model", "finite:b1=1", "--eps", "1",
                 "--out", str(out)]) == 0
    assert _report(out)["relError"] < 1e-6


def test_verify_whittaker_eps_zero_barrier(capsys):
    assert main(["verify-whittaker", "--eps", "0"]) == 2
    assert "eps" in capsys.readouterr().err


def test_invalid_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--does-not-exist", "1"])
    assert exc.value.code == 2


def test_invalid_profile_exits_2():
    assert main(["region-norm", "--profile", "bogus"]) == 2


def test_report_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["gnorm", "--u", "0.3", "--out", str(out)]) == 0
        rep = _report(out)
        rep.pop("timestamp")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": 0.5, "m": 1}))
    out = tmp_path / "r.json"
    assert main(["intertwine", "--config", str(cfg), "--m", "0",
                 "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["u"] == 0.5 and rep["m"] == 0  # flag beat the file

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert main(["intertwine", "--config", str(bad)]) == 2


def test_csv_mirror(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    assert main(["comp-norm-scan", "--m-max", "4", "--out", str(out),
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("m,")
    assert len(lines) == len(_report(out)["rows"]) + 1


def test_gen_coeffs_roundtrip(tmp_path):
    path = tmp_path / "tau.json"
    assert main(["gen-coeffs", "--model", "ramanujan-tau:N=20",
                 "--out-coeffs", str(path)]) == 0
    dist = PeriodicDistribution.from_file(path)
    assert dist.coeffs[2] == -24
    assert main(["gen-coeffs", "--model", "ramanujan-tau:N=20"]) == 2


@pytest.mark.parametrize("argv", [
    ["region-norm", "--profile", "constant:2", "--side", "plus"],
    ["gen-coeffs", "--model", "ramanujan-tau:N=5", "--out-coeffs", "P"],
])
def test_report_without_checks_claims_nothing(argv, tmp_path):
    argv = [str(tmp_path / "c.json") if x == "P" else x for x in argv]
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    rep = _report(out)
    assert rep["checks"] == [] and rep["ok"] is None


def test_regress_against_frozen_tables():
    assert main(["regress"]) == 0


@pytest.mark.parametrize("argv", [
    ["intertwine", "--u", "0"],
    ["intertwine", "--u", "-1"],
    ["whittaker-eval", "--a", "0"],
    ["whittaker-eval", "--a", "-1"],
    ["whittaker-eval", "--a", "nan"],
    ["whittaker-eval", "--a", "inf"],
    ["decompose", "--n", "-5"],
    ["gen-coeffs", "--model", "foo:N=3", "--out-coeffs", "P"],
    ["region-norm", "--profile", "constant:x"],
    ["comp-norm-scan", "--tol", "0"],
    ["decompose", "--tol", "0"],
    ["decompose", "--tol", "-1"],
    ["verify-whittaker", "--a1", "nan"],
    ["region-norm", "--a1", "nan"],
    ["region-norm", "--T1", "nan"],
    ["region-norm", "--a1", "inf"],
    ["weyl-bracket", "--assert-weyl", "--a1", "nan"],
    ["weyl-bracket", "--assert-weyl", "--T1", "nan"],
    ["intertwine", "--u", "nan"],
    ["eisenstein", "--N", "0"],
    ["sin-series", "--s", "nan"],
    ["measure-check", "--n", "-5"],
    ["comp-norm-scan", "--m-max", "-2"],
    ["omega-norm", "--omega", "0,1,0,nan"],
    ["comp-norm-scan", "--config", "CFG"],
])
def test_malformed_input_exits_2(argv, tmp_path, capsys):
    # CFG: a config file whose value only the merged-parameter check sees
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m-max": -2, "u": 0.25}))
    argv = [str(cfg) if x == "CFG" else x for x in argv]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("normlab: invalid configuration: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_malformed_env_tol_exits_2():
    # NORMLAB_TOL is read when a command runs, not at import, so a bad
    # value is invalid configuration like a bad --tol
    src = os.path.dirname(os.path.dirname(normlab.__file__))
    env = dict(os.environ, NORMLAB_TOL="abc", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "normlab.cli", "gnorm"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("normlab: invalid configuration: ")
    assert "NORMLAB_TOL" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_eisenstein_defaults_pass(tmp_path):
    # the materialized divisor sum sits within its tail bound of
    # Ramanujan's full value
    out = tmp_path / "r.json"
    assert main(["eisenstein", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    gap = rep["fullSum"] - rep["partialSum"]
    assert 0.0 <= gap <= rep["tailBound"]
    assert [c["name"] for c in rep["checks"]] == [
        "partial-sum-within-tail-bound"]


def test_comp_norm_scan_past_the_tail_cap_exits_3(capsys, tmp_path):
    # at weight 1000 the 60-term tail series misses tol 1e-8: the scan
    # stops with one line, not a PASS built on a value off by 98%
    assert main(["comp-norm-scan", "--m-max", "1000", "--step", "250",
                 "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("normlab: numerical failure: ")
    assert err.count("\n") == 1 and "Traceback" not in err
