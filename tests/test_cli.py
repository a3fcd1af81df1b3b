import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import normlab
import normlab.cli as cli
import normlab.errors as errors
from normlab.automorphic import PeriodicDistribution
from normlab.cli import main
from normlab.modular import CuspProfile
from normlab.siegel import (ConstantFunction, RegionSpec, WhittakerModel,
                            region_norm_plus_direct)

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def _materialize(argv, tmp_path):
    """argv with each dict or list written to a config file, and MISSING
    made a path under a directory that does not exist."""
    missing = str(tmp_path / "missing" / "x")
    out = []
    for i, x in enumerate(argv):
        if isinstance(x, (dict, list)):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(x).replace("MISSING", missing))
            x = str(cfg)
        out.append(missing if x == "MISSING" else x)
    return out


def _one_line(err, prefix):
    return (err.startswith(prefix) and err.count("\n") == 1
            and "Traceback" not in err)


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


@pytest.mark.parametrize("eps", ["-1.5", "-0.5", "1", "1.5"])
def test_verify_whittaker_at_infinite_a1(eps, tmp_path):
    # one bound, 1e-6, for every a1; at a1 = inf both paths meet to 1e-9
    out = tmp_path / "r.json"
    assert main(["verify-whittaker", "--a1", "inf", "--eps", eps,
                 "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["checks"][0]["bound"] == 1e-6
    assert rep["relError"] <= 1e-9


def test_verify_whittaker_at_weight_96(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify-whittaker", "--m", "96", "--u0", "0", "--u1", "0.7",
                 "--model", "finite:b1=1,b-1=0.5,b2=0.3,b-3=0.2",
                 "--eps", "0.5", "--a1", "1", "--out", str(out)]) == 0
    assert _report(out)["relError"] <= 1e-9


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
    # \int_1^inf a^{-1/2} da/a converges: the plus region of c = 2 is 16 pi
    ["region-norm", "--profile", "constant:2", "--side", "plus",
     "--eps", "-0.5"],
    ["gen-coeffs", "--model", "ramanujan-tau:N=5", "--out-coeffs", "P"],
])
def test_report_without_checks_claims_nothing(argv, tmp_path):
    argv = [str(tmp_path / "c.json") if x == "P" else x for x in argv]
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    rep = _report(out)
    assert rep["checks"] == [] and rep["ok"] is None


def test_divergent_plus_region_exits_3(capsys):
    # at eps = 0.5 the same integral, \int_1^inf a^{1/2} da/a, diverges
    assert main(["region-norm", "--profile", "constant:2", "--side",
                 "plus", "--eps", "0.5"]) == 3
    assert _one_line(capsys.readouterr().err,
                     "normlab: numerical failure: the a-integral still grows")


def test_oversized_weyl_cap_exits_2(capsys):
    # main2-scan's asserted model takes the Weyl-flipped path: at T1 = 1e4
    # its cap would be a (240024, 480048) array
    assert main(["main2-scan", "--T1", "1e4", "--eps-list", "0.5"]) == 2
    assert _one_line(capsys.readouterr().err,
                     "normlab: invalid configuration: the Weyl-flipped cap")


@pytest.mark.parametrize("T1", ["1e3", "1e4", "1e5"])
def test_plus_region_constant_in_t_past_max_segments(T1, capsys):
    # |f|^2 of a constant and of the one-numerator default model does not
    # depend on t, so the floor surrogate past MAX_SEGMENTS is exact and
    # the plus region is T1 times its value at T1 = 1
    code, rep, _ = _run_json(["region-norm", "--profile", "constant",
                              "--side", "plus", "--eps", "-0.5", "--T1", T1],
                             capsys)
    assert code == 0
    assert rep["value"] == pytest.approx(2.0 * math.pi * float(T1) / 0.5,
                                         rel=1e-10, abs=0)
    _, one, _ = _run_json(["region-norm", "--side", "plus"], capsys)
    code, rep, _ = _run_json(["region-norm", "--side", "plus", "--T1", T1],
                             capsys)
    assert code == 0
    assert rep["value"] == pytest.approx(float(T1) * one["value"], rel=1e-12,
                                         abs=0)


def test_regress_against_frozen_tables():
    assert main(["regress"]) == 0


@pytest.mark.parametrize("signed", [[], ["--signed"]])
@pytest.mark.parametrize("s", ["-0.99", "-0.9", "-0.75", "-0.5", "-0.4,0.3",
                               "0.3", "2.5"])
def test_sin_series_oracle_check_passes(s, signed, tmp_path):
    re, _, im = s.partition(",")
    out = tmp_path / "r.json"
    for K in ("1", "8", "64"):
        assert main(["sin-series", "--s", re, "--s1", im or "0", "--K", K,
                     *signed, "--out", str(out)]) == 0, K
        assert _report(out)["ok"] is True


def test_sin_series_oracle_check_can_fail(monkeypatch, tmp_path):
    # the check probes the highest harmonic, so shift that one
    def shifted(s, K):
        table = normlab.fourier.sin_power_series(s, K)
        table.coeffs[2 * K] += 1e-6
        return table

    monkeypatch.setattr(cli, "sin_power_series", shifted)
    out = tmp_path / "r.json"
    assert main(["sin-series", "--s", "-0.5", "--K", "8",
                 "--out", str(out)]) == 1
    assert _report(out)["checks"][0]["ok"] is False


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
    ["weyl-bracket", "--a1", "nan"],
    ["weyl-bracket", "--T1", "nan"],
    ["weyl-bracket", "--profile", "model"],
    ["intertwine", "--u", "nan"],
    ["eisenstein", "--N", "0"],
    ["sin-series", "--s", "nan"],
    ["measure-check", "--n", "-5"],
    ["comp-norm-scan", "--m-max", "-2"],
    ["omega-norm", "--omega", "0,1,0,nan"],
    # a config value is converted like the flag it stands for
    ["comp-norm-scan", "--config", {"m-max": -2, "u": 0.25}],
    ["triple-norm", "--ms", "a"],
    ["triple-norm", "--config", {"ms": "a"}],
    ["main2-scan", "--eps-list", "0.5,x"],
    ["main2-scan", "--config", {"eps-list": [0.5, "x"]}],
    ["verify-whittaker", "--model", "finite:period=0,b1=1"],
    ["verify-whittaker", "--config", {"model": "finite:period=0,b1=1"}],
    ["decompose", "--config", {"seed": "x", "n": 5}],
    ["decompose", "--seed", "x", "--n", "5"],
    ["region-norm", "--config", {"profile": 3}],
    ["intertwine", "--config", {"m": 1.5}],
    ["intertwine", "--m", "1.5"],
    ["intertwine", "--config", {"numeric": "yes"}],
    ["sin-series", "--config", {"K": True}],
    ["sin-series", "--K", "true"],
    ["decompose", "--config", [1, 2]],
    ["region-norm", "--profile", "constant:nan"],
    ["region-norm", "--profile", "constantx"],
    # an empty coefficient table, and a b0 that the table keeps
    ["region-norm", "--model", "finite:b1=0"],
    ["omega-norm", "--model", "finite:b1=0"],
    ["main2-scan", "--model", "finite:b1=0"],
    ["region-norm", "--config", {"model": "finite:b1=0"}],
    ["region-norm", "--model", "finite:b0=1,b1=1"],
    ["region-norm", "--config", {"model": "finite:b0=1,b1=1"}],
    # paths that cannot be opened
    ["gen-coeffs", "--out-coeffs", "MISSING"],
    ["gen-coeffs", "--config", {"out-coeffs": "MISSING"}],
    ["regress", "--tables", "MISSING"],
    ["regress", "--config", {"tables": "MISSING"}],
    # a model spec value that parses to a non-finite number
    ["region-norm", "--model", "finite:b1=nan"],
    ["region-norm", "--model", "finite:b1=inf"],
    ["region-norm", "--model", "divisor:N=8,lam=nan"],
    ["region-norm", "--model", "random-decay:N=4,sigma=inf"],
    # a reversed omega window
    ["omega-norm", "--omega", "0,6.283185307179586,1,0"],
    ["omega-norm", "--omega", "6.283185307179586,0,0,1"],
    # a negative T1
    ["region-norm", "--T1", "-1", "--side", "full"],
    ["weyl-bracket", "--T1", "-1"],
    ["main2-scan", "--T1", "-1"],
    ["eisenstein", "--T1", "-1"],
    # the kernel runs at real u only
    ["intertwine", "--u", "0.5", "--u1", "1", "--numeric"],
    # |sin theta|^s is not integrable for Re(s) <= -1
    ["sin-series", "--s", "-1"],
    ["sin-series", "--s", "-1.5", "--signed"],
])
def test_malformed_input_exits_2(argv, tmp_path, capsys):
    argv = _materialize(argv, tmp_path)
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("normlab: invalid configuration: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "10", "--out", "MISSING"],
    ["decompose", "--config", {"n": 10, "out": "MISSING"}],
    ["comp-norm-scan", "--m-max", "2", "--csv", "MISSING"],
    ["comp-norm-scan", "--config", {"m-max": 2, "csv": "MISSING"}],
])
def test_unwritable_report_path_exits_2(argv, tmp_path, capsys):
    assert main(_materialize(argv, tmp_path)) == 2
    assert _one_line(capsys.readouterr().err,
                     "normlab: invalid configuration: ")


@pytest.mark.parametrize("argv", [
    ["main2-scan", "--eps-list", "2.5"],
    ["main2-scan", "--config", {"eps-list": [2.5]}],
    ["eisenstein", "--eps", "3"],
    ["eisenstein", "--config", {"eps": -3}],
    # complementary type u = 0.5: |eps| < 2 (1 - u) = 1
    ["main2-scan", "--u0", "0.5", "--u1", "0", "--eps-list", "1"],
])
def test_eps_past_the_norm_range_names_eps(argv, tmp_path, capsys):
    argv = _materialize(argv, tmp_path)
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert _one_line(err, "normlab: invalid configuration: eps = ")


@pytest.mark.parametrize("config,argv", [
    ({"ms": [0, 2]}, ["triple-norm", "--ms", "0,2"]),
    ({"u": "0.3"}, ["gnorm", "--u", "0.3"]),
    ({"a1": "inf"}, ["verify-whittaker", "--a1", "inf"]),
])
def test_config_forms_match_flag_forms(config, argv, tmp_path):
    # a JSON list or a string in a config file converts like the flag
    reps = []
    for args in (argv[:1] + ["--config", config], argv):
        out = tmp_path / "r.json"
        assert main(_materialize(args, tmp_path) + ["--out", str(out)]) == 0
        rep = _report(out)
        rep.pop("timestamp")
        reps.append(rep)
    assert reps[0] == reps[1]


def _error_classes():
    return [c for _, c in inspect.getmembers(errors, inspect.isclass)
            if issubclass(c, errors.NormlabError)]


@pytest.mark.parametrize("exc", _error_classes(), ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_base(exc, monkeypatch, capsys):
    # exit 2 exactly for the InvalidInput subclasses, 3 for every other
    # NormlabError
    def handler(p, tol):
        raise exc("raised by the handler")
    monkeypatch.setitem(cli.SUBCOMMANDS, "gnorm",
                        (handler, cli.SUBCOMMANDS["gnorm"][1]))
    invalid = issubclass(exc, errors.InvalidInput)
    assert main(["gnorm"]) == (2 if invalid else 3)
    assert _one_line(capsys.readouterr().err,
                     "normlab: invalid configuration: " if invalid
                     else "normlab: numerical failure: ")


def _bad_library_calls():
    from normlab.automorphic import p0_weighted_norm
    from normlab.coeffs import CoeffModel, parse_model_spec
    from normlab.fourier import regularized_pairing, sin_power_series
    from normlab.group import (decompose_kan, diagonal, measure_weight,
                               weyl_flip)
    from normlab.principal import ReprParams, SmoothVector
    params = ReprParams(1j, "+")
    tau = PeriodicDistribution(1, {1: 1.0}, params)
    return {
        "period": lambda: PeriodicDistribution(0, {1: 1.0}, params),
        "growth": lambda: PeriodicDistribution(1, {1: 5.0}, params,
                                               growth_sigma=0.0,
                                               growth_C=1.0),
        "kind": lambda: CoeffModel("maass"),
        "spec-key": lambda: parse_model_spec("divisor:qqq=1"),
        "spec-value": lambda: parse_model_spec("divisor:N=x"),
        "diagonal": lambda: diagonal(0.0),
        "weyl-flip": lambda: weyl_flip(1.0, -1.0),
        "p0-method": lambda: p0_weighted_norm(
            tau, SmoothVector.single(0, -1j), 1.0, 0.5, None, "bogus"),
        "sin-exponent": lambda: sin_power_series(-1.5, 4),
        "zero-frequency": lambda: regularized_pairing(
            0, SmoothVector.single(0, 1j)),
        "chart": lambda: measure_weight("bogus",
                                        decompose_kan(diagonal(2.0))),
    }


@pytest.mark.parametrize("name", list(_bad_library_calls()))
def test_library_input_errors_are_invalid_input(name):
    # still ValueErrors, so callers catching ValueError keep working
    with pytest.raises(errors.InvalidInput):
        _bad_library_calls()[name]()
    assert issubclass(errors.InvalidInput, ValueError)


def test_every_flag_has_a_documented_type():
    # the flags column of the type table against the parser, both ways: a
    # flag the parser drops must leave the table, and a new one enter it
    docs = os.path.join(os.path.dirname(README), "docs", "config.md")
    with open(docs) as fh:
        table = fh.read().split("## Parameter types", 1)[1].split("\n## ")[0]
    named = {name for line in table.splitlines() if line.startswith("| ")
             for name in re.findall(r"`([^`]+)`", line.split("|")[2])}
    flags = {arg for _, args in cli.SUBCOMMANDS.values()
             for arg, _, _, _ in cli._COMMON + args}
    assert flags - named == set()
    assert named - flags - set(cli.SUBCOMMANDS) == set()


def test_every_module_has_a_readme_row():
    # the README's module table against the package, both ways: every
    # module but __init__ has a row, and every row names a module
    with open(README) as fh:
        table = fh.read().split("## Layout", 1)[1].split("\n## ")[0]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]
    named = [re.match(r"\| `normlab\.(\w+)` *\|", line) for line in rows]
    assert None not in named
    pkg = os.path.dirname(normlab.__file__)
    modules = {name[:-3] for name in os.listdir(pkg)
               if name.endswith(".py") and name != "__init__.py"}
    assert sorted(m[1] for m in named) == sorted(modules)


def _readme_commands():
    with open(README) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("normlab ")]


def test_readme_cli_examples_exit_0(capsys):
    # each also at a loose tol: loosening tol must not make a documented
    # command fail
    commands = _readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        assert main(argv) == 0, argv
        assert main(argv + ["--tol", "1e-6"]) == 0, argv


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


@pytest.mark.parametrize("argv", [
    ["comp-norm-scan", "--u0", "0.5", "--u1", "0", "--u", "0.5", "--m-max",
     "600", "--step", "50"],
    ["triple-norm", "--ms", "512", "--u0", "0.5", "--u1", "0", "--u", "0.5"],
    ["whittaker-eval", "--m", "512", "--a", "0.5"],
], ids=lambda argv: argv[0])
def test_weight_512_at_a_loose_tol_exits_0(argv, tmp_path):
    # a looser tol stops the same rules sooner, so it returns where the
    # default does: the tail series meets tol 1e-6 at weight 512
    out = ["--out", str(tmp_path / "r.json")]
    for tol in ([], ["--tol", "1e-6"]):
        assert main(argv + out + tol) == 0, tol


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _run_json(argv, capsys):
    """(exit code, stdout parsed as strict JSON, stderr) of one run."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out, parse_constant=_no_constant), err


@pytest.mark.parametrize("argv", [[name] for name in cli.SUBCOMMANDS]
                         + [["intertwine", "--numeric"]],
                         ids=lambda argv: " ".join(argv))
def test_every_subcommand_runs_at_its_defaults(argv, tmp_path, capsys):
    extra = {"gen-coeffs": ["--out-coeffs", str(tmp_path / "c.json")]}
    code, rep, err = _run_json(argv + extra.get(argv[0], []), capsys)
    assert code == 0 and "FAIL" not in err
    assert rep["subcommand"] == argv[0]


def test_no_flag_asserts_weyl_symmetry_of_a_model(capsys):
    # a model's plus region is integrated directly: at a1 = 10 the
    # Weyl-transported value of the symmetrized model would read 0.0
    with pytest.raises(SystemExit) as exc:
        main(["region-norm", "--assert-weyl"])
    assert exc.value.code == 2
    argv = ["region-norm", "--side", "plus", "--a1", "10"]
    code, rep, _ = _run_json(argv, capsys)
    p = cli._merge_params(cli._build_parser().parse_args(argv))
    model = cli._profile_from(p)
    assert isinstance(model, WhittakerModel) and not model.weyl
    direct = region_norm_plus_direct(
        model, RegionSpec(p["T1"], p["eps"], p["a1"], p["side"]))
    assert code == 0 and rep["value"] == direct > 1.0
    # weyl-bracket takes no model: neither its profile nor its flags
    assert main(["weyl-bracket", "--profile", "model"]) == 2
    assert "use delta or constant[:c]" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["weyl-bracket", "--model", "finite:b1=1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["main2-scan", "--eps-list", "0.5"],
                                  ["eisenstein", "--N", "8"]])
def test_symmetrized_lhs_is_named(argv, capsys):
    # both integrate a model with asserted Weyl symmetry, so their lhs is
    # not the model's own norm, and the report says so
    code, rep, _ = _run_json(argv, capsys)
    assert code == 0
    assert rep["lhsFunction"] == ("Weyl-symmetrized model: |f| for a <= 1, "
                                  "|f(xw)| for a > 1; not the model's own "
                                  "norm")


def test_intertwine_at_odd_integer_u_reports_zero(capsys):
    # 1/Gamma((u+1)/2 - m) = 0 at u = 1, m = 1: c_2 = 0, not NaN
    code, rep, _ = _run_json(["intertwine", "--u", "1", "--m", "1"], capsys)
    assert code == 0 and rep["c"] == [0.0, 0.0]


def test_region_norm_constant_closed_form(capsys):
    from normlab.siegel import A_MIN
    c, T1, a1, eps = 1.3, 1.7, 0.8, 0.5
    code, rep, _ = _run_json(["region-norm", "--profile", f"constant:{c}",
                              "--T1", str(T1), "--a1", str(a1),
                              "--eps", str(eps)], capsys)
    want = 2.0 * math.pi * c ** 2 * T1 * (a1 ** eps - A_MIN ** eps) / eps
    assert code == 0 and rep["value"] == pytest.approx(want, rel=1e-10)


def test_whittaker_eval_matches_model_value(capsys):
    from normlab.siegel import WhittakerModel
    code, rep, _ = _run_json(["whittaker-eval", "--a", "1.3", "--t", "0.2"],
                             capsys)
    p = cli._merge_params(cli._build_parser().parse_args(["whittaker-eval"]))
    model = WhittakerModel(cli._tau_from(p), cli._vector_from(p))
    want = model.value(0.0, np.array([1.3]), np.array([0.2]))[0]
    assert code == 0
    assert complex(*rep["value"]) == pytest.approx(want, rel=1e-9)


def test_coeff_bounds_fitted_constant(capsys):
    from normlab.coeffs import generate, parse_model_spec
    code, rep, _ = _run_json(["coeff-bounds"], capsys)
    # max_k S(k) / k^{eps/2}, S(k) = sum_{|n| <= k} |n|^{eps/2-1} |b_n|^2
    tau = generate(parse_model_spec("divisor:N=256,lam=0.5"))
    js = np.array(sorted(tau.coeffs))
    n = np.abs(js) / tau.period
    terms = n ** -0.75 * np.abs([tau.coeffs[j] for j in js]) ** 2
    ks = np.unique(n)
    S = np.array([np.sum(terms[n <= k]) for k in ks])
    assert code == 0
    assert rep["fittedConstant"] == pytest.approx(np.max(S / ks ** 0.25),
                                                  rel=1e-12)


def test_triple_norm_checks_spectral_against_direct(monkeypatch, capsys):
    code, rep, _ = _run_json(["triple-norm"], capsys)
    assert code == 0 and rep["ok"] is True
    assert [c["name"] for c in rep["checks"]] == ["spectral-vs-direct"]
    assert rep["checks"][0]["value"] <= rep["tol"]
    original = cli.triple_norm

    def raised(v, u, tol=None, method="spectral"):
        nv = original(v, u, tol, method)
        if method == "direct":
            nv.value *= 1.0 + 10.0 * tol
        return nv

    monkeypatch.setattr(cli, "triple_norm", raised)
    code, rep, _ = _run_json(["triple-norm"], capsys)
    assert code == 1 and rep["checks"][0]["ok"] is False


@pytest.mark.parametrize("argv,profile,want,rel", [
    (["region-norm", "--profile", "delta", "--side", "plus", "--T1", "30",
      "--eps", "0"], CuspProfile(), 7.214319e-4, 1e-6),
    # 2 pi \int_1^inf a^{-1/2} da/a
    (["weyl-bracket", "--profile", "constant", "--eps", "-0.5"],
     ConstantFunction(1.0), 4.0 * math.pi, 1e-10),
], ids=["region-norm-delta", "weyl-bracket-constant"])
def test_plus_regions_take_the_direct_path(argv, profile, want, rel, capsys):
    # every profile's plus region, a Weyl-symmetric one's too, is the
    # direct rule: on delta at T1 = 30 the Weyl-exact path reads 7.212023e-4
    code, rep, _ = _run_json(argv, capsys)
    spec = RegionSpec(rep["T1"], rep["eps"], rep["a1"], "plus")
    assert code == 0
    assert rep["value"] == region_norm_plus_direct(profile, spec)
    assert rep["value"] == pytest.approx(want, rel=rel)


def test_omega_norm_delta_is_region_full(capsys):
    # the default window is all of K times 0 <= T <= 1 = T1
    _, omega, _ = _run_json(["omega-norm", "--profile", "delta"], capsys)
    _, full, _ = _run_json(["region-norm", "--profile", "delta",
                            "--side", "full"], capsys)
    assert omega["value"] == pytest.approx(full["value"], rel=1e-10)
