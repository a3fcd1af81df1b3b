"""Batch verification harness: every check in the library as a subcommand.

Reports are JSON (optionally mirrored to CSV for the table-like runs)
and deterministic for a fixed config and seed, except for the timestamp
field.  Exit codes: 0 no check failed (a report with no checks has ok
null), 1 a check missed its tolerance, 2 invalid configuration, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from .automorphic import (PeriodicDistribution, coeff_sums, p0_weighted_norm,
                          whittaker_eval)
from .coeffs import CoeffModel, generate, parse_model_spec
from .errors import (ConfigInvalid, EpsilonBarrier, InvalidInput,
                     NormlabError, OutOfRange)
from .fourier import (series_coefficient_quadrature, signed_sin_power_series,
                      sin_power_series)
from .group import (KanCoords, decompose_kan, decompose_kna, measure_weight,
                    random_elements, rotation, diagonal, unipotent,
                    weyl_flip, weyl_flip_closed_form)
from .modular import CuspProfile
from .norms import (comp_norm, g_normalizer, g_normalizer_closed,
                    intertwine_apply, intertwine_constant, triple_norm)
from .principal import CayleySum, ReprParams, SmoothVector, ktype_eval
from .quadrature import resolve_tol
from .siegel import (ConstantFunction, RegionSpec, WhittakerModel,
                     eisenstein_scenario, floor_sandwich, main2_check,
                     omega_a_norm, region_norm_minus, region_norm_plus_direct,
                     region_norm_plus_via_weyl)

TESTDATA = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "testdata")


def _check(name, value, bound, invariant):
    return {"name": name, "value": float(value), "bound": float(bound),
            "ok": bool(value <= bound), "invariant": invariant}


def _flag(name, ok, invariant):
    return {"name": name, "ok": bool(ok), "invariant": invariant}


def _tau_from(p):
    dist = generate(parse_model_spec(p["model"]))
    u = complex(p["u0"], p["u1"])
    return PeriodicDistribution(dist.period, dist.coeffs,
                                ReprParams(u, p["parity"]))


def _vector_from(p):
    u = complex(p["u0"], p["u1"])
    return SmoothVector.single(p["m"], -u, p["parity"])


def _profile_from(p):
    kind, _, c = p["profile"].partition(":")
    if kind == "constant":
        return ConstantFunction(_convert("profile constant", real, c or 1.0))
    if p["profile"] == "delta":
        return CuspProfile()
    if p["profile"] != "model" or "model" not in p:
        choices = ("delta, constant[:c], or model" if "model" in p
                   else "delta or constant[:c]")
        raise ConfigInvalid(f"unknown profile {p['profile']!r} "
                            f"(use {choices})")
    return WhittakerModel(_tau_from(p), _vector_from(p))


# ---------------------------------------------------------------------------
# subcommand handlers; each takes the merged parameter dict and the
# working tolerance, and returns a report dict
# ---------------------------------------------------------------------------

def cmd_decompose(p, tol):
    gs = random_elements(p["n"], p["seed"])
    kan_err = kna_err = chart_err = 0.0
    for g in gs:
        kan = decompose_kan(g)
        kna = decompose_kna(g)
        kan_err = max(kan_err, float(np.max(np.abs(
            kan.reconstruct().matrix - g.matrix))))
        kna_err = max(kna_err, float(np.max(np.abs(
            kna.reconstruct().matrix - g.matrix))))
        chart_err = max(chart_err, abs(kna.T - kan.a ** 2 * kan.t))
    checks = [
        _check("kan-roundtrip", kan_err, 1e-10,
               "KAN reconstruction reproduces g entrywise"),
        _check("kna-roundtrip", kna_err, 1e-10,
               "KNA reconstruction reproduces g entrywise"),
        _check("chart-relation", chart_err, 1e-10,
               "charts share (theta, a) with T = a^2 t"),
    ]
    return {"n": p["n"], "seed": p["seed"], "checks": checks}


def cmd_measure_check(p, tol):
    rng = np.random.default_rng(p["seed"])
    h = 1e-6
    jac_err = weyl_err = weight_err = 0.0
    for _ in range(p["n"]):
        th = rng.uniform(0.0, 2.0 * math.pi)
        a = math.exp(rng.normal(0.0, 0.7))
        t = rng.normal(0.0, 1.0)
        g0 = rotation(th) @ diagonal(a) @ unipotent(t)
        g1 = rotation(th) @ diagonal(a) @ unipotent(t + h)
        dT = decompose_kna(g1).T - decompose_kna(g0).T
        # dT/dt = a^2 is exactly the KAN/KNA density ratio
        jac_err = max(jac_err, abs(dT / h - a * a) / (a * a))
        kan = decompose_kan(g0)
        ratio = measure_weight("KAN", kan) / measure_weight(
            "KNA", decompose_kna(g0))
        weight_err = max(weight_err, abs(ratio - a * a) / (a * a))
        T = a * a * t
        fl = weyl_flip(T, a)
        Tc, ac = weyl_flip_closed_form(T, a)
        weyl_err = max(weyl_err, abs(fl.Tprime - Tc) + abs(fl.aprime - ac))
    checks = [
        _check("jacobian", jac_err, 1e-4,
               "dT = a^2 dt links the KAN and KNA densities"),
        _check("measure-weights", weight_err, 1e-12,
               "declared chart densities match the Jacobian"),
        _check("weyl-closed-form", weyl_err, 1e-9,
               "flip sends (T, a) to (-T, sqrt(T^2+1)/a)"),
    ]
    return {"n": p["n"], "seed": p["seed"], "checks": checks}


def cmd_intertwine(p, tol):
    u = complex(p["u"], p["u1"])
    m = p["m"]
    c = intertwine_constant(m, u)
    # intertwine_constant raises when its two forms, compared for
    # |m| <= 100 only, differ
    report = {"u": p["u"], "m": m,
              "c": [float(np.real(c)), float(np.imag(c))],
              "checks": [_flag("closed-forms-agree", True,
                               "the two Gamma closed forms agree to 1e-10")]
              if abs(m) <= 100 else []}
    if p["numeric"]:
        if u.imag != 0.0:
            raise OutOfRange(f"--numeric needs a real u, got --u1 {u.imag:g}")
        xs = np.linspace(-2.0, 2.0, 9)
        av = intertwine_apply(SmoothVector.single(2 * m, u), u.real, xs)
        target = ktype_eval(2 * m, -u, "+", xs)
        ratios = av / target
        spread = float(np.max(np.abs(ratios - np.mean(ratios)))
                       / abs(np.mean(ratios)))
        err = abs(np.mean(ratios) - c) / abs(c)
        report["numericRatio"] = [float(np.mean(ratios).real),
                                  float(np.mean(ratios).imag)]
        report["checks"] += [
            _check("x-independence", spread, 1e-5,
                   "intertwined K-type is a constant multiple of its dual"),
            _check("eigenvalue-match", err, 1e-5,
                   "numeric ratio matches the Gamma closed form"),
        ]
    return report


def cmd_gnorm(p, tol):
    u = p["u"]
    gq = g_normalizer(u)
    gc = g_normalizer_closed(u)
    err = abs(gq - gc) / (1.0 + abs(gc))
    return {"u": u, "G": gq, "G_closed": gc,
            "checks": [_check("pairing-vs-closed", err, 1e-8,
                              "Gaussian pairing reproduces the Gamma form")]}


def cmd_comp_norm_scan(p, tol):
    u = p["u"]
    rep_u = complex(p["u0"], p["u1"])
    rows = []
    for m in range(0, p["m_max"] + 1, 2 * p["step"]):
        nv = comp_norm(CayleySum.ktype(m, rep_u), u, tol)
        normalized = nv.value * max(m, 1) ** u
        rows.append({"m": m, "norm_sq": nv.value, "normalized": normalized})
    vals = [r["normalized"] for r in rows if r["m"] > 0]
    spread = max(vals) / min(vals) if vals else 1.0
    return {"u": u, "rows": rows,
            "checks": [_check("normalized-spread", spread, 8.0,
                              "m^u * ||v_m||^2_{C_u} stays bounded "
                              "above and below")]}


def cmd_triple_norm(p, tol):
    rep_u = complex(p["u0"], p["u1"])
    v = SmoothVector(ReprParams(rep_u, p["parity"]),
                     {m: 1.0 + 0.0j for m in p["ms"]})
    spectral = triple_norm(v, p["u"], tol).value
    direct = triple_norm(v, p["u"], tol, "direct").value
    rel = abs(spectral - direct) / max(abs(spectral), 1e-300)
    return {"u": p["u"], "ms": p["ms"], "norm_sq": spectral, "direct": direct,
            "checks": [_check("spectral-vs-direct", rel, tol,
                              "K-type orthogonality sum equals the "
                              "K-orbit trapezoid")]}


def cmd_sin_series(p, tol):
    s = complex(p["s"], p["s1"])
    fn = signed_sin_power_series if p["signed"] else sin_power_series
    table = fn(s, p["K"])
    rows = [{"j": j, "re": c.real, "im": c.imag, "err": table.errors[j]}
            for j, c in sorted(table.coeffs.items())]
    j = max(table.coeffs)
    err = abs(table.coeffs[j] - series_coefficient_quadrature(s, j))
    bound = 1e-7 + 4.0 * table.errors[j]
    return {"s": [s.real, s.imag], "K": p["K"], "signed": p["signed"],
            "decayConstant": table.decay_constant(), "rows": rows,
            "checks": [_check("quadrature-oracle", err, bound,
                              "closed-form coefficient matches direct "
                              "quadrature within its declared error")]}


def cmd_whittaker_eval(p, tol):
    tau = _tau_from(p)
    v = _vector_from(p)
    ev = whittaker_eval(tau, v, KanCoords(p["theta"], p["a"], p["t"]), tol)
    return {"a": p["a"], "t": p["t"], "theta": p["theta"],
            "value": [ev.value.real, ev.value.imag],
            "truncation": ev.truncation, "tailEstimate": ev.tailEstimate,
            "checks": [_flag("tail-controlled", ev.tail_ok,
                             "coefficient tail below 1% of the value")]}


def cmd_verify_whittaker(p, tol):
    if p["eps"] == 0.0:
        raise EpsilonBarrier(
            "eps = 0 is outside both cases of the weighted estimate; "
            "the bound degenerates as eps -> 0")
    a1 = p["a1"]
    tau = _tau_from(p)
    v = _vector_from(p)
    spectral = p0_weighted_norm(tau, v, a1, p["eps"], tol, "spectral")
    geometric = p0_weighted_norm(tau, v, a1, p["eps"], tol, "geometric")
    rel = abs(spectral - geometric) / max(abs(spectral), 1e-300)
    return {"eps": p["eps"], "a1": "inf" if math.isinf(a1) else a1,
            "spectral": spectral, "geometric": geometric,
            "relError": rel,
            "checks": [_check("dual-path", rel, 1e-6,
                              "spectral identity equals direct quadrature")]}


def cmd_coeff_bounds(p, tol):
    tau = generate(parse_model_spec(p["model"]))
    eps = p["eps"]
    ks = np.array(sorted({abs(j) / tau.period for j in tau.coeffs}))
    if len(ks) < 8:
        raise ConfigInvalid("need at least 8 support points for a slope fit")
    S = coeff_sums(tau, eps, 0.0, ks, +1) + coeff_sums(tau, eps, 0.0, ks, -1)
    half = len(ks) // 2
    slope = float(np.polyfit(np.log(ks[half:]), np.log(S[half:]), 1)[0])
    C = float(np.max(S / ks ** (0.5 * eps)))
    return {"eps": eps, "k_max": ks[-1], "slope": slope,
            "fittedConstant": C,
            "checks": [_check("partial-sum-slope", slope, 0.5 * eps + 0.1,
                              "partial sums grow no faster than k^{eps/2}")]}


def cmd_region_norm(p, tol):
    f = _profile_from(p)
    spec = RegionSpec(p["T1"], p["eps"], p["a1"], p["side"])
    report = {"T1": p["T1"], "eps": p["eps"], "a1": p["a1"],
              "side": p["side"], "checks": []}
    if p["side"] == "minus":
        value = region_norm_minus(f, spec, tol)
        lo, hi = floor_sandwich(f, spec, tol)
        report.update(value=value, floorLower=lo, floorUpper=hi)
        slack = tol * max(abs(value), 1.0)
        report["checks"].append(_flag(
            "floor-sandwich", lo - slack <= value <= hi + slack,
            "exact value lies between the floor bounds"))
    elif p["side"] == "plus":
        report.update(value=region_norm_plus_direct(f, spec, tol))
    else:
        T1, eps = p["T1"], p["eps"]
        report.update(value=region_norm_minus(f, RegionSpec(T1, eps), tol)
                      + region_norm_plus_direct(
                          f, RegionSpec(T1, eps, side="plus"), tol))
    return report


def cmd_weyl_bracket(p, tol):
    f = _profile_from(p)
    spec = RegionSpec(p["T1"], p["eps"], p["a1"], "plus")
    bracket = region_norm_plus_via_weyl(f, spec, tol)
    # direct quadrature is a path independent of the flip the bracket uses
    value = region_norm_plus_direct(f, spec, tol)
    slack = 1e-8 * max(abs(value), 1.0)
    inside = bracket["lower"] - slack <= value <= bracket["upper"] + slack
    return {"T1": p["T1"], "eps": p["eps"], "a1": p["a1"],
            "lower": bracket["lower"], "upper": bracket["upper"],
            "value": value,
            "checks": [_flag("bracket-encloses", inside,
                             "plus-region value sits inside the "
                             "Weyl-transported bounds")]}


# main2_check's lhs is the norm of an asserted-Weyl model's symmetrization
SYMMETRIZED_LHS = ("Weyl-symmetrized model: |f| for a <= 1, |f(xw)| for "
                   "a > 1; not the model's own norm")


def cmd_main2_scan(p, tol):
    tau = _tau_from(p)
    v = _vector_from(p)
    rows = []
    for eps in p["eps_list"]:
        rep = main2_check(tau, v, p["T1"], eps, tol)
        rows.append({"eps": eps, "lhs": rep["lhs"], "rhs": rep["rhsNorm"],
                     "ratio": rep["ratio"], "target_u": rep["target_u"]})
    ratios = [r["ratio"] for r in rows]
    monotone = all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    return {"T1": p["T1"], "rows": rows, "monotoneIncreasing": monotone,
            "lhsFunction": SYMMETRIZED_LHS,
            "checks": [_flag("ratios-finite",
                             all(math.isfinite(r) for r in ratios),
                             "fitted ratio defined at every eps")]}


def cmd_omega_norm(p, tol):
    f = _profile_from(p)
    value = omega_a_norm(f, p["omega"], p["eps"], tol)
    return {"omega": p["omega"], "eps": p["eps"], "value": value,
            "checks": [_flag("finite", math.isfinite(value),
                             "compact omega gives a finite weighted norm"),
                       _flag("nonnegative", value >= 0.0,
                             "an ordered window gives a norm >= 0")]}


def cmd_eisenstein(p, tol):
    dist = generate(CoeffModel("divisor", N=p["N"], lam=p["lam"]))
    rep = eisenstein_scenario(dist, p["lam"], p["eps"], p["T1"], tol)
    return {"N": p["N"], "lam": p["lam"], "eps": p["eps"], "T1": p["T1"],
            "lhs": rep["lhs"], "lhsFunction": SYMMETRIZED_LHS,
            "rhs": rep["rhsNorm"], "ratio": rep["ratio"],
            "partialSum": rep["partial_sum"], "fullSum": rep["full_sum"],
            "tailBound": rep["tail_bound"],
            "checks": [_flag("partial-sum-within-tail-bound",
                             rep["summable"],
                             "0 <= fullSum - partialSum <= tailBound, "
                             "fullSum from Ramanujan's identity")]}


def cmd_gen_coeffs(p, tol):
    if not p["out_coeffs"]:
        raise ConfigInvalid("gen-coeffs needs --out-coeffs PATH")
    dist = generate(parse_model_spec(p["model"]))
    dist.to_file(p["out_coeffs"])
    return {"model": p["model"], "path": p["out_coeffs"],
            "count": len(dist.coeffs), "checks": []}


def cmd_regress(p, tol):
    root = p["tables"] or TESTDATA
    names = sorted(n for n in os.listdir(root) if n.endswith(".json"))
    if not names:
        raise ConfigInvalid(f"no regression tables under {root}")
    checks = []
    for name in names:
        with open(os.path.join(root, name)) as fh:
            table = json.load(fh)
        worst = 0.0
        for entry in table["entries"]:
            pars, frozen = entry["params"], entry["value"]
            if table["kind"] == "intertwine":
                got = intertwine_constant(pars["m"], complex(*pars["u"]))
                frozen = complex(*frozen)
            elif table["kind"] == "gnorm":
                got = g_normalizer(pars["u"])
            elif table["kind"] == "comp-norm":
                got = comp_norm(CayleySum.ktype(pars["m"],
                                                complex(*pars["rep_u"])),
                                pars["u"], tol).value
            else:
                raise ConfigInvalid(f"unknown table kind {table['kind']!r}")
            worst = max(worst, abs(got - frozen) / (1.0 + abs(got)))
        checks.append(_check(name, worst, table["tol"],
                             "recomputed values match the frozen table"))
    return {"tables": names, "checks": checks}


# ---------------------------------------------------------------------------
# parameter types: each converts a command-line string or a config-file
# value to what the handlers receive; ``what`` names the values it takes
# ---------------------------------------------------------------------------

def _param_type(what, parse, kinds, ok=lambda x: True):
    """Values whose type is one of ``kinds`` (so a bool is no number) and
    that ``parse`` maps to an ``ok`` value."""
    def convert(val):
        if type(val) not in kinds:
            raise TypeError
        x = parse(val)
        if not ok(x):
            raise ValueError
        return x
    convert.what = what
    return convert


def _items(item):
    """A comma-separated string or a JSON list, item by item."""
    return lambda val: [item(x) for x in (
        val.split(",") if isinstance(val, str) else val)]


string = _param_type("a string", str, (str,))
switch = _param_type("true or false", bool, (bool,))
real = _param_type("a finite number", float, (int, float, str),
                   math.isfinite)
cutoff = _param_type("a positive number or inf", float, (int, float, str),
                     lambda x: x > 0)  # also rejects nan
integer = _param_type("an integer", int, (int, str))
integers = _param_type("a list of integers", _items(integer), (str, list))
reals = _param_type("a list of finite numbers", _items(real), (str, list))
window = _param_type("a list of 4 finite numbers", _items(real),
                     (str, list), lambda xs: len(xs) == 4)


def count(least):
    return _param_type(f"an integer >= {least}", int, (int, str),
                       lambda n: n >= least)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_COMMON = [
    ("config", string, None, "JSON config file; flags override its values"),
    ("out", string, None, "write the JSON report here"),
    ("csv", string, None, "mirror tabular rows to this CSV file"),
    ("tol", real, None, "working tolerance (default env NORMLAB_TOL)"),
]

_MODEL_ARGS = [
    ("model", string, "finite:b1=1", "coefficient model spec"),
    ("u0", real, 0.0, "Re(u) of the distribution's representation"),
    ("u1", real, 1.0, "Im(u) of the distribution's representation"),
    ("parity", string, "+", "representation parity"),
    ("m", integer, 0, "K-type weight of the pairing vector"),
]

_PROFILE_ARGS = _MODEL_ARGS + [
    ("profile", string, "model", "integrand: model | delta | constant[:c]"),
]

_CUT_ARGS = [
    ("T1", real, 1.0, "unipotent truncation"),
    ("eps", real, 0.5, "weight exponent"),
    ("a1", real, 1.0, "diagonal cutoff"),
]

_REGION_ARGS = _PROFILE_ARGS + _CUT_ARGS

SUBCOMMANDS = {
    "decompose": (cmd_decompose, [
        ("n", count(1), 10000, "number of sampled group elements"),
        ("seed", integer, 1, "RNG seed")]),
    "measure-check": (cmd_measure_check, [
        ("n", count(1), 200, "number of sampled points"),
        ("seed", integer, 2, "RNG seed")]),
    "intertwine": (cmd_intertwine, [
        ("u", real, 0.5, "Re(u)"),
        ("u1", real, 0.0, "Im(u)"),
        ("m", integer, 0, "half-index: acts on the weight-2m K-type"),
        ("numeric", switch, False, "also apply the kernel numerically")]),
    "gnorm": (cmd_gnorm, [
        ("u", real, 0.5, "normalizer argument")]),
    "comp-norm-scan": (cmd_comp_norm_scan, [
        ("u", real, -0.5, "norm index"),
        ("u0", real, 0.0, "Re(u) of the representation"),
        ("u1", real, 0.0, "Im(u) of the representation"),
        ("m-max", count(0), 16, "largest K-type weight"),
        ("step", count(1), 1, "weight stride (in units of 2)")]),
    "triple-norm": (cmd_triple_norm, [
        ("u", real, -0.25, "norm index"),
        ("u0", real, 0.0, "Re(u) of the representation"),
        ("u1", real, 1.0, "Im(u) of the representation"),
        ("parity", string, "+", "representation parity"),
        ("ms", integers, "0", "comma-separated K-type weights, unit coeffs")]),
    "sin-series": (cmd_sin_series, [
        ("s", real, -0.5, "Re(s) of the multiplier exponent"),
        ("s1", real, 0.0, "Im(s)"),
        ("K", count(1), 8, "number of harmonics per side"),
        ("signed", switch, False, "sign-twisted odd-harmonic table")]),
    "whittaker-eval": (cmd_whittaker_eval, _MODEL_ARGS + [
        ("a", real, 1.0, "diagonal coordinate"),
        ("t", real, 0.0, "unipotent coordinate"),
        ("theta", real, 0.0, "K coordinate")]),
    "verify-whittaker": (cmd_verify_whittaker, _MODEL_ARGS + [
        ("eps", real, 1.0, "weight exponent (nonzero)"),
        ("a1", cutoff, 1.0, "upper cutoff; 'inf' allowed")]),
    "coeff-bounds": (cmd_coeff_bounds, [
        ("model", string, "divisor:N=256,lam=0.5", "coefficient model spec"),
        ("eps", real, 0.5, "growth exponent to test")]),
    "region-norm": (cmd_region_norm, _REGION_ARGS + [
        ("side", string, "minus", "minus | plus | full")]),
    "weyl-bracket": (cmd_weyl_bracket, [
        ("profile", string, "delta",
         "Weyl-symmetric integrand: delta | constant[:c]")] + _CUT_ARGS),
    "main2-scan": (cmd_main2_scan, _MODEL_ARGS + [
        ("T1", real, 1.0, "unipotent truncation"),
        ("eps-list", reals, "0.5,0.25,0.125,0.0625",
         "comma-separated eps values (no zeros)")]),
    "omega-norm": (cmd_omega_norm, _PROFILE_ARGS + [
        ("omega", window, "0,6.283185307179586,0,1",
         "window th_lo,th_hi,T_lo,T_hi"),
        ("eps", real, 0.5, "weight exponent")]),
    "eisenstein": (cmd_eisenstein, [
        ("N", count(1), 64, "materialized coefficient range"),
        ("lam", real, 0.5, "spectral parameter"),
        ("eps", real, 0.5, "weight exponent"),
        ("T1", real, 1.0, "unipotent truncation")]),
    "gen-coeffs": (cmd_gen_coeffs, [
        ("model", string, "ramanujan-tau:N=100", "coefficient model spec"),
        ("out-coeffs", string, None, "coefficient file to write")]),
    "regress": (cmd_regress, [
        ("tables", string, None, "directory of frozen tables "
         "(default: the packaged testdata)")]),
}


def _build_parser():
    """Argparse only splits the command line; _merge_params converts."""
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="verification harness for weighted L2 norms of "
                    "SL(2,R) principal-series data")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, args) in SUBCOMMANDS.items():
        sp = subs.add_parser(name)
        for arg, typ, _, help_ in _COMMON + args:
            flag = "--" + arg.replace("_", "-")
            if typ is switch:
                sp.add_argument(flag, action=argparse.BooleanOptionalAction,
                                default=None, help=help_)
            else:
                sp.add_argument(flag, default=None, help=help_)
    return parser


def _merge_params(ns):
    """defaults < config file < explicit flags; each merged value is then
    converted once by its declared type."""
    _, declared = SUBCOMMANDS[ns.subcommand]
    params = {arg.replace("-", "_"): default
              for arg, _, default, _ in _COMMON + declared}
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {ns.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigInvalid(f"config {ns.config} is not a JSON object")
        for key, val in loaded.items():
            key = key.replace("-", "_")
            if key == "subcommand":
                continue
            if key not in params:
                raise ConfigInvalid(f"unknown config key {key!r}")
            params[key] = val
    for key, val in vars(ns).items():
        if key != "subcommand" and val is not None:
            params[key] = val
    for arg, typ, _, _ in _COMMON + declared:
        key = arg.replace("-", "_")
        if params[key] is not None:
            params[key] = _convert(arg, typ, params[key])
    return params


def _convert(arg, typ, val):
    """``typ(val)``; a value it refuses is invalid configuration."""
    try:
        return typ(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigInvalid(f"--{arg} must be {typ.what}, got {val!r}") \
            from None


def _emit(report, params):
    text = json.dumps(report, indent=1, sort_keys=True)
    if params["out"]:
        with open(params["out"], "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if params["csv"] and "rows" in report:
        rows = report["rows"]
        with open(params["csv"], "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    for c in report["checks"]:
        status = "PASS" if c["ok"] else "FAIL"
        tail = "" if c["ok"] else f"  [{c['invariant']}]"
        print(f"{status} {report['subcommand']}:{c['name']}{tail}",
              file=sys.stderr)


def run(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    params = _merge_params(ns)
    handler, _ = SUBCOMMANDS[ns.subcommand]
    tol = resolve_tol(params["tol"])
    report = handler(params, tol)
    report["subcommand"] = ns.subcommand
    report["tol"] = tol
    # a report that ran no checks claims nothing: ok is null, exit 0
    report["ok"] = (all(c["ok"] for c in report["checks"])
                    if report["checks"] else None)
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    _emit(report, params)
    return 1 if report["ok"] is False else 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (InvalidInput, OSError) as exc:
        print(f"normlab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NormlabError as exc:
        print(f"normlab: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
