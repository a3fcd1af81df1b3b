import math

import numpy as np
import pytest

from normlab.automorphic import (PeriodicDistribution, coeff_sum,
                                 l2p_bound_check, p0_weighted_norm,
                                 t_average_sq, weighted_fv_integral,
                                 whittaker_eval)
from normlab.errors import (ConstantTermPresent, DivergentIntegral,
                            HypothesisUnverifiable, TailNotControlled)
from normlab.fourier import fourier_transform
from normlab.group import KanCoords
from normlab.principal import ReprParams, SmoothVector


def _tau(coeffs, u=1j, period=1, parity="+", **kw):
    return PeriodicDistribution(period, coeffs, ReprParams(u, parity), **kw)


def _v(m, u=1j, parity="+"):
    return SmoothVector.single(m, -u, parity)


def test_constant_term_rejected():
    with pytest.raises(ConstantTermPresent):
        _tau({0: 1.0, 1: 1.0})


def test_growth_bound_validated():
    with pytest.raises(ValueError):
        _tau({1: 5.0}, growth_sigma=0.0, growth_C=1.0)
    # consistent bound passes
    _tau({1: 0.5}, growth_sigma=0.0, growth_C=1.0)


def test_file_roundtrip(tmp_path):
    tau = _tau({1: 1.0 + 0.5j, -3: 0.25}, u=0.5 + 0.0j, period=2)
    path = tmp_path / "tau.json"
    tau.to_file(path)
    back = PeriodicDistribution.from_file(path)
    assert back.period == tau.period
    assert back.coeffs == tau.coeffs
    assert back.params == tau.params


def test_single_coefficient_closed_form():
    # b_1 = 1, p = 1: f(a n_t) = a^{-1-u} Fv(-a^{-2}) e^{-2 pi i t}
    u = 1j
    tau = _tau({1: 1.0}, u=u)
    v = _v(0, u)
    for a, t in [(1.0, 0.0), (1.3, 0.4), (0.8, -0.2)]:
        ev = whittaker_eval(tau, v, KanCoords(0.0, a, t))
        expect = a ** (-1.0 - u) * fourier_transform(v.sampler, -a ** -2) \
            * np.exp(-2j * math.pi * t)
        assert ev.value == pytest.approx(expect, rel=1e-9)
        assert ev.truncation == 1


def test_k_part_is_phase_for_single_ktype():
    u = 1j
    tau = _tau({1: 1.0, -2: 0.5}, u=u)
    v = _v(2, u)
    base = whittaker_eval(tau, v, KanCoords(0.0, 1.1, 0.3))
    th = 0.7
    rot = whittaker_eval(tau, v, KanCoords(th, 1.1, 0.3))
    assert rot.value == pytest.approx(
        base.value * np.exp(-2j * th), rel=1e-9)


def test_t_average_matches_direct_quadrature():
    u = 0.5j
    tau = _tau({1: 1.0, -1: 0.5, 2: 0.25j}, u=u)
    v = _v(0, u)
    a = 0.9
    spectral = t_average_sq(tau, v, a)
    ts = np.arange(256) / 256.0
    vals = [whittaker_eval(tau, v, KanCoords(0.0, a, t)).value for t in ts]
    direct = float(np.mean(np.abs(vals) ** 2))  # period 1
    assert spectral == pytest.approx(direct, rel=1e-9)


def test_t_average_array_matches_scalar_calls():
    tau = _tau({1: 1.0, -1: 0.5, 2: 0.25j}, u=0.5j)
    v = _v(0, 0.5j)
    a = np.array([[0.4, 0.9], [1.3, 2.0]])
    got = t_average_sq(tau, v, a)
    assert got.shape == a.shape
    # one transform batch against four: the transform's grid follows the
    # batch, so they agree to its accuracy, not bit for bit
    want = [t_average_sq(tau, v, x) for x in a.ravel()]
    assert np.allclose(got.ravel(), want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("N", [4, 8, 16, 32])
def test_whittaker_declared_growth_tail_estimate(N):
    # b_n = n^{-1/2} on n >= 1, declared |b_n| <= n^{-1/2}; the 399-term
    # table is the reference.  Where the true error is above 1e-12 the
    # estimate is within a factor 10 above it (2.3 to 8.3 here); below
    # about 1e-14 it is at the transform's resolution and not pinned
    def table(n_max, **kw):
        return _tau({n: n ** -0.5 for n in range(1, n_max + 1)}, **kw)

    tau, ref, v = table(N, growth_sigma=-0.5, growth_C=1.0), table(399), _v(0)
    pinned = 0
    for a in (1.5, 2.0, 3.0, 4.0):
        coords = KanCoords(0.0, a, 0.3)
        ev = whittaker_eval(tau, v, coords)
        actual = abs(ev.value - whittaker_eval(ref, v, coords).value)
        if actual > 1e-12:
            assert actual <= ev.tailEstimate <= 10.0 * actual
            pinned += 1
    assert pinned >= 2


def test_coeff_sum_trivial():
    tau = _tau({1: 1.0})
    assert coeff_sum(tau, 0.0, 0.0, 1.0, +1) == 1.0
    assert coeff_sum(tau, 0.0, 0.0, 0.5, +1) == 0.0
    assert coeff_sum(tau, 0.0, 0.0, 1.0, -1) == 0.0


def test_weighted_fv_integral_guard():
    # decay exponent 1 at u0 = 0: a^p with p <= -1 diverges at 0
    v = _v(0, 1j)
    with pytest.raises(DivergentIntegral):
        weighted_fv_integral(v, -1.0, 0.0, +1)


@pytest.mark.parametrize("eps,a1,weight", [
    pytest.param(0.5, 1.0, 0, id="0.5-1.0"),
    pytest.param(-0.5, 2.0, 0, id="-0.5-2.0"),
    pytest.param(1.0, 0.7, 0, id="1.0-0.7"),
    pytest.param(-0.5, math.inf, 128, id="-0.5-inf-128")])
def test_dual_path_identity(eps, a1, weight):
    u = 1j
    tau = _tau({1: 1.0, -2: 0.5}, u=u)
    v = _v(weight, u)
    spectral = p0_weighted_norm(tau, v, a1, eps, method="spectral")
    geometric = p0_weighted_norm(tau, v, a1, eps, method="geometric")
    assert geometric == pytest.approx(spectral, rel=1e-6)


def test_monotone_in_a1():
    u = 1j
    tau = _tau({1: 1.0, -1: 0.5}, u=u)
    v = _v(0, u)
    vals = [p0_weighted_norm(tau, v, a1, 0.5) for a1 in (0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi * (1.0 + 1e-12)


def test_infinite_model_refused():
    tau = _tau({1: 1.0}, growth_sigma=0.0, growth_C=1.0)
    v = _v(0, 1j)
    with pytest.raises((TailNotControlled, DivergentIntegral)):
        p0_weighted_norm(tau, v, 1.0, 0.5)


def test_l2p_bound_both_signs():
    u = 1j
    tau = _tau({1: 1.0, 2: 0.5, -3: 0.25}, u=u)
    v = _v(0, u)
    neg = l2p_bound_check(tau, v, -0.5, 1.5)
    assert neg["ok"] and neg["lhs"] <= neg["rhs"]
    pos = l2p_bound_check(tau, v, 0.5, 1.5)
    assert pos["ok"] and pos["lhs"] <= pos["rhs"]


def test_l2p_guards():
    u = 1j
    tau = _tau({1: 1.0, 2: 0.5, -3: 0.25}, u=u)
    few = _tau({1: 1.0}, u=u)
    v = _v(0, u)
    with pytest.raises(HypothesisUnverifiable):
        l2p_bound_check(tau, v, 0.0, 1.0)
    with pytest.raises(HypothesisUnverifiable):
        l2p_bound_check(few, v, 0.5, 1.0)  # too few support points
    with pytest.raises(DivergentIntegral):
        l2p_bound_check(tau, v, 0.5, math.inf)  # a1^eps needs finite a1


@pytest.mark.parametrize("u,eps", [
    (0.5 + 0j, -0.5), (-0.5 + 0j, -0.5), (1j, -0.5), (1j, 1.0), (1j, 1.5)])
def test_dual_path_identity_at_infinite_a1(u, eps):
    # the geometric a-integral runs to infinity; at eps = 1.5 its
    # integrand decays like a^{-0.5} times a log-periodic factor
    tau = _tau({1: 1.0, -2: 0.5}, u=u)
    v = _v(0, u)
    spectral = p0_weighted_norm(tau, v, math.inf, eps, method="spectral")
    geometric = p0_weighted_norm(tau, v, math.inf, eps, method="geometric")
    assert geometric == pytest.approx(spectral, rel=1e-9, abs=0)
