import math
import time

import mpmath
import numpy as np
import pytest

import normlab.fourier
import normlab.norms
from normlab.norms import _gl_panels, _xi_grid, _xi_integral
from normlab.errors import (AccuracyNotReached, BadParameterRange,
                            DivergentIntegral, OutOfRange, ParityMismatch,
                            PoleParameter)
from normlab.fourier import fourier_transform_batch, live_edge
from normlab.norms import (comp_norm, g_normalizer, g_normalizer_closed,
                           intertwine_apply, intertwine_constant,
                           intertwine_pair, kirillov_norm, multiplier_map,
                           triple_norm, weighted_fv_integral)
from normlab.principal import CayleySum, ReprParams, SmoothVector, ktype_eval
from normlab.quadrature import tanh_sinh_map

C0_HALF = 5.244115108584236  # frozen: c_0 at u = 1/2, Gamma oracle


def _mp_c2m(m, u):
    u = mpmath.mpmathify(u)
    half = (u + 1) / 2
    return complex((-1) ** m * 2 ** (1 - u) * mpmath.pi * mpmath.gamma(u)
                   / (mpmath.gamma(half + m) * mpmath.gamma(half - m)))


def test_intertwine_constant_frozen_value():
    assert intertwine_constant(0, 0.5) == pytest.approx(C0_HALF, rel=1e-12)


@pytest.mark.parametrize("u", [0.3, 0.5, 0.7, 0.4 + 0.9j])
def test_intertwine_constant_against_mpmath(u):
    for m in (0, 1, 5, -3):
        got = complex(intertwine_constant(m, u))
        assert got == pytest.approx(_mp_c2m(abs(m), u), rel=1e-10)


def test_intertwine_constant_large_m_continuity():
    # the log-Gamma branch (m > 100) continues the direct branch smoothly
    u = 0.5
    r1 = intertwine_constant(100, u) / intertwine_constant(99, u)
    r2 = intertwine_constant(101, u) / intertwine_constant(100, u)
    assert abs(r2 / r1 - 1.0) < 0.05
    got = complex(intertwine_constant(128, u))
    assert got == pytest.approx(_mp_c2m(128, u), rel=1e-9)


@pytest.mark.parametrize("u,bounds", [
    # scipy's log-Gamma errors at m = 101, 256, 1000, 10^4; each bound is
    # twice that
    (0.5, (4.2e-14, 1.2e-13, 7.4e-13, 9.7e-13)),
    (0.4 + 0.9j, (8.3e-14, 2.8e-13, 1.7e-12, 3.6e-11)),
    (19.07j, (2.3e-14,) * 4)])
def test_intertwine_constant_log_gamma_branch(u, bounds):
    # past |m| = 100 the value runs on quadrature.loggamma
    with mpmath.workdps(30):
        for m, bound in zip((101, 256, 1000, 10 ** 4), bounds):
            want = _mp_c2m(m, u)
            got = complex(intertwine_constant(m, u))
            assert abs(got - want) <= 2.0 * bound * abs(want)


@pytest.mark.parametrize("m,u,want", [
    (1, 1.0, 0.0), (3, 1.0, 0.0), (2, 3.0, 0.0), (3, 5.0, 0.0),
    (150, 1.0, 0.0), (1, 3.0, -math.pi / 4), (2, 5.0, math.pi / 16),
    (0, 1.0, math.pi)])
def test_intertwine_constant_at_odd_integer_u(m, u, want):
    # 1/Gamma((u+1)/2 - |m|) = 0 for |m| >= (u+1)/2: c_{2m} is exactly 0;
    # at u = 1, A_u phi = \int phi, so only c_0 = pi survives
    got = complex(intertwine_constant(m, u))
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-14)


def test_intertwine_constant_poles():
    for u in (0.0, -1.0, -2.0):
        with pytest.raises(PoleParameter):
            intertwine_constant(0, u)


@pytest.mark.parametrize("u,m", [(0.5, 0), (0.3, 1)])
def test_intertwine_apply_eigenvalue(u, m):
    xs = np.linspace(-2.0, 2.0, 9)
    av = intertwine_apply(SmoothVector.single(2 * m, u), u, xs)
    target = ktype_eval(2 * m, -u, "+", xs)
    ratios = av / target
    mean = np.mean(ratios)
    spread = float(np.max(np.abs(ratios - mean))) / abs(mean)
    assert spread < 1e-5
    assert mean == pytest.approx(intertwine_constant(m, u), rel=1e-5)


def test_intertwine_apply_range_guard():
    with pytest.raises(OutOfRange):
        intertwine_apply(SmoothVector.single(0, 1.5 + 0j), 1.5, 0.0)


def test_g_normalizer_special_values():
    assert g_normalizer(0.0) == 0.0
    assert g_normalizer(0.5) == pytest.approx(1.0, abs=1e-6)
    for u in (-0.3, 0.3, 0.6, -0.75):
        assert g_normalizer(u) == pytest.approx(g_normalizer_closed(u),
                                                rel=1e-8)
    with pytest.raises(OutOfRange):
        g_normalizer(1.0)


@pytest.mark.slow
@pytest.mark.parametrize("u", [0.3, 0.6])
def test_intertwine_pair_spectral_vs_quadrature(u):
    lam = 0.7
    phi = SmoothVector(ReprParams(u, "+"), {0: 1.0, 2: 0.4})
    psi = SmoothVector(ReprParams(u, "+"), {0: 0.8, 2: -0.3 + 0.1j})
    spec = intertwine_pair(phi, psi, u, method="spectral")
    quad = intertwine_pair(phi, psi, u, method="quadrature")
    assert quad == pytest.approx(spec, rel=1e-10)
    del lam


@pytest.mark.parametrize("phi,psi,exc", [
    # psi decays like |x|^-0.4: the integrand like |x|^-0.9
    (SmoothVector.single(0, 0.5), CayleySum({(0.2, 0.2): 1.0}),
     DivergentIntegral),
    # psi's exponent sum is complex
    (SmoothVector.single(0, 0.5), SmoothVector.single(0, 0.3 + 0.4j),
     OutOfRange),
    # psi's terms have two exponent sums
    (SmoothVector.single(0, 0.5),
     CayleySum.ktype(0, 0.5) + CayleySum.ktype(2, 0.3), OutOfRange),
    # phi is not in P(0.5, +): another u, an odd weight
    (SmoothVector.single(0, 0.3), SmoothVector.single(0, 0.5), OutOfRange),
    (SmoothVector.single(1, 0.5), SmoothVector.single(1, 0.5), OutOfRange),
])
def test_intertwine_pair_refuses_outside_its_domain(phi, psi, exc):
    # refused before the quadrature, which takes seconds
    t0 = time.perf_counter()
    with pytest.raises(exc):
        intertwine_pair(phi, psi, 0.5)
    assert time.perf_counter() - t0 < 1.0


def test_intertwine_pair_single_ktype_closed_form():
    # (v_{2m}, v_{2m})_u = pi * c_{2m}^{(u)}
    u = 0.5
    for m in (0, 1):
        v = SmoothVector.single(2 * m, u)
        spec = intertwine_pair(v, v, u, method="spectral")
        assert spec == pytest.approx(math.pi * intertwine_constant(m, u),
                                     rel=1e-12)


def test_comp_norm_is_g_times_pairing():
    # ||v_0||^2_{C_u} = G(u) * pi * c_0^{(u)}
    for u in (0.3, 0.6):
        nv = comp_norm(SmoothVector.single(0, u), u)
        expect = g_normalizer(u) * math.pi \
            * complex(intertwine_constant(0, u)).real
        assert nv.value == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("u", [0.2, -0.8])
def test_comp_norm_high_weight_against_closed_form(u):
    # weight 128: |Fv|^2 has ~18 zeros on (0, 1], which a fixed
    # tanh-sinh level there does not resolve
    mpmath.mp.dps = 30
    uu = mpmath.mpf(u)
    g = mpmath.pi ** (uu - 0.5) * mpmath.gamma((1 - uu) / 2) \
        / mpmath.gamma(uu / 2)
    expect = abs(float(g * mpmath.pi) * _mp_c2m(64, u))
    nv = comp_norm(CayleySum.ktype(128, u), u)
    assert nv.value == pytest.approx(expect, rel=1e-4)


@pytest.mark.parametrize("u", [0.25, -0.75])
def test_comp_norm_meets_default_tol_at_high_weight(u):
    for weight in (64, 192):
        nv = comp_norm(CayleySum.ktype(weight, u), u)
        expect = abs(g_normalizer_closed(u) * math.pi
                     * _mp_c2m(weight // 2, u))
        assert nv.value == pytest.approx(expect, rel=1e-8)
        assert nv.meta["xi_err"] <= 1e-8
        # the same rule on each half-line
        halves = sum(weighted_fv_integral(CayleySum.ktype(weight, u), -u,
                                          0.0, sign) for sign in (1, -1))
        assert halves == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_comp_norm_within_tol_up_to_weight_256(tol):
    # the xi range ends at the transform's zero edge, so tol alone sets
    # the accuracy: no margin caps it at high weight
    for u in (0.25, -0.25, 0.5, -0.5, -0.75, 0.8):
        gpi = g_normalizer_closed(u) * math.pi
        for weight in range(0, 257, 8):
            nv = comp_norm(CayleySum.ktype(weight, u), u, tol)
            expect = abs(gpi * _mp_c2m(weight // 2, u))
            assert nv.value == pytest.approx(expect, rel=tol, abs=0.0), \
                (weight, u)


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_comp_norm_within_tol_between_the_sweep_weights(tol):
    # the weights where the tanh-sinh sum on (0, 1] once settled below the
    # level it had already transformed, at every u, and every even weight
    # off the step-8 sweep above, at one u each in turn
    us = (0.5, 0.25, 0.8)
    named = (120, 140, 164, 182, 198, 226, 234, 250, 252)
    off_grid = [w for w in range(2, 256, 2) if w % 8]
    cases = {(w, u) for w in named for u in us}
    cases |= {(w, us[i % 3]) for i, w in enumerate(off_grid)}
    for weight, u in sorted(cases):
        nv = comp_norm(CayleySum.ktype(weight, u), u, tol)
        expect = abs(g_normalizer_closed(u) * math.pi
                     * _mp_c2m(weight // 2, u))
        assert nv.value == pytest.approx(expect, rel=tol, abs=0.0), \
            (weight, u)


def test_xi_refinement_raises_at_the_level_cap(monkeypatch):
    # capped at level 6, the weight-256 sum on (0, 1] is unsettled: the
    # call raises with the estimate (Q_6 - Q_5)^2 / value as ``achieved``
    cs = CayleySum.ktype(256, 0.5)
    monkeypatch.setattr(normlab.norms, "_XI_MAX_LEVEL", 6)
    with pytest.raises(AccuracyNotReached) as exc:
        comp_norm(cs, 0.5, 1e-8)

    def q(x, w):
        xs = np.concatenate([x, -x])
        dens = np.abs(fourier_transform_batch(cs, xs, 1e-8)) ** 2 \
            * np.abs(xs) ** -0.5
        return float(np.sum(np.concatenate([w, w]) * dens))

    q5, q6 = (q(*tanh_sinh_map(0.0, 1.0, k)) for k in (5, 6))
    rest = q(*_gl_panels(256, np.array([1.0]), np.array([live_edge(cs)]))[:2])
    assert exc.value.achieved > 1e-8
    assert exc.value.achieved == pytest.approx(
        ((q6 - q5) / (q6 + rest)) ** 2, rel=1e-6)


def test_comp_norm_near_u_zero_against_closed_form():
    # the engine's E_s orders 1 + u sit next to the integer 1 here, where
    # Gamma(1-s) z^{s-1} and the k = 0 series term cancel
    mpmath.mp.dps = 30
    try:
        for u in (1e-8, -1e-8, 1e-6, -1e-6):
            uu = mpmath.mpf(u)
            g = mpmath.pi ** (uu - 0.5) * mpmath.gamma((1 - uu) / 2) \
                / mpmath.gamma(uu / 2)
            for weight in (0, 8, 64):
                half = (uu + 1) / 2
                c = 2 ** (1 - uu) * mpmath.pi * mpmath.gamma(uu) / (
                    mpmath.gamma(half + weight // 2)
                    * mpmath.gamma(half - weight // 2))
                nv = comp_norm(CayleySum.ktype(weight, u), u, 1e-10)
                assert nv.value == pytest.approx(
                    abs(float(g * mpmath.pi * c)), rel=1e-10, abs=0.0), \
                    (u, weight)
    finally:
        mpmath.mp.dps = 15


def test_comp_norm_plancherel_at_zero():
    # u = 0 is the plain L^2 norm: ||v_0^{(i lam)}||^2 = pi
    nv = comp_norm(SmoothVector.single(0, 0.9j), 0.0)
    assert nv.value == pytest.approx(math.pi, rel=1e-8)


def test_comp_norm_guards():
    with pytest.raises(OutOfRange):
        comp_norm(SmoothVector.single(0, 0.0j), 1.0)
    with pytest.raises(DivergentIntegral):
        comp_norm(CayleySum.ktype(0, -0.5), 0.0)


def test_kirillov_is_comp_norm_with_flipped_sign():
    v = SmoothVector.single(2, 0.5j)
    assert kirillov_norm(v, 0.25).value == pytest.approx(
        comp_norm(v, -0.25).value, rel=1e-12)


def test_triple_norm_spectral_vs_direct():
    # an imaginary representation u at a real norm u
    for rep_u in (0.8j, 0.2j):
        v = SmoothVector(ReprParams(rep_u, "+"), {0: 1.0, 2: 0.5, -2: 0.25j})
        a = triple_norm(v, -0.25, method="spectral")
        b = triple_norm(v, -0.25, method="direct")
        assert b.value == pytest.approx(a.value, rel=1e-12, abs=0.0), rep_u


@pytest.mark.parametrize("spread", [2, 8, 16])
def test_triple_norm_direct_against_closed_form(spread):
    # representation u = norm u: |||v|||_u^2 = 2 pi sum_w |b_w|^2 G(u) pi
    # |c_w(u)|, b_w the coefficient of the weight-w K-type, both methods
    # within tol of it and within 1e-12 of each other
    rng = np.random.default_rng(spread)
    for u in (0.4, -0.6):
        k0 = 2 * int(rng.integers(-6, 6))
        coeffs = {w: complex(*rng.standard_normal(2))
                  for w in range(k0, k0 + spread + 1, 2)}
        v = SmoothVector(ReprParams(u, "+"), coeffs)
        gpi = g_normalizer_closed(u) * math.pi
        expect = 2.0 * math.pi * sum(
            abs(b) ** 2 * abs(gpi * _mp_c2m(w // 2, u))
            for w, b in coeffs.items())
        direct = triple_norm(v, u, 1e-8, method="direct")
        spectral = triple_norm(v, u, 1e-8, method="spectral")
        assert direct.meta["n_theta"] == 2 * spread + 4
        assert direct.value == pytest.approx(expect, rel=1e-8, abs=0.0)
        assert spectral.value == pytest.approx(expect, rel=1e-8, abs=0.0)
        assert direct.value == pytest.approx(spectral.value, rel=1e-12,
                                             abs=0.0)


def test_triple_norm_direct_transforms_each_ktype_once(monkeypatch):
    # F is linear, so the rotations share their K-types' transforms: per
    # xi-level one engine call per K-type, all on the same nodes
    seen = []
    original = normlab.norms.fourier_transform_batch

    def counting(v, xis, tol=None, return_err=False):
        seen.append((tuple(v.terms), xis))
        return original(v, xis, tol, return_err)

    monkeypatch.setattr(normlab.norms, "fourier_transform_batch", counting)
    v = SmoothVector(ReprParams(0.3, "+"), {-2: 1.0, 0: 0.5j, 2: 0.25,
                                            4: -1.0 + 0.5j})
    nv = triple_norm(v, 0.3, method="direct")
    ktypes = [tuple(CayleySum.ktype(m, 0.3).terms) for m in sorted(v.coeffs)]
    assert nv.meta["n_theta"] == 16
    assert seen and len(seen) % len(ktypes) == 0
    for i in range(0, len(seen), len(ktypes)):
        level = seen[i:i + len(ktypes)]
        assert [t for t, _ in level] == ktypes
        assert all(np.array_equal(xis, level[0][1]) for _, xis in level)


def test_triple_norm_single_ktype_is_kmass_comp_norm():
    v = SmoothVector.single(2, 0.5j)
    t = triple_norm(v, -0.25)
    c = comp_norm(v, -0.25)
    assert t.value == pytest.approx(2.0 * math.pi * c.value, rel=1e-12)


def test_multiplier_map_cases():
    lam = 0.8
    src = ReprParams(1j * lam, "+")
    v = SmoothVector(src, {0: 1.0, 2: 0.5})
    mapped, tgt = multiplier_map(v, src, -0.25, "exotic")
    assert tgt.u == -0.25 and sorted(mapped.coeffs) == [0, 2]

    src_odd = ReprParams(1j * lam, "-")
    v_odd = SmoothVector(src_odd, {1: 1.0, -3: 0.5})
    mapped, tgt = multiplier_map(v_odd, src_odd, -0.25, "exotic1")
    assert sorted(mapped.coeffs) == [-2, 2]  # weight 2m-1 -> 2m

    src_c = ReprParams(0.5, "+")
    v_c = SmoothVector(src_c, {0: 1.0})
    mapped, tgt = multiplier_map(v_c, src_c, 0.2, "exotic2")
    assert tgt.u == 0.2

    with pytest.raises(BadParameterRange):
        multiplier_map(v_c, src_c, 0.6, "exotic")  # non-unitary source
    with pytest.raises(ParityMismatch):
        multiplier_map(v, src, -0.25, "exotic1")
    with pytest.raises(BadParameterRange):
        multiplier_map(v_c, src_c, 0.9, "exotic2")  # mu outside (-1-u, 0)


def test_multiplier_map_sampler_route_matches():
    # CayleySum route agrees pointwise with the algebraic statement
    lam, u = 0.8, -0.25
    cs = CayleySum.ktype(0, 1j * lam)
    mapped, _ = multiplier_map(cs, ReprParams(1j * lam, "+"), u, "exotic")
    xs = np.linspace(-3.0, 3.0, 13)
    expect = cs(xs) * (1.0 + xs ** 2) ** ((1j * lam - u) / 2.0)
    assert np.max(np.abs(mapped(xs) - expect)) < 1e-12


@pytest.mark.parametrize("weight, tol, level", [
    (0, 1e-8, 6), (24, 1e-8, 7), (112, 1e-8, 8), (184, 1e-8, 8),
    (256, 1e-8, 8), (0, 1e-10, 7), (60, 1e-10, 7), (24, 1e-6, 7),
    (112, 1e-6, 7), (256, 1e-6, 8)])
def test_comp_norm_transforms_once(monkeypatch, weight, tol, level):
    # the first transform batch holds the tanh-sinh level the weight
    # predicts and the one below it, and the xi refinement settles at the
    # predicted level: one engine call, every transformed frequency
    # counted in n_xi
    seen = []
    original = normlab.norms.fourier_transform_batch

    def counting(v, xis, tol=None, return_err=False):
        seen.append(len(xis))
        return original(v, xis, tol, return_err)

    monkeypatch.setattr(normlab.norms, "fourier_transform_batch", counting)
    nv = comp_norm(CayleySum.ktype(weight, 0.5), 0.5, tol)
    assert len(seen) == 1
    assert nv.meta["xi_level"] == level
    assert nv.meta["n_xi"] == seen[0]


@pytest.mark.parametrize("u", [-0.75, -0.25, 0.5, 0.8])
def test_comp_norm_half_and_full_pass_agree(monkeypatch, u):
    # a real-u K-type takes the engine's half panel pass; forced onto the
    # full pass it gives the same norm from the same xi levels and nodes
    half = [comp_norm(CayleySum.ktype(w, u), u, 1e-8)
            for w in range(0, 257, 16)]
    monkeypatch.setattr(normlab.fourier, "_mirrored", lambda cs: False)
    for w, nv in zip(range(0, 257, 16), half):
        full = comp_norm(CayleySum.ktype(w, u), u, 1e-8)
        assert nv.value == pytest.approx(full.value, rel=1e-14, abs=0.0)
        assert nv.meta["xi_level"] == full.meta["xi_level"]
        assert nv.meta["n_xi"] == full.meta["n_xi"]


@pytest.mark.parametrize("tol,off", [
    (1e-6, {}), (1e-8, {}), (1e-10, {88: -1})])
def test_xi_grid_predicts_the_accepted_level(tol, off):
    # the predicted level against the running maximum over the weights of
    # the level accepted at a real and at a complex order.  The refinement
    # starts at the predicted level, so a level too many transforms nodes
    # the tol did not need and one too few costs a second engine call.
    # ``off`` pins where the prediction parts from that maximum
    top, got = 0, {}
    for w in range(0, 257, 4):
        for u in (0.5, 0.3j):
            nv = comp_norm(CayleySum.ktype(w, u), 0.5, tol)
            top = max(top, nv.meta["xi_level"])
        level = _xi_grid([CayleySum.ktype(w, 0.5)], tol)[0]
        if level != top:
            got[w] = level - top
    assert got == off


def test_xi_integral_past_the_zero_edge():
    # pieces past fourier.live_edge integrate the engine's exact zeros, and
    # a last edge past it leaves the tail rule without nodes
    cs = CayleySum.ktype(0, 0.5j)
    (parts,), (tail,), _ = _xi_integral([cs], [[1.0]], 0.0,
                                        [2.0, 50.0, 100.0], (1,), 1e-8)
    assert parts[0] > 0.0 and list(parts[1:]) == [0.0, 0.0] and tail == 0.0
    assert weighted_fv_integral(cs, 0.0, 100.0, 1) == 0.0


def test_xi_integral_gives_no_nodes_past_the_zero_edge(monkeypatch):
    # the P_0 segments [n, n + 1] of a 64-numerator model at a1 = 1 run far
    # past fourier.live_edge, where every transform is an exact zero.  A
    # piece that starts there gets no nodes and one that straddles the
    # edge keeps its rule, so the values are the full rule's, bit for bit
    cs = SmoothVector(ReprParams(-0.75j, "+"), {0: 1.0, 2: 0.3 - 0.2j}).sampler
    edges = [float(n) for n in range(1, 65)]
    seen = []
    original = normlab.norms.fourier_transform_batch

    def recording(v, xis, tol=None, return_err=False):
        seen.append(xis)
        return original(v, xis, tol, return_err)

    monkeypatch.setattr(normlab.norms, "fourier_transform_batch", recording)
    (vals,), _, meta = _xi_integral([cs], [[1.0]], -0.25, edges, (-1,), 1e-8)
    # the full rule: GL panels on every piece, all from xi >= 1
    edge = live_edge(cs)
    a = np.array(edges)
    x, w, k = _gl_panels(cs.max_weight, a, np.append(a[1:], max(a[-1], edge)))
    dead = a[k] >= edge
    assert 2.0 < edge < 63.0
    assert meta["n_xi"] == np.count_nonzero(~dead) < len(x)
    assert np.array_equal(np.concatenate(seen), -x[~dead])
    fv = original(cs, -x, 1e-8)
    assert not np.any(fv[dead])
    full = np.bincount(k, w * (np.abs(fv) ** 2 * x ** -0.25), minlength=len(a))
    assert np.array_equal(vals, full)


@pytest.mark.parametrize("weight,p", [(4, 0.25), (4, -0.25), (40, 0.3)])
def test_xi_integral_segments_add_up(weight, p):
    # [0, 0.5] and [0.5, 1] on tanh-sinh, [1, 2] on GL panels; [2, inf)
    # on the xi grid from 2, the same value as the one-edge call from 2
    cs = CayleySum.ktype(weight, 0.3j)
    (whole,), _, _ = _xi_integral([cs], [[1.0]], p, [0.0], (1, -1), 1e-10)
    (parts,), _, _ = _xi_integral([cs], [[1.0]], p, [0.0, 0.5, 2.0],
                                  (1, -1), 1e-10)
    (last,), _, _ = _xi_integral([cs], [[1.0]], p, [2.0], (1, -1), 1e-10)
    assert len(whole) == 1 and len(parts) == 3 and len(last) == 1
    assert sum(parts) == pytest.approx(whole[0], rel=1e-10)
    assert parts[-1] == pytest.approx(last[0], rel=1e-14)
