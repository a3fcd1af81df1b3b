import math

import mpmath
import numpy as np
import pytest

from normlab.errors import OutOfRange, ParityMismatch, PoleAtSample
from normlab.group import diagonal, rotation, unipotent
from normlab.principal import (CayleySum, ReprParams, SmoothVector, act,
                               compact_picture, ktype_eval)

XS = np.linspace(-6.0, 6.0, 61)


def test_repr_params_validation():
    with pytest.raises(OutOfRange):
        ReprParams(1.2)
    with pytest.raises(Exception):
        ReprParams(0.5, "x")
    p = ReprParams(0.5)
    assert p.is_complementary and not p.is_unitary_principal
    q = ReprParams(0.7j)
    assert q.is_unitary_principal
    assert q.dual().u == -0.7j


def test_ktype_parity_guard():
    with pytest.raises(ParityMismatch):
        ktype_eval(1, 0.5j, "+", XS)
    with pytest.raises(ParityMismatch):
        SmoothVector(ReprParams(0.5j, "+"), {3: 1.0})


def test_cayley_derivative_matches_finite_difference():
    cs = CayleySum.ktype(2, 0.3 + 0.5j) + CayleySum.ktype(-4, 0.3 + 0.5j, 0.7)
    dv = cs.derivative()
    h = 1e-6
    fd = (cs(XS + h) - cs(XS - h)) / (2.0 * h)
    assert np.max(np.abs(fd - dv(XS))) < 1e-7


def test_cayley_rotate_is_phase_on_ktypes():
    m, u, th = 4, 0.25j, 0.8
    cs = CayleySum.ktype(m, u)
    rotated = cs.rotate(th)
    expect = np.exp(1j * m * th) * cs(XS)
    assert np.max(np.abs(rotated(XS) - expect)) < 1e-13


def test_cayley_times_power_and_decay():
    cs = CayleySum.ktype(0, 0.0)
    assert cs.min_decay == pytest.approx(1.0)
    heavier = cs.times_power(0.5, 0.5)
    assert heavier.min_decay == pytest.approx(2.0)
    assert np.max(np.abs(heavier(XS) - cs(XS) / (1.0 + XS ** 2) ** 0.5)) < 1e-12


def test_asymptotic_series_accuracy():
    cs = CayleySum.ktype(2, 0.4)
    for side, sign in (("upper", 1.0), ("lower", -1.0)):
        x = sign * 80.0
        approx = sum(c * abs(x) ** -(s0 + n)
                     for s0, a in cs.asymptotic_series(side, 8)
                     for n, c in enumerate(a))
        assert abs(approx - cs(np.array([x]))[0]) < 1e-13


@pytest.mark.parametrize("m,u", [(0, 0.3), (7, -0.75 + 0j), (128, 0.5),
                                 (255, 0.6j), (256, -0.75), (64, 0.8j)])
def test_sampler_matches_complex_power_form(m, u):
    # sum of c (1+ix)^{-al} (1-ix)^{-be} on the principal branch, at 30
    # digits, against the sampler; the shifted term decays faster, so the
    # sums mix decay rates.  A double carries weight 256 at |x| = 1e200
    # with about 7e-14 of phase error (400 radians of m arctan x plus
    # 276 of lam log r), whatever the formula
    cs = (CayleySum.ktype(m, u)
          + CayleySum.ktype(m - 2, u, 0.5 - 0.25j).times_power(1.5, 0.5))
    xs = np.concatenate([XS, [-40.0, 75.5, 1e3, -3e5, 1e10, -1e100, 1e154,
                              3e160, 1e200, -1e200]])
    got = cs(xs)
    mpmath.mp.dps = 30
    try:
        for x, g in zip(xs, got):
            x = mpmath.mpf(x)
            ref = complex(sum(
                mpmath.mpc(c) * (1 + 1j * x) ** -mpmath.mpc(al)
                * (1 - 1j * x) ** -mpmath.mpc(be)
                for (al, be), c in cs.terms.items()))
            assert abs(g - ref) <= 1e-13 * abs(ref) + 1e-300, float(x)
    finally:
        mpmath.mp.dps = 15


def test_smooth_vector_sampler_consistency():
    v = SmoothVector(ReprParams(0.5j, "+"), {0: 1.0, 2: 0.5 - 0.25j, -4: 0.1})
    assert v.validate() < 1e-10


def test_act_is_homomorphism():
    u = 0.3 + 0.8j
    g1 = rotation(0.4) @ diagonal(1.3)
    g2 = unipotent(0.7) @ diagonal(0.8)
    f = CayleySum.ktype(0, u)
    lhs = act(g1 @ g2, f, u)
    rhs = act(g1, act(g2, f, u), u)
    assert np.max(np.abs(lhs(XS) - rhs(XS))) < 1e-10


def test_act_pole_detection():
    g = rotation(0.5)  # c != 0: pole at x = a / c
    f = CayleySum.ktype(0, 0.0)
    pole = g.a / g.c
    with pytest.raises(PoleAtSample):
        act(g, f, 0.0)(np.array([pole]))


def test_compact_picture_of_ktypes():
    # v_0 becomes the constant 1; v_{2m} becomes exp(2 m i theta)
    u = 0.6j
    thetas = np.linspace(-1.2, 1.2, 25)
    for m in (0, 2, -4):
        f = compact_picture(CayleySum.ktype(m, u), u)
        expect = np.exp(1j * m * thetas)
        assert np.max(np.abs(f(thetas) - expect)) < 1e-12
    with pytest.raises(PoleAtSample):
        compact_picture(CayleySum.ktype(0, u), u)(np.array([math.pi / 2]))


def test_rotated_vector_matches_compact_picture_phase():
    u = 0.5j
    th = 0.3
    v = SmoothVector(ReprParams(u, "+"), {2: 1.0, -2: 0.5})
    rot = v.rotated(th)
    for m in (2, -2):
        assert rot.coeffs[m] == pytest.approx(
            v.coeffs[m] * np.exp(1j * m * th))
