import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import normlab
from normlab.errors import AccuracyNotReached, DivergentIntegral
from normlab.quadrature import (gamma, gauss_jacobi, loggamma, outward,
                                power_tail)

EPS = np.finfo(float).eps


def test_loggamma_against_mpmath():
    # 4,000 points with Re z in (0, 100], |Im z| <= 50, and 1,000 more
    # where the branches meet, error in eps max(1, |log Gamma|); the
    # declared bound of fourier's sin-power tables is 32 eps per logarithm
    rng = np.random.default_rng(0)
    z = np.concatenate([
        rng.uniform(0.0, 100.0, 4000) + 1j * rng.uniform(-50.0, 50.0, 4000),
        rng.uniform(0.0, 10.0, 1000) + 1j * rng.uniform(-8.0, 8.0, 1000)])
    worst = 0.0
    for zz in z:
        exact = complex(mpmath.loggamma(mpmath.mpc(zz.real, zz.imag)))
        worst = max(worst, abs(loggamma(zz) - exact) / max(1.0, abs(exact)))
    assert worst <= 24 * EPS


def test_loggamma_left_half_plane_against_mpmath():
    # the reflection, the real axis included: mpmath's branch, which is
    # not the principal log of Gamma
    rng = np.random.default_rng(5)
    z = np.concatenate([
        rng.uniform(-60.0, 0.0, 1000) + 1j * rng.uniform(-20.0, 20.0, 1000),
        rng.uniform(-60.0, 0.0, 200) + 0j])
    for zz in z:
        exact = complex(mpmath.loggamma(mpmath.mpc(zz.real, zz.imag)))
        assert abs(loggamma(zz) - exact) <= 24 * EPS * max(1.0, abs(exact))


def test_loggamma_exact_at_one_and_two_and_nan_at_poles():
    assert loggamma(1.0) == 0.0 and loggamma(2.0) == 0.0
    for z in (0.0, -1.0, -7.0):
        assert np.isnan(loggamma(z))


@pytest.mark.parametrize("grid,bound", [
    # scipy.special.gamma's own errors on these grids are 687, 29 and 302
    # eps; at -99.5 Gamma's condition number |z psi(z)| is about 460
    ("negative-reals", 564), ("small", 24), ("strip", 274)])
def test_gamma_against_mpmath(grid, bound):
    rng = np.random.default_rng(1)
    if grid == "negative-reals":
        z = -rng.uniform(0.0, 99.0, 1000)
        z = z[np.abs(z - np.round(z)) > 1e-3].astype(complex)
    elif grid == "small":
        z = rng.uniform(0.0, 7.0, 1000) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 1000))
        z = z[np.abs(z - np.round(z.real)) > 1e-3]
    else:
        z = rng.uniform(-60.0, 60.0, 1000) + 1j * rng.uniform(-30.0, 30.0,
                                                              1000)
    exact = [complex(mpmath.gamma(mpmath.mpc(p.real, p.imag))) for p in z]
    worst = max(abs(g - e) / abs(e) for g, e in zip(gamma(z), exact))
    assert worst <= bound * EPS


def test_gamma_scalars_integers_and_poles():
    assert gamma(5.0) == pytest.approx(24.0, rel=4 * EPS)
    assert gamma(0.5) == pytest.approx(np.sqrt(np.pi), rel=4 * EPS)
    assert np.all(np.isnan(gamma(np.array([0.0, -1.0, -30.0]))))
    assert np.ndim(gamma(0.25 + 1j)) == 0


def _jacobi_oracle(n, alpha, beta, x0):
    # 40 digits: Newton on mpmath's P_n from each node, Christoffel
    # weights 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n! (1-x^2) P_n'^2)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        scale = 2 ** (a + b + 1) * mpmath.gamma(n + a + 1) \
            * mpmath.gamma(n + b + 1) / (mpmath.gamma(n + a + b + 1)
                                         * mpmath.factorial(n))

        def dp(x):
            return (n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, x)

        xs, ws = [], []
        for x in x0:
            x = mpmath.mpf(float(x))
            for _ in range(6):
                x -= mpmath.jacobi(n, a, b, x) / dp(x)
            xs.append(x)
            ws.append(scale / ((1 - x * x) * dp(x) ** 2))
        return xs, ws


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("u", [0.05, 0.2, 0.5, 0.8, 1.0, 1.5])
def test_gauss_jacobi_against_40_digit_oracle(n, u):
    # measured: nodes within 7e-16, weights within 7e-14 relative
    x, w = gauss_jacobi(n, 0.0, u - 1.0)
    xo, wo = _jacobi_oracle(n, 0.0, u - 1.0, x)
    assert max(abs(float(a - b)) for a, b in zip(x, xo)) <= 4 * EPS
    assert max(abs(float((a - b) / b)) for a, b in zip(w, wo)) <= 2e-13


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("u", [0.05, 0.2, 0.5, 0.8, 1.0, 1.5])
def test_gauss_jacobi_integrates_polynomials_exactly(n, u):
    # int_{-1}^1 (1+x)^k (1+x)^(u-1) dx = 2^(u+k) / (u+k), k <= 2n - 1
    x, w = gauss_jacobi(n, 0.0, u - 1.0)
    k = np.arange(2 * n)
    got = w @ (1.0 + x)[:, None] ** k
    rel = np.abs(got / (2.0 ** (u + k) / (u + k)) - 1.0)
    assert np.max(rel) <= 1e-13  # measured: 1.4e-14


@pytest.mark.parametrize("X", [1.5, 10.0, 150.0])
@pytest.mark.parametrize("f,beta,exact", [
    (lambda x: 1.0 / (1.0 + x * x), 0.0, lambda X: math.atan(1.0 / X)),
    (lambda x: x ** -2.5 * (1.0 + 1.0 / x), 0.5,
     lambda X: X ** -1.5 / 1.5 + X ** -2.5 / 2.5),
    (lambda x: x ** -1.5, -0.5, lambda X: 2.0 / math.sqrt(X)),
])
def test_power_tail_closed_forms(f, beta, exact, X):
    # int_X^inf f for f = x^-(2+beta) (a power series in 1/x)
    assert power_tail(f, X, beta) == pytest.approx(exact(X), rel=1e-14)


def test_power_tail_refuses_beta_at_most_minus_one():
    with pytest.raises(DivergentIntegral):
        power_tail(lambda x: 1.0 / x, 10.0, -1.0)


def test_import_loads_no_scipy():
    # the runtime is numpy only: importing the package and its CLI must
    # not pull scipy in
    src = os.path.dirname(os.path.dirname(normlab.__file__))
    code = ("import sys, normlab, normlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _power_chunk(k, lam=None):
    r"""\int_lo^hi a^{-k} da/a, times cos^2(lam log a) when lam is given,
    in closed form; with x = log a, the modulated antiderivative is
    -e^{-kx}/(2k) + e^{-kx}(2 lam sin 2 lam x - k cos 2 lam x)
    / (2(k^2 + 4 lam^2))."""
    def prim(a):
        x = math.log(a)
        if lam is None:
            return x if k == 0 else -math.exp(-k * x) / k
        flat = x / 2 if k == 0 else -math.exp(-k * x) / (2 * k)
        return flat + math.exp(-k * x) * (
            2 * lam * math.sin(2 * lam * x) - k * math.cos(2 * lam * x)) \
            / (2 * (k * k + 4 * lam * lam))
    return lambda lo, hi: prim(hi) - prim(lo)


@pytest.mark.parametrize("lam", [None, 0.3, 3.0])
@pytest.mark.parametrize("k", [0.5, 2.0])
def test_outward_converges_on_power_chunks(k, lam):
    # \int_1^inf a^{-k} da/a = 1/k; with cos^2(lam log a), 1/(2k) plus
    # k/(2(k^2 + 4 lam^2))
    want = 1 / k if lam is None else \
        0.5 / k + k / (2 * (k * k + 4 * lam * lam))
    got = outward(_power_chunk(k, lam), 1.0, 2.0, 1e-10)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("lam", [None, 0.3, 3.0])
def test_outward_raises_where_the_cap_is_too_near(lam):
    # a^{-0.03} loses 0.03 of its size per unit log a: past 2^96 a
    # tenth of the integral is still to come
    with pytest.raises(AccuracyNotReached, match="not converged") as info:
        outward(_power_chunk(0.03, lam), 1.0, 2.0, 1e-8)
    assert info.value.achieved > 1e-3


@pytest.mark.parametrize("chunk", [
    lambda lo, hi: 1.0,
    _power_chunk(0.0),
    _power_chunk(-0.01),
])
def test_outward_raises_on_a_growing_integral(chunk):
    # a constant piece per doubling, \int da/a and \int a^{0.01} da/a
    with pytest.raises(DivergentIntegral, match="still grows"):
        outward(chunk, 1.0, 2.0, 1e-8)


def test_outward_returns_a_zero_integral_at_once():
    calls = []

    def chunk(lo, hi):
        calls.append((lo, hi))
        return 0.0

    assert outward(chunk, 1.0, 2.0, 1e-8) == 0.0
    assert calls == [(1.0, 2.0), (2.0, 4.0)]
