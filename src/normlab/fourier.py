r"""Fourier analysis on R and on the circle.

Convention (global): F[v](xi) = \int v(x) exp(-2 pi i x xi) dx.

Transforms of principal-series vectors decay like (1+x^2)^{-(1+u0)/2}
with u0 < 1, so the integral converges only conditionally.  The engine
splits at |x| = X, integrates the finite part with oscillation-aware
panels, and completes both tails with the exact asymptotic series of the
integrand written against generalized exponential integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegrableExponent, NotIntegrable, ZeroFrequency
from .principal import CayleySum, SmoothVector
from .quadrature import (DEFAULT_TOL, _gl_rule, expint, gauss_panels,
                         oscillatory_integral)

TWO_PI = 2.0 * math.pi


def _as_cayley(v):
    if isinstance(v, SmoothVector):
        return v.sampler
    if isinstance(v, CayleySum):
        return v
    return None


def _split_radius(tol: float) -> float:
    return 25.0 if tol >= 1e-6 else 40.0


_MAX_TAIL_ORDER = 60


def _tail_order(cs: CayleySum, X: float, tol: float):
    """(J, bound): the number of asymptotic terms to keep past |x| = X
    and the size of the first omitted one.  J starts from a tol-based
    floor and rises until that bound is below tol times the sampler's
    scale.  The bound grows with the K-type weight (at X = 40, J = 10:
    7e-12 at weight 16, 3e-3 at weight 128), so high weights need more
    terms."""
    J = 8 if tol >= 1e-6 else 10
    scale = sum(abs(c) for c in cs.terms.values())
    bound = _tail_bound(cs, X, J)
    while J < _MAX_TAIL_ORDER and bound > tol * scale:
        J += 1
        bound = _tail_bound(cs, X, J)
    return J, bound


def fourier_transform(v, xi: float, tol: float = None):
    """F[v](xi) for a CayleySum / SmoothVector or a rapidly decaying
    callable.  Returns a complex value; raises NotIntegrable when the
    integral genuinely diverges (xi = 0 with decay exponent <= 1)."""
    val, err, _ = fourier_transform_batch(v, np.array([float(xi)]), tol,
                                          return_err=True)
    return val[0]


def fourier_transform_batch(v, xis, tol: float = None, return_err: bool = False):
    """Vectorized F[v] over an array of frequencies.

    Returns (values, max_error_estimate, meta) when return_err, else values.
    """
    tol = DEFAULT_TOL if tol is None else tol
    xis = np.asarray(xis, dtype=float)
    cs = _as_cayley(v)
    if cs is None:
        vals, err = _transform_generic(v, xis, tol)
    else:
        vals, err = _transform_cayley(cs, xis, tol)
    if return_err:
        return vals, err, {"tol": tol}
    return vals


def _transform_cayley(cs: CayleySum, xis, tol):
    X = _split_radius(tol)
    J, tail_b = _tail_order(cs, X, tol)
    if np.any(xis == 0.0) and cs.min_decay <= 1.0 + 1e-12:
        raise NotIntegrable(
            f"F[v](0) diverges: decay exponent {cs.min_decay:.3f} <= 1")
    up = cs.asymptotic("upper", J)
    lo = cs.asymptotic("lower", J)
    mw = cs.max_weight
    out = np.empty(xis.shape, dtype=complex)
    max_err = 0.0

    # the integrand extends to poles at x = +-i, so |F[v](xi)| decays
    # like e^{-2 pi |xi|}; frequencies whose value is provably far below
    # tol^2 are returned as 0 with the bound folded into the error
    thresh = max(50.0, 4.0 * math.log(1.0 / tol)) + mw
    live = TWO_PI * np.abs(xis) < thresh
    if not np.all(live):
        out[~live] = 0.0
        scale = sum(abs(c) for c in cs.terms.values())
        dead_err = scale * math.exp(-thresh + mw)
        if np.any(live):
            out[live], max_err = _transform_cayley(cs, xis[live], tol)
            return out, max(max_err, dead_err)
        return out, dead_err

    # group frequencies into octaves so node sets are shared
    order_idx = np.argsort(np.abs(xis))
    sorted_xis = xis[order_idx]
    bins = {}
    for pos, xi in enumerate(sorted_xis):
        key = int(np.ceil(np.log2(max(abs(TWO_PI * xi) + mw, 1.0))))
        bins.setdefault(key, []).append(pos)

    sorted_vals = np.empty(sorted_xis.shape, dtype=complex)
    for key, positions in bins.items():
        positions = np.array(positions)
        oms = TWO_PI * sorted_xis[positions]
        om_max = np.max(np.abs(oms)) + mw
        span = 2.0 * X
        # panel width <= 2 regardless of omega: the integrand always has
        # poles at x = +-i, which caps the convergence radius of wide panels
        n_panels = max(int(math.ceil(span / 2.0)),
                       int(math.ceil(span * (om_max + 1.0) * 3.0 / 32.0)))
        # equal panels: e^{-i om (mid_k + h x_j)} = e^{-i om mid_k}
        # e^{-i om h x_j}, so n_panels + 16 exponentials per frequency
        # replace 16 n_panels
        x16, w16 = _gl_rule(16)
        h = X / n_panels
        mids = -X + h * (2.0 * np.arange(n_panels) + 1.0)
        nodes = mids[:, None] + h * x16[None, :]
        gv = h * w16 * cs(nodes)
        for c0 in range(0, len(oms), 64):
            om = oms[c0:c0 + 64]
            inner = np.exp(-1j * np.outer(om, h * x16)) @ gv.T
            sorted_vals[positions[c0:c0 + 64]] = np.sum(
                np.exp(-1j * np.outer(om, mids)) * inner, axis=1)
        # error representative: worst (largest-omega) frequency in the bin
        rep = int(np.argmax(np.abs(oms)))
        nodes8, weights8 = gauss_panels(-X, X, n_panels, 12)
        core = np.sum(gv * np.exp(-1j * oms[rep] * nodes))
        core8 = np.sum(weights8 * cs(nodes8) * np.exp(-1j * oms[rep] * nodes8))
        max_err = max(max_err, abs(core - core8) + tail_b)
    # tails in one vectorized sweep across every frequency
    sorted_vals += _cayley_tails(up, lo, X, TWO_PI * sorted_xis)
    out[order_idx] = sorted_vals
    return out, max_err


def _cayley_tails(up, lo, X, oms):
    """Asymptotic-tail contribution for every frequency at once."""
    vals = np.zeros(oms.shape, dtype=complex)
    for c, s in up:
        vals += c * X ** (1.0 - complex(s)) * expint(s, 1j * oms * X)
    for c, s in lo:
        vals += c * X ** (1.0 - complex(s)) * expint(s, -1j * oms * X)
    return vals


def _tail_bound(cs: CayleySum, X: float, J: int) -> float:
    # first omitted asymptotic terms (order J), integrated in absolute value
    cut = cs.min_decay + J - 0.5
    total = 0.0
    for side in ("upper", "lower"):
        for c, s in cs.asymptotic(side, J + 1):
            sr = complex(s).real
            if sr >= cut:
                total += abs(c) * X ** (1.0 - sr) / max(sr - 1.0, 0.5)
    return total


def _transform_generic(v, xis, tol):
    # probe decay to choose the truncation radius
    X = 10.0
    while X <= 640.0:
        probe = np.max(np.abs(v(np.array([-X, X]))))
        if probe < tol * 1e-2:
            break
        X *= 2.0
    else:
        raise NotIntegrable(
            "sampler decays too slowly for plain truncation; "
            "provide a CayleySum with asymptotic data")
    out = np.empty(xis.shape, dtype=complex)
    max_err = 0.0
    for i, xi in enumerate(xis):
        val, err = oscillatory_integral(v, -X, X, TWO_PI * xi)
        out[i] = val
        max_err = max(max_err, err + probe * X)
    return out, max_err


def regularized_pairing(n: float, v, tol: float = None):
    r"""< exp(2 pi i n x), v > for nonzero n, interpreted through
    integration by parts: -(1/(2 pi i n)) \int exp(2 pi i n x) v'(x) dx.

    ``v`` may be a SmoothVector/CayleySum (exact derivative) or a pair
    (sampler, derivative_sampler) of callables.
    """
    if n == 0:
        raise ZeroFrequency("n = 0: constant term excluded for cuspidal data")
    cs = _as_cayley(v)
    if cs is not None:
        dv = cs.derivative()
    elif isinstance(v, tuple) and len(v) == 2:
        dv = v[1]
    else:
        raise TypeError("need CayleySum/SmoothVector or (v, dv) pair")
    # \int e^{2 pi i n x} v'(x) dx = F[v'](-n)
    fd = fourier_transform(dv, -n, tol)
    return -fd / (TWO_PI * 1j * n)


# ---------------------------------------------------------------------------
# Fourier series of |sin theta|^s and sgn(sin theta)|sin theta|^s
# ---------------------------------------------------------------------------

@dataclass
class FourierSeriesTable:
    """Coefficient table of a periodic multiplier.

    ``coeffs`` is keyed by the actual harmonic index (even 2k for the
    period-pi multipliers, odd 2k-1 for the sign-twisted ones).
    """

    exponent: complex
    coeffs: dict
    parity_shift: str  # "even" or "odd-signed"
    errors: dict = field(default_factory=dict)

    def decay_constant(self) -> float:
        """sup |a_j| sqrt(1 + (j/2)^2) over the table."""
        return max(abs(c) * math.sqrt(1.0 + (j / 2.0) ** 2)
                   for j, c in self.coeffs.items())

    def reconstruct(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        for j, c in self.coeffs.items():
            out = out + c * np.exp(1j * j * theta)
        return out


def _check_exponent(s):
    if complex(s).real <= -1.0:
        raise NonIntegrableExponent(f"Re(s) = {complex(s).real} <= -1")


def sin_power_series(s: complex, K: int, samples: int = 2 ** 14,
                     richardson: bool = True) -> FourierSeriesTable:
    """Fourier coefficients a_{2k} of |sin theta|^s = sum a_{2k} e^{2ik theta}.

    Midpoint FFT sampling on (0, pi) with a doubled-resolution Richardson
    check; declared per-coefficient error = |a_N - a_{2N}|.
    """
    _check_exponent(s)

    def coeffs_at(N):
        theta = math.pi * (np.arange(N) + 0.5) / N
        f = np.exp(complex(s) * np.log(np.sin(theta)))
        F = np.fft.fft(f) / N
        out = {}
        for k in range(-K, K + 1):
            out[2 * k] = F[k % N] * np.exp(-1j * math.pi * k / N)
        return out

    a = coeffs_at(samples)
    errs = {}
    if richardson:
        a2 = coeffs_at(2 * samples)
        errs = {j: abs(a[j] - a2[j]) for j in a}
        a = a2
    return FourierSeriesTable(complex(s), a, "even", errs)


def signed_sin_power_series(s: complex, K: int, samples: int = 2 ** 14,
                            richardson: bool = True) -> FourierSeriesTable:
    """Odd-harmonic coefficients b_{2k-1} of sgn(sin theta)|sin theta|^s
    = sum b_{2k-1} e^{i(2k-1) theta} over the full period 2 pi."""
    _check_exponent(s)

    def coeffs_at(N):
        # 2N midpoint samples over (0, 2 pi)
        theta = TWO_PI * (np.arange(2 * N) + 0.5) / (2 * N)
        st = np.sin(theta)
        f = np.sign(st) * np.exp(complex(s) * np.log(np.abs(st)))
        F = np.fft.fft(f) / (2 * N)
        out = {}
        for k in range(-K + 1, K + 1):
            r = 2 * k - 1
            out[r] = F[r % (2 * N)] * np.exp(-1j * math.pi * r / (2 * N))
        return out

    b = coeffs_at(samples)
    errs = {}
    if richardson:
        b2 = coeffs_at(2 * samples)
        errs = {j: abs(b[j] - b2[j]) for j in b}
        b = b2
    return FourierSeriesTable(complex(s), b, "odd-signed", errs)


def series_coefficient_quadrature(s: complex, j: int, level: int = 10):
    r"""Independent single-coefficient oracle by direct quadrature:
    (1/pi) \int_0^pi sin^s(theta) e^{-i j theta} d theta.

    Valid for both tables -- even j gives a_{j} of |sin|^s, odd j gives
    b_{j} of the sign-twisted multiplier (the (pi, 2pi) half contributes
    the same amount for odd j, and cancels for even).  tanh-sinh handles
    the endpoint singularities for Re(s) < 0."""
    from .quadrature import tanh_sinh_integrate
    _check_exponent(s)

    def f(theta):
        return np.exp(complex(s) * np.log(np.sin(theta))) \
            * np.exp(-1j * j * theta)

    return tanh_sinh_integrate(f, 0.0, math.pi, level) / math.pi
