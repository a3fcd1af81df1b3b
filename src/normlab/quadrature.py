"""Quadrature kernels: panelized Gauss-Legendre, tanh-sinh, power-law
tail completion, and a vectorized complex generalized exponential
integral.

Every routine here is pure and vectorized over numpy arrays; integrands are
expected to accept an ndarray of abscissae and return an ndarray of values.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np
from scipy.special import gamma as _gamma

from .errors import AccuracyNotReached

DEFAULT_TOL = float(os.environ.get("NORMLAB_TOL", "1e-8"))


@functools.lru_cache(maxsize=64)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_panels(a: float, b: float, n_panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = _gl_rule(order)
    edges = np.linspace(a, b, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@functools.lru_cache(maxsize=32)
def tanh_sinh_rule(level: int = 7, t_max: float = 5.0, new_only: bool = False):
    """Double-exponential rule on (-1, 1) in endpoint-offset form.

    Returns (delta, w, side): each node sits at distance ``delta`` from
    the endpoint indicated by ``side`` (-1: left, +1: right), i.e. at
    x = side * (1 - delta).  Keeping the offset instead of the position
    preserves nodes down to delta ~ 1e-100, which plain float positions
    cannot represent; this is what lets x^{-0.9}-type singularities
    integrate to full precision.  ``level`` sets the mesh
    h = t_max / 2**level over [-t_max, t_max].

    Levels are nested: level l holds every node of level l-1 (with half
    its weight) plus the odd multiples of h.  ``new_only`` returns just
    those odd nodes, so that Q_l = Q_{l-1} / 2 + (sum over new nodes).
    """
    h = t_max / 2 ** level
    k = np.arange(-2 ** level, 2 ** level + 1)
    if new_only:
        k = k[k % 2 != 0]
    t = k * h
    z = 0.5 * np.pi * np.sinh(t)
    delta = 2.0 / (1.0 + np.exp(2.0 * np.abs(z)))  # = 1 - |tanh z|
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(z) ** 2
    side = np.where(t < 0, -1.0, 1.0)
    keep = w > 1e-300
    return delta[keep], w[keep], side[keep]


def tanh_sinh_map(a, b, level=7, new_only=False):
    """Nodes/weights of the tanh-sinh rule mapped to (a, b).

    Node positions are assembled from the endpoint offsets, so nodes
    adjacent to ``a`` (or ``b``) keep full relative precision whenever the
    corresponding endpoint is exactly representable (e.g. a = 0).
    ``new_only`` as in :func:`tanh_sinh_rule`."""
    delta, w, side = tanh_sinh_rule(level, new_only=new_only)
    half = 0.5 * (b - a)
    x = np.where(side < 0, a + half * delta, b - half * delta)
    return x, half * w


def tanh_sinh_integrate(f, a, b, level=7):
    """Integral of f over (a, b) by tanh-sinh; endpoints are never sampled.r"""
    x, w = tanh_sinh_map(a, b, level)
    return np.sum(w * f(x))


# ---------------------------------------------------------------------------
# Oscillatory finite-range integrals: \int_{-X}^{X} f(x) e^{-i omega x} dx
# ---------------------------------------------------------------------------

def oscillatory_nodes(x_lo: float, x_hi: float, omega_eff: float,
                      points_per_radian: float = 3.0, order: int = 16):
    """Composite GL nodes sized so each panel spans <= ~3 radians of the
    fastest oscillation present (|omega_eff|)."""
    span = x_hi - x_lo
    n_panels = max(4, int(math.ceil(span * (abs(omega_eff) + 1.0)
                                    * points_per_radian / (2 * order))) * 2)
    return gauss_panels(x_lo, x_hi, n_panels, order)


def oscillatory_integral(f, x_lo, x_hi, omega, extra_freq=0.0):
    r"""\int f(x) e^{-i omega x} dx over [x_lo, x_hi] with error estimate.

    ``extra_freq`` adds intrinsic oscillation of f itself to the panel
    sizing (e.g. a K-type phase of weight m contributes |m|).
    """
    om = abs(omega) + abs(extra_freq)
    nodes, weights = oscillatory_nodes(x_lo, x_hi, om)
    fx = f(nodes)
    val = np.sum(weights * fx * np.exp(-1j * omega * nodes))
    # error estimate from a lower-order rule on the same panels
    nodes8, weights8 = oscillatory_nodes(x_lo, x_hi, om, order=8)
    val8 = np.sum(weights8 * f(nodes8) * np.exp(-1j * omega * nodes8))
    return val, abs(val - val8)


# ---------------------------------------------------------------------------
# Generalized exponential integral E_s(z), complex order, Re(z) >= 0
# ---------------------------------------------------------------------------

_EULER = 0.5772156649015328606


def _expint_series(s, z, kmax=60):
    """E_s(z) = Gamma(1-s) z^{s-1} - sum_k (-z)^k / (k! (1-s+k)); s not int."""
    out = _gamma(1.0 - s) * np.power(z, s - 1.0)
    term = np.ones_like(z)
    acc = term / (1.0 - s)
    for k in range(1, kmax):
        term = term * (-z) / k
        acc = acc + term / (1.0 - s + k)
    return out - acc


def _expint_e1_series(z, kmax=60):
    acc = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(1, kmax):
        term = term * (-z) / k
        acc = acc - term / k
    return -_EULER - np.log(z) + acc


def _expint_int_recurrence(n, z):
    """E_n(z) for integer n >= 1 by upward recurrence from E_1."""
    e = _expint_e1_series(z)
    ez = np.exp(-z)
    for m in range(1, n):
        e = (ez - z * e) / m
    return e


def _expint_cf(s, z, iters=200):
    """Modified Lentz continued fraction, good for |z| > 2 or Re(z) > 1
    (about 150 iterations at most there when |Im s| <= 5)."""
    tiny = 1e-290
    b = z + s
    c = np.full_like(z, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, iters):
        a = -i * (s + i - 1.0)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        if i % 8 == 0 and np.max(np.abs(delta - 1.0)) < 1e-15:
            break
    return np.exp(-z) * h


def expint(s, z):
    r"""E_s(z) = \int_1^inf e^{-z t} t^{-s} dt, vectorized over z.

    Supports complex order s and complex z with Re(z) >= 0; z = 0 requires
    Re(s) > 1 and returns 1/(s-1).

    The power series serves Re(z) <= 1 with |z| <= max(2, 0.4 |Im s|),
    the continued fraction the rest.  Farther out the series cancels
    (E_{10.25}(7.9) lost 7 digits to it); closer in the fraction
    converges slowly, the more so on the imaginary axis and at large
    |Im s|.  For real s in [0.25, 60] and z on either axis with
    |z| <= 60 the relative error is below 1e-13.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    zero = np.abs(z) == 0.0
    if np.any(zero):
        if np.real(s) <= 1.0:
            raise ValueError("E_s(0) diverges for Re(s) <= 1")
        out[zero] = 1.0 / (s - 1.0)
    radius = max(2.0, 0.4 * abs(complex(s).imag))
    large = (~zero) & ((np.abs(z) > radius) | (z.real > 1.0))
    small = (~zero) & ~large
    if np.any(small):
        sr = complex(s)
        if abs(sr.imag) < 1e-12 and abs(sr.real - round(sr.real)) < 1e-9 \
                and round(sr.real) >= 1:
            out[small] = _expint_int_recurrence(int(round(sr.real)), z[small])
        else:
            out[small] = _expint_series(s, z[small])
    if np.any(large):
        out[large] = _expint_cf(complex(s), z[large])
    return out[0] if scalar else out


def fit_powerlaw_tail(f, A, direction="upper", ratio=1.6, n_probe=4):
    r"""Estimate \int_A^inf f (or \int_0^A for 'lower') assuming f ~ C x^p.

    Fits p from probe samples; returns (tail_estimate, reliability_error).
    For 'lower', assumes f ~ C x^p near 0 and returns \int_0^A.
    """
    if direction == "upper":
        xs = A * ratio ** np.arange(n_probe)
    else:
        xs = A / ratio ** np.arange(n_probe)
    ys = np.array([float(np.real(f(np.array([x]))[0])) for x in xs])
    if np.any(ys <= 0):
        return 0.0, float(np.max(np.abs(ys)) * A)
    p = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    C = ys[0] / xs[0] ** p
    if direction == "upper":
        if p >= -1.001:
            raise AccuracyNotReached(
                f"tail exponent {p:.3f} too shallow to complete", achieved=None)
        est = -C * A ** (p + 1.0) / (p + 1.0)
    else:
        if p <= -0.999:
            raise AccuracyNotReached(
                f"head exponent {p:.3f} not integrable", achieved=None)
        est = C * A ** (p + 1.0) / (p + 1.0)
    # reliability: spread of local exponent over the probe window
    local = np.diff(np.log(ys)) / np.diff(np.log(xs))
    err = float(abs(est) * (np.max(local) - np.min(local)))
    return float(est), err
