"""Quadrature kernels: panelized Gauss-Legendre, Gauss-Jacobi, tanh-sinh,
the doubling rule that carries every a-integral to infinity
(``outward``), a vectorized complex generalized exponential integral, the
complex Gamma and log-Gamma functions, and the exact power-series tail
``power_tail`` that completes ``norms.intertwine_pair``; also the package's
constants TWO_PI and BERNOULLI and its working tolerance
(``resolve_tol``).

Every routine here is pure and vectorized over numpy arrays; integrands are
expected to accept an ndarray of abscissae and return an ndarray of values.
"""

from __future__ import annotations

import cmath
import functools
import math
import os

import numpy as np

from .errors import AccuracyNotReached, ConfigInvalid, DivergentIntegral

TWO_PI = 2.0 * math.pi
OUTWARD_DOUBLINGS = 96  # outward's reach: a factor 2^96, about 8e28
# B_2, B_4, ..., B_16: the Stirling series of loggamma and the
# Euler-Maclaurin corrections of coeffs.zeta
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
             -3617 / 510)


def resolve_tol(tol=None) -> float:
    """The working tolerance: ``tol``, or when it is None the environment
    variable NORMLAB_TOL (default 1e-8).  Raises ConfigInvalid, naming
    the variable, unless it is a number in (0, 1)."""
    name = "tol"
    if tol is None:
        name, tol = "NORMLAB_TOL", os.environ.get("NORMLAB_TOL", "1e-8")
        try:
            tol = float(tol)
        except ValueError:
            pass  # left a string, rejected below
    if not isinstance(tol, (int, float)) or not 0.0 < tol < 1.0:
        raise ConfigInvalid(f"{name} must be a number in (0, 1), got {tol!r}")
    return tol


@functools.lru_cache(maxsize=64)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_rule(lo, hi, order: int = 16):
    """Nodes and weights of Gauss-Legendre panels [lo[k], hi[k]], panel
    by panel in the order given."""
    x, w = _gl_rule(order)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mids, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return ((mids[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^alpha (1 + x)^beta on (-1, 1), alpha, beta > -1, by Golub &
    Welsch (Math. Comp. 23 (1969)): the nodes are the eigenvalues of the
    Jacobi matrix, and each weight is the weight's total mass times the
    squared first component of its eigenvector.  Against a 40-digit
    oracle at n in {16, 24}, alpha = 0 and beta = u - 1, u in [0.05,
    1.5]: nodes within 7e-16, weights within 7e-14 relative."""
    k = np.arange(1, n)
    ab = alpha + beta
    s = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta ** 2 - alpha ** 2) / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + ab)
                  / (s ** 2 * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                            + np.diag(off, -1))
    mass = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) \
        * math.gamma(beta + 1.0) / math.gamma(ab + 2.0)
    return x, mass * vec[0] ** 2


def split_panels(lo, hi, n):
    """Edges of n[k] equal panels on each interval [lo[k], hi[k]], interval
    by interval, as arrays (panel lo, panel hi, interval index); the last
    panel of an interval ends at hi[k] exactly."""
    owner = np.repeat(np.arange(len(n)), n)
    i = np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)
    step = (hi - lo)[owner] / n[owner]
    p_lo = lo[owner] + i * step
    return p_lo, np.where(i + 1 == n[owner], hi[owner], p_lo + step), owner


def gauss_panels(a: float, b: float, n_panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    return gauss_rule(edges[:-1], edges[1:], order)


def outward(chunk, lo, hi, tol):
    """chunk(lo, hi) plus chunk(hi, 2 hi), chunk(2 hi, 4 hi), ... until one
    piece adds less than 1e-3 tol of the total; never a truncated sum.
    After OUTWARD_DOUBLINGS pieces it raises DivergentIntegral if the last
    16 add no less than the 16 before (to 1e-9), else AccuracyNotReached
    (``achieved``: the last 16's share).  Windows of 16 doublings judge a
    log-periodic integrand (a^{i lambda}) by its trend, not its phase."""
    total, pieces = chunk(lo, hi), []
    for _ in range(OUTWARD_DOUBLINGS):
        piece = chunk(hi, 2.0 * hi)
        total += piece
        hi *= 2.0
        if abs(piece) < 1e-3 * tol * max(abs(total), 1e-300):
            return total
        pieces.append(piece)
    last, before = abs(sum(pieces[-16:])), abs(sum(pieces[-32:-16]))
    at = f"at a = {hi:.3g}: its last 16 doublings added {last:.3g}"
    if last >= (1.0 - 1e-9) * before:
        raise DivergentIntegral(
            f"the a-integral still grows {at}, the 16 before {before:.3g}")
    raise AccuracyNotReached(f"the a-integral has not converged {at} to "
                             f"{total:.6g}", last / max(abs(total), 1e-300))


@functools.lru_cache(maxsize=32)
def tanh_sinh_rule(level: int = 7, new_only: bool = False):
    """Double-exponential rule on (-1, 1) in endpoint-offset form.

    Returns (delta, w, side): each node sits at distance ``delta`` from
    the endpoint indicated by ``side`` (-1: left, +1: right), i.e. at
    x = side * (1 - delta).  Keeping the offset instead of the position
    preserves nodes down to delta ~ 1e-100, which plain float positions
    cannot represent; this is what lets x^{-0.9}-type singularities
    integrate to full precision.  ``level`` sets the mesh
    h = 5 / 2**level over [-5, 5].

    Levels are nested: level l holds every node of level l-1 (with half
    its weight) plus the odd multiples of h.  ``new_only`` returns just
    those odd nodes, so that Q_l = Q_{l-1} / 2 + (sum over new nodes).
    """
    h = 5.0 / 2 ** level
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


# ---------------------------------------------------------------------------
# Gamma and log Gamma, complex argument
# ---------------------------------------------------------------------------

# Lanczos (SIAM J. Numer. Anal. B 1 (1964)), g = 607/128, 15 terms:
# Gamma(w + 1) = sqrt(2 pi) t^(w + 1/2) e^-t (c_0 + sum_k c_k / (w + k)),
# t = w + g + 1/2
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = np.array([
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5])
# B_2k / (2k (2k - 1)), k = 8, 7, ..., 1: Stirling's series in 1/z^2
_STIRLING = tuple(b / (2 * k * (2 * k - 1))
                  for k, b in reversed(list(enumerate(BERNOULLI, 1))))
# (-1)^k zeta(k) / k, k = 23, 22, ..., 2, and -Euler's gamma: the Taylor
# series log Gamma(1 + x) = sum_k (-1)^k zeta(k) x^k / k, |x| <= 0.2
_LOG_GAMMA_TAYLOR = (
    -0.04347826605304026, 0.04545455629320467, -0.047619070330142226,
    0.05000004769810169, -0.05263167937961666, 0.055555767627403614,
    -0.058823978658684585, 0.06250095514121304, -0.06666870588242046,
    0.07143294629536133, -0.0769325164113522, 0.083353840546109,
    -0.09095401714582904, 0.1000994575127818, -0.11133426586956469,
    0.12550966952474304, -0.1440498967688461, 0.1695571769974082,
    -0.20738555102867398, 0.27058080842778454, -0.40068563438653143,
    0.8224670334241132, -0.5772156649015329)


def _sinpi(z):
    """sin(pi z) elementwise, with Re z reduced mod 2 exactly first, so
    that it is an exact zero at the integers and keeps its relative
    precision near them."""
    x, y = z.real, np.pi * z.imag
    r = x - 2.0 * np.round(0.5 * x)  # in [-1, 1], exact
    a = np.abs(r)
    out = np.empty_like(z)  # parts set apart, keeping the sign of a zero
    out.real = np.copysign(np.sin(np.pi * np.minimum(a, 1.0 - a)), r) \
        * np.cosh(y)
    out.imag = np.cos(np.pi * r) * np.sinh(y)
    return out


def gamma(z):
    """Gamma(z) elementwise over complex z: the Lanczos sum for Re z >= 1/2,
    reflection pi / (sin(pi z) Gamma(1 - z)) below, nan at the poles.
    Measured against mpmath: within 20 eps for |z| < 7, 246 eps for |Re z|
    <= 60, |Im z| <= 30, and 383 eps on the negative non-integer reals
    down to -99, where Gamma's condition number |z psi(z)| reaches 460."""
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    left = z.real < 0.5
    w = np.where(left, -z, z - 1.0)
    t = w + (_LANCZOS_G + 0.5)
    series = _LANCZOS[0] + np.sum(
        _LANCZOS[1:] / (w[:, None] + np.arange(1.0, len(_LANCZOS))), 1)
    out = math.sqrt(TWO_PI) * series * np.exp((w + 0.5) * np.log(t) - t)
    if np.any(left):
        with np.errstate(divide="ignore", invalid="ignore"):
            out[left] = np.pi / (_sinpi(z[left]) * out[left])
        out[left & (z.real == np.floor(z.real)) & (z.imag == 0.0)] = \
            complex(math.nan, math.nan)
    return out.reshape(shape)[()]


def _log_gamma_stirling(z):
    rz = 1.0 / z
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(TWO_PI) \
        + rz * np.polyval(_STIRLING, rz * rz)


def loggamma(z):
    """log Gamma(z) at a complex scalar z, the branch analytic off the
    negative real axis (mpmath's), nan at the poles.  Stirling's series
    for Re z > 7 or |Im z| > 7; Taylor series at z = 1 and z = 2 (exact
    zeros there); reflection for Re z < 0; otherwise the shift recurrence
    up to Re z > 7, with the shift product's modulus and its summed
    argument kept apart so that the branch stays analytic.  Measured
    against mpmath: within 17 eps max(1, |log Gamma|) for Re z in (0,
    100], |Im z| <= 50, and within 4 eps for Re z in [-60, 0)."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        return complex(math.nan, math.nan)
    if z.real > 7.0 or abs(z.imag) > 7.0:
        return _log_gamma_stirling(z)
    if abs(z - 1.0) <= 0.2:
        return (z - 1.0) * np.polyval(_LOG_GAMMA_TAYLOR, z - 1.0)
    if abs(z - 2.0) <= 0.2:
        return cmath.log(z - 1.0) \
            + (z - 2.0) * np.polyval(_LOG_GAMMA_TAYLOR, z - 2.0)
    if z.real < 0.0:
        # reflection, its 2 pi i multiple as in Hare, J. Algorithms 25 (1997)
        turn = math.copysign(TWO_PI, z.imag) * math.floor(0.5 * z.real
                                                          + 0.25)
        return complex(math.log(math.pi), turn) \
            - cmath.log(complex(_sinpi(np.asarray(z)))) - loggamma(1.0 - z)
    modulus, arg = 1.0, 0.0
    while z.real <= 7.0:
        modulus, arg = modulus * abs(z), arg + math.atan2(z.imag, z.real)
        z += 1.0
    return _log_gamma_stirling(z) - complex(math.log(modulus), arg)


# ---------------------------------------------------------------------------
# Generalized exponential integral E_s(z), complex order, Re(z) >= 0
# ---------------------------------------------------------------------------

# 1/14, 1/13, ..., 1: log(1 + x)/x = sum_k (-x)^k / (k + 1), |x| <= 0.05
_LOG1P_OVER_X = 1.0 / np.arange(14.0, 0.0, -1.0)
_NEAR_INTEGER = 0.05


def _power_sum(s, z, skip=None):
    """sum_{k >= 0} (-z)^k / (k! (1 - s + k)), the term k = ``skip`` (an
    array) left out, summed until every element's term is below 1e-17 of
    its sum; the test reads a left-out term, whose denominator may be 0,
    as its numerator."""
    term, acc = np.ones_like(z), np.zeros_like(z)
    for k in range(400):
        d = 1.0 - s + k
        add = term / (d if skip is None else np.where(skip == k, 1.0, d))
        acc = acc + (add if skip is None else np.where(skip == k, 0.0, add))
        if np.all(np.abs(add) <= 1e-17 * np.abs(acc)):
            return acc
        term = term * (-z) / (k + 1)
    raise AccuracyNotReached("expint power series did not converge")


def _expint_series(s, z):
    """E_s(z) = Gamma(1-s) z^{s-1} - sum_k (-z)^k / (k! (1-s+k)).  Within
    0.05 of an integer n >= 1, Gamma(1-s) z^{s-1} and the term k = n-1
    cancel as s -> n; the pair is taken as one, -(-z)^{n-1}/(n-1)!
    expm1(eps h)/eps with eps = s - n and h = log z - log Gamma(1-eps)/eps
    - sum_{j<n} log(1 + eps/j)/eps, each logarithm by its series in eps,
    and -(-z)^{n-1}/(n-1)! h at eps = 0, where h = log z - psi(n)."""
    n = np.rint(s.real)
    near = (n >= 1) & (np.abs(s - n) <= _NEAR_INTEGER)
    out = np.empty_like(z)
    if np.any(near):
        sn, zn, nn = s[near], z[near], n[near]
        eps = sn - nn
        # (-z)^{n-1}/(n-1)! and sum_{j<n} log(1 + eps/j)/eps
        lead, harm = np.ones_like(zn), np.zeros_like(zn)
        for j in range(1, int(nn.max())):
            inside = j < nn
            lead = np.where(inside, lead * -zn / j, lead)
            harm = np.where(inside, harm + np.polyval(
                _LOG1P_OVER_X, -eps / j) / j, harm)
        h = np.log(zn) - np.polyval(_LOG_GAMMA_TAYLOR, -eps) - harm
        at = eps == 0.0
        out[near] = -lead * np.where(at, h, np.expm1(eps * h) / np.where(
            at, 1.0, eps)) - _power_sum(sn, zn, skip=nn - 1)
    if not np.all(near):
        sr, zr = s[~near], z[~near]
        out[~near] = gamma(1.0 - sr) * np.power(zr, sr - 1.0) \
            - _power_sum(sr, zr)
    return out


def _expint_cf(s, z):
    """Modified Lentz continued fraction (Thompson & Barnett 1986), good
    for |z| > 2 or Re(z) > 1.  Each element retires once its factor is
    within 1e-15 of 1, so a batch costs the sum of its elements'
    iterations, not its slowest element's times the batch size."""
    out, idx = np.empty_like(z), np.arange(len(z))
    b = z + s
    c = np.full_like(z, 1.0 / 1e-290)  # 1 / tiny
    d = h = 1.0 / b
    for i in range(1, 1000):
        a = -i * (s + (i - 1.0))
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        if i % 8 == 0:
            done = np.abs(delta - 1.0) < 1e-15
            if np.any(done):
                out[idx[done]] = h[done]
                idx, s, b, c, d, h = (v[~done] for v in (idx, s, b, c, d, h))
            if not len(idx):
                return np.exp(-z) * out
    raise AccuracyNotReached("expint continued fraction did not converge")


def expint(s, z):
    r"""E_s(z) = \int_1^inf e^{-z t} t^{-s} dt, elementwise over complex
    orders ``s`` and arguments ``z`` (Re(z) >= 0) broadcast together; z = 0
    requires Re(s) > 1 and returns 1/(s-1).

    The continued fraction serves |z| > 2 or Re(z) > 1, the power series
    the rest, and also |z| <= 0.4 |Im s| on the imaginary axis opposite
    Im s, where the fraction converges to a wrong value; either runs only
    on a nonempty set.  For real s in [0.25, 60] and z on either axis
    with |z| <= 60 the relative error is below 1.2e-13: measured against
    mpmath at orders 0.05 to 0.5 from n = 1 ... 60, the worst is 1.15e-13
    at E_{1.9}(1.0).  Within 0.05 of an integer order, integers included,
    the series takes its cancelling pair as one expression
    (``_expint_series``; measured against mpmath there at |s - n| = 0 to
    0.05, n in {1, 2, 3, 4, 6, 10, 25, 60} and |z| <= 1.99 on both axes
    and the real one: within 1e-14).  Mapped against mpmath over Re(s) in
    [0.25, 60], |Im s| <= 120 and |z| <= 60 on both axes, it is below
    1e-12 except where Im(s) Im(z) < 0, |Im s| >= 16 and 8 <= |z| <= 0.8
    |Im s|: there the series cancels and the fraction is off too (8e-3 at
    |Im s| = 80), so the call raises AccuracyNotReached.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(z, dtype=complex))
    shape, s, z = z.shape, s.ravel(), z.ravel()
    out = np.empty_like(z)
    zero = z == 0.0
    if np.any(s[zero].real <= 1.0):
        raise ValueError("E_s(0) diverges for Re(s) <= 1")
    out[zero] = 1.0 / (s[zero] - 1.0)
    r, t = np.abs(z), np.abs(s.imag)
    opposite = s.imag * z.imag < 0.0
    off = opposite & (t >= 16.0) & (r >= 8.0) & (r <= 0.8 * t)
    if np.any(off):
        i = np.argmax(off)
        raise AccuracyNotReached(f"E_s(z) off domain: s={s[i]}, z={z[i]}")
    series = (r <= 2.0) | (opposite & (r <= 0.4 * t))
    large = (~zero) & (~series | (z.real > 1.0))
    small = (~zero) & ~large
    if np.any(small):
        out[small] = _expint_series(s[small], z[small])
    if np.any(large):
        out[large] = _expint_cf(s[large], z[large])
    return out.reshape(shape)[()]


def power_tail(f, X, beta):
    r"""\int_X^inf f for f(x) = x^{-(2+beta)} (a power series in 1/x) and
    an array-valued f: with x = X/s it is X \int_0^1 s^beta [f(X/s)
    s^{-2-beta}] ds, the bracket analytic in s, on the 16-point
    Gauss-Jacobi (0, beta) rule in s = (1+t)/2.  Raises DivergentIntegral
    for beta <= -1."""
    if beta <= -1.0:
        raise DivergentIntegral(f"the tail diverges: beta = {beta:g} <= -1")
    t, w = gauss_jacobi(16, 0.0, beta)
    s = 0.5 * (1.0 + t)
    return X * 2.0 ** (-1.0 - beta) * np.sum(w * f(X / s) * s ** (-2.0 - beta))
