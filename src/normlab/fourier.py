r"""Fourier analysis on R and on the circle.

Convention (global): F[v](xi) = \int v(x) exp(-2 pi i x xi) dx.

Transforms of principal-series vectors decay like (1+x^2)^{-(1+u0)/2}
with u0 < 1, so the integral converges only conditionally.  The engine
splits at |x| = X, sums the finite part on equal panels by one gridded
FFT, and completes both tails with the exact asymptotic series of the
integrand written against generalized exponential integrals.  When v(-x)
= conj v(x) (real exponents and coefficients), half the nodes suffice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyNotReached, NonIntegrableExponent, NotIntegrable,
                     ZeroFrequency)
from .principal import CayleySum, as_cayley
from .quadrature import (TWO_PI, _gl_rule, expint, loggamma, resolve_tol,
                         tanh_sinh_map)


def _split_radius(tol: float) -> float:
    return 25.0 if tol >= 1e-6 else 40.0


_MAX_TAIL_ORDER = 60


def _tail_order(cs: CayleySum, X: float, tol: float):
    """(J, bound, series): the number of asymptotic terms to keep past
    |x| = X, the size of the first omitted ones, and each side's
    asymptotic series (``CayleySum.asymptotic_series``, long enough for
    any J).  J starts from a tol-based floor and rises until that bound
    is below tol times the sampler's scale.  The bound grows with the
    K-type weight (at X = 40, J = 10: 7e-12 at weight 16, 3e-3 at weight
    128), so high weights need more terms.  The series is built once;
    the bound of each J reads its prefix.  Raises AccuracyNotReached
    (``achieved`` the bound) when J = _MAX_TAIL_ORDER still misses it."""
    series = {side: cs.asymptotic_series(side, _MAX_TAIL_ORDER + 1)
              for side in ("upper", "lower")}
    # terms of order >= min_decay + J - 0.5 among the first J + 1 of each
    # term, integrated in absolute value past X
    s0 = np.array([s for side in series.values() for s, _ in side])
    sr = s0.real[:, None] + np.arange(_MAX_TAIL_ORDER + 1)
    mag = (np.abs([a for side in series.values() for _, a in side])
           * X ** (1.0 - sr) / np.maximum(sr - 1.0, 0.5))

    def bound(J):
        head = sr[:, :J + 1]
        return float(np.sum(mag[:, :J + 1][head >= cs.min_decay + J - 0.5]))

    J = 8 if tol >= 1e-6 else 10
    scale = sum(abs(c) for c in cs.terms.values())
    b = bound(J)
    while J < _MAX_TAIL_ORDER and b > tol * scale:
        J += 1
        b = bound(J)
    if b > tol * scale:
        raise AccuracyNotReached(
            f"tail series past |x| = {X:g} misses tol at {_MAX_TAIL_ORDER} "
            f"terms: bound {b:.3g} > {tol * scale:.3g}", achieved=b)
    return J, b, series


# contour heights c of :func:`transform_bound`
_HEIGHTS = -np.expm1(-np.linspace(0.02, 8.0, 64))


def _logsum(e, axis):
    top = np.max(e, axis, keepdims=True)
    return np.squeeze(top, axis) + np.log(np.sum(np.exp(e - top), axis))


@functools.lru_cache(maxsize=256)
def _contour(terms):
    """(L, edge) for the CayleySum of ``terms``: L[0, i] bounds log \\int
    |v'(x - ic)| dx at c = _HEIGHTS[i], a term of v' being |(1+c+ix)^{-al}
    (1-c-ix)^{-be}|; L[1, i] on Im x = +c, al and be swapped.  A term goes
    on 32 Gauss-Legendre nodes in t, x = s sinh t, |t| <= 8, s = (1 - c) /
    sqrt(1 + w c) its peak's width at weight w; past R = s sinh 8 it is at
    most |x|^{-Re(al+be)} e^M, M the sum over al and be of max(0, -Re al)
    log(1 + 4/R^2) / 2 + |Im al| pi/2.  edge is :func:`live_edge`'s."""
    cs = CayleySum(dict(terms))
    d = cs.derivative().terms
    ab, lc = np.array(list(d)), np.log(np.abs(np.array(list(d.values()))))
    c = _HEIGHTS[:, None]
    s = (1.0 - c) / np.sqrt(1.0 + cs.max_weight * c)
    t, w = _gl_rule(32)
    x = s * np.sinh(8.0 * t)
    lz = np.log(np.stack([1.0 + c + 1j * x, 1.0 - c - 1j * x]))
    e = -np.einsum("skj,jcx->skcx", np.stack([ab, ab[:, ::-1]]), lz).real
    core = _logsum(e + np.log(8.0 * w * np.cosh(8.0 * t)), -1) + np.log(s.T)
    R, p = s.T * math.sinh(8.0), ab.sum(1).real[:, None]
    grow = (np.maximum(-ab.real[..., None] * np.log1p(4.0 / R ** 2) / 2, 0.0)
            + np.abs(ab.imag[..., None]) * (math.pi / 2)).sum(1)
    with np.errstate(divide="ignore"):
        tail = (1.0 - p) * np.log(R) - np.log(np.maximum(p - 1, 0) / 2) + grow
    L = _logsum(np.logaddexp(core, tail) + lc[:, None], 1)
    S = sum(abs(q) for _, q in terms)
    if S == 0.0:
        return L, math.inf
    # per c, the root z = 2 pi xi of c z + log z = D, by Newton from above
    D = np.clip(L - math.log(2.0 ** -52 * S), 0.0, 1e300)
    lz = np.log(np.maximum(D, 1.0) / _HEIGHTS)
    for _ in range(5):
        lz -= (_HEIGHTS * np.exp(lz) + lz - D) / (_HEIGHTS * np.exp(lz) + 1)
    return L, float(np.max(np.min(np.exp(lz), -1))) / TWO_PI


def transform_bound(cs: CayleySum, xis):
    """B(xi) >= |F[cs](xi)| at every nonzero xi of ``xis`` by a Paley-Wiener
    contour shift: integrate by parts, move the line to Im x = -c sign xi
    short of the poles at x = +-i, 0 < c < 1, and minimise over c of
    e^{-2 pi c |xi|} / (2 pi |xi|) \\int |cs'(x - ic sign xi)| dx."""
    xis = np.asarray(xis, dtype=float)
    L = _contour(tuple(cs.terms.items()))[0][(xis < 0).astype(int)]
    a = TWO_PI * np.abs(xis)
    return np.exp(np.min(L - a[..., None] * _HEIGHTS, -1)) / a


def live_edge(cs: CayleySum, tol: float = None) -> float:
    """The smallest |xi| past which :func:`transform_bound` is at most
    2^-52 sum |c| on both signs; :func:`fourier_transform_batch` returns
    exact zeros there, as accurate as any value it computes (any tol)."""
    return _contour(tuple(cs.terms.items()))[1]


def fourier_transform(v, xi: float, tol: float = None):
    """F[v](xi) for a CayleySum or SmoothVector (anything else raises
    TypeError).  Returns a complex value; raises NotIntegrable when the
    integral genuinely diverges (xi = 0 with decay exponent <= 1)."""
    return fourier_transform_batch(v, np.array([float(xi)]), tol)[0]


def fourier_transform_batch(v, xis, tol: float = None, return_err: bool = False):
    """Vectorized F[v] over an array of frequencies, 0 past ``live_edge``.

    Returns (values, max_error_estimate, meta) when return_err, else
    values.  The estimate is the largest change of the panel sum when the
    panels are halved, plus the tail bound and a rounding floor."""
    tol = resolve_tol(tol)
    xis = np.asarray(xis, dtype=float)
    cs = as_cayley(v)
    X = _split_radius(tol)
    J, tail_b, series = _tail_order(cs, X, tol)
    if np.any(xis == 0.0) and cs.min_decay <= 1.0 + 1e-12:
        raise NotIntegrable(
            f"F[v](0) diverges: decay exponent {cs.min_decay:.3f} <= 1")
    edge = live_edge(cs)
    live = np.abs(xis) < edge
    out = np.zeros(xis.shape, dtype=complex)
    err = 0.0 if np.all(live) else max(transform_bound(cs, [edge, -edge]))
    # each distinct frequency once
    oms, at = np.unique(TWO_PI * xis[live], return_inverse=True)
    if oms.size:
        # one panel grid for the call; panel width <= 2 regardless of
        # omega: the integrand always has poles at x = +-i, which caps
        # the convergence radius of wide panels
        n_panels = max(int(math.ceil(X)), int(math.ceil(2.0 * X * (
            np.max(np.abs(oms)) + cs.max_weight + 1.0) * 3.0 / 32.0)))
        vals, floor = _panel_core(cs, X, n_panels, oms)
        if return_err:
            gap = np.abs(vals - _panel_core(cs, X, 2 * n_panels, oms)[0])
            err = max(err, float(np.max(gap)) + tail_b + floor)
        # tails in one vectorized sweep across every frequency
        up, lo = ([(s0, a[:J]) for s0, a in series[side]]
                  for side in ("upper", "lower"))
        out[live] = (vals + _cayley_tails(up, lo, X, oms))[at]
    return (out, err, {"tol": tol}) if return_err else out


def _mirrored(cs) -> bool:
    """cs(-x) = conj cs(x): every exponent and coefficient is real."""
    return all(al.imag == be.imag == c.imag == 0.0
               for (al, be), c in cs.terms.items())


def _panel_core(cs, X, n, oms):
    """sum_{k,j} gv[k, j] e^{-i om (mid_k + h x_j)} for every om, gv the
    16-point Gauss-Legendre weights times v on n equal panels of [-X, X],
    and the rounding floor eps (sqrt(16 n) + X max |om|) sum |gv|.  As
    mid_k = mid_c + 2h (k - c), c = n // 2, a sum is e^{-i om mid_c} sum_j
    e^{-i om h x_j} T_j(2 h om) in the panel sums of :func:`_panel_sums`.
    If :func:`_mirrored`, node (k, j) mirrors (n-1-k, 15-j) with conjugate
    gv: the sum is 2 Re of the one over j < 8, v at 8 n nodes."""
    x16, w16 = _gl_rule(16)
    h, half = X / n, _mirrored(cs)
    cols = slice(8 if half else 16)
    # exactly antisymmetric, mids[n - 1 - k] = -mids[k]
    mids = h * (2.0 * np.arange(n) + 1.0 - n)
    gv = h * w16[cols] * cs(mids[:, None] + h * x16[cols])
    T = _panel_sums(gv, 2.0 * h * oms)
    # the nodes are symmetric, x_{15-j} = -x_j
    e = np.exp(-1j * h * np.outer(oms, x16[8:]))
    low = T[:, 7::-1] * e.conj()
    sums = np.exp(-1j * mids[n // 2] * oms) * np.sum(
        low if half else T[:, 8:] * e + low, axis=1)
    floor = np.finfo(float).eps * (math.sqrt(16 * n) + X * np.max(np.abs(oms)))
    return (2.0 * sums.real if half else sums), floor * (1 + half) * np.sum(
        np.abs(gv))


def _panel_sums(gv, theta):
    r"""T_j(theta) = sum_q gv[n // 2 + q, j] e^{-i q theta} for every theta
    and column j, by Gaussian gridding (Dutt & Rokhlin, SIAM J. Sci.
    Comput. 14 (1993); Greengard & Lee, SIAM Rev. 46 (2004)): divide by
    the periodized Gaussian's Fourier coefficients sqrt(tau/pi)
    e^{-q^2 tau}, take one FFT on M >= 2n points (a power of two), then
    convolve with the Gaussian on the 2 sp + 1 = 33 grid points nearest
    theta; tau = pi sp / (R (R - 1/2) n^2) with R = M / n as taken."""
    n, sp = len(gv), 16
    M = 1 << (max(2 * n, 4 * sp + 4) - 1).bit_length()
    tau = math.pi * sp / (M * (M - 0.5 * n))
    q = np.arange(n) - n // 2
    grid = np.zeros((gv.shape[1], M), dtype=complex)
    grid[:, q % M] = (gv * (math.sqrt(math.pi / tau) / M
                            * np.exp(tau * q * q))[:, None]).T
    # one grid point per row, wrapped past both ends (m0 = M included):
    # the points nearest any theta are one window
    windows = np.lib.stride_tricks.sliding_window_view(np.fft.fft(grid).T[
        np.arange(-sp, M + sp + 1) % M], 2 * sp + 1, axis=0)
    t = np.mod(theta, TWO_PI) * (M / TWO_PI)
    m0 = np.rint(t).astype(int)
    out = np.empty((len(theta), gv.shape[1]), dtype=complex)
    # the gather, (chunk, 16, 2 sp + 1), runs in chunks: for 20,000
    # frequencies at once it would be 170 MB
    for a in range(0, len(theta), 128):
        b = slice(a, a + 128)
        d = ((t[b] - m0[b])[:, None] - np.arange(-sp, sp + 1)) * (TWO_PI / M)
        w = np.exp(-d * d / (4.0 * tau))
        out[b] = (windows[m0[b]] @ w[..., None])[..., 0]
    return out


def _chains(up, lo):
    """Merge the series (s0, a) of ``CayleySum.asymptotic_series`` of both
    sides whose orders differ by integers: [(s0, A)], A[j, k] the
    coefficient of |x|^{-(s0+k)} on side j (0 upper, 1 lower)."""
    chains = []
    tagged = [(s0, a, j) for j, series in enumerate((up, lo))
              for s0, a in series]
    for s0, a, j in sorted(tagged, key=lambda t: t[0].real):
        for i, (c0, acc) in enumerate(chains):
            d = s0 - c0
            if abs(d.imag) < 1e-12 and abs(d.real - round(d.real)) < 1e-12:
                k = round(d.real)
                acc = np.pad(acc, ((0, 0), (0, max(k + len(a) - acc.shape[1],
                                                   0))))
                acc[j, k:k + len(a)] += a
                chains[i] = (c0, acc)
                break
        else:
            acc = np.zeros((2, len(a)), dtype=complex)
            acc[j] = a
            chains.append((s0, acc))
    return chains


def _cayley_tails(up, lo, X, oms):
    r"""Asymptotic-tail contribution for every frequency at once: the sum
    of a[n] X^{1-s} E_s(+-i om X), s = s0 + n, over the series (s0, a) of
    ``up`` (sign +) and ``lo`` (sign -), in the form of
    ``CayleySum.asymptotic_series``.

    Both sides' series go into one chain per order class (orders that
    differ by integers), and a chain runs once over the distinct points
    t in {+om, -om} its sides need, with z = i t X: the lower side at om
    needs the point the upper side needs at -om.  When the chain's order
    is real, E_s(conj z) = conj E_s(z), so it runs over the distinct |t|
    only and takes the values at t < 0 by conjugation.

    The orders s0, s0 + 1, ... of one chain obey E_{s+1}(z) = (e^{-z} -
    z E_s(z))/s (DLMF 8.19.12).  Run upward it damps errors where
    |s| > |z|, run downward where |s| < |z| (Gautschi, SIAM Rev. 1967).
    So each z is seeded at the chain order nearest |z|, all of a chain's
    seeds in one ``expint`` call with an array of orders (which raises
    AccuracyNotReached off its domain), and recurred away from it."""
    vals = np.zeros(oms.shape, dtype=complex)
    # the upper side needs t = +om, the lower t = -om
    t = np.concatenate([oms, -oms])
    side = np.repeat([0, 1], len(oms))
    for s0, A in _chains(up, lo):
        if not np.any(A):
            continue
        real = s0.imag == 0.0
        pts, at = np.unique(np.abs(t) if real else t, return_inverse=True)
        acc = _chain_tail(s0, np.concatenate([A, A.conj()]) if real else A,
                          X, 1j * (pts * X))
        v = acc[at, side]
        if real:
            v = np.where(t < 0, acc[at, side + 2].conj(), v)
        vals += v[:len(oms)] + v[len(oms):]
    return vals


def _chain_tail(s0, a, X, z):
    """sum_k a[r, k] X^{1-s_k} E_{s_k}(z) with s_k = s0 + k, one column
    per row r of ``a``."""
    n = a.shape[1]
    s = s0 + np.arange(n)
    # a Python power per order: numpy's complex power goes through
    # exp(w log X) and loses about |w| log X ulps
    coef = a * np.array([X ** (1.0 - sk) for sk in s.tolist()])
    # seed order: |s_k| nearest |z|; sorted by it, the z seeded at order
    # k are the run first[k]:first[k+1]
    k0 = np.clip(np.rint(np.sqrt(np.maximum(
        np.abs(z) ** 2 - s0.imag ** 2, 0.0)) - s0.real), 0, n - 1).astype(int)
    perm = np.argsort(k0, kind="stable")
    k0, z = k0[perm], z[perm]
    first = np.searchsorted(k0, np.arange(n + 1))
    seed = expint(s[k0], z)
    ez = np.exp(-z)
    acc = np.zeros((len(z), len(a)), dtype=complex)
    # downward to order 0 from each seed: E_k = (e^{-z} - s_k E_{k+1})/z
    e = seed.copy()
    for k in range(n - 1, -1, -1):
        hi = first[k + 1]
        e[hi:] = (ez[hi:] - s[k] * e[hi:]) / z[hi:]
        acc[first[k]:] += e[first[k]:, None] * coef[:, k]
    # upward to order n - 1: E_{k+1} = (e^{-z} - z E_k)/s_k
    e = seed
    for k in range(n - 1):
        hi = first[k + 1]
        e[:hi] = (ez[:hi] - z[:hi] * e[:hi]) / s[k]
        acc[:hi] += e[:hi, None] * coef[:, k + 1]
    out = np.empty(acc.shape, dtype=complex)
    out[perm] = acc
    return out


def regularized_pairing(n: float, v, tol: float = None):
    r"""< exp(2 pi i n x), v > for nonzero n and a SmoothVector/CayleySum
    v, interpreted through integration by parts with the exact derivative:
    -(1/(2 pi i n)) \int exp(2 pi i n x) v'(x) dx."""
    if n == 0:
        raise ZeroFrequency("n = 0: constant term excluded for cuspidal data")
    # \int e^{2 pi i n x} v'(x) dx = F[v'](-n)
    return -fourier_transform(as_cayley(v).derivative(), -n, tol) \
        / (TWO_PI * 1j * n)


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
        return sum(c * np.exp(1j * j * theta) for j, c in self.coeffs.items())


def _check_exponent(s):
    if complex(s).real <= -1.0:
        raise NonIntegrableExponent(f"Re(s) = {complex(s).real} <= -1")


def _sin_power_table(s, K: int, odd: bool) -> FourierSeriesTable:
    r"""c_j(s) = (1/pi) \int_0^pi sin^s theta e^{-ij theta} d theta for
    j = 2k, |k| <= K, or (``odd``) j = 2k - 1, -K < k <= K, by the Beta
    integral's closed form e^{-i pi j/2} Gamma(s+1) / (2^s Gamma(1 +
    (s+j)/2) Gamma(1 + (s-j)/2)) and c_{-j} = (-1)^j c_j.  Past c_{j0},
    j0 = 0 or 1, Gamma's functional equation gives c_{j+2} = c_j (j - s)
    / (j + 2 + s): a running product in extended precision, which never
    overflows and ends in exact zeros at a nonnegative integer s of the
    table's parity.  ``errors[j]`` bounds the rounding: 32 eps per
    logarithm (``quadrature.loggamma`` was measured within 17 eps max(1,
    |log Gamma|) of mpmath for Re z in (0, 100], |Im z| <= 50), one more
    for their sum, 4 for the exponential and the casts, and 8 extended
    ulps per step of the product."""
    _check_exponent(s)
    s, j0 = complex(s), int(odd)
    logs = (loggamma(s + 1.0), -s * math.log(2.0),
            -loggamma((s + (2 + j0)) / 2.0), -loggamma((s + (2 - j0)) / 2.0))
    js = np.arange(j0, 2 * K - 1, 2, dtype=np.longdouble)
    c = np.cumprod(np.concatenate([[(-1j) ** j0 * np.exp(sum(logs))],
                                   (js - s) / (js + 2.0 + s)])).astype(complex)
    eps = np.finfo(float).eps
    rel = (eps * (4.0 + 33.0 * sum(max(1.0, abs(x)) for x in logs))
           + 8.0 * np.finfo(np.longdouble).eps * np.arange(len(c)))
    coeffs, errors = {}, {}
    for j in range(j0 - 2 * K, 2 * K - j0 + 1, 2):
        i = abs(j) // 2
        coeffs[j] = -c[i] if odd and j < 0 else c[i]
        errors[j] = float(rel[i] * abs(c[i]))
    return FourierSeriesTable(s, coeffs, "odd-signed" if odd else "even",
                              errors)


def sin_power_series(s: complex, K: int) -> FourierSeriesTable:
    """a_{2k}, |k| <= K, of |sin theta|^s = sum a_{2k} e^{2ik theta} in
    closed form (:func:`_sin_power_table`), each with its rounding bound."""
    return _sin_power_table(s, K, odd=False)


def signed_sin_power_series(s: complex, K: int) -> FourierSeriesTable:
    """b_{2k-1}, -K < k <= K, of sgn(sin theta) |sin theta|^s = sum
    b_{2k-1} e^{i(2k-1) theta} in closed form (:func:`_sin_power_table`),
    each with its rounding bound."""
    return _sin_power_table(s, K, odd=True)


def series_coefficient_quadrature(s: complex, j: int):
    r"""c_j(s) by direct quadrature, the independent oracle of both
    tables, folded onto (0, pi/2] so that sin theta keeps its precision
    at the singular end: with g(theta) = e^{-ij theta} + e^{-ij (pi -
    theta)}, (1/pi) [\int_0^{pi/2} (sin^s theta g(theta) - theta^s g(0))
    d theta + g(0) (pi/2)^{s+1}/(s+1)] on the tanh-sinh rule of level
    max(10, bit_length(|j| - 1) + 1), which keeps resolving e^{-ij theta}.
    Within 2e-11 of mpmath for Re s in [-0.99999, 4], |Im s| <= 2, |j| <=
    512, and within 2e-12 at |j| = 1024, 2048 for s in {-0.9, -0.5, 1.5}."""
    _check_exponent(s)
    level = max(10, (abs(j) - 1).bit_length() + 1)
    theta, w = tanh_sinh_map(0.0, 0.5 * math.pi, level)
    g = np.exp(-1j * j * theta) + (-1) ** j * np.exp(1j * j * theta)
    g0 = 1 + (-1) ** j
    f = np.exp(s * np.log(np.sin(theta))) * g - g0 * np.exp(s * np.log(theta))
    return (np.sum(w * f) + g0 * (0.5 * math.pi) ** (s + 1.0) / (s + 1.0)) \
        / math.pi
