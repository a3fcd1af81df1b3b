"""Weighted L^2 norms over the regions K N_{T1} A and their splits.

The minus region {0 < a <= a1, 0 <= t <= a^{-2} T1} is integrated by the
exact t-periodicity reduction: the inner t-range holds floor(T1/(p a^2))
full period cells plus one remainder cell, so the unbounded t-range near
a = 0 never appears in quadrature.  The plus region {a >= a1} is
bracketed through the rotation by the Weyl element (which trades (T, a)
for (-T, sqrt(T^2+1)/a)) and can also be integrated directly.  All of
these and the Omega-windows share one a-rule (``_floor_integral``).  They
reach a = infinity by ``quadrature.outward`` alone; A_MIN cuts a -> 0.

Every cell integral of a Whittaker model closes in lag form: the
amplitudes sit on the integer numerator lattice, one FFT per K-type gives
their lag sums R(D), and a cell is sum_D R(D) Phi_t(D).  For L lattice
points and M K-types this costs O(a-nodes M (L log L + M L)) time and
O(a-nodes M L) memory, so region norms scale with the number of
coefficients rather than with its square.  Only live a-nodes count: one
past the transform's zero edge (``fourier.live_edge``, where a
Paley-Wiener bound on |Fv| falls to 2^-52 sum |c|) gives 0.0 free.

Every quadrature sits on a-grids whose amplitudes Fv_m(-n a^{-2}) are
transformed once per call: a cell call takes stacked t-windows (the full
cell with the remainder cell, or both ends of a window) against one lag
sum, and the Weyl-flipped plus region shares one log-a' grid across its
T' rows, plus one a'-node per row of its cap.  Nothing is kept between
calls: there is no amplitude cache.

Every phase e^{-2 pi i t j / p} over an integer lattice of j (the
numerators of a Whittaker value, the lags of a cell window) costs one
complex exponential per point and window; the lattice's entries are its
powers, read off two running-product tables of about sqrt(max |j|)
entries.  The floor-constant segments of the minus region are arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automorphic import coeff_sum
from .coeffs import zeta
from .errors import (EpsilonBarrier, MissingSymmetry, OutOfRange,
                     UnboundedOmega)
from .fourier import fourier_transform_batch, live_edge
from .group import K_MASS
from .norms import triple_norm
from .principal import CayleySum, SmoothVector
from .quadrature import (gauss_panels, gauss_rule, outward, resolve_tol,
                         split_panels)

A_MIN = 1e-4        # declared a -> 0 cutoff of the minus region
MAX_SEGMENTS = 2000  # floor-constant segments resolved exactly
FM_CHUNK = 1 << 17  # point-coefficient pairs per Whittaker-value chunk


@dataclass
class RegionSpec:
    T1: float
    eps: float
    a1: float = 1.0
    side: str = "minus"

    def __post_init__(self):
        if not (0 <= self.T1 < math.inf and math.isfinite(self.eps)):
            raise OutOfRange("T1 must be finite and >= 0, eps finite")
        if not 0 < self.a1 < math.inf:  # also rejects nan
            raise OutOfRange("a1 must be positive and finite")
        if self.side not in ("minus", "plus", "full"):
            raise OutOfRange(f"unknown side {self.side!r}")


class ConstantFunction:
    """f == c on all of G; the closed-form oracle for region norms."""

    weyl = True  # |f(xw)| = |f(x)|

    def __init__(self, c: float = 1.0, period: int = 1):
        self.c = c
        self.harmonics = 0  # highest harmonic of |f|^2 in t, per period
        self.period = period

    def ksq(self, avals, ts, tol=None):
        avals = np.atleast_1d(np.asarray(avals, dtype=float))
        return np.full(avals.shape, K_MASS * self.c ** 2)

    def cell_integral(self, avals, t_lo, t_hi, tol=None, th=None):
        width = np.broadcast_arrays(
            np.asarray(t_hi, dtype=float) - np.asarray(t_lo, dtype=float),
            np.atleast_1d(np.asarray(avals, dtype=float)))[0]
        kmass = K_MASS if th is None else th[1] - th[0]
        return kmass * self.c ** 2 * width


def _lattice_phases(t, js, period):
    """e^{-2 pi i t j / p} for every t and every j of the integer lattice
    ``js``, shape t.shape + js.shape, from one exponential per t.

    With s = t/p - round(t/p) (an exact subtraction) and w = e^{-2 pi i
    s}, w^|j| = w^(|j| mod b) (w^b)^(|j| div b) is read off two tables
    of running products, b = isqrt(max |j|) + 1, and conjugated where
    j < 0.  Rounding then grows like eps |j|, not like eps 2 pi |t j| / p
    as in a direct exponential, and memory is O(t.size (len(js) + 2 b))."""
    x = np.asarray(t, dtype=float) / period
    w = np.exp(-2j * math.pi * (x - np.round(x)))
    ja = np.abs(js)
    top = int(ja.max(initial=0))
    b = math.isqrt(top) + 1

    def powers(base, n):  # base^0 .. base^n along a new last axis
        tab = np.empty(base.shape + (n + 1,), dtype=complex)
        tab[..., 0] = 1.0
        tab[..., 1:] = base[..., None]
        return np.cumprod(tab, axis=-1, out=tab)

    low = powers(w, b)
    high = powers(low[..., b], top // b)
    out = low[..., ja % b] * high[..., ja // b]
    return np.conjugate(out, out=out, where=js < 0)


class WhittakerModel:
    """f(k a n_t) = <pi(a n_t) tau, pi(k^{-1}) v> as a region-norm
    integrand.  The K integral is exact (K-types are orthogonal), and
    partial-period t-integrals close in elementary phases.

    Weyl symmetry |f(xw)| = |f(x)| holds for genuine automorphic data
    but not for a model pair (tau, v): ``weyl`` is False unless the
    ``assert_weyl`` keyword sets it, which only ``main2_check``, the tests
    and perfbench's region workload pass; every Weyl path then measures
    the symmetrized model (|f| for a <= 1, |f(xw)| for a > 1)."""

    def __init__(self, tau, v: SmoothVector, assert_weyl: bool = False):
        if not tau.coeffs:
            raise OutOfRange("empty coefficient table: no nonzero b_j")
        self.tau = tau
        self.v = v
        self.period = tau.period
        self.u = complex(tau.params.u)
        self.weyl = assert_weyl
        self.ms = sorted(v.coeffs)
        self.cm = np.array([v.coeffs[m] for m in self.ms], dtype=complex)
        self.js, self.ns, self.bs = tau.coefficient_arrays()
        self.harmonics = int(self.js[-1] - self.js[0])  # numerator span
        self.cs = [CayleySum.ktype(m, self.v.params.u) for m in self.ms]

    def _live(self, avals):
        """Live a-nodes: a batch-rounded |n| a^{-2} below the top live_edge."""
        edge = max(live_edge(cs) for cs in self.cs)
        return (1.0 / avals ** 2) * np.min(np.abs(self.ns)) < edge

    def _amplitudes(self, avals, tol):
        """A[i_m, i_a, i_n] = Fv_m(-n a^{-2}), one transform batch per
        K-type (which transforms each distinct a once), at ``tol``."""
        xi = -np.outer(1.0 / avals ** 2, self.ns)
        return np.array([fourier_transform_batch(cs, xi, tol)
                         for cs in self.cs])

    def _fm(self, a_flat, t_flat, tol):
        """Per-K-type Whittaker values f_m(a n_t), shape (m, pts).  Each
        distinct live a (``_live``) is transformed once, a dead one gives
        0; the distinct a-values, and then their points, go in chunks of
        FM_CHUNK point-coefficient pairs, so memory stays bounded whatever
        the number of points.  The phases cost one exponential per point
        (``_lattice_phases``); their power tables add about 2 sqrt(max
        |j|) entries to a point's row, which a point chunk counts, so a
        sparse lattice such as {1, 4096} gets short ones."""
        ua, inv = np.unique(a_flat, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        first = np.searchsorted(inv[order], np.arange(len(ua) + 1))
        out = np.zeros((len(self.ms), len(a_flat)), dtype=complex)
        step = max(1, FM_CHUNK // len(self.ns))
        row = len(self.ns) + 2 * math.isqrt(int(np.abs(self.js).max())) + 2
        pstep = max(1, FM_CHUNK // row)
        # ua ascends, so the dead a-nodes lead; a chunk keeps its live ones
        dead = len(ua) - np.count_nonzero(self._live(ua))
        for c0 in range(0, len(ua), step):
            lo, hi = max(c0, dead), min(c0 + step, len(ua))
            if lo >= hi:
                continue
            amp = self._amplitudes(ua[lo:hi], tol) * self.bs[None, None, :]
            pts = order[first[lo]:first[hi]]
            for q in range(0, len(pts), pstep):
                sel = pts[q:q + pstep]
                phase = _lattice_phases(t_flat[sel], self.js, self.period)
                out[:, sel] = (a_flat[sel] ** (-1.0 - self.u)) * np.einsum(
                    "mpn,pn->mp", amp[:, inv[sel] - lo], phase)
        return out

    def value(self, theta, a, t, tol=None):
        """f at k_theta a n_t; arrays broadcast together."""
        theta, a, t = np.broadcast_arrays(
            np.asarray(theta, dtype=float), np.asarray(a, dtype=float),
            np.asarray(t, dtype=float))
        fm = self._fm(a.ravel(), t.ravel(), tol)
        kph = np.array([np.exp(-1j * m * theta.ravel()) for m in self.ms])
        return np.einsum("m,mp,mp->p", self.cm, kph, fm).reshape(a.shape)

    def ksq(self, avals, ts, tol=None):
        r"""\int_K |f(k a n_t)|^2 dk pointwise; K-types are orthogonal,
        so the theta integral collapses to 2 pi sum_m |c_m f_m|^2."""
        avals = np.atleast_1d(np.asarray(avals, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), avals.shape)
        fm = self._fm(avals.ravel(), ts.ravel(), tol)
        return K_MASS * np.einsum(
            "m,mp->p", np.abs(self.cm) ** 2, np.abs(fm) ** 2)

    def cell_integral(self, avals, t_lo, t_hi, tol=None, th=None):
        r"""\int \int_{t_lo}^{t_hi} |f(k a n_t)|^2 dt dk over theta in
        ``th`` (default all of K), in lag form.  With the amplitudes
        G_m(j) = b_n Fv_m(-n a^{-2}) on the integer lattice j = n p,

            a^{-2-2u0} sum_D R(D) Phi_t(D),
            R(D) = sum_{m,q} w_mq sum_j G_m(j + D) conj(G_q(j)),

        where w_mq = c_m conj(c_q) Phi_K(q - m) and Phi_t(D) is the
        integral of e^{-2 pi i t D/p} over [t_lo, t_hi].  R comes from one
        FFT per K-type over the L lattice points, zero-padded past 2L - 1
        so that no lag wraps, with the K weight contracted in frequency
        space pair by pair (over all of K only the diagonal pairs weigh).
        t_lo and t_hi may stack windows in leading axes (shape (...,
        a-nodes)), which all read the same lag sums.  It costs O(a-nodes M
        (L log L + M L)) time, O(a-nodes L) per window with one complex
        exponential per a-node and window edge (``_lattice_phases``), and
        O(M FM_CHUNK) memory: the a-nodes go in chunks of FM_CHUNK // L.
        A dead a-node (``_live``) gives 0.0 with no transform, FFT or phase."""
        avals = np.atleast_1d(np.asarray(avals, dtype=float))
        t_lo, t_hi, _ = np.broadcast_arrays(np.asarray(t_lo, dtype=float),
                                            np.asarray(t_hi, dtype=float),
                                            avals)
        L = int(self.js[-1] - self.js[0]) + 1
        mm = np.array(self.ms, dtype=float)
        dm = mm[None, :] - mm[:, None]  # q - m from e^{-i(m-q)theta}
        if th is None:
            phik = np.where(dm == 0, K_MASS, 0.0) + 0j
        else:
            zk = 1j * dm
            with np.errstate(divide="ignore", invalid="ignore"):
                phik = (np.exp(zk * th[1]) - np.exp(zk * th[0])) / zk
            phik = np.where(dm == 0, th[1] - th[0] + 0j, phik)
        w_mq = (self.cm[:, None] * np.conj(self.cm)[None, :]) * phik
        pairs = [(m, q) for m in range(len(mm)) for q in range(len(mm))
                 if th is not None or m == q]
        lags = np.arange(1 - L, L)  # negative lags index from the end
        z = -2j * math.pi * lags / self.period
        out = np.zeros(t_lo.shape)
        step = max(1, FM_CHUNK // L)
        for c0 in range(0, len(avals), step):
            sel = c0 + np.flatnonzero(self._live(avals[c0:c0 + step]))
            if not len(sel):
                continue
            a = avals[sel]
            lattice = np.zeros((len(mm), len(a), L), dtype=complex)
            lattice[..., self.js - self.js[0]] = (
                self._amplitudes(a, tol) * self.bs[None, None, :])
            g = np.fft.fft(lattice, n=1 << (2 * L - 2).bit_length())
            spec = np.zeros(g.shape[1:], dtype=complex)
            for m, q in pairs:
                spec += w_mq[m, q] * g[m] * np.conj(g[q])
            del g  # before the next chunk allocates its own
            r = np.fft.ifft(spec)[:, lags]
            for k in np.ndindex(t_lo.shape[:-1]):
                lo, hi = t_lo[k][sel], t_hi[k][sel]
                with np.errstate(divide="ignore", invalid="ignore"):
                    phi = (_lattice_phases(hi, lags, self.period)
                           - _lattice_phases(lo, lags, self.period)) / z
                phi[:, L - 1] = hi - lo
                out[k][sel] = (a ** (-2.0 - 2.0 * self.u.real)) * np.einsum(
                    "pd,pd->p", r, phi).real
        return out


def _require_weyl(f):
    if not f.weyl:
        raise MissingSymmetry("operation requires a Weyl-symmetric profile")


def _segment_edges(T1, a1, period, a_lo=A_MIN):
    """The floor-constant segments of (a_lo, a1] as arrays (lo, hi, floor),
    top down, stopping at a_lo or after MAX_SEGMENTS of them."""
    Tabs = abs(T1)
    j = np.floor(Tabs / (period * a1 ** 2)) + np.arange(float(MAX_SEGMENTS))
    b = np.sqrt(Tabs / (period * (j + 1))) if Tabs > 0 else np.zeros_like(j)
    last = b <= a_lo
    n = int(np.argmax(last)) + 1 if last.any() else MAX_SEGMENTS
    lo = np.maximum(b[:n], a_lo)
    hi = np.concatenate(([a1], b[:n - 1]))
    keep = hi > lo
    return lo[keep], hi[keep], j[:n][keep]


def _floor_integral(f, T_lo, T_hi, a_lo, a_hi, eps, tol, kinds=("exact",),
                    th=None, strict=False):
    r"""\int_{a_lo}^{a_hi} a^{2+eps} C(a) da/a for each of ``kinds``, over
    theta in ``th`` (default all of K).  The t-window between T_lo/a^2 and
    T_hi/a^2 (either order) is fl = floor(W/(p a^2)) period cells P, W =
    |T_hi - T_lo|, plus a cell R of width W/a^2 - fl p from its lower end
    mod p; C is fl P + R ('exact'), fl P ('lower') or (fl + 1) P ('upper').

    Pieces: a is cut at the kinks sqrt(W/(p j)), past sqrt(W/p) at ratio
    sqrt 2.  Each gets ceil(min(a_hi^2, f.harmonics) x periods the window
    ends sweep) 16-point GL panels, as a period holds about a^2
    oscillations: below a = 1, one per floor segment of a window from 0.
    P is computed where fl > 0 or a bound needs it.  Batches of 64 pieces
    run top down until one adds nothing; past MAX_SEGMENTS segments the
    surrogate W/(p a^2) P, off by at most a cell a node, takes over, and
    ``strict`` raises OutOfRange unless that is below 1e-3 tol of C's sum."""
    p, (T_lo, T_hi) = f.period, sorted((T_lo, T_hi))
    W = T_hi - T_lo
    lo, hi, fl = _segment_edges(W, a_hi, p, a_lo)
    if len(fl) and fl[0] == 0:  # past the top kink
        k = max(1, math.ceil(2.0 * math.log2(hi[0] / lo[0]) - 1e-9))
        cuts = lo[0] * (hi[0] / lo[0]) ** (np.arange(k - 1, 0, -1) / k)
        lo, hi = np.r_[cuts, lo], np.r_[hi[:1], cuts, hi[1:]]
        fl = np.r_[np.zeros(k - 1), fl]
    ends = (abs(T_lo) + abs(T_hi)) / W if W > 0 else 1.0
    sweep = ends * (np.minimum(W / (p * lo ** 2), fl + 1)
                    - np.maximum(W / (p * hi ** 2), fl))
    n = np.maximum(np.ceil(np.minimum(hi ** 2, f.harmonics) * sweep),
                   1).astype(int)
    pan_lo, pan_hi, seg = split_panels(lo, hi, n)
    vals = np.zeros(len(kinds))
    a_cut = a_lo
    for b0 in range(0, len(lo), 64):
        sel = (seg >= b0) & (seg < b0 + 64)
        a, w = gauss_rule(pan_lo[sel], pan_hi[sel])
        fa = np.repeat(fl[seg[sel]], 16)
        full = np.where((fa > 0) | (kinds != ("exact",)), float(p), 0.0)
        start = np.mod(T_lo / a ** 2, p)
        wins = (([(0.0 * a, full)] if full.any() else [])
                + ([(start, start + (W / a ** 2 - fa * p))]
                   if "exact" in kinds else []))
        cells = f.cell_integral(a, *map(np.stack, zip(*wins)), tol, th=th)
        P = cells[0] if full.any() else 0.0
        extra = {"exact": cells[-1], "lower": 0.0, "upper": P}
        pieces = np.array([np.sum(w * a ** (2.0 + eps)
                                  * (fa * P + extra[k]) / a) for k in kinds])
        vals += pieces
        a_cut = lo[seg[sel][-1]]
        if np.all(np.abs(pieces) < 1e-16 * np.maximum(np.abs(vals), 1e-300)):
            return tuple(map(float, vals))  # deeper a contributes nothing
    if a_cut > a_lo * (1 + 1e-12):
        lg, wb = gauss_panels(math.log(a_lo), math.log(a_cut),
                              max(8, int(6 * math.log(a_cut / a_lo))), 16)
        ab = np.exp(lg)
        cell = wb * ab ** (2.0 + eps) * f.cell_integral(ab, 0.0, float(p),
                                                        tol, th=th)
        if strict and np.sum(cell) > 1e-3 * tol * abs(vals[0]):
            raise OutOfRange(f"more than {MAX_SEGMENTS} floor segments "
                             f"past a = {a_lo:g} carry weight")
        x = W / (p * ab ** 2)  # smooth floor surrogate
        shift = {"exact": 0.0, "lower": -1.0, "upper": 1.0}
        vals += [np.sum(cell * np.maximum(x + shift[k], 0.0)) for k in kinds]
    return tuple(map(float, vals))


def region_norm_minus(f, spec: RegionSpec, tol: float = None) -> float:
    """||f||^2 over {0 < a <= a1, 0 <= T <= T1} with weight a^eps da/a dT dk,
    via the exact floor + remainder-cell reduction."""
    tol = resolve_tol(tol)
    if spec.side != "minus":
        raise OutOfRange("region_norm_minus needs spec.side == 'minus'")
    return _floor_integral(f, 0.0, spec.T1, A_MIN, spec.a1, spec.eps, tol)[0]


def floor_sandwich(f, spec: RegionSpec, tol: float = None):
    """The two floor-expression bounds around the minus-region norm."""
    return _floor_integral(f, 0.0, spec.T1, A_MIN, spec.a1, spec.eps,
                           resolve_tol(tol), ("lower", "upper"))


def region_norm_plus_via_weyl(f, spec: RegionSpec, tol: float = None):
    """Two-sided bracket for ||f||^2 over {a >= a1, 0 <= T <= T1},
    transported by the Weyl flip to minus-region norms at
    (-T1, 1/a1, -eps) and (-T1, sqrt(T1^2+1)/a1, -eps)."""
    tol = resolve_tol(tol)
    _require_weyl(f)
    T1, a1, eps = spec.T1, spec.a1, spec.eps
    s = math.sqrt(T1 ** 2 + 1.0)
    inner, = _floor_integral(f, -T1, 0.0, A_MIN, 1.0 / a1, -eps, tol)
    outer, = _floor_integral(f, -T1, 0.0, A_MIN, s / a1, -eps, tol)
    if eps >= 0:
        return {"lower": inner, "upper": s ** eps * outer}
    return {"lower": s ** eps * inner, "upper": outer}


def region_norm_plus_direct(f, spec: RegionSpec, tol: float = None) -> float:
    """Direct quadrature over the plus region {a >= a1, 0 <= T <= T1}:
    the minus region's rule from a1, carried to infinity by
    ``quadrature.outward``; OutOfRange where more than MAX_SEGMENTS floor
    segments carry weight."""
    tol = resolve_tol(tol)
    return outward(lambda lo, hi: _floor_integral(
        f, 0.0, spec.T1, lo, hi, spec.eps, tol, strict=True)[0],
        spec.a1, max(4.0 * spec.a1, 8.0), tol)


def region_norm_plus_weyl_exact(f, spec: RegionSpec,
                                tol: float = None) -> float:
    """The plus-region norm computed exactly through the Weyl flip:
    the transported region is {-T1 <= T' <= 0, a' <= sqrt(T'^2+1)/a1}
    with weight (sqrt(T'^2+1))^eps (a')^{-eps} dT' da'/a' dk.  It splits
    into the rectangle a' <= 1/a1 and the cap a' = sqrt(1+s^2)/a1,
    0 <= s <= T1, where T' runs over [-T1, -s] and da'/a' = s ds/(1+s^2),
    so no sqrt-kink at a' = 1/a1 meets the quadrature.  The rectangle runs
    in b = 1/a' from a1 to infinity (``quadrature.outward``).  Exact for
    genuinely Weyl-symmetric f; for asserted symmetry it is the value the
    symmetrized model would have."""
    tol = resolve_tol(tol)
    _require_weyl(f)
    T1, a1, eps = spec.T1, spec.a1, spec.eps
    n_T = max(8, int(4 * T1) + 4)
    xu, wu = gauss_panels(0.0, 1.0, n_T, 12)  # unit rule for T' spans

    def rows(ap, Tp, w):  # broadcast to (a'-rows, T'-nodes)
        ap, Tp, w = (x.ravel() for x in np.broadcast_arrays(ap, Tp, w))
        w = w * (Tp ** 2 + 1.0) ** (0.5 * eps) * ap ** (-eps)
        return float(np.sum(w * f.ksq(ap, Tp / ap ** 2, tol)))

    def rectangle(lo, hi):
        lg, lw = gauss_panels(math.log(lo), math.log(hi),
                              math.ceil(4 * math.log(hi / lo)), 12)
        return rows(np.exp(-lg)[:, None], -T1 * xu[None, :],
                    lw[:, None] * T1 * wu[None, :])

    sg, sw = gauss_panels(0.0, T1, max(4, n_T // 2), 12)
    span = (T1 - sg)[:, None]
    cap = rows(np.sqrt(1.0 + sg ** 2)[:, None] / a1,
               -sg[:, None] - span * xu[None, :],
               (sw * sg / (1.0 + sg ** 2))[:, None] * span * wu)
    return outward(rectangle, a1, 2.0 * a1, tol) + cap


def region_norm_plus(f, spec: RegionSpec, tol: float = None) -> float:
    """The plus-region norm: through the Weyl flip when f is Weyl-symmetric
    (``f.weyl``), by direct quadrature otherwise."""
    if f.weyl:
        return region_norm_plus_weyl_exact(f, spec, tol)
    return region_norm_plus_direct(f, spec, tol)


def region_norm_full(f, spec: RegionSpec, tol: float = None) -> float:
    """||f||^2_{T1, eps} over all of K N_{T1} A: minus part (a <= 1)
    plus the plus part (a >= 1, :func:`region_norm_plus`)."""
    T1, eps = spec.T1, spec.eps
    return (region_norm_minus(f, RegionSpec(T1, eps, 1.0, "minus"), tol)
            + region_norm_plus(f, RegionSpec(T1, eps, 1.0, "plus"), tol))


def main_constant(T1: float, eps: float, period: int) -> float:
    """The constructive constant: c = 1 + p (1+T1^2)/T1 makes
    floor(T1/(p a^2)) + 1 <= c T1/(p a^2) on 0 < a <= sqrt(1+T1^2);
    the full constant is c * max(2, 1 + (sqrt(1+T1^2))^eps); T1 > 0."""
    if not T1 > 0:
        raise OutOfRange(f"the main constant needs T1 > 0, got {T1:g}")
    c = 1.0 + period * (1.0 + T1 ** 2) / T1
    return c * max(2.0, 1.0 + math.sqrt(1.0 + T1 ** 2) ** eps)


def main_bound_check(f, T1: float, eps: float, tol: float = None) -> dict:
    r"""||f||^2_{T1,eps} <= c_{T1,eps,p} \int_K \int_0^{sqrt(1+T1^2)}
    (a^eps + a^{-eps}) \int_0^p |f|^2 dt da/a dk, constant built exactly
    per the constructive proof."""
    tol = resolve_tol(tol)
    _require_weyl(f)
    p = f.period
    constant = main_constant(T1, eps, p)
    lhs = region_norm_full(f, RegionSpec(T1, eps), tol)
    s = math.sqrt(1.0 + T1 ** 2)
    lg, lw = gauss_panels(math.log(A_MIN), math.log(s),
                          max(12, int(6 * math.log(s / A_MIN))), 16)
    a = np.exp(lg)
    P = f.cell_integral(a, 0.0, float(p), tol)
    integral = float(np.sum(lw * (a ** eps + a ** (-eps)) * P))
    rhs = constant * integral
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
            "constant": constant, "ok": lhs <= rhs}


def main2_check(tau, v: SmoothVector, T1: float, eps: float,
                tol: float = None) -> dict:
    """||f||_{T1,eps} against the triple norm of v at -|eps|/2 (unitary
    principal type) or -u - |eps|/2 (complementary type); that index must
    exceed -1, so |eps| < 2 (1 - u0) with u0 = Re u."""
    tol = resolve_tol(tol)
    if eps == 0:
        raise EpsilonBarrier(
            "the restriction-norm bound degenerates at eps = 0; "
            "operator norms blow up as eps -> 0")
    u = complex(tau.params.u)
    if abs(u.imag) > 0 and abs(u.real) > 1e-12:
        raise OutOfRange("tau must be unitary-principal or complementary")
    u0 = 0.0 if abs(u.real) < 1e-12 else u.real
    if abs(eps) >= 2.0 * (1.0 - u0):
        raise OutOfRange(f"eps = {eps} needs |eps| < {2.0 * (1.0 - u0):g} "
                         f"at Re u = {u0:g}")
    target = -u0 - abs(eps) / 2.0
    model = WhittakerModel(tau, v, assert_weyl=True)
    lhs = region_norm_full(model, RegionSpec(T1, eps), tol)
    rhs = triple_norm(v, target, tol).value
    return {"lhs": lhs, "rhsNorm": rhs,
            "ratio": math.sqrt(lhs / rhs) if rhs > 0 else math.inf,
            "target_u": target}


def omega_a_norm(f, omega, eps: float, tol: float = None) -> float:
    r"""\int_{Omega A} |f|^2 a^eps da/a dT dk for a compact
    omega = (theta_lo, theta_hi, T_lo, T_hi) in K x N, with theta_lo <=
    theta_hi and T_lo <= T_hi: the region norm's rule over the T-window
    from a = A_MIN, carried to infinity by ``quadrature.outward``."""
    tol = resolve_tol(tol)
    th_lo, th_hi, T_lo, T_hi = omega
    if not all(map(math.isfinite, (th_lo, th_hi, T_lo, T_hi))):
        raise UnboundedOmega("omega must be a bounded subset of K x N")
    if th_lo > th_hi or T_lo > T_hi:
        raise OutOfRange("omega needs theta_lo <= theta_hi and T_lo <= T_hi")
    return outward(lambda lo, hi: _floor_integral(
        f, T_lo, T_hi, lo, hi, eps, tol, th=(th_lo, th_hi))[0],
        A_MIN, 8.0, tol)


def eisenstein_scenario(tau, lam: float, eps: float, T1: float,
                        tol: float = None) -> dict:
    r"""Restriction-norm comparison run for Eisenstein-type (divisor-sum)
    coefficient tables: check the materialized coefficient sum against
    its full value, then fit the restriction-norm constant.

    The sum is 2 sum_{n <= N} n^{-eps/2-1} |b_{+-n}|^2 (both signs), which
    for b_n = sigma_{2 i lam}(n) n^{-1/2} is 2 sum_{n <= N} |sigma_{2 i
    lam}(n)|^2 n^{-s}, s = 2 + eps/2.  Ramanujan's identity gives the full
    sum Z = zeta(s)^2 zeta(s - 2 i lam) zeta(s + 2 i lam) / zeta(2 s), and
    since |sigma_{2 i lam}(n)|^2 <= d(n)^2 <= d_4(n) and sum_{n <= x}
    d_4(n) <= x (1 + log x)^3, partial summation bounds the tail past N
    by T = s \int_N^\infty x^{-s} (1 + log x)^3 dx.  ``summable`` is
    0 <= 2 Z - partial <= 2 T."""
    tol = resolve_tol(tol)
    v = SmoothVector.single(0, -1j * lam, "+")
    # first: it rejects |eps| >= 2 (tau is unitary), so s > 1
    rep = main2_check(tau, v, T1, eps, tol)
    k_max = tau.max_numerator() / tau.period
    partial = sum(coeff_sum(tau, -eps, 0.0, k_max, sg) for sg in (1, -1))
    s = 2.0 + 0.5 * eps
    z = zeta(np.array([s, s - 2j * lam, s + 2j * lam, 2.0 * s]))
    full = 2.0 * (z[0] ** 2 * z[1] * z[2] / z[3]).real
    c, U = s - 1.0, 1.0 + math.log(k_max)
    tail = 2.0 * s * k_max ** -c * (U ** 3 / c + 3 * U ** 2 / c ** 2
                                    + 6 * U / c ** 3 + 6 / c ** 4)
    rep.update(partial_sum=partial, full_sum=full, tail_bound=tail,
               summable=bool(0.0 <= full - partial <= tail), k_max=k_max)
    return rep
