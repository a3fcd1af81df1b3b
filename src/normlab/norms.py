"""Representation-level norms and the intertwining operator.

Implements the intertwining eigenvalues c_{2m}^{(u)} (two closed forms,
cross-checked), the weakly singular integral operator A_u on (0,1), the
normalizer G(u) relating the two inner products, the weighted-Fourier
norm ||.||_{C_u}, the K-averaged norm |||.|||_u, the Kirillov-type norm,
and the multiplier maps between principal-series models.

Sign conventions: the pairing (phi, psi)_u = <A_u phi, conj(psi)> is
conjugate-linear in the second slot.  K-mass 2*pi throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyNotReached, BadParameterRange,
                     DivergentIntegral, OutOfRange, ParityMismatch,
                     PoleParameter)
from .fourier import fourier_transform_batch, live_edge
from .group import K_MASS
from .principal import CayleySum, ReprParams, SmoothVector, as_cayley
from .quadrature import (TWO_PI, gauss_jacobi, gauss_panels, gauss_rule,
                         power_tail, resolve_tol, split_panels,
                         tanh_sinh_map)
from .quadrature import _sinpi
from .quadrature import gamma as _gamma
from .quadrature import loggamma as _loggamma

_POLE_EPS = 1e-12


@dataclass
class NormValue:
    kind: str  # C_u | triple | standard_u | kirillov
    value: float
    tailBound: float = 0.0
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def tail_ok(self) -> bool:
        return self.tailBound < 0.01 * max(self.value, 1e-300)


def intertwine_constant(m: int, u: complex):
    """Eigenvalue c_{2m}^{(u)} of A_u on the weight-2m K-type:
    A_u v_{2m}^{(u)} = c_{2m}^{(u)} v_{2m}^{(-u)}.

    Primary form:  (-1)^m 2^{1-u} pi Gamma(u) /
                   (Gamma((u+1)/2 + m) Gamma((u+1)/2 - m)).
    Cross-check (reflection formula), for |m| <= 100:
        2^{1-u} Gamma(u) Gamma(m + (1-u)/2) sin(pi(u+1)/2)
                 / Gamma((u+1)/2 + m).
    Past |m| = 100 the primary form overflows, and the reflection form
    alone is taken through log-Gamma.  Raises AccuracyNotReached when the
    two forms differ by more than 1e-10 (1 + |primary|).  At u = 1, 3, 5,
    ... c_{2m} is exactly 0 for |m| >= (u+1)/2, and the primary form
    alone is taken below that.
    """
    u = complex(u)
    if abs(u.imag) < _POLE_EPS and abs(u.real - round(u.real)) < _POLE_EPS \
            and round(u.real) <= 0:
        raise PoleParameter(f"A_u has a pole at u = {u.real:g}")
    half = (u + 1.0) / 2.0
    ma = abs(m)  # both forms are even in m
    sin_half = complex(_sinpi(np.asarray(half)))  # exact 0 at u = 1, 3, ...
    if ma > 100:
        lg = _loggamma(ma + (1.0 - u) / 2.0) - _loggamma(half + ma)
        return 2.0 ** (1.0 - u) * _gamma(u) * sin_half * np.exp(lg)
    if sin_half == 0 and ma >= half.real:
        return 0j  # 1/Gamma(half - |m|) = 0
    primary = (-1.0) ** m * 2.0 ** (1.0 - u) * math.pi * _gamma(u) \
        / (_gamma(half + ma) * _gamma(half - ma))
    if sin_half == 0:
        return primary  # the reflection form is 0 times a pole here
    alt = 2.0 ** (1.0 - u) * _gamma(u) * _gamma(ma + (1.0 - u) / 2.0) \
        * sin_half / _gamma(half + ma)
    gap = abs(alt - primary) / (1 + abs(primary))
    if gap > 1e-10:
        raise AccuracyNotReached(
            f"closed forms disagree at m={m}, u={u}: {primary} vs {alt}",
            achieved=gap)
    return primary


def intertwine_apply(v, u: float, x, tol: float = None):
    r"""(A_u v)(x) = \int v(y) |x-y|^{u-1} dy for u in (0,1).

    ``x`` may be a scalar or an array.  The singularity at y = x is
    absorbed by Gauss-Jacobi weights; the smooth middle ranges use
    Gauss-Legendre panels; the tails use the binomial expansion of
    |x-y|^{u-1} against the asymptotic series of v.
    """
    if not (0.0 < u < 1.0):
        raise OutOfRange(
            f"A_u kernel integrable only for u in (0,1); got {u} "
            "(outside, the operator is defined spectrally via c_2m)")
    tol = resolve_tol(tol)
    cs = as_cayley(v)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n_gj = 24 if tol < 1e-6 else 16
    tj, wj = gauss_jacobi(n_gj, 0.0, u - 1.0)
    out = np.empty(xs.shape, dtype=complex)
    # cut scales with |x| so the binomial tail ratio |x|/B stays <= ~2/3
    B = 1.5 * float(np.max(np.abs(xs))) + 41.0
    up = cs.asymptotic_series("upper", 10)
    lo = cs.asymptotic_series("lower", 10)
    for i, xc in enumerate(xs):
        # |y - x| <= 1, both sides, Gauss-Jacobi in the weight |y-x|^{u-1}
        acc = 0.5 ** u * np.sum(wj * (cs(xc + 0.5 * (1.0 + tj))
                                      + cs(xc - 0.5 * (1.0 + tj))))
        # smooth middle, panels graded away from both the kernel point x
        # and the poles of v at +-i
        for lo_edge, hi_edge in ((xc + 1.0, B), (-B, xc - 1.0)):
            ny, wy = _graded_panels(lo_edge, hi_edge, xc)
            acc = acc + np.sum(wy * cs(ny) * np.abs(xc - ny) ** (u - 1.0))
        acc = acc + _intertwine_tail(up, xc, B, u)
        acc = acc + _intertwine_tail(lo, -xc, B, u)
        out[i] = acc
    return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def _graded_panels(lo_edge, hi_edge, xc, order=16):
    """Composite GL panels on [lo_edge, hi_edge] with widths growing in
    proportion to the distance from the kernel point xc and from 0,
    where the integrand varies fastest."""
    edges = [lo_edge]
    e = lo_edge
    while e < hi_edge:
        w = 0.4 * max(1.0, min(abs(e - xc), abs(e) + 1.0))
        e = min(e + w, hi_edge)
        edges.append(e)
    edges = np.asarray(edges)
    return gauss_rule(edges[:-1], edges[1:], order)


def _intertwine_tail(series, xeff, B, u):
    r"""\int_B^inf (sum a[n] y^{-(s0+n)}) y^{u-1} (1 - xeff/y)^{u-1} dy
    over the series (s0, a) of ``CayleySum.asymptotic_series``, termwise
    exact through the binomial series of the kernel, summed adaptively in
    the ratio xeff/B (|ratio| < 1 by the choice of B).

    Upper tail: kernel (y - xc)^{u-1}, xeff = xc.  Lower tail (after the
    substitution y -> -y): kernel (y + xc)^{u-1}, xeff = -xc.
    """
    ratio = xeff / B
    total = 0.0 + 0.0j
    for s0, a in series:
        for n, c in enumerate(a.tolist()):
            base = s0 + n - (u - 1.0)  # integrand ~ y^{-base-j}
            if base.real <= 1.0:
                raise DivergentIntegral(
                    f"A_u tail diverges: exponent {base.real:.3f} <= 1")
            head = c * B ** (1.0 - base)
            bj = 1.0  # binom(u-1, j) * (-1)^j
            rpow = 1.0
            acc = 0.0 + 0.0j
            for j in range(400):
                term = bj * rpow / (base + j - 1.0)
                acc += term
                if abs(term) < 1e-17 * max(abs(acc), 1e-30):
                    break
                bj *= (u - 1.0 - j) / (j + 1.0) * (-1.0)
                rpow *= ratio
            total += head * acc
    return total


def g_normalizer(u: float) -> float:
    r"""G(u) with  F[|xi|^{-u}](x) = G(u) |x|^{u-1}  (distributionally).

    Computed by pairing both sides with the self-dual Gaussian
    exp(-pi x^2):  G(u) = I(-u) / I(u-1)  where
    I(p) = \int |x|^p exp(-pi x^2) dx, the p <= -1 case taken in the
    regularized (analytically continued) sense.  G(0) = 0 exactly.
    """
    if not (-1.0 < u < 1.0):
        raise OutOfRange(f"g_normalizer needs |u| < 1, got {u}")
    if u == 0.0:
        return 0.0
    return _gaussian_moment(-u) / _gaussian_moment(u - 1.0)


def g_normalizer_closed(u: float) -> float:
    """pi^{u-1/2} Gamma((1-u)/2) / Gamma(u/2); frozen regression form."""
    if u == 0.0:
        return 0.0
    return math.pi ** (u - 0.5) * math.gamma((1.0 - u) / 2.0) \
        / math.gamma(u / 2.0)


def _gaussian_moment(p: float) -> float:
    r"""I(p) = \int |x|^p e^{-pi x^2} dx, analytically continued in p.

    For p <= -1/2 (including the divergent p <= -1 range, taken in the
    analytically continued sense), subtract the value of the Gaussian at
    0 on (0,1) and add back \int_0^1 x^p dx = 1/(p+1); the remaining
    integrand is O(x^{p+2}), mild enough for full precision."""
    x01, w01 = tanh_sinh_map(0.0, 1.0, 7)
    xg, wg = gauss_panels(1.0, 4.0, 6, 16)
    outer = np.sum(wg * xg ** p * np.exp(-math.pi * xg ** 2))
    if p > -0.5:
        inner = np.sum(w01 * x01 ** p * np.exp(-math.pi * x01 ** 2))
    else:
        inner = np.sum(w01 * x01 ** p * np.expm1(-math.pi * x01 ** 2)) \
            + 1.0 / (p + 1.0)
    return 2.0 * (inner + outer)


def intertwine_pair(phi, psi, u: float, tol: float = None,
                    method: str = "quadrature"):
    """(phi, psi)_u = <A_u phi, conj(psi)>, conjugate-linear in psi.

    method="quadrature": the x-integral of (A_u phi)(x) conj(psi(x)),
    independent of the eigenvalues: GL panels on |x| <= 150, and past
    them :func:`quadrature.power_tail` on both sides, exact for phi in
    P(u, +) and psi's terms sharing one real alpha+beta.  Outside that
    domain it raises OutOfRange, and DivergentIntegral where psi's
    alpha+beta <= u, both before the quadrature.
    method="spectral": pi * sum_m c_m conj(d_m) c_{2m}^{(u)} for two
    even-parity SmoothVectors with matching u.
    """
    if method == "spectral":
        if not (isinstance(phi, SmoothVector) and isinstance(psi, SmoothVector)):
            raise TypeError("spectral pairing needs SmoothVectors")
        if phi.params.parity != "+" or psi.params.parity != "+":
            raise ParityMismatch("spectral pairing implemented for even parity")
        total = 0.0 + 0.0j
        for m, c in phi.coeffs.items():
            d = psi.coeffs.get(m)
            if d is not None:
                total += c * np.conj(d) * intertwine_constant(m // 2, u)
        return math.pi * total
    ps = as_cayley(psi)
    sig = np.array([al + be for al, be in ps.terms])
    if np.ptp(sig.real) + np.max(np.abs(sig.imag)) > _POLE_EPS:
        raise OutOfRange(f"psi's terms need one real alpha+beta, got {sig}")
    for al, be in as_cayley(phi).terms:
        m = be - al
        if abs(al + be - 1.0 - u) + abs(m - 2 * round(m.real / 2)) > _POLE_EPS:
            raise OutOfRange(f"phi is not in P({u:g}, +): a term has "
                             f"alpha+beta = {al + be:g}, weight {m:g}")

    def both_sides(x):  # the integrand at x plus at -x, in one apply call
        xs = np.concatenate([x, -x])
        vals = intertwine_apply(phi, u, xs, tol) * np.conj(ps(xs))
        return vals[:len(x)] + vals[len(x):]

    X = 150.0
    tail = power_tail(both_sides, X, sig[0].real - 1.0 - u)
    nx, wx = gauss_panels(-X, X, 200, 16)
    return np.sum(wx * intertwine_apply(phi, u, nx, tol) * np.conj(ps(nx))) \
        + tail


# ---------------------------------------------------------------------------
# Weighted-Fourier norms
# ---------------------------------------------------------------------------

_XI_MAX_LEVEL = 12


def _xi_grid(cs, lo: float, tol: float):
    r"""The two sizes of the xi-rule for \int_lo xi^p |F cs|^2: the
    tanh-sinh level l the weight predicts below xi = 1 (algebraic
    singularity at 0), and the end Xi = max(lo, ``fourier.live_edge(cs)``)
    of the range, past which the engine returns exact zeros.  Returns
    (l, Xi).

    The predicted level is the smallest k >= 6 (7 at tol < 1e-8) whose
    rule, 2^(k+1) + 1 nodes, has 16 per zero of |Fv|^2 on (0, 1] and 16
    more (at tol >= 1e-6, 13.25 and 25, as levels 7 and 8 settle there
    from weights 24 and 120 on): there are about (2/pi) sqrt(2 pi mw) such
    zeros at weight mw.  It is capped at ``_XI_MAX_LEVEL``.
    """
    per, more = (13.25, 1.9) if tol >= 1e-6 else (16.0, 1.0)
    need = math.ceil(per * (2.0 / math.pi * math.sqrt(TWO_PI * cs.max_weight)
                            + more))
    return (min(max(6 if tol >= 1e-8 else 7, (need - 1).bit_length() - 1),
                _XI_MAX_LEVEL), max(lo, live_edge(cs)))


def _gl_panels(mw, a, b):
    r"""16-point GL panels on the pieces [a[k], b[k]], 1 <= a <= b, for
    \int xi^p |Fv|^2 at K-type weight mw.  Returns nodes, weights and the
    piece k of each node, piece by piece.  |Fv|^2 has about sqrt(2 mw /
    (pi xi)) zeros per unit length in xi, and a 16-point panel integrates
    about five of them to 1e-11.  Unit-width panels, at least four, hold
    at most five past xi_fine = 2 mw / (25 pi); [a, xi_fine] gets panels
    sized for the density at a."""
    fine = np.minimum(np.maximum(2.0 * mw / (25.0 * math.pi), a), b)
    n_fine = np.ceil((fine - a) * np.sqrt(2.0 * mw / (math.pi * a)) / 5.0)
    n_unit = np.where(b > fine, np.maximum(4, np.floor(b - fine) + 1), 0)
    # [a, fine] and [fine, b] of each piece, piece by piece
    p_lo, p_hi, owner = split_panels(
        np.array([a, fine]).T.ravel(), np.array([fine, b]).T.ravel(),
        np.array([n_fine, n_unit], dtype=int).T.ravel())
    x, w = gauss_rule(p_lo, p_hi, 16)
    return x, w, np.repeat(owner // 2, 16)


def _xi_integral(cs, p, edges, signs, tol):
    r"""sum over s in ``signs`` of \int xi^p |Fv(s xi)|^2 d xi over each
    segment [e_k, e_{k+1}] of the increasing ``edges`` and over [e_K, inf).
    Returns (values, tail, meta), one value per segment.  Every piece takes
    one rule: tanh-sinh below xi = 1 at the level l of :func:`_xi_grid`
    (its level-(l-1) nodes and the new ones of l), :func:`_gl_panels` from
    xi = 1 on.  Every piece's nodes go into one first transform batch.

    |Fv|^2 has about (2/pi) sqrt(2 pi w) zeros on (0,1] at K-type weight
    w, so the last piece's tanh-sinh sum there is judged by the estimate
    (Q_l - Q_{l-1})^2 / value, the double-exponential convergence model,
    first at the predicted level l and then, transforming only each new
    level's nodes, past it until the estimate is below tol.  At
    ``_XI_MAX_LEVEL`` unsettled it raises AccuracyNotReached (``achieved``:
    the estimate).  ``meta`` records Xi, the transformed node count
    (``n_xi``), the final level and that estimate (``Xi``, ``xi_level``,
    ``xi_err``, relative).  Past Xi the engine returns exact zeros;
    ``tail`` reads the last GL node, just inside that edge, so it is at
    the rounding floor (0 when e_K is past it).  It is not added to the
    values.
    """
    # transform ~ |xi|^{d-1} near 0 when the decay exponent d < 1
    if edges[0] == 0.0 and 2.0 * min(cs.min_decay - 1.0, 0.0) + p <= -1.0:
        raise DivergentIntegral(
            f"xi -> 0 end diverges: decay exponent {cs.min_decay:.3f}, "
            f"power {p} (need 2*min(d-1,0) + p > -1)")

    def density(x):
        # xi^p |Fv(s xi)|^2, one row per sign s
        xs = np.concatenate([s * x for s in signs])
        dens = np.abs(fourier_transform_batch(cs, xs, tol)) ** 2 \
            * np.abs(xs) ** p
        return dens.reshape(len(signs), len(x))

    lo = edges[-1]
    level, Xi = _xi_grid(cs, lo, tol)
    # piece k is [a_k, b_k], the segments and then [lo, Xi]: tanh-sinh
    # below xi = 1 at level l - 1 and the new nodes of l, GL from 1 on
    a = np.asarray(edges, dtype=float)
    b = np.append(a[1:], Xi)
    ts = np.flatnonzero(a < 1.0)
    ends = np.minimum(b[ts], 1.0)[:, None]
    rules = [(x.ravel(), w.ravel(), np.repeat(ts, x.shape[1])) for x, w in (
        tanh_sinh_map(a[ts, None], ends, level - 1),
        tanh_sinh_map(a[ts, None], ends, level, new_only=True))]
    rules.append(_gl_panels(cs.max_weight, np.maximum(a, 1.0),
                            np.maximum(b, 1.0)))
    dens = density(np.concatenate([x for x, _, _ in rules]))
    # each rule's sum over each piece, the signs summed
    both = np.split(np.sum(dens, axis=0),
                    np.cumsum([len(x) for x, _, _ in rules[:-1]]))
    coarse, new, rest = (np.bincount(k, w * d, minlength=len(a))
                         for (_, w, k), d in zip(rules, both))
    values = 0.5 * coarse + new + rest
    # the last piece's tanh-sinh sum is refined
    coarse, head, rest = coarse[-1], 0.5 * coarse[-1] + new[-1], rest[-1]
    n_xi = dens.size
    while True:
        xi_err = ((head - coarse) / max(abs(head + rest), 1e-300)) ** 2
        if xi_err <= tol:
            break
        if level >= _XI_MAX_LEVEL:
            raise AccuracyNotReached(
                f"xi refinement unsettled at tanh-sinh level {level}: "
                f"estimate {xi_err:.3g} > tol {tol:.3g}", achieved=xi_err)
        level += 1
        xn, wn = tanh_sinh_map(lo, 1.0, level, new_only=True)
        d = density(xn)
        n_xi += d.size
        coarse, head = head, 0.5 * head + float(np.sum(wn * d))
    values[-1] = head + rest
    tail = float(np.max(dens[:, -1]) if Xi > lo else 0.0) \
        * Xi ** max(p, 0.0) / (4.0 * math.pi) * len(signs)
    return values, tail, {
        "Xi": Xi, "n_xi": n_xi, "xi_level": level, "xi_err": xi_err}


def comp_norm(v, u: float, tol: float = None) -> NormValue:
    r"""||v||_{C_u}^2 = \int |xi|^{-u} |Fv(xi)|^2 d xi for real u, |u| < 1,
    on both half-lines at once by :func:`_xi_integral`.

    For u = 0 this is the plain L^2 norm of v (Plancherel).
    """
    if not (-1.0 < u < 1.0):
        raise OutOfRange(f"comp_norm needs |u| < 1, got {u}")
    (val,), tail, meta = _xi_integral(as_cayley(v), -u, [0.0], (1, -1),
                                      resolve_tol(tol))
    return NormValue("C_u", val, tail, params={"u": u}, meta=meta)


def weighted_fv_integral(v, p: float, lo: float, sign: int,
                         tol: float = None) -> float:
    r"""\int_lo^infty a^p |Fv(sign * a)|^2 da by :func:`_xi_integral`, the
    rule of comp_norm on one half-line."""
    return _xi_integral(as_cayley(v), p, [lo], (sign,), resolve_tol(tol))[0][0]


def kirillov_norm(v, u0: float, tol: float = None) -> NormValue:
    r"""\int |a|^{u0} |Fv(a)|^2 da -- the discrete-series bound surrogate.

    Identical to comp_norm with u = -u0 up to the sign convention."""
    if u0 >= 1.0:
        raise OutOfRange(f"kirillov_norm needs u0 < 1, got {u0}")
    nv = comp_norm(v, -u0, tol)
    return NormValue("kirillov", nv.value, nv.tailBound,
                     params={"u0": u0}, meta=nv.meta)


def triple_norm(v: SmoothVector, u: float, tol: float = None,
                method: str = "spectral") -> NormValue:
    r"""|||v|||_u^2 = \int_K || F(pi(k) v) ||^2_{xi^{-u}} dk, K-mass 2 pi.

    method="spectral": sum_m |c_m|^2 * K_MASS * ||v_m||_{C_u}^2
    (K-eigenvectors have constant-norm orbits).
    method="direct": trapezoid in theta over one full K-orbit -- exact
    for the finite trigonometric polynomial the orbit traces, and
    independent of the orthogonality argument.
    """
    tol = resolve_tol(tol)
    if method == "spectral":
        val = 0.0
        tail = 0.0
        for m, c in v.coeffs.items():
            nm = comp_norm(CayleySum.ktype(m, v.params.u), u, tol)
            val += abs(c) ** 2 * K_MASS * nm.value
            tail += abs(c) ** 2 * K_MASS * nm.tailBound
        return NormValue("triple", val, tail,
                         params={"u": u}, meta={"k_mass": K_MASS,
                                                "method": method})
    if method == "direct":
        weights = sorted(v.coeffs)
        spread = (weights[-1] - weights[0]) if weights else 0
        n_theta = 2 * spread + 4
        val = 0.0
        tail = 0.0
        for j in range(n_theta):
            th = K_MASS * j / n_theta
            nm = comp_norm(v.rotated(th).sampler, u, tol)
            val += nm.value * K_MASS / n_theta
            tail += nm.tailBound * K_MASS / n_theta
        return NormValue("triple", val, tail,
                         params={"u": u}, meta={"k_mass": K_MASS,
                                                "method": method,
                                                "n_theta": n_theta})
    raise OutOfRange(f"unknown triple_norm method {method!r}")


# ---------------------------------------------------------------------------
# Multiplier maps between models
# ---------------------------------------------------------------------------

def multiplier_map(v, source: ReprParams, target_u: float, case: str):
    """The three model-changing multipliers.

    case="exotic":  v in P(i lambda, +): multiply by (1+x^2)^{(i lam - u)/2};
        weight 2m -> 2m, lands in P(u, +).
    case="exotic1": v in P(i lambda, -): multiply additionally by
        ((1+xi)/(1-xi))^{1/2}; weight 2m-1 -> 2m, lands in P(u, +).
    case="exotic2": v in P(u, +), u real: multiply by (1+x^2)^{-mu/2}
        with mu = target_u - u in (-1-u, 0); weight 2m -> 2m.

    SmoothVector input is mapped exactly on coefficients; CayleySum input
    through exponent shifts.  Returns (sampler, target_params).
    """
    su = complex(source.u)
    if case in ("exotic", "exotic1"):
        if abs(su.real) > 1e-12:
            raise BadParameterRange(
                f"case {case} needs a unitary source (u = i*lambda), "
                f"got Re(u) = {su.real}")
        if not (-1.0 < target_u < 1.0):
            raise BadParameterRange(f"target u = {target_u} outside (-1,1)")
        want_parity = "+" if case == "exotic" else "-"
        if source.parity != want_parity:
            raise ParityMismatch(
                f"case {case} acts on parity {want_parity!r} sources")
        # (1+x^2)^{(i lam - u)/2} -> add (u - i lam)/2 to both exponents
        p = q = (target_u - su) / 2.0
        shift = 0
        if case == "exotic1":
            # ((1+xi)/(1-xi))^{1/2} raises the weight by one: 2m-1 -> 2m
            p, q, shift = p - 0.5, q + 0.5, 1
        tgt = ReprParams(target_u, "+")
    elif case == "exotic2":
        if source.parity != "+" or abs(su.imag) > 1e-12:
            raise BadParameterRange("case exotic2 acts on real-u P(u, +)")
        mu = target_u - su.real
        if not (-1.0 - su.real < mu < 0.0):
            raise BadParameterRange(
                f"mu = {mu:g} outside (-1-u, 0) for u = {su.real:g}")
        p = q = mu / 2.0
        shift = 0
        tgt = ReprParams(target_u, "+")
    else:
        raise BadParameterRange(f"unknown case {case!r}")

    if isinstance(v, SmoothVector):
        if v.params != source:
            raise BadParameterRange("v does not live in the declared source")
        return (SmoothVector(tgt, {m + shift: c for m, c in v.coeffs.items()}),
                tgt)
    if isinstance(v, CayleySum):
        return v.times_power(p, q), tgt
    raise TypeError("multiplier_map needs a SmoothVector or CayleySum")
