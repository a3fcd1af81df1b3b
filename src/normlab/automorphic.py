"""Periodic distributions, Fourier-Whittaker evaluation, and the exact
L^2 identities on the upper-triangular quotient P_0 / N_p.

A distribution tau = sum* b_n exp(2 pi i n x) with n in (1/p) Z, n != 0,
paired against a smooth vector v of the dual principal series, yields

    f(a n_t) = a^{-1-u} sum_n  Fv(-n a^{-2}) b_n exp(-2 pi i t n),

whose weighted L^2 norms over 0 < a < a1, 0 <= t < p admit an exact
spectral form: a coefficient sum against the weighted Fourier-transform
integral of v.  Both sides are implemented and cross-checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstantTermPresent, DivergentIntegral,
                     HypothesisUnverifiable, OutOfRange, TailNotControlled)
from .fourier import fourier_transform_batch, live_edge, transform_bound
from .group import KanCoords
from .norms import _xi_integral, weighted_fv_integral
from .principal import ReprParams, SmoothVector, as_cayley
from .quadrature import gauss_panels, outward, resolve_tol


@dataclass
class PeriodicDistribution:
    """tau = sum b_{j/p} exp(2 pi i (j/p) x), keyed by the integer
    numerator j != 0.  Optional growth metadata |b_n| <= C |n|^sigma
    declares how the (unmaterialized) tail behaves."""

    period: int
    coeffs: dict
    params: ReprParams
    growth_sigma: float = None
    growth_C: float = None

    def __post_init__(self):
        if self.period < 1:
            raise OutOfRange("period must be a positive integer")
        if 0 in self.coeffs:
            raise ConstantTermPresent(
                "b_0 must be absent for cuspidal data")
        if self.growth_C is not None:
            bad = [j for j, b in self.coeffs.items()
                   if abs(b) > self.growth_C
                   * abs(j / self.period) ** self.growth_sigma * (1 + 1e-12)]
            if bad:
                raise OutOfRange(
                    f"declared growth bound violated at numerators {bad[:5]}")

    @property
    def is_finite(self) -> bool:
        return self.growth_C is None

    def coefficient_arrays(self):
        """(js, ns, bs): the numerators j, the frequencies n = j / p and
        the coefficients b_n, sorted by numerator."""
        items = sorted(self.coeffs.items())
        js = np.array([j for j, _ in items])
        bs = np.array([b for _, b in items], dtype=complex)
        return js, js / self.period, bs

    def max_numerator(self) -> int:
        return max((abs(j) for j in self.coeffs), default=0)

    def to_file(self, path):
        u = complex(self.params.u)
        head = {"period": self.period, "u0": u.real, "u1": u.imag,
                "parity": self.params.parity,
                "growth_sigma": self.growth_sigma,
                "growth_C": self.growth_C}
        records = [[j, complex(b).real, complex(b).imag]
                   for j, b in sorted(self.coeffs.items())]
        with open(path, "w") as fh:
            json.dump({"header": head, "records": records}, fh, indent=1)

    @classmethod
    def from_file(cls, path) -> "PeriodicDistribution":
        with open(path) as fh:
            data = json.load(fh)
        h = data["header"]
        coeffs = {int(j): complex(re, im) for j, re, im in data["records"]}
        return cls(int(h["period"]), coeffs,
                   ReprParams(complex(h["u0"], h["u1"]), h["parity"]),
                   h.get("growth_sigma"), h.get("growth_C"))


@dataclass
class WhittakerEvaluation:
    coords: KanCoords
    value: complex
    truncation: int
    tailEstimate: float

    @property
    def tail_ok(self) -> bool:
        return self.tailEstimate < 0.01 * max(abs(self.value), 1e-300)


def whittaker_eval(tau: PeriodicDistribution, v, coords: KanCoords,
                   tol: float = None) -> WhittakerEvaluation:
    """f(k a n_t) = <pi(k a n_t) tau, v> through the Whittaker expansion.

    A nonzero K-part is absorbed into the vector first:
    <pi(k a n_t) tau, v> = <pi(a n_t) tau, pi(k^{-1}) v>, which for a
    finite K-type expansion is an exact phase change c_m -> e^{-i m th} c_m.
    """
    tol = resolve_tol(tol)
    if not (math.isfinite(coords.a) and coords.a > 0):
        raise OutOfRange(f"a must be positive and finite, got {coords.a}")
    if abs(coords.theta) > 1e-15:
        if not isinstance(v, SmoothVector):
            raise TypeError("K-part absorption needs a SmoothVector")
        v = v.rotated(-coords.theta)
    cs = as_cayley(v)
    u = complex(tau.params.u)
    a, t = coords.a, coords.t
    if not tau.coeffs:
        return WhittakerEvaluation(coords, 0.0 + 0.0j, 0, 0.0)
    _, ns, bs = tau.coefficient_arrays()
    xi = -ns / a ** 2
    fv = fourier_transform_batch(cs, xi, tol)
    value = a ** (-1.0 - u) * np.sum(fv * bs * np.exp(-2j * math.pi * t * ns))

    tail = 0.0
    if not tau.is_finite:
        tail = _coefficient_tail_estimate(tau, cs, a, ns, tol)
        tail *= abs(a ** (-1.0 - u))
    return WhittakerEvaluation(coords, complex(value),
                               int(tau.max_numerator()), float(tail))


def _coefficient_tail_estimate(tau, cs, a, ns, tol):
    """Bound sum_{|n| > n_max} |b_n| |Fv(-n/a^2)| from the declared
    growth and the measured exponential decay of the transform."""
    n_edge = float(np.max(np.abs(ns)))
    probes = np.array([n_edge, 1.25 * n_edge]) / a ** 2
    pv = np.abs(fourier_transform_batch(cs, -probes, tol))
    if pv[0] < 1e-280:
        return 0.0
    if pv[1] == 0.0:  # past the zero edge: the bound on |Fv| there
        pv[1] = transform_bound(cs, -probes[1:])[0]
    c = -(np.log(pv[1]) - np.log(pv[0])) / (probes[1] - probes[0])
    sigma, C = tau.growth_sigma, tau.growth_C
    step = 1.0 / (tau.period * a ** 2)
    r = math.exp(-c * step) * (1.0 + max(sigma, 0.0) / max(n_edge, 1.0))
    if c <= 0 or r >= 1.0:
        raise TailNotControlled(
            f"coefficient growth (sigma={sigma}) not beaten by measured "
            f"transform decay rate {c:.3g}")
    edge_term = C * n_edge ** sigma * pv[0]
    return 2.0 * edge_term * r / (1.0 - r)


def t_average_sq(tau: PeriodicDistribution, v, a,
                 tol: float = None):
    r"""\int_0^p |f(a n_t)|^2 dt by the coefficient-sum (Parseval) form
    p * sum_n a^{-2-2u0} |b_n|^2 |Fv(-n a^{-2})|^2, at every a of ``a``
    (a scalar or an array) from one transform batch."""
    tol = resolve_tol(tol)
    cs = as_cayley(v)
    a = np.asarray(a, dtype=float)
    if not tau.coeffs:
        return 0.0 * a
    _, ns, bs = tau.coefficient_arrays()
    fv = fourier_transform_batch(cs, -np.outer(1.0 / a ** 2, ns).ravel(), tol)
    sq = (np.abs(fv.reshape(a.size, len(ns))) ** 2 @ np.abs(bs) ** 2)
    return (tau.period * a ** (-2.0 - 2.0 * tau.params.u0)
            * sq.reshape(a.shape))[()]


def coeff_sums(tau: PeriodicDistribution, eps: float, u0: float, ks,
               sign: int) -> np.ndarray:
    """coeff_sum at every k of ``ks``, read off one sorted prefix sum."""
    js = sorted((j for j in tau.coeffs if sign * j > 0), key=abs)
    ns = np.array([abs(j) / tau.period for j in js], dtype=float)
    bsq = np.array([abs(tau.coeffs[j]) ** 2 for j in js], dtype=float)
    prefix = np.concatenate(
        ([0.0], np.cumsum(ns ** (0.5 * eps - 1.0 - u0) * bsq)))
    return prefix[np.searchsorted(ns, ks, side="right")]


def coeff_sum(tau: PeriodicDistribution, eps: float, u0: float, k: float,
              sign: int) -> float:
    """sum_{1/p <= n <= k} n^{eps/2 - 1 - u0} |b_{sign*n}|^2."""
    return float(coeff_sums(tau, eps, u0, k, sign))


def p0_weighted_norm(tau: PeriodicDistribution, v, a1, eps: float,
                     tol: float = None, method: str = "spectral") -> float:
    r"""\int_0^{a1} \int_0^p |f(a n_t)|^2 dt a^eps da/a.

    method="spectral": the exact identity -- (p/2) sum_{+-} of the
    weighted transform integral against the running coefficient sum
    (with the n <= a * a1^2 cutoff; closed boundary).
    method="geometric": direct two-dimensional quadrature of |f|^2.
    a1 is in (0, inf]; anything else raises OutOfRange.
    """
    tol = resolve_tol(tol)
    if not a1 > 0.0:
        raise OutOfRange(f"p0_weighted_norm needs a1 > 0, got {a1}")
    if not tau.coeffs:
        return 0.0
    if not tau.is_finite:
        # refuse extrapolation: the spectral sum needs every coefficient
        # up to the cutoff, and the cutoff is unbounded in a
        conv = 0.5 * eps - 1.0 - tau.params.u0 + 2.0 * tau.growth_sigma
        if conv >= -1.0:
            raise DivergentIntegral(
                f"coefficient-sum side diverges: growth exponent "
                f"{conv:.3f} >= -1")
        raise TailNotControlled(
            "infinite coefficient model: materialize a finite range first")
    if method == "spectral":
        return _p0_spectral(tau, v, a1, eps, tol)
    if method == "geometric":
        return _p0_geometric(tau, v, a1, eps, tol)
    raise OutOfRange(f"unknown p0_weighted_norm method {method!r}")


def _p0_spectral(tau, v, a1, eps, tol):
    u0 = tau.params.u0
    p = tau.period
    total = 0.0
    for sign in (+1, -1):
        ns = sorted(abs(j) / p for j in tau.coeffs if sign * j > 0)
        if not ns:
            continue
        partials = coeff_sums(tau, eps, u0, ns, sign)
        if math.isinf(a1):
            # every term is in from a = 0: one segment, the full sum
            edges, partials = [0.0], partials[-1:]
        else:
            # breakpoints where the cutoff n <= a * a1^2 admits a new term
            edges = [n / a1 ** 2 for n in ns]
        seg = _xi_integral([as_cayley(v)], [[1.0]], -0.5 * eps + u0, edges,
                           (-sign,), tol)[0][0]
        total += 0.5 * p * float(np.dot(partials, seg))
    return total


def _p0_geometric(tau, v, a1, eps, tol):
    """Direct quadrature of the double integral: the t-integral by
    :func:`t_average_sq` (its Parseval sum equals the trapezoid on any
    grid of more than 2 max|j| points, exact for the trigonometric
    polynomial), a by panels in log a, to infinity by
    ``quadrature.outward`` from [a_lo, 160] at a1 = inf."""
    cs = as_cayley(v)
    n_min = np.min(np.abs(tau.coefficient_arrays()[1]))
    # below a_lo every transform argument n / a^2 lies past the zero edge
    a_lo = math.sqrt(n_min / live_edge(cs))

    def block(lo, hi):
        n_pan = max(8, int(12 * math.log(hi / lo)))
        lg, lw = gauss_panels(math.log(lo), math.log(hi), n_pan, 16)
        avals = np.exp(lg)
        dens = t_average_sq(tau, cs, avals, tol) * avals ** eps  # in log a
        return float(np.sum(lw * dens))

    if math.isfinite(a1):
        return block(a_lo, a1)
    if eps - 2.0 + 2.0 * max(tau.params.u0, 0.0) >= 0.0:
        raise DivergentIntegral(
            f"geometric side diverges as a -> infinity (eps={eps})")
    # a first block where the integrand is 0 would stop outward at once
    return outward(block, a_lo, 160.0, tol)


def l2p_bound_check(tau: PeriodicDistribution, v, eps: float, a1,
                    tol: float = None) -> dict:
    r"""Check the two-sided L^2 estimates on P_0/N_p.

    eps < 0: lhs <= C * sum_{+-} \int_{1/(a1^2 p)}^inf a^{-eps/2+u0}|Fv|^2,
    with C = (p/2) max of the (convergent) full coefficient sums.
    eps > 0: lhs <= C * a1^eps * p * sum_{+-} \int a^{u0} |Fv|^2, with C
    fitted as max_k S(k)/k^{eps/2} over the materialized support.
    """
    tol = resolve_tol(tol)
    u0 = tau.params.u0
    p = tau.period
    cs = as_cayley(v)
    lhs = p0_weighted_norm(tau, v, a1, eps, tol)
    lo = 0.0 if math.isinf(a1) else 1.0 / (a1 ** 2 * p)
    report = {"eps": eps, "a1": a1, "lhs": lhs}
    if eps < 0:
        n_max = tau.max_numerator() / p
        s_tot = coeff_sum(tau, eps, u0, n_max, +1) \
            + coeff_sum(tau, eps, u0, n_max, -1)
        C = 0.5 * p * s_tot
        integ = sum(weighted_fv_integral(cs, -0.5 * eps + u0, lo, s, tol)
                    for s in (+1, -1))
        rhs = C * integ
    elif eps > 0:
        ks = sorted({abs(j) / p for j in tau.coeffs})
        if len(ks) < 3:
            raise HypothesisUnverifiable(
                "need at least 3 support points to fit the k^{eps/2} "
                "growth constant")
        ks = np.array(ks)
        C = float(np.max((coeff_sums(tau, eps, u0, ks, +1)
                          + coeff_sums(tau, eps, u0, ks, -1))
                         / ks ** (0.5 * eps)))
        if math.isinf(a1):
            raise DivergentIntegral(
                "eps > 0 bound carries an a1^eps factor; a1 must be finite")
        integ = sum(weighted_fv_integral(cs, u0, lo, s, tol)
                    for s in (+1, -1))
        rhs = C * a1 ** eps * p * integ
    else:
        raise HypothesisUnverifiable("eps = 0 is outside both cases")
    report.update(rhs=rhs, constant=C,
                  ratio=lhs / rhs if rhs > 0 else math.inf,
                  ok=lhs <= rhs * (1.0 + tol))
    return report
