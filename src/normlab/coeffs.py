"""Coefficient data sources for periodic distributions.

Four model kinds are standardized: explicit finite tables, seeded random
tables with prescribed power decay, divisor-sum (Eisenstein-type)
tables, and Ramanujan tau from the 24th power of the eta q-expansion.
All tables are deterministic for a fixed seed and drop zero entries; a
finite table keeps a nonzero b_0, which PeriodicDistribution refuses.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .automorphic import PeriodicDistribution
from .errors import ConfigInvalid, RangeTooLarge
from .principal import ReprParams
from .quadrature import BERNOULLI

MAX_RANGE = 10 ** 6


@dataclass
class CoeffModel:
    kind: str  # finite | random-decay | divisor | ramanujan-tau
    N: int = 0
    sigma: float = 0.5
    seed: int = 0
    lam: float = 0.0
    period: int = 1
    entries: dict = field(default_factory=dict)  # kind == finite

    def __post_init__(self):
        if self.kind not in ("finite", "random-decay", "divisor",
                             "ramanujan-tau"):
            raise ConfigInvalid(f"unknown coefficient model {self.kind!r}")
        if self.N > MAX_RANGE:
            raise RangeTooLarge(f"N = {self.N} > {MAX_RANGE}")


@functools.lru_cache(maxsize=8)
def ramanujan_tau_table(N: int):
    """tau(1..N) by cubing-free squaring of the eta-cube series.

    eta^3 (without the q^{1/8} prefactor) is the sparse alternating sum
    of (2k+1) q^{k(k+1)/2}; its 8th power gives the coefficients of
    q^{-1} Delta.  Exact integer arithmetic throughout.
    """
    if N > MAX_RANGE:
        raise RangeTooLarge(f"N = {N} > {MAX_RANGE}")
    L = N  # need q^0 .. q^{N-1} of (eta^3)^8, since Delta = q (eta^3)^8
    eta3 = np.zeros(L, dtype=object)
    k = 0
    while k * (k + 1) // 2 < L:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    pw = eta3
    for _ in range(3):  # square three times: ((e^2)^2)^2 = e^8
        pw = np.convolve(pw, pw)[:L]
    tau = {n: int(pw[n - 1]) for n in range(1, N + 1)}
    return tau


def sigma_power(n: int, s: complex) -> complex:
    """Divisor sum sigma_s(n) = sum_{d | n} d^s."""
    total = 0.0 + 0.0j
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** complex(s)
            e = n // d
            if e != d:
                total += e ** complex(s)
        d += 1
    return total


def zeta(s):
    """Riemann zeta at complex s with Re s > 1, elementwise, by
    Euler-Maclaurin: the first 19 terms, the integral and end terms at
    n = 20, and 8 Bernoulli corrections.  For Re s in [1.1, 6] and
    |Im s| <= 10 the first omitted correction is below 1e-18, so rounding
    (about 1e-15 relative) dominates."""
    s = np.asarray(s, dtype=complex)
    n = 20
    total = np.sum(np.arange(1.0, n)[:, None] ** -s.ravel(), axis=0)
    total = total.reshape(s.shape) + n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    rising = s  # s (s+1) ... (s+2k-2)
    for k, b in enumerate(BERNOULLI, 1):
        total = total + b / math.factorial(2 * k) * rising * n ** (
            -s - 2 * k + 1)
        rising = rising * (s + 2 * k - 1) * (s + 2 * k)
    return total


def generate(model: CoeffModel):
    """Materialize a model into a PeriodicDistribution coefficient table.

    The representation parameter attached to the table is u = i*lam with
    even parity; callers pairing against other representations can
    rebuild the distribution with the parameters they need.
    """
    params = ReprParams(1j * model.lam, "+")
    if model.kind == "finite":
        coeffs = {int(j): complex(b) for j, b in model.entries.items()
                  if b != 0}
    elif model.kind == "random-decay":
        rng = np.random.default_rng(model.seed)
        coeffs = {}
        for j in range(1, model.N + 1):
            for sj in (j, -j):
                re, im = rng.standard_normal(2)
                coeffs[sj] = (re + 1j * im) / math.sqrt(2.0) \
                    * j ** (-model.sigma)
    elif model.kind == "divisor":
        coeffs = {}
        for j in range(1, model.N + 1):
            b = sigma_power(j, 2j * model.lam) * j ** -0.5
            coeffs[j] = b
            coeffs[-j] = b
    else:  # ramanujan-tau
        tab = ramanujan_tau_table(model.N)
        coeffs = {n: complex(tab[n]) for n in range(1, model.N + 1)}
    return PeriodicDistribution(model.period, coeffs, params)


def parse_model_spec(text: str) -> CoeffModel:
    """Parse CLI model specs like 'finite:b1=1,b-2=0.5' or
    'divisor:N=64,lam=1' or 'ramanujan-tau:N=100'; a piece that does not
    parse, or parses to a non-finite value, raises ConfigInvalid."""
    fields = {"N": int, "seed": int, "period": int, "sigma": float,
              "lam": float}
    kind, _, rest = text.partition(":")
    kw = {}
    entries = {}
    for piece in rest.split(",") if rest else ():
        key, _, val = piece.partition("=")
        try:
            if key.startswith("b"):
                entries[int(key[1:])] = value = complex(val)
            else:
                kw[key] = value = fields[key](val)
            if not cmath.isfinite(value):
                raise ValueError
        except (KeyError, ValueError):
            raise ConfigInvalid(
                f"bad model parameter {piece!r} in {text!r}") from None
    return CoeffModel(kind=kind, entries=entries, **kw)
