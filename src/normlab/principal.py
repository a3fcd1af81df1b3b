"""Unitarized principal series of SL(2,R) in the noncompact picture.

K-type basis vectors are products of powers of (1 +- ix):

    v_m(x) = (1+x^2)^{-(1+u)/2} * ((1+xi)/(1-xi))^{m/2}
           = (1+ix)^{-(1+u-m)/2} * (1-ix)^{-(1+u+m)/2},

with the principal branch throughout, i.e. ((1+xi)/(1-xi))^{m/2}
= exp(i m arctan x).  Finite linear combinations of such products form a
small function algebra (`CayleySum`) closed under differentiation,
K-rotation, and the multiplier maps of the norm module; each term carries
exact asymptotic expansions at +-infinity, which the Fourier engine needs
for its oscillatory tails.

Pictures: a vector "of" P(u, parity) decays like (1+x^2)^{-(1+u)/2}
(picture="rep").  Vectors paired against a distribution in P(u, parity)
live in P(-u, parity) and decay like (1+x^2)^{-(1-u)/2}
(picture="dual").  The two are never converted silently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterRange, OutOfRange, ParityMismatch, PoleAtSample

POLE_EPS = 1e-13


@dataclass(frozen=True)
class ReprParams:
    """Parameters (u, parity) of the unitarized principal series P(u, +/-)."""

    u: complex
    parity: str = "+"

    def __post_init__(self):
        if self.parity not in ("+", "-"):
            raise BadParameterRange(f"parity must be '+' or '-', got {self.parity!r}")
        if self.u0 >= 1.0:
            raise OutOfRange(f"Re(u) = {self.u0} >= 1 is outside scope")

    @property
    def u0(self) -> float:
        return complex(self.u).real

    @property
    def u1(self) -> float:
        return complex(self.u).imag

    @property
    def is_unitary_principal(self) -> bool:
        return abs(self.u0) < 1e-14

    @property
    def is_complementary(self) -> bool:
        return (self.parity == "+" and abs(self.u1) < 1e-14
                and 1e-14 < abs(self.u0) < 1.0)

    def dual(self) -> "ReprParams":
        return ReprParams(-complex(self.u), self.parity)


def _check_parity(m: int, parity: str):
    if parity == "+" and m % 2 != 0:
        raise ParityMismatch(f"even weight required for parity '+', got m={m}")
    if parity == "-" and m % 2 == 0:
        raise ParityMismatch(f"odd weight required for parity '-', got m={m}")


class CayleySum:
    """Finite sum of terms c * (1+ix)^{-alpha} * (1-ix)^{-beta}.

    Closed under derivative, K-rotation phases, and multiplication by
    further (1+ix)^{-p} (1-ix)^{-q} powers.  Exposes exact asymptotic
    series at +-infinity for use by oscillatory tail quadrature.
    """

    def __init__(self, terms):
        # terms: dict {(alpha, beta): coeff}, exponents stored as complex
        merged = {}
        for (al, be), c in terms.items():
            key = (complex(al), complex(be))
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(c)
        self.terms = {k: v for k, v in merged.items() if v != 0}
        if not self.terms:
            self.terms = {(0.0 + 0j, 0.0 + 0j): 0.0 + 0.0j}

    @classmethod
    def ktype(cls, m: int, u: complex, coeff=1.0) -> "CayleySum":
        """K-type of weight m in P(u, .) (rep picture)."""
        al = (1.0 + u - m) / 2.0
        be = (1.0 + u + m) / 2.0
        return cls({(al, be): coeff})

    def __call__(self, x):
        # log(1 +- ix) = log r +- i theta on the principal branch, with
        # r = hypot(1, x) (finite where 1 + x^2 overflows, |x| > 1.3e154)
        # and theta = arctan x, so a term is r^{-Re(al+be)} times one
        # exponential; the real power keeps full precision where
        # (al+be) log r is large
        x = np.asarray(x, dtype=float)
        r = np.hypot(1.0, x)
        L = np.log(r)
        th = np.arctan(x)
        out = np.zeros(x.shape, dtype=complex)
        for (al, be), c in self.terms.items():
            sig = al + be
            out += c * r ** -sig.real * np.exp(
                (-1j * sig.imag) * L + (-1j * (al - be)) * th)
        return out

    def __add__(self, other: "CayleySum") -> "CayleySum":
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, 0.0 + 0.0j) + v
        return CayleySum(t)

    def derivative(self) -> "CayleySum":
        # d/dx (1+ix)^{-al}(1-ix)^{-be}
        #   = -i*al (1+ix)^{-al-1}(1-ix)^{-be} + i*be (1+ix)^{-al}(1-ix)^{-be-1}
        t = {}
        for (al, be), c in self.terms.items():
            for key, cc in (((al + 1, be), -1j * al * c),
                            ((al, be + 1), 1j * be * c)):
                t[key] = t.get(key, 0.0 + 0.0j) + cc
        return CayleySum(t)

    def times_power(self, p, q) -> "CayleySum":
        """Multiply by (1+ix)^{-p} (1-ix)^{-q}."""
        return CayleySum({(al + p, be + q): c for (al, be), c in self.terms.items()})

    def rotate(self, theta: float) -> "CayleySum":
        """Phase a K-rotation puts on each term: weight m = beta - alpha
        picks up exp(i m theta)."""
        t = {}
        for (al, be), c in self.terms.items():
            m = be - al
            t[(al, be)] = c * cmath.exp(1j * m * theta)
        return CayleySum(t)

    @property
    def max_weight(self) -> float:
        return max(abs(be - al) for (al, be) in self.terms)

    @property
    def min_decay(self) -> float:
        """Smallest Re(alpha+beta): |f(x)| ~ |x|^{-min_decay}."""
        return min((al + be).real for (al, be) in self.terms)

    def asymptotic_series(self, side: str, order: int):
        """One (s0, a) per term, a an array of ``order`` coefficients,
        with f(x) ~ sum over terms of sum_n a[n] |x|^{-(s0+n)} as
        x -> +inf ('upper') or x -> -inf ('lower').  A shorter series is
        a prefix of a longer one."""
        out = []
        j = np.arange(1, order)
        for (al, be), c in self.terms.items():
            if side == "lower":
                al, be = be, al  # f(-|x|) swaps the two factors
            # (1+ix)^{-al} ~ e^{-i pi al/2} x^{-al} sum_j (al)_j i^j x^{-j}/j!
            # (1-ix)^{-be} ~ e^{+i pi be/2} x^{-be} sum_j (be)_j (-i)^j x^{-j}/j!
            pa = np.cumprod(np.concatenate(([1.0], (al + j - 1) * 1j / j)))
            pb = np.cumprod(np.concatenate(([1.0], (be + j - 1) * -1j / j)))
            pref = c * cmath.exp(-0.5j * math.pi * al) \
                * cmath.exp(0.5j * math.pi * be)
            out.append((al + be, pref * np.convolve(pa, pb)[:order]))
        return out


def ktype_eval(m: int, u: complex, parity: str, x):
    """Value at x of the weight-m K-type basis vector of P(u, parity),
    exponent -(1+u)/2; the vector of P(-u, parity) pairs against it."""
    _check_parity(m, parity)
    return CayleySum.ktype(m, u)(x)


@dataclass
class SmoothVector:
    """Finite K-type expansion sum_m c_m v_m^{(u)} in P(u, parity)."""

    params: ReprParams
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        for m in self.coeffs:
            _check_parity(m, self.params.parity)

    @classmethod
    def single(cls, m: int, u: complex, parity: str = None) -> "SmoothVector":
        parity = parity if parity is not None else ("+" if m % 2 == 0 else "-")
        return cls(ReprParams(u, parity), {m: 1.0 + 0.0j})

    @property
    def sampler(self) -> CayleySum:
        s = CayleySum({})
        for m, c in self.coeffs.items():
            s = s + CayleySum.ktype(m, self.params.u, c)
        return s

    def rotated(self, theta: float) -> "SmoothVector":
        """Exact K-action: c_m -> exp(i m theta) c_m."""
        return SmoothVector(self.params,
                            {m: c * cmath.exp(1j * m * theta)
                             for m, c in self.coeffs.items()})

    def validate(self) -> float:
        """Max deviation between the sampler and the term-by-term sum on
        41 points of [-5, 5]; above 1e-10 it raises AssertionError."""
        xs = np.linspace(-5.0, 5.0, 41)
        direct = sum(c * ktype_eval(m, self.params.u, self.params.parity, xs)
                     for m, c in self.coeffs.items())
        dev = float(np.max(np.abs(self.sampler(xs) - direct)))
        if dev > 1e-10:
            raise AssertionError(f"K-type expansion inconsistent: {dev:.3e}")
        return dev


def as_cayley(v) -> CayleySum:
    """The CayleySum behind ``v``, a CayleySum or a SmoothVector; anything
    else (a plain callable too) raises TypeError."""
    if isinstance(v, SmoothVector):
        return v.sampler
    if isinstance(v, CayleySum):
        return v
    raise TypeError(
        f"need a CayleySum or SmoothVector, got {type(v).__name__}")


def act(g, f, u: complex, parity: str = "+"):
    """Group action in the noncompact picture of P(u, parity).

    (pi(g) f)(x) = chi(a - c x) |a - c x|^{-1-u} f((d x - b)/(a - c x)).
    Returns a vectorized closure; evaluation at the pole a - c x = 0
    raises PoleAtSample.
    """
    a, b, c, d = g.a, g.b, g.c, g.d

    def acted(x):
        x = np.asarray(x, dtype=float)
        denom = a - c * x
        if np.any(np.abs(denom) < POLE_EPS * (1.0 + np.abs(x))):
            raise PoleAtSample(f"evaluation at pole a - c x = 0 (a={a}, c={c})")
        chi = np.sign(denom) if parity == "-" else 1.0
        return chi * np.abs(denom) ** (-1.0 - u) * f((d * x - b) / denom)

    return acted


def compact_picture(f, u: complex):
    """Compact-picture realization of a noncompact-picture sampler.

    Uses the substitution x = tan(theta); a weight-m K-type maps to
    exp(i m theta) exactly:  F(theta) = f(tan theta) * |cos theta|^{-(1+u)}.
    Defined away from theta = pi/2 mod pi (the point x = infinity).
    """

    def on_circle(theta):
        theta = np.asarray(theta, dtype=float)
        ct = np.cos(theta)
        if np.any(np.abs(ct) < 1e-13):
            raise PoleAtSample("compact picture sampled at theta = pi/2 mod pi")
        return f(np.tan(theta)) * np.abs(ct) ** (-(1.0 + u))

    return on_circle
