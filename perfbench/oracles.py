"""Reference values computed apart from normlab.

Closed forms are evaluated with mpmath at 30 digits; group coordinates
and K-type samples are formed directly from the drawn numbers.  None of
this is timed, and none of it calls the program.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

mpmath.mp.dps = 30


@functools.lru_cache(maxsize=None)
def c2m(m: int, u: float) -> float:
    """Eigenvalue c_{2m}(u) of the intertwining operator on the weight-2m
    K-type: (-1)^m 2^{1-u} pi Gamma(u) / (Gamma((u+1)/2+m) Gamma((u+1)/2-m)),
    written through the reflection formula so that it stays finite at
    large m."""
    uu = mpmath.mpf(u)
    m = abs(m)
    val = 2 ** (1 - uu) * mpmath.gamma(uu) * mpmath.sin(mpmath.pi * (uu + 1) / 2) \
        * mpmath.exp(mpmath.loggamma(m + (1 - uu) / 2)
                     - mpmath.loggamma(m + (1 + uu) / 2))
    return float(val)


@functools.lru_cache(maxsize=None)
def g_of_u(u: float) -> float:
    """G(u) = pi^{u-1/2} Gamma((1-u)/2) / Gamma(u/2)."""
    uu = mpmath.mpf(u)
    return float(mpmath.pi ** (uu - 0.5) * mpmath.gamma((1 - uu) / 2)
                 / mpmath.gamma(uu / 2))


def ktype_norm(weight: int, u: float) -> float:
    """||v_w^{(u)}||^2_{C_u} = |G(u) pi c_w(u)| for the weight-w K-type."""
    return abs(g_of_u(u) * math.pi * c2m(weight // 2, u))


def ktype_dual(weight: int, u: float, x):
    """v_w^{(-u)}(x) = (1+x^2)^{-(1-u)/2} exp(i w arctan x)."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x * x) ** (-(1.0 - u) / 2.0) * np.exp(1j * weight * np.arctan(x))


def constant_region(c, T1, a1, eps, a_min):
    """Minus-region norm of the constant c with weight a^eps dT da/a dk,
    down to the hard cutoff a_min: 2 pi c^2 T1 (a1^eps - a_min^eps)/eps."""
    return 2.0 * math.pi * c * c * T1 * (a1 ** eps - a_min ** eps) / eps


def main_constant(T1, eps, period):
    """(1 + p (1+T1^2)/T1) max(2, 1 + sqrt(1+T1^2)^eps)."""
    s = math.sqrt(1.0 + T1 * T1)
    return (1.0 + period * (1.0 + T1 * T1) / T1) * max(2.0, 1.0 + s ** eps)


def kna_of(theta, a, t):
    """(theta mod 2 pi, T = a^2 t, a) of k_theta a n_t."""
    return theta % (2.0 * math.pi), a * a * t, a


def weyl_of(T, a):
    """(T', a') = (-T, sqrt(T^2+1)/a) for n_T a w."""
    return -T, math.sqrt(T * T + 1.0) / a


def angle_gap(x, y):
    """Distance of two angles on the circle."""
    d = (x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)
