"""Exact SL(2,R) arithmetic: KAN / KNA decompositions, the Weyl-flip
coordinate transform, and invariant-measure densities in each chart.

Conventions
-----------
k_theta = [[cos t, -sin t], [sin t, cos t]], theta in [0, 2*pi), extracted
from the first column of g by atan2.  a(s) = diag(s, 1/s) with s > 0.
n_t = [[1, t], [0, 1]].  The Weyl element is w = [[0, 1], [-1, 0]] = k at
theta = 3*pi/2.  K carries the measure d theta with total mass 2*pi
(K_MASS); every downstream formula that integrates over K uses this
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnimodular, OutOfRange, UnknownChart
from .quadrature import TWO_PI

DET_TOL = 1e-9
K_MASS = TWO_PI


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A 2x2 real matrix of determinant 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise NonUnimodular(f"det = {det!r} differs from 1 beyond {DET_TOL}")

    @classmethod
    def from_matrix(cls, m) -> "GroupElement":
        m = np.asarray(m, dtype=float)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement.from_matrix(self.matrix @ other.matrix)


def rotation(theta: float) -> GroupElement:
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(c, -s, s, c)


def diagonal(a: float) -> GroupElement:
    if a <= 0.0:
        raise OutOfRange("diagonal part requires a > 0")
    return GroupElement(a, 0.0, 0.0, 1.0 / a)


def unipotent(t: float) -> GroupElement:
    return GroupElement(1.0, t, 0.0, 1.0)


WEYL = GroupElement(0.0, 1.0, -1.0, 0.0)


@dataclass(frozen=True, slots=True)
class KanCoords:
    """g = k_theta * diag(a, 1/a) * n_t."""

    theta: float
    a: float
    t: float

    def reconstruct(self) -> GroupElement:
        return rotation(self.theta) @ diagonal(self.a) @ unipotent(self.t)


@dataclass(frozen=True, slots=True)
class KnaCoords:
    """g = k_theta * n_T * diag(a, 1/a)."""

    theta: float
    T: float
    a: float

    def reconstruct(self) -> GroupElement:
        return rotation(self.theta) @ unipotent(self.T) @ diagonal(self.a)


@dataclass(frozen=True, slots=True)
class WeylFlip:
    """n_T a w = k_residual * n_Tprime * aprime in KNA form."""

    T: float
    a: float
    Tprime: float
    aprime: float
    k_residual: float


def _theta_a(g: GroupElement):
    # first column of g is a * (cos theta, sin theta)
    a = math.hypot(g.a, g.c)
    if a < 1e-300:
        raise NonUnimodular("degenerate first column; corrupted input")
    theta = math.atan2(g.c, g.a) % TWO_PI
    return theta, a


def decompose_kan(g: GroupElement) -> KanCoords:
    """KAN coordinates of g; reconstruction is exact to ~1e-15."""
    theta, a = _theta_a(g)
    rest = rotation(-theta).matrix @ g.matrix  # diag(a, 1/a) * n_t
    t = rest[0, 1] / a
    return KanCoords(theta, a, t)


def decompose_kna(g: GroupElement) -> KnaCoords:
    """KNA coordinates of g; shares theta and a with the KAN chart,
    with T = a^2 t."""
    theta, a = _theta_a(g)
    rest = rotation(-theta).matrix @ g.matrix  # n_T * diag(a, 1/a)
    T = rest[0, 1] * a
    return KnaCoords(theta, T, a)


def weyl_flip(T: float, a: float) -> WeylFlip:
    """Coordinate transform of (T, a) under right multiplication by w."""
    if a <= 0.0:
        raise OutOfRange("weyl_flip requires a > 0")
    g = unipotent(T) @ diagonal(a) @ WEYL
    kna = decompose_kna(g)
    return WeylFlip(T=T, a=a, Tprime=kna.T, aprime=kna.a,
                    k_residual=kna.theta)


def weyl_flip_closed_form(T: float, a: float):
    """(T', a') = (-T, sqrt(T^2+1)/a) without going through matrices."""
    return -T, math.sqrt(T * T + 1.0) / a


def measure_weight(chart: str, coords) -> float:
    """Density of a reference measure in the given chart.

    KAN: invariant dg = a^2 dt (da/a) dk -> a^2.
    KNA: invariant dg = dT (da/a) dk -> 1.
    KAN-left: left Haar measure on P_0 = AN, (da/a) dt -> 1.
    """
    if chart == "KNA":
        return 1.0
    if chart == "KAN":
        return float(coords.a) ** 2
    if chart == "KAN-left":
        return 1.0
    raise UnknownChart(f"unknown chart {chart!r}")


def random_elements(n: int, seed: int) -> list:
    """Seeded random SL(2,R) elements, built as k a n products with
    log a and t standard normal."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, n)
    avals = np.exp(rng.normal(0.0, 1.0, n))
    tvals = rng.normal(0.0, 1.0, n)
    return [rotation(th) @ diagonal(av) @ unipotent(tv)
            for th, av, tv in zip(thetas, avals, tvals)]
