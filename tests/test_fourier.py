import importlib.util
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlab
import normlab.fourier
import normlab.quadrature
from normlab.automorphic import PeriodicDistribution, whittaker_eval
from normlab.errors import (AccuracyNotReached, NonIntegrableExponent,
                            NotIntegrable, ZeroFrequency)
from normlab.fourier import (_cayley_tails, _panel_core, _panel_sums,
                             _split_radius, _tail_order, fourier_transform,
                             fourier_transform_batch, live_edge,
                             regularized_pairing, transform_bound,
                             series_coefficient_quadrature,
                             signed_sin_power_series, sin_power_series)
from normlab.group import KanCoords
from normlab.norms import comp_norm, intertwine_apply
from normlab.principal import CayleySum, ReprParams, SmoothVector
from normlab.quadrature import expint, tanh_sinh_map

TWO_PI = 2.0 * math.pi


def test_cauchy_kernel_closed_form():
    # F[1/(1+x^2)](xi) = pi exp(-2 pi |xi|)
    cs = CayleySum({(1.0, 1.0): 1.0})
    for xi in (0.1, 0.5, -1.3, 2.0):
        got = fourier_transform(cs, xi)
        assert got == pytest.approx(math.pi * math.exp(-TWO_PI * abs(xi)),
                                    rel=1e-9)


def test_one_sided_kernel():
    # 1/(1+ix) has its pole in the upper half plane: transform supported
    # on xi < 0, value 2 pi e^{2 pi xi}
    cs = CayleySum({(1.0, 0.0): 1.0})
    assert fourier_transform(cs, -0.7) == pytest.approx(
        TWO_PI * math.exp(-TWO_PI * 0.7), rel=1e-9)
    assert abs(fourier_transform(cs, 0.7)) < 1e-9


@pytest.mark.parametrize("u", [0.0, 0.5, -0.5, 0.3])
def test_bessel_oracle(u):
    # F[(1+x^2)^{-s}](xi) = 2 pi^s |xi|^{s-1/2} K_{s-1/2}(2 pi |xi|)/Gamma(s)
    s = (1.0 + u) / 2.0
    cs = CayleySum.ktype(0, u)
    for xi in (0.25, 1.0, 3.0):
        expect = 2.0 * mpmath.pi ** s * abs(xi) ** (s - 0.5) \
            * mpmath.besselk(s - 0.5, TWO_PI * abs(xi)) / mpmath.gamma(s)
        got = fourier_transform(cs, xi, tol=1e-10)
        # tolerance is absolute: values decay like e^{-2 pi |xi|}
        assert got.real == pytest.approx(float(expect), rel=1e-6, abs=1e-12)
        assert abs(got.imag) < 1e-12


def test_batch_matches_scalar():
    cs = CayleySum.ktype(2, 0.4j) + CayleySum.ktype(-2, 0.4j, 0.3)
    xis = np.array([-2.0, -0.3, 0.5, 1.7])
    batch = fourier_transform_batch(cs, xis)
    for xi, b in zip(xis, batch):
        assert fourier_transform(cs, xi) == pytest.approx(b, rel=1e-10)


def test_dead_zone_returns_zero_with_bound():
    cs = CayleySum.ktype(0, 0.0)
    vals, err, _ = fourier_transform_batch(cs, np.array([1e5, 0.5]),
                                           return_err=True)
    assert vals[0] == 0.0
    assert vals[1] != 0.0
    # the analytic bound folded into the error covers the dropped value
    assert err < 1e-9


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("u", [0.5, -0.3, 0.7j, 0.2 + 0.4j])
def test_live_edge_is_where_the_zeros_start(u, tol):
    for m in (0, 1, 8, 63, 128, 256):
        cs = CayleySum.ktype(m, u)
        e = live_edge(cs)
        inside, outside = e - 1e-12, e + 1e-12
        vals = fourier_transform_batch(
            cs, np.array([inside, -inside, outside, -outside]), tol)
        assert np.all(vals[:2] != 0.0) and np.all(vals[2:] == 0.0), m


def _whittaker_abs_fv(m, u, xi):
    # |F[ktype(m, u)](xi)| in closed form (Gradshteyn & Ryzhik 3.384.9):
    # 2 pi 2^{-(al+be)/2} p^{(al+be)/2-1} W_{(be-al)/2, (1-al-be)/2}(2 p)
    # / Gamma(be), p = 2 pi xi, for xi > 0; al and be swap for xi < 0
    al, be = mpmath.mpc((1 + u - m) / 2), mpmath.mpc((1 + u + m) / 2)
    if xi < 0:
        al, be = be, al
    p = 2 * mpmath.pi * abs(xi)
    return float(abs(2 * mpmath.pi * 2 ** (-(al + be) / 2)
                     * p ** ((al + be) / 2 - 1) * mpmath.rgamma(be)
                     * mpmath.whitw((be - al) / 2, (1 - al - be) / 2, 2 * p)))


_BOUND_GRID = [(m, u) for m in (0, 2, 8, 64, 128, 256)
               for u in (0.5, -0.75, 0.25, 0.7j, 1j)]


@pytest.mark.parametrize("m,u", _BOUND_GRID)
def test_transform_bound_against_whittaker(m, u):
    # never below |Fv| on either sign; at weight >= 64, on xi > 0 past the
    # turning point 2 pi xi = m, within x2 of it (measured: at most 1.18)
    cs = CayleySum.ktype(m, u)
    xis = [0.5, 2.0, 7.0, -0.5, -2.0]
    past = list(np.linspace(m / TWO_PI + 1.0, live_edge(cs), 5)) \
        if m >= 64 else []
    with mpmath.workdps(20):
        fv = np.array([_whittaker_abs_fv(m, u, x) for x in xis + past])
    bound = transform_bound(cs, np.array(xis + past))
    assert np.all(bound >= fv)
    assert np.all(bound[len(xis):] <= 2.0 * fv[len(xis):])


@pytest.mark.parametrize("m,u", _BOUND_GRID)
def test_zeroed_frequencies_are_below_the_rounding_floor(m, u):
    # every frequency the engine zeroes has |Fv| <= 2^-52 sum |c|, so an
    # exact 0 is as accurate as any value it computes.  |Fv| falls past
    # the turning point, so the edge itself is the worst point.  Weight
    # 256 adds the band [52.5, 56] on xi > 0, where a margin edge of
    # (4 ln(1e8) + w) / 2 pi = 52.47 zeroed values of about 4e-12.  On
    # xi < 0 at weights >= 128 |Fv| is below 1e-170 at the edge, where
    # mpmath's W takes seconds; transform_bound (checked above) reads
    # below 1e-80 there
    cs = CayleySum.ktype(m, u)
    edge = live_edge(cs)
    xis = [edge * (1 + 1e-12), 1.05 * edge] + (
        [-edge * (1 + 1e-12), -1.05 * edge] if m < 128 else [])
    if m == 256:
        xis += list(np.linspace(52.5, 56.0, 8))
    vals = fourier_transform_batch(cs, np.array(xis))
    assert np.all(vals[:2] == 0.0)
    with mpmath.workdps(20):
        for xi, val in zip(xis, vals):
            if val == 0.0:
                assert _whittaker_abs_fv(m, u, xi) <= 2.0 ** -52, xi


def test_zero_frequency_divergence():
    slow = CayleySum({(0.5, 0.25): 1.0})  # decay exponent 0.75 <= 1
    with pytest.raises(NotIntegrable):
        fourier_transform(slow, 0.0)


def test_regularized_pairing_matches_transform():
    # for an absolutely integrable v the regularized pairing is F[v](-n)
    cs = CayleySum({(1.0, 1.0): 1.0})
    for n in (1.0, -2.0, 0.5):
        direct = fourier_transform(cs, -n)
        reg = regularized_pairing(n, cs)
        assert reg == pytest.approx(direct, rel=1e-7)
    with pytest.raises(ZeroFrequency):
        regularized_pairing(0.0, cs)


@pytest.mark.parametrize("s,z", [(1.5 + 0.5j, 2.0 + 3.0j),
                                 (0.25, 0.1 + 0.0j),
                                 (2.0 + 0.0j, 5.0 - 40.0j),
                                 (1.0 + 2.0j, 0.5 + 0.5j)])
def test_expint_against_mpmath(s, z):
    got = complex(np.asarray(expint(s, np.array([z])))[0])
    expect = complex(mpmath.expint(s, z))
    assert got == pytest.approx(expect, rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# periodic multiplier series
# ---------------------------------------------------------------------------

def test_tanh_sinh_levels_nest():
    # level l = level l-1 (half weight) + the new odd nodes
    def f(x):
        return x ** -0.7 * np.cos(5.0 * x)
    for level in (3, 6, 9):
        x, w = tanh_sinh_map(0.0, 1.0, level)
        xc, wc = tanh_sinh_map(0.0, 1.0, level - 1)
        xn, wn = tanh_sinh_map(0.0, 1.0, level, new_only=True)
        assert np.array_equal(np.sort(x), np.sort(np.concatenate([xc, xn])))
        assert np.sum(w * f(x)) == pytest.approx(
            0.5 * np.sum(wc * f(xc)) + np.sum(wn * f(xn)), rel=1e-14)


def test_sin_series_classical():
    # |sin theta| = 2/pi - (2/pi) sum e^{2 i k theta}/(4k^2-1)
    table = sin_power_series(1.0, 6)
    assert table.coeffs[0].real == pytest.approx(2.0 / math.pi, abs=1e-9)
    for k in range(1, 7):
        expect = -2.0 / (math.pi * (4.0 * k * k - 1.0))
        assert table.coeffs[2 * k].real == pytest.approx(expect, abs=1e-9)
        assert abs(table.coeffs[2 * k].imag) < 1e-12


def test_sin_series_quadrature_oracle():
    s = -0.4 + 0.3j
    table = sin_power_series(s, 4)
    for j in (0, 4):
        oracle = series_coefficient_quadrature(s, j)
        declared = table.errors[j]
        assert abs(table.coeffs[j] - oracle) < 1e-8 + 4.0 * declared


def test_signed_sin_series_quadrature_oracle():
    s = -0.3
    table = signed_sin_power_series(s, 4)
    for j in (1, 3, -1):
        oracle = series_coefficient_quadrature(s, j)
        declared = table.errors[j]
        assert abs(table.coeffs[j] - oracle) < 1e-8 + 4.0 * declared


def test_sin_series_reconstruction_decay():
    # L2 error over theta-samples shrinks as the truncation doubles
    s = 0.5
    thetas = np.linspace(0.05, math.pi - 0.05, 500)
    target = np.sin(thetas) ** s
    errs = []
    for K in (4, 8, 16):
        table = sin_power_series(s, K)
        errs.append(float(np.sqrt(np.mean(
            np.abs(table.reconstruct(thetas) - target) ** 2))))
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]


def test_sin_series_decay_bound():
    table = sin_power_series(-0.5, 8)
    h = table.decay_constant()
    for j, c in table.coeffs.items():
        assert abs(c) <= h / math.sqrt(1.0 + (j / 2.0) ** 2) + 1e-12


def test_non_integrable_exponent():
    with pytest.raises(NonIntegrableExponent):
        sin_power_series(-1.2, 4)
    with pytest.raises(NonIntegrableExponent):
        signed_sin_power_series(-1.0, 4)


def _sin_power_reference(s, j):
    """c_j(s) = e^{-i pi j/2} Gamma(s+1) / (2^s Gamma(1 + (s+j)/2)
    Gamma(1 + (s-j)/2)) at 40 digits."""
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        return complex(mpmath.exp(-0.5j * mpmath.pi * j) * mpmath.gamma(s + 1)
                       * mpmath.rgamma(1 + (s + j) / 2)
                       * mpmath.rgamma(1 + (s - j) / 2) / 2 ** s)


@pytest.mark.parametrize("K", [8, 10_000])
@pytest.mark.parametrize("s", [-0.999, -0.9, -0.5, -0.4 + 0.3j, -0.7 + 0.4j,
                               0.0, 0.3, 1.0, 2.0, 2.5, 4.0 + 1.0j])
def test_sin_series_within_declared_error(s, K):
    # every entry finite; at K = 10,000 the mpmath comparison reads both
    # ends and every 499th entry, the ends being where the running
    # product is longest
    for table in (sin_power_series(s, K), signed_sin_power_series(s, K)):
        js = sorted(table.coeffs)
        c = np.array([table.coeffs[j] for j in js])
        assert np.all(np.isfinite(c))
        assert np.all(np.isfinite([table.errors[j] for j in js]))
        for j in js if K <= 8 else js[:16] + js[-16:] + js[::499]:
            ref = _sin_power_reference(s, j)
            assert abs(table.coeffs[j] - ref) <= table.errors[j], (s, j)
            assert table.errors[j] <= 1e-12 * abs(ref), (s, j)


@pytest.mark.parametrize("s, odd, exact", [
    (2.0, False, {0: 0.5, 2: -0.25, -2: -0.25}),
    (0.0, False, {0: 1.0}),
    (1.0, True, {1: -0.5j, -1: 0.5j}),
])
def test_sin_series_exact_polynomials(s, odd, exact):
    # sin^2 = 1/2 - (e^{2i theta} + e^{-2i theta})/4, sin^0 = 1 and
    # sin = (e^{i theta} - e^{-i theta})/(2i): every other entry is an
    # exact zero with a zero error
    table = (signed_sin_power_series if odd else sin_power_series)(s, 6)
    for j, c in table.coeffs.items():
        want = exact.get(j, 0.0)
        assert abs(c - want) <= table.errors[j]
        assert abs(c - want) <= 1e-15
        if want == 0.0:
            assert c == 0.0 and table.errors[j] == 0.0


@given(st.floats(-1.0, 4.0, exclude_min=True), st.floats(-2.0, 2.0),
       st.integers(-128, 128))
@settings(max_examples=200, deadline=None)
def test_sin_series_closed_form_matches_folded_quadrature(re, im, j):
    # the tolerance is relative for |c_j| > 1: as Re s -> -1 the folded
    # integral's g(0) (pi/2)^{s+1}/(s+1) term grows like |c_0| itself
    s = complex(re, im)
    if j % 2:
        table = signed_sin_power_series(s, (abs(j) + 1) // 2)
    else:
        table = sin_power_series(s, abs(j) // 2)
    oracle = series_coefficient_quadrature(s, j)
    assert abs(table.coeffs[j] - oracle) <= 1e-10 * max(1.0, abs(oracle))


@pytest.mark.parametrize("s", [-0.999, -0.99999, -0.5 + 2.0j, 0.3, 4.0 - 2.0j])
@pytest.mark.parametrize("j", [0, 1, -2, 7, 64, -127, 128])
def test_series_oracle_resolves_the_singular_end(s, j):
    oracle = series_coefficient_quadrature(s, j)
    assert abs(oracle - _sin_power_reference(s, j)) <= 1e-10


# ---------------------------------------------------------------------------
# generalized exponential integral and the transform tails, against mpmath
# ---------------------------------------------------------------------------

_EXPINT_S = (0.25, 0.75, 1.0, 1.25, 2.0, 2.5, 5.25, 8.25, 10.25, 15.5,
             20.25, 30.25, 45.75, 60.0)
_EXPINT_R = (0.05, 0.3, 1.0, 1.9, 2.1, 3.0, 4.5, 6.0, 7.9, 8.1, 12.0, 20.0,
             35.0, 60.0)


@pytest.mark.parametrize("axis", [1.0, 1j, -1j])
def test_expint_meets_1e13_on_both_axes(axis):
    # the |z| <= 8 power series lost up to 7 digits to cancellation here
    # (E_{10.25}(7.9): 1.9e-7)
    mpmath.mp.dps = 40
    try:
        zs = np.array(_EXPINT_R) * axis
        for s in _EXPINT_S:
            got = expint(s, zs)
            for z, g in zip(zs, got):
                ref = complex(mpmath.expint(s, mpmath.mpc(z.real, z.imag)))
                assert abs(g - ref) <= 1e-13 * abs(ref), (s, z)
    finally:
        mpmath.mp.dps = 15


@pytest.mark.parametrize("axis", [1.0, 1j, -1j])
def test_expint_near_integer_orders(axis):
    # Gamma(1-s) z^{s-1} and the k = n-1 series term cancel as s -> n: a
    # difference of the two lost up to 7 digits at |s - n| = 1e-8; e = 0,
    # the integer order itself, is the limit of the same expression
    mpmath.mp.dps = 40
    try:
        zs = np.array([0.05, 0.5, 1.5, 1.99]) * axis
        for n in (1, 2, 3, 6):
            for e in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
                for s in {n + e, n - e}:
                    got = expint(s, zs)
                    for z, g in zip(zs, got):
                        ref = _mp_expint(complex(s), z)
                        assert abs(g - ref) <= 1e-13 * abs(ref), (s, z)
    finally:
        mpmath.mp.dps = 15


def _mp_expint(s, z):
    return complex(mpmath.expint(mpmath.mpc(s.real, s.imag),
                                 mpmath.mpc(z.real, z.imag)))


@pytest.mark.parametrize("conj", [False, True])
def test_expint_raises_off_its_domain(conj):
    # Im s = 50 against z on the opposite axis: the series and the
    # fraction were off by 5.6e-6 at z = -20i and 5.8e-8 at z = -21i, and
    # the fraction's stop test passed on the wrong value
    s = 1.25 + 50j
    flip = np.conj if conj else (lambda x: x)
    for z in (-20j, -21j, -8j, -40j):
        with pytest.raises(AccuracyNotReached):
            expint(flip(s), flip(z))
    # one element off the domain fails the whole batch
    with pytest.raises(AccuracyNotReached):
        expint(flip(np.array([1.25, s])), flip(np.array([-20j, -20j])))
    # the same axis goes to the fraction, which is accurate there; just
    # outside the raising band both branches are
    mpmath.mp.dps = 30
    try:
        for sv, z in ((s, 20j), (s, 21j), (s, 2.5j), (s, -7.5j), (s, -41j),
                      (1.25 + 15j, -10j), (30.25 + 40j, -33j)):
            sv, z = flip(sv), flip(z)
            ref = _mp_expint(sv, z)
            assert abs(expint(sv, z) - ref) <= 1e-13 * abs(ref), (sv, z)
    finally:
        mpmath.mp.dps = 15


@pytest.mark.parametrize("axis", [1j, -1j])
def test_expint_mixed_orders_match_scalar_calls(axis):
    # every order against every |z| of both branches (series for |z| <= 2,
    # the fraction beyond), integer orders included, shuffled into one
    # batch; each element must equal its own scalar-order call
    orders = np.array([0.25, 1.0, 2.0, 3.0, 3.25, 10.25, 45.75, 1.0 + 0.6j,
                       0.5 - 0.4j, 2.25 + 3.0j])
    radii = np.array([0.05, 0.7, 1.5, 1.99, 2.01, 3.0, 7.9, 12.0, 40.0])
    s, z = (a.ravel() for a in np.meshgrid(orders, radii * axis))
    perm = np.random.default_rng(5).permutation(len(s))
    s, z = s[perm], z[perm]
    got = expint(s, z)
    for sk, zk, g in zip(s, z, got):
        one = expint(sk, np.array([zk]))[0]
        assert abs(g - one) <= 1e-14 * abs(one), (sk, zk)
    # orders broadcast against arguments
    grid = expint(orders[:, None], radii * axis)
    assert grid.shape == (len(orders), len(radii))
    one = expint(orders[3], radii[4] * axis)
    assert abs(grid[3, 4] - one) <= 1e-14 * abs(one)


def test_empty_inputs_give_empty_outputs():
    assert expint(2.5, np.array([])).shape == (0,)
    assert expint(np.array([[1.5], [2.5]]), np.array([])).shape == (2, 0)
    vals, err, _ = fourier_transform_batch(CayleySum.ktype(2, 0.3),
                                           np.array([]), return_err=True)
    assert vals.shape == (0,) and err == 0.0


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("u", [0.0, 0.5, -0.5, 0.3])
def test_error_estimate_covers_bessel_oracle(u, tol):
    # the estimate (the panel sum on h against h/2, the tail bound and a
    # rounding floor) must bound the true error against the closed form
    s = (1.0 + u) / 2.0
    cs = CayleySum.ktype(0, u)
    xis = np.array([0.01, 0.1, 0.25, 1.0, 3.0, -0.4])
    vals, err, _ = fourier_transform_batch(cs, xis, tol, return_err=True)
    for xi, got in zip(xis, vals):
        expect = 2.0 * mpmath.pi ** s * abs(xi) ** (s - 0.5) \
            * mpmath.besselk(s - 0.5, TWO_PI * abs(xi)) / mpmath.gamma(s)
        assert abs(got - float(expect)) <= err, xi


@pytest.mark.parametrize("u", [0.0, 0.5, -0.5, 0.3])
def test_error_estimate_is_sharp(u):
    # the estimate compares the rule with itself on panels of half the
    # width; the true error on these cases is about 2e-15 to 5e-15
    cs = CayleySum.ktype(0, u)
    xis = np.array([0.01, 0.1, 0.25, 1.0, 3.0, -0.4])
    _, err, _ = fourier_transform_batch(cs, xis, 1e-10, return_err=True)
    assert 0.0 < err <= 1e-11


@pytest.mark.parametrize("cs,xis", [
    (CayleySum.ktype(0, 0.3), np.array([0.01, -0.4, 3.0])),
    # 1e3 is past the dead zone
    (CayleySum.ktype(184, 0.5), np.array([-1e3, -20.0, 0.02, 7.5, 31.0])),
])
def test_error_estimate_leaves_values_unchanged(cs, xis):
    vals, _, _ = fourier_transform_batch(cs, xis, 1e-8, return_err=True)
    assert np.array_equal(vals, fourier_transform_batch(cs, xis, 1e-8))


@pytest.mark.parametrize("n", [1, 2, 7, 25, 33, 34, 35, 100, 1001])
def test_panel_sums_match_their_definition(n):
    # T_j(theta) = sum_q gv[n // 2 + q, j] e^{-i q theta}; n < 2 SP + 2
    # holds the FFT grid at its floor, where the Gaussian's width must
    # come from the grid actually used
    rng = np.random.default_rng(n)
    gv = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    theta = np.concatenate([rng.uniform(-20.0, 20.0, 200),
                            [0.0, TWO_PI, -TWO_PI, 1e-17, TWO_PI - 1e-12]])
    q = np.arange(n) - n // 2
    direct = np.exp(-1j * np.outer(theta, q)) @ gv
    got = _panel_sums(gv, theta)
    assert got.shape == (len(theta), 16)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(gv))


def _panel_count(cs, xis, tol):
    # the engine's panel count for one call, sized by its live frequencies
    live = xis[np.abs(xis) < live_edge(cs)]
    om_max = TWO_PI * np.max(np.abs(live)) + cs.max_weight
    X = _split_radius(tol)
    return X, max(math.ceil(X), math.ceil(2.0 * X * (om_max + 1.0) * 3 / 32))


_MIXED = (CayleySum.ktype(6, 0.4) + CayleySum.ktype(
    4, 0.4, 0.5 - 0.25j).times_power(1.5, 0.5))
# real exponents and coefficients: the half pass
_REAL2 = (CayleySum.ktype(6, 0.4) + CayleySum.ktype(
    4, 0.4, 0.5).times_power(1.5, 0.5))

_PANEL_CASES = [
    # 25 panels, fewer than 2 SP + 2
    (CayleySum.ktype(0, 0.3), np.array([0.05, -0.3, 0.65]), 1e-6, 25, True),
    (CayleySum.ktype(0, -0.5), np.array([0.4]), 1e-8, 40, False),
    (CayleySum.ktype(0, 0.5), np.linspace(-6.0, 6.0, 25), 1e-10, None, True),
    (CayleySum.ktype(64, -0.5), np.linspace(-40.0, 40.0, 41), 1e-8, None,
     True),
    (CayleySum.ktype(184, 0.5), np.linspace(-45.0, 45.0, 31), 1e-10, None,
     True),
    (CayleySum.ktype(256, 0.25), np.linspace(-50.0, 50.0, 31), 1e-8, None,
     False),
    (_MIXED, np.linspace(-8.0, 8.0, 33), 1e-8, None, True),
    (_REAL2, np.linspace(-8.0, 8.0, 33), 1e-8, None, True),
    (CayleySum.ktype(8, 0.3j), np.linspace(-10.0, 10.0, 29), 1e-8, None,
     True),
]


def _engine_panels(cs, X, n):
    # the nodes and gv of the engine's n panels on [-X, X]
    x16, w16 = np.polynomial.legendre.leggauss(16)
    h = X / n
    nodes = (-X + h * (2.0 * np.arange(n) + 1.0))[:, None] + h * x16
    return nodes, h * w16 * cs(nodes)


@pytest.mark.parametrize("cs,xis,tol,n_max,wraps", _PANEL_CASES)
def test_gridded_panel_sum_matches_direct_sum(cs, xis, tol, n_max, wraps):
    # sum_{k,j} gv[k, j] e^{-i om x_kj} over the engine's panel grid, by
    # the gridded FFT and term by term
    X, n = _panel_count(cs, xis, tol)
    assert n_max is None or n <= n_max
    x16, w16 = np.polynomial.legendre.leggauss(16)
    h = X / n
    nodes = -X + h * (2.0 * np.arange(n)[:, None] + 1.0 + x16)
    gv = h * w16 * cs(nodes)
    oms = TWO_PI * xis
    theta = 2.0 * h * np.abs(oms)
    assert wraps == (np.max(theta) > TWO_PI > np.min(theta))
    direct = np.exp(-1j * np.outer(oms, nodes.ravel())) @ gv.ravel()
    got = _panel_core(cs, X, n, oms)[0]
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(gv))


@pytest.mark.parametrize("cs,xis,tol,n_max,wraps", _PANEL_CASES)
def test_panel_floor_bounds_the_rounding(cs, xis, tol, n_max, wraps):
    # the declared floor eps (sqrt(16 n) + X max |om|) sum |gv| against
    # the gap to a term-by-term sum with long-double phases on the same
    # float nodes and gv: at weight 184 the full pass is 5.6e-14 sum |gv|
    # off, above the sqrt(16 n) term alone (5.3e-14 sum |gv|)
    X, n = _panel_count(cs, xis, tol)
    nodes, gv = _engine_panels(cs, X, n)
    oms = TWO_PI * xis
    x, g = nodes.ravel().astype(np.longdouble), gv.ravel()
    re, im = g.real.astype(np.longdouble), g.imag.astype(np.longdouble)
    direct = np.empty(len(oms), dtype=complex)
    for i, om in enumerate(oms):
        ph = np.longdouble(om) * x
        c, s = np.cos(ph), np.sin(ph)
        direct[i] = complex(float(np.sum(re * c + im * s)),
                            float(np.sum(im * c - re * s)))
    got, floor = _panel_core(cs, X, n, oms)
    assert floor == pytest.approx(np.finfo(float).eps * (
        math.sqrt(16 * n) + X * np.max(np.abs(oms))) * np.sum(np.abs(gv)),
        rel=1e-12)
    assert np.max(np.abs(got - direct)) <= floor


@pytest.mark.parametrize("weight", [0, 8, 64, 184, 256])
def test_half_pass_admits_no_complex_sampler(weight):
    # a real-u K-type takes the half pass (2 Re of 8 node columns), i v
    # and a rotated v the full one: F is linear and F[v.rotate(theta)] =
    # e^{i m theta} F[v], which 2 Re of a complex sampler would break.
    # The passes agree to the gridded sum's accuracy (measured 1.3e-14
    # sum |gv|; the full pass alone leaves an imaginary part of up to
    # 9e-15 sum |gv| on this real F)
    v = CayleySum.ktype(weight, 0.5)
    xis = np.linspace(-4.0, weight / TWO_PI + 4.0, 37)
    gv = _engine_panels(v, *_panel_count(v, xis, 1e-8))[1]
    bound = 1e-13 * np.sum(np.abs(gv))
    fv = fourier_transform_batch(v, xis, 1e-8)
    iv = CayleySum({k: 1j * c for k, c in v.terms.items()})
    assert np.max(np.abs(fourier_transform_batch(iv, xis, 1e-8) - 1j * fv)) \
        <= bound
    for theta in (0.3, 2.0):
        rot = fourier_transform_batch(v.rotate(theta), xis, 1e-8)
        assert np.max(np.abs(rot - np.exp(1j * weight * theta) * fv)) <= bound


@pytest.mark.parametrize("n", [40, 196, 197, 1001])
def test_half_pass_is_anchored_at_the_grid_centre(monkeypatch, n):
    # the mirrored grid is centred on 0 exactly, while the float mids[n //
    # 2] is an ulp of X off (by 3.3e-15 at n = 196): 2 Re of a sum phased
    # there parts from the full pass by 1.9e-14 sum |gv| at n = 196 and
    # weight 0, where the two passes otherwise agree to 1e-15 sum |gv|
    v = CayleySum.ktype(0, 0.5)
    oms = TWO_PI * np.linspace(-6.0, 6.0, 49)
    half = _panel_core(v, 40.0, n, oms)[0]
    monkeypatch.setattr(normlab.fourier, "_mirrored", lambda cs: False)
    full = _panel_core(v, 40.0, n, oms)[0]
    gv = _engine_panels(v, 40.0, n)[1]
    assert np.max(np.abs(half - full)) <= 2e-15 * np.sum(np.abs(gv))


@pytest.mark.parametrize("cs,cols", [
    (CayleySum.ktype(8, 0.5), 8), (_REAL2, 8),
    (CayleySum.ktype(8, 0.3j), 16), (_MIXED, 16)])
def test_panel_pass_node_count(monkeypatch, cs, cols):
    # a conjugate-symmetric sampler is evaluated at 8 n nodes a pass, any
    # other at 16 n; return_err makes a second pass on 2 n panels
    seen = []
    original = CayleySum.__call__

    def counting(self, x):
        seen.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(CayleySum, "__call__", counting)
    xis = np.linspace(-8.0, 8.0, 32)
    n = _panel_count(cs, xis, 1e-8)[1]
    fourier_transform_batch(cs, xis, 1e-8)
    assert seen == [cols * n]
    seen.clear()
    fourier_transform_batch(cs, xis, 1e-8, return_err=True)
    assert seen == [cols * n, 2 * cols * n]


@pytest.mark.parametrize("weight", [0, 64, 128, 256])
def test_full_pass_leaves_a_real_transform_real(monkeypatch, weight):
    # the panel midpoints are exactly antisymmetric, so a real-u K-type
    # (v(-x) = conj v(x), F real) forced onto the full pass keeps an
    # imaginary part at the rounding of sum |gv| (measured 5.6e-17; up to
    # 5.7e-14 at weight 128 with midpoints -X + h (2k + 1))
    monkeypatch.setattr(normlab.fourier, "_mirrored", lambda cs: False)
    for u in (0.5, -0.75, 0.25):
        cs = CayleySum.ktype(weight, u)
        xis = np.linspace(-4.0, weight / TWO_PI + 4.0, 41)
        X, n = _panel_count(cs, xis, 1e-8)
        got = _panel_core(cs, X, n, TWO_PI * xis)[0]
        gv = _engine_panels(cs, X, n)[1]
        assert np.max(np.abs(got.imag)) <= 1e-15 * np.sum(np.abs(gv)), u


@pytest.mark.parametrize("cs", [CayleySum.ktype(8, 0.5),
                                CayleySum.ktype(8, 0.3j), _MIXED])
def test_each_distinct_frequency_is_transformed_once(monkeypatch, cs):
    # both signs of level 7's tanh-sinh nodes on (0, 1], 47 of whose 257
    # round to 1.0: 514 frequencies, 422 distinct.  The values equal, bit
    # for bit, the panel sums and tails taken at every requested one
    x = tanh_sinh_map(0.0, 1.0, 7)[0]
    xis = np.concatenate([x, -x])
    seen = []
    original = normlab.fourier._panel_core

    def counting(cs, X, n, oms):
        seen.append(len(oms))
        return original(cs, X, n, oms)

    monkeypatch.setattr(normlab.fourier, "_panel_core", counting)
    got = fourier_transform_batch(cs, xis, 1e-8)
    assert seen == [422]
    X, n = _panel_count(cs, xis, 1e-8)
    J, _, series = _tail_order(cs, X, 1e-8)
    up, lo = ([(s0, a[:J]) for s0, a in series[side]]
              for side in ("upper", "lower"))
    oms = TWO_PI * xis
    assert np.array_equal(got, original(cs, X, n, oms)[0]
                          + _cayley_tails(up, lo, X, oms))


def test_transform_memory_is_bounded():
    # the FFT grid interpolation gathers 2 SP + 1 grid rows per frequency
    # in fixed chunks: for all 20,000 frequencies at once that array alone
    # would be about 170 MB
    cs = CayleySum.ktype(256, 0.25)
    xis = np.linspace(-50.0, 50.0, 20000)
    fourier_transform_batch(cs, xis[:10])
    tracemalloc.start()
    try:
        vals = fourier_transform_batch(cs, xis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.all(np.isfinite(vals))


def test_every_expint_call_goes_through_a_traceable_binding(monkeypatch):
    # a tracer wraps fourier.expint and quadrature.expint by name: a
    # transform's tails must reach expint only through fourier's binding,
    # and expint must not call itself through its public name.  Both
    # sides share one chain here, run once per distinct point: per
    # distinct |xi| for a real order (the rest by conjugation), per
    # distinct +-xi for a complex one
    seen = {"fourier": 0, "quadrature": 0}
    original = normlab.quadrature.expint

    def counting(owner):
        def wrapped(s, z):
            seen[owner] += np.broadcast(s, z).size
            return original(s, z)
        return wrapped

    monkeypatch.setattr(normlab.fourier, "expint", counting("fourier"))
    monkeypatch.setattr(normlab.quadrature, "expint", counting("quadrature"))
    half = np.linspace(0.075, 3.0, 40)
    xis = np.concatenate([-half[::-1], [0.0], half])
    fourier_transform_batch(CayleySum.ktype(4, 0.3), xis)
    assert seen == {"fourier": len(half) + 1, "quadrature": 0}
    seen["fourier"] = 0
    fourier_transform_batch(CayleySum.ktype(4, 0.3 + 0.4j), xis)
    assert seen == {"fourier": len(xis), "quadrature": 0}
    for s, z in ((2.25, np.array([0.5j, 3.0j, -30.0j])),
                 (np.array([1.0, 2.5 + 1j, 7.25]), np.array([1.5j, -4j, 9j]))):
        original(s, z)
    assert seen["quadrature"] == 0


def test_every_traced_binding_resolves():
    # the benchmark's tracer wraps each BINDINGS entry by name and skips
    # one the package no longer has, so a refactor that drops a traced
    # name would leave its layer unmeasured without any test failing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, owner_path, attr, _ in spans.BINDINGS:
        owner = normlab
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), (layer, owner_path, attr)


def _plain(x):
    return 1.0 / (1.0 + np.asarray(x) ** 2)


@pytest.mark.parametrize("call", [
    lambda: fourier_transform_batch(_plain, np.array([0.5])),
    lambda: comp_norm(_plain, 0.0),
    lambda: intertwine_apply(_plain, 0.5, 0.0),
    lambda: whittaker_eval(
        PeriodicDistribution(1, {1: 1.0}, ReprParams(0.5j)), _plain,
        KanCoords(0.0, 1.0, 0.0)),
])
def test_plain_callables_raise_type_error(call):
    # the engine transforms CayleySums and SmoothVectors only
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
def test_cayley_tails_weight_256_against_mpmath(tol):
    # weight 256 puts |om X| at 4.6-8 for xi near 0.03, where the tail
    # needs E_s(z) at orders s up to 38; the same terms a[n] of order
    # s0 + n summed with mpmath's E_s at 40 digits are the reference.  The
    # terms reach 1e3 (tol 1e-8) and 1e4 (tol 1e-6) and cancel to O(1), so
    # the bound is relative to the sum of their sizes: 5e-15 of it is
    # about 15 ulps.
    cs = CayleySum.ktype(256, -0.75)
    X = _split_radius(tol)
    J = _tail_order(cs, X, tol)[0]
    up = cs.asymptotic_series("upper", J)
    lo = cs.asymptotic_series("lower", J)
    xis = np.array([0.029, 0.0305, 0.032, -0.031])
    got = _cayley_tails(up, lo, X, TWO_PI * xis)
    mpmath.mp.dps = 40
    try:
        for xi, g in zip(xis, got):
            ref, size = _mp_tails(up, lo, X, xi)
            assert abs(g - complex(ref)) < 5e-15 * float(size), xi
    finally:
        mpmath.mp.dps = 15


def _mp_tails(up, lo, X, xi):
    """The tail sum of :func:`_cayley_tails` at one frequency, term by
    term with mpmath's E_s, and the sum of its terms' sizes."""
    ref = mpmath.mpc(0)
    size = mpmath.mpf(0)
    for terms, sign in ((up, 1), (lo, -1)):
        z = mpmath.mpc(0, sign * TWO_PI * xi * X)
        for s0, a in terms:
            for n, c in enumerate(a.tolist()):
                s = mpmath.mpc(s0 + n)
                term = mpmath.mpc(c) * mpmath.mpf(X) ** (1 - s) \
                    * mpmath.expint(s, z)
                ref += term
                size += abs(term)
    return ref, size


_HALF = np.array([0.004, 0.05, 0.3, 1.1, 2.7])


@pytest.mark.parametrize("xis", [_HALF, np.concatenate([-_HALF[::-1], _HALF])],
                         ids=["one-sided", "symmetric"])
@pytest.mark.parametrize("cs", [
    CayleySum.ktype(6, 0.25j),
    CayleySum.ktype(6, 0.3 + 0.4j),
    CayleySum.ktype(10, 0.2j).times_power(0.3 + 0.1j, -0.2),
    SmoothVector(ReprParams(0.5), {0: 1.0, 4: 0.5 - 0.3j}).sampler,
], ids=["u=0.25j", "u=0.3+0.4j", "times_power", "two-ktypes"])
def test_paired_tails_against_mpmath(cs, xis):
    # both sides' series run as one chain per order class over the
    # distinct points +-om; a real order (the two-K-type sampler) takes
    # the points with t < 0 by conjugation.  30-digit mpmath E_s term by
    # term is the reference.  At xi = +-0.004 (|om X| = 1) the series-
    # seeded E_s put the error at up to 6e-15 of the terms' sizes, with
    # or without the pairing, so the bound is 1e-14 of them; a pairing
    # fault (a wrong side, sign or conjugate) is of the size of the tail
    tol = 1e-8
    X = _split_radius(tol)
    J = _tail_order(cs, X, tol)[0]
    up = cs.asymptotic_series("upper", J)
    lo = cs.asymptotic_series("lower", J)
    got = _cayley_tails(up, lo, X, TWO_PI * xis)
    mpmath.mp.dps = 30
    try:
        for xi, g in zip(xis, got):
            ref, size = _mp_tails(up, lo, X, xi)
            assert abs(g - complex(ref)) < 1e-14 * float(size), xi
    finally:
        mpmath.mp.dps = 15


@pytest.mark.parametrize("w, tol, J", [(256, 1e-8, 27), (400, 1e-10, 41)])
def test_tail_order_below_its_cap(w, tol, J):
    # the highest weights the tail series serves at these tols
    cs = CayleySum.ktype(w, 0.5)
    assert _tail_order(cs, _split_radius(tol), tol)[0] == J
    assert np.isfinite(comp_norm(cs, 0.5, tol).value)


def test_tail_order_raises_at_its_cap():
    # at weight 1000 and tol 1e-8 the 60-term series still misses tol
    # by a bound of 0.51 (the sum of the coefficients is 1): the
    # transform raises with that bound, not a value off by 98%
    with pytest.raises(AccuracyNotReached) as info:
        comp_norm(CayleySum.ktype(1000, 0.5), 0.5, 1e-8)
    assert info.value.achieved == pytest.approx(0.5072832572232722,
                                                rel=1e-9)
