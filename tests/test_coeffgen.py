import mpmath
import numpy as np
import pytest

from normlab.coeffs import (CoeffModel, generate, parse_model_spec,
                            ramanujan_tau_table, sigma_power, zeta)
from normlab.errors import ConstantTermPresent, RangeTooLarge


def _tau_bruteforce(N):
    """q prod (1-q^n)^24 expanded with exact integers."""
    L = N + 1
    poly = np.zeros(L, dtype=object)
    poly[0] = 1
    for n in range(1, L):
        nxt = poly.copy()
        for _ in range(24):
            shifted = np.zeros(L, dtype=object)
            shifted[n:] = nxt[:L - n]
            nxt = nxt - shifted
        poly = nxt
    return {n: int(poly[n - 1]) for n in range(1, N + 1)}


def test_tau_matches_bruteforce_to_100():
    tab = ramanujan_tau_table(100)
    brute = _tau_bruteforce(100)
    assert tab == brute
    assert tab[1] == 1
    assert tab[2] == -24
    assert tab[3] == 252
    assert tab[12] == -370944


def test_tau_multiplicativity_samples():
    tab = ramanujan_tau_table(100)
    for m, n in [(2, 3), (3, 5), (4, 7), (6, 11)]:
        assert tab[m * n] == tab[m] * tab[n]


def test_sigma_power():
    assert sigma_power(12, 0) == pytest.approx(6)  # 1,2,3,4,6,12
    assert sigma_power(12, 1) == pytest.approx(28)
    assert sigma_power(7, 2) == pytest.approx(50)
    s = sigma_power(6, 1j)
    expect = sum(d ** 1j for d in (1, 2, 3, 6))
    assert s == pytest.approx(expect)


def test_range_guard():
    with pytest.raises(RangeTooLarge):
        ramanujan_tau_table(10 ** 6 + 1)
    with pytest.raises(RangeTooLarge):
        CoeffModel("divisor", N=10 ** 6 + 1)
    with pytest.raises(ValueError):
        CoeffModel("maass")


def test_finite_model():
    model = parse_model_spec("finite:b1=1,b-2=0.5")
    dist = generate(model)
    assert dist.coeffs == {1: 1.0 + 0.0j, -2: 0.5 + 0.0j}
    assert 0 not in dist.coeffs


def test_finite_model_keeps_b0_for_the_constructor_to_refuse():
    with pytest.raises(ConstantTermPresent):
        generate(parse_model_spec("finite:b0=1,b1=1"))
    # a zero entry, b0 included, is absent
    dist = generate(parse_model_spec("finite:b0=0,b1=1,b2=0"))
    assert dist.coeffs == {1: 1.0 + 0.0j}


def test_random_decay_deterministic_and_decaying():
    model = parse_model_spec("random-decay:N=64,sigma=0.5,seed=3")
    a = generate(model)
    b = generate(model)
    assert a.coeffs == b.coeffs
    c = generate(parse_model_spec("random-decay:N=64,sigma=0.5,seed=4"))
    assert a.coeffs != c.coeffs
    # |b_j| ~ j^{-sigma} on average
    big = np.mean([abs(a.coeffs[j]) for j in range(1, 9)])
    small = np.mean([abs(a.coeffs[j]) for j in range(33, 65)])
    assert small < big


def test_divisor_model_symmetric():
    dist = generate(parse_model_spec("divisor:N=16,lam=0.5"))
    for j in range(1, 17):
        assert dist.coeffs[j] == dist.coeffs[-j]
        expect = sigma_power(j, 1j) * j ** -0.5
        assert dist.coeffs[j] == pytest.approx(expect)


def test_tau_model_one_sided():
    dist = generate(parse_model_spec("ramanujan-tau:N=10"))
    assert all(j > 0 for j in dist.coeffs)
    assert dist.coeffs[2] == -24


def test_parse_model_spec_errors():
    with pytest.raises(ValueError):
        parse_model_spec("divisor:qqq=1")
    m = parse_model_spec("divisor:N=8,lam=1,period=2,seed=5")
    assert (m.N, m.lam, m.period, m.seed) == (8, 1.0, 2, 5)


def test_zeta_against_mpmath():
    sr, si = np.meshgrid(np.linspace(1.1, 6.0, 15), np.linspace(-10, 10, 21))
    s = sr + 1j * si
    got = zeta(s)
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))
                        for z in s.ravel()]).reshape(s.shape)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
