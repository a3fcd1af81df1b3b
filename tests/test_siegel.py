import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from normlab.automorphic import PeriodicDistribution
from normlab.coeffs import (CoeffModel, generate, parse_model_spec,
                            ramanujan_tau_table)
from normlab.errors import (AccuracyNotReached, DivergentIntegral,
                            EpsilonBarrier, MissingSymmetry, OutOfRange,
                            UnboundedOmega)
from normlab.fourier import fourier_transform_batch, live_edge
from normlab.group import KanCoords
from normlab.modular import CuspProfile, delta_profile, reduce_to_fundamental
from normlab.principal import CayleySum, ReprParams, SmoothVector
from normlab.quadrature import gauss_panels
from normlab.siegel import (A_MIN, MAX_SEGMENTS, ConstantFunction,
                            RegionSpec, WhittakerModel, _lattice_phases,
                            _segment_edges, eisenstein_scenario,
                            floor_sandwich, main2_check, main_bound_check,
                            main_constant, omega_a_norm, region_norm_full,
                            region_norm_minus, region_norm_plus_direct,
                            region_norm_plus_via_weyl,
                            region_norm_plus_weyl_exact)

TWO_PI = 2.0 * math.pi


def _model(coeffs={1: 1.0, -2: 0.5}, u=1j, m=0, weyl=False):
    tau = PeriodicDistribution(1, dict(coeffs), ReprParams(u, "+"))
    v = SmoothVector.single(m, -u, "+")
    return WhittakerModel(tau, v, assert_weyl=weyl)


def test_region_spec_validation():
    for bad in ({"a1": -1.0}, {"a1": math.nan}, {"a1": math.inf},
                {"T1": math.nan}, {"T1": -1.0}, {"eps": math.inf}):
        with pytest.raises(OutOfRange):
            RegionSpec(**{"T1": 1.0, "eps": 0.5, **bad})
    with pytest.raises(OutOfRange):
        RegionSpec(1.0, 0.5, side="left")


def test_constant_function_closed_form():
    # weight a^eps dT da/a dk over {0 < a <= a1, 0 <= T <= T1}:
    # value = 2 pi c^2 T1 (a1^eps - A_MIN^eps)/eps  (A_MIN is the hard cutoff)
    c, T1, a1, eps = 1.3, 1.7, 0.8, 0.5
    f = ConstantFunction(c)
    got = region_norm_minus(f, RegionSpec(T1, eps, a1=a1))
    expect = TWO_PI * c * c * T1 * (a1 ** eps - A_MIN ** eps) / eps
    assert got == pytest.approx(expect, rel=1e-10)


def test_whittaker_model_value_matches_eval():
    from normlab.automorphic import whittaker_eval
    model = _model()
    tau = model.tau
    v = model.v
    for th, a, t in [(0.0, 1.1, 0.2), (0.6, 0.9, -0.3)]:
        ev = whittaker_eval(tau, v, KanCoords(th, a, t))
        got = model.value(th, np.array([a]), np.array([t]))[0]
        assert got == pytest.approx(ev.value, rel=1e-9)


def _cell_table(name, weyl=False):
    """A Whittaker model by name: the small two-coefficient model, the
    16-numerator divisor table or a drawn table ("drawn8", "drawn64")."""
    if name == "small":
        return _model(coeffs={1: 1.0, -1: 0.5 + 0.25j}, m=2, weyl=weyl)
    if name == "divisor16":
        tau = generate(CoeffModel("divisor", N=16, lam=0.7))
    else:
        rng = np.random.default_rng(11)
        coeffs = {sj: complex(*rng.standard_normal(2)) * j ** -0.75
                  for j in range(1, int(name[5:]) + 1) for sj in (j, -j)}
        tau = PeriodicDistribution(1, coeffs, ReprParams(0.7j, "+"))
    u = complex(tau.params.u)
    v = SmoothVector(ReprParams(-u, "+"), {0: 1.0, 2: 0.3 - 0.2j})
    return WhittakerModel(tau, v, assert_weyl=weyl)


def _gl(lo, hi, n_panels, order=16):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mids + half * x).ravel(), (half * w).ravel()


@pytest.mark.parametrize("cell", ["full", "partial", "window"])
@pytest.mark.parametrize("table", ["small", "divisor16", "drawn64"])
def test_whittaker_cell_integral_brute_force(table, cell):
    model = _cell_table(table)
    p = model.period
    avals = np.array([0.35, 0.6, 0.9, 1.3])
    if cell == "full":
        t_lo, t_hi = np.zeros(4), np.full(4, float(p))
    else:
        t_lo = p * np.array([0.1, 0.0, 0.55, 0.3])
        t_hi = p * np.array([0.7, 0.2, 0.95, 1.0])
    th = (0.3, 2.1) if cell == "window" else None
    got = model.cell_integral(avals, t_lo, t_hi, th=th)
    # |f|^2 is a trigonometric polynomial in t of frequency at most
    # 2 max|n|, so panels of one period of it make 16-point GL exact
    n_pan = int(2 * p * np.max(np.abs(model.ns))) + 2
    refs = []
    for i, a in enumerate(avals):
        ts, wt = _gl(t_lo[i], t_hi[i], n_pan)
        if th is None:
            refs.append(np.sum(wt * model.ksq(np.full(ts.shape, a), ts)))
        else:
            # K-types 0 and 2: |f|^2 has theta-frequency at most 2
            ths, wth = _gl(th[0], th[1], 1)
            refs.append(sum(wk * np.sum(wt * np.abs(
                model.value(tk, np.full(ts.shape, a), ts)) ** 2)
                for tk, wk in zip(ths, wth)))
    # an absolute floor scaled by the largest node, not pytest's 1e-12,
    # which exceeds the a = 0.6 values themselves
    assert got == pytest.approx(refs, rel=1e-10,
                                abs=1e-14 * np.max(np.abs(refs)))


@pytest.mark.parametrize("name", ["divisor16", "cusp", "constant"])
def test_stacked_windows_equal_separate_calls(name):
    f = {"cusp": CuspProfile, "constant": lambda: ConstantFunction(1.3),
         "divisor16": lambda: _cell_table("divisor16")}[name]()
    avals = np.array([0.35, 0.6, 0.9, 1.3])
    t_lo = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.55, 0.3],
                     [0.4, 0.25, 0.0, 0.9]])
    t_hi = np.array([[1.0, 1.0, 1.0, 1.0], [0.7, 0.2, 0.95, 1.0],
                     [0.6, 0.75, 0.05, 1.0]])
    for th in (None, (0.3, 2.1)):
        got = f.cell_integral(avals, t_lo, t_hi, th=th)
        assert got.shape == (3, 4)
        for k in range(3):
            one = f.cell_integral(avals, t_lo[k], t_hi[k], th=th)
            np.testing.assert_allclose(got[k], one, rtol=1e-14, atol=0)
        # a scalar edge broadcasts against stacked ones
        got = f.cell_integral(avals, 0.0, t_hi[1:], th=th)
        one = f.cell_integral(avals, 0.0, t_hi[2], th=th)
        np.testing.assert_allclose(got[1], one, rtol=1e-14, atol=0)


def _plus_rows_reference(f, T1, a1, refine):
    """ksq and the eps-free parts of the weights on the per-row layout of
    the Weyl-flipped plus region: every T' row has its own log-a' grid up
    to sqrt(T'^2+1)/a1, and both rules are refined ``refine``-fold."""
    Tg, Tw = gauss_panels(-T1, 0.0, refine * max(8, int(4 * T1) + 4), 12)
    a, T, w = [], [], []
    for Tp, wT in zip(Tg, Tw):
        lim = math.sqrt(Tp ** 2 + 1.0) / a1
        lg, lw = gauss_panels(math.log(A_MIN), math.log(lim), refine * max(
            8, int(4 * math.log(lim / A_MIN))), 8)
        a.append(np.exp(lg))
        T.append(np.full(lg.shape, Tp))
        w.append(wT * lw)
    a, T, w = map(np.concatenate, (a, T, w))
    return f.ksq(a, T / a ** 2), a, T, w


@pytest.mark.parametrize("a1", [1.0, 0.75])
@pytest.mark.parametrize("name,T1", [
    ("drawn8", 1.0), ("divisor16", 1.0),
    ("cusp", 0.5), ("cusp", 1.0), ("cusp", 2.0)])
def test_plus_weyl_exact_against_refined_rows(name, T1, a1):
    # the shared a'-grid and the cap against the per-row layout with 2x
    # the panels in T' and in a' (4x the nodes)
    f = CuspProfile() if name == "cusp" else _cell_table(name, weyl=True)
    vals, a, T, w = _plus_rows_reference(f, T1, a1, 2)
    for eps in (0.5, -0.5):
        ref = np.sum(w * (T ** 2 + 1.0) ** (0.5 * eps) * a ** -eps * vals)
        got = region_norm_plus_weyl_exact(
            f, RegionSpec(T1, eps, a1=a1, side="plus"))
        assert got == pytest.approx(ref, rel=1e-9, abs=0)


def test_ksq_transforms_each_distinct_a_once(monkeypatch):
    import normlab.siegel as siegel
    model = _cell_table("divisor16")
    a_nodes = np.linspace(0.3, 1.5, 300)
    T = np.linspace(-1.0, 0.0, 40)
    a = np.tile(a_nodes, len(T))
    t = np.repeat(T, len(a_nodes)) / a ** 2
    whole = model.ksq(a, t)
    freqs = []
    real = siegel.fourier_transform_batch

    def counting(v, xis, tol=None, **kw):
        freqs.append(np.size(xis))
        return real(v, xis, tol, **kw)

    monkeypatch.setattr(siegel, "fourier_transform_batch", counting)
    # chunks of 64 distinct a-values and of 48 points (a point's row is 32
    # coefficients plus 10 phase-table entries)
    monkeypatch.setattr(siegel, "FM_CHUNK", 64 * len(model.ns))
    chunked = model.ksq(a, t)
    # a node is live while n_min a^{-2} is below the top live_edge
    edge = max(live_edge(cs) for cs in model.cs)
    live = (1.0 / a_nodes ** 2) * np.min(np.abs(model.ns)) < edge
    assert 0 < np.count_nonzero(live) < len(a_nodes)
    assert sum(freqs) == (np.count_nonzero(live) * len(model.ns)
                          * len(model.ms))
    # each batch's panel grid is sized by its largest frequency, so
    # values agree to the transform's absolute error
    np.testing.assert_allclose(chunked, whole, rtol=0,
                               atol=1e-13 * np.max(whole))


def test_region_norm_transforms_at_its_tol(monkeypatch):
    import normlab.siegel as siegel
    tols = set()
    real = siegel.fourier_transform_batch

    def recording(v, xis, tol=None, **kw):
        tols.add(tol)
        return real(v, xis, tol, **kw)

    monkeypatch.setattr(siegel, "fourier_transform_batch", recording)
    region_norm_minus(_model(), RegionSpec(1.0, 0.5), tol=1e-10)
    assert tols == {1e-10}


@pytest.mark.parametrize("u,ktypes", [
    (0.5, {0: 1.0}), (0.5, {2: 1.0, 8: 0.4j}), (0.7j, {64: 1.0}),
    (0.7j, {0: 1.0, 256: 0.5 - 0.5j})])
def test_dead_a_nodes_are_zero_and_leave_the_live_ones_alone(u, ktypes):
    # an a-grid (unsorted) across the edge where the smallest frequency
    # n_min a^{-2} = 0.5 a^{-2} meets the top K-type's live_edge; a node
    # is dead when the engine gives an exact 0 for every amplitude
    tau = PeriodicDistribution(2, {1: 1.0, -3: 0.5, 4: 0.2j},
                               ReprParams(u, "+"))
    model = WhittakerModel(tau, SmoothVector(ReprParams(-u, "+"), ktypes))
    edge = max(live_edge(CayleySum.ktype(m, -u)) for m in ktypes)
    a = math.sqrt(0.5 / edge) * np.random.default_rng(5).permutation(
        np.geomspace(0.5, 2.0, 48))
    xi = -np.outer(1.0 / a ** 2, model.ns).ravel()
    dead = np.all([fourier_transform_batch(CayleySum.ktype(m, -u), xi)
                   .reshape(len(a), -1) == 0 for m in ktypes], axis=(0, 2))
    assert 0 < np.count_nonzero(dead) < len(a)
    t = np.linspace(-0.7, 0.9, len(a))
    theta = np.linspace(0.0, 6.0, len(a))
    t_lo = np.stack([np.zeros_like(a), t])
    calls = [lambda k: model.ksq(a[k], t[k]),
             lambda k: model.value(theta[k], a[k], t[k]),
             lambda k: model.cell_integral(a[k], t_lo[:, k], 1.3),
             lambda k: model.cell_integral(a[k], t[k], 1.3, th=(0.3, 2.0))]
    for call in calls:
        whole = call(slice(None))
        assert np.all(whole[..., dead] == 0.0)
        assert np.array_equal(whole[..., ~dead], call(~dead))


def test_work_counts_skip_the_dead_a_nodes(monkeypatch):
    import normlab.siegel as siegel
    model = _cell_table("divisor16", weyl=True)
    freqs = []
    real = siegel.fourier_transform_batch

    def counting(v, xis, tol=None, **kw):
        freqs.append(np.size(xis))
        return real(v, xis, tol, **kw)

    monkeypatch.setattr(siegel, "fourier_transform_batch", counting)
    # |n| a^{-2} >= 25 > live_edge (about 6.4) at every node
    a = np.geomspace(A_MIN, 0.2, 40)
    assert not np.any(model.ksq(a, 0.3))
    assert not np.any(model.value(0.4, a, 0.3))
    assert not np.any(model.cell_integral(a, 0.0, 1.0))
    assert freqs == []
    # deterministic counts; transforming the dead nodes too took 12 calls
    # and 197,120 frequencies, and the margin edge (max(50, 4 ln(1/tol))
    # + w) / 2 pi 10 calls and 28,352
    main_bound_check(model, 1.0, 0.5)
    assert (len(freqs), sum(freqs)) == (10, 19584)


def _ktype_pair_model(spec):
    tau = generate(parse_model_spec(spec))
    u = complex(tau.params.u)
    return WhittakerModel(tau, SmoothVector(ReprParams(-u, "+"),
                                            {0: 1.0, 2: 0.3 - 0.2j}))


def test_cell_integral_memory_is_linear():
    # each cell call after a warm-up, so that only its own arrays count:
    # 512 a-nodes of a drawn 64-numerator table; 1024 a-nodes of the
    # divisor model N = 256 (numerators -256..256, so 513-point lattice
    # FFTs padded to 2048) over all of K and windowed, which peaked at
    # 176 MB taken at once; and a sparse table whose 2 numerators span a
    # 4096-point lattice, so a chunk must be sized by the lattice span
    avals = np.linspace(0.3, 1.5, 1024)
    two = np.stack([np.ones_like(avals), np.full_like(avals, 0.4)])
    divisor = _ktype_pair_model("divisor:N=256,lam=0.5")
    cases = [(_cell_table("drawn64"), avals[::2], 1.0, None),
             (divisor, avals, two, None), (divisor, avals, two, (0.3, 2.0)),
             (_ktype_pair_model("finite:b1=1,b4096=1"), avals, two, None)]
    for model, a, t_hi, th in cases:
        model.cell_integral(a[:8], 0.0, 1.0, th=th)
        tracemalloc.start()
        try:
            vals = model.cell_integral(a, 0.0, t_hi, th=th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, (model.ns[-1], th)
        assert np.all(np.isfinite(vals))
        if vals.ndim == 2:
            # [0, 1] holds [0, 0.4]: the cells are integrals of |f|^2
            assert np.all(vals[0] >= vals[1] - 1e-13 * np.max(vals))


@pytest.mark.parametrize("th", [None, (0.3, 2.0)])
def test_cell_integral_chunks_equal_one_pass(monkeypatch, th):
    import normlab.siegel as siegel
    model = _cell_table("drawn64")
    avals = np.linspace(0.3, 1.5, 300)
    t_lo = np.stack([np.zeros_like(avals), np.full_like(avals, 0.25)])
    whole = model.cell_integral(avals, t_lo, 0.8, th=th)
    # chunks of 64 a-nodes; each batch's panel grid is sized by its
    # largest frequency, so values agree to the transform's absolute error
    L = model.js[-1] - model.js[0] + 1
    monkeypatch.setattr(siegel, "FM_CHUNK", 64 * L)
    chunked = model.cell_integral(avals, t_lo, 0.8, th=th)
    np.testing.assert_allclose(chunked, whole, rtol=0,
                               atol=1e-13 * np.max(np.abs(whole)))


def test_ksq_memory_is_bounded():
    # one ksq call on the nodes of the Weyl-flipped plus region (T1 =
    # a1 = 1; 96 T-nodes x 288-304 a-nodes) of a 256-numerator divisor
    # model: 28,272 points x 512 coefficients, 226 MB per array if taken
    # at once
    tau = generate(CoeffModel("divisor", N=256, lam=0.5))
    model = WhittakerModel(tau, SmoothVector.single(0, -0.5j, "+"))
    Tg, _ = gauss_panels(-1.0, 0.0, 8, 12)
    rows = []
    for Tp in Tg:
        lim = math.sqrt(Tp ** 2 + 1.0)
        lg, _ = gauss_panels(math.log(A_MIN), math.log(lim),
                             int(4 * math.log(lim / A_MIN)), 8)
        rows.append(np.exp(lg))
    a = np.concatenate(rows)
    t = np.concatenate([Tp / r ** 2 for Tp, r in zip(Tg, rows)])
    assert a.shape == (28272,)
    tracemalloc.start()
    try:
        vals = model.ksq(a, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert np.all(np.isfinite(vals)) and np.max(vals) > 0.0
    # a region norm keeps nothing once it returns
    model = WhittakerModel(tau, SmoothVector.single(0, -0.5j, "+"),
                           assert_weyl=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        region_norm_full(model, RegionSpec(1.0, 0.5))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 2 ** 20


def test_ksq_memory_on_a_sparse_lattice():
    # 2 numerators spanning 4096: a power table over the whole span would
    # be 2,000 x 4,097 complex entries, 131 MB; the phases' two tables of
    # about sqrt(4096) entries a point keep the call near the parent's
    model = _ktype_pair_model("finite:b1=1,b4096=1")
    rng = np.random.default_rng(4)
    a = rng.uniform(0.3, 1.5, 2000)
    t = rng.uniform(-50.0, 50.0, 2000)
    model.ksq(a[:8], t[:8])
    tracemalloc.start()
    try:
        vals = model.ksq(a, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.all(np.isfinite(vals)) and np.max(vals) > 0.0


def _phase_reference(t, j, p):
    """e^{-2 pi i t j / p} with t j / p reduced mod 1 exactly."""
    x = Fraction(t) * j / p
    r = x - round(x)
    with mpmath.workdps(30):
        return complex(mpmath.expjpi(-2 * mpmath.mpf(r.numerator)
                                     / r.denominator))


@pytest.mark.parametrize("p", [1, 3])
def test_lattice_phases_against_exact_reference(p):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(p)
    t = np.concatenate([[0.0, 0.5 * p, -0.5 * p],
                        rng.uniform(-1e4, 1e4, 4), rng.uniform(-3.0, 3.0, 2),
                        [7.0 * p, -4093.0 * p]])
    lattices = [np.arange(-32, 33), np.arange(-256, 257),
                np.array([-4096, -1, 1, 4096]), np.arange(1 - 513, 513)]
    for js in lattices:
        got = _lattice_phases(t, js, p)
        assert got.shape == (len(t), len(js))
        for i, tv in enumerate(t):
            ref = np.array([_phase_reference(tv, int(j), p) for j in js])
            err = np.abs(got[i] - ref)
            jm = np.maximum(np.abs(js), 1)
            assert np.all(err <= eps * jm * (1.0 + 2 * math.pi * abs(tv) / p))
            if p == 1:
                assert np.all(err <= 1e-15 * jm)
        # at t = k p every phase is exactly 1
        assert np.all(got[-2:] == 1.0)


def _segment_edges_loop(T1, a1, period):
    """The floor-constant segments as a loop over j, top down."""
    Tabs = abs(T1)
    j = int(math.floor(Tabs / (period * a1 ** 2)))
    hi = a1
    for _ in range(MAX_SEGMENTS):
        b = math.sqrt(Tabs / (period * (j + 1))) if Tabs > 0 else 0.0
        lo = max(b, A_MIN)
        if hi > lo:
            yield lo, hi, j
        if b <= A_MIN:
            return
        hi, j = b, j + 1


def test_segment_edges_equal_the_loop():
    lengths = set()
    for T1 in (0.0, 1e-9, 1.0, -1.0, 37.5):
        for a1 in (1.0, 0.75, 3.0):
            for p in (1, 2):
                ref = list(_segment_edges_loop(T1, a1, p))
                got = _segment_edges(T1, a1, p)
                assert [len(col) for col in got] == [len(ref)] * 3
                for col, want in zip(got, zip(*ref)):
                    assert np.all(col == np.array(want))
                lengths.add(len(ref))
    # both stops are met: A_MIN (T1 = 1e-9) and the cap (T1 = 37.5)
    assert MAX_SEGMENTS in lengths and len(lengths - {0, MAX_SEGMENTS}) > 0


def test_floor_sandwich_encloses_exact():
    for f in (_model(), CuspProfile()):
        for eps in (0.5, -0.5):
            spec = RegionSpec(1.0, eps, a1=1.0)
            lo, hi = floor_sandwich(f, spec)
            val = region_norm_minus(f, spec)
            assert lo <= val * (1.0 + 1e-10) + 1e-300
            assert val <= hi * (1.0 + 1e-10)


def test_weyl_bracket_cusp_profile():
    f = CuspProfile()
    spec = RegionSpec(1.0, 0.5, a1=1.0, side="plus")
    bracket = region_norm_plus_via_weyl(f, spec)
    direct = region_norm_plus_direct(f, spec)
    exact = region_norm_plus_weyl_exact(f, spec)
    # genuine symmetry: the transported value is the direct one
    assert exact == pytest.approx(direct, rel=1e-6)
    assert bracket["lower"] <= direct * (1.0 + 1e-8)
    assert direct <= bracket["upper"] * (1.0 + 1e-8)


def test_weyl_bracket_negative_eps():
    f = CuspProfile()
    spec = RegionSpec(1.0, -0.5, a1=1.0, side="plus")
    bracket = region_norm_plus_via_weyl(f, spec)
    direct = region_norm_plus_direct(f, spec)
    assert bracket["lower"] <= direct * (1.0 + 1e-8)
    assert direct <= bracket["upper"] * (1.0 + 1e-8)


def test_missing_symmetry_raises():
    f = _model(weyl=False)
    spec = RegionSpec(1.0, 0.5, side="plus")
    with pytest.raises(MissingSymmetry):
        region_norm_plus_via_weyl(f, spec)
    with pytest.raises(MissingSymmetry):
        main_bound_check(f, 1.0, 0.5)


def test_region_norm_full_splits():
    f = CuspProfile()
    spec = RegionSpec(1.0, 0.5)
    full = region_norm_full(f, spec)
    minus = region_norm_minus(f, RegionSpec(1.0, 0.5, a1=1.0))
    plus = region_norm_plus_weyl_exact(f, RegionSpec(1.0, 0.5, a1=1.0,
                                                     side="plus"))
    assert full == pytest.approx(minus + plus, rel=1e-12)


def test_main_constant_formula():
    T1, eps, p = 2.0, 0.5, 3
    c = 1.0 + p * (1.0 + T1 ** 2) / T1
    assert main_constant(T1, eps, p) == pytest.approx(
        c * max(2.0, 1.0 + math.sqrt(1.0 + T1 ** 2) ** eps))


def test_main_bound_holds():
    for f in (_model(weyl=True), CuspProfile()):
        rep = main_bound_check(f, 1.0, 0.5)
        assert rep["ok"] and rep["margin"] >= 0.0


def test_main2_guards_and_value():
    tau = PeriodicDistribution(1, {1: 1.0}, ReprParams(1j, "+"))
    v = SmoothVector.single(0, -1j, "+")
    with pytest.raises(EpsilonBarrier):
        main2_check(tau, v, 1.0, 0.0)
    rep = main2_check(tau, v, 1.0, 0.5)
    assert rep["target_u"] == -0.25
    assert math.isfinite(rep["ratio"]) and rep["ratio"] > 0
    bad = PeriodicDistribution(1, {1: 1.0}, ReprParams(0.3 + 1j, "+"))
    with pytest.raises(OutOfRange):
        main2_check(bad, v, 1.0, 0.5)


@pytest.mark.parametrize("u,eps", [(1j, 2.0), (1j, -2.5), (0.5 + 0j, 1.0),
                                   (-0.25 + 0j, 2.5)])
def test_main2_rejects_eps_past_the_norm_range(u, eps):
    # the triple norm at -u - |eps|/2 needs an index above -1
    tau = PeriodicDistribution(1, {1: 1.0}, ReprParams(u, "+"))
    v = SmoothVector.single(0, -u, "+")
    with pytest.raises(OutOfRange, match="^eps = "):
        main2_check(tau, v, 1.0, eps)


def test_whittaker_model_rejects_an_empty_table():
    tau = generate(parse_model_spec("finite:b1=0"))
    assert tau.coeffs == {}
    with pytest.raises(OutOfRange, match="empty"):
        WhittakerModel(tau, SmoothVector.single(0, -1j, "+"))


def test_main2_complementary_target():
    tau = PeriodicDistribution(1, {1: 1.0}, ReprParams(0.5 + 0j, "+"))
    v = SmoothVector.single(0, -0.5 + 0j, "+")
    rep = main2_check(tau, v, 1.0, 0.5)
    assert rep["target_u"] == pytest.approx(-0.75)


def test_omega_norm_full_window_equals_region_split():
    f = _model()
    T1, eps = 1.0, 0.5
    omega = (0.0, TWO_PI, 0.0, T1)
    total = omega_a_norm(f, omega, eps)
    minus = region_norm_minus(f, RegionSpec(T1, eps, a1=1.0))
    plus = region_norm_plus_direct(f, RegionSpec(T1, eps, a1=1.0,
                                                 side="plus"))
    assert total == pytest.approx(minus + plus, rel=1e-8)


def test_omega_norm_monotone_in_window():
    f = _model()
    small = omega_a_norm(f, (0.0, math.pi, 0.0, 0.5), 0.5)
    large = omega_a_norm(f, (0.0, TWO_PI, 0.0, 1.0), 0.5)
    assert 0.0 < small <= large * (1.0 + 1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.0])
def test_omega_norm_growing_a_integral_raises(eps):
    # f = 1 over a bounded omega: \int^inf a^eps da/a diverges for
    # eps >= 0, and the doubling loop meets its cap still growing
    with pytest.raises(DivergentIntegral, match="still grows"):
        omega_a_norm(ConstantFunction(1.0), (0.0, TWO_PI, 0.0, 1.0), eps)


def test_omega_norm_unbounded_rejected():
    f = _model()
    with pytest.raises(UnboundedOmega):
        omega_a_norm(f, (0.0, TWO_PI, 0.0, math.inf), 0.5)


def test_omega_norm_reversed_window_rejected():
    f = _model()
    for omega in ((0.0, TWO_PI, 1.0, 0.0), (TWO_PI, 0.0, 0.0, 1.0)):
        with pytest.raises(OutOfRange, match="omega needs"):
            omega_a_norm(f, omega, 0.5)


def _brute_region(f, T1, eps, pieces, T0=0.0):
    r"""\int a^eps \int ksq(a, T/a^2) dT da/a over T between T0 and T1,
    on dense GL rules that share no code with cells, floors or segments.
    ``pieces`` lists (a_lo, a_hi, log-a panels, T-panels per unit T);
    below a = 1 an a-panel's T-panels grow as a^-2, with the oscillation
    of a Whittaker profile in T."""
    total = 0.0
    for a_lo, a_hi, n_a, per_unit in pieces:
        edges = np.linspace(math.log(a_lo), math.log(a_hi), n_a + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            lg, lw = _gl(e0, e1, 1)
            Tg, Tw = _gl(min(T0, T1), max(T0, T1), math.ceil(
                abs(T1 - T0) * per_unit / min(math.exp(e0), 1.0) ** 2))
            a = np.exp(lg)[:, None]
            vals = f.ksq(np.broadcast_to(a, (len(lg), len(Tg))).ravel(),
                         (Tg[None, :] / a ** 2).ravel())
            total += np.sum(np.outer(lw * a[:, 0] ** eps, Tw).ravel() * vals)
    return total


def test_delta_minus_region_against_brute_force():
    # below a = 0.2 the profile is below 1e-100
    got = region_norm_minus(CuspProfile(), RegionSpec(30.0, 0.5, a1=5.0))
    ref = _brute_region(CuspProfile(), 30.0, 0.5, [(0.2, 5.0, 80, 2)])
    assert got == pytest.approx(ref, rel=1e-10, abs=0)
    assert got == pytest.approx(6.463593491e-4, rel=1e-10, abs=0)


@pytest.mark.parametrize("T1,eps,roadmap", [(10.0, 0.5, 3.0283917289e-4),
                                            (30.0, 0.0, 7.2143190024e-4)])
def test_delta_plus_direct_against_brute_force(T1, eps, roadmap):
    # past a = 80 the integrand is below 1e-30; near a = 40 it turns
    # fast in a, so that range gets its own, denser rule
    got = region_norm_plus_direct(CuspProfile(),
                                  RegionSpec(T1, eps, a1=1.0, side="plus"))
    ref = _brute_region(CuspProfile(), T1, eps,
                        [(1.0, 40.0, 100, 1), (40.0, 80.0, 40, 2)])
    assert got == pytest.approx(ref, rel=2e-10, abs=0)
    assert got == pytest.approx(roadmap, rel=1e-9, abs=0)


@pytest.mark.parametrize("eps", [0.5, -0.5])
def test_weyl_bracket_outer_against_brute_force(eps):
    # the outer bound is the minus region at (-T1, sqrt(T1^2+1)/a1, -eps),
    # which reaches a = 14.4, past the top floor kink sqrt(10) = 3.16;
    # below a = 0.5, |Fv(-n a^-2)|^2 < 1e-20
    T1, a1 = 10.0, 0.7
    f = _cell_table("divisor16", weyl=True)
    s = math.sqrt(T1 ** 2 + 1.0)
    bracket = region_norm_plus_via_weyl(f, RegionSpec(T1, eps, a1=a1,
                                                      side="plus"))
    outer = bracket["upper"] / s ** max(eps, 0.0)
    ref = _brute_region(f, -T1, -eps, [(0.5, s / a1, 40, 4)])
    assert outer == pytest.approx(ref, rel=1e-10, abs=0)


def test_weyl_bracket_reaches_far_past_the_top_kink():
    # at a1 = 0.1 the outer bound runs to a = 300, 55 times the top kink
    # sqrt(30); below a = 0.3 and past a = 100 the profile is below 1e-40
    # of the value
    T1, eps, a1 = 30.0, 0.5, 0.1
    f = CuspProfile()
    s = math.sqrt(T1 ** 2 + 1.0)
    spec = RegionSpec(T1, eps, a1=a1, side="plus")
    bracket = region_norm_plus_via_weyl(f, spec)
    ref = _brute_region(f, -T1, -eps, [(0.3, 1.0, 40, 2), (1.0, 40.0, 100, 1),
                                       (40.0, 100.0, 40, 2)])
    assert bracket["upper"] / s ** eps == pytest.approx(ref, rel=1e-10, abs=0)
    assert (bracket["lower"] <= region_norm_plus_direct(f, spec)
            <= bracket["upper"])


def test_omega_narrow_window_far_from_zero():
    # a window of width 1e-3 at T = 100 is one integral, not the
    # difference of two integrals from T = 0 that are 1e5 times larger
    f = CuspProfile()
    got = omega_a_norm(f, (0.0, TWO_PI, 100.0, 100.001), 0.5)
    ref = _brute_region(f, 100.001, 0.5, [(0.3, 1.0, 300, 1),
                                          (1.0, 30.0, 800, 1),
                                          (30.0, 300.0, 600, 1)], T0=100.0)
    assert got == pytest.approx(ref, rel=1e-10, abs=0)


def test_plus_direct_refuses_unresolved_segments():
    # past a1 = 1 the plus region at T1 = 1e4 holds 1e4 floor segments,
    # more than MAX_SEGMENTS, and the model's cells there carry weight
    with pytest.raises(OutOfRange, match="floor segments"):
        region_norm_plus_direct(_model(), RegionSpec(1e4, 0.5, side="plus"))


@pytest.mark.parametrize("T", [1.0, 4.0])
def test_omega_negative_window_mirrors_positive(T):
    # |Delta(-x + iy)| = |Delta(x + iy)|: the windows [-T, 0] and [0, T]
    # carry the same norm
    f = CuspProfile()
    neg = omega_a_norm(f, (0.0, TWO_PI, -T, 0.0), 0.5)
    pos = omega_a_norm(f, (0.0, TWO_PI, 0.0, T), 0.5)
    assert neg > 0.0
    assert neg == pytest.approx(pos, rel=1e-12, abs=0)


def test_cusp_cells_meet_parseval():
    # int_0^1 |F|^2 dt = y^12 sum tau(n)^2 e^{-4 pi n y}, y = a^-2; the
    # sum past n = 2000 is below 1e-40 of it for a <= 16
    d = ramanujan_tau_table(2000)
    n = np.arange(1, 2001)
    tau2 = np.array([float(d[k]) ** 2 for k in n])
    avals = np.geomspace(0.3, 16.0, 12)
    got = CuspProfile().cell_integral(avals, 0.0, 1.0)
    for a, g in zip(avals, got):
        y = a ** -2.0
        ref = TWO_PI * y ** 12 * np.sum(tau2 * np.exp(-4.0 * math.pi * n * y))
        assert g == pytest.approx(ref, rel=1e-13, abs=0)


def test_eisenstein_scenario():
    from normlab.coeffs import generate, parse_model_spec
    tau = generate(parse_model_spec("divisor:N=32,lam=0.5"))
    rep = eisenstein_scenario(tau, 0.5, 0.5, 1.0)
    assert rep["summable"]
    assert math.isfinite(rep["ratio"])


def test_eisenstein_scenario_fails_on_a_perturbed_coefficient():
    # b_{+-1} scaled by 1.1 adds 2 (1.21 - 1) = 0.42 to the partial sum,
    # past Ramanujan's full value (the gap at N = 64 is 0.042)
    tau = generate(parse_model_spec("divisor:N=64,lam=0.5"))
    assert eisenstein_scenario(tau, 0.5, 0.5, 1.0)["summable"]
    for j in (1, -1):
        tau.coeffs[j] *= 1.1
    rep = eisenstein_scenario(tau, 0.5, 0.5, 1.0)
    assert not rep["summable"]
    assert rep["partial_sum"] > rep["full_sum"]


# ---------------------------------------------------------------------------
# the exactly automorphic profile
# ---------------------------------------------------------------------------

def test_reduction_lands_in_fundamental_domain():
    rng = np.random.default_rng(5)
    x = rng.uniform(-8.0, 8.0, 200)
    y = np.exp(rng.uniform(-2.0, 2.0, 200))
    xr, yr = reduce_to_fundamental(x, y)
    assert np.all(np.abs(xr) <= 0.5 + 1e-12)
    assert np.all(xr ** 2 + yr ** 2 >= 1.0 - 1e-10)


def test_delta_profile_invariance():
    # y^6 |Delta| is invariant under z -> z+1 and z -> -1/z
    x = np.array([0.37, -0.12, 0.45])
    y = np.array([1.4, 0.9, 2.2])
    base = delta_profile(x, y)
    shift = delta_profile(x + 1.0, y)
    r2 = x ** 2 + y ** 2
    inv = delta_profile(-x / r2, y / r2)
    assert np.max(np.abs(shift - base) / base) < 1e-12
    assert np.max(np.abs(inv - base) / base) < 1e-12


def test_cusp_profile_periodic_and_weyl_flags():
    f = CuspProfile()
    assert f.weyl
    a = np.array([1.2])
    t = np.array([0.3])
    assert f.value(0.0, a, t)[0] == pytest.approx(
        f.value(0.0, a, t + 1.0)[0], rel=1e-12)
    # K-invariance
    assert f.value(1.1, a, t)[0] == pytest.approx(
        f.value(0.0, a, t)[0], rel=1e-12)


def test_cusp_profile_genuine_weyl_symmetry():
    # |F(g w)| = |F(g)|: in KNA coordinates the flip sends
    # (T, a) -> (-T, sqrt(T^2+1)/a)
    from normlab.group import weyl_flip_closed_form
    f = CuspProfile()
    for T, a in [(0.7, 1.3), (-0.4, 0.8)]:
        Tp, ap = weyl_flip_closed_form(T, a)
        v1 = f.value(0.0, np.array([a]), np.array([T / a ** 2]))[0]
        v2 = f.value(0.0, np.array([ap]), np.array([Tp / ap ** 2]))[0]
        assert v2 == pytest.approx(v1, rel=1e-10)


def test_main_bound_needs_positive_T1():
    # its constant divides by T1
    for T1 in (0.0, -1.0):
        with pytest.raises(OutOfRange, match="T1"):
            main_bound_check(ConstantFunction(1.0), T1, 0.5)


@pytest.mark.parametrize("eps,a1,ref", [
    (0.5, 1.0, 12.026258124933507), (1.0, 1.0, 32.56877650643619),
    (0.5, 1e5, 2.84541067618053e-6)])
def test_plus_direct_reaches_infinity(eps, a1, ref):
    # the default CLI model; the brute-force rule runs to a = 1e30, past
    # which the integrand, about a^{eps - 2}, adds below 1e-14 of the value
    f = _model({1: 1.0})
    got = region_norm_plus_direct(f, RegionSpec(1.0, eps, a1=a1,
                                                side="plus"))
    assert got == pytest.approx(ref, rel=1e-10, abs=0)
    brute = _brute_region(f, 1.0, eps, [(a1, 1e30, 400, 1)])
    assert brute == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("path", [region_norm_plus_direct,
                                  region_norm_plus_weyl_exact])
def test_plus_paths_on_a_constant(path):
    # \int_{a1}^inf a^eps da/a = a1^eps / (-eps) for eps < 0, and
    # divergent for eps >= 0
    for c, T1 in ((1.0, 1.0), (2.0, 0.3)):
        f = ConstantFunction(c)
        for eps in (-0.5, -1.0):
            for a1 in (1.0, 2e4):
                got = path(f, RegionSpec(T1, eps, a1=a1, side="plus"))
                want = TWO_PI * c * c * T1 * a1 ** eps / -eps
                assert got == pytest.approx(want, rel=1e-10, abs=0)
        for eps in (0.0, 0.5):
            with pytest.raises(DivergentIntegral, match="still grows"):
                path(f, RegionSpec(T1, eps, side="plus"))


@pytest.mark.parametrize("call", [
    # ksq ~ a^{-2} at large a, times a log-periodic factor from u = i:
    # a^{-0.1} and a^{-0.03} decay too slowly for 2^96
    lambda: region_norm_plus_direct(_model({1: 1.0}),
                                    RegionSpec(1.0, 1.9, side="plus")),
    lambda: omega_a_norm(_model({1: 1.0}, u=2j), (0.0, TWO_PI, 0.0, 1.0),
                         1.97),
])
def test_slowly_converging_a_integral_raises(call):
    with pytest.raises(AccuracyNotReached, match="not converged"):
        call()


def test_plus_weyl_exact_far_from_the_origin():
    # at a1 = 2e4 every flipped a' is below 1e-4, where the model is 0
    f = _model({1: 1.0}, weyl=True)
    for a1 in (1.5e4, 2e4):
        assert region_norm_plus_weyl_exact(
            f, RegionSpec(1.0, 0.5, a1=a1, side="plus")) == 0.0
