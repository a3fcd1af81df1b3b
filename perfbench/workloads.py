"""The three workloads: inputs drawn from a seed, one round of jobs, and
the check of every job's output.

Each workload has three parts:

- ``draw(seed)`` makes plain numbers from the seed.  It does not touch
  normlab.
- ``build(nl, spec)`` turns them into program objects (vectors,
  coefficient tables, Whittaker models, group elements).  This is the
  set-up that ``setup_s`` times.
- ``round_jobs(nl, spec, inputs)`` lists the jobs of one round.  Every
  round runs the same jobs on the same inputs, so the share of failed
  jobs is the same however many rounds a run makes.  Region rounds start
  from fresh Whittaker models: each round begins with an empty
  amplitude cache, as the first round does.

A job's check returns (error, tolerance) and passes when error <= tol.
It runs after the timed rounds and may use the outputs of other jobs of
the same round (``outs``, keyed by job label).  Oracles come from
``oracles``, not from the program, except where a check compares two
program paths that must agree (spectral and direct triple norm, spectral
and geometric p0 norm, cell integral and the exact trapezoid of ksq).
"""

from __future__ import annotations

import math

import numpy as np

import oracles as orc

DEFAULT_TOL = 1e-8


class Job:
    """One timed call.  ``gate`` is set on the known faults only: such a
    job misses its tol today and is counted failed, and an error above
    ``gate`` (a raise included) makes it an unexpected failure too, so
    that a known fault cannot get worse unseen."""

    __slots__ = ("label", "kind", "params", "fn", "check", "gate")

    def __init__(self, label, kind, params, fn, check, gate=None):
        self.label = label
        self.kind = kind
        self.params = params
        self.fn = fn
        self.check = check
        self.gate = gate


def _rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# kspectrum: comp_norm of single K-types, triple_norm of K-type sums
# ---------------------------------------------------------------------------

# jobs that miss their tol today: the xi range of comp_norm ends at
# Xi = w/(2 pi) + 4.5 (norms._xi_grid), which caps the accuracy at
# 1.4e-8 at weight 256 and 1.5e-10 at weight 128 whatever the tol.  Two
# of them, about 12% of a round's time, so that a fix that adds xi-nodes
# does not swamp the round.  (weight, u, tol, gate): the gate is about
# twice today's error.
KSPECTRUM_KNOWN_FAULTS = [(256, 0.25, 1e-8, 3e-8), (128, -0.75, 1e-10, 3e-10)]

# weights above the drawn range that still pass at tol 1e-8, at fixed u:
# the error grows with the weight (3.8e-9 and 5.2e-9 here, 1.2e-8 at
# 248), so a drawn u could put them on either side of the tol
KSPECTRUM_HIGH = [(200, 0.5, 1e-8), (216, -0.5, 1e-8)]


def kspectrum_draw(seed):
    # the weights are a fixed grid and the seed draws u: the cost of a
    # comp_norm is set by its weight (the xi-grid level steps up between
    # weights 96 and 128), so drawn weights would make the work of a
    # round depend on the seed
    rng = np.random.default_rng(seed)
    comp = []
    for i, w in enumerate(range(0, 192, 8)):
        sign = 1.0 if i % 2 == 0 else -1.0
        comp.append((w, sign * float(rng.uniform(0.1, 0.8)), 1e-8))
    for i, w in enumerate((4, 12, 20, 28, 36, 44, 52, 60)):
        sign = 1.0 if i % 2 == 0 else -1.0
        comp.append((w, sign * float(rng.uniform(0.1, 0.8)), 1e-10))
    triple = []
    for sign in (1.0, -1.0):
        # two adjacent K-types, so the direct method always uses 8
        # rotations and costs about what a weight-176 comp_norm does
        k0 = 2 * int(rng.integers(-4, 4))
        coeffs = {k: complex(*rng.standard_normal(2)) for k in (k0, k0 + 2)}
        triple.append((sign * float(rng.uniform(0.1, 0.8)), coeffs))
    return {"comp": comp, "triple": triple}


def kspectrum_build(nl, spec):
    P = nl.principal
    comp = [(P.CayleySum.ktype(w, u), w, u, tol)
            for w, u, tol in spec["comp"] + KSPECTRUM_HIGH]
    faults = [(P.CayleySum.ktype(w, u), w, u, tol, gate)
              for w, u, tol, gate in KSPECTRUM_KNOWN_FAULTS]
    triple = [(P.SmoothVector(P.ReprParams(u, "+"), dict(c)), u, c)
              for u, c in spec["triple"]]
    return {"comp": comp, "faults": faults, "triple": triple}


def _comp_job(nl, label, cs, w, u, tol, gate=None):
    def run():
        return nl.norms.comp_norm(cs, u, tol)

    def check(out, outs):
        return _rel(out.value, orc.ktype_norm(w, u)), tol

    return Job(label, "comp_norm", {"weight": w, "u": u, "tol": tol}, run,
               check, gate)


def _triple_oracle(u, coeffs):
    return 2.0 * math.pi * sum(abs(c) ** 2 * orc.ktype_norm(k, u)
                               for k, c in coeffs.items())


def kspectrum_round(nl, spec, inputs):
    jobs = []
    for i, (cs, w, u, tol) in enumerate(inputs["comp"]):
        jobs.append(_comp_job(nl, f"comp{i}", cs, w, u, tol))
    for i, (cs, w, u, tol, gate) in enumerate(inputs["faults"]):
        jobs.append(_comp_job(nl, f"fault{i}", cs, w, u, tol, gate))
    for i, (v, u, coeffs) in enumerate(inputs["triple"]):
        for method in ("spectral", "direct"):
            def run(v=v, u=u, method=method):
                return nl.norms.triple_norm(v, u, method=method)

            def check(out, outs, u=u, coeffs=coeffs, i=i):
                err = _rel(out.value, _triple_oracle(u, coeffs))
                other = outs.get(f"triple{i}-spectral")
                if other is not None and not isinstance(other, Exception):
                    err = max(err, _rel(out.value, other.value))
                return err, DEFAULT_TOL

            jobs.append(Job(f"triple{i}-{method}", "triple_norm",
                            {"u": u, "weights": sorted(coeffs),
                             "method": method}, run, check))
    return jobs


# ---------------------------------------------------------------------------
# region: region norms on Whittaker models, p0 norms, constant functions
# ---------------------------------------------------------------------------

def _random_table(rng, n, sigma=0.75):
    table = {}
    for j in range(1, n + 1):
        for sj in (j, -j):
            re, im = rng.standard_normal(2)
            table[sj] = complex(re, im) / math.sqrt(2.0) * j ** (-sigma)
    return table


# the p0 norms run to each of these a1.  Below about 0.6 the spectral
# and geometric methods part by 1e-4 (see CHANGES.md), so none is used.
P0_A1 = (1.0, 0.75)


def region_draw(seed):
    rng = np.random.default_rng(seed)
    models = []
    # name, numerators, source, a-grids of the cell integrals, nodes per
    # grid, region norms run; the 64-numerator table runs only the cell
    # integral and the p0 norms: its region norms take 10 s each
    for name, n, source, n_grids, n_a, regions in (
            ("A", 8, "random", 4, 64, True),
            ("B", 16, "divisor", 4, 64, True),
            ("C", 64, "random", 1, 512, False),
            ("D", 8, "divisor", 1, 64, False)):
        lam = float(rng.uniform(0.5, 1.0))
        table = _random_table(rng, n) if source == "random" else None
        models.append({
            "name": name, "N": n, "source": source, "lam": lam,
            "table": table, "regions": regions,
            "v": {0: 1.0, 2: complex(*rng.standard_normal(2)) * 0.3},
            "T1": float(rng.uniform(0.9, 1.1)),
            "eps": float(rng.uniform(0.4, 0.6)),
            "agrids": [np.sort(rng.uniform(0.3, 1.5, n_a)).tolist()
                       for _ in range(n_grids)],
        })
    consts = []
    for sign in (1.0, -1.0) * 3:
        consts.append({"c": float(rng.uniform(0.5, 2.0)),
                       "T1": float(rng.uniform(0.5, 2.0)),
                       "a1": float(rng.uniform(0.5, 1.5)),
                       "eps": sign * float(rng.uniform(0.25, 0.75))})
    return {"models": models, "consts": consts}


def region_build(nl, spec):
    A, P = nl.automorphic, nl.principal
    built = []
    for m in spec["models"]:
        u = 1j * m["lam"]
        if m["source"] == "divisor":
            tau = nl.coeffs.generate(nl.coeffs.CoeffModel(
                "divisor", N=m["N"], lam=m["lam"]))
        else:
            tau = A.PeriodicDistribution(1, dict(m["table"]),
                                         P.ReprParams(u, "+"))
        v = P.SmoothVector(P.ReprParams(-u, "+"), dict(m["v"]))
        # built here so that set-up pays for it; each round builds its own
        nl.siegel.WhittakerModel(tau, v, assert_weyl=True)
        built.append({"spec": m, "tau": tau, "v": v,
                      "agrids": [np.asarray(g) for g in m["agrids"]]})
    consts = [(nl.siegel.ConstantFunction(c["c"]), c) for c in spec["consts"]]
    return {"models": built, "consts": consts}


def _trapezoid_cells(model, avals, period):
    """\\int_0^p ksq(a, t) dt by the M-point trapezoid, exact for the
    trigonometric polynomial ksq(a, .) when M exceeds twice the largest
    numerator."""
    n_t = 4 * int(np.max(np.abs(model.ns * period))) + 8
    ts = period * np.arange(n_t) / n_t
    aa = np.repeat(avals, n_t)
    tt = np.tile(ts, len(avals))
    vals = model.ksq(aa, tt).reshape(len(avals), n_t)
    return period * vals.mean(axis=1)


def region_round(nl, spec, inputs):
    S, A = nl.siegel, nl.automorphic
    jobs = []
    for b in inputs["models"]:
        m = b["spec"]
        name, T1, eps = m["name"], m["T1"], m["eps"]
        # a fresh model: the amplitude cache starts empty every round
        model = S.WhittakerModel(b["tau"], b["v"], assert_weyl=True)
        pars = {"N": m["N"], "source": m["source"], "T1": T1, "eps": eps}
        if m["regions"]:
            minus_spec = S.RegionSpec(T1, eps, a1=1.0)

            def enclosed(out, outs, name=name):
                lo, hi = outs[f"{name}-sandwich"]
                val = outs[f"{name}-minus"]
                return max(lo - val, val - hi, 0.0) / abs(val), 1e-10

            def below_full(out, outs, name=name):
                full = outs[f"{name}-full"]
                return max(out - full, 0.0) / abs(full), 1e-12

            def full_is_lhs(out, outs, name=name):
                return _rel(out, outs[f"{name}-main"]["lhs"]), 1e-12

            def bound_holds(out, outs, T1=T1, eps=eps):
                err = max((out["lhs"] - out["rhs"]) / out["rhs"], 0.0,
                          _rel(out["constant"],
                               orc.main_constant(T1, eps, 1)))
                return err, 1e-12

            jobs += [
                Job(f"{name}-minus", "region_norm_minus", pars,
                    lambda model=model, s=minus_spec:
                        S.region_norm_minus(model, s), below_full),
                Job(f"{name}-sandwich", "floor_sandwich", pars,
                    lambda model=model, s=minus_spec:
                        S.floor_sandwich(model, s), enclosed),
                Job(f"{name}-full", "region_norm_full", pars,
                    lambda model=model, T1=T1, eps=eps:
                        S.region_norm_full(model, S.RegionSpec(T1, eps)),
                    full_is_lhs),
                Job(f"{name}-main", "main_bound_check", pars,
                    lambda model=model, T1=T1, eps=eps:
                        S.main_bound_check(model, T1, eps), bound_holds),
            ]

        for k, avals in enumerate(b["agrids"]):
            def cells_exact(out, outs, model=model, avals=avals):
                # every 16th node keeps the reference cheap at 512 nodes
                idx = np.arange(0, len(avals), 16)
                ref = _trapezoid_cells(model, avals[idx], 1)
                return (float(np.max(np.abs(out[idx] - ref)))
                        / float(np.max(np.abs(out)))), DEFAULT_TOL

            jobs.append(Job(f"{name}-cell{k}", "cell_integral",
                            {"N": m["N"], "anodes": len(avals)},
                            lambda model=model, a=avals:
                                model.cell_integral(a, 0.0, 1.0),
                            cells_exact))

        for k, a1 in enumerate(P0_A1):
            def p0_agree(out, outs, name=name, k=k):
                return _rel(outs[f"{name}-p0{k}-geometric"],
                            outs[f"{name}-p0{k}-spectral"]), 1e-6

            for method in ("spectral", "geometric"):
                jobs.append(Job(
                    f"{name}-p0{k}-{method}", "p0_weighted_norm",
                    {"N": m["N"], "a1": a1, "eps": eps, "method": method},
                    lambda b=b, a1=a1, eps=eps, method=method:
                        A.p0_weighted_norm(b["tau"], b["v"], a1, eps,
                                           method=method),
                    p0_agree))
    for i, (f, c) in enumerate(inputs["consts"]):
        def const_ok(out, outs, c=c):
            want = orc.constant_region(c["c"], c["T1"], c["a1"], c["eps"],
                                       S.A_MIN)
            return _rel(out, want), 1e-10

        jobs.append(Job(f"const{i}", "region_norm_minus", dict(c),
                        lambda f=f, c=c: S.region_norm_minus(
                            f, S.RegionSpec(c["T1"], c["eps"], a1=c["a1"])),
                        const_ok))
    return jobs


# ---------------------------------------------------------------------------
# operators: the intertwining operator and the group charts
# ---------------------------------------------------------------------------

GROUP_BATCHES = 5
GROUP_BATCH_SIZE = 1000


def operators_draw(seed):
    rng = np.random.default_rng(seed)
    apply = []
    # one point drawn in each of 48 equal cells of [-4, 4]: the cost of a
    # point grows with its distance from 0, so fully random points would
    # make the work of a round depend on the seed
    cells = -4.0 + np.arange(48) / 6.0
    for i in range(24):
        apply.append({"u": float(rng.uniform(0.15, 0.85)), "m": i % 7,
                      "x": (cells + rng.uniform(0.0, 1.0 / 6.0, 48)).tolist()})
    pair = {"u": float(rng.uniform(0.2, 0.8)), "m": int(rng.integers(0, 3))}
    n = GROUP_BATCHES * GROUP_BATCH_SIZE
    group = {"theta": rng.uniform(0.0, 2.0 * math.pi, n),
             "a": np.exp(rng.normal(0.0, 0.7, n)),
             "t": rng.normal(0.0, 1.0, n)}
    return {"apply": apply, "pair": pair, "group": group}


def operators_build(nl, spec):
    G, P = nl.group, nl.principal
    apply = [(P.SmoothVector.single(2 * a["m"], a["u"]), np.asarray(a["x"]), a)
             for a in spec["apply"]]
    pv = P.SmoothVector.single(2 * spec["pair"]["m"], spec["pair"]["u"])
    g = spec["group"]
    elements = [G.rotation(th) @ G.diagonal(a) @ G.unipotent(t)
                for th, a, t in zip(g["theta"], g["a"], g["t"])]
    return {"apply": apply, "pair": pv, "elements": elements}


def _coord_gap(got, want):
    """Largest gap over (theta, a, third coordinate): theta on the
    circle, a relative, the third relative to 1 + |value|."""
    return max(orc.angle_gap(got[0], want[0]),
               abs(got[1] - want[1]) / want[1],
               abs(got[2] - want[2]) / (1.0 + abs(want[2])))


def operators_round(nl, spec, inputs):
    N, G = nl.norms, nl.group
    jobs = []
    for i, (v, xs, a) in enumerate(inputs["apply"]):
        def eigen(out, outs, xs=xs, a=a):
            c = orc.c2m(a["m"], a["u"])
            ratio = out / orc.ktype_dual(2 * a["m"], a["u"], xs)
            return float(np.max(np.abs(ratio - c))) / abs(c), 1e-5

        jobs.append(Job(f"apply{i}", "intertwine_apply",
                        {"u": a["u"], "weight": 2 * a["m"], "points": len(xs)},
                        lambda v=v, u=a["u"], xs=xs:
                            N.intertwine_apply(v, u, xs), eigen))
    pu, pm = spec["pair"]["u"], spec["pair"]["m"]
    pv = inputs["pair"]

    def pair_ok(out, outs):
        spectral = N.intertwine_pair(pv, pv, pu, method="spectral")
        return max(_rel(out, math.pi * orc.c2m(pm, pu)),
                   _rel(out, spectral)), DEFAULT_TOL

    jobs.append(Job("pair", "intertwine_pair",
                    {"u": pu, "weight": 2 * pm, "method": "quadrature"},
                    lambda: N.intertwine_pair(pv, pv, pu), pair_ok))
    g = spec["group"]
    els = inputs["elements"]
    n = GROUP_BATCH_SIZE
    for b in range(GROUP_BATCHES):
        sl = slice(b * n, (b + 1) * n)
        drawn = list(zip(g["theta"][sl], g["a"][sl], g["t"][sl]))

        def kan_ok(out, outs, drawn=drawn):
            return max(_coord_gap((k.theta, k.a, k.t), d)
                       for k, d in zip(out, drawn)), 1e-9

        def kna_ok(out, outs, drawn=drawn):
            err = 0.0
            for k, (th, a, t) in zip(out, drawn):
                th0, T0, a0 = orc.kna_of(th, a, t)
                err = max(err, _coord_gap((k.theta, k.a, k.T), (th0, a0, T0)))
            return err, 1e-9

        def weyl_ok(out, outs, drawn=drawn):
            err = 0.0
            for w, (th, a, t) in zip(out, drawn):
                Tp, ap = orc.weyl_of(a * a * t, a)
                err = max(err, abs(w.aprime - ap) / ap,
                          abs(w.Tprime - Tp) / (1.0 + abs(Tp)))
            return err, 1e-9

        pars = {"elements": n}
        jobs += [
            Job(f"kan{b}", "decompose_kan", pars,
                lambda e=els[sl]: [G.decompose_kan(x) for x in e], kan_ok),
            Job(f"kna{b}", "decompose_kna", pars,
                lambda e=els[sl]: [G.decompose_kna(x) for x in e], kna_ok),
            Job(f"weyl{b}", "weyl_flip", pars,
                lambda d=drawn: [G.weyl_flip(a * a * t, a)
                                 for _, a, t in d], weyl_ok),
        ]
    return jobs


WORKLOADS = {
    "kspectrum": (kspectrum_draw, kspectrum_build, kspectrum_round),
    "region": (region_draw, region_build, region_round),
    "operators": (operators_draw, operators_build, operators_round),
}
