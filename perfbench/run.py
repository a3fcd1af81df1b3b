"""normlab benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload kspectrum --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (see README.md).  A job
ledger (each job's parameters, error against its oracle, tolerance and
pass/fail, and the raw times) and, when traced, the spans are written
under perfbench/out/.
"""

import os
import sys

# BLAS/OpenMP pools are sized when numpy loads, so pin them first
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
# the program's tolerance default comes from the environment; use its
# built-in 1e-8
os.environ.pop("NORMLAB_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans as tracing  # noqa: E402
from coldsetup import SRC, import_normlab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SETUP_REPS = 5
# a job's time is the median over the rounds: kspectrum's rounds are the
# shortest, and its median job the noisiest, so it makes one more
MIN_ROUNDS = {"kspectrum": 3, "region": 2, "operators": 2}
# a traced run: a traced round, then an untraced one
TRACED_ROUNDS = 2

# The calibration kernel's time on the reference machine (README.md).
# Reported times are measured times scaled by REF_CALIBRATION_S over the
# kernel's time measured alongside them: for a job, the mean of the
# kernel runs just before and just after it.
REF_CALIBRATION_S = 0.005


class Calibration:
    """A fixed kernel of the two kinds of work normlab does -- complex
    exponentials of an outer product with a 64x16 by 16x200 product, and
    a scalar loop of complex arithmetic in Python, about half the time
    each -- timed before every job and after the last.  The host's speed moves in steps of up to
    1.6x from one minute to the next and the kernel slows with it, while
    it does not touch normlab, so a change to the program does not move
    it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.om = rng.uniform(0.0, 50.0, 64)
        self.x16 = np.polynomial.legendre.leggauss(16)[0]
        self.gv = rng.standard_normal((200, 16)) + 0j
        self.mids = np.arange(200.0)

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(4):
            inner = np.exp(-1j * np.outer(self.om, self.x16)) @ self.gv.T
            np.sum(np.exp(-1j * np.outer(self.om, self.mids)) * inner)
        z, acc, r = 0j, 0j, 0.37 + 0.11j
        for j in range(6000):
            z = z * r + 1.0
            acc += z / (j + 1.5)
        return time.perf_counter() - t0


def setup(workload, seed, trace, calibrate):
    """Time SETUP_REPS cold set-ups, each in a fresh process
    (coldsetup.py): import normlab, then build the workload's inputs.
    Returns the median set-up time (raw and at reference speed) and, with
    ``trace``, the layers the last set-up reached and the median time
    spent in coeffs.generate (at reference speed), and the median kernel
    time the set-up was scaled by."""
    cmd = [sys.executable, os.path.join(HERE, "coldsetup.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    # the kernel runs before the first child: just after a child ends it
    # runs up to 1.5x slower while the child's work leaves the caches
    cals = [calibrate() for _ in range(SETUP_REPS)]
    times, generate, layers = [], [], {}
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up exited {proc.returncode}:\n"
                               f"{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(res["import_s"] + res["build_s"])
        layers = res["layers"]
        generate.append(layers.get("coeffs.generate",
                                   {"self_s": 0.0})["self_s"])
    raw = statistics.median(times)
    scale = REF_CALIBRATION_S / statistics.median(cals)
    return raw, raw * scale, layers, statistics.median(generate) * scale, \
        statistics.median(cals)


class Round:
    __slots__ = ("jobs", "outs", "durs", "cals")

    @property
    def cal(self):
        return statistics.median(self.cals)

    def job_scale(self, i):
        """Job i's measured seconds to seconds at reference speed, from
        the kernel runs that bracket it."""
        return 2.0 * REF_CALIBRATION_S / (self.cals[i] + self.cals[i + 1])

    def scaled_total(self):
        return sum(d * self.job_scale(i) for i, d in enumerate(self.durs))


def run_rounds(nl, workload, spec, inputs, seconds, min_rounds, calibrate,
               step=1, before_round=None):
    """Whole rounds until ``seconds`` have passed and at least min_rounds
    are done, in a multiple of ``step`` rounds.  ``before_round(i)`` runs
    untimed before round i; the calibration kernel runs untimed before
    every job and after the last."""
    _, _, make_round = WORKLOADS[workload]
    rounds = []
    start = time.perf_counter()
    while True:
        if before_round is not None:
            before_round(len(rounds))
        r = Round()
        r.jobs = make_round(nl, spec, inputs)
        r.outs, r.durs, cals = {}, [], []
        for job in r.jobs:
            cals.append(calibrate())
            t0 = time.perf_counter()
            try:
                out = job.fn()
            except Exception as exc:  # a failed operation, counted below
                out = exc
            r.durs.append(time.perf_counter() - t0)
            r.outs[job.label] = out
        cals.append(calibrate())
        r.cals = cals
        rounds.append(r)
        done = len(rounds)
        if done >= min_rounds and done % step == 0 \
                and time.perf_counter() - start >= seconds:
            break
    return rounds


def check_rounds(rounds):
    """Check every job of every round.  Returns (attempted, failed,
    unexpected, ledger of the first round)."""
    attempted = failed = unexpected = 0
    ledger = []
    for i, r in enumerate(rounds):
        for job, dur in zip(r.jobs, r.durs):
            out = r.outs[job.label]
            err, tol, note = math.nan, math.nan, ""
            if isinstance(out, Exception):
                note = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    err, tol = job.check(out, r.outs)
                except Exception as exc:
                    note = f"check raised {type(exc).__name__}: {exc}"
            ok = not note and err <= tol
            attempted += 1
            if not ok:
                failed += 1
                unexpected += not (job.gate is not None and err <= job.gate)
            if i == 0:
                ledger.append({"job": job.label, "kind": job.kind,
                               "params": job.params, "seconds": dur,
                               "error": err, "tol": tol, "ok": ok,
                               "gate": job.gate, "note": note})
    return attempted, failed, unexpected, ledger


def tail_percentile(n_jobs):
    """The highest whole percentile with at least ten of ``n_jobs``
    distinct jobs beyond it."""
    return math.floor(100.0 * (n_jobs - 10) / n_jobs)


def nearest_rank(sorted_vals, q):
    k = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def job_metrics(rounds, scaled):
    """job_p50_s, job_tail_s and jobs_per_s.  Every round runs the same
    jobs, so a job's time is the median of its executions: a burst of
    outside load that slows one round does not move it.  The percentiles
    are taken over the distinct jobs' times."""
    per_job = [statistics.median(ds) for ds in
               zip(*([d * (r.job_scale(i) if scaled else 1.0)
                      for i, d in enumerate(r.durs)] for r in rounds))]
    times = sorted(per_job)
    q = tail_percentile(len(per_job))
    return {"job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (nearest_rank(times, q), "s"),
            "jobs_per_s": (len(per_job) / sum(per_job), "1/s")}, q


def print_ledger(workload, seed, ledger):
    print(f"# {workload} seed {seed}: first-round ledger "
          f"(measured seconds, error against oracle, tol, pass)")
    for row in ledger:
        if row["ok"]:
            flag = "ok"
        elif row["gate"] is None:
            flag = "FAIL"
        elif row["error"] <= row["gate"]:
            flag = f"FAIL (known fault, within its gate {row['gate']:.0e})"
        else:
            flag = f"FAIL (known fault, beyond its gate {row['gate']:.0e})"
        print(f"#   {row['job']:<16} {row['kind']:<18} "
              f"{row['seconds']:8.4f}s err {row['error']:.3e} "
              f"tol {row['tol']:.0e} {flag} {row['note']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "normlab", "__init__.py")):
        print(f"error: no normlab sources under {SRC}", file=sys.stderr)
        return 2

    draw, build, _ = WORKLOADS[args.workload]
    calibrate = Calibration()
    setup_raw, setup_s, setup_layers, generate_s, setup_cal = setup(
        args.workload, args.seed, args.trace, calibrate)
    # the rounds' own inputs, built again in this process, untimed
    spec = draw(args.seed)
    nl = import_normlab()
    inputs = build(nl, spec)
    tracer = tracing.Tracer() if args.trace else None

    info = {"workload": args.workload, "seed": args.seed,
            "threads": THREADS, "seconds": args.seconds,
            "ref_calibration_s": REF_CALIBRATION_S,
            "setup_calibration_s": setup_cal}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    missing = []
    if tracer is None:
        rounds = run_rounds(nl, args.workload, spec, inputs, args.seconds,
                            MIN_ROUNDS[args.workload], calibrate)
        metrics, q = job_metrics(rounds, True)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        raw, _ = job_metrics(rounds, False)
        raw["setup_s"] = (setup_raw, "s")
        info.update(jobs=len(rounds[0].jobs), rounds=len(rounds),
                    tail_percentile=q,
                    measured_metrics={k: v for k, (v, _) in raw.items()})
    else:
        def toggle(i):
            # even rounds traced, odd rounds not: a drift in the machine's
            # speed falls on both alike
            if i % 2 == 0:
                tracer.install(nl)
                tracer.active = True
            else:
                tracer.active = False
                tracer.uninstall()

        rounds = run_rounds(nl, args.workload, spec, inputs, args.seconds,
                            TRACED_ROUNDS, calibrate, 2, toggle)
        traced, plain = rounds[0::2], rounds[1::2]
        layers = tracer.layers()
        tracer.write(stem + "-spans.json")
        scale = REF_CALIBRATION_S / statistics.median(r.cal for r in traced)
        traced_w = statistics.median(r.scaled_total() for r in traced)
        plain_w = statistics.median(r.scaled_total() for r in plain)
        metrics = tracing.per_layer_metrics(layers, len(traced), scale,
                                            generate_s)
        metrics["trace.overhead_s"] = (traced_w - plain_w, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_w - plain_w)
                                         / plain_w, "%")
        missing = [name for name in tracing.EXPECTED[args.workload]
                   if name not in layers and name not in setup_layers]
        info.update(layers=layers, setup_layers=setup_layers)

    attempted, failed, unexpected, ledger = check_rounds(rounds)
    info.update(attempted=attempted, failed=failed,
                unexpected_failures=unexpected, ledger=ledger,
                calibration_s=[r.cal for r in rounds],
                job_calibration_s=[r.cals for r in rounds],
                durations={job.label: [r.durs[i] for r in rounds]
                           for i, job in enumerate(rounds[0].jobs)},
                metrics={k: v for k, (v, _) in metrics.items()})
    with open(stem + ".json", "w") as fh:
        json.dump(info, fh, indent=1, default=str)
    print_ledger(args.workload, args.seed, ledger)
    speed = statistics.median(r.cal for r in rounds) / REF_CALIBRATION_S
    print(f"# {len(rounds)} rounds; calibration kernel at {speed:.3f} x its "
          f"reference time; BLAS/OpenMP threads pinned to {THREADS}")
    if "tail_percentile" in info:
        print(f"# {info['jobs']} distinct jobs a round; job_tail_s is the "
              f"p{info['tail_percentile']} job time; measured (unscaled): "
              + " ".join(f"{k}={v:.4g}"
                         for k, v in info["measured_metrics"].items()))
    if tracer is not None and tracer.absent:
        print(f"# bindings not found in normlab: "
              f"{', '.join(sorted(tracer.absent))}")
    if missing:
        print(f"trace guard: no calls recorded in layer(s) "
              f"{', '.join(missing)} on workload {args.workload}; "
              f"a wrapper was bypassed", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
