"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 10

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json, one
process at a time.  Set A uses seeds 1 .. runs and set B the next
``runs`` seeds; the workloads are interleaved and the two sets alternate
which goes first.  For each workload and end-to-end metric it
reports both sets' median and quartiles, the spread (q3 - q1) / median,
and whether the sets agree within the metric's bound:

- each set's spread is within the bound (setup_s exempt);
- set B's median differs from set A's by at most the bound, as a share
  of set A's;
- the share of failed operations is the same in every run.

The report is printed and written to perfbench/out/steady.json.  Exit
code 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative when b is
    better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload in each set")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two runs)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        sets = ("A", "B") if i % 2 == 0 else ("B", "A")
        for s in sets:
            seed = 1 + i + (args.runs if s == "B" else 0)
            for w in workloads:
                res = one_run(w, seed, seconds)
                res["seed"] = seed
                results[w][s].append(res)
                print(f"# run {i} set {s} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in res["metrics"].items()),
                      flush=True)

    ok = True
    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    print(f"\n{'workload':<10} {'metric':<12} {'A median':>10} "
          f"{'A q1..q3':>21} {'A spr':>6} {'B median':>10} {'B spr':>6} "
          f"{'B worse':>8} {'bound':>6}  verdict")
    for w in workloads:
        rows = {}
        shares = {r["failed"] / r["attempted"]
                  for s in "AB" for r in results[w][s]}
        incorrect = sum(not r["correct"] for s in "AB" for r in results[w][s])
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in results[w]["A"]])
            b = summary([r["metrics"][name]["value"] for r in results[w]["B"]])
            worse = worse_by(a["median"], b["median"], m["better"])
            good = abs(worse) <= bound and (name == "setup_s" or (
                a["spread"] <= bound and b["spread"] <= bound))
            ok &= good
            rows[name] = {"A": a, "B": b, "B_worse_by": worse,
                          "bound": bound, "ok": good}
            print(f"{w:<10} {name:<12} {a['median']:>10.5g} "
                  f"{a['q1']:>10.5g}..{a['q3']:<10.5g} {a['spread']:>6.3f} "
                  f"{b['median']:>10.5g} {b['spread']:>6.3f} {worse:>8.3f} "
                  f"{bound:>6.2f}  {'ok' if good else 'NOT STEADY'}")
        ok &= len(shares) == 1 and incorrect == 0
        print(f"{w:<10} failed share {sorted(shares)} in all runs; "
              f"{incorrect} runs not correct")
        report["workloads"][w] = {"metrics": rows,
                                  "failed_shares": sorted(shares),
                                  "incorrect_runs": incorrect,
                                  "runs": results[w]}
    report["ok"] = ok
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
