"""One cold set-up of a workload, timed in a fresh process.

    python3 perfbench/coldsetup.py --workload region --seed 1 --trace 0

Imports normlab from ./src into a process that has loaded none of numpy,
scipy or mpmath, then builds the workload's inputs with the program, and
prints one JSON line: ``import_s``, ``build_s`` and, with ``--trace 1``,
the layer totals of the build (see spans.py).  Drawing the inputs from
the seed and loading the benchmark's own modules (the oracles load
mpmath) happen between the two timed parts.  run.py starts this once per
set-up repetition, with the BLAS/OpenMP threads pinned in the
environment it passes on.
"""

import argparse
import importlib
import json
import os
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SUBMODULES = ("automorphic", "coeffs", "fourier", "group", "norms",
              "principal", "quadrature", "siegel")


def import_normlab():
    """Import normlab from ./src and the submodules the workloads use."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("normlab")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"normlab imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module("normlab." + m)
                                    for m in SUBMODULES})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    nl = import_normlab()
    import_s = time.perf_counter() - t0

    import spans
    from workloads import WORKLOADS
    draw, build, _ = WORKLOADS[args.workload]
    spec = draw(args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(nl)
        tracer.active = True

    t0 = time.perf_counter()
    build(nl, spec)
    build_s = time.perf_counter() - t0

    print(json.dumps({"import_s": import_s, "build_s": build_s,
                      "layers": tracer.layers() if tracer else {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
