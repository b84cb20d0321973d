"""Benchmark of the spinbath package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Four workloads: ``scan``, ``lifetime``,
``trap`` and ``common-bath`` (``workloads.py``).  One client in one
process runs a closed loop:
the next op starts only when the previous one has returned.  Ops are
generated from ``--seed`` before timing, timed one by one until
``--seconds`` of op time has been spent (``measure.py``), and each is
checked against the test suite's reference routes outside the timed
region (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and then the same ops traced (``tracing.py``) and reports
the per-layer metrics, including the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit and
sample count, the environment, and two known-defect probes.
"""

import os

# One thread per process: on a small shared machine OpenBLAS's thread pool
# turns 16x16 linear algebra into milliseconds of spin-waiting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan", "lifetime", "trap", "common-bath")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in stream if line.startswith("model name")),
                cpu,
            )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "spinbath" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print("error: run from a spinbath checkout: src/spinbath and tests/oracles.py "
              "are required", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from workloads import REFERENCE, make_inputs, run_op

    print("env " + json.dumps(_environment(args), sort_keys=True))
    for line in measure.probes():
        print(f"probe {line}")
    ops = make_inputs(args.workload, args.seed)
    run_op(args.workload, REFERENCE[args.workload])  # warm-up: lazy imports, first calls
    print(f"info rss after imports, inputs and warm-up = {measure.peak_rss_mb()!r} MB "
          "(the harness's share of peak_rss_mb is at most this less spinbath's import)")
    if args.trace:
        span_file = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        passes, metrics = measure.per_layer(
            args.workload, ops, args.seconds, args.seed, span_file)
        print(f"info spans written to {span_file.relative_to(ROOT)}")
    else:
        passes, metrics = measure.end_to_end(
            args.workload, ops, args.seconds, args.seed, ROOT)

    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({samples})")
    for run in passes:
        for line in run.failures:
            print(f"failure {line}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
