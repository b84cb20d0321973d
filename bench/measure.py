"""Timed passes over a workload's ops, and the metrics computed from them.

Each op is timed on its own, from call to return; its correctness check
runs right after it, outside the timed region.  A pass stops once the
ops' own time reaches the requested seconds, so checks never count
towards the measurement.  Reported timings are scaled to a reference
host speed (``calibration.py``); the raw ones are printed beside them.
A pass with no successful op reports no latency percentiles.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

from calibration import HostSpeed
from checks import CHECKS
from spinbath import bath, cli
from tracing import (
    END, EXPECTED_DOMINANT, NAME, OP, PARENT, START, Tracer, dominant_share, layer_metrics)
from workloads import run_op

BENCH = Path(__file__).resolve().parent
#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
#: failed ops described on stdout, at most
FAILURES_SHOWN = 5
#: share of op time that a workload's expected layers must take
DOMINANT_SHARE = 0.5


def probes() -> list:
    """Known defects, reported once per run and kept out of every metric."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--scenario", "fig2-trajectories", "--set", "delta=0"])
    lines = [f"fig2-trajectories --set delta=0: exit {code} {err.getvalue().strip()}"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coefficients = bath.lamb_shift_coefficients(
                bath.SpectralDensity.ohmic(0.1, 250.0, bath.HARD_CUTOFF),
                bath.BathThermal(0.25),
                bath.BathGeometry(separation=25.0, dimension=1, velocity=1.0),
                1.0,
            )
        outcome = f"returns A, B = {coefficients[0]!r}, {coefficients[1]!r}"
    except Exception as exc:  # the probe reports whatever the defect raises
        outcome = f"raises {type(exc).__name__}: {str(exc)[:120]}"
    lines.append(f"lamb_shift_coefficients 1D hard-cutoff 250 separation 25: {outcome}")
    return lines


def setup_seconds(workload: str, root: Path) -> tuple:
    """Wall times of fresh interpreters that import spinbath and run one op.

    Returns the raw times and the same times scaled to the reference speed.
    """
    times, scaled = [], []
    speed = HostSpeed()
    for _ in range(SETUP_RUNS):
        factor = speed.track(sum(times))
        start = perf_counter()
        child = subprocess.run(
            [sys.executable, str(BENCH / "setup_op.py"), workload],
            cwd=root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        times.append(perf_counter() - start)
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up op exited {child.returncode}: {child.stderr.decode()[-400:]}"
            )
        scaled.append(times[-1] * factor)
    return times, scaled


class Pass:
    """Outcome of timing a sequence of ops.

    ``latencies`` and ``busy`` are scaled to the reference host speed,
    ``raw_latencies`` and ``raw_busy`` are as measured; ``factors[i]`` is
    the scale factor of the i-th op attempted.
    """

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.factors = []
        self.attempted = self.failed = self.checked = 0
        self.busy = self.raw_busy = 0.0
        self.max_dev = 0.0
        self.failures = []
        self.speed = HostSpeed()

    @property
    def ops_per_s(self) -> float:
        """Successful ops per scaled second of op time."""
        return len(self.latencies) / self.busy

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.raw_latencies) / self.raw_busy


def run_pass(workload, ops, seconds, seed, tracer=None) -> Pass:
    """Time ops until ``seconds`` of op time is spent (all ops if None)."""
    check = CHECKS[workload]
    result = Pass()
    for index, op in enumerate(ops):
        if seconds is not None and result.raw_busy >= seconds:
            break
        factor = result.speed.track(result.raw_busy)
        result.factors.append(factor)
        scope = tracer.op(index) if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with scope:
                output = run_op(workload, op)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = perf_counter() - start
            problem = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            try:
                deviation = check(op, output, np.random.default_rng([seed, index]))
            except Exception as exc:  # includes CheckFailure
                problem = f"check {type(exc).__name__}: {exc}"
            else:
                problem = None
                result.checked += 1
                result.max_dev = max(result.max_dev, deviation)
                result.latencies.append(elapsed * factor)
                result.raw_latencies.append(elapsed)
        result.busy += elapsed * factor
        result.raw_busy += elapsed
        result.attempted += 1
        if problem is not None:
            result.failed += 1
            if len(result.failures) < FAILURES_SHOWN:
                result.failures.append(f"op {index} {op}: {problem[:300]}")
    if seconds is not None and result.raw_busy < seconds:
        print(f"info input stream of {len(ops)} ops ran out after {result.raw_busy:.3f} s")
    return result


def _latency_metrics(timed: Pass) -> dict:
    """ops_per_s and the latency percentiles; no percentiles without a successful op."""
    n = len(timed.latencies)
    metrics = {"ops_per_s": (timed.ops_per_s, "1/s", f"{n} ops in {timed.busy:.3f} scaled s")}
    if n:
        p50, p90 = np.percentile(np.array(timed.latencies) * 1e3, [50, 90]).tolist()
        metrics["op_p50_ms"] = (p50, "ms", f"{n} ops")
        metrics["op_p90_ms"] = (p90, "ms", f"{n} ops, {n - int(0.9 * n)} beyond")
    return metrics


def end_to_end(workload: str, ops: list, seconds: float, seed: int, root: Path):
    """Set-up runs, then one timed pass: the end-to-end metrics."""
    raw_setup, setup = setup_seconds(workload, root)
    timed = run_pass(workload, ops, seconds, seed)
    n = len(timed.latencies)
    metrics = _latency_metrics(timed)
    metrics["success_rate"] = (n / timed.attempted, "1", f"{timed.attempted} attempted")
    metrics["setup_s"] = (statistics.median(setup), "s", f"median of {len(setup)} interpreters")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "1 process")
    raw = [f"ops_per_s = {timed.raw_ops_per_s!r} ({n} ops in {timed.raw_busy:.3f} s)"]
    if n:
        raw_p50, raw_p90 = np.percentile(np.array(timed.raw_latencies) * 1e3, [50, 90]).tolist()
        raw.append(f"op_p50_ms = {raw_p50!r}, op_p90_ms = {raw_p90!r}")
    raw.append(f"setup_s = {statistics.median(raw_setup)!r}")
    print("info raw " + ", ".join(raw))
    print(f"info host speed factor = {statistics.median(timed.factors)!r} "
          f"(median over {len(timed.factors)} ops, {len(timed.speed.samples)} kernel samples)")
    print(f"info error_rate = {timed.failed / timed.attempted!r} "
          f"({timed.failed} failed of {timed.attempted} attempted)")
    return [timed], metrics


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(workload: str, ops: list, seconds: float, seed: int, span_file: Path):
    """Half the time untraced, then the same ops traced: per-layer metrics.

    Each span is scaled by the host-speed factor of the op it belongs to.
    """
    plain = run_pass(workload, ops, seconds / 2.0, seed)
    tracer = Tracer()
    traced = run_pass(workload, ops[: plain.attempted], None, seed, tracer)
    spans = f"{len(tracer.spans)} spans of {traced.attempted} ops"
    scaled = [
        [span[NAME], span[START] * traced.factors[span[OP]],
         span[END] * traced.factors[span[OP]], *span[PARENT:]]
        for span in tracer.spans
    ]
    metrics = {
        name: (value, unit, spans) for name, (value, unit) in layer_metrics(scaled).items()
    }
    passes = (plain, traced)
    metrics["check.checked_ops"] = (sum(p.checked for p in passes), "count", "both passes")
    metrics["check.max_dev"] = (
        float(max(p.max_dev for p in passes)), "1", "worst deviation / tolerance")
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s", f"{plain.attempted} ops")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s", f"{traced.attempted} ops")
    if plain.latencies:
        metrics["trace.overhead_ratio"] = (
            traced.ops_per_s / plain.ops_per_s, "1", "traced / untraced ops_per_s, same ops")

    expected = EXPECTED_DOMINANT[workload]
    share = dominant_share(scaled, expected)
    verdict = "confirmed" if share >= DOMINANT_SHARE else "MISMATCH"
    print(f"info dominant {' + '.join(expected)}: {share:.3f} of op time, {verdict}")
    span_file.parent.mkdir(exist_ok=True)
    tracer.write(span_file)
    return passes, metrics
