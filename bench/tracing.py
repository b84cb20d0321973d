"""Span tracing for the benchmark's traced run.

The tracer wraps the package's public functions at the module bindings
their callers resolve at call time (``spinbath.cli.build_generator``,
``spinbath.dynamics.propagate_spectral``, ...), so calls made inside
``survival_report`` and ``propagate`` are counted too.  Bindings are
patched only while an op runs and restored afterwards, leaving every
module attribute as it was.

A span is ``[name, start, end, parent, op, failed, samples]``: ``name`` is
``<defining module>.<function>``, ``parent`` the index of the enclosing
span (-1 for the op's root span), ``samples`` the length of a returned
trajectory.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

from spinbath import cli, dynamics, iontrap, liouvillian, states

#: (module, attribute names wrapped on it)
BINDINGS = (
    (cli, ("main", "build_generator", "classify_spectrum", "propagate_spectral",
           "plan", "temperature_requirement", "report_to_json",
           "state_for_correlation", "z_up_down")),
    (iontrap, ("build_rates", "lamb_shift_coefficients", "correlation_delta")),
    (dynamics, ("classify_spectrum", "mode_coefficients", "propagate_spectral",
                "propagate_ode", "propagate", "survival_report",
                "default_time_grid", "correlation_scalar")),
    (liouvillian, ("build_generator",)),
    (states, ("state_for_correlation",)),
)

#: the package's modules; "harness" is the op's own time outside them
LAYERS = ("cli", "iontrap", "bath", "liouvillian", "dynamics", "states", "harness")
ROOT_SPAN = "harness.op"

NAME, START, END, PARENT, OP, FAILED, SAMPLES = range(7)


class Tracer:
    """Records spans of ops run through :meth:`op`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._wrapped = [
            (module, attr, getattr(module, attr), self._wrap(getattr(module, attr)))
            for module, attrs in BINDINGS
            for attr in attrs
        ]

    def _open(self, name: str) -> list:
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                  self._op, False, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                self._close(record)
            record[SAMPLES] = getattr(getattr(result, "times", None), "size", 0)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: patch the bindings, open its root span, restore."""
        self._op = op_id
        for module, attr, _, wrapper in self._wrapped:
            setattr(module, attr, wrapper)
        record = self._open(ROOT_SPAN)
        try:
            yield
        except BaseException:
            record[FAILED] = True
            raise
        finally:
            self._close(record)
            for module, attr, original, _ in self._wrapped:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span[:OP + 1]) + "\n")


def _self_times(spans: list) -> list:
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


class _Stat:
    def __init__(self):
        self.calls = self.failures = self.samples = 0
        self.total = self.own = 0.0

    def per_call(self, scale: float, own: bool = False) -> float:
        return (self.own if own else self.total) * scale / self.calls if self.calls else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics: name -> (value, unit)."""
    own = _self_times(spans)
    stats: dict = {}
    layer_own = dict.fromkeys(LAYERS, 0.0)
    op_total = 0.0
    survival_propagations = ode_in_propagate = 0
    for span, self_time in zip(spans, own):
        stat = stats.setdefault(span[NAME], _Stat())
        stat.calls += 1
        stat.failures += span[FAILED]
        stat.samples += span[SAMPLES]
        stat.total += span[END] - span[START]
        stat.own += self_time
        layer_own[span[NAME].partition(".")[0]] += self_time
        if span[PARENT] < 0:
            op_total += span[END] - span[START]
            continue
        parent = spans[span[PARENT]][NAME]
        if span[NAME] == "dynamics.propagate_spectral" and parent == "dynamics.survival_report":
            survival_propagations += 1
        if span[NAME] == "dynamics.propagate_ode" and parent == "dynamics.propagate":
            ode_in_propagate += 1

    def stat(name):
        return stats.get(name, _Stat())

    build = stat("liouvillian.build_generator")
    classify = stat("liouvillian.classify_spectrum")
    spectral = stat("dynamics.propagate_spectral")
    survival = stat("dynamics.survival_report")
    ode = stat("dynamics.propagate_ode")
    propagate = stat("dynamics.propagate")
    lamb = stat("bath.lamb_shift_coefficients")
    rates = stat("bath.build_rates")
    metrics = {
        "liouvillian.build_generator.calls": (build.calls, "count"),
        "liouvillian.build_generator.us_per_call": (build.per_call(1e6), "us"),
        "liouvillian.classify_spectrum.calls": (classify.calls, "count"),
        "liouvillian.classify_spectrum.us_per_call": (classify.per_call(1e6), "us"),
        "liouvillian.classify_spectrum.failures": (classify.failures, "count"),
        "dynamics.propagate_spectral.calls": (spectral.calls, "count"),
        "dynamics.propagate_spectral.samples": (spectral.samples, "count"),
        "dynamics.propagate_spectral.us_per_sample": (
            spectral.total * 1e6 / spectral.samples if spectral.samples else 0.0, "us"),
        "dynamics.survival_report.calls": (survival.calls, "count"),
        "dynamics.survival_report.ms_per_call": (survival.per_call(1e3), "ms"),
        "dynamics.survival_report.propagations_per_call": (
            survival_propagations / survival.calls if survival.calls else 0.0, "1"),
        "dynamics.propagate_ode.calls": (ode.calls, "count"),
        "dynamics.propagate_ode.ms_per_call": (ode.per_call(1e3), "ms"),
        "dynamics.propagate.ode_route_ratio": (
            ode_in_propagate / propagate.calls if propagate.calls else 0.0, "1"),
        "bath.lamb_shift_coefficients.calls": (lamb.calls, "count"),
        "bath.lamb_shift_coefficients.ms_per_call": (lamb.per_call(1e3), "ms"),
        "bath.lamb_shift_coefficients.failures": (lamb.failures, "count"),
        "bath.build_rates.calls": (rates.calls, "count"),
        "bath.build_rates.us_per_call": (rates.per_call(1e6), "us"),
        "iontrap.plan.self_ms_per_call": (stat("iontrap.plan").per_call(1e3, own=True), "ms"),
        "cli.main.self_ms_per_call": (stat("cli.main").per_call(1e3, own=True), "ms"),
    }
    for layer in LAYERS:
        share = layer_own[layer] / op_total if op_total else 0.0
        metrics[f"{layer}.self_share"] = (share, "1")
    return metrics


#: what each workload is expected to spend most of its op time in: a
#: layer (self time) or a function (its time including callees)
EXPECTED_DOMINANT = {
    "scan": ("liouvillian", "dynamics.propagate_spectral"),
    "lifetime": ("dynamics.propagate_spectral", "dynamics.survival_report"),
    "trap": ("bath.lamb_shift_coefficients",),
    "common-bath": ("dynamics.propagate_ode",),
}


def dominant_share(spans: list, expected: tuple) -> float:
    """Share of op time spent in the expected layers and functions."""
    own = _self_times(spans)
    covered = [False] * len(spans)
    hit = total = 0.0
    for k, span in enumerate(spans):
        name = span[NAME]
        covered[k] = (
            name in expected
            or name.partition(".")[0] in expected
            or (span[PARENT] >= 0 and covered[span[PARENT]])
        )
        hit += own[k] if covered[k] else 0.0
        if span[PARENT] < 0:
            total += span[END] - span[START]
    return hit / total if total else 0.0
