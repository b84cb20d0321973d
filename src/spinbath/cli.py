"""Command-line front end: figure data, spectra, sweeps, trap planning.

Every scenario renders to plain data (CSV, JSON, or text for the trap
planner) with fixed 9-significant-digit float formatting, so identical
invocations produce byte-identical files.  Infinities are serialized as
the string ``inf``.

Scenarios
---------
fig1-surface       concurrence over a (thermal ratio, scaled time) grid
fig2-trajectories  numeric vs closed-form concurrence for four states
fig2-inset         the same trajectories with Lamb-shift and exchange on
spectrum           classified eigenvalue table of the generator
sweep              peak concurrence and survival time over (delta, R, Lambda)
iontrap            feasibility report for a linear-chain realization

Each scenario is one row of ``_SCENARIOS``: its parameter schema, its
runner and the formats it renders.

Exit codes: 0 success; 2 usage error, which is any ``ValueError``
(``UsageError`` for an unknown scenario or key, a bad value or grid, and
spinbath's own ``ValueError`` subclasses for invalid model inputs); 3
numerical failure, which is any ``spinbath.errors.NumericalFailureError``.
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields
from typing import Mapping

import numpy as np

from .bath import BathThermal, RateSet
from .dynamics import (
    _check_horizon,
    _csv_table,
    analytic_concurrence,
    default_time_grid,
    propagate_spectral,
    survival_time,
)
from .errors import NumericalFailureError
from .iontrap import (
    TrapConfig,
    plan,
    report_to_json,
    report_to_text,
    temperature_requirement,
)
from .liouvillian import (
    ModelParams,
    build_generator,
    classify_spectrum,
    first_order_slow_rate,
    spectrum_to_json,
)
from .states import (
    bell_singlet,
    bell_triplet,
    correlation_scalar,
    maximally_mixed,
    state_for_correlation,
    z_up_down,
)

__all__ = ["main", "run"]


class UsageError(ValueError):
    """Bad invocation: unknown key, malformed value, invalid grid."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float_list(raw: str) -> tuple:
    items = [piece for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(piece) for piece in items)


def _merge_parameters(scenario: str, schema: Mapping, pairs: Mapping) -> dict:
    """The schema's defaults, overridden by the parsed string ``pairs``."""
    values = {key: default for key, (_, default) in schema.items()}
    for key, raw in pairs.items():
        if key not in schema:
            raise UsageError(
                f"unknown parameter {key!r} for scenario {scenario}; "
                "valid keys: " + ", ".join(sorted(schema))
            )
        parser, _ = schema[key]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from exc
    return values


def _read_config_file(path: str) -> dict:
    pairs = {}
    try:
        with open(path, "r", encoding="utf-8") as stream:
            for line_no, line in enumerate(stream, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(
                        f"{path}:{line_no}: expected key=value, got {stripped!r}"
                    )
                key, _, value = stripped.partition("=")
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def _labelled_record(delta: float, ratio: float, **coherent):
    """The labelled spectrum record of a scenario's model, in gamma0 = 1
    units, with the :class:`ModelParams` fields ``coherent``.  An
    out-of-range ratio, deficit or field raises the model's ``ValueError``,
    and an unlabelled spectrum its ``DegenerateSpectrumError``."""
    rates = RateSet.from_parameters(1.0, BathThermal.from_ratio(ratio), delta)
    return classify_spectrum(build_generator(ModelParams(**coherent), rates))


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _run_fig1(values: dict, fmt: str) -> str:
    if values["r_points"] < 1 or values["lt_points"] < 2:
        raise UsageError("r_points must be >= 1 and lt_points >= 2")
    if not 0.0 < values["r_min"] <= values["r_max"] < 1.0:
        raise UsageError("need 0 < r_min <= r_max < 1")
    if not 0.0 < values["lt_max"] < math.inf:
        raise UsageError("lt_max must be positive and finite")
    lam = values["lambda_corr"]
    initial = z_up_down() if lam == -1.0 else state_for_correlation(lam)
    lt_grid = np.linspace(0.0, values["lt_max"], values["lt_points"])
    ratios = np.linspace(values["r_min"], values["r_max"], values["r_points"]).tolist()
    rows = []
    for ratio in ratios:
        report = _labelled_record(values["delta"], ratio, delta_field=values["delta_field"])
        slow = -report.slow_eigenvalue
        _check_horizon(values["lt_max"] / slow, float(np.max(np.abs(report.eigenvalues))))
        trajectory = propagate_spectral(report, initial, lt_grid / slow)
        pairs = zip(lt_grid.tolist(), trajectory.concurrence.tolist())
        rows += [(ratio, lt, conc) for lt, conc in pairs]
    return _csv_table(("R", "lambda1_t", "concurrence_numeric"), rows)


_FIG2_STATES = (
    ("singlet", bell_singlet),
    ("z_up_down", z_up_down),
    ("mixed", maximally_mixed),
    ("triplet", bell_triplet),
)


#: the splitting of both fig2 scenarios; the secular rates and the four
#: states' concurrence do not depend on it, so it is not a parameter
_FIG2_SPLITTING = 10.0


def _run_fig2(values: dict, fmt: str, dressed: bool = False) -> str:
    model = (values["delta"], values["r"])
    report = _labelled_record(*model, delta_field=_FIG2_SPLITTING)
    if dressed:
        strength = 1.0 / (2.0 * -report.slow_eigenvalue)
        report = _labelled_record(
            *model, delta_field=_FIG2_SPLITTING, lamb_b=strength, exchange_xi=strength
        )
    slow_used = -report.slow_eigenvalue

    ratio = values["r"]
    horizon_tc = survival_time(ratio, -3.0, slow_used)
    horizon = (
        values["horizon_factor"] * horizon_tc
        if np.isfinite(horizon_tc) and horizon_tc > 0
        else 10.0 / slow_used
    )
    times = default_time_grid(1.0, horizon, values["points"])
    _check_horizon(horizon, float(np.max(np.abs(report.eigenvalues))))

    columns = [("t_gamma0", times), ("t_lambda1", times * slow_used)]
    for name, factory in _FIG2_STATES:
        state = factory()
        lam = correlation_scalar(state)
        trajectory = propagate_spectral(report, state, times)
        envelope = analytic_concurrence(ratio, lam, slow_used, times)
        columns.append((f"c_num_{name}", trajectory.concurrence))
        columns.append((f"c_ana_{name}", envelope))

    table = np.column_stack([col for _, col in columns])
    return _csv_table([name for name, _ in columns], table.tolist())


def _run_spectrum(values: dict, fmt: str) -> str:
    coherent = {field.name: values[field.name] for field in fields(ModelParams)}
    report = _labelled_record(values["delta"], values["r"], **coherent)
    if fmt == "json":
        return spectrum_to_json(report) + "\n"
    rows = [
        (k, report.labels[k], value.real, value.imag)
        for k, value in enumerate(report.eigenvalues.tolist())
    ]
    return _csv_table(("index", "label", "re", "im"), rows)


def _sweep_cell(cell: tuple) -> tuple:
    delta, ratio, lam = cell
    slow = first_order_slow_rate(BathThermal.from_ratio(ratio).occupation, delta)
    peak = analytic_concurrence(ratio, lam, slow, 0.0)
    return (delta, ratio, lam, peak, survival_time(ratio, lam, slow))


def _run_sweep(values: dict, fmt: str) -> str:
    deltas, ratios, lams = (
        values["delta_values"],
        values["r_values"],
        values["lambda_values"],
    )
    if not all(0.0 <= d <= 1.0 for d in deltas):
        raise UsageError(
            "delta_values must lie in [0, 1]: d > 1 is the dual of 2 - d (delta <-> 2 - delta)"
        )
    if not all(0.0 < r <= 1.0 for r in ratios):
        raise UsageError("r_values must lie in (0, 1]")
    if not all(-3.0 <= l <= 1.0 for l in lams):
        raise UsageError("lambda_values must lie in [-3, 1]")
    cells = [(d, r, l) for d in deltas for r in ratios for l in lams]
    header = ("delta", "R", "lambda", "peak_concurrence", "t_c_gamma0")
    return _csv_table(header, [_sweep_cell(cell) for cell in cells])


def _run_iontrap(values: dict, fmt: str) -> str:
    knobs = {knob.name: values[knob.name] for knob in fields(TrapConfig)}
    config = TrapConfig.from_mapping(knobs)
    result = plan(
        config, exact_delta=values["exact_delta"], lamb_shift=values["lamb_shift"]
    )
    kelvin = temperature_requirement(config)
    if fmt == "json":
        return report_to_json(result.report, kelvin) + "\n"
    return report_to_text(result.report, kelvin)


# ---------------------------------------------------------------------------
# Scenario table
# ---------------------------------------------------------------------------

_FIG2_SCHEMA = {
    "delta": (float, 0.05),
    "r": (float, 0.9),
    "points": (int, 400),
    "horizon_factor": (float, 3.0),
}

#: scenario -> (parameter schema {key: (parser, default)}, runner, formats).
#: The runners are this module's own functions and look the library
#: functions up at call time, so a patched module binding takes effect.
#: TrapConfig knobs are all read as floats, so that
#: TrapConfig.from_mapping alone decides which are integers.
_SCENARIOS: dict = {
    "fig1-surface": (
        {
            "delta": (float, 0.05),
            "lambda_corr": (float, -1.0),
            "delta_field": (float, 10.0),
            "r_min": (float, 0.1),
            "r_max": (float, 0.99),
            "r_points": (int, 45),
            "lt_max": (float, 3.0),
            "lt_points": (int, 61),
        },
        _run_fig1,
        ("csv",),
    ),
    "fig2-trajectories": (_FIG2_SCHEMA, _run_fig2, ("csv",)),
    "fig2-inset": (_FIG2_SCHEMA, functools.partial(_run_fig2, dressed=True), ("csv",)),
    "spectrum": (
        {
            "delta": (float, 0.05),
            "r": (float, 0.9),
            "delta_field": (float, 10.0),
            "lamb_a": (float, 0.0),
            "lamb_b": (float, 0.0),
            "exchange_xi": (float, 0.0),
        },
        _run_spectrum,
        ("csv", "json"),
    ),
    "sweep": (
        {
            "delta_values": (_parse_float_list, (0.01, 0.05, 0.2)),
            "r_values": (_parse_float_list, (0.5, 0.7, 0.9)),
            "lambda_values": (_parse_float_list, (-3.0, -1.0, 0.0, 1.0)),
        },
        _run_sweep,
        ("csv",),
    ),
    "iontrap": (
        {
            **{knob.name: (float, knob.default) for knob in fields(TrapConfig)},
            "exact_delta": (_parse_bool, False),
            "lamb_shift": (_parse_bool, True),
        },
        _run_iontrap,
        ("csv", "json"),
    ),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Correlated-bath two-qubit dynamics: figure data, "
        "spectra, sweeps and ion-trap planning.",
    )
    parser.add_argument(
        "--scenario",
        required=True,
        choices=sorted(_SCENARIOS),
        help="what to compute",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="flat key=value file applied before --set overrides",
    )
    parser.add_argument("--out", default="-", metavar="PATH", help="output file; - for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_PARSER = _build_parser()


def _gather_pairs(args) -> dict:
    pairs: dict = {}
    if args.config:
        pairs.update(_read_config_file(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _dispatch(args) -> str:
    schema, runner, formats = _SCENARIOS[args.scenario]
    values = _merge_parameters(args.scenario, schema, _gather_pairs(args))
    if args.format not in formats:
        raise UsageError(f"{args.scenario} only renders " + " or ".join(map(str.upper, formats)))
    return runner(values, args.format)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload = _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        # spectrum degeneracy, non-finite generator or propagation,
        # non-convergent quadrature; any other error is a bug and keeps its
        # traceback
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out == "-":
            sys.stdout.write(payload)
        else:
            with open(args.out, "w", encoding="utf-8") as stream:
                stream.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
