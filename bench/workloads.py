"""Seeded workloads of the spinbath benchmark.

A workload is a stream of operations ("ops").  Inputs are drawn from the
valid domain before any timing starts: a low-discrepancy (Kronecker)
sequence, shifted by a random offset drawn from ``--seed``, is mapped onto
the workload's parameter box, so the same seed always gives the same
inputs and every prefix of the stream covers the box evenly (which keeps
run-to-run spread low without fixing the inputs).  No input is ever
dropped because it fails.

Ops call the package through the same public entry points users call and
look every function up on its module at call time (``cli.main``,
``dynamics.propagate``, ...), so the traced run can wrap those bindings.

Workloads:

* ``scan``: one ``fig1-surface`` CLI call at a single seeded point, the
  default 61 scaled-time samples.  One new generator, eigendecomposition
  and short trajectory per op.
* ``lifetime``: one generator, then ``survival_report(numeric=True)`` and
  a 400-sample ``propagate``.  Few builds, long trajectories: time goes to
  per-sample concurrence and the survival root-find.
* ``common-bath``: one generator and a 400-sample ``propagate`` at
  deficit 0 or 1e-12..1e-8, the paper's perfectly correlated limit; the
  only workload that reaches the ``propagate_ode`` fallback.
* ``trap``: one ``iontrap --format json`` CLI call with the Lamb shift
  on, over 1D, 2D and 3D baths.  Principal-value integrals dominate and
  the cost is heavy-tailed; no eigensolver runs.  The bath dimension sets
  the cost (2D, with its hand-rolled J0 profile, is the tail); the other
  knobs move an op's time by a few percent.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

from spinbath import bath, cli, dynamics, liouvillian, states

#: workload name -> why it is in the benchmark (mirrored in BENCHMARK.json)
WHY = {
    "scan": "one fig1-surface CLI call per op: a new generator and eigensolve for "
    "a short 61-sample trajectory, so generator and eig changes show",
    "lifetime": "survival_report plus a 400-sample propagate per op: few builds, "
    "long trajectories, per-sample concurrence and root-finding dominate",
    "trap": "iontrap CLI calls over 1D, 2D and 3D baths: principal-value Lamb "
    "integrals dominate, heavy-tailed cost, no eigensolver or propagation",
    "common-bath": "perfectly and nearly perfectly correlated baths: the only "
    "workload that reaches the propagate_ode fallback",
}

NAMES = tuple(WHY)

#: the qubit splitting of the common-bath workload: the package default
COMMON_BATH_FIELD = 10.0
#: time samples of the lifetime and common-bath trajectories
TRAJECTORY_POINTS = 400


def _log_uniform(u: float, low: float, high: float) -> float:
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def _slow_lifetimes(ratio: float, delta: float) -> float:
    """Three first-order slow lifetimes, 3 / ((1 + 3N) delta), from inputs alone."""
    occupation = (1.0 / ratio - 1.0) / 2.0
    return 3.0 / ((1.0 + 3.0 * occupation) * delta)


def _scan_input(u) -> dict:
    return {
        "delta": _log_uniform(u[0], 1e-4, 2.0),
        "ratio": 0.05 + 0.94 * u[1],
        "delta_field": _log_uniform(u[2], 1.0, 100.0),
        "lambda_corr": -3.0 + 4.0 * u[3],
    }


def _lifetime_input(u) -> dict:
    ratio = 0.5 + 0.49 * u[0]
    delta = _log_uniform(u[1], 1e-3, 0.5)
    return {
        "delta": delta,
        "ratio": ratio,
        "delta_field": _log_uniform(u[2], 1.0, 100.0),
        "lambda_corr": -3.0 + 4.0 * u[3],
        "horizon": _slow_lifetimes(ratio, delta),
    }


#: Trap knobs span the values the package defines and tests: the TrapConfig
#: defaults are the 100-ion reference point (100 ions, Delta = 25 omega_t,
#: alpha = 0.1, ratio 0.5, neighbouring ions; tests/test_acceptance.py
#: criterion 8), and tests/test_iontrap.py and tests/test_cli.py run 50 to
#: 400 ions, Delta of 5 to 30 omega_t, alpha down to 0.01 and ratios up to
#: 0.9.  With rabi_ratio <= 30 < 50 <= ion_count every config is valid, and
#: its quadratic deficit (Delta / N)^2 / (2 d) stays below 0.18, inside [0, 2].
TRAP_IONS = (50, 400)
TRAP_RABI = (5.0, 30.0)
TRAP_COUPLING = (0.01, 0.1)
TRAP_RATIO = (0.5, 0.9)


def _trap_input(u) -> dict:
    return {
        "ion_count": round(_log_uniform(u[2], *TRAP_IONS)),
        "rabi_ratio": _log_uniform(u[3], *TRAP_RABI),
        "addressed_spacing": 1,
        "bath_dimension": 1 + min(int(3 * u[0]), 2),
        "exact_delta": bool(u[1] < 0.5),
        "ohmic_coupling": _log_uniform(u[4], *TRAP_COUPLING),
        "target_ratio": TRAP_RATIO[0] + (TRAP_RATIO[1] - TRAP_RATIO[0]) * u[5],
    }


def _common_bath_input(u) -> dict:
    if u[0] < 0.5:
        delta = 0.0
    else:
        delta = _log_uniform(2.0 * u[0] - 1.0, 1e-12, 1e-8)
    return {
        "delta": delta,
        "ratio": 0.5 + 0.49 * u[1],
        "lambda_corr": -3.0 + 4.0 * u[2],
        "horizon": _log_uniform(u[3], 3.0, 30.0),
    }


_MAKERS = {
    "scan": (4, _scan_input),
    "lifetime": (4, _lifetime_input),
    "trap": (6, _trap_input),
    "common-bath": (4, _common_bath_input),
}


#: fixed reference op per workload: the warm-up op and the set-up op
REFERENCE = {
    "scan": {"delta": 0.05, "ratio": 0.9, "delta_field": 10.0, "lambda_corr": -1.0},
    "lifetime": {
        "delta": 0.05,
        "ratio": 0.9,
        "delta_field": 10.0,
        "lambda_corr": -1.0,
        "horizon": _slow_lifetimes(0.9, 0.05),
    },
    "trap": {
        "ion_count": 100,
        "rabi_ratio": 25.0,
        "addressed_spacing": 1,
        "bath_dimension": 1,
        "exact_delta": False,
        "ohmic_coupling": 0.1,
        "target_ratio": 0.5,
    },
    "common-bath": {"delta": 0.0, "ratio": 0.9, "lambda_corr": -1.0, "horizon": 10.0},
}


def make_inputs(name: str, seed: int, count: int = 8192) -> list:
    """The first ``count`` points of a workload's seeded input stream.

    Point ``n`` is ``frac(shift + n * a)`` with ``a_k = phi_d ** -(k + 1)``,
    ``phi_d`` the root of ``x ** (d + 1) = x + 1`` (Roberts' R_d
    sequence), and ``shift`` uniform in the unit box from ``seed``.
    """
    dims, maker = _MAKERS[name]
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = phi ** -np.arange(1.0, dims + 1.0)
    shift = np.random.default_rng(seed).random(dims)
    points = (shift + np.arange(count)[:, None] * step) % 1.0
    return [maker(row) for row in points.tolist()]


def _cli(argv: list) -> str:
    """Run ``spinbath.cli.main`` in process; return stdout or raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def scan_argv(op: dict) -> list:
    ratio = repr(op["ratio"])
    return [
        "--scenario", "fig1-surface",
        "--set", f"delta={op['delta']!r}",
        "--set", f"r_min={ratio}",
        "--set", f"r_max={ratio}",
        "--set", "r_points=1",
        "--set", f"delta_field={op['delta_field']!r}",
        "--set", f"lambda_corr={op['lambda_corr']!r}",
    ]


def trap_argv(op: dict) -> list:
    argv = ["--scenario", "iontrap", "--format", "json", "--set", "lamb_shift=true"]
    for key, value in op.items():
        text = ("true" if value else "false") if isinstance(value, bool) else repr(value)
        argv += ["--set", f"{key}={text}"]
    return argv


def _generator(op: dict, delta_field: float):
    rates = bath.RateSet.from_parameters(
        1.0, bath.BathThermal.from_ratio(op["ratio"]), op["delta"]
    )
    return liouvillian.build_generator(liouvillian.ModelParams(delta_field), rates)


def _lifetime(op: dict):
    generator = _generator(op, op["delta_field"])
    initial = states.state_for_correlation(op["lambda_corr"])
    report = dynamics.survival_report(generator, initial, numeric=True)
    grid = dynamics.default_time_grid(1.0, op["horizon"], TRAJECTORY_POINTS)
    return report, dynamics.propagate(generator, initial, grid)


def _common_bath(op: dict):
    generator = _generator(op, COMMON_BATH_FIELD)
    initial = states.state_for_correlation(op["lambda_corr"])
    grid = dynamics.default_time_grid(1.0, op["horizon"], TRAJECTORY_POINTS)
    return dynamics.propagate(generator, initial, grid)


_RUNNERS = {
    "scan": lambda op: _cli(scan_argv(op)),
    "lifetime": _lifetime,
    "trap": lambda op: _cli(trap_argv(op)),
    "common-bath": _common_bath,
}


def run_op(name: str, op: dict):
    """Execute one op of a workload; return its output or raise on any failure."""
    return _RUNNERS[name](op)
