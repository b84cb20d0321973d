"""Per-op correctness checks against the test suite's reference routes.

Run outside the timed region.  Trajectories are re-derived with the
oracle generator built in density-matrix space (``liouvillian_alpha_space``),
dense matrix exponentials (``evolve_expm``) and the matrix-square-root
concurrence (``concurrence_sqrtm``); Lamb-shift strengths with the
pole-folding quadrature (``lamb_coefficients_folded``).  The package's own
propagation is never the reference.

Each check returns the op's worst deviation as a share of its tolerance
(at most 1 when the op passes) and raises :class:`CheckFailure` otherwise.
The numeric survival time is never compared with the closed-form one:
near the generation threshold the two legitimately differ.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
from scipy import constants

from spinbath import iontrap, states
from workloads import COMMON_BATH_FIELD

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("spinbath_oracles", _ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

#: trajectory samples re-derived per op (chosen by the seeded check rng)
SAMPLES_PER_OP = 2
ALPHA_TOL = 1e-7
CONCURRENCE_TOL = 1e-6
#: the survival root-find asks brentq for xtol = 1e-6 / (slow rate); brentq
#: then returns a point within xtol + 4 eps |t| of the root, and the oracle
#: is probed that far on either side of it
ROOT_XTOL = 1e-6
ROOT_RTOL = 4.0 * np.finfo(float).eps
#: relative tolerance on the trap report's closed-form fields
REPORT_RTOL = 1e-9
#: Lamb strengths against the fold oracle, as in the test suite
LAMB_RTOL, LAMB_ATOL = 1e-8, 1e-12
#: share of trap ops whose Lamb strengths are recomputed and folded
LAMB_SHARE = 0.0625
#: trap frequency the CLI leaves at the TrapConfig default (rad/s)
TRAP_FREQUENCY = iontrap.TrapConfig().trap_frequency


class CheckFailure(Exception):
    """An op's output disagrees with the reference route."""


def _within(label: str, deviation: float, tolerance: float) -> float:
    share = deviation / tolerance
    if not share <= 1.0:
        raise CheckFailure(f"{label}: deviation {deviation:.3e} above {tolerance:.1e}")
    return share


def _oracle_generator(op: dict, delta_field: float) -> np.ndarray:
    occupation = (1.0 / op["ratio"] - 1.0) / 2.0
    return oracles.liouvillian_alpha_space(delta_field, 1.0, occupation, op["delta"])


def _oracle_concurrence(alpha) -> float:
    return oracles.concurrence_sqrtm(oracles.density_from_alpha(alpha))


def _slow_rate(matrix: np.ndarray) -> float:
    """Decay rate of the slowest non-stationary real mode."""
    values = np.linalg.eigvals(matrix)
    real = np.sort(np.abs(values[np.abs(values.imag) < 1e-9].real))
    return float(real[1])


def _check_samples(matrix, alpha0, times, alphas, concurrence) -> float:
    reference = oracles.evolve_expm(matrix, alpha0, times)
    worst = 0.0
    if alphas is not None:
        worst = _within("alpha", float(np.max(np.abs(reference - alphas))), ALPHA_TOL)
    for ref, value in zip(reference, concurrence):
        dev = abs(_oracle_concurrence(ref) - value)
        worst = max(worst, _within("concurrence", dev, CONCURRENCE_TOL))
    return worst


def _check_trajectory(matrix, alpha0, trajectory, rng) -> float:
    picks = np.sort(rng.choice(trajectory.times.size, SAMPLES_PER_OP, replace=False))
    return _check_samples(
        matrix,
        alpha0,
        trajectory.times[picks],
        trajectory.alphas[picks],
        trajectory.concurrence[picks],
    )


def check_scan(op: dict, output: str, rng) -> float:
    lines = output.strip().split("\n")
    if lines[0] != "R,lambda1_t,concurrence_numeric" or len(lines) != 62:
        raise CheckFailure(f"unexpected fig1-surface layout: {len(lines)} lines")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if not np.all(data[:, 0] == float(format(op["ratio"], ".9g"))):
        raise CheckFailure("ratio column does not echo the input")
    scaled = np.linspace(0.0, 3.0, 61)
    _within("scaled time", float(np.max(np.abs(data[:, 1] - scaled))), 1e-8)
    matrix = _oracle_generator(op, op["delta_field"])
    alpha0 = states.state_for_correlation(op["lambda_corr"]).alpha
    picks = np.sort(rng.choice(61, SAMPLES_PER_OP, replace=False))
    times = scaled[picks] / _slow_rate(matrix)
    return _check_samples(matrix, alpha0, times, None, data[picks, 2])


def check_lifetime(op: dict, output, rng) -> float:
    report, trajectory = output
    matrix = _oracle_generator(op, op["delta_field"])
    alpha0 = states.state_for_correlation(op["lambda_corr"]).alpha
    worst = _check_trajectory(matrix, alpha0, trajectory, rng)
    if report.peak_concurrence > 0.0:
        at_peak = oracles.evolve_expm(matrix, alpha0, [report.peak_time])[0]
        dev = abs(_oracle_concurrence(at_peak) - report.peak_concurrence)
        worst = max(worst, _within("peak concurrence", dev, CONCURRENCE_TOL))
    t_zero = report.t_c_numeric
    if t_zero is not None and 0.0 < t_zero < math.inf:
        margin = ROOT_XTOL / _slow_rate(matrix) + ROOT_RTOL * t_zero
        after = oracles.evolve_expm(matrix, alpha0, [t_zero + margin])[0]
        dev = _oracle_concurrence(after)
        worst = max(worst, _within("concurrence after t_c_numeric", dev, CONCURRENCE_TOL))
        if t_zero - margin > report.peak_time:
            before = oracles.evolve_expm(matrix, alpha0, [t_zero - margin])[0]
            if not _oracle_concurrence(before) > 0.0:
                raise CheckFailure("no entanglement just before t_c_numeric")
    return worst


def check_common_bath(op: dict, trajectory, rng) -> float:
    matrix = _oracle_generator(op, COMMON_BATH_FIELD)
    alpha0 = states.state_for_correlation(op["lambda_corr"]).alpha
    return _check_trajectory(matrix, alpha0, trajectory, rng)


def _trap_expectation(op: dict) -> dict:
    """Closed-form report fields of the trap planner, from the paper."""
    ratio, r2 = op["target_ratio"], op["target_ratio"] ** 2
    splitting = op["rabi_ratio"]
    scaled = op["addressed_spacing"] * splitting / op["ion_count"]
    dimension = op["bath_dimension"]
    if op["exact_delta"]:
        deficit = 1.0 - oracles.spatial_correlation_scipy(scaled, dimension)
    else:
        deficit = scaled * scaled / (2.0 * dimension)
    gamma0 = math.pi * op["ohmic_coupling"] * splitting
    slow = (1.0 + 3.0 * (1.0 / ratio - 1.0) / 2.0) * deficit * gamma0
    generated = -1.0 < (5.0 * r2 - 3.0) / (3.0 - r2)
    if not generated:
        t_c = 0.0
    elif slow == 0.0:
        t_c = math.inf
    else:
        t_c = math.log((r2 + 1.0) * (r2 - 3.0) / ((r2 + 3.0) * (r2 - 1.0))) / slow
    peak = max(((r2 - 1.0) * (r2 + 3.0) + (r2 + 1.0) * (3.0 - r2)) / (2.0 * (r2 + 3.0)), 0.0)
    revival = 2.0 * math.pi * op["ion_count"] / 100.0
    kelvin = (
        constants.hbar * splitting * TRAP_FREQUENCY
        / (2.0 * constants.k * math.atanh(ratio))
    )
    return {
        "delta": deficit,
        "gamma0_omega_t": gamma0,
        "revival_time_omega_t": revival,
        "t_peak_estimate_omega_t": 1.0 / gamma0,
        "t_c_omega_t": t_c,
        "peak_concurrence": peak,
        "bath_temperature_kelvin": kelvin,
        "feasible": bool(revival > max(1.0 / gamma0, t_c) and generated),
    }


def check_trap(op: dict, output: str, rng) -> float:
    payload = json.loads(output)
    worst = 0.0
    for key, expected in _trap_expectation(op).items():
        value = payload[key]
        if isinstance(expected, bool) or math.isinf(expected):
            if value != ("inf" if expected == math.inf else expected):
                raise CheckFailure(f"{key}: {value!r} != {expected!r}")
            continue
        dev = abs(value - expected) / max(abs(expected), 1e-300)
        worst = max(worst, _within(key, dev, REPORT_RTOL))
    if rng.random() < LAMB_SHARE:
        result = iontrap.plan(iontrap.TrapConfig.from_mapping(
            {k: v for k, v in op.items() if k != "exact_delta"}
        ), exact_delta=op["exact_delta"])
        folded = oracles.lamb_coefficients_folded(
            result.spectral, result.thermal, result.geometry, op["rabi_ratio"]
        )
        for label, value, reference in zip(
            ("lamb_a", "lamb_b"), (result.params.lamb_a, result.params.lamb_b), folded
        ):
            limit = LAMB_RTOL * abs(reference) + LAMB_ATOL
            worst = max(worst, _within(label, abs(value - reference), limit))
    return worst


CHECKS = {
    "scan": check_scan,
    "lifetime": check_lifetime,
    "trap": check_trap,
    "common-bath": check_common_bath,
}
