"""Propagation of the Pauli vector and the resulting entanglement dynamics.

Two propagation routes are provided.  The spectral route expands the
initial state over an eigensystem of the generator and sums ``a_l
exp(lambda_l t) r_l``; the stepping route carries ``d alpha/dt = L alpha``
through the time grid by exact matrix-exponential steps ``alpha <- expm(L
dt) alpha``.  Neither has a step error; they agree to round-off and serve
as mutual cross-checks.  :func:`propagate` sums the modes of any
well-conditioned eigenbasis, labelled or not (the perfectly correlated bath
has a doubled zero mode but a sound basis), and steps only where the
eigenbasis is ill-conditioned.  Both it and :func:`survival_report` read
the generator's one cached spectrum record, so each generator is
eigensolved once.

On top of the numerics sits the closed-form long-time description: after
the fast modes die out the state is the thermal point plus a single slow
mode whose amplitude is set by the initial correlation scalar
``Lambda = <xx> + <yy> + <zz>``.  That reduction yields an explicit
concurrence envelope, a threshold condition for entanglement generation,
and a finite disentanglement time for any bath ratio ``R < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DefectiveSpectrumError,
    IntegrationFailureError,
    InvalidCoefficientsError,
    InvalidStateError,
    NumericalFailureError,
)
from .liouvillian import (
    GeneratorMatrix,
    SpectrumReport,
    classify_spectrum,
    mode_coefficients,
    thermal_alpha,
    slow_alpha_pattern,
)
from .states import (
    PauliVector,
    TwoQubitDensityMatrix,
    _alpha_to_rho,
    _as_alpha,
    _concurrence,
    _signed_concurrence,
    correlation_scalar,
)

__all__ = [
    "Trajectory",
    "SurvivalReport",
    "propagate_spectral",
    "propagate_ode",
    "propagate",
    "default_time_grid",
    "concurrence_of_alpha",
    "analytic_amplitude",
    "analytic_state",
    "analytic_concurrence",
    "generation_condition",
    "threshold_ratio",
    "survival_time",
    "survival_report",
    "thermal_bath_condition",
    "thermal_bath_condition_asymptotic",
    "zero_temperature_state",
    "write_trajectory_csv",
]

_RECONSTRUCTION_IMAG_TOL = 1e-8
#: headroom over the strictly-validated default: eigenvalues of the
#: nonsymmetric spin-flip product carry O(sqrt(eps)) dust when clustered.
_TRAJECTORY_DUST_TOL = 1e-7
#: largest eigenvector-matrix condition number for which :func:`propagate`
#: sums the modes of an eigensystem, labelled or not.  Near the common bath
#: the condition number stays below 5e3 for ratios up to 0.999999.  At R = 1
#: it is ~7 / delta for deficits from 5e-8 to 1e-5, and from 7e6 up (delta
#: <= 1e-6) the mode sum drifts from the matrix exponential by 3e-10 to 3e-9.
_MODE_SUM_MAX_COND = 1e6
#: samples per round of the numeric survival check on each side of the peak
#: bracket's best point and in the root bracket, so that each round shrinks
#: both brackets about fivefold
_SIDE_POINTS = 4
#: the float spacing near t is below 4 eps t, so a root bracket can always
#: shrink to ``xtol + 4 eps t``
_ROOT_RTOL = 4.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution of the 16-component Pauli vector.

    ``alphas[k]`` is the state at ``times[k]`` and ``concurrence`` the
    Wootters concurrence at each sample.  Times are in the same units as
    the inverse rates used to build the generator; ``gamma0`` and
    ``slow_rate`` allow rescaling to the natural dimensionless clocks.
    The positivity diagnostic ``min_eigenvalues`` is computed from
    ``alphas`` on first read.
    """

    times: np.ndarray
    alphas: np.ndarray
    concurrence: np.ndarray
    gamma0: float
    slow_rate: Optional[float] = None

    def __post_init__(self):
        for name in ("times", "alphas", "concurrence"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.alphas.shape != (self.times.size, 16):
            raise ValueError(
                f"alphas must be (n_times, 16), got {self.alphas.shape}"
            )

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """Lowest density-matrix eigenvalue at each sample (small negative
        dust is normal for spectrally reconstructed states)."""
        lowest = np.linalg.eigvalsh(_alpha_rows_to_matrices(self.alphas))[:, 0].real
        lowest.setflags(write=False)
        return lowest

    def worst_negativity(self) -> float:
        """Most negative density-matrix eigenvalue along the trajectory."""
        return float(min(self.min_eigenvalues.min(), 0.0))

    def state(self, k: int) -> PauliVector:
        """The sampled Pauli vector at ``times[k]``."""
        return PauliVector(self.alphas[k])

    def positivity_violations(self, tol: float = 1e-8) -> tuple:
        """Indices of samples whose lowest eigenvalue is below ``-tol``."""
        return tuple(int(k) for k in np.flatnonzero(self.min_eigenvalues < -tol))


def concurrence_of_alpha(alpha) -> float:
    """Wootters concurrence of a Pauli vector (tolerant of numeric dust).

    The vector is renormalized by its trace component, so round-off
    drift in ``alpha[0]`` does not trip validation.
    """
    vec = _as_alpha(alpha)
    if abs(vec[0]) < 1e-6:
        raise InvalidStateError(f"trace component {vec[0]!r} is too small")
    matrix = _alpha_rows_to_matrices(vec[None, :])[0]
    return _concurrence(matrix, dust_tol=_TRAJECTORY_DUST_TOL)


def _alpha_rows_to_matrices(alphas: np.ndarray) -> np.ndarray:
    """Batched ``alpha -> rho``, renormalizing each row by its trace entry."""
    return _alpha_to_rho(alphas / alphas[:, :1])


def _finish_trajectory(
    times: np.ndarray, alphas: np.ndarray, gamma0: float, slow_rate: Optional[float]
) -> Trajectory:
    matrices = _alpha_rows_to_matrices(alphas)
    return Trajectory(
        times=times,
        alphas=alphas,
        concurrence=_concurrence(matrices, dust_tol=_TRAJECTORY_DUST_TOL),
        gamma0=gamma0,
        slow_rate=slow_rate,
    )


def _check_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0 or (times.size > 1 and np.any(np.diff(times) <= 0)):
        raise ValueError("times must be non-negative and strictly increasing")
    return times


def _spectral_alphas(report: SpectrumReport, coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Real mode sum ``sum_l a_l exp(lambda_l t) r_l`` of a spectrum record
    at each time; a broken mode pairing raises."""
    phases = np.exp(np.outer(times, report.eigenvalues))
    alpha_c = (phases * coeffs) @ report.right.T
    residue = float(np.max(np.abs(alpha_c.imag)))
    if residue > _RECONSTRUCTION_IMAG_TOL:
        raise NumericalFailureError(
            f"spectral reconstruction has imaginary residue {residue:.3e}"
        )
    return alpha_c.real


def propagate_spectral(
    report: SpectrumReport, initial, times
) -> Trajectory:
    """Evolve by summing eigenmodes: ``alpha(t) = sum a_l exp(lambda_l t) r_l``.

    Exact in time (no step error); accuracy is set entirely by the
    eigendecomposition.  Any spectrum record is summed, labelled or not;
    an unlabelled one gives a trajectory without ``slow_rate``.  The
    reconstruction must come out real - a larger imaginary residue than
    1e-8 indicates a broken mode pairing and raises
    :class:`NumericalFailureError`.
    """
    times = _check_times(times)
    coeffs = mode_coefficients(report, initial)
    alphas = _spectral_alphas(report, coeffs, times)
    slow_rate = None if report.labels is None else -report.slow_eigenvalue
    return _finish_trajectory(times, alphas, report.gamma0, slow_rate)


def propagate_ode(generator: GeneratorMatrix, initial, times) -> Trajectory:
    """Evolve ``d alpha/dt = L alpha`` by exact steps over the time grid.

    Starting from ``initial`` at t = 0, each sample is reached from the
    previous one by ``alpha <- expm(L (t_k - t_{k-1})) alpha`` (scipy's
    scaling-and-squaring ``expm``, Al-Mohy & Higham 2009).  No
    eigendecomposition is involved, so this route serves as the
    cross-check of the spectral route and works where the spectrum is
    degenerate or defective.  A non-finite state raises
    :class:`IntegrationFailureError`.
    """
    from scipy import linalg

    times = _check_times(times)
    entries = generator.entries
    alpha = _as_alpha(initial)
    alphas = np.empty((times.size, alpha.size))
    for k, step in enumerate(np.diff(times, prepend=0.0)):
        alpha = linalg.expm(entries * step) @ alpha
        alphas[k] = alpha
    if not np.all(np.isfinite(alphas)):
        raise IntegrationFailureError(
            "matrix-exponential stepping produced a non-finite state"
        )
    return _finish_trajectory(times, alphas, generator.rates.gamma0, None)


def propagate(generator: GeneratorMatrix, initial, times) -> Trajectory:
    """Spectral propagation, falling back to matrix-exponential stepping.

    Reads the generator's cached spectrum record
    (:attr:`~spinbath.liouvillian.GeneratorMatrix.spectrum`), so a
    generator already classified is not eigensolved again.  A record whose
    eigenvector matrix has a condition number up to 1e6 goes to
    :func:`propagate_spectral`, labelled or not (the perfectly correlated
    bath, whose zero mode is doubled, has no labels and no ``slow_rate``).
    A larger condition number (zero temperature, R = 1, with a small
    deficit) or a defective eigenbasis is no sound basis for a mode sum and
    falls back to :func:`propagate_ode`.
    """
    try:
        report = generator.spectrum
    except DefectiveSpectrumError:
        return propagate_ode(generator, initial, times)
    if report.cond > _MODE_SUM_MAX_COND:
        return propagate_ode(generator, initial, times)
    return propagate_spectral(report, initial, times)


def default_time_grid(gamma0: float, horizon: float, points: int = 400) -> np.ndarray:
    """Logarithmic grid from ``1e-3 / gamma0`` to ``horizon``, with t = 0.

    Log spacing resolves the fast transient and the slow tail in one grid.
    """
    if not (0 < gamma0 < math.inf and 0 < horizon < math.inf):
        raise ValueError("gamma0 and horizon must be positive and finite")
    start = 1e-3 / gamma0
    if horizon <= start:
        raise ValueError(f"horizon {horizon} is below the grid start {start}")
    return np.concatenate([[0.0], np.geomspace(start, horizon, points)])


# ---------------------------------------------------------------------------
# Closed-form long-time description
# ---------------------------------------------------------------------------


def analytic_amplitude(ratio: float, lambda_corr: float) -> float:
    """Slow-mode amplitude from the initial correlation scalar.

    ``a_1 = (Lambda - R^2) / (3 + R^2)``; the combination is conserved by
    the fast dynamics, so the slow amplitude is fixed by the initial state
    alone.
    """
    return (lambda_corr - ratio * ratio) / (3.0 + ratio * ratio)


def analytic_state(
    ratio: float, lambda_corr: float, slow_rate: float, time
) -> np.ndarray:
    """Two-mode (thermal + slow) Pauli vector at ``time``.

    Valid once the fast modes have decayed, i.e. for times beyond a few
    ``1/gamma0``.  ``time`` may be a scalar or an array; the result has
    shape ``(16,)`` or ``(n, 16)`` accordingly.
    """
    a1 = analytic_amplitude(ratio, lambda_corr)
    base = thermal_alpha(ratio).alpha
    pattern = slow_alpha_pattern(ratio).alpha
    time = np.asarray(time, dtype=float)
    decay = a1 * np.exp(-slow_rate * time)
    return base + np.multiply.outer(decay, pattern)


def analytic_concurrence(
    ratio: float, lambda_corr: float, slow_rate: float, time
):
    """Long-time concurrence envelope.

    With ``R`` the thermal ratio and ``Lambda`` the initial correlation
    scalar,

        C(t) = max{ [ (R^2-1)(R^2+3) + (R^2-Lambda)(3-R^2) e^{lambda_1 t} ]
                    / [ 2 (R^2+3) ], 0 }.

    The envelope decreases monotonically; its zero is the
    disentanglement time returned by :func:`survival_time`.
    """
    r2 = ratio * ratio
    time = np.asarray(time, dtype=float)
    decayed = (r2 - lambda_corr) * (3.0 - r2) * np.exp(-slow_rate * time)
    value = ((r2 - 1.0) * (r2 + 3.0) + decayed) / (2.0 * (r2 + 3.0))
    clamped = np.maximum(value, 0.0)
    return float(clamped) if clamped.ndim == 0 else clamped


def generation_condition(ratio: float, lambda_corr: float) -> bool:
    """Whether long-lived entanglement appears at all.

    True when ``Lambda < (5 R^2 - 3) / (3 - R^2)`` - equivalently, when
    the concurrence envelope is positive at small times.  Colder baths
    (larger ``R``) entangle a wider class of initial states.
    """
    r2 = ratio * ratio
    return lambda_corr < (5.0 * r2 - 3.0) / (3.0 - r2)


def threshold_ratio(lambda_corr: float) -> float:
    """Critical thermal ratio above which generation switches on.

    Inverts the generation condition: ``R* = sqrt(3 (Lambda+1) /
    (5 + Lambda))``, clamped to [0, 1].  States with ``Lambda < -1``
    generate at any temperature.
    """
    value = 3.0 * (lambda_corr + 1.0) / (5.0 + lambda_corr)
    return math.sqrt(min(max(value, 0.0), 1.0))


def survival_time(ratio: float, lambda_corr: float, slow_rate: float) -> float:
    """Time at which the concurrence envelope reaches zero.

    Returns 0 when no entanglement is generated; ``inf`` at ``R = 1``
    (zero temperature) or for a frozen slow mode (``slow_rate = 0``, the
    perfectly correlated bath) - in both cases the envelope stays
    positive forever.  Otherwise

        t_c = (1/|lambda_1|) ln[ (R^2-Lambda)(R^2-3) / ((R^2+3)(R^2-1)) ].
    """
    if slow_rate < 0:
        raise ValueError(f"slow_rate must be non-negative, got {slow_rate}")
    if not generation_condition(ratio, lambda_corr):
        return 0.0
    r2 = ratio * ratio
    if r2 >= 1.0 or slow_rate == 0.0:
        return math.inf
    argument = (r2 - lambda_corr) * (r2 - 3.0) / ((r2 + 3.0) * (r2 - 1.0))
    return math.log(argument) / slow_rate


@dataclass(frozen=True)
class SurvivalReport:
    """Entanglement lifetime summary for one initial state.

    ``t_c`` is the closed-form envelope zero (using the numerically
    extracted slow rate); ``t_c_numeric`` the last root of the full
    propagated concurrence, the midpoint of a sign-change bracket about
    ``1e-6 / |lambda_1|`` wide, and absent when the numeric cross-check
    was skipped.  With the cross-check, ``peak_concurrence`` is the
    maximum of the full concurrence, reached at ``peak_time``; without it,
    the envelope at t = 0.  Divergent lifetimes are ``inf``.
    """

    ratio: float
    lambda_corr: float
    slow_rate: float
    generated: bool
    t_c: float
    peak_concurrence: float
    peak_time: float
    t_c_numeric: Optional[float] = None


def _numeric_survival(
    report: SpectrumReport, initial, t_guess: float
) -> tuple[float, float, float]:
    """Peak and final zero of the propagated concurrence.

    Only the signed concurrence of the spectral mode sum is evaluated, each
    call on a batch of times, in three steps:

    * scan: t = 0 and 64 log-spaced samples over the transient window
      ``[1e-3, min(8, horizon)] / gamma0``, then 48 linear samples over
      the rest of the horizon.  The horizon starts at 1.6 times the
      envelope estimate ``t_guess`` (at least ``5 / gamma0``) and doubles,
      with 48 more samples over each new stretch, while the last sample is
      still entangled; after 8 scans the lifetime is reported as ``inf``.
      No positive sample means no entanglement: ``(0, 0, 0)``.  The
      envelope only seeds the horizon, never the bracket, since it can
      promise entanglement that the full dynamics does not generate.
    * refine: the bracket is the best sample and its two neighbours in
      time, until it is within ``peak_tol``, 1e-5 of its first width.  Each
      round samples it at even points on either side of the best one and at
      the vertex of the parabola through its three samples (the best point
      itself for a peak at t = 0), and the bracket becomes the best of all
      its samples and that sample's neighbours.
    * root: the bracket is the last positive sample and the next, until it
      is within ``xtol + 4 eps t`` with ``xtol = 1e-6 / |lambda_1|``.  Each
      round samples it at even points and at its secant (regula falsi)
      point, and keeps the last sign change among all its samples; the
      zero is the bracket's midpoint.

    Each model point, vertex or secant point, comes with a flank 0.45 of its
    bracket's tolerance to either side, and is moved to at least one flank
    from the bracket's ends (Brent's smallest step); a flank on an end or on
    a known sample is dropped.  Near a smooth peak or root, the model point
    and a flank then close the bracket, and a search usually ends after
    three rounds.  The even points, :data:`_SIDE_POINTS` on each side of the
    peak bracket's best point and inside the root bracket, alone shrink each
    bracket about fivefold a round, so no search takes more rounds than it
    would with even points only.  A round samples both brackets in one call.
    """
    gamma0 = report.gamma0
    coeffs = mode_coefficients(report, initial)

    def signed(times: np.ndarray) -> np.ndarray:
        alphas = _spectral_alphas(report, coeffs, times)
        matrices = _alpha_rows_to_matrices(alphas)
        return _signed_concurrence(matrices, dust_tol=_TRAJECTORY_DUST_TOL)

    def stretch(start: float, stop: float) -> np.ndarray:
        return np.linspace(start, stop, 49)[1:]

    horizon = 1.6 * t_guess if math.isfinite(t_guess) and t_guess > 0 else 30.0 / gamma0
    horizon = max(horizon, 5.0 / gamma0)
    # the fast modes decay at rates of order gamma0 or faster
    window = min(8.0 / gamma0, horizon)
    times = np.concatenate([[0.0], np.geomspace(1e-3 / gamma0, window, 64)])
    if horizon > window:
        times = np.concatenate([times, stretch(window, horizon)])
    values = signed(times)
    if not np.any(values > 0.0):
        return 0.0, 0.0, 0.0
    for _ in range(7):
        if values[-1] <= 0.0:
            break
        tail = stretch(horizon, 2.0 * horizon)
        times = np.concatenate([times, tail])
        values = np.concatenate([values, signed(tail)])
        horizon *= 2.0

    # each bracket is a pair of arrays: its sample times and their values
    k = int(np.argmax(values))
    around = [max(k - 1, 0), k, min(k + 1, times.size - 1)]
    peak = times[around], values[around]
    peak_tol = 1e-5 * (peak[0][2] - peak[0][0])
    last = int(np.flatnonzero(values > 0.0)[-1])
    root = None if last == times.size - 1 else (times[last : last + 2], values[last : last + 2])
    xtol = 1e-6 / max(-report.slow_eigenvalue, 1e-300)
    while True:
        peak_open = peak[0][2] - peak[0][0] > peak_tol
        root_tol = 0.0 if root is None else xtol + _ROOT_RTOL * root[0][1]
        root_open = root is not None and root[0][1] - root[0][0] > root_tol
        if not (peak_open or root_open):
            break
        peak_new = _peak_candidates(*peak, 0.45 * peak_tol) if peak_open else np.empty(0)
        root_new = _root_candidates(*root, 0.45 * root_tol) if root_open else np.empty(0)
        found = signed(np.concatenate([peak_new, root_new]))
        if peak_open:
            t, c = _merge(peak, peak_new, found[: peak_new.size])
            # an end never becomes the best point, so the new bracket keeps a
            # neighbour on each side (at t = 0 the end and best are one sample)
            scores = c.copy()
            scores[[0, -1]] = -np.inf
            j = int(np.argmax(scores))
            peak = t[j - 1 : j + 2], c[j - 1 : j + 2]
        if root_open:
            t, c = _merge(root, root_new, found[peak_new.size :])
            i = int(np.flatnonzero(c > 0.0)[-1])
            root = t[i : i + 2], c[i : i + 2]
    t_zero = math.inf if root is None else 0.5 * (root[0][0] + root[0][1])
    return min(float(peak[1][1]), 1.0), float(peak[0][1]), float(t_zero)


def _merge(bracket, times: np.ndarray, values: np.ndarray):
    """A bracket's samples and new ones, in time order; a tie keeps the
    bracket's sample first, so ``lo`` stays first and ``hi`` last."""
    t = np.concatenate([bracket[0], times])
    order = np.argsort(t, kind="stable")
    return t[order], np.concatenate([bracket[1], values])[order]


def _peak_candidates(times: np.ndarray, values: np.ndarray, flank: float) -> np.ndarray:
    """New samples of a peak bracket ``(lo, best, hi)``: :data:`_SIDE_POINTS`
    even points on each non-empty side of ``best``, and the vertex of the
    parabola through the three samples with its flanks."""
    lo, best, hi = times.tolist()
    f_lo, f_best, f_hi = values.tolist()
    side = _SIDE_POINTS + 2
    even = [np.linspace(a, b, side)[1:-1] for a, b in ((lo, best), (best, hi)) if b > a]
    # the vertex is best - p / (2 q); a flat parabola, or a best point at an
    # end (a peak at t = 0), gives best itself
    p = (best - lo) ** 2 * (f_best - f_hi) - (best - hi) ** 2 * (f_best - f_lo)
    q = (best - lo) * (f_best - f_hi) - (best - hi) * (f_best - f_lo)
    vertex = best - 0.5 * p / q if q != 0.0 else best
    return _fresh([*even, _with_flanks(vertex, lo, hi, flank)], times)


def _root_candidates(times: np.ndarray, values: np.ndarray, flank: float) -> np.ndarray:
    """New samples of a root bracket ``(a, b)``, ``c(a) > 0 >= c(b)``:
    :data:`_SIDE_POINTS` even interior points, and the secant point with its
    flanks."""
    a, b = times.tolist()
    f_a, f_b = values.tolist()
    even = np.linspace(a, b, _SIDE_POINTS + 2)[1:-1]
    return _fresh([even, _with_flanks(a + f_a * (b - a) / (f_a - f_b), a, b, flank)], times)


def _with_flanks(point: float, lo: float, hi: float, flank: float) -> np.ndarray:
    """A model point and a flank to each side; a point closer than one flank
    to an end of ``(lo, hi)`` is moved to one flank from it (Brent's
    smallest step)."""
    point = min(max(point, lo + flank), hi - flank)
    return np.array([point - flank, point, point + flank])


def _fresh(candidates: list, times: np.ndarray) -> np.ndarray:
    """The candidate arrays' times strictly inside the bracket ``times`` and
    not yet sampled, sorted."""
    new = np.setdiff1d(np.concatenate(candidates), times)
    return new[(new > times[0]) & (new < times[-1])]


def survival_report(
    generator: GeneratorMatrix, initial, numeric: bool = True
) -> SurvivalReport:
    """Closed-form lifetime with an optional full-dynamics cross-check.

    The envelope prediction uses the numerically extracted slow rate, so
    any residual discrepancy against ``t_c_numeric`` reflects eigenvector
    (not eigenvalue) corrections.
    """
    spectrum = classify_spectrum(generator)
    ratio = generator.rates.ratio
    lam = correlation_scalar(initial)
    slow_rate = -spectrum.slow_eigenvalue
    generated = generation_condition(ratio, lam)
    t_c = survival_time(ratio, lam, slow_rate)
    peak_c = float(analytic_concurrence(ratio, lam, slow_rate, 0.0))
    peak_t = 0.0
    t_c_numeric = None
    if numeric:
        peak_c, peak_t, t_c_numeric = _numeric_survival(spectrum, initial, t_c)
    return SurvivalReport(
        ratio=ratio,
        lambda_corr=lam,
        slow_rate=slow_rate,
        generated=generated,
        t_c=t_c,
        peak_concurrence=peak_c,
        peak_time=peak_t,
        t_c_numeric=t_c_numeric,
    )


# ---------------------------------------------------------------------------
# Thermal-bath entangling condition
# ---------------------------------------------------------------------------


def thermal_bath_condition(theta_bath: float, theta_qubits: float) -> bool:
    """Can a bath entangle two qubits pre-thermalized at another temperature?

    Both arguments are the dimensionless inverse temperatures
    ``theta = Delta / (2 T)``.  The qubits start in the thermal product
    state (correlation scalar ``tanh^2 theta_qubits``); the bath drives
    them toward its own ratio ``tanh theta_bath``.  Exact at all
    temperatures.
    """
    if theta_bath <= 0 or theta_qubits < 0:
        raise ValueError("inverse temperatures must be positive (bath) and non-negative (qubits)")
    ratio_bath = math.tanh(theta_bath)
    lam = math.tanh(theta_qubits) ** 2
    return generation_condition(ratio_bath, lam)


def thermal_bath_condition_asymptotic(theta_bath: float, theta_qubits: float) -> bool:
    """Low-temperature limit of :func:`thermal_bath_condition`.

    For ``theta`` both large the exact condition reduces to a fixed gap in
    inverse temperature: ``theta_bath - theta_qubits > ln(3) / 2``, i.e.
    the bath must be colder by a factor that does not keep growing.
    """
    if theta_bath <= 0 or theta_qubits < 0:
        raise ValueError("inverse temperatures must be positive (bath) and non-negative (qubits)")
    return theta_bath - theta_qubits > 0.5 * math.log(3.0)


# ---------------------------------------------------------------------------
# Zero-temperature long-time state
# ---------------------------------------------------------------------------

#: both spins along +x, and the singlet - the only states surviving the
#: fast decay at zero temperature.
_XUP2 = np.full(4, 0.5, dtype=complex)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def zero_temperature_state(
    a1: float, a2: float, time: float, delta_field: float, branch: int = 1
) -> TwoQubitDensityMatrix:
    """Late-time state at zero temperature, with its residual oscillation.

    The populations sit in the fully polarized state (weight ``1 + a1``)
    and the singlet (weight ``-a1``); ``a2`` sets a coherence between them
    rotating at the qubit splitting.  ``branch`` picks the sign of the
    conjugate term; the negative branch is Hermitian only for an imaginary
    coherence amplitude, which is applied internally (the passed ``a2``
    stays real either way).

    Raises :class:`InvalidCoefficientsError` when the weights do not form
    a positive matrix, e.g. ``a1 > 0`` or ``2 a2^2 > -a1 (1 + a1)``.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    amp = complex(a2) if branch == 1 else 1j * a2
    coherence = (
        math.sqrt(2.0)
        * amp
        * np.exp(-1j * delta_field * time)
        * np.outer(_SINGLET, _XUP2.conj())
    )
    matrix = (
        (1.0 + a1) * np.outer(_XUP2, _XUP2.conj())
        - a1 * np.outer(_SINGLET, _SINGLET.conj())
        + coherence
        + coherence.conj().T
    )
    state = TwoQubitDensityMatrix(matrix)
    lowest = state.min_eigenvalue()
    if lowest < -1e-10:
        raise InvalidCoefficientsError(
            f"weights (a1={a1}, a2={a2}) give eigenvalue {lowest:.3e} < 0"
        )
    return state


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_FIELDS = (
    ["t_gamma0", "t_lambda1"]
    + [f"alpha_{i}{j}" for i in range(4) for j in range(4)]
    + ["concurrence_numeric", "concurrence_analytic"]
)


def _csv_table(header, rows) -> str:
    """CSV text: the ``header`` names, then one line per row.

    Numbers are written with 9 significant digits (``inf`` and ``nan``
    as such); a string entry is written as it is.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([v if isinstance(v, str) else "%.9g" % v for v in row]))
    return "\n".join(lines) + "\n"


def write_trajectory_csv(target, trajectory: Trajectory, analytic=None) -> None:
    """Write a trajectory as CSV (stable column set, 9-significant-digit).

    ``target`` is a path or a writable text file.  ``analytic`` optionally
    supplies the closed-form concurrence column; missing values are
    written as ``nan``.
    """
    times = trajectory.times
    if analytic is None:
        analytic_col = np.full(times.size, math.nan)
    else:
        analytic_col = np.asarray(analytic, dtype=float)
        if analytic_col.shape != times.shape:
            raise ValueError("analytic concurrence must match the time grid")
    slow = trajectory.slow_rate if trajectory.slow_rate is not None else math.nan
    table = np.column_stack(
        [
            times * trajectory.gamma0,
            times * slow,
            trajectory.alphas,
            trajectory.concurrence,
            analytic_col,
        ]
    )
    text = _csv_table(_CSV_FIELDS, table.tolist())
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as stream:
            stream.write(text)
