"""Propagation of the Pauli vector and the resulting entanglement dynamics.

Two propagation routes are provided.  The spectral route expands the
initial state over the classified eigensystem and sums ``a_l exp(lambda_l
t) r_l``; the stepping route carries ``d alpha/dt = L alpha`` through the
time grid by exact matrix-exponential steps ``alpha <- expm(L dt) alpha``.
Neither has a step error; they agree to round-off and serve as mutual
cross-checks.

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
from typing import Optional

import numpy as np
from scipy import linalg, optimize

from .errors import (
    DefectiveSpectrumError,
    DegenerateSpectrumError,
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
    PAULI_PRODUCTS,
    PauliVector,
    TwoQubitDensityMatrix,
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


def _as_vector(state) -> np.ndarray:
    return state.alpha if isinstance(state, PauliVector) else np.asarray(state, dtype=float)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution of the 16-component Pauli vector.

    ``alphas[k]`` is the state at ``times[k]``; ``concurrence`` the
    Wootters concurrence at each sample and ``min_eigenvalues`` the lowest
    density-matrix eigenvalue (diagnostic - small negative dust is normal
    for spectrally reconstructed states).  Times are in the same units as
    the inverse rates used to build the generator; ``gamma0`` and
    ``slow_rate`` allow rescaling to the natural dimensionless clocks.
    """

    times: np.ndarray
    alphas: np.ndarray
    concurrence: np.ndarray
    min_eigenvalues: np.ndarray
    gamma0: float
    slow_rate: Optional[float] = None

    def __post_init__(self):
        for name in ("times", "alphas", "concurrence", "min_eigenvalues"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.alphas.shape != (self.times.size, 16):
            raise ValueError(
                f"alphas must be (n_times, 16), got {self.alphas.shape}"
            )

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
    vec = _as_vector(alpha)
    if abs(vec[0]) < 1e-6:
        raise InvalidStateError(f"trace component {vec[0]!r} is too small")
    matrix = _alpha_rows_to_matrices(vec[None, :])[0]
    return _concurrence(matrix, dust_tol=_TRAJECTORY_DUST_TOL)


def _alpha_rows_to_matrices(alphas: np.ndarray) -> np.ndarray:
    """Batched ``alpha -> rho``, renormalizing each row by its trace entry."""
    scaled = alphas / alphas[:, :1]
    return (scaled @ PAULI_PRODUCTS.reshape(16, 16)).reshape(-1, 4, 4) / 4.0


def _finish_trajectory(
    times: np.ndarray, alphas: np.ndarray, gamma0: float, slow_rate: Optional[float]
) -> Trajectory:
    matrices = _alpha_rows_to_matrices(alphas)
    min_eigs = np.linalg.eigvalsh(matrices)[:, 0].real
    return Trajectory(
        times=times,
        alphas=alphas,
        concurrence=_concurrence(matrices, dust_tol=_TRAJECTORY_DUST_TOL),
        min_eigenvalues=min_eigs,
        gamma0=gamma0,
        slow_rate=slow_rate,
    )


def _check_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0 or (times.size > 1 and np.any(np.diff(times) <= 0)):
        raise ValueError("times must be non-negative and strictly increasing")
    return times


def _spectral_alphas(report: SpectrumReport, coeffs: np.ndarray, times: np.ndarray):
    """Real mode sum at each time; a broken mode pairing raises."""
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
    eigendecomposition.  The reconstruction must come out real - a larger
    imaginary residue than 1e-8 indicates a broken mode pairing and raises
    :class:`NumericalFailureError`.
    """
    times = _check_times(times)
    coeffs = mode_coefficients(report, initial)
    return _finish_trajectory(
        times,
        _spectral_alphas(report, coeffs, times),
        report.gamma0,
        -report.slow_eigenvalue,
    )


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
    times = _check_times(times)
    entries = generator.entries
    alpha = _as_vector(initial)
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

    The fallback covers generators whose spectrum cannot be classified
    (perfectly correlated baths, near-defective eigenvector systems).
    """
    try:
        report = classify_spectrum(generator)
    except (DegenerateSpectrumError, DefectiveSpectrumError):
        return propagate_ode(generator, initial, times)
    return propagate_spectral(report, initial, times)


def default_time_grid(gamma0: float, horizon: float, points: int = 400) -> np.ndarray:
    """Logarithmic grid from ``1e-3 / gamma0`` to ``horizon``, with t = 0.

    Log spacing resolves the fast transient and the slow tail in one grid.
    """
    if gamma0 <= 0 or horizon <= 0:
        raise ValueError("gamma0 and horizon must be positive")
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
    propagated concurrence, found by Brent's method and absent when the
    numeric cross-check was skipped.  With the cross-check,
    ``peak_concurrence`` is the maximum of the full concurrence, reached
    at ``peak_time``; without it, the envelope at t = 0.  Divergent
    lifetimes are ``inf``.
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

    Only the signed concurrence of the spectral mode sum is evaluated, in
    three steps:

    * scan: t = 0 and 64 log-spaced samples over the transient window
      ``[1e-3, min(8, horizon)] / gamma0``, then 48 linear samples over
      the rest of the horizon.  The horizon starts at 1.6 times the
      envelope estimate ``t_guess`` (at least ``5 / gamma0``) and doubles,
      with 48 more samples over each new stretch, while the last sample is
      still entangled; after 8 scans the lifetime is reported as ``inf``.
      No positive sample means no entanglement: ``(0, 0, 0)``.  The
      envelope only seeds the horizon, never the bracket, since it can
      promise entanglement that the full dynamics does not generate.
    * refine: bounded Brent minimisation of ``-C`` between the two
      neighbours of the best sample, to 1e-5 of that bracket, kept only
      when it beats that sample.
    * root: Brent's method between the last positive sample and the next,
      to ``xtol = 1e-6 / |lambda_1|``.
    """
    gamma0 = report.gamma0
    coeffs = mode_coefficients(report, initial)

    def signed(times: np.ndarray) -> np.ndarray:
        alphas = _spectral_alphas(report, coeffs, times)
        matrices = _alpha_rows_to_matrices(alphas)
        return _signed_concurrence(matrices, dust_tol=_TRAJECTORY_DUST_TOL)

    def signed_at(t: float) -> float:
        return float(signed(np.array([t]))[0])

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

    k = int(np.argmax(values))
    peak_c, peak_t = float(values[k]), float(times[k])
    lo, hi = times[max(k - 1, 0)], times[min(k + 1, times.size - 1)]
    refined = optimize.minimize_scalar(
        lambda t: -signed_at(t),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-5 * (hi - lo)},
    )
    if -refined.fun > peak_c:
        peak_c, peak_t = -float(refined.fun), float(refined.x)
    peak_c = min(peak_c, 1.0)

    last = int(np.flatnonzero(values > 0.0)[-1])
    if last == times.size - 1:
        return peak_c, peak_t, math.inf
    lo, hi = times[last], times[last + 1]
    try:
        t_zero = optimize.brentq(
            signed_at, lo, hi, xtol=1e-6 / max(-report.slow_eigenvalue, 1e-300)
        )
    except ValueError:
        # endpoint landed exactly on the root
        t_zero = hi if signed_at(hi) == 0.0 else lo
    return peak_c, peak_t, float(t_zero)


def survival_report(
    generator: GeneratorMatrix,
    initial,
    report: Optional[SpectrumReport] = None,
    numeric: bool = True,
) -> SurvivalReport:
    """Closed-form lifetime with an optional full-dynamics cross-check.

    The envelope prediction uses the numerically extracted slow rate, so
    any residual discrepancy against ``t_c_numeric`` reflects eigenvector
    (not eigenvalue) corrections.
    """
    spectrum = report if report is not None else classify_spectrum(generator)
    ratio = generator.rates.ratio
    lam = correlation_scalar(_as_vector(initial))
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


def _csv_float(value: float) -> str:
    return format(float(value), ".9g")


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

    def emit(stream) -> None:
        stream.write(",".join(_CSV_FIELDS) + "\n")
        for k in range(times.size):
            row = [
                _csv_float(times[k] * trajectory.gamma0),
                _csv_float(times[k] * slow),
            ]
            row += [_csv_float(v) for v in trajectory.alphas[k]]
            row.append(_csv_float(trajectory.concurrence[k]))
            row.append(_csv_float(analytic_col[k]))
            stream.write(",".join(row) + "\n")

    if hasattr(target, "write"):
        emit(target)
    else:
        with open(target, "w", encoding="utf-8") as stream:
            emit(stream)
