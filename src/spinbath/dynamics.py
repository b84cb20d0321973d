"""Propagation of the Pauli vector and the resulting entanglement dynamics.

Two propagation routes are provided.  The spectral route expands the
initial state over an eigensystem of the generator and sums ``a_l
exp(lambda_l t) r_l``; the stepping route carries ``d alpha/dt = L alpha``
through the time grid by exact matrix-exponential steps ``alpha <- expm(L
dt) alpha``.  Neither has a step error; they agree to round-off and serve
as mutual cross-checks.  Every mode sum starts with
:func:`~spinbath.liouvillian.mode_coefficients`, which refuses an
eigenbasis too ill-conditioned to sum with
:class:`~spinbath.errors.DefectiveSpectrumError`, and a record left
unlabelled by a growing mode with its own
:class:`~spinbath.errors.DegenerateSpectrumError`; :func:`propagate` sums
the modes of any other record, labelled or not (the perfectly correlated
bath has a doubled zero mode but usually a sound basis), and steps by
matrix exponentials where the eigenbasis is refused.  Both it and
:func:`survival_report` read the generator's one cached spectrum record,
so each generator is eigensolved once.

A mode sum adds only the modes the state excites: those whose term
``|a_l| max|r_l|`` exceeds machine epsilon times the largest.  The dropped
terms total at most 16 eps of the largest term at any t >= 0, inside the
round-off the full sum carries.  A state invariant under the joint
x-rotation and the qubit swap, as Werner and triplet mixtures are, excites
about 6 of the 16 modes.

Every route reads the concurrence of all its samples at once, by the
one routine of :mod:`spinbath.states`.  Each route decides once, from
structure, whether its samples stay in the sector even under conjugation
by ``sigma_x (x) sigma_x``: they do when the generator keeps the sectors
and the initial state has no odd component, and then every batch takes the
even sector's closed form untested; any other batch is tested.

On top of the numerics sits the closed-form long-time description: after
the fast modes die out the state is the thermal point plus a single slow
mode whose amplitude is set by the initial correlation scalar
``Lambda = <xx> + <yy> + <zz>``.  That reduction yields an explicit
concurrence envelope, a threshold condition for entanglement generation,
and a finite disentanglement time for any bath ratio ``R < 1``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import (
    DefectiveSpectrumError,
    IntegrationFailureError,
    InvalidCoefficientsError,
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
    _POSITIVITY_TOL,
    _X_ODD,
    _checked_state,
    _lowest_eigenvalues,
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
#: a sample whose lowest density-matrix eigenvalue is below minus this has
#: left the physical set by more than spectral reconstruction dust
_NEGATIVITY_TOL = 1e-8
#: the largest ``||L dt||_1`` of one ``expm`` call in :func:`propagate_ode`;
#: scipy's ``expm`` stays finite to ~1e36 and fails by ~1e39
_EXPM_MAX_NORM = 1e30
#: samples per round of the numeric survival check on each side of the peak
#: bracket's best point and in the root bracket, so that each round shrinks
#: both brackets about fivefold
_SIDE_POINTS = 4
#: the float spacing near t is below 4 eps t, so a root bracket can always
#: shrink to ``xtol + 4 eps t``
_ROOT_RTOL = 4.0 * sys.float_info.epsilon


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
    ``alphas`` on first read, or kept from the check of a stepped route.
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
        lowest = _lowest_eigenvalues(self.alphas)
        lowest.setflags(write=False)
        return lowest

    def worst_negativity(self) -> float:
        """Most negative density-matrix eigenvalue along the trajectory."""
        return float(min(self.min_eigenvalues.min(), 0.0))

    def state(self, k: int) -> PauliVector:
        """The sampled Pauli vector at ``times[k]``."""
        return PauliVector(self.alphas[k])

    def positivity_violations(self) -> tuple:
        """Indices of samples whose lowest eigenvalue is below ``-1e-8``."""
        return tuple(int(k) for k in _negative_samples(self.min_eigenvalues))


def _negative_samples(lowest: np.ndarray) -> np.ndarray:
    """Indices of the samples whose lowest eigenvalue is below ``-1e-8``."""
    return np.flatnonzero(lowest < -_NEGATIVITY_TOL)


def _finish_trajectory(
    times: np.ndarray,
    alphas: np.ndarray,
    gamma0: float,
    slow_rate: Optional[float],
    even: bool,
) -> Trajectory:
    """The trajectory of the samples ``alphas``, with their concurrence;
    ``even`` says every sample lies in the ``sigma_x (x) sigma_x`` even
    sector by structure (:func:`_even_by_structure`), so the batch is not
    tested."""
    return Trajectory(
        times=times,
        alphas=alphas,
        concurrence=np.clip(_signed_concurrence(alphas, even=even), 0.0, 1.0),
        gamma0=gamma0,
        slow_rate=slow_rate,
    )


def _check_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0 or (times.size > 1 and (np.diff(times) <= 0).any()):
        raise ValueError("times must be non-negative and strictly increasing")
    return times


def _check_horizon(horizon: float, rate: float) -> None:
    """Refuse a time horizon at which an exponent ``rate * t`` overflows.

    ``rate`` is the fastest rate a route scales by the time: the largest
    ``|lambda|`` of a mode sum, or the largest generator entry ``|L_ij|``
    of a matrix-exponential step.  A non-finite rate is no fault of the
    horizon and passes, for the route to refuse its non-finite result.  The
    check runs on Python floats, so numpy warns nothing.
    """
    if math.isfinite(rate) and not math.isfinite(horizon * rate):
        raise ValueError(
            f"time horizon {horizon:.6g} overflows the exponent at rate {rate:.6g}"
        )


def _excited_modes(report: SpectrumReport, alpha: np.ndarray) -> tuple:
    """The modes a checked state's Pauli vector ``alpha`` excites: the
    eigenvalues, amplitudes ``a_l`` (:func:`~spinbath.liouvillian.mode_coefficients`)
    and right eigenvectors of each mode whose term ``|a_l| max|r_l|`` exceeds
    machine epsilon times the largest term.

    No summed record has a mode growing faster than ~1e-9 gamma0, so for
    t >= 0 the dropped terms total at most 16 eps of the largest term, inside
    the round-off bound ``n eps`` the full sum already carries (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1).  A
    conjugate pair split by the cut leaves an imaginary residue of that
    size.  Where the largest term is not finite every mode is kept, for the
    sum to refuse its non-finite result.
    """
    coeffs = mode_coefficients(report, alpha)
    right = report.right
    size = np.abs(coeffs) * np.abs(right).max(axis=0)
    limit = sys.float_info.epsilon * size.max()
    if not math.isfinite(limit):
        return report.eigenvalues, coeffs, right
    keep = size > limit
    return report.eigenvalues[keep], coeffs[keep], right[:, keep]


def _even_by_structure(keeps_x_parity: bool, alpha: np.ndarray) -> bool:
    """Whether every sample propagated from a checked state's Pauli vector
    ``alpha`` lies in the sector even under conjugation by ``sigma_x (x)
    sigma_x``: the generator keeps the sectors (``keeps_x_parity``, every
    entry coupling them exactly zero) and each of the eight odd components
    of ``alpha`` is exactly zero.  A stepped sample's odd components are
    then exactly zero too; a mode sum's are round-off of the eigensystem,
    since the exact sum has none, and the closed form does not read them."""
    return keeps_x_parity and not alpha[_X_ODD].any()


def _spectral_alphas(modes: tuple, times: np.ndarray) -> np.ndarray:
    """Real mode sum ``sum_l a_l exp(lambda_l t) r_l`` of ``modes``, the
    eigenvalues, amplitudes and right eigenvectors :func:`_excited_modes`
    keeps, at each time; a non-finite sum (an eigenvalue whose real part,
    error included, overflows the exponent) or a broken mode pairing raises
    :class:`NumericalFailureError`, and numpy warns nothing on the way."""
    eigenvalues, coeffs, right = modes
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(times[:, None] * eigenvalues)
        alpha_c = (phases * coeffs) @ right.T
    if not np.isfinite(alpha_c).all():
        raise NumericalFailureError("spectral reconstruction is not finite")
    residue = float(np.abs(alpha_c.imag).max())
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
    eigendecomposition.  Only the modes the state excites are summed, each
    whose term ``|a_l| max|r_l|`` exceeds machine epsilon times the largest;
    the dropped terms total at most 16 eps of the largest term at any
    sample.  Any spectrum record is summed, labelled or not;
    an unlabelled one gives a trajectory without ``slow_rate``.  A record
    too ill-conditioned to sum raises
    :class:`~spinbath.errors.DefectiveSpectrumError`, and one left
    unlabelled by a growing mode its reason
    (:func:`~spinbath.liouvillian.mode_coefficients`); a last time at which
    some mode's exponent overflows raises ``ValueError``.  The initial
    state is checked first, by the one input rule of :mod:`spinbath.states`
    (a trace component of 1 within 1e-12, and no eigenvalue below -1e-10),
    and one that is not a state raises
    :class:`~spinbath.errors.InvalidStateError`.  The reconstruction must
    come out real - a larger imaginary residue than 1e-8 indicates a broken
    mode pairing and raises :class:`NumericalFailureError`, as does
    spin-flip dust beyond the concurrence's rule.
    """
    alpha = _checked_state(initial)
    times = _check_times(times)
    _check_horizon(float(times[-1]), float(np.max(np.abs(report.eigenvalues))))
    alphas = _spectral_alphas(_excited_modes(report, alpha), times)
    slow_rate = None if report.labels is None else -report.slow_eigenvalue
    even = _even_by_structure(report.keeps_x_parity, alpha)
    return _finish_trajectory(times, alphas, report.gamma0, slow_rate, even)


def propagate_ode(generator: GeneratorMatrix, initial, times) -> Trajectory:
    """Evolve ``d alpha/dt = L alpha`` by exact steps over the time grid.

    Starting from ``initial`` at t = 0, each sample is reached from the
    previous one by ``alpha <- expm(L (t_k - t_{k-1})) alpha`` (scipy's
    scaling-and-squaring ``expm``, Al-Mohy & Higham 2009).  No
    eigendecomposition is involved, so this route serves as the
    cross-check of the spectral route and works where the spectrum is
    degenerate or defective.  A step whose ``||L dt||_1`` exceeds 1e30,
    well below the ~1e39 at which ``expm`` itself overflows, is taken as
    ``expm(L dt / 2**m)`` squared ``m`` times; shorter steps are one
    ``expm`` call.  A last time at which some step's exponent ``L t``
    overflows raises ``ValueError``.  The initial state is checked first,
    by the one input rule of :mod:`spinbath.states` (a trace component of 1
    within 1e-12, and no eigenvalue below -1e-10), and one that is not a
    state raises :class:`~spinbath.errors.InvalidStateError`.  A stepped
    sample that is no state, non-finite or with an eigenvalue below -1e-8,
    is the stepping's failure and raises :class:`IntegrationFailureError`
    before any concurrence is read; an overflow on the way warns nothing.
    """
    from scipy import linalg

    alpha = _checked_state(initial)
    times = _check_times(times)
    even = _even_by_structure(generator.keeps_x_parity, alpha)
    entries = generator.entries
    _check_horizon(float(times[-1]), float(np.max(np.abs(entries))))
    norm = float(np.linalg.norm(entries, 1))
    alphas = np.empty((times.size, alpha.size))
    # a growing generator may overflow on the way; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k, step in enumerate(np.diff(times, prepend=0.0).tolist()):
            squarings = 0
            if math.isfinite(norm) and norm * step > _EXPM_MAX_NORM:
                squarings = math.ceil(
                    math.log2(norm) + math.log2(step) - math.log2(_EXPM_MAX_NORM)
                )
            propagator = linalg.expm(entries * math.ldexp(step, -squarings))
            alpha = np.linalg.matrix_power(propagator, 2**squarings) @ alpha
            alphas[k] = alpha
    if not np.isfinite(alphas).all():
        raise IntegrationFailureError(
            "matrix-exponential stepping produced a non-finite state"
        )
    lowest = _lowest_eigenvalues(alphas)
    bad = _negative_samples(lowest)
    if bad.size:
        k = bad[0]
        raise IntegrationFailureError(
            f"matrix-exponential stepping produced eigenvalue {lowest[k]:.3e} "
            f"below -{_NEGATIVITY_TOL:.1e} at sample {k}"
        )
    trajectory = _finish_trajectory(times, alphas, generator.rates.gamma0, None, even)
    # keep the checked batch where the cached property would keep it
    lowest.setflags(write=False)
    trajectory.__dict__["min_eigenvalues"] = lowest
    return trajectory


def propagate(generator: GeneratorMatrix, initial, times) -> Trajectory:
    """Spectral propagation, falling back to matrix-exponential stepping.

    Sums the modes of the generator's cached spectrum record
    (:attr:`~spinbath.liouvillian.GeneratorMatrix.spectrum`) by
    :func:`propagate_spectral`, labelled or not (the perfectly correlated
    bath, whose zero mode is doubled, has no labels and no ``slow_rate``),
    so a generator already classified is not eigensolved again.  Where
    that mode sum refuses the eigenbasis as too ill-conditioned
    (:class:`~spinbath.errors.DefectiveSpectrumError`: zero temperature,
    R = 1, with a small deficit, or a rare near-parallel basis at deficit
    0) it steps by :func:`propagate_ode` instead.  A record left unlabelled
    by a growing mode raises its reason
    (:class:`~spinbath.errors.DegenerateSpectrumError`) and is not
    stepped: expm is no sounder there.  Each route checks the initial state
    by the one input rule of :mod:`spinbath.states`, so a vector that is
    not a state raises :class:`~spinbath.errors.InvalidStateError` with
    one message on either route; the fallback checks it again only when it
    runs.
    """
    try:
        return propagate_spectral(generator.spectrum, initial, times)
    except DefectiveSpectrumError:
        return propagate_ode(generator, initial, times)


def default_time_grid(gamma0: float, horizon: float, points: int = 400) -> np.ndarray:
    """Logarithmic grid from ``1e-3 / gamma0`` to ``horizon``, with t = 0.

    Log spacing resolves the fast transient and the slow tail in one grid
    of ``points`` samples after t = 0; ``points`` must be an integer (a
    Python or numpy one) of at least 2, so that the grid reaches the
    horizon.
    """
    if not (0 < gamma0 < math.inf and 0 < horizon < math.inf):
        raise ValueError("gamma0 and horizon must be positive and finite")
    if not isinstance(points, (int, np.integer)):
        raise ValueError(f"points must be an integer, got {points!r}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
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
    (larger ``R``) entangle a wider class of initial states.  A NaN
    argument raises ``ValueError``.
    """
    if math.isnan(ratio) or math.isnan(lambda_corr):
        raise ValueError(f"ratio and lambda_corr must not be NaN, got {ratio}, {lambda_corr}")
    r2 = ratio * ratio
    return lambda_corr < (5.0 * r2 - 3.0) / (3.0 - r2)


def threshold_ratio(lambda_corr: float) -> float:
    """Critical thermal ratio above which generation switches on.

    Inverts the generation condition: ``R* = sqrt(3 (Lambda+1) /
    (5 + Lambda))``, clamped to [0, 1].  States with ``Lambda < -1``
    generate at any temperature.  ``Lambda`` of a state lies in [-3, 1];
    any other value, NaN included, raises ``ValueError``.
    """
    if not -3.0 <= lambda_corr <= 1.0:
        raise ValueError(f"lambda_corr must lie in [-3, 1], got {lambda_corr}")
    value = 3.0 * (lambda_corr + 1.0) / (5.0 + lambda_corr)
    return math.sqrt(min(max(value, 0.0), 1.0))


def survival_time(ratio: float, lambda_corr: float, slow_rate: float) -> float:
    """Time at which the concurrence envelope reaches zero.

    Returns 0 when no entanglement is generated; ``inf`` at ``R = 1``
    (zero temperature) or for a frozen slow mode (``slow_rate = 0``, the
    perfectly correlated bath) - in both cases the envelope stays
    positive forever.  Otherwise

        t_c = (1/|lambda_1|) ln[ (R^2-Lambda)(R^2-3) / ((R^2+3)(R^2-1)) ],

    and 0 where that argument rounds to 1 or below, just inside the
    generation boundary, so no lifetime is negative.  A NaN argument
    raises ``ValueError``.
    """
    if not slow_rate >= 0:
        raise ValueError(f"slow_rate must be non-negative, got {slow_rate}")
    if not generation_condition(ratio, lambda_corr):
        return 0.0
    r2 = ratio * ratio
    if r2 >= 1.0 or slow_rate == 0.0:
        return math.inf
    argument = (r2 - lambda_corr) * (r2 - 3.0) / ((r2 + 3.0) * (r2 - 1.0))
    return math.log(argument) / slow_rate if argument > 1.0 else 0.0


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
    report: SpectrumReport, alpha: np.ndarray, t_guess: float
) -> tuple[float, float, float]:
    """Peak and final zero of the propagated concurrence of a checked
    state's Pauli vector ``alpha``.

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

    Only the scan grid, whose log-spaced part is made once per clock and
    window (:func:`_scan_grid`), and the concurrence batches are numpy
    arrays.  The brackets and their candidates are lists of Python floats,
    whose arithmetic is the same IEEE double arithmetic numpy does element
    by element, so every sample time is the one ``np.linspace``,
    ``np.setdiff1d`` and a stable ``np.argsort`` would give.
    """
    gamma0 = report.gamma0
    modes = _excited_modes(report, alpha)
    even = _even_by_structure(report.keeps_x_parity, alpha)

    def signed(times: list) -> list:
        return _signed_concurrence(_spectral_alphas(modes, np.array(times)), even=even).tolist()

    def stretch(start: float, stop: float) -> list:
        return np.linspace(start, stop, 49)[1:].tolist()

    horizon = 1.6 * t_guess if math.isfinite(t_guess) and t_guess > 0 else 30.0 / gamma0
    horizon = max(horizon, 5.0 / gamma0)
    # the fast modes decay at rates of order gamma0 or faster
    window = min(8.0 / gamma0, horizon)
    times = [0.0, *_scan_grid(gamma0, window)]
    if horizon > window:
        times += stretch(window, horizon)
    values = signed(times)
    if max(values) <= 0.0:
        return 0.0, 0.0, 0.0
    for _ in range(7):
        if values[-1] <= 0.0:
            break
        tail = stretch(horizon, 2.0 * horizon)
        times += tail
        values += signed(tail)
        horizon *= 2.0

    # each bracket is a pair of lists: its sample times and their values
    k = values.index(max(values))
    around = (max(k - 1, 0), k, min(k + 1, len(times) - 1))
    peak = [times[i] for i in around], [values[i] for i in around]
    peak_tol = 1e-5 * (peak[0][2] - peak[0][0])
    last = _last_positive(values)
    root = None if last == len(times) - 1 else (times[last : last + 2], values[last : last + 2])
    xtol = 1e-6 / max(-report.slow_eigenvalue, 1e-300)
    while True:
        peak_open = peak[0][2] - peak[0][0] > peak_tol
        root_tol = 0.0 if root is None else xtol + _ROOT_RTOL * root[0][1]
        root_open = root is not None and root[0][1] - root[0][0] > root_tol
        if not (peak_open or root_open):
            break
        peak_new = _peak_candidates(*peak, 0.45 * peak_tol) if peak_open else []
        root_new = _root_candidates(*root, 0.45 * root_tol) if root_open else []
        found = signed(peak_new + root_new)
        if peak_open:
            t, c = _merge(peak, peak_new, found[: len(peak_new)])
            # an end never becomes the best point, so the new bracket keeps a
            # neighbour on each side (at t = 0 the end and best are one sample)
            j = max(range(1, len(c) - 1), key=c.__getitem__)
            peak = t[j - 1 : j + 2], c[j - 1 : j + 2]
        if root_open:
            t, c = _merge(root, root_new, found[len(peak_new) :])
            i = _last_positive(c)
            root = t[i : i + 2], c[i : i + 2]
    t_zero = math.inf if root is None else 0.5 * (root[0][0] + root[0][1])
    return min(peak[1][1], 1.0), peak[0][1], t_zero


@lru_cache(maxsize=8)
def _scan_grid(gamma0: float, window: float) -> tuple:
    """The 64 log-spaced scan samples ``np.geomspace(1e-3 / gamma0, window,
    64)`` as a tuple of floats, kept for later reports on the same clock and
    window (most reports share ``window = 8 / gamma0``)."""
    return tuple(np.geomspace(1e-3 / gamma0, window, 64).tolist())


def _last_positive(values: list) -> int:
    """Index of the last positive value; there is one."""
    return next(i for i in range(len(values) - 1, -1, -1) if values[i] > 0.0)


def _merge(bracket, times: list, values: list):
    """A bracket's samples and new ones, in time order; a tie keeps the
    bracket's sample first, so ``lo`` stays first and ``hi`` last."""
    t = bracket[0] + times
    c = bracket[1] + values
    order = sorted(range(len(t)), key=t.__getitem__)
    return [t[i] for i in order], [c[i] for i in order]


def _even_points(a: float, b: float) -> list:
    """:data:`_SIDE_POINTS` even points strictly inside ``(a, b)``, each
    ``a + i * step`` as ``np.linspace(a, b, _SIDE_POINTS + 2)`` computes it."""
    step = (b - a) / (_SIDE_POINTS + 1)
    return [a + i * step for i in range(1, _SIDE_POINTS + 1)]


def _peak_candidates(times: list, values: list, flank: float) -> list:
    """New samples of a peak bracket ``(lo, best, hi)``: :data:`_SIDE_POINTS`
    even points on each non-empty side of ``best``, and the vertex of the
    parabola through the three samples with its flanks."""
    lo, best, hi = times
    f_lo, f_best, f_hi = values
    even = [t for a, b in ((lo, best), (best, hi)) if b > a for t in _even_points(a, b)]
    # the vertex is best - p / (2 q); a flat parabola, or a best point at an
    # end (a peak at t = 0), gives best itself
    p = (best - lo) ** 2 * (f_best - f_hi) - (best - hi) ** 2 * (f_best - f_lo)
    q = (best - lo) * (f_best - f_hi) - (best - hi) * (f_best - f_lo)
    vertex = best - 0.5 * p / q if q != 0.0 else best
    return _fresh(even + _with_flanks(vertex, lo, hi, flank), times)


def _root_candidates(times: list, values: list, flank: float) -> list:
    """New samples of a root bracket ``(a, b)``, ``c(a) > 0 >= c(b)``:
    :data:`_SIDE_POINTS` even interior points, and the secant point with its
    flanks."""
    a, b = times
    f_a, f_b = values
    secant = a + f_a * (b - a) / (f_a - f_b)
    return _fresh(_even_points(a, b) + _with_flanks(secant, a, b, flank), times)


def _with_flanks(point: float, lo: float, hi: float, flank: float) -> list:
    """A model point and a flank to each side; a point closer than one flank
    to an end of ``(lo, hi)`` is moved to one flank from it (Brent's
    smallest step)."""
    point = min(max(point, lo + flank), hi - flank)
    return [point - flank, point, point + flank]


def _fresh(candidates: list, times: list) -> list:
    """The candidate times strictly inside the bracket ``times`` and not yet
    sampled, sorted and without repeats."""
    lo, hi = times[0], times[-1]
    return sorted({t for t in candidates if lo < t < hi}.difference(times))


def survival_report(
    generator: GeneratorMatrix, initial, numeric: bool = True
) -> SurvivalReport:
    """Closed-form lifetime with an optional full-dynamics cross-check.

    The envelope prediction uses the numerically extracted slow rate, so
    any residual discrepancy against ``t_c_numeric`` reflects eigenvector
    (not eigenvalue) corrections.  The initial state is checked first, with
    or without the cross-check, by the one input rule of
    :mod:`spinbath.states`, and one that is not a state raises
    :class:`~spinbath.errors.InvalidStateError`.  The cross-check is a mode
    sum, so it raises :class:`~spinbath.errors.DefectiveSpectrumError`
    where the eigenbasis is too ill-conditioned to sum.  Its modes are
    selected once a report, as :func:`propagate_spectral` selects them: only
    the excited ones are summed, each whose term ``|a_l| max|r_l|`` exceeds
    machine epsilon times the largest, so every sample is within 16 eps of
    the largest term of the full sum.  Whether its samples stay in the
    ``sigma_x (x) sigma_x`` even sector is decided once a report too.
    """
    alpha = _checked_state(initial)
    spectrum = classify_spectrum(generator)
    ratio = generator.rates.ratio
    lam = correlation_scalar(alpha)
    slow_rate = -spectrum.slow_eigenvalue
    generated = generation_condition(ratio, lam)
    t_c = survival_time(ratio, lam, slow_rate)
    if numeric:
        peak_c, peak_t, t_c_numeric = _numeric_survival(spectrum, alpha, t_c)
    else:
        peak_c = float(analytic_concurrence(ratio, lam, slow_rate, 0.0))
        peak_t, t_c_numeric = 0.0, None
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
    if not (theta_bath > 0 and theta_qubits >= 0):
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
    if not (theta_bath > 0 and theta_qubits >= 0):
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
    if lowest < -_POSITIVITY_TOL:
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
    as such); a string entry is written as it is.  Each column holds one
    type, so the first row sets the format of every row.
    """
    lines = [",".join(header)]
    if rows:
        fmt = ",".join(["%s" if isinstance(v, str) else "%.9g" for v in rows[0]])
        lines += [fmt % tuple(row) for row in rows]
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
