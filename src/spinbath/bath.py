"""Bath description: spectral density, thermal factors, spatial correlation.

Everything downstream of the microscopic bath enters through a handful of
numbers evaluated at the qubit splitting ``Delta``:

* the golden-rule rate ``gamma0 = 2 pi J(Delta)``,
* the thermal occupation ``N`` (equivalently the ratio
  ``R = 1/(1 + 2N) = tanh(Delta / 2 T)``),
* the correlation deficit ``delta = 1 - f(kappa(Delta) d)`` measuring how
  much the two qubits' local environments differ at separation ``d``,
* the Lamb-shift strengths ``A`` and ``B`` (principal-value integrals over
  the full spectral density).

The spatial correlation function ``f`` depends on the bath dimension:
``cos x`` in 1D, the Bessel function ``J_0(x)`` in 2D and ``sin(x)/x`` in
3D, with ``x = kappa(omega) d`` and a linear dispersion by default.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidRatesError, NumericalFailureError

__all__ = [
    "SpectralDensity",
    "BathGeometry",
    "BathThermal",
    "RateSet",
    "thermal_occupation",
    "spatial_correlation",
    "correlation_delta",
    "build_rates",
    "lamb_shift_coefficients",
]


def _elementwise(scalar: Callable[[float], float], x):
    """``scalar`` of a Python number, or of each entry of an array.

    Each bath quantity has one formula, written for one Python float.  A
    number or a 0-d array gives a float, any other array a float array of
    its shape.
    """
    if isinstance(x, (int, float)):
        return scalar(x)
    # Python floats from tolist(): on numpy scalars, or inside
    # np.vectorize, a NaN from the formula's arithmetic warns
    x = np.asarray(x, dtype=float)
    value = np.array([scalar(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    return float(value) if x.ndim == 0 else value


# ---------------------------------------------------------------------------
# Spectral density
# ---------------------------------------------------------------------------

OHMIC = "ohmic"
TABULATED = "tabulated"
EXPONENTIAL_CUTOFF = "exponential"
HARD_CUTOFF = "hard"


@dataclass(frozen=True)
class SpectralDensity:
    """Bath spectral density ``J(omega)``, zero for ``omega <= 0``.

    The Ohmic form is ``J(omega) = (coupling / 2) * omega`` times an
    exponential or hard cutoff at ``cutoff_frequency``.  Tabulated data is
    interpolated linearly and vanishes outside the tabulated range.  A
    number gives a float and an array ``J`` of each entry, from the one
    formula in :meth:`_scalar`.
    """

    form: str = OHMIC
    coupling: float = 0.0
    cutoff_frequency: float = 0.0
    cutoff_form: str = EXPONENTIAL_CUTOFF
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.form not in (OHMIC, TABULATED):
            raise ValueError(f"unknown spectral form {self.form!r}")
        if self.form == OHMIC:
            if not 0 <= self.coupling < math.inf:
                raise ValueError("ohmic coupling must be non-negative and finite")
            if not 0 < self.cutoff_frequency < math.inf:
                raise ValueError("a positive cutoff frequency is required, and a finite one")
            if self.cutoff_form not in (EXPONENTIAL_CUTOFF, HARD_CUTOFF):
                raise ValueError(f"unknown cutoff form {self.cutoff_form!r}")
        else:
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
                raise ValueError("table must be an (n, 2) array of (omega, J) rows")
            if np.any(np.diff(table[:, 0]) <= 0):
                raise ValueError("table frequencies must be strictly increasing")
            if np.any(table[:, 1] < 0):
                raise ValueError("tabulated J values must be non-negative")
            if not np.all(np.isfinite(table)):
                raise ValueError("table entries must be finite")
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @classmethod
    def ohmic(
        cls,
        coupling: float,
        cutoff_frequency: float,
        cutoff_form: str = EXPONENTIAL_CUTOFF,
    ) -> "SpectralDensity":
        return cls(OHMIC, coupling, cutoff_frequency, cutoff_form)

    @classmethod
    def from_table(cls, omega, values) -> "SpectralDensity":
        table = np.column_stack([omega, values])
        return cls(form=TABULATED, table=table)

    @classmethod
    def from_table_file(cls, path) -> "SpectralDensity":
        """Load a two-column (omega, J) text table."""
        return cls(form=TABULATED, table=np.loadtxt(path))

    def __call__(self, omega):
        return _elementwise(self._scalar(), omega)

    def _scalar(self) -> Callable[[float], float]:
        """``J`` of one Python number, with the form's constants bound once.

        This is the only formula for ``J``: quadrature asks for it one node
        at a time, where numpy's per-call dispatch costs far more than the
        arithmetic, and an array is evaluated entry by entry.  The
        tabulated form is ``np.interp`` of the one frequency.
        """
        if self.form == TABULATED:
            nodes, values = self.table.T
            return lambda omega: (
                float(np.interp(omega, nodes, values, left=0.0, right=0.0))
                if omega > 0.0 else 0.0
            )
        slope, cutoff = 0.5 * self.coupling, self.cutoff_frequency
        if self.cutoff_form == EXPONENTIAL_CUTOFF:
            return lambda omega: slope * omega * math.exp(-omega / cutoff) if omega > 0.0 else 0.0
        return lambda omega: slope * omega if 0.0 < omega <= cutoff else 0.0

    def support_limit(self) -> float:
        """Frequency beyond which J is (numerically) negligible."""
        if self.form == TABULATED:
            return float(self.table[-1, 0])
        if self.cutoff_form == HARD_CUTOFF:
            return self.cutoff_frequency
        return 45.0 * self.cutoff_frequency


# ---------------------------------------------------------------------------
# Geometry and thermal state of the bath
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BathGeometry:
    """Qubit separation ``d``, bath dimension and dispersion ``kappa(omega)``.

    The default dispersion is linear, ``kappa = omega / velocity``.  An
    arbitrary map can be supplied through ``dispersion``; it is called on
    one frequency at a time, so ``kappa`` of an array maps each entry.
    """

    separation: float = 0.0
    dimension: int = 1
    velocity: float = 1.0
    dispersion: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not 0.0 <= self.separation < math.inf:
            raise ValueError("separation must be finite and non-negative")
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"bath dimension must be 1, 2 or 3, got {self.dimension}")
        if self.dispersion is None and not self.velocity > 0:
            raise ValueError("velocity must be positive for the linear dispersion")

    def kappa(self, omega):
        return _elementwise(self._kappa(), omega)

    def _kappa(self) -> Callable[[float], float]:
        """``kappa`` of one Python number: the dispersion, else ``w / velocity``."""
        if self.dispersion is not None:
            return self.dispersion
        velocity = self.velocity
        return lambda omega: omega / velocity


@dataclass(frozen=True)
class BathThermal:
    """Thermal occupation ``N`` at the system frequency.

    The equivalent ratio ``R = 1/(1 + 2N)`` (the asymptotic single-spin
    x-polarization) is derived on demand so the two parametrizations can
    never drift apart.
    """

    occupation: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.occupation < math.inf:
            raise ValueError("occupation must be finite and non-negative")

    @property
    def ratio(self) -> float:
        """R = 1/(1 + 2N), in (0, 1]."""
        return 1.0 / (1.0 + 2.0 * self.occupation)

    @classmethod
    def from_occupation(cls, occupation: float) -> "BathThermal":
        return cls(occupation)

    @classmethod
    def from_ratio(cls, ratio: float) -> "BathThermal":
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
        return cls((1.0 / ratio - 1.0) / 2.0)

    @classmethod
    def from_temperature(cls, delta_freq: float, temperature: float) -> "BathThermal":
        return cls(thermal_occupation(delta_freq, temperature))

    def coth_factor(self, omega: float, delta_freq: float) -> float:
        """``coth(omega / 2T)`` for the temperature implied by (N, Delta).

        Uses ``Delta / 2T = log(1 + 1/N) / 2``, which equals ``artanh(R)``
        but stays finite where ``R = 1/(1 + 2N)`` rounds to 1 at a tiny
        positive N.  At zero temperature (N = 0) the factor is identically 1
        for positive frequencies.  A splitting outside (0, inf) or a NaN
        ``omega`` raises ``ValueError``; ``omega = 0`` is the pole, ``inf``.
        """
        if not 0 < delta_freq < math.inf or math.isnan(omega):
            raise ValueError(
                f"frequency must be positive and finite, got {delta_freq} (omega = {omega})"
            )
        return self._coth(delta_freq)(omega)

    def _coth(self, delta_freq: float) -> Callable[[float], float]:
        """``omega -> coth(omega / 2T)``, with ``Delta / 2T`` evaluated once."""
        if self.occupation == 0.0:
            return lambda omega: 1.0
        half_beta_delta = 0.5 * math.log1p(1.0 / self.occupation)

        def coth(omega: float) -> float:
            try:
                return 1.0 / math.tanh(omega * half_beta_delta / delta_freq)
            except ZeroDivisionError:
                # the argument is zero, or underflowed to zero: coth's pole
                return math.inf

        return coth


def thermal_occupation(delta_freq: float, temperature: float) -> float:
    """Bose-Einstein occupation ``1 / (exp(Delta/T) - 1)``.

    ``temperature`` is in energy units (k_B absorbed); zero maps to zero
    occupation, and so does a ``Delta / T`` beyond ``expm1``'s range, where
    the occupation underflows.
    """
    if not 0 < delta_freq < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {delta_freq}")
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be non-negative and finite, got {temperature}")
    if temperature == 0.0:
        return 0.0
    try:
        return 1.0 / math.expm1(delta_freq / temperature)
    except OverflowError:
        return 0.0


# ---------------------------------------------------------------------------
# Spatial correlation function
# ---------------------------------------------------------------------------


def _cos(x: float) -> float:
    return math.cos(x) if math.isfinite(x) else math.nan


def _j0_profile() -> Callable[[float], float]:
    from scipy import special

    def j0(x: float) -> float:
        return float(special.j0(x))

    return j0


def _sinc(x: float) -> float:
    if x == 0.0:
        return 1.0
    return math.sin(x) / x if math.isfinite(x) else math.nan


#: a factory of the profile of one Python number, by bath dimension: NaN at
#: +-inf, as scipy's j0 gives, where math.cos and math.sin would raise.  The
#: 2D factory imports scipy.special, once per profile rather than per node.
_PROFILES = {1: lambda: _cos, 2: _j0_profile, 3: lambda: _sinc}


def spatial_correlation(x, dimension: int):
    """Normalized bath correlation profile ``f(x)`` at scaled separation x.

    ``cos(x)`` for a 1D bath, ``J_0(x)`` for 2D (``scipy.special.j0``),
    ``sin(x)/x`` for 3D; all satisfy ``f(0) = 1`` and ``|f| <= 1``, and
    are NaN at an infinite or NaN ``x``.  A number gives a float and an
    array is evaluated entry by entry, through the same ``_PROFILES``
    formula the Lamb-shift integrand calls.
    """
    if dimension not in _PROFILES:
        raise ValueError(f"bath dimension must be 1, 2 or 3, got {dimension}")
    return _elementwise(_PROFILES[dimension](), x)


def correlation_delta(
    geometry: BathGeometry, delta_freq: float, approx: bool = False
) -> float:
    """Correlation deficit ``delta = 1 - f(kappa(Delta) d)``.

    With ``approx=True`` the small-separation quadratic form
    ``(kappa d)^2 / (2 D)`` is used instead of the exact profile; the two
    agree to second order in ``kappa d``.
    """
    if not 0 < delta_freq < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {delta_freq}")
    x = float(geometry.kappa(delta_freq)) * geometry.separation
    if approx:
        return x * x / (2.0 * geometry.dimension)
    return 1.0 - spatial_correlation(x, geometry.dimension)


# ---------------------------------------------------------------------------
# Decay rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateSet:
    """Golden-rule rates entering the dissipator.

    Same-qubit rates carry the thermal factors, ``gamma11(+Delta) =
    (N + 1) gamma0`` for emission and ``gamma11(-Delta) = N gamma0`` for
    absorption; cross-qubit rates are suppressed by the correlation
    deficit, ``gamma12 = (1 - delta) gamma11``.  Positivity of each 2x2
    rate matrix requires ``delta`` in [0, 2].
    """

    gamma0: float
    gamma11_plus: float
    gamma11_minus: float
    gamma12_plus: float
    gamma12_minus: float
    delta: float

    @classmethod
    def from_parameters(
        cls, gamma0: float, thermal: BathThermal, delta: float
    ) -> "RateSet":
        if not gamma0 > 0:
            raise InvalidRatesError(f"gamma0 must be positive, got {gamma0}")
        if not 0.0 <= delta <= 2.0:
            raise InvalidRatesError(
                f"correlation deficit {delta} outside [0, 2] violates positivity"
            )
        n = thermal.occupation
        g_plus = (n + 1.0) * gamma0
        g_minus = n * gamma0
        return cls(
            gamma0=gamma0,
            gamma11_plus=g_plus,
            gamma11_minus=g_minus,
            gamma12_plus=(1.0 - delta) * g_plus,
            gamma12_minus=(1.0 - delta) * g_minus,
            delta=delta,
        )

    @property
    def occupation(self) -> float:
        return self.gamma11_minus / self.gamma0

    @property
    def ratio(self) -> float:
        return 1.0 / (1.0 + 2.0 * self.occupation)


def build_rates(
    spectral: SpectralDensity,
    thermal: BathThermal,
    geometry: BathGeometry,
    delta_freq: float,
    approx_delta: bool = False,
) -> RateSet:
    """Assemble the dissipator rates for a splitting ``delta_freq``.

    Raises :class:`InvalidRatesError` when ``J(delta_freq)`` is not
    positive or the (approximate) correlation deficit breaks positivity.
    """
    j_at_delta = float(spectral(delta_freq))
    if j_at_delta <= 0.0:
        raise InvalidRatesError(
            f"spectral density at the splitting is {j_at_delta}; rates undefined"
        )
    gamma0 = 2.0 * math.pi * j_at_delta
    delta = correlation_delta(geometry, delta_freq, approx=approx_delta)
    return RateSet.from_parameters(gamma0, thermal, delta)


# ---------------------------------------------------------------------------
# Lamb-shift coefficients (principal-value integrals)
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(limit=400, epsrel=1e-11)
#: largest accepted QUADPACK error estimate, relative to the value, for a
#: Lamb-shift coefficient
_PV_REL_TOL = 1e-6
#: QUADPACK's absolute tolerance and the gate's absolute floor, in units of
#: the numerator's magnitude (see :func:`_principal_value`)
_PV_ABS_TOL = 1e-13


def _principal_value(
    name: str, numerator, pole: float, upper: float, nodes: tuple = ()
) -> float:
    """``PV int_0^upper numerator(w) / (w - pole) dw`` by pole subtraction.

    A pole inside (0, upper) is removed exactly: with ``g = numerator``,

        PV int_0^U g(w) / (w - p) dw
            = int_0^U (g(w) - g(p)) / (w - p) dw + g(p) ln((U - p) / p),

    and the remaining integrand is regular at ``p``, so plain ``quad``
    (QUADPACK's QAGP) integrates it with ``p`` as a breakpoint.  A pole
    outside leaves an ordinary integrand.  ``nodes`` are further
    breakpoints, the kinks of a tabulated ``J``; ``limit`` grows with
    their number so that QUADPACK always has subdivisions left to spend.
    A pole below the smallest normal float is refused: the integrand's
    products underflow there, and an all-zero integrand would pass as a
    converged zero.  The value is returned only when QUADPACK reports
    success and its own error estimate is within
    ``_PV_REL_TOL * |value| + _PV_ABS_TOL * scale``, where ``scale`` is
    the largest ``|g|`` at the pole and at ``U``, ``U / 4``, ``U / 16`` and
    ``U / 64``.  That floor and QUADPACK's own ``epsabs`` are linear in
    ``J``, so a coefficient of a tiny coupling is held to the same relative
    accuracy as one of a large coupling.  The samples away from the pole
    keep ``scale`` at the integrand's size where ``g(p)`` is small (the
    pole outside the support, a near zero of the profile, or ``J`` far
    below its peak), since an ``epsabs`` far below the integrand's
    round-off makes QUADPACK give up.  Otherwise
    :class:`NumericalFailureError` names the coefficient, the estimate, the
    error estimate, the tolerance and QUADPACK's message.
    """
    from scipy import integrate

    if 0.0 < pole < sys.float_info.min:
        raise NumericalFailureError(
            f"principal value {name} did not converge: the pole {pole!r} is "
            "subnormal, where the integrand underflows"
        )
    residue = numerator(pole)
    # U / 64 < U / 45, the peak of an exponential cutoff's J, < U / 16
    scale = max(abs(residue), *(abs(numerator(upper * 0.25**k)) for k in range(4)))
    if 0.0 < pole < upper:
        singular = residue * math.log((upper - pole) / pole)
        nodes = (*nodes, pole)

        def integrand(omega: float) -> float:
            return (numerator(omega) - residue) / (omega - pole)
    else:
        singular = 0.0

        def integrand(omega: float) -> float:
            return numerator(omega) / (omega - pole)

    points = sorted({w for w in nodes if 0.0 < w < upper})
    floor = _PV_ABS_TOL * scale
    opts = dict(_QUAD_OPTS, limit=_QUAD_OPTS["limit"] + len(points), epsabs=floor)
    result = integrate.quad(integrand, 0.0, upper, points=points or None, full_output=1, **opts)
    value, abserr = result[0] + singular, result[1]
    # quad appends a message only when QUADPACK's ier is non-zero
    message = result[3] if len(result) > 3 else None
    if message is not None or not abserr <= _PV_REL_TOL * abs(value) + floor:
        reason = " ".join((message or "error estimate above tolerance").split())
        raise NumericalFailureError(
            f"principal value {name} did not converge: estimate {value!r}, "
            f"error estimate {abserr!r} (rel_tol {_PV_REL_TOL}); QUADPACK: {reason}"
        )
    return value


def lamb_shift_coefficients(
    spectral: SpectralDensity,
    thermal: BathThermal,
    geometry: BathGeometry,
    delta_freq: float,
) -> tuple[float, float]:
    """Strengths of the bath-induced Hamiltonian corrections.

    ``A`` multiplies the single-qubit field term and ``B`` the exchange-like
    two-qubit term:

        A = 2 PV int_0^inf J(w) coth(w / 2T) Delta / (Delta^2 - w^2) dw
        B =   PV int_0^inf J(w) f(kappa(w) d)   w   / (Delta^2 - w^2) dw

    ``A`` is independent of the qubit separation by construction.  Each is
    one principal value over the support of ``J``, by pole subtraction and
    plain QUADPACK quadrature that breaks at the pole and at the interior
    nodes of a tabulated ``J`` (see :func:`_principal_value`).  Neither
    integrand multiplies two frequencies, so the coefficients scale with
    the splitting down to the smallest normal float; a subnormal splitting
    is refused.  QUADPACK's own error estimate of each
    coefficient must stay within 1e-6 of its value, plus an absolute floor
    of 1e-13 times the size of the integrand's numerator; the floor is
    linear in ``J``, so the gate holds at any coupling strength.
    A spectral density without sufficient falloff makes these integrals
    ill-defined; non-convergence, or an error estimate above that
    tolerance, raises :class:`NumericalFailureError`.
    """
    if not 0 < delta_freq < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {delta_freq}")
    upper = spectral.support_limit()
    floor = 1e-12 * delta_freq

    # QUADPACK calls back one node at a time: bind the node-invariant
    # constants of J, coth and f once here
    density = spectral._scalar()
    coth = thermal._coth(delta_freq)
    profile = _PROFILES[geometry.dimension]()
    kappa, separation = geometry._kappa(), geometry.separation

    # 1 / (Delta^2 - w^2) = -1 / ((w - Delta) (Delta + w)): each numerator
    # carries -1 / (Delta + w), and _principal_value divides by w - Delta.
    # The ratios Delta / (Delta + w) and w / (Delta + w) are formed first,
    # so that no product of two small frequencies underflows.
    def numerator_a(omega: float) -> float:
        omega = max(omega, floor)
        return -2.0 * density(omega) * coth(omega) * (delta_freq / (delta_freq + omega))

    def numerator_b(omega: float) -> float:
        omega = max(omega, floor)
        # a custom dispersion's infinite kappa makes the profile NaN, and
        # the NaN makes QUADPACK fail and the failure name B
        profile_value = profile(float(kappa(omega)) * separation)
        return -density(omega) * profile_value * (omega / (delta_freq + omega))

    # a tabulated J has a kink at every interior node
    nodes = tuple(spectral.table[1:-1, 0].tolist()) if spectral.form == TABULATED else ()
    coeff_a = _principal_value("A", numerator_a, delta_freq, upper, nodes)
    coeff_b = _principal_value("B", numerator_b, delta_freq, upper, nodes)
    return coeff_a, coeff_b
