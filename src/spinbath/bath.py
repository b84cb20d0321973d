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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

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
    interpolated linearly and vanishes outside the tabulated range.
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
            if self.coupling < 0:
                raise ValueError("ohmic coupling must be non-negative")
            if self.cutoff_frequency <= 0:
                raise ValueError("a positive cutoff frequency is required")
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
        data = np.loadtxt(path)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        return cls(form=TABULATED, table=data)

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.form == OHMIC:
            value = 0.5 * self.coupling * omega
            if self.cutoff_form == EXPONENTIAL_CUTOFF:
                value = value * np.exp(-omega / self.cutoff_frequency)
            else:
                value = np.where(omega <= self.cutoff_frequency, value, 0.0)
        else:
            value = np.interp(omega, self.table[:, 0], self.table[:, 1], left=0.0, right=0.0)
        value = np.where(omega > 0.0, value, 0.0)
        return float(value) if value.ndim == 0 else value

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
    arbitrary map can be supplied through ``dispersion``.
    """

    separation: float = 0.0
    dimension: int = 1
    velocity: float = 1.0
    dispersion: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"bath dimension must be 1, 2 or 3, got {self.dimension}")
        if self.dispersion is None and self.velocity <= 0:
            raise ValueError("velocity must be positive for the linear dispersion")

    def kappa(self, omega):
        if self.dispersion is not None:
            return self.dispersion(omega)
        return np.asarray(omega, dtype=float) / self.velocity


@dataclass(frozen=True)
class BathThermal:
    """Thermal occupation ``N`` at the system frequency.

    The equivalent ratio ``R = 1/(1 + 2N)`` (the asymptotic single-spin
    x-polarization) is derived on demand so the two parametrizations can
    never drift apart.
    """

    occupation: float = 0.0

    def __post_init__(self):
        if not self.occupation >= 0:
            raise ValueError("occupation must be non-negative")

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

        Uses ``Delta / 2T = artanh(R)``; at zero temperature (N = 0) the
        factor is identically 1 for positive frequencies.
        """
        if self.occupation == 0.0:
            return 1.0
        arg = omega * math.atanh(self.ratio) / delta_freq
        return 1.0 / math.tanh(arg)


def thermal_occupation(delta_freq: float, temperature: float) -> float:
    """Bose-Einstein occupation ``1 / (exp(Delta/T) - 1)``.

    ``temperature`` is in energy units (k_B absorbed); zero maps to zero
    occupation.
    """
    if delta_freq <= 0:
        raise ValueError(f"frequency must be positive, got {delta_freq}")
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(delta_freq / temperature)


# ---------------------------------------------------------------------------
# Spatial correlation function
# ---------------------------------------------------------------------------


def spatial_correlation(x, dimension: int):
    """Normalized bath correlation profile ``f(x)`` at scaled separation x.

    ``cos(x)`` for a 1D bath, ``J_0(x)`` for 2D (``scipy.special.j0``),
    ``sin(x)/x`` for 3D; all satisfy ``f(0) = 1`` and ``|f| <= 1``.
    """
    if dimension == 1:
        value = np.cos(x)
    elif dimension == 2:
        value = special.j0(x)
    elif dimension == 3:
        x = np.asarray(x, dtype=float)
        value = np.where(x == 0.0, 1.0, np.divide(np.sin(x), np.where(x == 0.0, 1.0, x)))
        value = float(value) if value.ndim == 0 else value
    else:
        raise ValueError(f"bath dimension must be 1, 2 or 3, got {dimension}")
    if np.ndim(value) == 0:
        return float(value)
    return value


def correlation_delta(
    geometry: BathGeometry, delta_freq: float, approx: bool = False
) -> float:
    """Correlation deficit ``delta = 1 - f(kappa(Delta) d)``.

    With ``approx=True`` the small-separation quadratic form
    ``(kappa d)^2 / (2 D)`` is used instead of the exact profile; the two
    agree to second order in ``kappa d``.
    """
    if delta_freq <= 0:
        raise ValueError(f"frequency must be positive, got {delta_freq}")
    x = float(geometry.kappa(delta_freq)) * geometry.separation
    if approx:
        return x * x / (2.0 * geometry.dimension)
    return 1.0 - float(spatial_correlation(x, geometry.dimension))


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
        if gamma0 <= 0:
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

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-11)


def _principal_value(
    name: str, numerator, pole: float, upper: float, rel_tol: float
) -> float:
    """``PV int_0^upper numerator(w) / (w - pole) dw`` in one QUADPACK call.

    A pole inside (0, upper) goes to QAWC, ``quad``'s Cauchy weight
    (Piessens et al., *QUADPACK*, 1983), which integrates the weight
    ``1 / (w - pole)`` in the principal-value sense; a pole outside leaves
    an ordinary integrand for plain ``quad``.  The value is returned only
    when QUADPACK reports success and its own error estimate is within
    ``rel_tol * |value| + 1e-13``.  Otherwise :class:`NumericalFailureError`
    names the coefficient, the estimate, the error estimate and QUADPACK's
    message.
    """
    if 0.0 < pole < upper:
        result = integrate.quad(
            numerator, 0.0, upper, weight="cauchy", wvar=pole, full_output=1, **_QUAD_OPTS
        )
    else:
        result = integrate.quad(
            lambda omega: numerator(omega) / (omega - pole), 0.0, upper,
            full_output=1, **_QUAD_OPTS,
        )
    value, abserr = result[0], result[1]
    # quad appends a message only when QUADPACK's ier is non-zero
    message = result[3] if len(result) > 3 else None
    if message is not None or abserr > rel_tol * abs(value) + 1e-13:
        reason = " ".join((message or "error estimate above tolerance").split())
        raise NumericalFailureError(
            f"principal value {name} did not converge: estimate {value!r}, "
            f"error estimate {abserr!r} (rel_tol {rel_tol}); QUADPACK: {reason}"
        )
    return value


def lamb_shift_coefficients(
    spectral: SpectralDensity,
    thermal: BathThermal,
    geometry: BathGeometry,
    delta_freq: float,
    rel_tol: float = 1e-6,
) -> tuple[float, float]:
    """Strengths of the bath-induced Hamiltonian corrections.

    ``A`` multiplies the single-qubit field term and ``B`` the exchange-like
    two-qubit term:

        A = 2 PV int_0^inf J(w) coth(w / 2T) Delta / (Delta^2 - w^2) dw
        B =   PV int_0^inf J(w) f(kappa(w) d)   w   / (Delta^2 - w^2) dw

    ``A`` is independent of the qubit separation by construction.  Each is
    one QUADPACK principal value over the support of ``J`` (see
    :func:`_principal_value`).  ``rel_tol`` bounds QUADPACK's own error
    estimate of each coefficient, relative to its value (plus 1e-13
    absolute).  A spectral density without sufficient falloff makes these
    integrals ill-defined; non-convergence, or an error estimate above
    ``rel_tol``, raises :class:`NumericalFailureError`.
    """
    if delta_freq <= 0:
        raise ValueError(f"frequency must be positive, got {delta_freq}")
    upper = spectral.support_limit()
    floor = 1e-12 * delta_freq

    # 1 / (Delta^2 - w^2) = -1 / ((w - Delta) (Delta + w)): each numerator
    # carries -1 / (Delta + w) and the Cauchy weight supplies 1 / (w - Delta)
    def numerator_a(omega: float) -> float:
        omega = max(omega, floor)
        num = 2.0 * spectral(omega) * thermal.coth_factor(omega, delta_freq) * delta_freq
        return -num / (delta_freq + omega)

    def numerator_b(omega: float) -> float:
        omega = max(omega, floor)
        x = float(geometry.kappa(omega)) * geometry.separation
        num = spectral(omega) * spatial_correlation(x, geometry.dimension) * omega
        return -num / (delta_freq + omega)

    coeff_a = _principal_value("A", numerator_a, delta_freq, upper, rel_tol)
    coeff_b = _principal_value("B", numerator_b, delta_freq, upper, rel_tol)
    return coeff_a, coeff_b
