"""Feasibility planning for a linear-ion-trap realization.

A chain of ions with axial trap frequency ``omega_t`` provides the common
phonon bath; two addressed ions play the qubits.  The effective spectral
density is Ohmic, ``J(omega) = (alpha/2) omega``, the qubit splitting is
set by the drive (``Delta = rabi_ratio * omega_t``), and the correlation
deficit follows from the phonon wavelength at the splitting: roughly
``ion_count / rabi_ratio`` ion spacings, so two ions ``s`` spacings apart
see ``kappa(Delta) d = s * rabi_ratio / ion_count``.

The chain is finite, so the Markovian picture only holds until the
coherent dynamics revives - about one trap period for a hundred ions,
growing linearly with the chain length (a sound-crossing estimate).  A
configuration is feasible when the entanglement transient (buildup over
``1/gamma0``, decay at ``t_c``) fits inside that window and the thermal
ratio is cold enough to generate entanglement at all.

This is the only module that touches physical units; everything else
works in rate units.  Within the planner, frequencies are expressed in
``omega_t`` and times in ``1/omega_t``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Mapping, Optional

from .bath import (
    HARD_CUTOFF,
    BathGeometry,
    BathThermal,
    RateSet,
    SpectralDensity,
    build_rates,
    correlation_delta,
    lamb_shift_coefficients,
)
from .dynamics import analytic_concurrence, generation_condition, survival_time
from .errors import InvalidRatesError, NumericalFailureError
from .liouvillian import ModelParams, first_order_slow_rate

__all__ = [
    "TrapConfig",
    "FeasibilityReport",
    "PlanResult",
    "default_config",
    "plan",
    "temperature_requirement",
    "report_to_json",
    "report_to_text",
]

#: the qubit splitting sits safely below this multiple of itself; a hard
#: cutoff keeps J(Delta) exactly Ohmic while the Lamb integrals converge.
_CUTOFF_MULTIPLE = 10.0
#: the exact SI values of the reduced Planck constant (J s) and the
#: Boltzmann constant (J/K); equal, bit for bit, to ``scipy.constants``
_HBAR = 6.62607015e-34 / (2 * math.pi)
_K_B = 1.380649e-23


@dataclass(frozen=True)
class TrapConfig:
    """Experimental knobs of the chain.

    ``rabi_ratio`` is the qubit splitting in trap units
    (``Delta / omega_t``); it must stay below the ion count for the
    phonon-wavelength estimate of the qubit separation to make sense.
    ``ohmic_coupling`` may be zero (qubits decoupled from the chain) -
    planning then reports an infeasible configuration rather than
    failing.
    """

    trap_frequency: float = 2.0 * math.pi * 1e6
    ion_count: int = 100
    rabi_ratio: float = 25.0
    ohmic_coupling: float = 0.1
    addressed_spacing: int = 1
    bath_dimension: int = 1
    target_ratio: float = 0.5

    def __post_init__(self):
        for name in ("trap_frequency", "rabi_ratio", "ohmic_coupling"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.trap_frequency <= 0:
            raise ValueError("trap_frequency must be positive (rad/s)")
        if not float(self.ion_count).is_integer() or self.ion_count < 2:
            raise ValueError(f"ion_count must be an integer >= 2, got {self.ion_count}")
        if self.rabi_ratio <= 0:
            raise ValueError("rabi_ratio must be positive")
        if self.ohmic_coupling < 0:
            raise ValueError("ohmic_coupling must be non-negative")
        if not float(self.addressed_spacing).is_integer() or self.addressed_spacing < 1:
            raise ValueError("addressed_spacing must be an integer >= 1")
        if self.bath_dimension not in (1, 2, 3):
            raise ValueError("bath_dimension must be 1, 2 or 3")
        if not 0.0 < self.target_ratio < 1.0:
            raise ValueError(f"target_ratio must lie in (0, 1), got {self.target_ratio}")
        if self.rabi_ratio >= self.ion_count:
            raise ValueError(
                "rabi_ratio must stay below ion_count for the wavelength "
                f"estimate to hold, got {self.rabi_ratio} >= {self.ion_count}"
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "TrapConfig":
        """Build from flat key-value pairs (CLI/config-file plumbing)."""
        valid = {field.name: type(field.default) for field in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in valid:
                raise ValueError(
                    f"unknown trap parameter {key!r}; valid keys: "
                    + ", ".join(sorted(valid))
                )
            value = float(raw)
            if valid[key] is int:
                if not value.is_integer():
                    raise ValueError(f"{key} must be an integer, got {raw!r}")
                value = int(value)
            kwargs[key] = value
        return cls(**kwargs)


def default_config() -> TrapConfig:
    """The reference configuration: 100 ions, Delta = 25 omega_t, alpha = 0.1."""
    return TrapConfig()


@dataclass(frozen=True)
class FeasibilityReport:
    """Planner output; frequencies in ``omega_t``, times in ``1/omega_t``.

    ``feasible`` means the revival window exceeds both the entanglement
    buildup time (``1/gamma0``) and its survival time, and the target
    thermal ratio actually generates entanglement from the reference
    (product, anti-aligned) initial state.
    """

    delta: float
    gamma0: float
    revival_time: float
    t_peak_estimate: float
    t_c: float
    peak_concurrence: float
    feasible: bool
    diagnostics: tuple

    def __post_init__(self):
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))


@dataclass(frozen=True)
class PlanResult:
    """Feasibility verdict plus ready-to-run model inputs (trap units)."""

    report: FeasibilityReport
    params: ModelParams
    rates: Optional[RateSet]
    spectral: SpectralDensity
    thermal: BathThermal
    geometry: BathGeometry


def plan(
    config: TrapConfig, exact_delta: bool = False, lamb_shift: bool = True
) -> PlanResult:
    """Map trap knobs to model parameters and judge feasibility.

    The correlation deficit uses the small-separation quadratic estimate
    by default (``exact_delta=True`` evaluates the full profile).
    ``PlanResult.params`` is the planned model, in which a zero strength
    means the term is absent: the induced exchange vanishes for an Ohmic
    finite chain, so ``exchange_xi`` is zero, and the Lamb strengths are
    computed unless ``lamb_shift=False``, which leaves them zero.  So
    ``build_generator(result.params, result.rates)`` is the bare model
    with ``lamb_shift=False`` and the Lamb-dressed one otherwise.

    Infeasible configurations come back with ``feasible=False`` and an
    explanation in ``diagnostics``; no exception is raised for them.  A
    spectral density that underflows to zero at a positive coupling and
    splitting raises :class:`NumericalFailureError`.
    """
    splitting = config.rabi_ratio  # Delta in omega_t units
    alpha = config.ohmic_coupling
    spectral = SpectralDensity.ohmic(alpha, _CUTOFF_MULTIPLE * splitting, HARD_CUTOFF)
    geometry = BathGeometry(
        separation=config.addressed_spacing * config.rabi_ratio / config.ion_count,
        dimension=config.bath_dimension,
        velocity=splitting,
    )
    thermal = BathThermal.from_ratio(config.target_ratio)

    deficit = correlation_delta(geometry, splitting, approx=not exact_delta)
    gamma0 = math.pi * alpha * splitting
    diagnostics = [
        "revival time scaled linearly with ion count from the 100-ion anchor "
        "(sound-crossing heuristic)",
    ]

    rates = None
    lamb_a = lamb_b = 0.0
    if alpha > 0:
        # J(Delta) = alpha Delta / 2 is positive here, so a zero is underflow
        if spectral(splitting) == 0.0:
            raise NumericalFailureError(
                f"spectral density at the splitting {splitting!r} underflows to 0.0"
            )
        if deficit > 2.0:
            # only the quadratic estimate can leave [0, 2]; 1 - f cannot
            raise InvalidRatesError(
                f"the small-separation deficit estimate (kappa d)^2 / (2 D) = {deficit!r} "
                "lies outside [0, 2]: the qubits are too far apart for it; "
                "set exact_delta=true to use the full correlation profile"
            )
        rates = build_rates(spectral, thermal, geometry, splitting, approx_delta=not exact_delta)
        if lamb_shift:
            lamb_a, lamb_b = lamb_shift_coefficients(spectral, thermal, geometry, splitting)
    else:
        diagnostics.append("no dissipation: ohmic_coupling is zero, qubits decouple from the chain")

    params = ModelParams(delta_field=splitting, lamb_a=lamb_a, lamb_b=lamb_b)

    ratio = config.target_ratio
    slow_rate = first_order_slow_rate(thermal.occupation, deficit, gamma0)
    lam_corr = -1.0

    generated = generation_condition(ratio, lam_corr)
    t_c = survival_time(ratio, lam_corr, slow_rate)
    peak = float(analytic_concurrence(ratio, lam_corr, slow_rate, 0.0))
    revival = 2.0 * math.pi * config.ion_count / 100.0
    t_peak = 1.0 / gamma0 if gamma0 > 0 else math.inf

    window = max(t_peak, t_c)
    feasible = bool(revival > window and generated)

    if not generated:
        diagnostics.append(
            f"target ratio {ratio} generates no entanglement from the "
            "anti-aligned product state"
        )
    if gamma0 > 0:
        # the product can underflow to zero although both factors are positive
        slow_rate_scale = deficit * gamma0
        slow_window = 1.0 / slow_rate_scale if slow_rate_scale > 0 else math.inf
        relation = "fits inside" if revival > slow_window else "exceeds"
        diagnostics.append(
            f"full slow-mode window 1/(delta*gamma0) = {slow_window:.4g}/omega_t "
            f"{relation} the revival time {revival:.4g}/omega_t"
        )
    if math.isfinite(window) and not feasible and generated:
        diagnostics.append(
            f"transient window {window:.4g}/omega_t does not fit inside "
            f"the revival time {revival:.4g}/omega_t"
        )

    report = FeasibilityReport(
        delta=deficit,
        gamma0=gamma0,
        revival_time=revival,
        t_peak_estimate=t_peak,
        t_c=t_c,
        peak_concurrence=peak,
        feasible=feasible,
        diagnostics=tuple(diagnostics),
    )
    return PlanResult(
        report=report,
        params=params,
        rates=rates,
        spectral=spectral,
        thermal=thermal,
        geometry=geometry,
    )


def temperature_requirement(config: TrapConfig) -> float:
    """Bath temperature (kelvin) that realizes the target thermal ratio.

    Inverts ``R = tanh(hbar Delta / 2 k_B T)`` with
    ``Delta = rabi_ratio * trap_frequency`` in rad/s; millikelvin for
    megahertz traps.
    """
    ratio = config.target_ratio
    splitting = config.rabi_ratio * config.trap_frequency
    energy = _HBAR * splitting
    denominator = 2.0 * _K_B * math.atanh(ratio)
    # Where hbar * Delta or 2 k_B artanh(R) is zero or subnormal, dividing by
    # k_B first keeps the digits.  Elsewhere the product order stays, bit for
    # bit.
    if energy < sys.float_info.min:
        kelvin = (_HBAR / _K_B) * splitting / (2.0 * math.atanh(ratio))
    elif denominator < sys.float_info.min:
        kelvin = energy / _K_B / (2.0 * math.atanh(ratio))
    else:
        kelvin = energy / denominator
    if kelvin == math.inf:
        raise ValueError(
            f"bath temperature overflows at splitting {splitting!r} rad/s and "
            f"target ratio {ratio!r}"
        )
    return kelvin


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def report_to_json(report: FeasibilityReport, temperature_kelvin: Optional[float] = None) -> str:
    payload = {
        "delta": _json_safe(report.delta),
        "gamma0_omega_t": _json_safe(report.gamma0),
        "revival_time_omega_t": _json_safe(report.revival_time),
        "t_peak_estimate_omega_t": _json_safe(report.t_peak_estimate),
        "t_c_omega_t": _json_safe(report.t_c),
        "peak_concurrence": _json_safe(report.peak_concurrence),
        "feasible": report.feasible,
        "diagnostics": list(report.diagnostics),
    }
    if temperature_kelvin is not None:
        payload["bath_temperature_kelvin"] = _json_safe(temperature_kelvin)
    return json.dumps(payload, sort_keys=True, indent=2)


def report_to_text(report: FeasibilityReport, temperature_kelvin: Optional[float] = None) -> str:
    lines = [
        "ion-trap feasibility (frequencies in omega_t, times in 1/omega_t)",
        f"  correlation deficit   delta = {report.delta:.6g}",
        f"  golden-rule rate     gamma0 = {report.gamma0:.6g}",
        f"  revival window              = {report.revival_time:.6g}",
        f"  entanglement peak at       ~= {report.t_peak_estimate:.6g}",
        f"  entanglement gone by        = {report.t_c:.6g}",
        f"  peak concurrence            = {report.peak_concurrence:.6g}",
        f"  feasible                    = {'yes' if report.feasible else 'no'}",
    ]
    if temperature_kelvin is not None:
        lines.append(f"  bath temperature            = {temperature_kelvin:.6g} K")
    for note in report.diagnostics:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"
