"""Two qubits in a spatially correlated thermal bath.

The package models a pair of driven qubits coupled through their
``sigma_z`` components to a common bosonic environment.  Partial spatial
correlation of the bath (quantified by the deficit ``delta``) opens a
slow dissipative channel that first *builds* two-qubit entanglement and
only destroys it on the much longer timescale ``1/(delta gamma0)``.

Layout:

* :mod:`spinbath.states` - Pauli-product (generalized Bloch) vectors,
  density-matrix conversion, Wootters concurrence, canonical states.
* :mod:`spinbath.bath` - spectral density, thermal factors, spatial
  correlation profile, golden-rule rates, Lamb-shift integrals.
* :mod:`spinbath.liouvillian` - the 16x16 real generator, its classified
  eigensystem, analytic mode patterns.
* :mod:`spinbath.dynamics` - spectral and expm-stepping propagation,
  concurrence trajectories, generation conditions and survival times.
* :mod:`spinbath.iontrap` - mapping to linear-ion-trap parameters with a
  feasibility verdict.
* :mod:`spinbath.cli` - the ``spinbath`` command.
"""

from .errors import (
    DefectiveSpectrumError,
    DegenerateSpectrumError,
    IntegrationFailureError,
    InvalidCoefficientsError,
    InvalidRatesError,
    InvalidStateError,
    NumericalFailureError,
)
from .states import (
    PauliVector,
    TwoQubitDensityMatrix,
    bell_singlet,
    bell_triplet,
    bloch_to_density,
    correlation_scalar,
    density_to_bloch,
    flat_index,
    maximally_mixed,
    state_for_correlation,
    werner,
    wootters_concurrence,
    x_up_down,
    x_up_up,
    z_up_down,
)
from .bath import (
    BathGeometry,
    BathThermal,
    RateSet,
    SpectralDensity,
    build_rates,
    correlation_delta,
    lamb_shift_coefficients,
    spatial_correlation,
    thermal_occupation,
)
from .liouvillian import (
    GeneratorMatrix,
    ModelParams,
    SpectrumReport,
    analytic_slow_eigenpair,
    build_generator,
    classify_spectrum,
    first_order_slow_rate,
    mode_coefficients,
    oscillatory_alpha_pattern,
    slow_alpha_pattern,
    thermal_alpha,
)
from .dynamics import (
    SurvivalReport,
    Trajectory,
    analytic_amplitude,
    analytic_concurrence,
    analytic_state,
    concurrence_of_alpha,
    default_time_grid,
    generation_condition,
    propagate,
    propagate_ode,
    propagate_spectral,
    survival_report,
    survival_time,
    thermal_bath_condition,
    thermal_bath_condition_asymptotic,
    threshold_ratio,
    write_trajectory_csv,
    zero_temperature_state,
)
from .iontrap import (
    FeasibilityReport,
    PlanResult,
    TrapConfig,
    plan,
    temperature_requirement,
)

__version__ = "0.1.0"

__all__ = [
    "DefectiveSpectrumError",
    "DegenerateSpectrumError",
    "IntegrationFailureError",
    "InvalidCoefficientsError",
    "InvalidRatesError",
    "InvalidStateError",
    "NumericalFailureError",
    "PauliVector",
    "TwoQubitDensityMatrix",
    "bell_singlet",
    "bell_triplet",
    "bloch_to_density",
    "correlation_scalar",
    "density_to_bloch",
    "flat_index",
    "maximally_mixed",
    "state_for_correlation",
    "werner",
    "wootters_concurrence",
    "x_up_down",
    "x_up_up",
    "z_up_down",
    "BathGeometry",
    "BathThermal",
    "RateSet",
    "SpectralDensity",
    "build_rates",
    "correlation_delta",
    "lamb_shift_coefficients",
    "spatial_correlation",
    "thermal_occupation",
    "GeneratorMatrix",
    "ModelParams",
    "SpectrumReport",
    "analytic_slow_eigenpair",
    "build_generator",
    "classify_spectrum",
    "first_order_slow_rate",
    "mode_coefficients",
    "oscillatory_alpha_pattern",
    "slow_alpha_pattern",
    "thermal_alpha",
    "SurvivalReport",
    "Trajectory",
    "analytic_amplitude",
    "analytic_concurrence",
    "analytic_state",
    "concurrence_of_alpha",
    "default_time_grid",
    "generation_condition",
    "propagate",
    "propagate_ode",
    "propagate_spectral",
    "survival_report",
    "survival_time",
    "thermal_bath_condition",
    "thermal_bath_condition_asymptotic",
    "threshold_ratio",
    "write_trajectory_csv",
    "zero_temperature_state",
    "FeasibilityReport",
    "PlanResult",
    "TrapConfig",
    "plan",
    "temperature_requirement",
    "__version__",
]
