"""Exception types shared across the package.

There are two families.  Invalid inputs derive from ``ValueError``;
numerical failures on valid inputs derive from
:class:`NumericalFailureError`, a ``RuntimeError``.  The command line maps
the first family to exit code 2 and the second to exit code 3.
"""

__all__ = [
    "InvalidStateError",
    "InvalidRatesError",
    "InvalidCoefficientsError",
    "NumericalFailureError",
    "IntegrationFailureError",
    "DegenerateSpectrumError",
    "DefectiveSpectrumError",
]


class InvalidStateError(ValueError):
    """Invalid-input family: a density matrix or Bloch vector violates its
    defining constraints.  Raised only by the input checks of
    :mod:`spinbath.states`; spin-flip dust beyond the concurrence's rule, on
    a state that has passed them, is a :class:`NumericalFailureError`."""


class InvalidRatesError(ValueError):
    """Invalid-input family: a rate set fails positivity /
    positive-semidefiniteness requirements."""


class InvalidCoefficientsError(ValueError):
    """Invalid-input family: mode amplitudes produce a non-positive
    (unphysical) density operator."""


class NumericalFailureError(RuntimeError):
    """Root of the numerical-failure family: a numerical check failed on
    valid inputs, such as a quadrature that did not converge, an imaginary
    residue above tolerance or a non-finite state; details in args."""


class IntegrationFailureError(NumericalFailureError):
    """Numerical-failure family: direct propagation produced a non-finite
    state."""


class DegenerateSpectrumError(NumericalFailureError):
    """Numerical-failure family: spectrum classification is ambiguous (e.g.
    two slow candidates).

    The offending eigenvalues are attached as ``candidates``.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class DefectiveSpectrumError(NumericalFailureError):
    """Numerical-failure family: a spectrum record's basis stays too
    ill-conditioned to sum its modes with every near-defective pair of
    modes taken as a block, so a cluster of three or more near-defective
    modes remains; every mode sum, ``propagate`` included, raises it."""
