"""Exception types shared across the package."""


class InvalidStateError(ValueError):
    """A density matrix or Bloch vector violates its defining constraints."""


class InvalidRatesError(ValueError):
    """A rate set fails positivity / positive-semidefiniteness requirements."""


class InvalidCoefficientsError(ValueError):
    """Mode amplitudes produce a non-positive (unphysical) density operator."""


class NumericalFailureError(RuntimeError):
    """A numerical check failed: a quadrature that did not converge, an
    imaginary residue above tolerance, a non-finite state; details in args."""


class IntegrationFailureError(NumericalFailureError):
    """Direct propagation produced a non-finite state."""


class DegenerateSpectrumError(RuntimeError):
    """Spectrum classification is ambiguous (e.g. two slow candidates).

    The offending eigenvalues are attached as ``candidates``.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class DefectiveSpectrumError(RuntimeError):
    """The generator has no complete eigenbasis; spectral propagation is
    unavailable and callers should fall back to direct propagation."""
