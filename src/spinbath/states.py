"""Two-qubit states in the Pauli-product (generalized Bloch) representation.

A two-qubit density operator is expanded as

    rho = (1/4) * sum_{i,j=0..3} alpha_ij  sigma_i (x) sigma_j,

with sigma_0 the identity and sigma_1..3 the Pauli matrices, so that
``alpha_ij = Tr[rho (sigma_i (x) sigma_j)]`` are real expectation values.
The sixteen coefficients are kept as a flat vector in row-major order,
``alpha[4*i + j]``; normalization fixes ``alpha[0] == 1``.

A state is a Pauli vector whose trace component is 1 within 1e-12 and
whose density matrix has no eigenvalue below -1e-10.  That one input rule
checks the initial state of every propagation and lifetime, so a refusal
by the spin-flip dust rule after it is a numerical failure.

The concurrence of any number of Pauli vectors is read at once, and every
caller takes the same two routes.  A state that starts in the sector even
under conjugation by ``sigma_x (x) sigma_x`` stays there under every
generator :func:`~spinbath.liouvillian.build_generator` makes, an X-state
in the ``sigma_x`` basis.  A batch whose odd components are all within
round-off, by a test of the batch, or that its caller knows even by
structure, reads each sample's concurrence from eight even components in
Yu and Eberly's closed form, with no root set and no spectrum; any other
batch eigensolves ``rho rho_tilde`` per sample.  The eigensolve's
spectra, and the closed form's complex squares of a sample with a
negative population product, meet the one dust rule and then the one
combination of sorted roots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalFailureError

__all__ = [
    "PAULI",
    "PAULI_PRODUCTS",
    "flat_index",
    "PauliVector",
    "TwoQubitDensityMatrix",
    "density_to_bloch",
    "bloch_to_density",
    "correlation_scalar",
    "wootters_concurrence",
    "maximally_mixed",
    "bell_singlet",
    "bell_triplet",
    "z_up_down",
    "x_up_down",
    "x_up_up",
    "werner",
    "state_for_correlation",
]

PAULI = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

#: sigma_i (x) sigma_j for i, j = 0..3, flattened row-major: entry 4*i + j.
PAULI_PRODUCTS = np.stack(
    [np.kron(PAULI[i], PAULI[j]) for i in range(4) for j in range(4)]
)
PAULI_PRODUCTS.setflags(write=False)

# sigma_y (x) sigma_y is anti-diagonal with entries s = (-1, 1, 1, -1) from
# the top row down; the spin flip below multiplies entry (a, b) by s_a s_b.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS.setflags(write=False)

#: the Pauli components odd under conjugation by sigma_x (x) sigma_x, those
#: with exactly one sigma_y or sigma_z factor: IY IZ XY XZ YI ZI YX ZX
_X_ODD = np.array([(i > 1) != (j > 1) for i in range(4) for j in range(4)])
_X_ODD.setflags(write=False)
#: odd components up to this fraction of the trace component count as
#: round-off: mode sums of even states under the model's generators, whose
#: every term keeps the sectors, leave at most ~2e-15 there
_X_ODD_RTOL = 1e-12

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_POSITIVITY_TOL = 1e-10
_IMAG_COMPONENT_TOL = 1e-10
#: the one bound on spin-flip dust, real and imaginary: the eigenvalues of the
#: nonsymmetric product ``rho rho_tilde`` carry O(sqrt(eps)) dust when
#: clustered, and spectrally reconstructed states add their own
_SPIN_FLIP_DUST_TOL = 1e-7


def flat_index(i: int, j: int) -> int:
    """Row-major position of the ``sigma_i (x) sigma_j`` coefficient; an
    index that is not an integer (Python's or numpy's), or lies outside
    0..3, raises ``ValueError``."""
    try:
        i, j = operator.index(i), operator.index(j)
    except TypeError:
        raise ValueError(f"Pauli indices must be integers, got ({i!r}, {j!r})") from None
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError(f"Pauli indices must lie in 0..3, got ({i}, {j})")
    return 4 * i + j


def _as_alpha(vector) -> np.ndarray:
    """The 16 Pauli components of a :class:`PauliVector`, a flat vector or a
    4x4 array; a wrong shape or a non-finite component raises
    :class:`InvalidStateError`."""
    alpha = np.asarray(
        vector.alpha if isinstance(vector, PauliVector) else vector, dtype=float
    )
    if alpha.shape == (4, 4):
        alpha = alpha.reshape(16)
    if alpha.shape != (16,):
        raise InvalidStateError(f"expected 16 Pauli components, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise InvalidStateError("Pauli components must be finite")
    return alpha


@dataclass(frozen=True)
class PauliVector:
    """Flat vector of the 16 Pauli-product expectation values.

    The container itself does not force ``alpha[0] == 1``: spectral
    eigenvectors and mode patterns reuse it with other normalizations.
    Operations that need a bona fide state check that condition themselves.
    """

    alpha: np.ndarray

    def __post_init__(self):
        alpha = _as_alpha(self.alpha)
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_components(cls, components: dict) -> "PauliVector":
        """Build from a sparse ``{(i, j): value}`` mapping; rest zero."""
        alpha = np.zeros(16)
        for (i, j), value in components.items():
            alpha[flat_index(i, j)] = value
        return cls(alpha)

    def component(self, i: int, j: int) -> float:
        return float(self.alpha[flat_index(i, j)])

    def as_matrix(self) -> np.ndarray:
        """The coefficients as a 4x4 array indexed ``[i, j]``."""
        return self.alpha.reshape(4, 4).copy()


@dataclass(frozen=True)
class TwoQubitDensityMatrix:
    """Validated 4x4 density matrix (finite, Hermitian, unit trace).

    Positivity is not enforced at construction: truncated mode expansions
    legitimately produce slightly indefinite matrices.  Use
    :meth:`min_eigenvalue` or :meth:`assert_positive` where it matters.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidStateError("matrix entries must be finite")
        herm_defect = np.max(np.abs(m - m.conj().T))
        if herm_defect > _HERMITICITY_TOL:
            raise InvalidStateError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(m.trace() - 1.0)
        if trace_defect > _TRACE_TOL:
            raise InvalidStateError(f"trace differs from one by {trace_defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def assert_positive(self) -> None:
        _assert_positive(self.min_eigenvalue())


def _assert_positive(lowest: float) -> None:
    """The positivity rule for a state: a lowest eigenvalue below -1e-10
    raises :class:`InvalidStateError`."""
    if lowest < -_POSITIVITY_TOL:
        raise InvalidStateError(
            f"matrix has eigenvalue {lowest:.3e} below -{_POSITIVITY_TOL:.1e}"
        )


def _unit_trace_alpha(vector) -> np.ndarray:
    """:func:`_as_alpha` of a vector whose trace component is 1 within
    1e-12, as a unit-trace state's is; any other raises
    :class:`InvalidStateError`."""
    alpha = _as_alpha(vector)
    if abs(alpha[0] - 1.0) > _TRACE_TOL:
        raise InvalidStateError(
            f"alpha[0] must be 1 for a unit-trace state, got {float(alpha[0])!r}"
        )
    return alpha


def _checked_state(vector) -> np.ndarray:
    """The one input rule for a state given by its Pauli vector: the
    components of :func:`_unit_trace_alpha`, whose density matrix passes
    the positivity rule of :func:`wootters_concurrence`, a lowest eigenvalue
    of at least -1e-10; any other vector raises :class:`InvalidStateError`."""
    alpha = _unit_trace_alpha(vector)
    _assert_positive(float(_lowest_eigenvalues(alpha)))
    return alpha


def _alpha_to_rho(alphas: np.ndarray) -> np.ndarray:
    """``rho = (1/4) sum_k alpha_k P_k`` of one Pauli vector, or of each
    vector of a ``(..., 16)`` stack; no check is made."""
    products = alphas @ PAULI_PRODUCTS.reshape(16, 16)
    return products.reshape(alphas.shape[:-1] + (4, 4)) / 4.0


def _rho_to_alpha(matrices: np.ndarray) -> np.ndarray:
    """Complex ``alpha_k = Tr[rho P_k]`` of one 4x4 matrix, or of each
    matrix of a ``(..., 4, 4)`` stack; no check is made."""
    return np.einsum("kab,...ba->...k", PAULI_PRODUCTS, matrices)


def _as_density(rho) -> TwoQubitDensityMatrix:
    if isinstance(rho, TwoQubitDensityMatrix):
        return rho
    return TwoQubitDensityMatrix(rho)


def density_to_bloch(rho) -> PauliVector:
    """Project a density matrix onto the Pauli-product basis.

    Parameters
    ----------
    rho : TwoQubitDensityMatrix or (4, 4) array_like
        A valid density matrix (Hermitian, unit trace, positive up to
        numerical slack 1e-10).

    Returns
    -------
    PauliVector
        Real coefficients ``alpha_ij = Tr[rho (sigma_i (x) sigma_j)]``.

    Raises
    ------
    InvalidStateError
        If the input violates its invariants, or a projected component
        carries an imaginary part above 1e-10 (symptom of a corrupted
        input rather than roundoff).
    """
    dm = _as_density(rho)
    dm.assert_positive()
    alpha_c = _rho_to_alpha(dm.matrix)
    worst = float(np.max(np.abs(alpha_c.imag)))
    if worst > _IMAG_COMPONENT_TOL:
        raise InvalidStateError(
            f"Pauli components have imaginary residue {worst:.3e} (tolerance 1e-10)"
        )
    return PauliVector(alpha_c.real)


def bloch_to_density(vector) -> TwoQubitDensityMatrix:
    """Reassemble ``rho = (1/4) sum_ij alpha_ij sigma_i (x) sigma_j``.

    The identity component must be exactly the trace: ``alpha[0] == 1``
    (within 1e-12).  Positivity is deliberately *not* checked — truncated
    expansions (analytic long-time states, single spectral modes) are
    allowed to leave the physical set.
    """
    return TwoQubitDensityMatrix(_alpha_to_rho(_unit_trace_alpha(vector)))


def correlation_scalar(vector) -> float:
    """Sum of the three diagonal correlators, ``<xx> + <yy> + <zz>``.

    This single number controls the long-time entanglement dynamics; it
    lies in [-3, 1] for valid states (-3 for the singlet, +1 for the
    triplet Bell state and for the maximally mixed state it vanishes).
    Invariant under identical local rotations on both qubits.
    """
    alpha = _as_alpha(vector)
    return float(alpha[flat_index(1, 1)] + alpha[flat_index(2, 2)] + alpha[flat_index(3, 3)])


def wootters_concurrence(rho) -> float:
    """Concurrence of a two-qubit density matrix.

    Uses the spin-flip construction: with ``rho_tilde = (sy (x) sy)
    conj(rho) (sy (x) sy)``, the concurrence is ``max(0, sqrt(mu_1) -
    sqrt(mu_2) - sqrt(mu_3) - sqrt(mu_4))`` where ``mu_k`` are the
    eigenvalues of ``rho @ rho_tilde`` in decreasing order.  See
    https://en.wikipedia.org/wiki/Concurrence_(quantum_computing).

    The value is taken by the routes trajectories take: a state whose
    Pauli components odd under conjugation by ``sigma_x (x) sigma_x`` are
    round-off is an X-state in the ``sigma_x`` basis, read in closed form
    from its even components (Yu & Eberly, QIC 7, 459, 2007), with no
    spectrum on the way; any other by an eigensolve of ``rho rho_tilde`` of
    the matrix as given, then the square roots.

    The input must be a density matrix (Hermitian, unit trace, positive
    within 1e-10), or it raises :class:`InvalidStateError`.  Spin-flip
    eigenvalues down to -1e-7, and imaginary parts up to 1e-7, are dust and
    clamped to zero before the square roots; anything worse, on a matrix
    that has passed that check, is a numerical failure and raises
    :class:`~spinbath.errors.NumericalFailureError`.
    """
    dm = _as_density(rho)
    dm.assert_positive()
    return float(np.clip(_signed_concurrence(_rho_to_alpha(dm.matrix).real, dm.matrix), 0.0, 1.0))


def _lowest_eigenvalues(alphas: np.ndarray):
    """Lowest eigenvalue of the density matrix of one Pauli vector, or of
    each vector of a ``(..., 16)`` stack, each divided by its trace
    component; no check is made."""
    return np.linalg.eigvalsh(_alpha_to_rho(alphas / alphas[..., :1]))[..., 0]


def _spin_flip(matrix: np.ndarray) -> np.ndarray:
    """Wootters' spin flip ``(sy (x) sy) conj(rho) (sy (x) sy)`` of a 4x4
    array, or of each matrix of a ``(..., 4, 4)`` stack.

    With ``sy (x) sy`` anti-diagonal, the two products reduce to reversing
    both indices of ``conj(rho)`` and multiplying entry ``(a, b)`` by
    ``s_a s_b``.  The values are those of the matrix products; only the
    sign of a zero entry may differ.
    """
    return matrix.conj()[..., ::-1, ::-1] * _FLIP_SIGNS


def _is_x_even(alphas: np.ndarray) -> bool:
    """Whether every Pauli vector of a ``(..., 16)`` stack lies in the
    sector even under conjugation by ``sigma_x (x) sigma_x``: each of its
    eight odd components is within round-off, 1e-12 of its trace
    component."""
    alphas = np.asarray(alphas)
    return bool((np.abs(alphas[..., _X_ODD]) <= _X_ODD_RTOL * np.abs(alphas[..., :1])).all())


def _signed_concurrence(alphas: np.ndarray, matrices=None, even: bool = False):
    """Unclamped spin-flip root difference; negative for separable states.

    Useful for root-finding on the entanglement boundary, where the
    clamped concurrence is identically zero on one side.  ``alphas`` is
    one Pauli vector, giving a float, or a ``(..., 16)`` stack, giving an
    array of the stack's shape; each value is scaled by its vector's trace
    component, and no other check is made on it: the callers pass states
    that have passed an input check, or samples propagated from one.  A
    stack whose vectors all lie in the ``sigma_x (x) sigma_x`` even sector,
    by :func:`_is_x_even` or, where ``even`` is true, by its caller's
    structural rule, takes the closed form of
    :func:`_x_even_signed_concurrence`; any other eigensolves its spectra
    (:func:`_spin_flip_spectrum`) from its ``matrices``, the density
    matrices the vectors came from, or where none are given from the
    matrices rebuilt from the vectors, and takes their roots by the one
    dust rule of :func:`_spin_flip_roots`, whose refusal is a
    :class:`~spinbath.errors.NumericalFailureError`, and the one
    combination, :func:`_signed_from_roots`.
    """
    alphas = np.asarray(alphas)
    shape = alphas.shape[:-1]
    if even or _is_x_even(alphas):
        return _x_even_signed_concurrence(alphas, shape)
    unit = alphas / alphas[..., :1]
    mu = _spin_flip_spectrum(_alpha_to_rho(unit) if matrices is None else matrices)
    return _signed_from_roots(_spin_flip_roots(mu, shape), shape)


def _spin_flip_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``rho rho_tilde`` of a 4x4 array, or of each matrix
    of a ``(..., 4, 4)`` stack, one row of four per matrix of the
    flattened stack; no check is made on it."""
    return np.linalg.eigvals(matrix @ _spin_flip(matrix)).reshape(-1, 4)


def _x_even_parts(a: np.ndarray) -> tuple:
    """Sixteen times the population products ``r11 r44`` and ``r22 r33``,
    and four times the coherence moduli ``|r14|`` and ``|r23|``, of each
    row of an ``(n, 16)`` stack of even Pauli vectors, in the ``sigma_x``
    eigenbasis, where each is an X-state; a row whose trace component is
    ``alpha_0`` gives them times ``alpha_0**2`` and ``|alpha_0|``.  Its
    odd components are not read."""
    ii, ix, xi, xx = a[:, 0], a[:, 1], a[:, 4], a[:, 5]
    yy, yz, zy, zz = a[:, 10], a[:, 11], a[:, 14], a[:, 15]
    plus, minus = ii + ix, ii - ix
    p14 = (plus + xi + xx) * (minus - xi + xx)
    p23 = (minus + xi - xx) * (plus - xi - xx)
    return p14, p23, np.hypot(zz - yy, zy + yz), np.hypot(zz + yy, yz - zy)


def _x_even_signed_concurrence(alphas: np.ndarray, shape: tuple):
    """The signed concurrence of states in the ``sigma_x (x) sigma_x`` even
    sector, from their eight even Pauli components, as
    :func:`_signed_concurrence` returns it for batch shape ``shape``.

    With the :func:`_x_even_parts` ``p14, p23, c14, c23`` of a sample and
    ``A = sqrt(p14)``, ``B = sqrt(p23)``, its spin-flip roots are ``|A +-
    c14| / 4`` and ``|B +- c23| / 4`` (Wootters, PRL 80, 2245, 1998), so the
    largest minus the other three is ``max(min(A, c14) - max(B, c23),
    min(B, c23) - max(A, c14)) / 2``, divided here by the trace component.
    For a state that is Yu and Eberly's ``2 max(|r14| - sqrt(r22 r33),
    |r23| - sqrt(r11 r44))`` (QIC 7, 459, 2007), with no root set, sort or
    spectrum.  Only a dusty sample, one with a negative population product,
    takes its roots in complex (:func:`_x_even_spin_flip_roots`), whose
    squares, which carry the imaginary residue an eigensolve leaves, go
    through the one dust rule of :func:`_spin_flip_roots` and then
    :func:`_signed_from_roots`.  The switch is made sample by sample, so a
    batch gives its samples' single values bit for bit, and a refusal names
    the sample in the flattened batch.
    """
    a = alphas.reshape(-1, 16)
    p14, p23, c14, c23 = _x_even_parts(a)
    dusty = None
    if min(p14.min(initial=0.0), p23.min(initial=0.0)) < 0.0:
        dusty = np.flatnonzero((p14 < 0.0) | (p23 < 0.0))
        p14[dusty] = p23[dusty] = 0.0
    root14, root23 = np.sqrt(p14), np.sqrt(p23)
    signed = np.maximum(
        np.minimum(root14, c14) - np.maximum(root23, c23),
        np.minimum(root23, c23) - np.maximum(root14, c14),
    )
    signed /= 2.0 * a[:, 0]
    if dusty is not None:
        rows = a[dusty]
        mu = np.square(_x_even_spin_flip_roots(rows / rows[:, :1]))
        signed[dusty] = _signed_from_roots(_spin_flip_roots(mu, shape, dusty), dusty.shape)
    return float(signed[0]) if shape == () else signed.reshape(shape)


def _x_even_spin_flip_roots(alphas: np.ndarray) -> np.ndarray:
    """Complex square roots of the :func:`_spin_flip_spectrum` of states in
    the ``sigma_x (x) sigma_x`` even sector, ``(sqrt(p14) +- c14) / 4`` and
    ``(sqrt(p23) +- c23) / 4`` from their :func:`_x_even_parts`, with no
    eigensolve; one row of four per row of the ``(n, 16)`` stack
    ``alphas``, each with unit trace component, unsorted.  Squared, they are
    the spectrum; a negative population product makes them complex."""
    p14, p23, c14, c23 = _x_even_parts(alphas)
    root14, root23 = np.sqrt(p14.astype(complex)), np.sqrt(p23.astype(complex))
    roots = np.stack([root14 + c14, root14 - c14, root23 + c23, root23 - c23], axis=1)
    roots /= 4.0
    return roots


def _spin_flip_roots(mu: np.ndarray, shape: tuple, samples=None) -> np.ndarray:
    """Square roots of spin-flip spectra ``mu``, one row of four per
    sample of batch shape ``shape`` (``()`` for one sample), in the order
    given; where ``mu`` holds only some samples of the batch, ``samples``
    gives their positions in the flattened batch.

    The one dust rule: a spin-flip eigenvalue below ``-1e-7``, or an
    imaginary part above ``1e-7``, raises
    :class:`~spinbath.errors.NumericalFailureError`, since every path here
    starts from a state that has passed its input check; on a stack the
    error names the first offending sample, counted over the flattened
    stack.  Smaller dust is clamped to zero before the roots.
    A real ``mu`` has no imaginary part to check.
    """
    imag = np.abs(mu.imag).max(axis=1) if np.iscomplexobj(mu) else None
    real = mu.real
    lowest = real.min(axis=1)
    worst = -lowest if imag is None else np.maximum(imag, -lowest)
    bad = np.flatnonzero(worst > _SPIN_FLIP_DUST_TOL)
    if bad.size:
        k = bad[0]
        if imag is not None and imag[k] > _SPIN_FLIP_DUST_TOL:
            problem = f"imaginary residue {imag[k]:.3e}"
        else:
            problem = f"eigenvalue {lowest[k]:.3e} below -{_SPIN_FLIP_DUST_TOL:.1e}"
        where = "" if shape == () else f" at sample {k if samples is None else samples[k]}"
        raise NumericalFailureError(f"spin-flip spectrum has {problem}{where}")
    roots = np.clip(real, 0.0, None)
    return np.sqrt(roots, out=roots)


def _signed_from_roots(roots: np.ndarray, shape: tuple):
    """The signed concurrence ``r_4 - r_3 - r_2 - r_1`` of spin-flip roots
    sorted ascending, one row of four per sample of batch shape ``shape``
    (``()`` for one sample, giving a float); the one combination of every
    root set, the eigensolve's and the dusty even samples'."""
    roots = np.sort(roots, axis=1)
    signed = roots[:, 3] - roots[:, 2] - roots[:, 1] - roots[:, 0]
    return float(signed[0]) if shape == () else signed.reshape(shape)


# ---------------------------------------------------------------------------
# Common states
# ---------------------------------------------------------------------------


def maximally_mixed() -> PauliVector:
    """The identity state, ``rho = I/4``."""
    return PauliVector.from_components({(0, 0): 1.0})


def bell_singlet() -> PauliVector:
    """``(|01> - |10>)/sqrt(2)``; correlation scalar -3."""
    return PauliVector.from_components(
        {(0, 0): 1.0, (1, 1): -1.0, (2, 2): -1.0, (3, 3): -1.0}
    )


def bell_triplet() -> PauliVector:
    """``(|01> + |10>)/sqrt(2)``; correlation scalar +1."""
    return PauliVector.from_components(
        {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (3, 3): -1.0}
    )


def z_up_down() -> PauliVector:
    """Product state up/down along z; correlation scalar -1."""
    return PauliVector.from_components(
        {(0, 0): 1.0, (3, 0): 1.0, (0, 3): -1.0, (3, 3): -1.0}
    )


def x_up_down() -> PauliVector:
    """Product state up/down along x; correlation scalar -1."""
    return PauliVector.from_components(
        {(0, 0): 1.0, (1, 0): 1.0, (0, 1): -1.0, (1, 1): -1.0}
    )


def x_up_up() -> PauliVector:
    """Both spins along +x (the ground state of a -x field)."""
    return PauliVector.from_components(
        {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}
    )


def werner(p: float) -> PauliVector:
    """Singlet fraction ``p`` mixed with identity: ``p |S><S| + (1-p) I/4``."""
    if not -1.0 / 3.0 <= p <= 1.0:
        raise InvalidStateError(f"Werner weight must lie in [-1/3, 1], got {p}")
    return PauliVector.from_components(
        {(0, 0): 1.0, (1, 1): -p, (2, 2): -p, (3, 3): -p}
    )


def state_for_correlation(lambda_corr: float) -> PauliVector:
    """A canonical valid state with the requested correlation scalar.

    Werner-type mixtures are used: singlet-weighted for
    ``lambda_corr <= 0``, triplet-weighted for ``lambda_corr > 0``.
    """
    if not -3.0 <= lambda_corr <= 1.0:
        raise InvalidStateError(
            f"correlation scalar must lie in [-3, 1], got {lambda_corr}"
        )
    if lambda_corr <= 0:
        return werner(-lambda_corr / 3.0)
    w = lambda_corr
    return PauliVector.from_components(
        {(0, 0): 1.0, (1, 1): w, (2, 2): w, (3, 3): -w}
    )
