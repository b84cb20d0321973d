"""Equation of motion for the 16-component Pauli vector.

The master equation (coherent part plus a secular dissipator built from
the ``(sigma_z -+ i sigma_y)/2`` eigenoperators of the transverse field)
is linear, so in the Pauli-product basis it reads ``d alpha/dt = L alpha``
with a real 16x16 generator ``L``.  ``L`` is linear in eight numbers: the
splitting, the two Lamb strengths, the exchange and the four golden-rule
rates.  So each of those terms is built once at import, at unit strength:
column k of a coherent term is the Pauli projection of ``-i[H, B_k]`` for
the k-th basis operator ``B_k = sigma_i (x) sigma_j / 4``, and column k
of a rate term that of the rate's two dissipator images of ``B_k``.  Each
term passes a Hermiticity and a trace-preservation gate there, and
:func:`build_generator` takes the product of the eight strengths with
these unit-term matrices.  Every unit-term entry is a multiple of 1/2 of
magnitude at most 2, and no entry of ``L`` sums more than two non-zero
terms, so each lies within one ulp of the exact sum and the sectors even
and odd under ``sigma_x (x) sigma_x`` decouple exactly, as
:attr:`GeneratorMatrix.keeps_x_parity` reads.

For a strictly positive correlation deficit the spectrum splits into

* one zero mode — the thermal (Gibbs) product state,
* one slow real mode, rate ``~ (1 + 3N) * delta * gamma0``, which carries
  all long-lived entanglement,
* one weakly damped conjugate pair oscillating at the qubit splitting,
* twelve fast modes decaying at rates of order ``gamma0 / R``.

Each generator is eigensolved once, on first read of
:attr:`GeneratorMatrix.spectrum`: one cached :class:`SpectrumReport` holds
the bi-orthonormal left/right eigensystem, the condition number of each
column and a certificate bounding the condition number of the basis, with
the modes in the order above where the split is unique and no mode grows.
Where ``eig``'s basis fails the certificate, each near-defective pair of
modes (two eigenvectors parallel to each other and to no third) is kept as
a real orthonormal basis of its invariant subspace and the 2x2 block of
``L`` on it, so that a mode sum takes it exactly: at zero temperature
such a pair is the rule, and at the common bath LAPACK may return the
doubled zero mode as one.  Reading the record never
raises.  :func:`classify_spectrum` returns that record when it is labelled
and raises the reason when it is not.  Whether the basis is sound enough
to sum is decided in one place, :func:`mode_coefficients`, the first step
of every mode sum: it sums either kind of record whose certificate is at
most 1e4 and raises :class:`DefectiveSpectrumError` above, where a cluster
of three or more near-defective modes remains, and it refuses a record
left unlabelled by a growing mode with that reason.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .bath import RateSet
from .errors import (
    DefectiveSpectrumError,
    DegenerateSpectrumError,
    NumericalFailureError,
)
from .states import (
    PAULI,
    PAULI_PRODUCTS,
    PauliVector,
    _X_ODD,
    _as_alpha,
    _rho_to_alpha,
    flat_index,
)

__all__ = [
    "ModelParams",
    "GeneratorMatrix",
    "SpectrumReport",
    "build_generator",
    "hamiltonian_matrix",
    "classify_spectrum",
    "mode_coefficients",
    "analytic_slow_eigenpair",
    "first_order_slow_rate",
    "thermal_alpha",
    "slow_alpha_pattern",
    "oscillatory_alpha_pattern",
    "generator_to_json",
    "spectrum_to_json",
]

_I2 = np.eye(2, dtype=complex)
_SX, _SY, _SZ = PAULI[1], PAULI[2], PAULI[3]

#: total x-polarization sigma_x^(1) + sigma_x^(2)
_X_TOTAL = np.kron(_SX, _I2) + np.kron(_I2, _SX)
_ZZ_PLUS_YY = np.kron(_SZ, _SZ) + np.kron(_SY, _SY)
_HEISENBERG = np.kron(_SX, _SX) + _ZZ_PLUS_YY

#: the coherent strengths, each with the Hamiltonian it scales, and the
#: rates, in the order of the rows of ``_TERM_MATRICES``; a cross rate
#: weights both of its cross-qubit images, which only together preserve
#: Hermiticity
_COHERENT_TERMS = (
    ("delta_field", -0.5 * _X_TOTAL),
    ("lamb_a", _X_TOTAL),
    ("lamb_b", _ZZ_PLUS_YY),
    ("exchange_xi", _HEISENBERG),
)
_RATE_TERMS = ("gamma11_plus", "gamma12_plus", "gamma11_minus", "gamma12_minus")

# Eigenoperators of the field term for each qubit: lowering at +Delta,
# raising at -Delta (in the x eigenbasis of the local field).
_LOWER = 0.5 * (_SZ - 1j * _SY)
_RAISE = 0.5 * (_SZ + 1j * _SY)
_OPS_PLUS = (np.kron(_LOWER, _I2), np.kron(_I2, _LOWER))
_OPS_MINUS = (np.kron(_RAISE, _I2), np.kron(_I2, _RAISE))

#: the generator entries coupling a component even under conjugation by
#: sigma_x (x) sigma_x to an odd one
_X_CROSS = np.not_equal.outer(_X_ODD, _X_ODD)


@dataclass(frozen=True)
class ModelParams:
    """Coherent-sector parameters.

    ``delta_field`` is the transverse splitting; ``lamb_a``/``lamb_b`` are
    the strengths of the bath-induced single-qubit and two-qubit
    Hamiltonian corrections, ``exchange_xi`` the isotropic exchange

        H = -(delta_field/2) (sx1 + sx2)
            + lamb_a (sx1 + sx2) + lamb_b (sz1 sz2 + sy1 sy2)
            + exchange_xi (sx1 sx2 + sy1 sy2 + sz1 sz2).

    A zero strength means the term is absent.  Every field must be finite.
    """

    delta_field: float
    lamb_a: float = 0.0
    lamb_b: float = 0.0
    exchange_xi: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.delta_field <= 0:
            raise ValueError(f"delta_field must be positive, got {self.delta_field}")


@dataclass(frozen=True)
class GeneratorMatrix:
    """Real 16x16 generator with its construction context attached; an
    entry that is not finite raises ``ValueError``."""

    entries: np.ndarray
    params: ModelParams
    rates: RateSet

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (16, 16):
            raise ValueError(f"generator must be 16x16, got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("generator entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def apply(self, alpha) -> np.ndarray:
        return self.entries @ _as_alpha(alpha)

    @cached_property
    def keeps_x_parity(self) -> bool:
        """Whether the generator keeps the sectors even and odd under
        conjugation by ``sigma_x (x) sigma_x``: every entry coupling them is
        exactly zero, as in every generator :func:`build_generator` makes."""
        return not self.entries[_X_CROSS].any()

    @cached_property
    def spectrum(self) -> SpectrumReport:
        """The eigensystem record, eigensolved on first read and kept (the
        entries are read-only); labelled where the spectrum allows, with its
        conditioning either way.  Never raises: a mode sum judges the
        eigenbasis (:func:`mode_coefficients`)."""
        return _spectrum_record(self)


def hamiltonian_matrix(params: ModelParams) -> np.ndarray:
    """4x4 Hamiltonian for the coherent part of the evolution; a term with
    zero strength is left out."""
    ham = np.zeros((4, 4), dtype=complex)
    for name, term in _COHERENT_TERMS:
        strength = getattr(params, name)
        if strength:
            ham = ham + strength * term
    return ham


#: the Pauli-product basis operators ``sigma_i (x) sigma_j / 4``
_BASIS_OPERATORS = PAULI_PRODUCTS / 4.0


def _coherent_term(ham: np.ndarray) -> np.ndarray:
    """Complex 16x16 Pauli-basis matrix of ``-i[ham, .]`` for a 4x4
    Hamiltonian: column k is the Pauli projection of ``-i[ham, B_k]`` for
    the k-th basis operator ``B_k``."""
    return _rho_to_alpha(-1j * (ham @ _BASIS_OPERATORS - _BASIS_OPERATORS @ ham)).T


def _dissipator_images(ops) -> np.ndarray:
    """Images ``A_m B A_n^+ - {A_n^+ A_m, B}/2`` of the basis operators
    ``B`` under the four dissipator terms of one pair of jump operators
    ``ops``, stacked in the order (n, m) = (0, 0), (0, 1), (1, 0), (1, 1)."""
    images = []
    for a_n in ops:
        a_n_dag = a_n.conj().T
        for a_m in ops:
            overlap = a_n_dag @ a_m
            images.append(
                a_m @ _BASIS_OPERATORS @ a_n_dag
                - 0.5 * (overlap @ _BASIS_OPERATORS + _BASIS_OPERATORS @ overlap)
            )
    return np.stack(images)


def _gated(projected: np.ndarray) -> np.ndarray:
    """The real matrix of a projected term, with its first row zeroed.

    Two consistency gates, both at 1e-10 of the term's largest |entry|,
    raise :class:`NumericalFailureError`: an imaginary residue in a column
    (the superoperator does not preserve Hermiticity, for instance for a
    non-Hermitian Hamiltonian) and a non-zero first row (trace preservation
    makes it vanish identically; it is zeroed exactly once checked).
    """
    tol = 1e-10 * float(np.max(np.abs(projected)))
    residues = np.max(np.abs(projected.imag), axis=0)
    bad = np.flatnonzero(residues > tol)
    if bad.size:
        col = int(bad[0])
        raise NumericalFailureError(
            f"generator column {col} has imaginary residue {residues[col]:.3e}"
        )
    entries = projected.real.copy()
    top = float(np.max(np.abs(entries[0])))
    if top > tol:
        raise NumericalFailureError(f"trace-preservation defect {top:.3e} in generator")
    entries[0] = 0.0
    return entries


_coherent_strengths = operator.attrgetter(*(name for name, _ in _COHERENT_TERMS))
_rate_strengths = operator.attrgetter(*_RATE_TERMS)


def _term_matrices() -> np.ndarray:
    """The generator of each term at unit strength, flattened row-major into
    the rows of an ``(8, 256)`` array, each through both gates of
    :func:`_gated`.  A coherent term is the projection of its commutator
    (:func:`_coherent_term`).  A rate term is the projection of that rate's
    two dissipator images: the n = m pair for a same-qubit rate, the n != m
    pair for a cross rate.  Every entry is a multiple of 1/2 of magnitude at
    most 2, exact in binary."""
    projected = [_coherent_term(ham) for _, ham in _COHERENT_TERMS]
    for ops in (_OPS_PLUS, _OPS_MINUS):
        same_0, cross_01, cross_10, same_1 = _dissipator_images(ops)
        projected += [_rho_to_alpha(same_0 + same_1).T, _rho_to_alpha(cross_01 + cross_10).T]
    terms = np.stack([_gated(term) for term in projected]).reshape(8, 256)
    terms.setflags(write=False)
    return terms


_TERM_MATRICES = _term_matrices()


def build_generator(params: ModelParams, rates: RateSet) -> GeneratorMatrix:
    """Assemble the Pauli-vector generator ``L``.

    The master equation is linear in the four coherent strengths and the
    four rates, so ``L`` is their product with the eight unit-term matrices
    of :func:`_term_matrices`, built and gated once at import.  Each entry
    of ``L`` sums at most two non-zero terms, so it lies within one ulp of
    the exact sum.  An entry that overflows to inf or NaN fails the
    finiteness check of :class:`GeneratorMatrix`, which is re-raised as
    :class:`NumericalFailureError`, and overflow warns nothing on the way.
    """
    strengths = np.array(_coherent_strengths(params) + _rate_strengths(rates))
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (strengths @ _TERM_MATRICES).reshape(16, 16)
    try:
        return GeneratorMatrix(entries, params, rates)
    except ValueError:
        raise NumericalFailureError(
            "generator has non-finite entries: a coherent strength or rate "
            "overflows double precision"
        ) from None


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


#: the labelled mode order, by position: thermal, slow, the oscillatory
#: pair (positive imaginary part first), then twelve fast modes by
#: decreasing real part
_MODE_LABELS = ("thermal", "slow", "oscillatory", "oscillatory") + ("fast",) * 12


@dataclass(frozen=True)
class SpectrumReport:
    """Eigensystem record of a generator, from one eigensolve.

    ``right[:, k]`` is the k-th right eigenvector and ``left[k]`` the
    matching left eigenvector, normalized so that
    ``vdot(left[k], right[:, l]) = delta_kl``.  A labelled record
    (``reason`` is ``None``) orders its modes as ``labels`` reads, by
    position, and scales each eigenvector as :func:`classify_spectrum`
    describes.  A spectrum without a unique label for each mode keeps
    ``eig``'s order and scaling with no ``fast_violations``; ``reason``
    then holds the message and the candidate eigenvalues, ``labels`` is
    ``None``, and reading a labelled index raises
    :class:`DegenerateSpectrumError`.

    Conditioning, which :func:`mode_coefficients` gates before any mode
    sum, is read from ``U``, the columns of ``right`` scaled to unit length.
    It is kept two ways:

    * ``kappa[k] = |left[k]| |right[:, k]|``, the condition number of
      column k; it does not depend on how the columns are scaled.
    * ``cond_bound``, the certificate ``|U|_F |U^-1|_F = 4 |kappa|_2``: the
      16 columns of ``U`` have unit norm and row k of ``U^-1`` has norm
      ``kappa[k]``, so it needs no second inverse, and it bounds the 2-norm
      condition number of ``U`` (Golub & Van Loan, *Matrix Computations*,
      sections 2.3 and 7.2).

    Where ``eig``'s basis fails the certificate, each pair of its vectors
    parallel to each other and to no third is a near-defective pair, which
    the record keeps as its invariant subspace instead (Moler & Van Loan,
    *SIAM Rev.* 45, 3, 2003).  Each entry ``(pair, B)`` of ``blocks``
    names such a pair by its two column indices, in an integer array:
    ``right[:, pair]`` then holds ``Q``, a real orthonormal basis of the
    subspace, in place of the two eigenvectors (so :func:`spectrum_to_json`
    and ``spectrum --format json`` print ``Q`` for them), ``left[pair]``
    holds the matching rows ``W`` of the inverse, and ``B = Q^T L Q`` is the
    real 2x2 block of ``L`` on it (``L Q = Q B``), whose eigenvalues are the
    pair's.  ``eigenvalues`` stay ``eig``'s, and ``left``, ``kappa`` and
    ``cond_bound`` are those of the blocked basis.  A record whose basis
    passes the certificate has no blocks.

    ``keeps_x_parity`` is the generator's
    :attr:`GeneratorMatrix.keeps_x_parity`, kept for the mode sums, which
    receive only the record.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    gamma0: float
    delta: float
    fast_violations: tuple
    kappa: np.ndarray
    cond_bound: float
    keeps_x_parity: bool
    reason: Optional[tuple] = None
    blocks: tuple = ()

    def __post_init__(self):
        for name in ("eigenvalues", "right", "left"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        self.kappa.setflags(write=False)

    @property
    def labels(self) -> Optional[tuple]:
        """The label of each mode, or ``None`` for an unlabelled record."""
        return _MODE_LABELS if self.reason is None else None

    def _labelled(self, positions=None):
        """``positions``, once the record is known to be labelled; an
        unlabelled record raises a new :class:`DegenerateSpectrumError`
        from its reason."""
        if self.reason is not None:
            raise DegenerateSpectrumError(*self.reason)
        return positions

    thermal_index = property(lambda self: self._labelled(0))
    slow_index = property(lambda self: self._labelled(1))
    oscillatory_indices = property(lambda self: self._labelled((2, 3)))
    fast_indices = property(lambda self: self._labelled(tuple(range(4, 16))))

    @property
    def slow_eigenvalue(self) -> float:
        return float(self.eigenvalues[self.slow_index].real)


#: largest certificate ``cond_bound`` of a record's basis for which a mode
#: sum runs, labelled or not; ``eig``'s basis above it has its near-defective
#: pairs blocked.  At R = 1 ``eig``'s basis has a certificate of ~16 / delta
#: from its pair near -2 gamma0, and its plain mode sum drifts from the
#: matrix exponential by 1.3e-12 at 5e4 (delta = 3e-4), 1.5e-11 at 5e5 and
#: up to 3e-9 beyond 1e7; blocked, the sum is within 2e-13 at every deficit.
#: Over 8,000 seeded valid-domain models every blocked basis whose modes do
#: not grow certifies: below 1.2e3 at coherent strengths up to 5, and below
#: 9e3 at strengths up to 1e18.
_MODE_SUM_MAX_COND = 1e4


def classify_spectrum(generator: GeneratorMatrix) -> SpectrumReport:
    """The generator's labelled spectrum record.

    Reads :attr:`GeneratorMatrix.spectrum`, so a generator is eigensolved
    once however often it is classified or propagated.  At ``delta = 0``
    and at its dual ``delta = 2`` the zero eigenvalue is exactly doubled,
    so no unique thermal mode exists: once no mode grows, labelling
    refuses both with the zero-mode refusal of every deficit, however far
    round-off at a huge coherent strength splits the pair.  An unlabelled
    record raises :class:`DegenerateSpectrumError` with its reason on every
    call.  The condition number is not judged here: a
    labelled record is returned at any ``cond_bound``, and only a mode sum
    (:func:`mode_coefficients`) refuses an ill-conditioned one.

    Eigenvectors are scaled as follows: the thermal one to a unit trace
    component, the slow one to a unit ``yy`` component (when that is not
    negligible), every other to unit norm with its largest component real
    and positive.
    """
    report = generator.spectrum
    report._labelled()
    return report


def _spectrum_record(generator: GeneratorMatrix) -> SpectrumReport:
    """Eigensolve the generator once and label its spectrum where possible.

    A spectrum that :func:`_label_order` refuses keeps ``eig``'s order and
    scaling, with the refusal as its ``reason``.  The column condition
    numbers and the certificate are recorded, not judged.  A basis that
    fails the certificate, in a record whose modes do not grow, has its
    near-defective pairs (:func:`_near_parallel_pairs`) replaced by their
    invariant subspaces (:func:`_invariant_pair`) and is conditioned again;
    a certified basis is kept as ``eig`` and the scaling leave it.
    """
    rates = generator.rates
    values, vectors = np.linalg.eig(generator.entries)
    # by the same BLAS dot products as ``np.linalg.norm`` of each column
    real, imag = vectors.real, vectors.imag
    vector_norms = np.sqrt(np.vecdot(real, real, axis=0) + np.vecdot(imag, imag, axis=0))
    right = vectors
    reason = None
    violations = ()
    try:
        order = _label_order(rates, values)
    except DegenerateSpectrumError as exc:
        reason = (str(exc), exc.candidates)
    else:
        values = values[order]
        vector_norms = vector_norms[order]
        right = vectors.take(order, axis=1)  # a C-order copy
        right[:, 0] /= right[0, 0]
        # the columns are still eig's, so their norms are eig's
        slow_anchor = right[flat_index(2, 2), 1]
        if abs(slow_anchor) > 1e-6 * vector_norms[1]:
            right[:, 1] /= slow_anchor
        # Unit norm, largest component real and positive.
        rest = right[:, 2:]
        leads = rest[np.argmax(np.abs(rest), axis=0), np.arange(14)]
        rest /= leads
        rest *= np.abs(leads)
        rest /= vector_norms[2:]
        bound = -0.5 * rates.gamma0 / rates.ratio + 1e-9 * rates.gamma0
        vals = values.tolist()
        violations = tuple((k, vals[k]) for k in range(4, 16) if vals[k].real > bound)

    left, kappa, cond_bound = _conditioning(right)
    blocks = []
    # a record with a growing mode is refused before any sum, so it is not blocked
    if not (cond_bound <= _MODE_SUM_MAX_COND or any(_grows(v, rates.gamma0) for v in values)):
        # ``right`` is eig's array or a copy of it, so it is ours to change
        for pair in _near_parallel_pairs(right):
            right[:, pair], block = _invariant_pair(generator.entries, values[pair])
            blocks.append((pair, block))
        left, kappa, cond_bound = _conditioning(right)
    return SpectrumReport(
        eigenvalues=values,
        right=right,
        left=left,
        gamma0=rates.gamma0,
        delta=rates.delta,
        fast_violations=violations,
        kappa=kappa,
        cond_bound=cond_bound,
        keeps_x_parity=generator.keeps_x_parity,
        reason=reason,
        blocks=tuple(blocks),
    )


def _conditioning(right: np.ndarray) -> tuple:
    """``left``, ``kappa`` and ``cond_bound`` of an eigenvector matrix
    ``right``, as :class:`SpectrumReport` defines them."""
    left = np.linalg.inv(right).conj()
    # A near-singular basis has a huge left, whose squares may overflow to
    # inf; that only fails the mode-sum gate.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.sqrt(np.vecdot(abs(right), abs(right), axis=0) * np.vecdot(abs(left), abs(left)))
        # |U|_F = 4 for 16 unit columns, and row k of U^-1 has norm kappa[k]
        cond_bound = 4.0 * math.sqrt(np.vecdot(kappa, kappa))
    return left, kappa, cond_bound


def _near_parallel_pairs(right: np.ndarray) -> list:
    """The index pairs ``[i, j]``, ``i < j``, of the columns of ``right``
    whose unit vectors are parallel to within ``1 - |u_i^H u_j| < 5e-7`` and
    parallel to no third column.  Such a pair is read from the vectors, not
    from ``kappa``: at an exactly defective input LAPACK may return two
    identical vectors, and then every ``kappa`` is infinite."""
    unit = right / np.linalg.norm(right, axis=0)
    near = np.abs(unit.conj().T @ unit) > 1.0 - 5e-7
    # each column of a pair is near itself and the other, so its two columns
    # hold four near entries exactly when neither has a third partner
    return [pair for pair in np.argwhere(np.triu(near, 1)) if near[:, pair].sum() == 4]


def _invariant_pair(entries: np.ndarray, pair: np.ndarray) -> tuple:
    """A real orthonormal basis ``Q`` (16 x 2) of the invariant subspace of
    the eigenvalue ``pair``, real or conjugate: the two smallest right
    singular vectors of ``(L - lambda_1)(L - lambda_2) = (L - mu)^2 - s^2``,
    with ``mu`` the pair's mean and ``s`` its half split, a real matrix
    whose null space is that subspace even where the pair is defective;
    and the real 2x2 block ``B = Q^T L Q`` of ``L`` on it.  The product is
    taken of ``L - mu`` scaled by a power of two to entries of order 1, a
    scaling exact in binary, so that it does not overflow at any finite
    ``L``."""
    scale = math.ldexp(1.0, math.frexp(np.abs(entries).max())[1])
    shifted = (entries - pair.mean().real * np.eye(16)) / scale
    product = shifted @ shifted - (0.25 * ((pair[0] - pair[1]) / scale) ** 2).real * np.eye(16)
    basis = np.linalg.svd(product)[2][-2:].T
    return basis, basis.T @ entries @ basis


#: the deficits whose spectra are exactly degenerate, and what they mean;
#: labelling refuses each, and deficits within ~1e-9 of it
_DEGENERATE_DEFICITS = (
    (0.0, "perfectly correlated baths"),
    (1.0, "independent baths"),
    (2.0, "perfectly anti-correlated baths, the common bath's dual under delta -> 2 - delta"),
)


def _deficit_note(delta: float) -> str:
    """`` at delta = ...``, with the meaning of a degenerate deficit within
    1e-6 of it."""
    for special, meaning in _DEGENERATE_DEFICITS:
        if abs(delta - special) <= 1e-6:
            return f" at delta = {delta!r} ({meaning})"
    return f" at delta = {delta!r}"


def _grows(value: complex, gamma0: float) -> bool:
    """Whether a mode grows: a real part above 1e-9 gamma0, which no
    Lindblad generator has, so that only eigensolver error gives one."""
    return value.real > 1e-9 * gamma0


def _label_order(rates: RateSet, values: np.ndarray) -> list:
    """Mode order thermal, slow, oscillatory pair, fast, as indices into
    the eigenvalues ``values`` returned by ``eig``.

    The modes are sorted once, by decreasing real part then decreasing
    imaginary part, and every label is drawn from that list: the thermal
    mode is the one zero eigenvalue, the slow mode the first real one, and
    the oscillatory pair the first eigenvalue with positive imaginary
    part and its successor in ``eig``'s order.  For a real matrix
    ``np.linalg.eig`` keeps LAPACK's ``dgeev`` order, in which each complex
    pair sits at adjacent indices ``(k, k + 1)``, exactly conjugate in
    value and eigenvector, positive imaginary part first; so an odd number
    of the fifteen other modes, at least one, is real.  A growing mode
    (:func:`_grows`), which no Lindblad generator has, and then a spectrum
    without a unique label for each mode raise
    :class:`DegenerateSpectrumError`, in that order at every deficit.
    """
    gamma0 = rates.gamma0
    tol = 1e-9 * gamma0
    vals = values.tolist()
    order = sorted(range(16), key=lambda k: (-vals[k].real, -vals[k].imag))

    growing = [k for k in order if _grows(vals[k], gamma0)]
    if growing:
        raise DegenerateSpectrumError(
            f"growing mode {vals[growing[0]]!r} (one of {len(growing)} with a real "
            f"part above {tol:.1e}): a dissipative generator has none, so the "
            "eigensolver cannot resolve this spectrum",
            candidates=values[growing],
        )

    # at delta = 0 and its dual 2 the zero eigenvalue is exactly doubled, so
    # its modes are the two slowest, however far round-off splits them
    exact_pair = rates.delta in (0.0, 2.0)
    zero_modes = order[:2] if exact_pair else [k for k in order if abs(vals[k]) < tol]
    if len(zero_modes) != 1:
        raise DegenerateSpectrumError(
            f"expected exactly one zero mode, found {len(zero_modes)}"
            + _deficit_note(rates.delta),
            candidates=values[zero_modes],
        )
    thermal = zero_modes[0]

    def first(candidates: list, name: str) -> int:
        if not candidates:
            raise DegenerateSpectrumError(f"no {name} candidate" + _deficit_note(rates.delta))
        if len(candidates) > 1:
            lead, runner = candidates[:2]
            if abs(vals[lead].real - vals[runner].real) < 1e-10 * gamma0:
                raise DegenerateSpectrumError(
                    f"two {name} candidates are degenerate" + _deficit_note(rates.delta),
                    candidates=(values[lead], values[runner]),
                )
        return candidates[0]

    slow = first([k for k in order if k != thermal and abs(vals[k].imag) < tol], "slow-mode")
    osc = first([k for k in order if vals[k].imag >= tol], "oscillatory-pair")

    labelled = (thermal, slow, osc, osc + 1)
    return list(labelled) + [k for k in order if k not in labelled]


def mode_coefficients(report: SpectrumReport, initial) -> np.ndarray:
    """Expansion amplitudes ``a_l = <left_l | alpha(0)>``, the first step of
    every mode sum.

    The reconstruction ``sum_l a_l right_l`` reproduces the input; the
    thermal amplitude is exactly the trace component of the input, so it
    equals one for any valid state.  A record labelled or not is expanded,
    with two exceptions.  A record left unlabelled because a mode grows
    raises its own :class:`DegenerateSpectrumError`: no Lindblad generator
    has such a mode, so its sum is no state.  And the basis, with any
    near-defective pair blocked, must be sound: its certificate
    ``cond_bound`` may not exceed 1e4, or :class:`DefectiveSpectrumError`
    names it.  A blocked pair's two amplitudes are ``W alpha(0)``, the
    coordinates of the input in the pair's subspace.
    """
    # a growing-mode refusal lists the growing modes as its candidates; no
    # other refusal's candidates grow, since labelling refuses growth first
    # at every deficit
    if report.reason is not None and any(_grows(c, report.gamma0) for c in report.reason[1]):
        raise DegenerateSpectrumError(*report.reason)
    if not report.cond_bound <= _MODE_SUM_MAX_COND:
        raise DefectiveSpectrumError(
            f"blocked basis has condition bound {report.cond_bound:.3e} above "
            f"{_MODE_SUM_MAX_COND:.0e}: a cluster of three or more near-defective modes"
        )
    return report.left.conj() @ _as_alpha(initial)


# ---------------------------------------------------------------------------
# Analytic patterns
# ---------------------------------------------------------------------------


def thermal_alpha(ratio: float) -> PauliVector:
    """Stationary (thermal product) state: polarization R along x."""
    return PauliVector.from_components(
        {(0, 0): 1.0, (0, 1): ratio, (1, 0): ratio, (1, 1): ratio * ratio}
    )


def slow_alpha_pattern(ratio: float) -> PauliVector:
    """Leading-order slow eigenvector, scaled to unit yy/zz components."""
    return PauliVector.from_components(
        {
            (0, 1): ratio,
            (1, 0): ratio,
            (1, 1): 1.0 + ratio * ratio,
            (2, 2): 1.0,
            (3, 3): 1.0,
        }
    )


def oscillatory_alpha_pattern() -> np.ndarray:
    """Limiting oscillatory eigenvector (complex), for the mode whose
    eigenvalue has negative imaginary part."""
    vec = np.zeros(16, dtype=complex)
    vec[flat_index(0, 2)] = 1j
    vec[flat_index(0, 3)] = 1.0
    vec[flat_index(1, 2)] = 1j
    vec[flat_index(1, 3)] = 1.0
    vec[flat_index(2, 0)] = -1j
    vec[flat_index(3, 0)] = -1.0
    vec[flat_index(2, 1)] = -1j
    vec[flat_index(3, 1)] = -1.0
    return vec


def first_order_slow_rate(occupation: float, delta: float, gamma0: float = 1.0) -> float:
    """Slow decay rate ``(1 + 3N) delta gamma0`` to first order in the deficit."""
    return (1.0 + 3.0 * occupation) * delta * gamma0


def analytic_slow_eigenpair(rates: RateSet) -> tuple[float, PauliVector]:
    """First-order slow eigenvalue and its limiting eigenvector.

    ``lambda_1 = -(1 + 3N) delta gamma0``, valid to first order in the
    correlation deficit and through second order in the occupation.
    Warns when the deficit is large enough (> 0.2) that the first-order
    form is only qualitative.
    """
    if rates.delta > 0.2:
        warnings.warn(
            f"first-order slow eigenvalue requested at deficit {rates.delta}; "
            "corrections are O(delta) and no longer small",
            stacklevel=2,
        )
    eigenvalue = -first_order_slow_rate(rates.occupation, rates.delta, rates.gamma0)
    return eigenvalue, slow_alpha_pattern(rates.ratio)


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def generator_to_json(generator: GeneratorMatrix) -> str:
    payload = {
        "entries_row_major": [float(x) for x in generator.entries.reshape(-1)],
        **asdict(generator.params),
        "gamma0": generator.rates.gamma0,
        "delta": generator.rates.delta,
        "occupation": generator.rates.occupation,
    }
    return json.dumps(payload, sort_keys=True)


def spectrum_to_json(report: SpectrumReport) -> str:
    """A labelled spectrum record as JSON; an unlabelled one raises its
    reason, a :class:`DegenerateSpectrumError`."""
    labels = report._labelled(report.labels)
    payload = {
        "gamma0": report.gamma0,
        "delta": report.delta,
        "modes": [
            {
                "index": k,
                "label": labels[k],
                "re": report.eigenvalues[k].real,
                "im": report.eigenvalues[k].imag,
                "right_re": [float(v) for v in report.right[:, k].real],
                "right_im": [float(v) for v in report.right[:, k].imag],
            }
            for k in range(16)
        ],
        "fast_violations": [
            {"index": k, "re": v.real, "im": v.imag}
            for k, v in report.fast_violations
        ],
    }
    return json.dumps(payload, sort_keys=True)
