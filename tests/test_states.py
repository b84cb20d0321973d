"""Pauli-component state representation and concurrence."""

import warnings

import numpy as np
import pytest

import oracles
from conftest import FOUR_STATES, make_generator, random_density_matrix
from spinbath import states
from spinbath.dynamics import default_time_grid, propagate_spectral
from spinbath.errors import InvalidStateError, NumericalFailureError
from spinbath.states import (
    PAULI,
    PAULI_PRODUCTS,
    PauliVector,
    TwoQubitDensityMatrix,
    _alpha_to_rho,
    _is_x_even,
    _rho_to_alpha,
    _signed_concurrence,
    _signed_from_roots,
    _spin_flip,
    _spin_flip_roots,
    _spin_flip_spectrum,
    _x_even_signed_concurrence,
    _x_even_spin_flip_roots,
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


def test_pauli_product_basis_is_orthogonal():
    """Tr[P_k P_l] = 4 delta_kl for all 16 products."""
    gram = np.einsum("kab,lba->kl", PAULI_PRODUCTS, PAULI_PRODUCTS)
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-14)


def test_pauli_matrices_are_the_standard_ones():
    assert np.array_equal(PAULI[0], np.eye(2))
    assert np.allclose(PAULI[1] @ PAULI[2] - PAULI[2] @ PAULI[1], 2j * PAULI[3])


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_flat_index_is_row_major(i, j):
    assert flat_index(i, j) == 4 * i + j
    assert np.array_equal(PAULI_PRODUCTS[flat_index(i, j)], np.kron(PAULI[i], PAULI[j]))


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_flat_index_refuses_indices_outside_0_to_3(i, j):
    """A Pauli index outside 0..3 is refused, not wrapped to another
    component (``-1`` would read ``sigma_z``) or left to a bare
    ``IndexError``."""
    with pytest.raises(ValueError, match=r"Pauli indices must lie in 0\.\.3"):
        flat_index(i, j)
    with pytest.raises(ValueError, match=r"Pauli indices must lie in 0\.\.3"):
        werner(0.5).component(i, j)
    with pytest.raises(ValueError, match=r"Pauli indices must lie in 0\.\.3"):
        PauliVector.from_components({(i, j): 0.5})


@pytest.mark.parametrize("i, j", [(1.5, 0), (0, 2.0), (np.float64(1.0), 1), ("1", 0)])
def test_flat_index_refuses_indices_that_are_not_integers(i, j):
    """A float index is refused even when integral, rather than giving a
    float position or a bare ``IndexError`` on read."""
    with pytest.raises(ValueError, match="Pauli indices must be integers"):
        flat_index(i, j)
    with pytest.raises(ValueError, match="Pauli indices must be integers"):
        werner(0.5).component(i, j)


def test_flat_index_accepts_numpy_integers():
    assert flat_index(np.int64(2), np.uint8(3)) == 11
    assert type(flat_index(np.int64(2), 3)) is int


class TestPauliVector:
    def test_from_components_places_entries(self):
        vec = PauliVector.from_components({(2, 3): -0.25, (0, 0): 1.0})
        assert vec.component(2, 3) == -0.25
        assert vec.alpha[0] == 1.0
        assert np.count_nonzero(vec.alpha) == 2

    def test_as_matrix_reshapes(self):
        vec = PauliVector(np.arange(16.0))
        assert vec.as_matrix()[3, 1] == 13.0

    def test_alpha_is_read_only(self):
        vec = maximally_mixed()
        with pytest.raises(ValueError):
            vec.alpha[3] = 2.0

    def test_accepts_4x4_layout(self):
        vec = PauliVector(np.eye(4))
        assert vec.component(1, 1) == 1.0

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidStateError):
            PauliVector(np.zeros(15))


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.1
        with pytest.raises(InvalidStateError, match="Hermitian"):
            TwoQubitDensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            TwoQubitDensityMatrix(np.eye(4) / 2.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidStateError, match=r"expected a 4x4 matrix, got shape \(3, 3\)"):
            TwoQubitDensityMatrix(np.eye(3))

    def test_min_eigenvalue_and_assert_positive(self):
        dm = TwoQubitDensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert dm.min_eigenvalue() == pytest.approx(0.0, abs=1e-15)
        dm.assert_positive()
        indefinite = TwoQubitDensityMatrix(np.diag([0.7, 0.4, -0.1, 0.0]))
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            indefinite.assert_positive()

    def test_bloch_to_density_skips_positivity(self):
        # single-mode patterns are legitimately indefinite
        vec = PauliVector.from_components({(0, 0): 1.0, (3, 3): -4.0})
        dm = bloch_to_density(vec)
        assert dm.min_eigenvalue() < -0.5

    def test_bloch_to_density_requires_unit_identity_component(self):
        vec = PauliVector.from_components({(0, 0): 0.5})
        with pytest.raises(InvalidStateError, match="alpha\\[0\\]"):
            bloch_to_density(vec)


def test_round_trip_on_random_states(rng):
    for _ in range(50):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        vec = density_to_bloch(rho)
        back = bloch_to_density(vec).matrix
        assert np.max(np.abs(back - rho)) < 1e-13
        # and against the independently constructed transfer matrix
        assert np.max(np.abs(vec.alpha - oracles.alpha_from_density(rho))) < 1e-12


def test_density_to_bloch_rejects_unphysical():
    with pytest.raises(InvalidStateError):
        density_to_bloch(np.diag([1.2, -0.2, 0.0, 0.0]))


NAMED_STATES = {
    "mixed": (maximally_mixed, 0.0, 0.0),
    "singlet": (bell_singlet, -3.0, 1.0),
    "triplet": (bell_triplet, 1.0, 1.0),
    "z_up_down": (z_up_down, -1.0, 0.0),
    "x_up_down": (x_up_down, -1.0, 0.0),
    "x_up_up": (x_up_up, 1.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(NAMED_STATES))
def test_named_states_are_valid_with_expected_invariants(name):
    factory, lam, conc = NAMED_STATES[name]
    vec = factory()
    dm = bloch_to_density(vec)
    dm.assert_positive()
    assert correlation_scalar(vec) == pytest.approx(lam, abs=1e-12)
    assert wootters_concurrence(dm) == pytest.approx(conc, abs=1e-9)


def test_bell_states_are_the_expected_kets():
    singlet = bloch_to_density(bell_singlet()).matrix
    ket = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(singlet - np.outer(ket, ket))) < 1e-14
    triplet = bloch_to_density(bell_triplet()).matrix
    ket = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(triplet - np.outer(ket, ket))) < 1e-14


def test_x_up_up_is_transverse_field_ground_state():
    rho = bloch_to_density(x_up_up()).matrix
    ham = oracles.hamiltonian(1.0)
    energies, vectors = np.linalg.eigh(ham)
    ground = vectors[:, 0]
    assert energies[0] == pytest.approx(-1.0)
    assert np.max(np.abs(rho - np.outer(ground, ground.conj()))) < 1e-14


class TestWerner:
    def test_boundaries(self):
        werner(1.0)
        werner(-1.0 / 3.0)
        with pytest.raises(InvalidStateError):
            werner(1.0 + 1e-9)
        with pytest.raises(InvalidStateError):
            werner(-0.34)

    def test_concurrence_threshold_at_half(self):
        """C(p) = max(0, (3p-1)/2) for singlet-weighted Werner states."""
        for p in (0.2, 1.0 / 3.0, 0.5, 0.8):
            rho = bloch_to_density(werner(p))
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)

    def test_positivity_across_range(self):
        for p in np.linspace(-1.0 / 3.0, 1.0, 15):
            bloch_to_density(werner(p)).assert_positive()


class TestStateForCorrelation:
    @pytest.mark.parametrize("lam", [-3.0, -1.7, -1.0, 0.0, 0.4, 1.0])
    def test_hits_requested_scalar_and_is_physical(self, lam):
        vec = state_for_correlation(lam)
        assert correlation_scalar(vec) == pytest.approx(lam, abs=1e-12)
        bloch_to_density(vec).assert_positive()

    def test_range_check(self):
        with pytest.raises(InvalidStateError):
            state_for_correlation(-3.01)
        with pytest.raises(InvalidStateError):
            state_for_correlation(1.01)


def test_concurrence_matches_sqrtm_oracle(rng):
    """Production (eigenvalues of rho rho~) vs square-root route on random states."""
    # tolerance is set by rank-deficient states, where both routes lose
    # ~sqrt(eps): a round-off eigenvalue of 1e-16 enters as its square root,
    # 1e-8 (each is ~2.5e-8 off the exact |<psi|yy|psi*>| on pure states)
    for _ in range(200):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        assert wootters_concurrence(rho) == pytest.approx(
            oracles.concurrence_sqrtm(rho), abs=5e-8
        )


def test_concurrence_invariant_under_local_unitaries(rng):
    """C(U1 (x) U2 rho ...) == C(rho); also checks Lambda under U (x) U."""
    from scipy.stats import unitary_group

    sampler = unitary_group(dim=2, seed=1234)
    for _ in range(20):
        rho = random_density_matrix(rng)
        u_local = np.kron(sampler.rvs(), sampler.rvs())
        rotated = u_local @ rho @ u_local.conj().T
        assert wootters_concurrence(rotated) == pytest.approx(
            wootters_concurrence(rho), abs=1e-9
        )
        u_same = sampler.rvs()
        both = np.kron(u_same, u_same)
        assert correlation_scalar(
            density_to_bloch(both @ rho @ both.conj().T)
        ) == pytest.approx(correlation_scalar(density_to_bloch(rho)), abs=1e-9)


def test_correlation_scalar_range_on_random_states(rng):
    for _ in range(100):
        lam = correlation_scalar(density_to_bloch(random_density_matrix(rng)))
        assert -3.0 - 1e-9 <= lam <= 1.0 + 1e-9


def test_concurrence_rejects_badly_indefinite_input():
    with pytest.raises(InvalidStateError):
        wootters_concurrence(np.diag([0.6, 0.5, -0.1, 0.0]))


@pytest.mark.parametrize(
    "matrix", [np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])], ids=["nan", "inf"]
)
@pytest.mark.parametrize("convert", [wootters_concurrence, density_to_bloch])
def test_non_finite_matrices_are_invalid_states(convert, matrix):
    """A matrix with a non-finite entry is refused as no state before any
    arithmetic on it, so numpy neither warns nor raises its own error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidStateError, match="entries must be finite"):
            convert(matrix)
    assert caught == []


def _random_stack(rng, n):
    return np.stack(
        [random_density_matrix(rng, rank=int(rng.integers(1, 5))) for _ in range(n)]
    )


def _eigensolved(matrices):
    """Signed concurrence of a 4x4 matrix, or of each of a stack, by the
    spin-flip eigensolve and the one dust rule, with no renormalization."""
    matrices = np.asarray(matrices)
    shape = matrices.shape[:-2]
    return _signed_from_roots(_spin_flip_roots(_spin_flip_spectrum(matrices), shape), shape)


def _unit_rho(alphas):
    """The density matrix of each row of ``alphas``, renormalized as the
    concurrence routine renormalizes it."""
    return _alpha_to_rho(alphas / alphas[:, :1])


def _even_stack(n):
    """``n`` density matrices of sigma_x (x) sigma_x even trajectory
    samples, transient to tail."""
    spectrum = make_generator(0.05, 0.9).spectrum
    traj = propagate_spectral(spectrum, x_up_down(), default_time_grid(1.0, 30.0, n - 1))
    return _unit_rho(traj.alphas)


def test_batched_concurrence_equals_single_calls(rng):
    """One pass of the routine over a stack of Pauli vectors, with the
    matrices they came from, gives the per-matrix values bit for bit, and
    clamped, the public concurrence of each matrix: random states take the
    eigensolve, even trajectory samples the closed form."""
    for stack, even in ((_random_stack(rng, 300), False), (_even_stack(300), True)):
        alphas = _rho_to_alpha(stack).real
        assert _is_x_even(alphas) == even
        signed = _signed_concurrence(alphas, stack)
        assert np.array_equal(signed, [_signed_concurrence(a, m) for a, m in zip(alphas, stack)])
        assert np.array_equal(np.clip(signed, 0.0, 1.0), [wootters_concurrence(m) for m in stack])


def test_batched_concurrence_shapes(rng):
    stack = _random_stack(rng, 6)
    alphas = _rho_to_alpha(stack).real
    single = _signed_concurrence(alphas[0], stack[0])
    assert isinstance(single, float)
    assert isinstance(_signed_concurrence(alphas[0]), float)
    assert isinstance(wootters_concurrence(stack[0]), float)
    assert _signed_concurrence(alphas).shape == (6,)
    assert _signed_concurrence(alphas[:1]).shape == (1,)
    assert _signed_concurrence(alphas.reshape(2, 3, 16)).shape == (2, 3)
    assert _signed_concurrence(alphas.reshape(2, 3, 16), stack.reshape(2, 3, 4, 4)).shape == (2, 3)
    assert _signed_concurrence(alphas, stack)[0] == single
    even = np.stack([werner(w).alpha for w in (0.9, 0.5, 0.3, 0.1, -0.2, 0.0)])
    assert _signed_concurrence(even.reshape(2, 3, 16)).shape == (2, 3)
    assert _eigensolved(stack).shape == (6,)
    assert _eigensolved(stack.reshape(2, 3, 4, 4)).shape == (2, 3)
    assert _eigensolved(stack)[0] == _eigensolved(stack[0])


@pytest.mark.parametrize("path", ["batched", "public"])
def test_batched_concurrence_names_the_bad_sample(rng, reference_spectrum, path):
    """diag(0.6, 0.5, -0.1, 0) has spin-flip eigenvalues (0, -0.05, -0.05, 0).

    The batched routine meets it as sample 3 of a stack, and refuses it as
    a numerical failure: every caller passes it states that have passed an
    input check.  No public path reaches the spin-flip gate with it: the
    public concurrence and a propagation alike refuse it as indefinite, by
    the one input rule, before any spin flip."""
    bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    message = r"spin-flip spectrum has eigenvalue -5\.000e-02 below -1\.0e-07"
    if path == "batched":
        stack = _random_stack(rng, 6)
        stack[3] = bad
        with pytest.raises(NumericalFailureError, match=message + " at sample 3$"):
            _signed_concurrence(_rho_to_alpha(stack).real)
        with pytest.raises(NumericalFailureError, match=message + "$"):
            _signed_concurrence(_rho_to_alpha(bad).real)
    else:
        refusal = r"^matrix has eigenvalue -1\.000e-01 below -1\.0e-10$"
        with pytest.raises(InvalidStateError, match=refusal):
            propagate_spectral(reference_spectrum, _rho_to_alpha(bad).real, [0.0])
        with pytest.raises(InvalidStateError, match=refusal):
            wootters_concurrence(bad)


# ---------------------------------------------------------------------------
# Spin flip by index reversal
# ---------------------------------------------------------------------------

_SYSY = np.kron(PAULI[2], PAULI[2]).real
_SXSX = np.kron(PAULI[1], PAULI[1]).real


def _product_flip(matrix):
    """The spin flip as the two matrix products with sigma_y (x) sigma_y."""
    return _SYSY @ matrix.conj() @ _SYSY


def _product_flip_signed_concurrence(matrix):
    """Signed concurrence from the product flip, sorted after clipping."""
    mu = np.linalg.eigvals(matrix @ _product_flip(matrix)).reshape(-1, 4).real
    roots = np.sqrt(np.sort(np.clip(mu, 0.0, None), axis=1)[:, ::-1])
    return roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3]


def _assert_flip_matches_products(stack, physical=True):
    """Equal entries (a zero may differ in sign, which ``array_equal``
    ignores), and the same bytes for the spin-flip product and for the
    signed concurrence built on it."""
    flipped = _spin_flip(stack)
    assert np.array_equal(flipped, _product_flip(stack))
    assert (stack @ flipped).tobytes() == (stack @ _product_flip(stack)).tobytes()
    if physical:
        signed = _eigensolved(stack)
        assert signed.tobytes() == _product_flip_signed_concurrence(stack).tobytes()


def test_spin_flip_on_random_hermitian_stacks(rng):
    raw = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
    _assert_flip_matches_products(raw + raw.conj().swapaxes(-1, -2), physical=False)
    _assert_flip_matches_products(_random_stack(rng, 300))


def test_spin_flip_on_matrices_with_exact_zeros(rng):
    """X-shaped parts of random states (still states: the two blocks are
    principal submatrices), real parts, and the named states."""
    x_mask = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
    stack = _random_stack(rng, 200)
    _assert_flip_matches_products(np.where(x_mask, stack, 0.0))
    _assert_flip_matches_products(stack.real.astype(complex))
    named = [bell_singlet, bell_triplet, z_up_down, x_up_down, x_up_up, maximally_mixed]
    named_stack = np.stack(
        [bloch_to_density(f()).matrix for f in named]
        + [bloch_to_density(werner(p)).matrix for p in (-1.0 / 3.0, 0.2, 0.5, 1.0)]
    )
    _assert_flip_matches_products(named_stack)


def test_spin_flip_on_pure_states(rng):
    _assert_flip_matches_products(
        np.stack([random_density_matrix(rng, rank=1) for _ in range(200)])
    )
    kets = rng.normal(size=(200, 4))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    _assert_flip_matches_products((kets[:, :, None] * kets[:, None, :]).astype(complex))


def _x_twirl(stack):
    """The part of each matrix even under conjugation by sigma_x (x) sigma_x."""
    return 0.5 * (stack + _SXSX @ stack @ _SXSX)


def _sorted_spectra(mu):
    return np.sort(np.asarray(mu).real, axis=-1)


def test_x_even_spectrum_matches_eigvals_on_twirled_states(rng):
    """The squared closed-form spin-flip roots of even states, read from their
    Pauli components, matches the product-flip eigensolve on random
    twirled states of every rank."""
    stack = _x_twirl(_random_stack(rng, 2000))
    closed = np.square(_x_even_spin_flip_roots(_rho_to_alpha(stack).real))
    product = np.linalg.eigvals(stack @ _product_flip(stack))
    assert closed.shape == (2000, 4)
    assert np.max(np.abs(_sorted_spectra(closed) - _sorted_spectra(product))) <= 1e-13
    assert np.max(np.abs(product.imag)) <= 1e-13


def test_x_even_within_round_off():
    """A stack is even while every odd component is within 1e-12 of its
    row's trace component; one row beyond that makes the whole stack odd."""
    rows = np.tile(werner(2.0 / 3.0).alpha, (3, 1)) * np.array([[1.0], [2.0], [0.5]])
    assert _is_x_even(rows)
    rows[2, 3] = 0.4e-12
    assert _is_x_even(rows)
    rows[2, 3] = 0.6e-12
    assert not _is_x_even(rows)
    assert not _is_x_even(z_up_down().alpha)


def _judged_spectra(monkeypatch) -> list:
    """Every spectrum the closed form hands the one dust rule from now on,
    as a copy, recorded as the rule sees it."""
    judged = []
    rule = states._spin_flip_roots

    def recording(mu, shape, samples=None):
        judged.append(mu.copy())
        return rule(mu, shape, samples)

    monkeypatch.setattr(states, "_spin_flip_roots", recording)
    return judged


#: an even "state" whose populations r11 = 0.575 and r44 = -0.075 have a
#: negative product: a dusty sample beyond the dust rule
_BAD_EVEN = PauliVector.from_components({(0, 0): 1.0, (0, 1): 1.2, (1, 0): 0.1, (3, 3): 0.5})


def test_x_even_spectrum_refuses_what_the_eigensolve_refuses(monkeypatch):
    """An even 'state' whose populations have a negative product leaves the
    same complex spectrum on both routes, (0.125 +- 0.2077i)^2 among it,
    and so the same refusal by the dust rule."""
    matrix = bloch_to_density(_BAD_EVEN).matrix
    judged = _judged_spectra(monkeypatch)
    product = np.linalg.eigvals(matrix @ _product_flip(matrix))
    message = r"spin-flip spectrum has imaginary residue 5\.192e-02$"
    with pytest.raises(NumericalFailureError, match=message):
        _signed_concurrence(_BAD_EVEN.alpha)
    with pytest.raises(NumericalFailureError, match=message):
        _spin_flip_roots(product[None, :], ())
    [closed] = judged
    assert closed.shape == (1, 4)
    assert all(np.min(np.abs(product - mu)) <= 1e-13 for mu in closed[0])


def test_x_even_batch_with_one_negative_product_is_refused_at_that_sample(monkeypatch):
    """A batch of even states in which only row 2 has a negative population
    product hands the dust rule that row alone, in complex, and is refused
    at sample 2 of the batch, not of the rows judged, with the eigensolve's
    residue; the rows of positive products take the closed form and are
    not judged."""
    rows = np.stack([werner(w).alpha for w in (0.9, 0.5, 0.3, 0.1)])
    stack = np.insert(rows, 2, _BAD_EVEN.alpha, axis=0)
    assert _is_x_even(stack)
    message = r"spin-flip spectrum has imaginary residue 5\.192e-02 at sample 2$"
    judged = _judged_spectra(monkeypatch)
    with pytest.raises(NumericalFailureError, match=message):
        _signed_concurrence(stack)
    [closed] = judged
    assert closed.dtype == complex and closed.shape == (1, 4)
    assert closed.tobytes() == np.square(_x_even_spin_flip_roots(_BAD_EVEN.alpha[None, :])).tobytes()
    with pytest.raises(NumericalFailureError, match=message):
        _eigensolved(_unit_rho(stack))
    with pytest.raises(NumericalFailureError, match=message):
        _signed_concurrence(stack.reshape(5, 1, 16))
    with pytest.raises(NumericalFailureError, match=r"residue 5\.192e-02$"):
        _signed_concurrence(stack[2])


def test_x_even_spectrum_of_an_empty_batch():
    """An empty batch has no roots and no signed concurrences."""
    assert _x_even_spin_flip_roots(np.empty((0, 16))).shape == (0, 4)
    assert _signed_concurrence(np.empty((0, 16))).shape == (0,)


#: the smallest root whose square neither underflows nor loses bits as a
#: subnormal, so that ``sqrt(fl(x^2)) == |x|`` in binary64
_SMALLEST_SQUARED_ROOT = 2.0**-511
#: two ulps of 1, the most the closed form may differ from the sorted
#: combination of the same roots: each side rounds a handful of times
_COMBINATION_TOL = 4.0 * np.finfo(float).eps / 2.0


def _even_batches(rng):
    """Seeded sigma_x (x) sigma_x even batches, one Pauli vector a row with
    unit trace component: state_for_correlation draws, Werner states,
    x_up_down, random even X-states, and trajectories at random points of
    the lifetime benchmark's box (ratio 0.5..0.99, deficit 1e-3..0.5,
    splitting 1..100, horizon three first-order slow lifetimes)."""
    yield np.stack([state_for_correlation(lam).alpha for lam in rng.uniform(-3.0, 1.0, 200)])
    yield np.stack([werner(p).alpha for p in np.linspace(-1.0 / 3.0, 1.0, 61)])
    yield x_up_down().alpha[None, :]
    twirled = _rho_to_alpha(_x_twirl(_random_stack(rng, 500))).real
    yield twirled / twirled[:, :1]
    for _ in range(4):
        ratio = rng.uniform(0.5, 0.99)
        deficit = np.exp(rng.uniform(np.log(1e-3), np.log(0.5)))
        field = np.exp(rng.uniform(0.0, np.log(100.0)))
        horizon = 3.0 / ((1.0 + 1.5 * (1.0 / ratio - 1.0)) * deficit)
        initial = state_for_correlation(rng.uniform(-3.0, 1.0))
        spectrum = make_generator(deficit, ratio, delta_field=field).spectrum
        traj = propagate_spectral(spectrum, initial, default_time_grid(1.0, horizon))
        yield traj.alphas / traj.alphas[:, :1]


def _x_even_products(batch):
    """The population products of each row, as the closed form forms them."""
    p14, p23, _, _ = states._x_even_parts(batch)
    return p14, p23


def test_x_even_roots_are_the_rooted_squares_bit_for_bit(rng):
    """The closed-form roots of even states are, bit for bit, what the
    route through a spectrum gives: each root squared, then the dust rule's
    clamp and square root (``x^2 == |x|^2``, so squaring the roots squares
    the closed form's ``x``), wherever every root is zero or at least
    2^-511.  The signed concurrence read from the same components without
    any root set is their sorted combination within two ulps of 1, and a
    batch reads each row's single value bit for bit."""
    rows = 0
    for batch in _even_batches(rng):
        assert _is_x_even(batch)
        shape = (batch.shape[0],)
        roots = _x_even_spin_flip_roots(batch)
        p14, p23 = _x_even_products(batch)
        sound = (p14 >= 0.0) & (p23 >= 0.0)
        assert not roots[sound].imag.any()
        real = np.abs(roots[sound])
        rooted = _spin_flip_roots(np.square(real), real.shape[:1])
        assert ((real == 0.0) | (real >= _SMALLEST_SQUARED_ROOT)).all()
        assert real.tobytes() == rooted.tobytes()
        combined = _signed_from_roots(rooted, real.shape[:1])
        signed = _signed_concurrence(batch)
        assert np.max(np.abs(signed[sound] - combined), initial=0.0) <= _COMBINATION_TOL
        assert signed.tobytes() == np.array([_signed_concurrence(row) for row in batch]).tobytes()
        rows += int(sound.sum())
    assert rows > 2000


def test_x_even_roots_keep_a_root_whose_square_underflows():
    """An even row with r11 = 0 and a coherence |r14| of 2^-540 has two
    spin-flip roots of exactly 2^-540, below 2^-511: their squares underflow
    to zero, so a route through the spectrum loses them, and the closed-form
    roots keep them.  Its concurrence is exactly zero, and the closed form,
    with no roots, returns that 0: the sorted combination of the exact
    roots returns -2^-539, from rounding the roots 0.25 +- 2^-540 to 0.25.
    A Werner row beside it is unchanged."""
    tiny = 2.0**-540
    row = PauliVector.from_components(
        {(0, 0): 1.0, (0, 1): -0.5, (1, 0): -0.5, (3, 3): 4.0 * tiny}
    ).alpha
    batch = np.stack([row, werner(0.9).alpha])
    assert _is_x_even(batch)
    roots = np.sort(np.abs(_x_even_spin_flip_roots(batch)), axis=1)
    assert roots[0].tolist() == [tiny, tiny, 0.25, 0.25]
    assert np.sort(_spin_flip_roots(np.square(roots), (2,)), axis=1)[0].tolist() == [0.0, 0.0, 0.25, 0.25]
    assert _signed_from_roots(roots, (2,))[0] == -2.0 * tiny
    signed = _signed_concurrence(batch)
    assert signed[0] == 0.0
    assert signed[1] == _signed_concurrence(werner(0.9).alpha)


#: a sample of an even state with a population of negative dust, well
#: within the dust rule: r44 = -2.5e-18 beside r11 = 0.5, and no coherence
#: between them, give a spin-flip eigenvalue p14 / 16 = -1.25e-18, twice
_DUSTY_EVEN = PauliVector.from_components(
    {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): -(1e-17), (2, 2): 0.2, (3, 3): 0.2}
).alpha


def _twirled_x_states(rng):
    """Random twirled states of rank 1 to 4, with unit trace component."""
    for rank in range(1, 5):
        stack = _x_twirl(np.stack([random_density_matrix(rng, rank) for _ in range(200)]))
        alphas = _rho_to_alpha(stack).real
        yield alphas / alphas[:, :1]


def _x_state(r11, r22, r33, r44, r14=0.0, r23=0.0):
    """The Pauli vector of the X-state with these populations and real
    coherences in the sigma_x eigenbasis |++>, |+->, |-+>, |-->."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    basis = np.kron(hadamard, hadamard)
    rho = np.diag([r11, r22, r33, r44]).astype(complex)
    rho[0, 3] = rho[3, 0] = r14
    rho[1, 2] = rho[2, 1] = r23
    return _rho_to_alpha(basis @ rho @ basis.T).real


def test_x_even_closed_form_is_the_sorted_root_combination(rng):
    """On random twirled X-states of rank 1 to 4, on ties (c14 = A, c23 =
    B), zero coherences, the Bell states and the maximally mixed state, the
    closed form equals the sorted combination of the closed-form roots
    within two ulps of 1, and the eigensolve of the same matrix within the
    eigensolve's own round-off."""
    named = [bell_singlet(), bell_triplet(), maximally_mixed(), x_up_down(), x_up_up()]
    named += [werner(p) for p in (-1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0)]
    ties = [_x_state(0.25, 0.25, 0.25, 0.25, 0.25, 0.25), _x_state(0.4, 0.1, 0.1, 0.4, 0.4, 0.1)]
    ties += [_x_state(0.3, 0.2, 0.2, 0.3, 0.0, 0.0), _x_state(0.5, 0.0, 0.5, 0.0)]
    batches = list(_twirled_x_states(rng))
    batches.append(np.stack([state.alpha for state in named] + ties))
    for batch in batches:
        assert _is_x_even(batch)
        roots = _x_even_spin_flip_roots(batch)
        shape = (batch.shape[0],)
        combined = _signed_from_roots(_spin_flip_roots(np.square(roots), shape), shape)
        closed = _x_even_signed_concurrence(batch, shape)
        assert np.max(np.abs(closed - combined)) <= _COMBINATION_TOL
        assert np.max(np.abs(closed - _eigensolved(_unit_rho(batch)))) <= 1e-7
    tie = _x_even_signed_concurrence(np.stack(ties[:2]), (2,))
    assert tie == pytest.approx([0.0, 0.6], abs=_COMBINATION_TOL)
    bell = _x_even_signed_concurrence(np.stack([s.alpha for s in named[:2]]), (2,))
    assert bell.tolist() == [1.0, 1.0]
    assert _x_even_signed_concurrence(maximally_mixed().alpha, ()) == -0.5


def test_x_even_batch_with_a_dusty_sample_equals_its_single_calls():
    """A sample with a negative population product within the dust rule, in
    the middle of an even batch, is clamped by the rule and read from its
    sorted roots; the batch gives every sample's single value bit for bit,
    and only that sample meets the rule."""
    rows = np.stack([werner(w).alpha for w in (0.9, 0.5, 0.3, 0.1)])
    batch = np.insert(rows, 2, _DUSTY_EVEN, axis=0)
    p14, p23 = _x_even_products(batch)
    assert np.flatnonzero((p14 < 0.0) | (p23 < 0.0)).tolist() == [2]
    signed = _signed_concurrence(batch)
    assert signed.tobytes() == np.array([_signed_concurrence(row) for row in batch]).tobytes()
    dusty = _x_even_spin_flip_roots(_DUSTY_EVEN[None, :])
    assert dusty.dtype == complex
    expected = _signed_from_roots(_spin_flip_roots(np.square(dusty), (1,)), (1,))
    assert signed[2] == expected[0]
    assert signed[[0, 1, 3, 4]].tobytes() == _signed_concurrence(rows).tobytes()


def test_spin_flip_on_trajectories(reference_spectrum):
    """z_up_down, odd under sigma_x (x) sigma_x, is eigensolved: its
    concurrence is the product-flip route's bit for bit.  The singlet, the
    mixed state and the triplet stay in the even sector and take the closed
    form: their closed-form spin-flip spectra match the product-flip
    eigensolve to 1e-13 and a 40-digit eigensolve of rho rho~ from the same
    rho to 1e-14 at a few samples, and the concurrence, read from the same
    components without the spectra, matches that eigensolve's to 1e-14.
    Only the 40-digit checks need mpmath."""
    times = default_time_grid(1.0, 30.0)
    even = []
    for name, factory, _ in FOUR_STATES:
        traj = propagate_spectral(reference_spectrum, factory(), times)
        matrices = _unit_rho(traj.alphas)
        _assert_flip_matches_products(matrices)
        if name == "z_up_down":
            clamped = np.clip(_product_flip_signed_concurrence(matrices), 0.0, 1.0)
            assert traj.concurrence.tobytes() == clamped.tobytes()
            continue
        unit = traj.alphas / traj.alphas[:, :1]
        closed = np.square(_x_even_spin_flip_roots(unit))
        product = np.linalg.eigvals(matrices @ _product_flip(matrices))
        assert np.max(np.abs(_sorted_spectra(closed) - _sorted_spectra(product))) <= 1e-13
        clamped = np.clip(_x_even_signed_concurrence(traj.alphas, (times.size,)), 0.0, 1.0)
        assert traj.concurrence.tobytes() == clamped.tobytes()
        even.append((traj, matrices, closed))
    mpmath = pytest.importorskip("mpmath")
    for traj, matrices, closed in even:
        for k in (0, 60, 130, 250, 400):
            reference = oracles.spin_flip_spectrum_mp(matrices[k])
            assert max(abs(complex(r) - m) for r, m in zip(reference, _sorted_spectra(closed[k]))) <= 1e-14
            roots = [mpmath.sqrt(max(r.real, 0)) for r in reference]
            exact = max(float(roots[3] - roots[2] - roots[1] - roots[0]), 0.0)
            assert traj.concurrence[k] == pytest.approx(exact, abs=1e-14)


#: the bare reference model and a colder, Lamb-dressed one closer to the
#: common bath, as (deficit, ratio, coherent strengths)
_MP_MODELS = ((0.05, 0.9, {}), (0.01, 0.99, {"lamb_a": -0.17, "lamb_b": -0.49}))


def test_public_concurrence_matches_40_digits():
    """``wootters_concurrence`` of trajectory samples, from t = 0 to the
    late tail, is the 40-digit spin-flip concurrence of the same matrix
    within 1e-13.  sigma_x (x) sigma_x even samples take the closed form,
    which an eigensolve of rho rho~ misses by up to 5e-10 there; the odd
    ``z_up_down`` samples are eigensolved as given, so the pure product
    state at t = 0 reads its exact 0 to round-off."""
    mpmath = pytest.importorskip("mpmath")
    times = default_time_grid(1.0, 30.0)
    worst = 0.0
    factories = (x_up_down, lambda: werner(2.0 / 3.0), lambda: state_for_correlation(0.5), z_up_down)
    for deficit, ratio, strengths in _MP_MODELS:
        spectrum = make_generator(deficit, ratio, **strengths).spectrum
        for factory in factories:
            traj = propagate_spectral(spectrum, factory(), times)
            assert _is_x_even(traj.alphas) == (factory is not z_up_down)
            matrices = _unit_rho(traj.alphas)
            for k in (0, 8, 20, 60, 250, 400):
                reference = oracles.spin_flip_spectrum_mp(matrices[k])
                roots = [mpmath.sqrt(max(r.real, 0)) for r in reference]
                exact = max(float(roots[3] - roots[2] - roots[1] - roots[0]), 0.0)
                worst = max(worst, abs(wootters_concurrence(matrices[k]) - exact))
    assert worst <= 1e-13
