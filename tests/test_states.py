"""Pauli-component state representation and concurrence."""

import numpy as np
import pytest

import oracles
from conftest import random_density_matrix
from spinbath.errors import InvalidStateError
from spinbath.states import (
    PAULI,
    PAULI_PRODUCTS,
    PauliVector,
    TwoQubitDensityMatrix,
    _concurrence,
    _signed_concurrence,
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


def _random_stack(rng, n):
    return np.stack(
        [random_density_matrix(rng, rank=int(rng.integers(1, 5))) for _ in range(n)]
    )


def test_batched_concurrence_equals_single_calls(rng):
    """One pass over a stack gives the per-matrix values bit for bit."""
    stack = _random_stack(rng, 300)
    signed = _signed_concurrence(stack)
    clamped = _concurrence(stack)
    assert np.array_equal(signed, [_signed_concurrence(m) for m in stack])
    assert np.array_equal(clamped, [_concurrence(m) for m in stack])
    assert np.array_equal(clamped, [wootters_concurrence(m) for m in stack])


def test_batched_concurrence_shapes(rng):
    stack = _random_stack(rng, 6)
    single = _concurrence(stack[0])
    assert isinstance(single, float)
    assert isinstance(_signed_concurrence(stack[0]), float)
    assert _concurrence(stack).shape == (6,)
    assert _concurrence(stack[:1]).shape == (1,)
    assert _concurrence(stack.reshape(2, 3, 4, 4)).shape == (2, 3)
    assert _concurrence(stack)[0] == single


def test_batched_concurrence_names_the_bad_sample(rng):
    """diag(0.6, 0.5, -0.1, 0) has spin-flip eigenvalues (0, -0.05, -0.05, 0)."""
    stack = _random_stack(rng, 6)
    stack[3] = np.diag([0.6, 0.5, -0.1, 0.0])
    message = r"eigenvalue -5\.000e-02 below -1\.0e-09"
    with pytest.raises(InvalidStateError, match=message + " at sample 3$"):
        _concurrence(stack)
    with pytest.raises(InvalidStateError, match=message + "$"):
        _concurrence(stack[3])
