"""Independent reference implementations used only by the test suite.

Everything here is built from first principles with a *different* numerical
route than the package under test:

* the master-equation generator is assembled in density-matrix space with
  Kronecker products and conjugated into the Pauli-component basis, instead
  of projecting operator images column by column;
* time evolution takes the dense matrix exponential expm(L t) of that
  generator afresh at every sample, instead of an eigendecomposition or
  the package's exact steps expm(L dt) on its own Pauli-space generator;
* concurrence uses the matrix-square-root form of Wootters' formula,
  sqrt(rho) rho~ sqrt(rho), with both square roots taken from Hermitian
  eigendecompositions (eigh), instead of the eigenvalues of the
  non-Hermitian product rho rho~;
* principal-value integrals use pole folding (an exactly regular
  integrand), instead of QUADPACK's Cauchy weight (QAWC).

Agreement between the two routes is then evidence, not tautology.
"""

import numpy as np
from scipy import integrate, special
from scipy.linalg import expm

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA = (_I2, _SX, _SY, _SZ)

# x-basis kets: sx |+x> = |+x>, sx |-x> = -|-x>
_X_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_X_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

# Pauli products in row-major component order (index = 4*i + j).
PAULI16 = [np.kron(_SIGMA[i], _SIGMA[j]) for i in range(4) for j in range(4)]

# alpha_k = Tr(P_k rho) = vec(P_k^T) . vec(rho)   (row-major vec throughout)
_TO_ALPHA = np.array([p.T.reshape(-1) for p in PAULI16])
# rho = (1/4) sum_k alpha_k P_k
_FROM_ALPHA = np.array([p.reshape(-1) for p in PAULI16]).T / 4.0


def vec(matrix):
    return np.asarray(matrix, dtype=complex).reshape(-1)


def alpha_from_density(rho):
    """Pauli components of a 4x4 density matrix (real part enforced)."""
    comps = _TO_ALPHA @ vec(rho)
    assert np.max(np.abs(comps.imag)) < 1e-10
    return comps.real.copy()


def density_from_alpha(alpha):
    return (_FROM_ALPHA @ np.asarray(alpha, dtype=float)).reshape(4, 4)


def spatial_correlation_scipy(x, dimension):
    """Bath cross-correlation profile via scipy specials: cos, J0, sinc."""
    x = float(x)
    if dimension == 1:
        return np.cos(x)
    if dimension == 2:
        return float(special.j0(x))
    if dimension == 3:
        return 1.0 if x == 0.0 else np.sin(x) / x
    raise ValueError(dimension)


def hamiltonian(delta_field, lamb_a=0.0, lamb_b=0.0, exchange_xi=0.0):
    """Two-qubit Hamiltonian: transverse field plus optional corrections."""
    def two(op_a, op_b):
        return np.kron(op_a, op_b)

    sx_total = two(_SX, _I2) + two(_I2, _SX)
    ham = -(delta_field / 2.0) * sx_total
    ham = ham + lamb_a * sx_total
    ham = ham + lamb_b * (two(_SZ, _SZ) + two(_SY, _SY))
    ham = ham + exchange_xi * (
        two(_SX, _SX) + two(_SY, _SY) + two(_SZ, _SZ)
    )
    return ham


def jump_operators():
    """Energy-lowering / raising parts of sz for each qubit.

    The single-qubit Hamiltonian -(Delta/2) sx has ground state |+x> and
    excited state |-x>; the bath couples through sz, whose lowering part is
    the explicit outer product |+x><-x| (no Pauli algebra involved).
    """
    lower = np.outer(_X_PLUS, _X_MINUS.conj())
    raise_ = np.outer(_X_MINUS, _X_PLUS.conj())
    ops_lower = (np.kron(lower, _I2), np.kron(_I2, lower))
    ops_raise = (np.kron(raise_, _I2), np.kron(_I2, raise_))
    return ops_lower, ops_raise


def liouvillian_rho_space(
    delta_field,
    gamma0,
    occupation,
    deficit,
    lamb_a=0.0,
    lamb_b=0.0,
    exchange_xi=0.0,
):
    """16x16 superoperator on vec(rho): -i[H, .] plus the secular dissipator.

    Built entirely from Kronecker identities:
        vec(A rho B) = (A kron B^T) vec(rho).
    """
    ham = hamiltonian(delta_field, lamb_a, lamb_b, exchange_xi)
    eye4 = np.eye(4, dtype=complex)
    sup = -1j * (np.kron(ham, eye4) - np.kron(eye4, ham.T))

    ops_lower, ops_raise = jump_operators()
    g_plus = (occupation + 1.0) * gamma0
    g_minus = occupation * gamma0
    for rate, ops in ((g_plus, ops_lower), (g_minus, ops_raise)):
        for n in range(2):
            for m in range(2):
                g = rate if n == m else (1.0 - deficit) * rate
                a_m, a_n = ops[m], ops[n]
                overlap = a_n.conj().T @ a_m
                sup = sup + g * (
                    np.kron(a_m, a_n.conj())
                    - 0.5 * np.kron(overlap, eye4)
                    - 0.5 * np.kron(eye4, overlap.T)
                )
    return sup


def liouvillian_alpha_space(*args, **kwargs):
    """The same generator expressed on the 16 real Pauli components."""
    sup = liouvillian_rho_space(*args, **kwargs)
    mat = _TO_ALPHA @ sup @ _FROM_ALPHA
    assert np.max(np.abs(mat.imag)) < 1e-9 * max(1.0, np.max(np.abs(mat.real)))
    return mat.real.copy()


def evolve_expm(matrix, alpha0, times):
    """Propagate d(alpha)/dt = L alpha with dense matrix exponentials."""
    alpha0 = np.asarray(alpha0, dtype=float)
    return np.array([expm(matrix * float(t)) @ alpha0 for t in times])


def _sqrt_eigenvalues(hermitian):
    """Eigenvalues and eigenvectors of the square root of a PSD matrix.

    Negative eigenvalue dust is clipped to zero, so rank-deficient
    arguments (pure states) need no special case.
    """
    values, vectors = np.linalg.eigh(hermitian)
    return np.sqrt(np.clip(values, 0.0, None)), vectors


def concurrence_sqrtm(rho):
    """Wootters concurrence via R = sqrt( sqrt(rho) rho~ sqrt(rho) )."""
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(_SY, _SY)
    flipped = yy @ rho.conj() @ yy
    values, vectors = _sqrt_eigenvalues(rho)
    root = (vectors * values) @ vectors.conj().T
    lams = np.sort(_sqrt_eigenvalues(root @ flipped @ root)[0])[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def trace_distance(rho_a, rho_b):
    """(1/2) ||rho_a - rho_b||_1 for Hermitian arguments."""
    diff = np.asarray(rho_a) - np.asarray(rho_b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def principal_value_folded(numerator, pole, upper, epsabs=1e-13):
    """PV integral of numerator(w) / (pole - w) over (0, upper).

    The pole is removed exactly by folding the integration range about it:

        PV int_{p-h}^{p+h} g(w)/(p-w) dw = int_0^h [g(p+u) - g(p-u)] / (-u) du

    leaving a regular integrand (limit -2 g'(p) as u -> 0), plus ordinary
    quadrature over whatever part of (0, upper) the fold does not cover.
    """
    if upper <= pole:
        value, _ = integrate.quad(
            lambda w: numerator(w) / (pole - w), 0.0, upper,
            limit=400, epsabs=epsabs, epsrel=1e-11,
        )
        return value

    half = min(pole, upper - pole)

    def folded(u):
        return (numerator(pole - u) - numerator(pole + u)) / u

    value, _ = integrate.quad(folded, 0.0, half, limit=400,
                              epsabs=epsabs, epsrel=1e-11)
    if upper - pole > pole:
        # fold covered (0, 2*pole); plain quadrature for the far tail
        tail, _ = integrate.quad(
            lambda w: numerator(w) / (pole - w), 2.0 * pole, upper,
            limit=400, epsabs=epsabs, epsrel=1e-11,
        )
        value += tail
    elif pole > upper - pole:
        # fold covered (2*pole - upper, upper); plain quadrature near zero
        head, _ = integrate.quad(
            lambda w: numerator(w) / (pole - w), 0.0, 2.0 * pole - upper,
            limit=400, epsabs=epsabs, epsrel=1e-11,
        )
        value += head
    return value


def lamb_coefficients_folded(spectral, thermal, geometry, delta_freq):
    """Fold-quadrature evaluation of the two Hamiltonian-shift strengths.

    Same integral definitions as the package, different PV machinery:

        A = 2 PV int J(w) coth(w/2T) Delta / (Delta^2 - w^2) dw
        B =   PV int J(w) f(kappa(w) d)  w  / (Delta^2 - w^2) dw
    """
    upper = spectral.support_limit()

    def num_a(omega):
        return (
            2.0 * spectral(omega)
            * thermal.coth_factor(omega, delta_freq)
            * delta_freq / (delta_freq + omega)
        )

    def num_b(omega):
        x = float(geometry.kappa(omega)) * geometry.separation
        f_val = spatial_correlation_scipy(x, geometry.dimension)
        return spectral(omega) * f_val * omega / (delta_freq + omega)

    coeff_a = principal_value_folded(num_a, delta_freq, upper)
    coeff_b = principal_value_folded(num_b, delta_freq, upper)
    return coeff_a, coeff_b
