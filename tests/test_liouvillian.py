"""Generator assembly and spectrum taxonomy."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DELTA_FIELD, make_generator, random_density_matrix
from spinbath.bath import BathThermal, RateSet
from spinbath.errors import (
    DegenerateSpectrumError,
    NumericalFailureError,
)
from spinbath.liouvillian import (
    GeneratorMatrix,
    ModelParams,
    _BASIS_OPERATORS,
    _OPS_PLUS,
    _TERM_MATRICES,
    _X_TOTAL,
    _coherent_term,
    _gated,
    analytic_slow_eigenpair,
    build_generator,
    classify_spectrum,
    first_order_slow_rate,
    generator_to_json,
    hamiltonian_matrix,
    mode_coefficients,
    oscillatory_alpha_pattern,
    slow_alpha_pattern,
    spectrum_to_json,
    thermal_alpha,
)
from spinbath.states import (
    PAULI,
    PAULI_PRODUCTS,
    _X_ODD,
    _rho_to_alpha,
    bell_singlet,
    density_to_bloch,
    flat_index,
)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


GENERATOR_CASES = [
    dict(deficit=0.05, ratio=0.9),
    dict(deficit=0.2, ratio=0.5, delta_field=3.0, gamma0=0.7),
    dict(deficit=1.0, ratio=1.0, delta_field=25.0, gamma0=2.0),
    dict(deficit=2.0, ratio=0.8),
    dict(
        deficit=0.05,
        ratio=0.9,
        lamb_a=-0.17,
        lamb_b=-0.49,
        exchange_xi=0.31,
    ),
    # one coherent term at a time: each is present exactly when its
    # strength is non-zero
    dict(deficit=0.05, ratio=0.9, lamb_a=-0.17),
    dict(deficit=0.2, ratio=0.5, delta_field=3.0, lamb_b=-0.49),
    dict(deficit=0.05, ratio=0.7, exchange_xi=0.31),
]
_STRENGTHS = ("lamb_a", "lamb_b", "exchange_xi")


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generator_matches_kronecker_oracle(case):
    """Column-projection assembly vs an independent rho-space build."""
    strengths = {key: case[key] for key in _STRENGTHS if key in case}
    delta_field = case.get("delta_field", DELTA_FIELD)
    gamma0 = case.get("gamma0", 1.0)
    gen = make_generator(case["deficit"], case["ratio"], delta_field, gamma0, **strengths)
    occupation = (1.0 / case["ratio"] - 1.0) / 2.0
    reference = oracles.liouvillian_alpha_space(
        delta_field, gamma0, occupation, case["deficit"], **strengths
    )
    reference[0] = 0.0
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(gen.entries - reference)) < 1e-12 * scale


def _random_models(lamb, exchange):
    """Seeded (params, rates) draws: first ratio 1 and deficit 1, which has
    zero absorption and cross rates, then 24 random ones.  A term is
    switched off by zeroing its strengths."""
    rng = np.random.default_rng(7)
    cases = [(1.0, 1.0)] + [
        (rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0)) for _ in range(24)
    ]
    for ratio, deficit in cases:
        on = [lamb, lamb, exchange]
        params = ModelParams(rng.uniform(0.1, 30.0), *rng.normal(size=3) * on)
        rates = RateSet.from_parameters(
            rng.uniform(0.1, 3.0), BathThermal.from_ratio(ratio), deficit
        )
        yield params, rates


def _oracle_unit_terms():
    """The generator at unit strength of each of the eight terms, in the
    order delta_field, lamb_a, lamb_b, exchange_xi, gamma11+, gamma12+,
    gamma11-, gamma12-, from the rho-space oracle.  Its rates are
    ``g+ = (N + 1) gamma0`` and ``g- = N gamma0`` on the same qubit and
    ``(1 - deficit) g`` across, so the rate terms are differences of oracle
    builds.  Every entry is a multiple of 1/4 up to the oracle's round-off,
    and is rounded to it.  The oracle takes (delta_field, gamma0,
    occupation, deficit, **strengths)."""
    build = oracles.liouvillian_alpha_space
    emit_same = build(0.0, 1.0, 0.0, 1.0)
    emit_cross = build(0.0, 1.0, 0.0, 0.0) - emit_same
    absorb_same = build(0.0, 1.0, 1.0, 1.0) - 2.0 * emit_same
    absorb_cross = build(0.0, 1.0, 1.0, 0.0) - 2.0 * (emit_same + emit_cross) - absorb_same
    terms = np.stack(
        [build(1.0, 0.0, 0.0, 1.0)]
        + [build(0.0, 0.0, 0.0, 1.0, **{key: 1.0}) for key in _STRENGTHS]
        + [emit_same, emit_cross, absorb_same, absorb_cross]
    )
    quarters = np.round(4.0 * terms)
    assert np.max(np.abs(4.0 * terms - quarters)) <= 1e-12
    return quarters / 4.0


@pytest.mark.parametrize("lamb", [False, True])
@pytest.mark.parametrize("exchange", [False, True])
def test_generator_entries_are_exact_term_sums_within_one_ulp(lamb, exchange):
    """Every entry of ``L`` is within one ulp of the exact sum, in rational
    arithmetic, of the float strengths times the oracle's unit-term
    entries: each entry sums at most two non-zero terms.  The package's unit
    terms are the oracle's exactly, which the ulp bound alone would not
    demand of them."""
    terms = _oracle_unit_terms().reshape(8, 256)
    assert np.array_equal(_TERM_MATRICES, terms)
    support = [np.flatnonzero(terms[:, k]).tolist() for k in range(256)]
    exact_terms = [[Fraction(x) for x in row] for row in terms.tolist()]
    for params, rates in _random_models(lamb, exchange):
        strengths = [
            Fraction(x)
            for x in (
                params.delta_field, params.lamb_a, params.lamb_b, params.exchange_xi,
                rates.gamma11_plus, rates.gamma12_plus,
                rates.gamma11_minus, rates.gamma12_minus,
            )
        ]
        entries = build_generator(params, rates).entries.reshape(256).tolist()
        for k, entry in enumerate(entries):
            exact = sum((strengths[n] * exact_terms[n][k] for n in support[k]), Fraction(0))
            assert abs(Fraction(entry) - exact) <= Fraction(math.ulp(float(exact)))


#: +1 for each Pauli product even under conjugation by sigma_x (x) sigma_x,
#: -1 for each odd one: Tr(P_k X P_k X) / 4 with X = sigma_x (x) sigma_x
_SXSX = np.kron(PAULI[1], PAULI[1])
_X_SIGNS = np.einsum("kab,bc,kcd,da->k", PAULI_PRODUCTS, _SXSX, PAULI_PRODUCTS, _SXSX).real / 4.0


def test_x_parity_signs_are_the_odd_components():
    assert np.array_equal(_X_ODD, _X_SIGNS < 0.0)
    assert [k for k in range(16) if _X_SIGNS[k] < 0] == [2, 3, 6, 7, 8, 9, 12, 13]


def _assert_keeps_x_parity(gen):
    """The blocks coupling even and odd components are exactly zero: no
    unit term couples them, so no sum of terms does, and the generator's
    flag says so."""
    assert np.max(np.abs(gen.entries[np.outer(_X_SIGNS, _X_SIGNS) < 0.0])) == 0.0
    assert gen.keeps_x_parity is True


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generator_cases_keep_the_x_parity_sectors(case):
    """Each generator keeps the sectors, and so its spectrum record says."""
    strengths = {key: case[key] for key in _STRENGTHS if key in case}
    delta_field = case.get("delta_field", DELTA_FIELD)
    gamma0 = case.get("gamma0", 1.0)
    gen = make_generator(case["deficit"], case["ratio"], delta_field, gamma0, **strengths)
    _assert_keeps_x_parity(gen)
    assert gen.spectrum.keeps_x_parity is True


@pytest.mark.parametrize("lamb", [False, True])
@pytest.mark.parametrize("exchange", [False, True])
def test_random_models_keep_the_x_parity_sectors(lamb, exchange):
    """Every term of the model commutes with conjugation by sigma_x (x)
    sigma_x, bare, Lamb-dressed and with exchange, so no generator couples
    the sectors at all."""
    for params, rates in _random_models(lamb, exchange):
        _assert_keeps_x_parity(build_generator(params, rates))


def test_non_hermitian_hamiltonian_is_a_numerical_failure():
    """A Hamiltonian that breaks Hermiticity preservation leaves imaginary
    Pauli components, reported as a typed failure naming the first such
    column (column 1, sigma_0 (x) sigma_x, commutes with the field term)."""
    with pytest.raises(NumericalFailureError, match="generator column 2 has imaginary"):
        _gated(_coherent_term(1j * _X_TOTAL))


def test_trace_breaking_term_is_a_numerical_failure():
    """A jump term without its anticommutator part does not preserve the
    trace, which the first row reports as a typed failure."""
    lower = _OPS_PLUS[0]
    sandwich = lower @ _BASIS_OPERATORS @ lower.conj().T
    with pytest.raises(NumericalFailureError, match="trace-preservation defect"):
        _gated(_rho_to_alpha(sandwich).T)


def test_large_exchange_model_builds():
    """An exchange at ~1e9 builds a finite generator with a zero first row:
    the gates run once, on the unit terms at import, and no build re-runs
    them on its own round-off."""
    params = ModelParams(
        47.085345016334095,
        lamb_a=0.01926360245789568,
        lamb_b=3.565805076588644,
        exchange_xi=-1045001654.6230235,
    )
    for ratio, deficit in ((0.9, 0.05), (0.3, 1.5)):
        rates = RateSet.from_parameters(1.0, BathThermal.from_ratio(ratio), deficit)
        gen = build_generator(params, rates)
        assert np.all(np.isfinite(gen.entries))
        assert np.all(gen.entries[0] == 0.0)


def test_first_row_zero_and_real(reference_generator):
    assert np.all(reference_generator.entries[0] == 0.0)
    assert reference_generator.entries.dtype == np.float64


def test_entries_read_only(reference_generator):
    with pytest.raises(ValueError):
        reference_generator.entries[1, 1] = 0.0


def test_apply_accepts_vectors_and_pauli(reference_generator):
    vec = bell_singlet()
    out = reference_generator.apply(vec)
    assert np.array_equal(out, reference_generator.entries @ vec.alpha)


def test_generator_shape_validation(reference_generator):
    """The constructor refuses a wrong shape and a NaN or +-inf entry."""
    with pytest.raises(ValueError):
        GeneratorMatrix(
            np.zeros((4, 4)), ModelParams(1.0), reference_generator.rates
        )
    for value in (np.nan, np.inf, -np.inf):
        entries = reference_generator.entries.copy()
        entries[5, 5] = value
        with pytest.raises(ValueError, match="generator entries must be finite"):
            GeneratorMatrix(entries, reference_generator.params, reference_generator.rates)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0)
    with pytest.raises(ValueError):
        ModelParams(-1.0)


@pytest.mark.parametrize("field", ["delta_field", "lamb_a", "lamb_b", "exchange_xi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_params_rejects_non_finite(field, value):
    values = dict(delta_field=1.0, lamb_a=0.1, lamb_b=0.2, exchange_xi=0.3)
    values[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**values)


def test_hamiltonian_matrix_matches_oracle():
    params = ModelParams(7.0, lamb_a=0.3, lamb_b=-0.2, exchange_xi=0.1)
    assert np.allclose(
        hamiltonian_matrix(ModelParams(7.0)), oracles.hamiltonian(7.0), atol=1e-15
    )
    assert np.allclose(
        hamiltonian_matrix(params), oracles.hamiltonian(7.0, 0.3, -0.2, 0.1), atol=1e-15
    )


def test_pure_commutator_generator_is_antisymmetric_spectrum():
    """No dissipation: eigenvalues purely imaginary, from {0, +-iD, +-2iD}."""
    rates = RateSet(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    gen = build_generator(ModelParams(7.0), rates)
    values = np.linalg.eigvals(gen.entries)
    assert np.max(np.abs(values.real)) < 1e-10
    allowed = {0.0, 7.0, -7.0, 14.0, -14.0}
    assert {round(v, 9) for v in values.imag} <= allowed


def test_hermiticity_preservation(reference_generator, rng):
    """L alpha stays real and maps back to a Hermitian matrix derivative."""
    alpha = density_to_bloch(random_density_matrix(rng)).alpha
    alpha_dot = reference_generator.apply(alpha)
    rho_dot = oracles.density_from_alpha(alpha_dot)
    assert np.max(np.abs(rho_dot - rho_dot.conj().T)) < 1e-12
    assert abs(np.trace(rho_dot)) < 1e-12  # alpha_00 frozen


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("deficit", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99])
def test_classification_counts_and_structure(deficit, ratio):
    report = classify_spectrum(make_generator(deficit, ratio))
    assert report.labels.count("thermal") == 1
    assert report.labels.count("slow") == 1
    assert report.labels.count("oscillatory") == 2
    assert report.labels.count("fast") == 12
    assert report.thermal_index == 0 and report.slow_index == 1
    assert report.oscillatory_indices == (2, 3)
    # zero mode isolated, everything else strictly decaying
    assert abs(report.eigenvalues[0]) < 1e-9
    assert np.all(report.eigenvalues[1:].real < 0.0)
    assert report.fast_violations == ()


def _sweep_models(count=200):
    """Seeded models over the valid domain, each coherent strength off or
    of either sign up to 1e15, where eigensolver error can exceed the
    slowest decay rates."""
    rng = np.random.default_rng(23)
    for _ in range(count):
        on = rng.random(3) < 0.7
        strengths = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-3.0, 15.0, 3) * on
        params = ModelParams(10.0 ** rng.uniform(-1.0, 3.0), *strengths)
        thermal = BathThermal.from_ratio(rng.uniform(0.05, 1.0))
        rates = RateSet.from_parameters(10.0 ** rng.uniform(-1.0, 1.0), thermal, rng.uniform(0.0, 2.0))
        yield params, rates


def test_sweep_builds_and_labels_only_decaying_spectra():
    """Every finite model builds, and every labelled record decays in every
    mode (real parts at most 1e-9 gamma0) with its labels at fixed
    positions; a record that labelling refuses has no labels."""
    labelled = 0
    for params, rates in _sweep_models():
        report = build_generator(params, rates).spectrum
        if report.reason is not None:
            assert report.labels is None
            continue
        labelled += 1
        assert np.max(report.eigenvalues.real) <= 1e-9 * rates.gamma0
        assert report.labels == ("thermal", "slow") + ("oscillatory",) * 2 + ("fast",) * 12
        assert (report.thermal_index, report.slow_index) == (0, 1)
        assert report.oscillatory_indices == (2, 3)
        assert report.fast_indices == tuple(range(4, 16))
    assert labelled >= 190


@pytest.mark.parametrize(
    "deficit, lamb_b",
    [
        pytest.param(0.05, 1e18, id="1e+18"),
        pytest.param(0.05, 1e30, id="1e+30"),
        pytest.param(0.0, 1e18, id="0-1e+18"),
        pytest.param(0.0, 1e30, id="0-1e+30"),
    ],
)
def test_growing_modes_are_refused_by_name(deficit, lamb_b):
    """At huge strengths eigensolver error leaves modes with a positive
    real part, which no Lindblad generator has; labelling refuses them
    first, at the common bath's doubled zero mode too."""
    gen = make_generator(deficit, 0.9, lamb_b=lamb_b)
    assert gen.spectrum.labels is None
    with pytest.raises(DegenerateSpectrumError, match=r"growing mode \(") as info:
        classify_spectrum(gen)
    assert all(value.real > 1e-9 for value in info.value.candidates)


def test_real_spectrum_has_no_oscillatory_pair():
    """A spectrum without a complex pair leaves the oscillatory label
    without a candidate, and labelling names it."""
    rates = RateSet.from_parameters(1.0, BathThermal.from_ratio(0.9), 0.05)
    gen = GeneratorMatrix(np.diag(-np.arange(16.0)), ModelParams(DELTA_FIELD), rates)
    assert gen.spectrum.labels is None
    with pytest.raises(
        DegenerateSpectrumError, match=r"^no oscillatory-pair candidate at delta = 0.05$"
    ):
        classify_spectrum(gen)


def test_spectrum_closed_under_conjugation(reference_spectrum):
    values = reference_spectrum.eigenvalues
    sorted_vals = np.sort_complex(values)
    assert np.allclose(sorted_vals, np.sort_complex(values.conj()), atol=1e-9)
    # the oscillatory pair itself is conjugate, positive imaginary first
    assert values[2].imag > 0 > values[3].imag
    assert values[2] == pytest.approx(values[3].conjugate(), abs=1e-9)


def test_oscillatory_pair_sits_at_the_splitting(reference_spectrum):
    assert reference_spectrum.eigenvalues[2].imag == pytest.approx(DELTA_FIELD, rel=1e-6)
    # first-order width: -(1/2) gamma0 (1 - R + 2 delta - delta R)
    expected = -0.5 * (1.0 - 0.9 + 2.0 * 0.05 - 0.05 * 0.9)
    assert reference_spectrum.eigenvalues[2].real == pytest.approx(expected, rel=0.1)


def test_undressed_slowest_upper_eigenvalue_sits_at_the_splitting():
    """Without Lamb or exchange terms the slowest eigenvalue with positive
    imaginary part oscillates at the splitting Delta: the +-2 Delta pairs
    decay at gamma0/R, faster than the slowest +-Delta pair.  So taking the
    slowest complex pair as oscillatory needs no filter on its frequency."""
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        deficit = rng.uniform(1e-6, 2.0 - 1e-6)
        ratio = 1.0 - rng.random()
        delta_field = 10.0 ** rng.uniform(-2.0, 3.0)
        values = np.linalg.eigvals(make_generator(deficit, ratio, delta_field).entries)
        upper = [v for v in values.tolist() if v.imag >= 1e-9]
        slowest = max(upper, key=lambda v: (v.real, v.imag))
        assert abs(slowest.imag - delta_field) <= 0.5 * delta_field


@pytest.mark.parametrize("case", [c for c in GENERATOR_CASES if c["deficit"] < 1.0])
def test_column_normalisation_matches_per_column_route(case):
    """Columns 2-15 are scaled in one array pass; each equals, bit for bit,
    its eigenvector divided by the phase of its largest component and by
    its ``np.linalg.norm``."""
    case = dict(case)
    gen = make_generator(case.pop("deficit"), case.pop("ratio"), **case)
    report = classify_spectrum(gen)
    values, right = np.linalg.eig(gen.entries)
    for k in range(2, 16):
        (index,) = np.flatnonzero(values == report.eigenvalues[k])
        vec = right[:, index]
        lead = vec[np.argmax(np.abs(vec))]
        expected = vec / lead * abs(lead) / np.linalg.norm(vec)
        assert np.array_equal(report.right[:, k], expected)


def _sector_basis(*combinations):
    """Orthonormal columns spanning Pauli vectors given as
    ``{(i, j): coefficient}`` combinations."""
    basis = np.zeros((16, len(combinations)))
    for col, combination in enumerate(combinations):
        for (i, j), coefficient in combination.items():
            basis[flat_index(i, j), col] = coefficient
    return basis / np.linalg.norm(basis, axis=0)


def _swapped(i, j, sign):
    return {(i, j): 1.0, (j, i): sign}


#: charge 0 under the joint rotation about x, even under qubit swap
_SECTOR_0_EVEN = _sector_basis(
    {(0, 0): 1.0}, {(1, 1): 1.0}, _swapped(0, 1, 1.0), {(2, 2): 1.0, (3, 3): 1.0}
)
#: charge +-1 under the joint rotation about x, odd under qubit swap
_SECTOR_1_ODD = _sector_basis(
    _swapped(0, 2, -1.0), _swapped(0, 3, -1.0), _swapped(1, 2, -1.0), _swapped(1, 3, -1.0)
)


@pytest.mark.parametrize("strength", [0.0, 0.3, 5.0])
def test_labels_follow_symmetry_sectors(strength):
    """Thermal and slow modes lie in the (0, swap+) sector and the
    oscillatory pair in (+-1, swap-), bare and dressed; the pair is exactly
    conjugate in value and eigenvector."""
    dressing = dict(lamb_b=strength, exchange_xi=strength)
    for deficit in (0.001, 0.01, 0.05):
        for ratio in (0.3, 0.7, 0.95, 1.0):
            for delta_field in (1.0, 10.0):
                report = classify_spectrum(
                    make_generator(deficit, ratio, delta_field, **dressing)
                )
                for k, basis in enumerate((_SECTOR_0_EVEN,) * 2 + (_SECTOR_1_ODD,) * 2):
                    vec = report.right[:, k]
                    residual = vec - basis @ (basis.T @ vec)
                    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(vec)
                assert report.eigenvalues[3] == report.eigenvalues[2].conjugate()
                assert np.array_equal(report.right[:, 3], report.right[:, 2].conj())


def test_thermal_mode_matches_pattern(reference_spectrum):
    expected = thermal_alpha(0.9).alpha
    vec = reference_spectrum.right[:, 0]
    assert np.max(np.abs(vec - expected)) < 1e-8


def test_thermal_mode_is_annihilated(reference_generator):
    vec = thermal_alpha(0.9).alpha
    # the true null vector differs from the closed form only at roundoff
    assert np.max(np.abs(reference_generator.apply(vec))) < 1e-7


def test_slow_mode_normalization_and_pattern():
    report = classify_spectrum(make_generator(0.01, 0.9))
    vec = report.right[:, 1].real
    assert vec[flat_index(2, 2)] == pytest.approx(1.0)
    pattern = slow_alpha_pattern(0.9).alpha
    cosine = abs(np.dot(vec, pattern)) / (
        np.linalg.norm(vec) * np.linalg.norm(pattern)
    )
    assert cosine > 0.999


def test_slow_eigenvalue_first_order_formula():
    """lambda_1 = -(1+3N) delta gamma0 within 10% on the small-N grid."""
    for deficit in (0.01, 0.02, 0.05):
        for occupation in (0.0, 0.05, 0.1):
            gen = make_generator(deficit, 1.0 / (1.0 + 2.0 * occupation))
            numeric = classify_spectrum(gen).slow_eigenvalue
            formula, _ = analytic_slow_eigenpair(gen.rates)
            assert numeric == pytest.approx(formula, rel=0.10)
            assert numeric < 0


def test_slow_eigenvalue_vanishes_linearly_with_deficit():
    values = []
    for deficit in (1e-2, 1e-3, 1e-4):
        report = classify_spectrum(make_generator(deficit, 0.9))
        values.append(report.slow_eigenvalue)
    assert values[0] / values[1] == pytest.approx(10.0, rel=0.05)
    assert values[1] / values[2] == pytest.approx(10.0, rel=0.05)


def test_slow_eigenvalue_linear_in_occupation():
    """Linearity in N over [0, 5]: R^2 of a straight-line fit >= 0.99."""
    occupations = np.linspace(0.0, 5.0, 11)
    lams = np.array(
        [
            classify_spectrum(
                make_generator(0.01, 1.0 / (1.0 + 2.0 * n))
            ).slow_eigenvalue
            for n in occupations
        ]
    )
    coeffs = np.polyfit(occupations, lams, 1)
    residual = lams - np.polyval(coeffs, occupations)
    r_squared = 1.0 - np.sum(residual**2) / np.sum((lams - lams.mean()) ** 2)
    assert r_squared >= 0.99
    assert coeffs[0] < 0  # decays faster when the bath is hotter


def test_oscillatory_limit_approaches_bare_splitting():
    """R -> 1, deficit -> 0: real parts -> 0, imaginary parts -> -+Delta."""
    report = classify_spectrum(make_generator(1e-6, 1.0))
    osc = report.eigenvalues[2]
    assert abs(osc.real) < 1e-5
    assert osc.imag == pytest.approx(DELTA_FIELD, abs=1e-6)
    pattern = oscillatory_alpha_pattern()
    pattern = pattern / np.linalg.norm(pattern)
    # the documented convention: pattern belongs to the -iDelta branch
    overlap = abs(np.vdot(pattern, report.right[:, 3]))
    assert overlap > 0.9999


def test_biorthonormality(reference_spectrum):
    gram = reference_spectrum.left.conj() @ reference_spectrum.right
    assert np.max(np.abs(gram - np.eye(16))) < 1e-8


def test_fast_modes_obey_rate_bound():
    for deficit, ratio in ((0.01, 0.5), (0.05, 0.9), (0.2, 0.99), (0.8, 0.7)):
        report = classify_spectrum(make_generator(deficit, ratio))
        assert report.fast_violations == ()
        bound = -0.5 / ratio
        assert np.all(report.eigenvalues[4:].real <= bound + 1e-9)


def test_degenerate_deficit_refused():
    """At deficit 0 the record is unlabelled: classifying it, or writing it
    as JSON, raises the record's own reason."""
    gen = make_generator(0.0, 0.9)
    with pytest.raises(DegenerateSpectrumError):
        classify_spectrum(gen)
    with pytest.raises(DegenerateSpectrumError) as info:
        spectrum_to_json(gen.spectrum)
    assert (str(info.value), info.value.candidates) == gen.spectrum.reason


def test_uncorrelated_baths_are_degenerate_too():
    """deficit = 1: two independent qubits, slow label is ambiguous."""
    with pytest.raises(DegenerateSpectrumError, match="slow"):
        classify_spectrum(make_generator(1.0, 0.7))


def test_anticorrelated_limit_gains_a_second_zero_mode():
    """deficit = 2 protects the triplet the way deficit = 0 protects the
    singlet, so the null space is again two-dimensional."""
    with pytest.raises(DegenerateSpectrumError, match="zero mode") as info:
        classify_spectrum(make_generator(2.0, 0.7))
    assert len(info.value.candidates) == 2


def test_mode_coefficients_reconstruct_states(reference_spectrum, rng):
    for _ in range(20):
        alpha = density_to_bloch(random_density_matrix(rng)).alpha
        coeff = mode_coefficients(reference_spectrum, alpha)
        assert coeff[0].real == pytest.approx(1.0, abs=1e-10)
        assert abs(coeff[0].imag) < 1e-10
        recon = (reference_spectrum.right @ coeff).real
        assert np.max(np.abs(recon - alpha)) < 1e-8


def _certificate_models():
    """Seeded models, bare, Lamb-dressed and with exchange, at ratios up to
    0.99 and deficits from 1e-4 to 0.5; then the common-bath model whose
    eigenbasis LAPACK returns near-parallel (cond 5.3e13), and R = 1 at
    deficits from 1e-4 to 1e-6, whose near-defective pair near -2 gamma0
    gives ``eig``'s basis a condition number of ~7 / delta."""
    rng = np.random.default_rng(2025)
    for on in ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        for _ in range(40):
            strengths = dict(zip(_STRENGTHS, rng.normal(size=3) * on))
            deficit = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
            field = 10.0 ** rng.uniform(0.0, 2.0)
            yield make_generator(deficit, rng.uniform(0.05, 0.99), field, **strengths)
    yield make_generator(0.0, 0.8512075, 10.0)
    for deficit in (1e-4, 1e-5, 7e-6, 5e-6, 1e-6):
        yield make_generator(deficit, 1.0)


def _svd_cond(right):
    """2-norm condition number, by SVD, of ``right`` scaled to unit columns."""
    with np.errstate(divide="ignore"):
        return np.linalg.cond(right / np.linalg.norm(right, axis=0))


def test_certificate_decides_the_mode_sum_gate():
    """The certificate ``cond_bound`` is never below the SVD condition number
    of the record's basis scaled to unit columns.  A record whose ``eig``
    basis passes it (at most 1e4) keeps that basis, so the certificate also
    bounds ``eig``'s eigenvector matrix; one that fails has its
    near-defective pair kept as a block, and the blocked basis certifies.
    The mode sum gates on the certificate alone and takes every record
    here.  A near-singular basis warns nothing on the way."""
    verdicts = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for gen in _certificate_models():
            report = gen.spectrum
            assert report.cond_bound >= _svd_cond(report.right)
            assert not report.kappa.flags.writeable
            assert np.all(report.kappa >= 1.0 - 1e-12)
            if not report.blocks:
                assert report.cond_bound >= _svd_cond(np.linalg.eig(gen.entries)[1])
            mode_coefficients(report, bell_singlet().alpha)
            assert report.cond_bound <= 1e4
            verdicts.append(len(report.blocks))
    assert caught == []
    # the common bath and every R = 1 deficit block one pair
    assert verdicts == [0] * 120 + [1] * 6


@st.composite
def _valid_models(draw):
    """A generator from the valid domain: deficit in [0, 2] or in [1e-10,
    1e-4], ratio in [0.01, 1] or exactly 1, where small deficits give the
    ill-conditioned bases, a splitting over three decades, and each Lamb
    and exchange strength off, in [-5, 5], or up to 1e18, where round-off
    gives growing modes."""
    deficit = draw(st.floats(0.0, 2.0) | st.floats(1e-10, 1e-4))
    ratio = draw(st.floats(0.01, 1.0) | st.just(1.0))
    field = draw(st.floats(0.1, 100.0))
    strength = st.just(0.0) | st.floats(-5.0, 5.0) | st.floats(-1e18, 1e18)
    return make_generator(deficit, ratio, field, **{key: draw(strength) for key in _STRENGTHS})


@settings(max_examples=150)
@given(_valid_models())
def test_certificate_bounds_cond_over_the_valid_domain(gen):
    """Over the valid domain the certificate bounds the SVD condition number
    of the record's basis with unit columns, and the mode sum takes every
    record whose modes do not grow: its basis certifies, with any
    near-defective pair kept as a block.  A record left unlabelled by a
    growing mode is the exception: the sum refuses it by that reason,
    whatever its conditioning."""
    report = gen.spectrum
    assert report.cond_bound >= _svd_cond(report.right)
    try:
        mode_coefficients(report, bell_singlet().alpha)
    except DegenerateSpectrumError:
        assert any(value.real > 1e-9 * report.gamma0 for value in report.reason[1])
        return
    assert report.cond_bound <= 1e4


def test_thermal_state_has_trivial_coefficients(reference_spectrum):
    coeff = mode_coefficients(reference_spectrum, thermal_alpha(0.9))
    assert coeff[0].real == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(coeff[1:])) < 1e-8


def test_singlet_lives_in_the_slow_sector():
    """At small deficit the singlet is (almost) thermal + slow only."""
    report = classify_spectrum(make_generator(0.01, 0.9))
    coeff = mode_coefficients(report, bell_singlet())
    assert np.max(np.abs(coeff[2:])) < 0.05
    # a1 = (Lambda - R^2)/(3 + R^2) = -1 exactly for the singlet
    assert coeff[1].real == pytest.approx(-1.0, rel=0.02)


def test_projected_amplitude_matches_closed_form():
    """a1 for Lambda=-1, R=0.9 within 2% of (Lambda-R^2)/(3+R^2)."""
    from spinbath.states import z_up_down

    report = classify_spectrum(make_generator(0.05, 0.9))
    coeff = mode_coefficients(report, z_up_down())
    expected = (-1.0 - 0.81) / (3.0 + 0.81)
    assert coeff[1].real == pytest.approx(expected, rel=0.02)
    assert abs(coeff[1].imag) < 1e-9


def test_analytic_slow_eigenpair_values():
    rates = RateSet.from_parameters(1.0, BathThermal(0.0), 0.05)
    lam, pattern = analytic_slow_eigenpair(rates)
    assert lam == pytest.approx(-0.05)
    assert pattern.component(2, 2) == 1.0
    assert pattern.component(3, 3) == 1.0
    assert pattern.component(1, 1) == pytest.approx(2.0)  # 1 + R^2 at R=1
    zero = RateSet.from_parameters(1.0, BathThermal(0.5), 0.0)
    assert analytic_slow_eigenpair(zero)[0] == 0.0
    warm = RateSet.from_parameters(0.7, BathThermal(0.3), 0.1)
    assert -analytic_slow_eigenpair(warm)[0] == first_order_slow_rate(0.3, 0.1, 0.7)
    assert first_order_slow_rate(0.3, 0.1, 0.7) == pytest.approx(1.9 * 0.1 * 0.7)


def test_analytic_slow_eigenpair_warns_at_large_deficit():
    rates = RateSet.from_parameters(1.0, BathThermal(0.0), 0.5)
    with pytest.warns(UserWarning, match="first-order"):
        analytic_slow_eigenpair(rates)


# ---------------------------------------------------------------------------
# Field-dressing invariances
# ---------------------------------------------------------------------------


def _dressed_pair(deficit, ratio, strength):
    bare = make_generator(deficit, ratio)
    dressed = make_generator(deficit, ratio, lamb_b=strength, exchange_xi=strength)
    return bare, dressed


def test_dressing_acts_trivially_on_thermal_and_slow_patterns():
    """The alpha_0 / alpha_1 operators commute with both corrections."""
    bare, dressed = _dressed_pair(0.05, 0.9, 8.0)
    for pattern in (thermal_alpha(0.9), slow_alpha_pattern(0.9)):
        difference = dressed.apply(pattern) - bare.apply(pattern)
        assert np.max(np.abs(difference)) < 1e-12


def test_dressing_leaves_slow_eigenvalue_unchanged():
    bare, dressed = _dressed_pair(0.05, 0.9, 8.58)
    lam_bare = classify_spectrum(bare).slow_eigenvalue
    lam_dressed = classify_spectrum(dressed).slow_eigenvalue
    assert lam_dressed == pytest.approx(lam_bare, rel=1e-9)


def test_dressing_shifts_oscillatory_frequency_not_width():
    """Re(lambda_2) drift is O(deficit^2); Im moves by order strength."""
    drifts = []
    for deficit in (0.01, 0.005):
        bare, dressed = _dressed_pair(deficit, 0.9, 1.0)
        osc_bare = classify_spectrum(bare).eigenvalues[2]
        osc_dressed = classify_spectrum(dressed).eigenvalues[2]
        assert abs(osc_dressed.imag - osc_bare.imag) > 0.5
        drifts.append(abs(osc_dressed.real - osc_bare.real))
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.2)
    assert drifts[0] < 1e-4


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def test_generator_json_round_trip(reference_generator):
    payload = json.loads(generator_to_json(reference_generator))
    entries = np.array(payload["entries_row_major"]).reshape(16, 16)
    assert np.max(np.abs(entries - reference_generator.entries)) < 1e-12
    assert payload["gamma0"] == 1.0
    assert payload["delta_field"] == DELTA_FIELD
    # the strengths say which coherent terms are present; no flag repeats them
    assert payload.keys() == {
        "entries_row_major", "delta_field", "lamb_a", "lamb_b", "exchange_xi",
        "gamma0", "delta", "occupation",
    }


def test_spectrum_json_contents(reference_spectrum):
    payload = json.loads(spectrum_to_json(reference_spectrum))
    assert len(payload["modes"]) == 16
    labels = [mode["label"] for mode in payload["modes"]]
    assert labels[:4] == ["thermal", "slow", "oscillatory", "oscillatory"]
    slow = payload["modes"][1]
    assert slow["re"] == pytest.approx(reference_spectrum.slow_eigenvalue)
    assert len(slow["right_re"]) == 16
    assert payload["fast_violations"] == []
