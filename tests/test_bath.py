"""Spectral density, bath correlations, rates and the shift integrals."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

import oracles
from spinbath import dynamics, iontrap
from spinbath.bath import (
    EXPONENTIAL_CUTOFF,
    HARD_CUTOFF,
    TABULATED,
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
from spinbath.errors import InvalidRatesError, NumericalFailureError
from spinbath.liouvillian import ModelParams, build_generator


def _assert_float_matches_array(fn, x):
    """``fn`` of a Python number is a float equal to ``fn`` of ``[x]``.

    A 0-d array still comes back as a float too.
    """
    scalar = fn(x)
    vector = fn(np.array([x], dtype=float))
    zero_d = fn(np.asarray(x, dtype=float))
    assert type(scalar) is float
    assert vector.shape == (1,)
    assert isinstance(zero_d, float)
    for other in (float(vector[0]), zero_d):
        if math.isnan(other):
            assert math.isnan(scalar)
        else:
            assert scalar == other, (x, scalar, other)


@pytest.mark.parametrize(
    "fn, at_plus_inf, at_minus_inf",
    [
        (SpectralDensity.ohmic(0.1, 10.0), math.nan, 0.0),
        (SpectralDensity.ohmic(0.2, 5.0, HARD_CUTOFF), 0.0, 0.0),
        (SpectralDensity.from_table([1.0, 2.0, 4.0], [0.3, 1.0, 0.2]), 0.0, 0.0),
        (lambda x: spatial_correlation(x, 1), math.nan, math.nan),
        (lambda x: spatial_correlation(x, 2), math.nan, math.nan),
        (lambda x: spatial_correlation(x, 3), math.nan, math.nan),
        (BathGeometry(velocity=1.5).kappa, math.inf, -math.inf),
    ],
    ids=["ohmic-exp", "ohmic-hard", "tabulated", "f-1d", "f-2d", "f-3d", "kappa"],
)
def test_infinite_argument(fn, at_plus_inf, at_minus_inf):
    """J, f and kappa at +-inf: one value for floats and arrays, no warning."""
    for x, expected in ((math.inf, at_plus_inf), (-math.inf, at_minus_inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_float_matches_array(fn, x)
            value = fn(x)
        assert value == expected or (math.isnan(value) and math.isnan(expected))


class TestSpectralDensity:
    def test_ohmic_exponential_values(self):
        density = SpectralDensity.ohmic(0.1, 10.0)
        assert density(2.0) == pytest.approx(0.5 * 0.1 * 2.0 * math.exp(-0.2))
        assert density(0.0) == 0.0
        assert density(-3.0) == 0.0

    def test_ohmic_hard_cutoff(self):
        density = SpectralDensity.ohmic(0.2, 5.0, HARD_CUTOFF)
        assert density(5.0) == pytest.approx(0.5)
        assert density(5.0 + 1e-12) == 0.0
        assert density.support_limit() == 5.0

    def test_exponential_support_covers_the_tail(self):
        density = SpectralDensity.ohmic(1.0, 2.0)
        assert density(density.support_limit()) < 1e-15

    def test_vectorized_call(self):
        density = SpectralDensity.ohmic(0.1, 10.0)
        grid = np.array([-1.0, 0.0, 1.0, 3.0])
        values = density(grid)
        assert values.shape == (4,)
        assert values[0] == values[1] == 0.0
        assert values[3] == pytest.approx(density(3.0))

    @pytest.mark.parametrize(
        "density, points",
        [
            (SpectralDensity.ohmic(0.1, 10.0), [-3.0, -0.0, 0, 1e-300, 2.0, 7, 10.0, 449.9]),
            (
                SpectralDensity.ohmic(0.2, 5.0, HARD_CUTOFF),
                [-1.0, 0.0, 2.5, 5.0, 5, math.nextafter(5.0, 6.0), 5.0 + 1e-12, 1e300],
            ),
            (
                SpectralDensity.from_table([1.0, 2.0, 4.0], [0.3, 1.0, 0.2]),
                [0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.5, 2.0,
                 3.0, math.nextafter(4.0, 0.0), 4.0, math.nextafter(4.0, 5.0), 5.0, 3],
            ),
            (
                SpectralDensity.from_table([-1.0, 0.5, 3.0], [2.0, 1.0, 0.5]),
                [-1.0, -0.5, 0.0, 1e-300, 0.5, 1.7, 3.0],
            ),
        ],
    )
    def test_float_matches_one_element_array(self, density, points):
        for omega in points + [math.nan, -math.inf]:
            _assert_float_matches_array(density, omega)

    def test_tabulated_interpolation_and_range(self):
        density = SpectralDensity.from_table([1.0, 2.0, 4.0], [0.0, 1.0, 0.0])
        assert density(2.0) == 1.0
        assert density(1.5) == pytest.approx(0.5)
        assert density(3.0) == pytest.approx(0.5)
        assert density(0.5) == 0.0
        assert density(5.0) == 0.0
        assert density.support_limit() == 4.0

    def test_tabulated_from_file(self, tmp_path):
        path = tmp_path / "j.dat"
        path.write_text("1.0 0.5\n2.0 1.5\n")
        density = SpectralDensity.from_table_file(path)
        assert density(1.5) == pytest.approx(1.0)
        for text in ("1.0 0.5\n", "1.0\n2.0\n"):  # one row, one column
            path.write_text(text)
            with pytest.raises(ValueError, match=r"\(n, 2\) array"):
                SpectralDensity.from_table_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralDensity.ohmic(-0.1, 10.0)
        with pytest.raises(ValueError):
            SpectralDensity.ohmic(0.1, 0.0)
        with pytest.raises(ValueError):
            SpectralDensity.ohmic(0.1, 10.0, "gaussian")
        with pytest.raises(ValueError):
            SpectralDensity.from_table([2.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            SpectralDensity.from_table([1.0, 2.0], [0.0, -1.0])
        with pytest.raises(ValueError):
            SpectralDensity.from_table([1.0, 2.0], [0.0, math.inf])
        with pytest.raises(ValueError):
            SpectralDensity.from_table([1.0, 2.0], [math.nan, 1.0])
        with pytest.raises(ValueError, match="unknown spectral form 'lorentzian'"):
            SpectralDensity(form="lorentzian")


class TestBathThermal:
    def test_parametrization_round_trips(self):
        th = BathThermal.from_ratio(0.5)
        assert th.occupation == pytest.approx(0.5)
        assert BathThermal.from_occupation(0.5).ratio == pytest.approx(0.5)
        assert BathThermal.from_ratio(1.0).occupation == 0.0

    def test_from_temperature(self):
        th = BathThermal.from_temperature(1.0, 0.5)
        assert th.occupation == pytest.approx(1.0 / math.expm1(2.0))
        assert BathThermal.from_temperature(1.0, 0.0).occupation == 0.0

    def test_ratio_equals_tanh_of_half_beta_delta(self):
        # R = tanh(Delta / 2T) must be consistent with N = 1/(e^{Delta/T}-1)
        for temp in (0.3, 1.0, 4.0):
            th = BathThermal.from_temperature(2.0, temp)
            assert th.ratio == pytest.approx(math.tanh(2.0 / (2.0 * temp)), rel=1e-12)

    def test_coth_factor_identities(self):
        th = BathThermal(0.35)
        # at the system frequency: coth(Delta/2T) = 1 + 2N
        assert th.coth_factor(3.0, 3.0) == pytest.approx(1.0 + 2.0 * 0.35, rel=1e-12)
        # zero temperature: identically one
        assert BathThermal(0.0).coth_factor(0.123, 3.0) == 1.0
        # large frequency: approaches one from above
        assert th.coth_factor(300.0, 3.0) == pytest.approx(1.0, abs=1e-10)

    def test_coth_factor_pole_is_infinite(self):
        """A zero argument, exact or underflowed, is coth's pole, not an error."""
        th = BathThermal(0.35)
        assert th.coth_factor(0.0, 3.0) == math.inf
        assert th.coth_factor(5e-324, 1e300) == math.inf
        assert th.coth_factor(1e-300, 1.0) == pytest.approx(2.0 / (1e-300 * math.log1p(1 / 0.35)))

    def test_occupation_underflows_beyond_expm1_range(self):
        """Delta / T above ~709.78 overflows expm1; N is then the T -> 0 limit."""
        assert thermal_occupation(1.0, 1.0 / 709.0) > 0.0
        assert thermal_occupation(1.0, 0.001) == 0.0
        assert BathThermal.from_temperature(1.0, 0.001).occupation == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BathThermal(-0.1)
        with pytest.raises(ValueError):
            BathThermal(math.inf)
        with pytest.raises(ValueError):
            BathThermal(math.nan)
        with pytest.raises(ValueError):
            BathThermal.from_ratio(0.0)
        with pytest.raises(ValueError):
            BathThermal.from_ratio(1.2)
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1.0, -1.0)


class TestSpatialCorrelation:
    def test_profiles_match_scipy_forms(self):
        xs = np.linspace(0.0, 30.0, 500)
        assert np.allclose(spatial_correlation(xs, 1), np.cos(xs), atol=1e-14)
        assert np.allclose(spatial_correlation(xs, 2), special.j0(xs), atol=1e-10)
        expected = np.ones_like(xs)
        expected[1:] = np.sin(xs[1:]) / xs[1:]
        assert np.allclose(spatial_correlation(xs, 3), expected, atol=1e-14)

    def test_2d_profile_matches_bessel_integral(self):
        """J_0 from Bessel's integral (1/pi) int_0^pi cos(x sin t) dt.

        The package takes J_0 from ``scipy.special.j0``; this reference
        shares no code with it.
        """
        xs = np.linspace(0.0, 30.0, 21)
        reference = [
            integrate.quad(lambda t: math.cos(x * math.sin(t)), 0.0, math.pi,
                           limit=200, epsabs=1e-13, epsrel=1e-12)[0] / math.pi
            for x in xs
        ]
        assert np.allclose(spatial_correlation(xs, 2), reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_unit_at_zero_and_bounded(self, dimension):
        assert spatial_correlation(0.0, dimension) == pytest.approx(1.0, abs=1e-14)
        xs = np.linspace(0.0, 100.0, 1000)
        assert np.all(np.abs(spatial_correlation(xs, dimension)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_float_matches_one_element_array(self, dimension):
        for x in [0.0, -0.0, 0, 1e-8, 0.4, 2, 2.5, -3.0, 30.0, 1e6, math.nan]:
            _assert_float_matches_array(lambda v: spatial_correlation(v, dimension), x)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            spatial_correlation(1.0, 4)


class TestCorrelationDelta:
    def test_exact_values(self):
        geom = BathGeometry(separation=0.3, dimension=1, velocity=1.5)
        # kappa(2.0) * d = (2.0 / 1.5) * 0.3 = 0.4
        assert correlation_delta(geom, 2.0) == pytest.approx(1.0 - math.cos(0.4))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_quadratic_approximation_converges(self, dimension):
        """exact - approx = O(x^4): shrink x by 2, error drops ~16x."""
        errors = []
        for x in (0.2, 0.1, 0.05):
            geom = BathGeometry(separation=x, dimension=dimension, velocity=1.0)
            exact = correlation_delta(geom, 1.0)
            approx = correlation_delta(geom, 1.0, approx=True)
            assert approx == pytest.approx(x * x / (2.0 * dimension), rel=1e-12)
            errors.append(abs(exact - approx))
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.2)

    def test_custom_dispersion(self):
        geom = BathGeometry(
            separation=1.0, dimension=1, dispersion=lambda w: math.sqrt(w)
        )
        assert correlation_delta(geom, 4.0) == pytest.approx(1.0 - math.cos(2.0))

    def test_kappa_float_matches_one_element_array(self):
        geom = BathGeometry(separation=0.3, dimension=1, velocity=1.5)
        for omega in [-2.0, 0.0, 0, 0.3, 7, 1e300, math.nan]:
            _assert_float_matches_array(geom.kappa, omega)

    def test_common_bath_limit(self):
        geom = BathGeometry(separation=0.0, dimension=3, velocity=1.0)
        assert correlation_delta(geom, 5.0) == 0.0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BathGeometry(separation=-1.0)
        with pytest.raises(ValueError):
            BathGeometry(separation=math.inf)
        with pytest.raises(ValueError):
            BathGeometry(separation=math.nan)
        with pytest.raises(ValueError):
            BathGeometry(dimension=0)
        with pytest.raises(ValueError):
            BathGeometry(velocity=0.0)
        with pytest.raises(ValueError, match="frequency must be positive and finite, got 0.0"):
            correlation_delta(BathGeometry(), 0.0)


class TestRateSet:
    def test_detailed_balance_and_deficit(self):
        th = BathThermal(0.25)
        rates = RateSet.from_parameters(2.0, th, 0.1)
        assert rates.gamma11_plus == pytest.approx(1.25 * 2.0)
        assert rates.gamma11_minus == pytest.approx(0.25 * 2.0)
        assert rates.gamma12_plus == pytest.approx(0.9 * rates.gamma11_plus)
        assert rates.gamma12_minus == pytest.approx(0.9 * rates.gamma11_minus)
        # ratio gamma(-Delta)/gamma(+Delta) = e^{-Delta/T} = N/(N+1)
        assert rates.gamma11_minus / rates.gamma11_plus == pytest.approx(0.2)
        assert rates.occupation == pytest.approx(0.25)
        assert rates.ratio == pytest.approx(th.ratio)

    def test_validation(self):
        th = BathThermal(0.0)
        with pytest.raises(InvalidRatesError):
            RateSet.from_parameters(0.0, th, 0.1)
        with pytest.raises(InvalidRatesError):
            RateSet.from_parameters(1.0, th, -0.01)
        with pytest.raises(InvalidRatesError):
            RateSet.from_parameters(1.0, th, 2.01)

    def test_nan_gamma0_is_refused_and_inf_reaches_the_generator(self):
        """A NaN gamma0 is no rate, an invalid input; an infinite one, which
        finite bath parameters can produce, is the generator's overflow, a
        numerical failure."""
        th = BathThermal(0.25)
        with pytest.raises(InvalidRatesError, match="^gamma0 must be positive, got nan$"):
            RateSet.from_parameters(math.nan, th, 0.1)
        rates = RateSet.from_parameters(math.inf, th, 0.1)
        with pytest.raises(NumericalFailureError, match="overflows double precision"):
            build_generator(ModelParams(1.0), rates)

    def test_anticorrelated_bath_allowed(self):
        # deficit up to 2 (f = -1) keeps the rate matrix positive
        rates = RateSet.from_parameters(1.0, BathThermal(0.0), 2.0)
        assert rates.gamma12_plus == pytest.approx(-1.0)


def test_build_rates_from_spectral_density():
    density = SpectralDensity.ohmic(0.1, 10.0)
    geom = BathGeometry(separation=0.1, dimension=2, velocity=1.0)
    th = BathThermal(0.05)
    rates = build_rates(density, th, geom, 1.0)
    assert rates.gamma0 == pytest.approx(2.0 * math.pi * density(1.0))
    assert rates.delta == pytest.approx(1.0 - special.j0(0.1), rel=1e-9)
    approx = build_rates(density, th, geom, 1.0, approx_delta=True)
    assert approx.delta == pytest.approx(0.01 / 4.0)


def test_build_rates_outside_support_fails():
    density = SpectralDensity.ohmic(0.1, 5.0, HARD_CUTOFF)
    with pytest.raises(InvalidRatesError):
        build_rates(density, BathThermal(0.0), BathGeometry(), 6.0)


class TestLambShiftCoefficients:
    """The two PV integrals behind the bath-induced Hamiltonian terms."""

    def test_closed_form_anchor_cold_common_bath(self):
        """Ohmic J with exponential cutoff, T=0, d=0.

        Partial fractions reduce both integrals to exponential-integral
        combinations (Ei and E1 at Delta/cutoff), giving for coupling 0.1,
        cutoff 10, Delta 1:

            A = 0.05 [e^{-0.1} Ei(0.1) - e^{0.1} E1(0.1)]
            B = 0.05 [-10 + (e^{-0.1} Ei(0.1) + e^{0.1} E1(0.1)) / 2]
        """
        density = SpectralDensity.ohmic(0.1, 10.0, EXPONENTIAL_CUTOFF)
        coeff_a, coeff_b = lamb_shift_coefficients(
            density, BathThermal(0.0), BathGeometry(separation=0.0), 1.0
        )
        ei, e1 = special.expi(0.1), special.exp1(0.1)
        a_exact = 0.05 * (math.exp(-0.1) * ei - math.exp(0.1) * e1)
        b_exact = 0.05 * (-10.0 + 0.5 * (math.exp(-0.1) * ei + math.exp(0.1) * e1))
        assert coeff_a == pytest.approx(a_exact, rel=1e-8)
        assert coeff_b == pytest.approx(b_exact, rel=1e-8)

    @pytest.mark.parametrize(
        "separation, velocity, cutoff, delta_freq",
        [(0.25, 2.0, 250.0, 25.0), (1.0, 1.0, 10.0, 1.0), (3.0, 1.0, 50.0, 2.0)],
    )
    def test_closed_form_anchor_hard_cutoff_1d(
        self, separation, velocity, cutoff, delta_freq
    ):
        """Ohmic J with hard cutoff c, 1D bath: B in sine and cosine integrals.

        B carries no thermal factor.  With k = d / v and
        w^2 / (D^2 - w^2) = -1 + (D/2) [1/(D - w) + 1/(D + w)],

            B = (g/2) [-sin(kc)/k + (D/2) (I_- + I_+)]
            I_- = sin(kD) [Si(k(c-D)) + Si(kD)] - cos(kD) [Ci(k(c-D)) - Ci(kD)]
            I_+ = cos(kD) [Ci(k(c+D)) - Ci(kD)] + sin(kD) [Si(k(c+D)) - Si(kD)]

        for coupling g and c > D.  The same formula gives the exact
        B = -0.0084341570784 for the oscillatory case of
        ``test_oscillatory_case_fails_loudly`` (d = 25, v = 1, c = 250,
        D = 1), which plain quadrature of the pole-subtracted integrand
        cannot yet reach.
        """
        k = separation / velocity
        si_minus, ci_minus = special.sici(k * (cutoff - delta_freq))
        si_plus, ci_plus = special.sici(k * (cutoff + delta_freq))
        si_0, ci_0 = special.sici(k * delta_freq)
        sin_kd, cos_kd = math.sin(k * delta_freq), math.cos(k * delta_freq)
        i_minus = sin_kd * (si_minus + si_0) - cos_kd * (ci_minus - ci_0)
        i_plus = cos_kd * (ci_plus - ci_0) + sin_kd * (si_plus - si_0)
        b_exact = 0.05 * (-math.sin(k * cutoff) / k + 0.5 * delta_freq * (i_minus + i_plus))

        density = SpectralDensity.ohmic(0.1, cutoff, HARD_CUTOFF)
        geom = BathGeometry(separation=separation, dimension=1, velocity=velocity)
        _, coeff_b = lamb_shift_coefficients(density, BathThermal(0.3), geom, delta_freq)
        assert coeff_b == pytest.approx(b_exact, rel=1e-12)

    def test_oscillatory_case_fails_loudly(self):
        """1D, hard cutoff 250, separation 25, Delta 1, N 0.25.

        After pole subtraction, cos(25 w) over (0, 250) still exhausts
        QUADPACK's 400 subdivisions; the estimate of B is then far from the
        exact -0.0084341570784, so the call must raise instead of returning
        a number.
        """
        density = SpectralDensity.ohmic(0.1, 250.0, HARD_CUTOFF)
        geom = BathGeometry(separation=25.0, dimension=1, velocity=1.0)
        with pytest.raises(
            NumericalFailureError,
            match=r"principal value B did not converge: estimate .*error estimate .*QUADPACK",
        ):
            lamb_shift_coefficients(density, BathThermal(0.25), geom, 1.0)

    @pytest.mark.parametrize("coupling", [1e-10, 1e-20])
    def test_oscillatory_case_fails_loudly_at_any_coupling(self, coupling):
        """The case above scaled down in coupling: the gate's absolute floor
        and QUADPACK's epsabs scale with J, so B still raises instead of
        passing on a first estimate far below any fixed floor (at 1e-20 a
        floor of 1e-13 accepts -5.1e-20 against the exact -8.4e-22)."""
        density = SpectralDensity.ohmic(coupling, 250.0, HARD_CUTOFF)
        geom = BathGeometry(separation=25.0, dimension=1, velocity=1.0)
        with pytest.raises(NumericalFailureError, match=r"principal value B did not converge"):
            lamb_shift_coefficients(density, BathThermal(0.25), geom, 1.0)

    @pytest.mark.parametrize(
        "cutoff_form, cutoff", [(EXPONENTIAL_CUTOFF, 5.0), (HARD_CUTOFF, 0.5)]
    )
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_coefficients_are_linear_in_the_coupling(self, dimension, cutoff_form, cutoff):
        """A and B are linear in J: at coupling 1e-20 they are 1e-19 times
        those at 0.1, also with the pole outside a hard cutoff at 0.5."""
        geom = BathGeometry(separation=0.7, dimension=dimension)
        th = BathThermal(0.3)
        strong = lamb_shift_coefficients(SpectralDensity.ohmic(0.1, cutoff, cutoff_form), th, geom, 1.0)
        weak = lamb_shift_coefficients(SpectralDensity.ohmic(1e-20, cutoff, cutoff_form), th, geom, 1.0)
        assert np.all(np.abs(strong) > 1e-3)
        assert np.array(weak) * 1e19 == pytest.approx(strong, rel=1e-12)

    def test_small_numerator_at_the_pole_keeps_a_reachable_tolerance(self):
        """A 1D trap bath (84 ions, Delta = 22.94 omega_t, cutoff 10 Delta)
        where B's numerator at the pole is 17 times below its peak, because
        J grows linearly to the cutoff and f(kappa d) is small at Delta.  An
        epsabs scaled by |g(Delta)| alone sits below QUADPACK's round-off
        there and B is refused; scaled by the integrand's size, A and B
        converge onto the fold oracle."""
        config = iontrap.TrapConfig(
            ion_count=84, rabi_ratio=22.939057126065013,
            ohmic_coupling=0.03025998866430586, target_ratio=0.8013607316683192,
        )
        result = iontrap.plan(config, lamb_shift=False)
        args = (result.spectral, result.thermal, result.geometry, config.rabi_ratio)
        assert lamb_shift_coefficients(*args) == pytest.approx(
            oracles.lamb_coefficients_folded(*args), rel=1e-9
        )

    def test_infinite_custom_dispersion_fails_loudly(self):
        """An infinite kappa makes every profile NaN, and B fails by name."""
        for dimension in (1, 2, 3):
            geom = BathGeometry(
                separation=1.0, dimension=dimension,
                dispersion=lambda w: math.inf if w > 3.0 else w,
            )
            with pytest.raises(NumericalFailureError, match="principal value B"):
                lamb_shift_coefficients(
                    SpectralDensity.ohmic(0.1, 10.0), BathThermal(0.1), geom, 1.0
                )

    @pytest.mark.parametrize(
        "occupation, separation, dimension, cutoff_form, cutoff, delta_freq",
        [
            (0.0, 0.0, 1, EXPONENTIAL_CUTOFF, 10.0, 1.0),
            (0.35, 0.8, 2, EXPONENTIAL_CUTOFF, 6.0, 1.7),
            (0.5, 0.25, 1, HARD_CUTOFF, 250.0, 25.0),
            (0.1, 2.0, 3, EXPONENTIAL_CUTOFF, 4.0, 0.8),
            # five nodes: J through np.interp, kinks at every node
            (0.3, 0.7, 2, TABULATED, None, 1.2),
        ],
    )
    def test_excision_route_matches_fold_oracle(
        self, occupation, separation, dimension, cutoff_form, cutoff, delta_freq
    ):
        """Two unrelated PV evaluations must agree to quadrature accuracy."""
        if cutoff_form == TABULATED:
            density = SpectralDensity.from_table(
                [0.0, 0.5, 1.5, 3.0, 6.0], [0.0, 0.04, 0.09, 0.05, 0.0]
            )
        else:
            density = SpectralDensity.ohmic(0.1, cutoff, cutoff_form)
        th = BathThermal(occupation)
        geom = BathGeometry(separation=separation, dimension=dimension, velocity=2.0)
        prod = lamb_shift_coefficients(density, th, geom, delta_freq)
        fold = oracles.lamb_coefficients_folded(density, th, geom, delta_freq)
        assert prod[0] == pytest.approx(fold[0], rel=1e-8, abs=1e-12)
        assert prod[1] == pytest.approx(fold[1], rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("exact_delta", [False, True])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_trap_box_matches_fold_oracle(self, dimension, exact_delta):
        """Seeded planner configs over the trap knobs the package tests.

        50 to 400 ions, Delta of 5 to 30 omega_t, alpha of 0.01 to 0.1 and
        R of 0.5 to 0.9, as in tests/test_iontrap.py and tests/test_cli.py.
        """
        rng = np.random.default_rng([dimension, exact_delta])
        for _ in range(2):
            config = iontrap.TrapConfig(
                ion_count=int(rng.integers(50, 401)),
                rabi_ratio=float(rng.uniform(5.0, 30.0)),
                ohmic_coupling=float(10.0 ** rng.uniform(-2.0, -1.0)),
                bath_dimension=dimension,
                target_ratio=float(rng.uniform(0.5, 0.9)),
            )
            result = iontrap.plan(config, exact_delta=exact_delta)
            fold = oracles.lamb_coefficients_folded(
                result.spectral, result.thermal, result.geometry, config.rabi_ratio
            )
            assert result.params.lamb_a == pytest.approx(fold[0], rel=1e-8, abs=1e-12)
            assert result.params.lamb_b == pytest.approx(fold[1], rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("nodes", [8, 10, 15, 30])
    def test_tabulated_density_matches_fold_oracle(self, nodes):
        """J = 0.05 w e^(-w/2) sampled on a uniform table: every node is a
        kink, and each one is a breakpoint of the quadrature."""
        omega = np.linspace(0.0, 6.0, nodes)
        density = SpectralDensity.from_table(omega, 0.05 * omega * np.exp(-omega / 2.0))
        th = BathThermal(0.3)
        geom = BathGeometry(separation=0.7, dimension=2, velocity=2.0)
        prod = lamb_shift_coefficients(density, th, geom, 1.2)
        fold = oracles.lamb_coefficients_folded(density, th, geom, 1.2)
        assert prod[0] == pytest.approx(fold[0], rel=1e-8, abs=1e-12)
        assert prod[1] == pytest.approx(fold[1], rel=1e-8, abs=1e-12)

    def test_dense_table_never_runs_out_of_subdivisions(self):
        """400 interior nodes, each a breakpoint: QUADPACK's subdivision
        limit grows with them, so the call returns a value or raises the
        typed error, never quad's bare breakpoint-limit ValueError."""
        omega = np.linspace(0.0, 6.0, 402)
        density = SpectralDensity.from_table(omega, 0.05 * omega * np.exp(-omega / 2.0))
        geom = BathGeometry(separation=0.7, dimension=2, velocity=2.0)
        th = BathThermal(0.3)
        try:
            prod = lamb_shift_coefficients(density, th, geom, 1.2)
        except NumericalFailureError:
            return
        fold = oracles.lamb_coefficients_folded(density, th, geom, 1.2)
        assert prod == pytest.approx(fold, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_reference_trap_integrand_calls(self, monkeypatch, dimension):
        """Both principal values at the reference trap config take at most
        200 integrand calls together.  QUADPACK's Cauchy weight (QAWC)
        took 490 to 530 there.

        Each integrand call evaluates J once, so J's calls are counted.
        """
        result = iontrap.plan(iontrap.TrapConfig(bath_dimension=dimension), lamb_shift=False)
        calls = []
        scalar = SpectralDensity._scalar

        def counting(self):
            density = scalar(self)

            def counted(omega):
                calls.append(omega)
                return density(omega)

            return counted

        monkeypatch.setattr(SpectralDensity, "_scalar", counting)
        lamb_shift_coefficients(
            result.spectral, result.thermal, result.geometry, iontrap.default_config().rabi_ratio
        )
        assert 0 < len(calls) <= 200

    @pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
    def test_tiny_splittings_scale_exactly(self, scale):
        """With J = (g/2) w cut at 10 Delta and kappa = w / Delta, A and B
        are proportional to Delta.  The integrands never multiply two
        frequencies, so nothing underflows down to the smallest normal
        splitting; at a subnormal one the coefficients are refused."""

        def coefficients(delta_freq):
            density = SpectralDensity.ohmic(0.1, 10.0 * delta_freq, HARD_CUTOFF)
            geom = BathGeometry(separation=0.5, dimension=3, velocity=delta_freq)
            return lamb_shift_coefficients(density, BathThermal(0.3), geom, delta_freq)

        unit = coefficients(1.0)
        scaled = coefficients(scale)
        assert scaled[0] / scale == pytest.approx(unit[0], rel=1e-12)
        assert scaled[1] / scale == pytest.approx(unit[1], rel=1e-12)
        with pytest.raises(NumericalFailureError, match="principal value A did not converge"):
            coefficients(1e-310)

    def test_tiny_occupation_stays_finite(self):
        """T = Delta / 50: N = 1.9e-22, and R = 1/(1 + 2N) rounds to 1.

        artanh(R) would then be infinite.  A must match the fold oracle and
        exceed its N = 0 value by the leading low-temperature term
        4 int J(w) n(w) / Delta dw = (2 g / Delta) (pi^2 / 6) T^2.
        """
        thermal = BathThermal.from_temperature(1.0, 0.02)
        assert thermal.occupation > 0.0 and thermal.ratio == 1.0
        density = SpectralDensity.ohmic(0.1, 10.0)
        geom = BathGeometry(separation=0.5, dimension=3)
        coeff_a, _ = lamb_shift_coefficients(density, thermal, geom, 1.0)
        cold_a, _ = lamb_shift_coefficients(density, BathThermal(0.0), geom, 1.0)
        fold_a, _ = oracles.lamb_coefficients_folded(density, thermal, geom, 1.0)
        assert coeff_a == pytest.approx(fold_a, rel=1e-8, abs=1e-12)
        assert coeff_a - cold_a == pytest.approx(2.0 * 0.1 * math.pi ** 2 / 6.0 * 0.02 ** 2, rel=1e-2)

    def test_field_shift_ignores_separation(self):
        density = SpectralDensity.ohmic(0.1, 10.0)
        th = BathThermal(0.2)
        near = lamb_shift_coefficients(density, th, BathGeometry(separation=0.0), 1.0)
        far = lamb_shift_coefficients(
            density, th, BathGeometry(separation=3.0, dimension=2), 1.0
        )
        assert near[0] == pytest.approx(far[0], rel=1e-12)
        assert near[1] != pytest.approx(far[1], rel=1e-3)

    def test_rejects_nonpositive_frequency(self):
        density = SpectralDensity.ohmic(0.1, 10.0)
        with pytest.raises(ValueError):
            lamb_shift_coefficients(density, BathThermal(0.0), BathGeometry(), 0.0)

    def test_pole_outside_support_needs_no_pv(self):
        # hard cutoff below the pole: a plain integral, still well-defined
        density = SpectralDensity.ohmic(0.1, 0.5, HARD_CUTOFF)
        coeff_a, _ = lamb_shift_coefficients(
            density, BathThermal(0.0), BathGeometry(), 1.0
        )
        fold_a, _ = oracles.lamb_coefficients_folded(
            density, BathThermal(0.0), BathGeometry(), 1.0
        )
        assert coeff_a == pytest.approx(fold_a, rel=1e-9)



_NAN = math.nan


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: thermal_occupation(_NAN, 1.0), "frequency must be positive"),
        (lambda: thermal_occupation(1.0, _NAN), "temperature must be non-negative"),
        (lambda: correlation_delta(BathGeometry(), _NAN), "frequency must be positive"),
        (lambda: SpectralDensity.ohmic(_NAN, 10.0), "ohmic coupling must be non-negative"),
        (lambda: SpectralDensity.ohmic(0.1, _NAN), "a positive cutoff frequency is required"),
        (lambda: BathGeometry(velocity=_NAN), "velocity must be positive"),
        (
            lambda: lamb_shift_coefficients(
                SpectralDensity.ohmic(0.1, 10.0), BathThermal(0.3), BathGeometry(), _NAN
            ),
            "frequency must be positive",
        ),
        (lambda: dynamics.survival_time(0.9, -1.0, _NAN), "slow_rate must be non-negative"),
        (lambda: dynamics.survival_time(0.9, _NAN, 0.05), "must not be NaN"),
        (lambda: dynamics.survival_time(_NAN, -1.0, 0.05), "must not be NaN"),
        (lambda: dynamics.generation_condition(0.9, _NAN), "must not be NaN"),
        (lambda: dynamics.thermal_bath_condition(_NAN, 1.0), "inverse temperatures"),
        (lambda: dynamics.thermal_bath_condition(1.0, _NAN), "inverse temperatures"),
        (lambda: dynamics.thermal_bath_condition_asymptotic(_NAN, 1.0), "inverse temperatures"),
    ],
    ids=[
        "occupation-frequency",
        "occupation-temperature",
        "correlation-delta",
        "ohmic-coupling",
        "ohmic-cutoff",
        "geometry-velocity",
        "lamb-shift",
        "survival-time",
        "survival-time-lambda",
        "survival-time-ratio",
        "generation-condition",
        "bath-condition-bath",
        "bath-condition-qubits",
        "bath-condition-asymptotic",
    ],
)
def test_nan_is_refused_by_the_range_guards(call, message):
    """A NaN argument fails every range comparison, so each guard refuses
    what is not in range, and NaN gets the guard's own ``ValueError``
    instead of a NaN result, a verdict of ``False`` or a quadrature
    failure."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: thermal_occupation(1.0, math.inf),
            "temperature must be non-negative and finite, got inf",
        ),
        (
            lambda: BathThermal.from_temperature(1.0, math.inf),
            "temperature must be non-negative and finite, got inf",
        ),
        (
            lambda: SpectralDensity.ohmic(0.1, math.inf),
            "cutoff frequency is required, and a finite one",
        ),
        (
            lambda: SpectralDensity.ohmic(math.inf, 10.0),
            "coupling must be non-negative and finite",
        ),
        (
            lambda: correlation_delta(BathGeometry(0.5, 2), math.inf),
            "frequency must be positive and finite, got inf",
        ),
        (
            lambda: lamb_shift_coefficients(
                SpectralDensity.ohmic(0.1, 10.0), BathThermal(0.3), BathGeometry(), math.inf
            ),
            "frequency must be positive and finite, got inf",
        ),
    ],
    ids=[
        "occupation",
        "from-temperature",
        "ohmic-cutoff",
        "ohmic-coupling",
        "correlation-delta",
        "lamb-shift",
    ],
)
def test_infinity_is_refused_by_the_range_guards(call, message):
    """An infinite temperature, cutoff, coupling or splitting has no finite
    result (a division by zero, an unbounded quadrature, infinite rates or
    a NaN profile), so the guard refuses it with its ``ValueError``."""
    with pytest.raises(ValueError, match=message):
        call()
