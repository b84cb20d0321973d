"""Ion-chain feasibility planner: unit mapping, anchors, report formats."""

import json
import math

import numpy as np
import pytest

import oracles
from spinbath.bath import RateSet
from spinbath.errors import NumericalFailureError
from spinbath.iontrap import (
    FeasibilityReport,
    TrapConfig,
    default_config,
    plan,
    report_to_json,
    report_to_text,
    temperature_requirement,
)
from spinbath.liouvillian import ModelParams, build_generator


class TestTrapConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.ion_count == 100
        assert cfg.rabi_ratio == 25.0
        assert cfg.ohmic_coupling == 0.1
        assert cfg.target_ratio == 0.5
        assert cfg.bath_dimension == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trap_frequency": 0.0},
            {"ion_count": 1},
            {"ion_count": 2.5},
            {"rabi_ratio": -1.0},
            {"rabi_ratio": 100.0},  # must stay below ion_count
            {"ohmic_coupling": -0.1},
            {"addressed_spacing": 0},
            {"bath_dimension": 4},
            {"target_ratio": 1.0},
            {"target_ratio": 0.0},
            {"ion_count": math.inf},
            {"addressed_spacing": math.nan},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            TrapConfig(**overrides)

    @pytest.mark.parametrize("key", ["trap_frequency", "rabi_ratio", "ohmic_coupling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knobs_are_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TrapConfig(**{key: value})
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TrapConfig.from_mapping({key: str(value)})

    def test_from_mapping(self):
        cfg = TrapConfig.from_mapping(
            {"ion_count": "200", "rabi_ratio": "30", "target_ratio": "0.8"}
        )
        assert cfg.ion_count == 200
        assert isinstance(cfg.ion_count, int)
        assert cfg.rabi_ratio == 30.0
        assert cfg.target_ratio == 0.8
        # untouched knobs keep their defaults
        assert cfg.ohmic_coupling == 0.1
        assert TrapConfig.from_mapping({"ion_count": 200.0}).ion_count == 200

    @pytest.mark.parametrize(
        "mapping",
        [
            {"ion_count": "100.7"},
            {"ion_count": 100.7},
            {"addressed_spacing": 2.9},
            {"bath_dimension": "2.5"},
        ],
    )
    def test_from_mapping_rejects_non_integral_counts(self, mapping):
        with pytest.raises(ValueError, match="must be an integer"):
            TrapConfig.from_mapping(mapping)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="valid keys"):
            TrapConfig.from_mapping({"rabi": 25.0})


class TestPlan:
    def test_reference_numbers(self):
        """The 100-ion reference point, frozen to six figures."""
        result = plan(default_config())
        report = result.report
        assert report.delta == pytest.approx(0.03125, abs=1e-12)
        assert report.gamma0 == pytest.approx(2.5 * math.pi, rel=1e-12)
        assert report.revival_time == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert report.t_peak_estimate == pytest.approx(1.0 / (2.5 * math.pi))
        assert report.t_c == pytest.approx(0.560261, abs=5e-7)
        assert report.peak_concurrence == pytest.approx(2.0 / 13.0, rel=1e-12)
        assert report.feasible is True

    def test_transient_fits_the_revival_window(self):
        report = plan(default_config()).report
        # fifty golden-rule times land on the revival window within 2%
        assert 50.0 / report.gamma0 == pytest.approx(
            report.revival_time, rel=0.02
        )
        assert max(report.t_peak_estimate, report.t_c) < report.revival_time

    def test_exact_deficit_route(self):
        report = plan(default_config(), exact_delta=True).report
        assert report.delta == pytest.approx(1.0 - math.cos(0.25), rel=1e-12)
        assert report.delta == pytest.approx(0.0310876, abs=5e-7)

    def test_model_inputs(self):
        result = plan(default_config())
        assert isinstance(result.rates, RateSet)
        assert result.rates.gamma0 == pytest.approx(2.5 * math.pi, rel=1e-12)
        assert result.rates.occupation == pytest.approx(0.5, rel=1e-12)
        assert result.params.delta_field == 25.0
        assert result.geometry.separation == pytest.approx(0.25)
        assert result.thermal.ratio == pytest.approx(0.5)
        # hard-cutoff Ohmic chain spectrum, evaluated at the splitting
        assert result.spectral(25.0) == pytest.approx(1.25, rel=1e-12)
        assert result.spectral(251.0) == 0.0

    def test_lamb_strengths(self):
        result = plan(default_config())
        assert result.params.lamb_a == pytest.approx(-2.737837, abs=5e-6)
        assert result.params.lamb_b == pytest.approx(-2.542094, abs=5e-6)
        bare = plan(default_config(), lamb_shift=False)
        assert bare.params.lamb_a == 0.0
        assert bare.params.lamb_b == 0.0

    def test_planned_params_are_the_model(self):
        """The planned strengths decide the generator: bare without the
        Lamb shift, Lamb-dressed with it, and never an exchange term."""
        config = default_config()
        bare, dressed = plan(config, lamb_shift=False), plan(config)
        assert bare.params == ModelParams(config.rabi_ratio)
        assert dressed.params.exchange_xi == 0.0
        generators = []
        for result in (bare, dressed):
            rates = result.rates
            reference = oracles.liouvillian_alpha_space(
                config.rabi_ratio,
                rates.gamma0,
                rates.occupation,
                rates.delta,
                lamb_a=result.params.lamb_a,
                lamb_b=result.params.lamb_b,
            )
            reference[0] = 0.0
            entries = build_generator(result.params, rates).entries
            assert np.max(np.abs(entries - reference)) < 1e-12 * np.max(np.abs(reference))
            generators.append(entries)
        assert np.max(np.abs(generators[1] - generators[0])) > 1.0

    def test_decoupled_chain_reports_infeasible(self):
        result = plan(TrapConfig(ohmic_coupling=0.0))
        report = result.report
        assert report.gamma0 == 0.0
        assert report.feasible is False
        assert report.t_c == math.inf
        assert report.t_peak_estimate == math.inf
        assert result.rates is None
        assert result.params.lamb_a == 0.0
        assert any("no dissipation" in note for note in report.diagnostics)

    def test_weak_drive_outlives_the_revival(self):
        """Tiny deficit stretches t_c far past one revival: infeasible."""
        report = plan(TrapConfig(rabi_ratio=5.0, ohmic_coupling=0.01)).report
        assert report.feasible is False
        assert report.t_c > report.revival_time
        assert any("does not fit" in note for note in report.diagnostics)

    def test_underflowing_slow_rate_gives_an_infinite_window(self):
        """deficit * gamma0 underflows to zero although both are positive."""
        report = plan(TrapConfig(ohmic_coupling=1e-300, rabi_ratio=1e-12)).report
        assert report.delta > 0.0 and report.gamma0 > 0.0
        assert report.delta * report.gamma0 == 0.0
        assert report.feasible is False
        assert any("= inf/omega_t exceeds" in note for note in report.diagnostics)

    @pytest.mark.parametrize("rabi_ratio", [1e-310, 1e-320])
    def test_subnormal_splitting_fails_by_name(self, rabi_ratio):
        """A subnormal pole underflows the Lamb integrand; the principal
        value is refused with a typed error."""
        config = TrapConfig(rabi_ratio=rabi_ratio)
        with pytest.raises(NumericalFailureError, match="principal value A"):
            plan(config)
        assert plan(config, lamb_shift=False).report.feasible is False

    @pytest.mark.parametrize("rabi_ratio", [1e-323, 5e-324])
    def test_underflowing_spectral_density_fails_by_name(self, rabi_ratio):
        """J(Delta) = alpha Delta / 2 underflows to zero at a positive
        coupling: a numerical failure; with no coupling, no dissipation."""
        with pytest.raises(NumericalFailureError, match="underflows to 0.0"):
            plan(TrapConfig(rabi_ratio=rabi_ratio), lamb_shift=False)
        report = plan(TrapConfig(rabi_ratio=rabi_ratio, ohmic_coupling=0.0)).report
        assert report.feasible is False
        assert any("no dissipation" in note for note in report.diagnostics)

    def test_long_chain_scales_the_window(self):
        short = plan(TrapConfig(ion_count=50)).report
        long = plan(TrapConfig(ion_count=400)).report
        assert short.revival_time == pytest.approx(math.pi)
        assert long.revival_time == pytest.approx(8.0 * math.pi)
        # longer chain, finer deficit: delta ~ 1/count^2
        assert long.delta == pytest.approx(short.delta / 64.0, rel=1e-12)


def test_temperature_requirement():
    kelvin = temperature_requirement(default_config())
    assert kelvin == pytest.approx(1.092115e-3, rel=1e-6)
    # colder target ratio needs a colder bath
    colder = temperature_requirement(TrapConfig(target_ratio=0.9))
    assert colder < kelvin


def test_temperature_keeps_its_product_order_where_it_is_exact():
    """hbar * Delta is formed first wherever it is a normal float, so the
    temperatures keep their last bits; the reordered form is only for
    splittings where that product underflows."""
    hbar, k_b = 6.62607015e-34 / (2 * math.pi), 1.380649e-23
    rng = np.random.default_rng(17)
    for _ in range(200):
        config = TrapConfig(
            trap_frequency=float(10.0 ** rng.uniform(3.0, 9.0)),
            rabi_ratio=float(10.0 ** rng.uniform(-260.0, 1.0)),
            target_ratio=float(rng.uniform(0.01, 0.99)),
        )
        splitting = config.rabi_ratio * config.trap_frequency
        expected = hbar * splitting / (2.0 * k_b * math.atanh(config.target_ratio))
        assert temperature_requirement(config) == expected
    tiny = TrapConfig(rabi_ratio=1e-300)
    assert temperature_requirement(tiny) == pytest.approx(
        1e-300 * temperature_requirement(TrapConfig(rabi_ratio=1.0)), rel=1e-12
    )


def test_temperature_at_a_subnormal_target_ratio():
    """2 k_B artanh R is subnormal at R = 1e-310; the temperature
    hbar Delta / (2 k_B artanh R) is still a normal float, and one that
    overflows is refused by name."""
    config = TrapConfig(target_ratio=1e-310)
    hbar, k_b = 6.62607015e-34 / (2 * math.pi), 1.380649e-23
    splitting = config.rabi_ratio * config.trap_frequency
    expected = hbar * splitting / k_b / 2.0 / 1e-310
    assert temperature_requirement(config) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError, match="bath temperature overflows"):
        temperature_requirement(TrapConfig(target_ratio=1e-320))


class TestReports:
    def test_json_payload(self):
        result = plan(default_config())
        payload = json.loads(report_to_json(result.report, 1.0921e-3))
        assert payload["delta"] == pytest.approx(0.03125)
        assert payload["gamma0_omega_t"] == pytest.approx(2.5 * math.pi)
        assert payload["feasible"] is True
        assert payload["bath_temperature_kelvin"] == pytest.approx(1.0921e-3)
        assert isinstance(payload["diagnostics"], list)
        # key order is frozen for byte-determinism
        text = report_to_json(result.report)
        assert text.index('"delta"') < text.index('"feasible"') < text.index('"gamma0_omega_t"')

    def test_json_infinity_sentinel(self):
        report = plan(TrapConfig(ohmic_coupling=0.0)).report
        payload = json.loads(report_to_json(report))
        assert payload["t_c_omega_t"] == "inf"
        assert payload["t_peak_estimate_omega_t"] == "inf"

    def test_text_rendering(self):
        report = plan(default_config()).report
        text = report_to_text(report, 1.0921e-3)
        assert text.endswith("\n")
        assert "feasible                    = yes" in text
        assert "0.0010921 K" in text
        infeasible = report_to_text(plan(TrapConfig(ohmic_coupling=0.0)).report)
        assert "feasible                    = no" in infeasible
        assert "note:" in infeasible

    def test_report_is_frozen(self):
        report = plan(default_config()).report
        with pytest.raises(AttributeError):
            report.delta = 1.0
        assert isinstance(report, FeasibilityReport)
        assert isinstance(report.diagnostics, tuple)
