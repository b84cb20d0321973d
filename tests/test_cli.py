"""Command-line behavior: exit codes, formats, determinism, overrides."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import skip_off_recorded_stack
import spinbath
from spinbath import cli, errors
from spinbath.cli import main
from spinbath.errors import DefectiveSpectrumError, DegenerateSpectrumError, NumericalFailureError
from spinbath.iontrap import default_config, plan, report_to_json, temperature_requirement


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "--scenario" in out


def test_missing_scenario_is_usage_error(capsys):
    code, _, _ = invoke(capsys)
    assert code == 2


def test_unknown_scenario_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "--scenario", "fig3")
    assert code == 2


def test_unknown_parameter_lists_valid_keys(capsys):
    code, _, err = invoke(
        capsys, "--scenario", "spectrum", "--set", "detla=0.05"
    )
    assert code == 2
    assert "unknown parameter 'detla'" in err
    assert "valid keys" in err
    assert "delta_field" in err


def test_malformed_override_is_usage_error(capsys):
    code, _, err = invoke(capsys, "--scenario", "spectrum", "--set", "delta")
    assert code == 2
    assert "KEY=VALUE" in err


def test_bad_value_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "--scenario", "spectrum", "--set", "r=warm"
    )
    assert code == 2
    assert "bad value" in err


@pytest.mark.parametrize(
    "scenario, overrides, message",
    [
        ("iontrap", ["exact_delta=maybe"], "bad value for 'exact_delta': expected a boolean, got 'maybe'"),
        ("sweep", ["delta_values=,"], "bad value for 'delta_values': expected a comma-separated list of numbers"),
        ("sweep", ["lambda_values=2"], "lambda_values must lie in [-3, 1]"),
        ("fig1-surface", ["r_points=0"], "r_points must be >= 1 and lt_points >= 2"),
        ("fig1-surface", ["lt_points=1"], "r_points must be >= 1 and lt_points >= 2"),
        ("fig1-surface", ["r_min=0.9", "r_max=0.5"], "need 0 < r_min <= r_max < 1"),
    ],
    ids=["bool", "empty-list", "lambda", "r_points", "lt_points", "r-order"],
)
def test_invalid_values_are_usage_errors(capsys, scenario, overrides, message):
    argv = ["--scenario", scenario]
    for override in overrides:
        argv += ["--set", override]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "spectrum.csv"
    code, out, err = invoke(capsys, "--scenario", "spectrum", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_out_of_range_ratio_is_usage_error(capsys):
    code, _, err = invoke(capsys, "--scenario", "spectrum", "--set", "r=1.5")
    assert code == 2
    assert "(0, 1]" in err


def test_degenerate_spectrum_is_numerical_failure(capsys):
    code, _, err = invoke(capsys, "--scenario", "spectrum", "--set", "delta=0")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize(
    "scenario, overrides, reason",
    [
        pytest.param(
            "spectrum", ("delta=0",),
            "expected exactly one zero mode, found 2 at delta = 0.0 (perfectly correlated baths)",
            id="0",
        ),
        pytest.param(
            "spectrum", ("delta=1",),
            "two slow-mode candidates are degenerate at delta = 1.0 (independent baths)",
            id="1",
        ),
        pytest.param(
            "fig2-trajectories", ("delta=0.9999999999",),
            "two oscillatory-pair candidates are degenerate at delta = 0.9999999999 "
            "(independent baths)",
            id="1-1e-10",
        ),
        pytest.param(
            "spectrum", ("delta=2",),
            "expected exactly one zero mode, found 2 at delta = 2.0 (perfectly "
            "anti-correlated baths, the common bath's dual under delta -> 2 - delta)",
            id="2",
        ),
        pytest.param(
            "spectrum", ("delta=0", "lamb_b=1e10"),
            "expected exactly one zero mode, found 2 at delta = 0.0 (perfectly correlated baths)",
            id="0-1e10",
        ),
        pytest.param(
            "spectrum", ("delta=2", "lamb_b=1e12"),
            "expected exactly one zero mode, found 2 at delta = 2.0 (perfectly "
            "anti-correlated baths, the common bath's dual under delta -> 2 - delta)",
            id="2-1e12",
        ),
    ],
)
def test_degenerate_deficits_are_named(capsys, scenario, overrides, reason):
    """The common bath (delta = 0), independent baths (delta = 1) and the
    common bath's anti-correlated dual (delta = 2) double a mode; the
    refusal names the deficit.  The doubled zero mode is refused even where
    round-off at a huge coherent strength splits it by more than 1e-9."""
    argv = ["--scenario", scenario]
    for override in overrides:
        argv += ["--set", override]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"numerical failure: {reason}\n"


@pytest.mark.parametrize("override", ["lamb_b=1.7e308", "lamb_a=-1e308", "exchange_xi=1e308"])
def test_overflowing_generator_is_numerical_failure(capsys, override):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, "--scenario", "spectrum", "--set", override)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: generator has non-finite entries")
    assert caught == []


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(("lamb_b=1e18",), id="1e18"),
        pytest.param(("lamb_b=1e30",), id="1e30"),
        pytest.param(("delta=0", "lamb_b=1e18"), id="0-1e18"),
    ],
)
def test_growing_modes_are_numerical_failures(capsys, overrides):
    """A spectrum with growing modes, from eigensolver error at a huge
    coherent strength, is refused by name rather than printed; at the
    common bath too, before its doubled zero mode."""
    argv = ["--scenario", "spectrum"]
    for override in overrides:
        argv += ["--set", override]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: growing mode (")
    assert caught == []


@pytest.mark.parametrize(
    "argv",
    [
        ("fig1-surface", "--set", "lt_max=1.7e308"),
        ("fig1-surface", "--set", "lt_max=1e307", "--set", "r_points=2"),
        ("fig2-inset", "--set", "r=1e-12", "--set", "horizon_factor=1.7e308"),
        ("fig2-trajectories", "--set", "horizon_factor=1e306"),
    ],
    ids=" ".join,
)
def test_overflowing_horizon_is_usage_error(capsys, argv):
    """A horizon at which some mode's exponent overflows is refused before
    any array is scaled by it, so numpy warns nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, "--scenario", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: time horizon ")
    assert "overflows the exponent at rate" in err
    assert caught == []


@pytest.mark.parametrize("points", ["0", "1"])
def test_short_time_grid_is_usage_error(capsys, points):
    """A grid needs t = 0 and at least two log-spaced samples to reach its
    horizon."""
    code, out, err = invoke(
        capsys, "--scenario", "fig2-trajectories", "--set", f"points={points}"
    )
    assert (code, out) == (2, "")
    assert err == f"error: points must be >= 2, got {points}\n"


def test_ill_conditioned_figure_is_numerical_failure(capsys):
    """At R = 1 and deficit 1e-6 the spectrum labels, but its eigenbasis has
    a condition number of 7e6: the figure's mode sum refuses it by name."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(
            capsys, "--scenario", "fig2-trajectories", "--set", "r=1", "--set", "delta=1e-6"
        )
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: eigenvector matrix has condition number ")
    assert err.endswith(" above 1e+06; too ill-conditioned for a mode sum\n")
    assert caught == []


@pytest.mark.parametrize(
    "error",
    [
        NumericalFailureError("quadrature"),
        DegenerateSpectrumError("two zero modes"),
        DefectiveSpectrumError("singular eigenvectors"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_numerical_family_exits_three(capsys, monkeypatch, error):
    def fail(generator):
        raise error

    monkeypatch.setattr(cli, "classify_spectrum", fail)
    code, out, err = invoke(capsys, "--scenario", "spectrum")
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: {error}\n"


_ERROR_TYPES = [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, Exception)
]


@pytest.mark.parametrize("error_type", _ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_type_belongs_to_one_exit_code(capsys, monkeypatch, error_type):
    """Each spinbath error is an invalid input (a ValueError, exit 2) or a
    numerical failure (a NumericalFailureError, exit 3), never both."""
    assert issubclass(error_type, ValueError) != issubclass(error_type, NumericalFailureError)

    def fail(generator):
        raise error_type("probe")

    monkeypatch.setattr(cli, "classify_spectrum", fail)
    code, out, err = invoke(capsys, "--scenario", "spectrum")
    assert out == ""
    if issubclass(error_type, ValueError):
        assert (code, err) == (2, "error: probe\n")
    else:
        assert (code, err) == (3, "numerical failure: probe\n")


@pytest.mark.parametrize(
    "error", [RecursionError("deep"), NotImplementedError("later")],
    ids=lambda exc: type(exc).__name__,
)
def test_other_runtime_errors_keep_their_traceback(monkeypatch, error):
    """Only spinbath's numerical family is a numerical failure; any other
    RuntimeError is a bug and propagates."""

    def fail(generator):
        raise error

    monkeypatch.setattr(cli, "classify_spectrum", fail)
    with pytest.raises(type(error)):
        main(["--scenario", "spectrum"])


# The console script is checked by launching the [project.scripts] target in a
# fresh interpreter the way the wrapper that pip generates does, so no install
# and no PATH entry is needed. PYTHONPATH leads with the directory of the
# imported package, so the subprocess runs the code under test.
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBPROCESS_TIMEOUT_S = 120


def _launch(*command):
    env = dict(os.environ)
    package_root = str(Path(spinbath.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    return subprocess.run(
        command, capture_output=True, text=True, env=env,
        timeout=SUBPROCESS_TIMEOUT_S,
    )


def run_entry_point(*argv):
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as stream:
        target = tomllib.load(stream)["project"]["scripts"]["spinbath"]
    launcher = (
        "import importlib.metadata, sys; "
        f"sys.exit(importlib.metadata.EntryPoint('spinbath', {target!r}, "
        "'console_scripts').load()())"
    )
    return _launch(sys.executable, "-c", launcher, *argv)


def test_console_script_installed():
    proc = run_entry_point("--scenario", "sweep")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("delta,R,lambda")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("--scenario", "fig3"), 2, ""),
        (("--scenario", "spectrum", "--set", "delta=0"), 3, "numerical failure"),
    ],
    ids=["unknown-scenario", "degenerate-spectrum"],
)
def test_console_script_exit_codes(argv, code, message):
    proc = run_entry_point(*argv)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr


def test_module_entry_point(capsys):
    """``python -m spinbath.cli`` runs a scenario like the console script."""
    _, expected, _ = invoke(capsys, "--scenario", "sweep")
    proc = _launch(sys.executable, "-m", "spinbath.cli", "--scenario", "sweep")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    proc = _launch(
        sys.executable, "-m", "spinbath.cli", "--scenario", "sweep", "--set", "nope=1"
    )
    assert proc.returncode == 2
    assert "unknown parameter 'nope'" in proc.stderr


def test_import_loads_no_scipy():
    """scipy is imported only where it is called, never by importing the
    package or its command line."""
    proc = _launch(
        sys.executable, "-c",
        "import sys, spinbath, spinbath.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_scipy_free_runs_load_no_scipy():
    """The figure, spectrum and sweep scenarios at their defaults, the trap
    planner without Lamb shifts, the common-bath propagation (deficit 0,
    R = 0.9) and the numeric survival check, both at the lifetime reference
    point (deficit 0.05, R = 0.9, splitting 10, Lambda = -1) and for a state
    that never becomes entangled (maximally mixed, R = 0.7, deficit 0.05),
    reach no scipy call site."""
    script = """
import contextlib, io, sys
from spinbath import (BathThermal, ModelParams, RateSet, build_generator,
                      default_time_grid, maximally_mixed, propagate,
                      state_for_correlation, survival_report)
from spinbath.cli import main
for argv in (["fig1-surface"], ["fig2-trajectories"], ["fig2-inset"], ["spectrum"],
             ["sweep"], ["iontrap", "--set", "lamb_shift=false", "--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--scenario", *argv]) == 0, argv
def generator(ratio, deficit):
    rates = RateSet.from_parameters(1.0, BathThermal.from_ratio(ratio), deficit)
    return build_generator(ModelParams(10.0), rates)
propagate(generator(0.9, 0.0), state_for_correlation(-1.0), default_time_grid(1.0, 10.0, 400))
report = survival_report(generator(0.9, 0.05), state_for_correlation(-1.0), numeric=True)
assert 0.0 < report.t_c_numeric < float("inf"), report
report = survival_report(generator(0.7, 0.05), maximally_mixed(), numeric=True)
assert report.t_c_numeric == 0.0, report
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    proc = _launch(sys.executable, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(
    shutil.which("spinbath") is None, reason="no spinbath executable on PATH"
)
def test_console_script_on_path():
    proc = _launch("spinbath", "--scenario", "sweep")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("delta,R,lambda")


# ---------------------------------------------------------------------------
# Spectrum scenario
# ---------------------------------------------------------------------------


def test_spectrum_csv_table(capsys):
    code, out, _ = invoke(capsys, "--scenario", "spectrum")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,label,re,im"
    assert len(lines) == 17
    labels = [line.split(",")[1] for line in lines[1:]]
    assert labels[0] == "thermal"
    assert labels[1] == "slow"
    assert labels[2] == labels[3] == "oscillatory"
    assert labels[4:] == ["fast"] * 12
    # thermal mode is the exact zero; the slow rate matches (1+3N) delta
    assert lines[1].split(",")[2] == "0"
    assert float(lines[2].split(",")[2]) == pytest.approx(-0.0582587, abs=5e-5)
    assert float(lines[3].split(",")[3]) == pytest.approx(10.0, abs=1e-3)


def test_spectrum_json_schema(capsys):
    code, out, _ = invoke(capsys, "--scenario", "spectrum", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma0"] == 1.0
    assert payload["delta"] == 0.05
    assert len(payload["modes"]) == 16
    assert payload["fast_violations"] == []
    assert payload["modes"][0]["label"] == "thermal"
    assert len(payload["modes"][0]["right_re"]) == 16


def test_spectrum_dressed_by_strength(capsys):
    code, out, _ = invoke(capsys, "--scenario", "spectrum", "--set", "lamb_b=2.0")
    assert code == 0
    dressed_im = float(out.strip().split("\n")[3].split(",")[3])
    # the exchange-like dressing shifts the oscillation frequency
    assert abs(dressed_im - 10.0) > 0.5


# ---------------------------------------------------------------------------
# Figure scenarios
# ---------------------------------------------------------------------------


def test_fig2_trajectories_csv(capsys):
    code, out, _ = invoke(
        capsys, "--scenario", "fig2-trajectories", "--set", "points=60"
    )
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["t_gamma0", "t_lambda1"]
    for name in ("singlet", "z_up_down", "mixed", "triplet"):
        assert f"c_num_{name}" in header
        assert f"c_ana_{name}" in header
    assert len(lines) == 62  # header + t=0 + 60 log-spaced points

    data = np.genfromtxt(out.strip().split("\n"), delimiter=",", names=True)
    # scaled-time column is consistent with the slow rate
    slow = data["t_lambda1"][-1] / data["t_gamma0"][-1]
    assert slow == pytest.approx(0.0582587, rel=1e-4)
    # the singlet starts fully entangled and the closed form agrees late
    assert data["c_num_singlet"][0] == pytest.approx(1.0, abs=1e-9)
    late = data["t_gamma0"] > 3.0
    for name in ("singlet", "z_up_down", "mixed", "triplet"):
        gap = np.abs(data[f"c_num_{name}"][late] - data[f"c_ana_{name}"][late])
        assert np.max(gap) < 0.02


def test_fig2_inset_runs_dressed(capsys):
    code, out, _ = invoke(
        capsys, "--scenario", "fig2-inset", "--set", "points=40"
    )
    assert code == 0
    data = np.genfromtxt(out.strip().split("\n"), delimiter=",", names=True)
    late = data["t_gamma0"] > 5.0
    gap = np.abs(data["c_num_z_up_down"][late] - data["c_ana_z_up_down"][late])
    assert np.max(gap) < 0.02


def test_fig1_surface_grid(capsys):
    code, out, _ = invoke(
        capsys,
        "--scenario",
        "fig1-surface",
        "--set",
        "r_points=3",
        "--set",
        "lt_points=5",
        "--set",
        "r_min=0.5",
        "--set",
        "r_max=0.9",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,lambda1_t,concurrence_numeric"
    assert len(lines) == 16  # header + 3 x 5 grid
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == 0.0
    # R = 0.5: the buildup (~1/gamma0) outlasts the survival window, so the
    # product state never entangles and the whole block is zero
    assert all(float(line.split(",")[2]) < 1e-12 for line in lines[1:6])
    # R = 0.9: starts separable, transient peaks near the envelope
    block = [line.split(",") for line in lines[11:16]]
    assert float(block[0][0]) == pytest.approx(0.9)
    assert float(block[0][2]) == pytest.approx(0.0, abs=1e-12)
    assert float(block[1][2]) == pytest.approx(0.152495, abs=5e-4)
    assert float(block[4][2]) == 0.0  # gone after the survival time


@pytest.mark.parametrize(
    "scenario", ["fig1-surface", "fig2-trajectories", "fig2-inset", "sweep"]
)
def test_csv_only_scenarios_reject_json(capsys, scenario):
    code, out, err = invoke(capsys, "--scenario", scenario, "--format", "json")
    assert code == 2
    assert out == ""
    assert err == f"error: {scenario} only renders CSV\n"


def test_unknown_key_wins_over_bad_format(capsys):
    """Parameters are merged before the format is checked."""
    code, _, err = invoke(
        capsys, "--scenario", "sweep", "--format", "json", "--set", "nope=1"
    )
    assert code == 2
    assert "unknown parameter 'nope'" in err


# ---------------------------------------------------------------------------
# Sweep scenario
# ---------------------------------------------------------------------------


def test_sweep_default_grid(capsys):
    code, out, _ = invoke(capsys, "--scenario", "sweep")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,R,lambda,peak_concurrence,t_c_gamma0"
    assert len(lines) == 1 + 3 * 3 * 4


def test_sweep_protected_cell_reports_inf(capsys):
    code, out, _ = invoke(
        capsys,
        "--scenario",
        "sweep",
        "--set",
        "delta_values=0",
        "--set",
        "r_values=1",
        "--set",
        "lambda_values=-3",
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row == ["0", "1", "-3", "1", "inf"]


def test_sweep_boundary_cell_reports_no_negative_lifetime(capsys):
    """A cell just inside the generation boundary, where the log argument
    of t_c rounds below 1, reports a lifetime of 0, not -3.2e-15."""
    code, out, _ = invoke(
        capsys,
        "--scenario",
        "sweep",
        "--set",
        "delta_values=0.05",
        "--set",
        "r_values=0.7990072682569841",
        "--set",
        "lambda_values=0.08132795544014046",
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row == ["0.05", "0.799007268", "0.0813279554", "0", "0"]


def test_sweep_grid_validation(capsys):
    code, _, err = invoke(
        capsys, "--scenario", "sweep", "--set", "r_values=0.5,1.2"
    )
    assert code == 2
    assert "(0, 1]" in err


@pytest.mark.parametrize("deltas", ["1.5", "0.05,1.95", "2"])
def test_sweep_refuses_deficits_above_one(capsys, deltas):
    """Above delta = 1 neither the first-order rate nor the Lambda amplitude
    holds, so the sweep names the duality instead of printing a t_c."""
    code, out, err = invoke(
        capsys,
        "--scenario",
        "sweep",
        "--set",
        f"delta_values={deltas}",
        "--set",
        "r_values=0.9",
        "--set",
        "lambda_values=-1",
    )
    assert (code, out) == (2, "")
    assert "delta_values must lie in [0, 1]" in err
    assert "delta <-> 2 - delta" in err


def test_sweep_accepts_independent_baths(capsys):
    code, out, _ = invoke(
        capsys, "--scenario", "sweep", "--set", "delta_values=1", "--set", "r_values=0.9"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 4


def test_sweep_matches_closed_forms(capsys):
    _, out, _ = invoke(
        capsys,
        "--scenario",
        "sweep",
        "--set",
        "delta_values=0.05",
        "--set",
        "r_values=0.9",
        "--set",
        "lambda_values=-1",
    )
    row = out.strip().split("\n")[1].split(",")
    assert float(row[3]) == pytest.approx(0.425197, abs=5e-7)
    # t_c = ln(5.47576) / ((1 + 3N) delta) with N = 1/18
    slow = (1.0 + 3.0 / 18.0) * 0.05
    assert float(row[4]) == pytest.approx(1.700330 / slow, rel=1e-6)


# ---------------------------------------------------------------------------
# Ion-trap scenario
# ---------------------------------------------------------------------------


def test_iontrap_text_output(capsys):
    code, out, _ = invoke(capsys, "--scenario", "iontrap")
    assert code == 0
    assert "feasible                    = yes" in out
    assert "bath temperature" in out


def test_iontrap_json_matches_api(capsys):
    code, out, _ = invoke(capsys, "--scenario", "iontrap", "--format", "json")
    assert code == 0
    config = default_config()
    expected = report_to_json(
        plan(config).report, temperature_requirement(config)
    )
    assert out == expected + "\n"


def test_iontrap_overrides(capsys):
    code, out, _ = invoke(
        capsys,
        "--scenario",
        "iontrap",
        "--format",
        "json",
        "--set",
        "exact_delta=true",
        "--set",
        "ion_count=200",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(1.0 - math.cos(0.125), rel=1e-9)
    assert payload["revival_time_omega_t"] == pytest.approx(4.0 * math.pi)


def test_iontrap_invalid_config_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "--scenario", "iontrap", "--set", "ion_count=1"
    )
    assert code == 2
    assert "ion_count" in err


def test_iontrap_quadratic_deficit_out_of_range_is_named(capsys):
    """30 spacings put (kappa d)^2 / (2 D) at 28.125: the estimate, not the
    config, leaves [0, 2], and the full profile still plans it."""
    code, out, err = invoke(capsys, "--scenario", "iontrap", "--set", "addressed_spacing=30")
    assert (code, out) == (2, "")
    assert err == (
        "error: the small-separation deficit estimate (kappa d)^2 / (2 D) = 28.125 "
        "lies outside [0, 2]: the qubits are too far apart for it; "
        "set exact_delta=true to use the full correlation profile\n"
    )
    code, _, err = invoke(
        capsys, "--scenario", "iontrap", "--set", "addressed_spacing=30",
        "--set", "exact_delta=true",
    )
    assert (code, err) == (0, "")


def test_iontrap_tiny_splitting_keeps_its_temperature(capsys):
    """hbar * Delta underflows at rabi_ratio 1e-300, but the temperature
    h f / (2 k_B artanh R), about 4.4e-305 K, is a normal float."""
    code, out, err = invoke(
        capsys, "--scenario", "iontrap", "--format", "json", "--set", "rabi_ratio=1e-300"
    )
    assert (code, err) == (0, "")
    kelvin = json.loads(out)["bath_temperature_kelvin"]
    # h / k_B times f = 1e-300 * 1 MHz, over 2 artanh(0.5)
    expected = 6.62607015e-34 / 1.380649e-23 * 1e-294 / (2.0 * math.atanh(0.5))
    assert kelvin == pytest.approx(expected, rel=1e-12)
    assert kelvin == pytest.approx(4.37e-305, rel=1e-3)


def test_iontrap_tiny_target_ratio_keeps_its_temperature(capsys):
    """2 k_B artanh R is subnormal at target_ratio 1e-300, but the
    temperature hbar Delta / (2 k_B artanh R), about 6.0e+296 K, is a
    normal float."""
    code, out, err = invoke(
        capsys, "--scenario", "iontrap", "--format", "json",
        "--set", "target_ratio=1e-300", "--set", "lamb_shift=false",
    )
    assert (code, err) == (0, "")
    kelvin = json.loads(out)["bath_temperature_kelvin"]
    config = default_config()
    splitting = config.rabi_ratio * config.trap_frequency
    expected = 6.62607015e-34 / (2 * math.pi) * splitting / 1.380649e-23 / 2e-300
    assert kelvin == pytest.approx(expected, rel=1e-12)
    assert kelvin == pytest.approx(5.99905e296, rel=1e-5)


def test_iontrap_underflowing_slow_window_is_infinite(capsys):
    """deficit * gamma0 underflows to zero; the window is then infinite."""
    code, out, err = invoke(
        capsys, "--scenario", "iontrap",
        "--set", "ohmic_coupling=1e-300", "--set", "rabi_ratio=1e-12",
    )
    assert (code, err) == (0, "")
    assert "1/(delta*gamma0) = inf/omega_t exceeds the revival time" in out


@pytest.mark.parametrize(
    "rabi_ratio, reason",
    [
        pytest.param("1e-310", "principal value A did not converge", id="1e-310"),
        pytest.param("1e-320", "principal value A did not converge", id="1e-320"),
        pytest.param(
            "1e-323", "spectral density at the splitting 1e-323 underflows", id="1e-323"
        ),
        pytest.param(
            "5e-324", "spectral density at the splitting 5e-324 underflows", id="5e-324"
        ),
    ],
)
def test_iontrap_subnormal_splitting_is_numerical_failure(capsys, rabi_ratio, reason):
    """The Lamb integrand underflows at a subnormal pole, and the principal
    value is refused by name; or, below that, J(Delta) itself underflows to
    zero."""
    code, out, err = invoke(capsys, "--scenario", "iontrap", "--set", f"rabi_ratio={rabi_ratio}")
    assert (code, out) == (3, "")
    assert err.startswith(f"numerical failure: {reason}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_iontrap_integer_knobs_accept_integral_floats(capsys, fmt):
    """The CLI accepts the values TrapConfig.from_mapping accepts."""
    args = ("--scenario", "iontrap", "--format", fmt)
    code, plain, _ = invoke(capsys, *args, "--set", "ion_count=200")
    code_float, as_float, _ = invoke(capsys, *args, "--set", "ion_count=200.0")
    assert code == code_float == 0
    assert as_float == plain
    code, _, err = invoke(capsys, *args, "--set", "ion_count=200.5")
    assert code == 2
    assert "must be an integer" in err


@pytest.mark.parametrize(
    "scenario, key",
    [
        ("iontrap", "trap_frequency"),
        ("iontrap", "rabi_ratio"),
        ("iontrap", "ohmic_coupling"),
        ("spectrum", "delta_field"),
        ("spectrum", "lamb_a"),
        ("spectrum", "lamb_b"),
        ("spectrum", "exchange_xi"),
        ("fig2-trajectories", "horizon_factor"),
        ("fig1-surface", "lt_max"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_are_usage_errors(capsys, scenario, key, value):
    code, out, err = invoke(capsys, "--scenario", scenario, "--set", f"{key}={value}")
    assert code == 2, out
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# Every key does something
# ---------------------------------------------------------------------------

#: one non-default value per scenario key; set alone, each must change
#: stdout or the exit code
_FIG2_PROBES = {"delta": "0.1", "r": "0.8", "points": "50", "horizon_factor": "2"}
KEY_PROBES = {
    "fig1-surface": {
        "delta": "0.1", "lambda_corr": "-3", "delta_field": "5", "r_min": "0.2",
        "r_max": "0.95", "r_points": "3", "lt_max": "2", "lt_points": "5",
    },
    "fig2-trajectories": _FIG2_PROBES,
    "fig2-inset": _FIG2_PROBES,
    "spectrum": {
        "delta": "0.1", "r": "0.8", "delta_field": "5",
        "lamb_a": "0.4", "lamb_b": "0.3", "exchange_xi": "0.2",
    },
    "sweep": {"delta_values": "0.1", "r_values": "0.8", "lambda_values": "-2"},
    "iontrap": {
        "trap_frequency": "1e6", "ion_count": "200", "rabi_ratio": "10",
        "ohmic_coupling": "0.05", "addressed_spacing": "2", "bath_dimension": "2",
        "target_ratio": "0.6", "exact_delta": "true",
    },
}
#: keys allowed to leave the run unchanged (ROADMAP, open item 2).  The trap
#: report prints only closed-form fields, so the Lamb strengths that
#: lamb_shift switches feed nothing yet.
INERT_KEYS = {("iontrap", "lamb_shift")}


@functools.lru_cache(maxsize=None)
def _run_cli(*argv):
    """Exit code, stdout and stderr of one in-process run, cached so the
    default run of each scenario is made once."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("scenario", sorted(KEY_PROBES))
def test_key_probes_cover_every_key(scenario):
    code, _, err = _run_cli("--scenario", scenario, "--set", "no_such_key=1")
    assert code == 2
    valid = set(err.split("valid keys: ")[1].strip().split(", "))
    inert = {key for name, key in INERT_KEYS if name == scenario}
    assert valid == set(KEY_PROBES[scenario]) | inert


@pytest.mark.parametrize(
    "scenario, key, value",
    [
        (scenario, key, value)
        for scenario, probes in sorted(KEY_PROBES.items())
        for key, value in probes.items()
    ],
)
def test_every_key_changes_the_run(scenario, key, value):
    default = _run_cli("--scenario", scenario)[:2]
    assert default[0] == 0
    assert _run_cli("--scenario", scenario, "--set", f"{key}={value}")[:2] != default


@pytest.mark.parametrize(
    "scenario, key",
    [
        ("spectrum", "include_lamb"),
        ("spectrum", "include_exchange"),
        ("iontrap", "exchange_xi"),
        ("fig2-trajectories", "delta_field"),
        ("fig2-inset", "delta_field"),
    ],
)
def test_removed_switches_are_unknown(capsys, scenario, key):
    """A coherent term is present exactly when its strength is non-zero, so
    no switch duplicates the strength, and the trap model has no exchange."""
    code, _, err = invoke(capsys, "--scenario", scenario, "--set", f"{key}=1")
    assert code == 2
    assert f"unknown parameter {key!r}" in err


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code_file, _, _ = invoke(
        capsys, "--scenario", "sweep", "--out", str(target)
    )
    code_std, out, _ = invoke(capsys, "--scenario", "sweep")
    assert code_file == code_std == 0
    assert target.read_text() == out


@pytest.mark.parametrize(
    "scenario, fmt, override",
    [
        ("fig1-surface", "csv", "r_points=2"),
        ("fig2-trajectories", "csv", "points=50"),
        ("fig2-inset", "csv", "points=50"),
        ("spectrum", "csv", "delta=0.1"),
        ("spectrum", "json", "delta=0.1"),
        ("sweep", "csv", "r_values=0.5"),
        ("iontrap", "csv", "ion_count=200"),
        ("iontrap", "json", "ion_count=200"),
    ],
)
def test_byte_determinism(capsys, scenario, fmt, override):
    """Repeat runs print the same bytes, and an override made in between
    does not leak into the next run through the shared parser."""
    args = ("--scenario", scenario, "--format", fmt)
    code, first, _ = invoke(capsys, *args)
    code_set, overridden, _ = invoke(capsys, *args, "--set", override)
    _, second, _ = invoke(capsys, *args)
    assert code == code_set == 0
    assert overridden != first
    assert second == first


#: SHA-256 of stdout for each scenario at its defaults, on the stack
#: ``conftest.RECORDED_STACK``
_DEFAULT_STDOUT_SHA256 = {
    ("fig1-surface",): "18281ce8f30185c816de4f9d67c932605dfc4f6bab9271d9a13259e9fe7ce0d7",
    ("fig2-trajectories",): "c7b00fa32a6681d279fdebd7b9fb603e2e882617d820476954dc001aa60512c9",
    ("fig2-inset",): "bed15391d99d9e6ac3ee79b5957ca466027889f51ce55ee4de743de929b4dbd9",
    ("spectrum",): "78ae4fdcf6f54e8cfbd3f65b53829f7a3e6ff63d6a65720061cd0c8bcda7ddfe",
    ("spectrum", "--format", "json"): (
        "70030ed203c2ab129b09621829495c4523a90f3d6d89911516fe2ef187b7e754"
    ),
    ("sweep",): "119b7b2e7b78d2367b96fb3b00394b25af1d342a9aac6550954b74e4ee827577",
    ("iontrap",): "eec80a21732f965a99092b18e1846424cbbb70fd2d54e018a807e9edd76bfa48",
    ("iontrap", "--format", "json"): (
        "e8c00676d27fa729cf0af13c82d44828675030f1f5eb22a783e550d732fcb97b"
    ),
}


@pytest.mark.parametrize("argv", list(_DEFAULT_STDOUT_SHA256), ids=" ".join)
def test_default_output_is_pinned(capsys, argv):
    """Every scenario prints the recorded bytes at its defaults."""
    skip_off_recorded_stack()
    code, out, err = invoke(capsys, "--scenario", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _DEFAULT_STDOUT_SHA256[argv]


def test_config_file_and_set_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# spectrum settings\ndelta = 0.1\nr = 0.5\n", encoding="utf-8"
    )
    code, out, _ = invoke(
        capsys,
        "--scenario",
        "spectrum",
        "--config",
        str(config),
        "--set",
        "r=0.9",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 0.1  # from the file
    # --set overrode the file's ratio; the first-order slow rate picks up
    # O(delta) corrections at delta = 0.1, so 1% slack
    slow_re = payload["modes"][1]["re"]
    assert slow_re == pytest.approx(-(1.0 + 3.0 / 18.0) * 0.1, rel=0.01)


def test_config_file_errors(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "--scenario", "spectrum", "--config", str(tmp_path / "nope.cfg")
    )
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("delta 0.1\n", encoding="utf-8")
    code, _, err = invoke(capsys, "--scenario", "spectrum", "--config", str(bad))
    assert code == 2
    assert "key=value" in err
