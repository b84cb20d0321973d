"""Acceptance gate: one test and one verdict line per criterion.

Each test records ``[PASS]``/``[FAIL]`` with the measured figure and the
stated tolerance; the lines are echoed as a terminal-summary section at
the end of the run.  Tolerances are the contract numbers, not what the
code happens to achieve.
"""

import math

import numpy as np

from conftest import make_generator, random_density_matrix, record_verdict
from spinbath.dynamics import (
    analytic_concurrence,
    default_time_grid,
    propagate_ode,
    propagate_spectral,
    survival_report,
    survival_time,
)
from spinbath.iontrap import default_config, plan
from spinbath.liouvillian import classify_spectrum, thermal_alpha
from spinbath.states import (
    bell_singlet,
    bell_triplet,
    bloch_to_density,
    density_to_bloch,
    maximally_mixed,
    z_up_down,
)

import oracles


def _verdict(ok: bool, label: str, detail: str) -> None:
    line = record_verdict(ok, label, detail)
    assert ok, line


STATES = {
    -3.0: bell_singlet,
    -1.0: z_up_down,
    0.0: maximally_mixed,
    1.0: bell_triplet,
}


def test_criterion_1_stationary_pattern():
    """The zero mode is the product of single-spin thermal states."""
    worst = 0.0
    for delta in (0.01, 0.05, 0.2):
        for ratio in (0.5, 0.9):
            report = classify_spectrum(make_generator(delta, ratio))
            mode = report.right[:, report.thermal_index].real
            gap = np.max(np.abs(mode - thermal_alpha(ratio).alpha))
            worst = max(worst, gap)
    _verdict(
        worst < 1e-8,
        "stationary pattern",
        f"worst |mode - thermal| = {worst:.3e} over 6 configs (tol 1e-8)",
    )


def test_criterion_2_slow_rate_formula():
    """First-order decay rate of the protected mode, and its convergence."""
    worst_rel = 0.0
    for delta in (0.01, 0.02, 0.05):
        for occupation in (0.0, 0.05, 0.1):
            ratio = 1.0 / (1.0 + 2.0 * occupation)
            report = classify_spectrum(make_generator(delta, ratio))
            formula = -(1.0 + 3.0 * occupation) * delta
            rel = abs(report.slow_eigenvalue.real - formula) / abs(formula)
            worst_rel = max(worst_rel, rel)
    # at zero occupation the first-order coefficient is exact, so the
    # absolute error sits at machine precision for every deficit --
    # trivially inside any O(delta^2) envelope
    zero_occ_err = max(
        abs(
            classify_spectrum(make_generator(d, 1.0)).slow_eigenvalue.real
            + d
        )
        for d in (0.04, 0.02, 0.01)
    )
    ok = worst_rel < 0.10 and zero_occ_err < 1e-12
    _verdict(
        ok,
        "slow decay rate",
        f"worst rel err {worst_rel:.2e} for delta<=0.05, N<=0.1 (tol 0.10); "
        f"cold absolute err {zero_occ_err:.1e} (tol 1e-12, inside O(delta^2))",
    )


def test_criterion_3_spectral_equals_ode():
    """Two independent propagation routes agree in trace distance."""
    times = default_time_grid(1.0, 15.0, points=25)
    worst = 0.0
    for delta in (0.01, 0.05, 0.2):
        for ratio in (0.5, 0.9, 0.99):
            generator = make_generator(delta, ratio)
            report = classify_spectrum(generator)
            for factory in STATES.values():
                spectral = propagate_spectral(report, factory(), times)
                ode = propagate_ode(generator, factory(), times)
                for a, b in zip(spectral.alphas, ode.alphas):
                    dist = oracles.trace_distance(
                        oracles.density_from_alpha(a),
                        oracles.density_from_alpha(b),
                    )
                    worst = max(worst, dist)
    _verdict(
        worst < 1e-8,
        "propagation routes",
        f"worst trace distance {worst:.3e} over 36 runs (tol 1e-8)",
    )


def test_criterion_4_envelope_tracks_trajectories():
    """Closed-form envelope matches numerics past the transient."""
    generator = make_generator(0.05, 0.9)
    report = classify_spectrum(generator)
    slow = -report.slow_eigenvalue
    horizon = 3.0 * survival_time(0.9, -3.0, slow)
    times = default_time_grid(1.0, horizon, points=400)
    late = times > 3.0

    worst_gap = 0.0
    peak_times = {}
    triplet_tail = None
    for lam, factory in STATES.items():
        traj = propagate_spectral(report, factory(), times)
        if lam == 1.0:
            triplet_tail = float(np.max(traj.concurrence[times >= 5.0]))
            continue
        envelope = analytic_concurrence(0.9, lam, slow, times)
        worst_gap = max(
            worst_gap, float(np.max(np.abs(traj.concurrence - envelope)[late]))
        )
        if lam in (-1.0, 0.0):  # product/mixed starts: transient peak
            peak_times[lam] = float(times[np.argmax(traj.concurrence)])

    peaks_ok = all(0.3 <= t <= 5.0 for t in peak_times.values())
    ok = worst_gap < 0.02 and triplet_tail < 0.01 and peaks_ok
    _verdict(
        ok,
        "transient envelope",
        f"worst |num-ana| {worst_gap:.4f} for t>3 (tol 0.02); "
        f"aligned-pair tail {triplet_tail:.4f} by t=5 (tol 0.01); "
        f"peaks at {[round(t, 3) for t in sorted(peak_times.values())]} "
        f"in [0.3, 5]",
    )


def test_criterion_5_dressing_leaves_slow_sector():
    """Coherent dressing at the slow-mode scale changes nothing that lasts."""
    bare_gen = make_generator(0.05, 0.9)
    bare = classify_spectrum(bare_gen)
    slow = -bare.slow_eigenvalue.real
    strength = 1.0 / (2.0 * slow)
    dressed_gen = make_generator(
        0.05,
        0.9,
        lamb_b=strength,
        exchange_xi=strength,
    )
    dressed = classify_spectrum(dressed_gen)

    rate_drift = abs(
        dressed.slow_eigenvalue.real - bare.slow_eigenvalue.real
    ) / abs(bare.slow_eigenvalue.real)

    times = default_time_grid(1.0, 30.0, points=300)
    late = times > 5.0
    bare_traj = propagate_spectral(bare, z_up_down(), times)
    dressed_traj = propagate_spectral(dressed, z_up_down(), times)
    conc_gap = float(
        np.max(np.abs(bare_traj.concurrence - dressed_traj.concurrence)[late])
    )

    far = np.array([200.0, 300.0, 400.0])
    alpha_gap = float(
        np.max(
            np.abs(
                propagate_spectral(bare, z_up_down(), far).alphas
                - propagate_spectral(dressed, z_up_down(), far).alphas
            )
        )
    )
    ok = rate_drift < 1e-6 and conc_gap < 0.02 and alpha_gap < 1e-6
    _verdict(
        ok,
        "coherent dressing",
        f"slow-rate drift {rate_drift:.1e} (tol 1e-6); concurrence gap "
        f"{conc_gap:.4f} for t>5 (tol 0.02); state gap {alpha_gap:.1e} "
        f"at t in 200..400 (tol 1e-6)",
    )


def test_criterion_6_survival_times():
    """Numeric disentanglement times match the closed form to 3%."""
    worst_rel = 0.0
    worst_leak = 0.0
    for ratio in (0.5, 0.7, 0.9):
        for lam in (-3.0, -1.0, 0.0):
            generator = make_generator(0.01, ratio)
            rep = survival_report(generator, STATES[lam]())
            if not rep.generated:
                worst_leak = max(worst_leak, rep.peak_concurrence, rep.t_c)
                continue
            scaled = abs(rep.t_c_numeric - rep.t_c) / rep.t_c
            worst_rel = max(worst_rel, scaled)
    ok = worst_rel < 0.03 and worst_leak < 1e-6
    _verdict(
        ok,
        "survival times",
        f"worst |t_num - t_ana|/t_ana = {worst_rel:.4f} over the generating "
        f"cells (tol 0.03); non-generating leak {worst_leak:.1e} (tol 1e-6)",
    )


def test_criterion_7_generation_threshold():
    """Bisected numeric threshold for the fully mixed state."""
    delta = 0.0005
    horizon = 100.0
    times = np.unique(
        np.concatenate(
            [
                [0.0],
                np.geomspace(1e-3, horizon, 500),
                np.linspace(0.0, horizon, 500),
            ]
        )
    )

    def generates(ratio: float) -> bool:
        report = classify_spectrum(make_generator(delta, ratio))
        traj = propagate_spectral(report, maximally_mixed(), times)
        return float(np.max(traj.concurrence)) > 1e-12

    lo, hi = 0.70, 0.88
    assert not generates(lo) and generates(hi)
    while hi - lo > 2e-4:
        mid = 0.5 * (lo + hi)
        if generates(mid):
            hi = mid
        else:
            lo = mid
    measured = 0.5 * (lo + hi)
    target = math.sqrt(3.0 / 5.0)
    ok = abs(measured - target) < 0.002
    _verdict(
        ok,
        "generation threshold",
        f"numeric R* = {measured:.5f} at deficit {delta} vs sqrt(3/5) = "
        f"{target:.5f} (tol 0.002)",
    )


def test_criterion_8_trap_reference_point():
    """The 100-ion reference configuration maps to the frozen numbers."""
    report = plan(default_config()).report
    checks = {
        "deficit": abs(report.delta - 0.03125) < 1e-12,
        "rate": abs(report.gamma0 - 2.5 * math.pi) < 1e-12,
        "peak": abs(report.peak_concurrence - 2.0 / 13.0) < 1e-12,
        "window": abs(50.0 / report.gamma0 - report.revival_time)
        < 0.02 * report.revival_time,
        "feasible": report.feasible,
    }
    ok = all(checks.values())
    _verdict(
        ok,
        "trap reference",
        f"delta {report.delta}, gamma0/omega_t {report.gamma0:.6f}, peak "
        f"{report.peak_concurrence:.6f}, 50/gamma0 vs revival within 2%, "
        f"feasible {report.feasible} ({checks})",
    )


def test_criterion_9_representation_and_structure(rng):
    """Round-trips, trace preservation, and generator structure."""
    worst_rt = 0.0
    for _ in range(10_000):
        rho = random_density_matrix(rng)
        back = bloch_to_density(density_to_bloch(rho))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.matrix - rho))))

    generator = make_generator(0.05, 0.9)
    report = classify_spectrum(generator)
    times = default_time_grid(1.0, 50.0, points=200)
    worst_trace = 0.0
    for factory in STATES.values():
        traj = propagate_spectral(report, factory(), times)
        worst_trace = max(
            worst_trace, float(np.max(np.abs(traj.alphas[:, 0] - 1.0)))
        )

    first_rows = max(
        float(np.max(np.abs(make_generator(d, r).entries[0])))
        for d in (0.01, 0.2)
        for r in (0.5, 0.99)
    )

    eigs = report.eigenvalues
    conj_gap = max(
        float(np.min(np.abs(eigs - np.conj(value)))) for value in eigs
    )
    counts = (
        1,
        1,
        len(report.oscillatory_indices),
        len(report.fast_indices),
    )

    ok = (
        worst_rt < 1e-12
        and worst_trace < 1e-10
        and first_rows == 0.0
        and conj_gap < 1e-9
        and counts == (1, 1, 2, 12)
    )
    _verdict(
        ok,
        "representation/structure",
        f"10^4 round-trips worst {worst_rt:.1e} (tol 1e-12); trajectory "
        f"trace drift {worst_trace:.1e} (tol 1e-10); generator first row "
        f"{first_rows}; conjugation gap {conj_gap:.1e}; mode counts "
        f"{counts} = (1, 1, 2, 12)",
    )
