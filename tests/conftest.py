import platform

import numpy as np
import pytest
from hypothesis import settings

from spinbath.bath import BathThermal, RateSet
from spinbath.liouvillian import ModelParams, build_generator, classify_spectrum
from spinbath.states import (
    bell_singlet,
    bell_triplet,
    maximally_mixed,
    z_up_down,
)

DELTA_FIELD = 10.0

# the one profile of every property test, loaded on every run: examples are
# drawn from a fixed seed and no example database is read or written, so
# each run tries the same inputs; no deadline, since a shared host's timing
# is not the property under test
settings.register_profile("spinbath", derandomize=True, database=None, deadline=None)
settings.load_profile("spinbath")

# acceptance verdicts collected during the run and echoed into the
# terminal summary, one line per criterion, capture notwithstanding
VERDICTS = []


def record_verdict(ok, label, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    VERDICTS.append(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)

#: the stack that bit-level pins (the CLI's default-output hashes, the
#: survival search's hashes) were recorded under; floating point results can
#: differ in the last bit on another one
RECORDED_STACK = {
    "python": "3.11.7",
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "machine": "x86_64",
}


def skip_off_recorded_stack():
    """Skip the calling test unless it runs on :data:`RECORDED_STACK`."""
    import scipy

    stack = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    if stack != RECORDED_STACK:
        pytest.skip(f"hashes were recorded under {RECORDED_STACK}, this is {stack}")


# the four initial states used throughout the trajectory checks, with their
# spin-correlation scalars
FOUR_STATES = (
    ("singlet", bell_singlet, -3.0),
    ("z_up_down", z_up_down, -1.0),
    ("mixed", maximally_mixed, 0.0),
    ("triplet", bell_triplet, 1.0),
)


def make_generator(deficit, ratio, delta_field=DELTA_FIELD, gamma0=1.0, **strengths):
    """Generator in gamma0 units; ``strengths`` are the coherent
    ModelParams fields (lamb_a, lamb_b, exchange_xi)."""
    thermal = BathThermal.from_ratio(ratio)
    rates = RateSet.from_parameters(gamma0, thermal, deficit)
    return build_generator(ModelParams(delta_field, **strengths), rates)


@pytest.fixture(scope="session")
def reference_generator():
    """The workhorse configuration: deficit 0.05, polarization 0.9."""
    return make_generator(0.05, 0.9)


@pytest.fixture(scope="session")
def reference_spectrum(reference_generator):
    return classify_spectrum(reference_generator)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_density_matrix(rng, rank=4):
    """Haar-ish random mixed state of the given rank."""
    raw = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real
