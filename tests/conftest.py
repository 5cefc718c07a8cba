import sys
from pathlib import Path

import numpy as np
import pytest

# allow running the suite without installing the package
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from magalg import DipoleConfig, build_algebra, gen_pair  # noqa: E402

TOL_SAMPLING_C = 25.0  # lattice-gap constant, calibrated on the single-dipole closed form


def sampling_tolerance(lambda_bar, n_samples) -> float:
    """Slack of the sampling oracle's lower bound: C * lambda_bar / n."""
    return TOL_SAMPLING_C * max(float(lambda_bar), 0.0) / int(n_samples)


@pytest.fixture
def single_dipole():
    """One magnet at the origin, field point one meter above."""
    return DipoleConfig([[0.0, 0.0, 0.0]], [0.0, 0.0, 1.0])


@pytest.fixture
def single_dipole_algebra(single_dipole):
    return build_algebra(single_dipole)


@pytest.fixture
def pair_config():
    """Magnets at (+-1, 0, 0), field point (0, 0, 1)."""
    return gen_pair([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], field_point=[0.0, 0.0, 1.0])


@pytest.fixture
def antipodal_config():
    """Cancelling pair: field point at the midpoint of two magnets."""
    return gen_pair([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], field_point=[0.0, 0.0, 0.0])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
