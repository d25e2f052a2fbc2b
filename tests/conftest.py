import pytest

from pilotreuse import build_lattice, channel
from pilotreuse.channel import laplace_tables, rate_profile
from pilotreuse.finitem import mu_stats


def finer_quadrature(monkeypatch):
    """Give the exact evaluator four more position nodes per axis and half the
    step in ln z, for tables built after this call."""
    monkeypatch.setattr(channel, "_ORDER", channel._ORDER + 4)
    monkeypatch.setattr(channel, "_DU", channel._DU / 2)


# The seed of the Monte Carlo profiles that test the estimator itself; the
# paper's inputs below are exact, so the acceptance verdicts rest on no stream.
PROFILE_SEED = 1


@pytest.fixture(scope="session")
def lat9():
    return build_lattice(2)


@pytest.fixture(scope="session")
def lat27():
    return build_lattice(3)


@pytest.fixture(scope="session")
def lat81():
    return build_lattice(4)


@pytest.fixture(scope="session")
def profile81(lat81):
    """The paper-setting profile, exact: L=81, gamma=3.7."""
    return rate_profile(lat81, 3.7)


@pytest.fixture(scope="session")
def mu81(lat81):
    return mu_stats(lat81, 3.7)


@pytest.fixture(scope="session")
def mu27(lat27):
    return mu_stats(lat27, 3.7)


@pytest.fixture(scope="session")
def tables27(lat27):
    return laplace_tables(lat27, 3.7)


@pytest.fixture(scope="session")
def tables81(lat81):
    return laplace_tables(lat81, 3.7)
