import pytest

from pilotreuse import (ChannelConfig, build_lattice, estimate_rate_profile)
from pilotreuse import channel
from pilotreuse.channel import laplace_tables
from pilotreuse.finitem import estimate_mu_stats


def finer_quadrature(monkeypatch):
    """Give the exact evaluator four more position nodes per axis and half the
    step in ln z, for tables built after this call."""
    monkeypatch.setattr(channel, "_ORDER", channel._ORDER + 4)
    monkeypatch.setattr(channel, "_DU", channel._DU / 2)


# Seeds are fixed so that every heavy fixture is bit-reproducible; the
# acceptance suite re-runs some of them to assert exactly that.
PROFILE_SEED = 1
MU_SEED = 3


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
    """The paper-setting profile: L=81, gamma=3.7, 100k trials."""
    cfg = ChannelConfig(lattice=lat81, gamma=3.7, trials=100_000, seed=PROFILE_SEED)
    return estimate_rate_profile(lat81, cfg)


@pytest.fixture(scope="session")
def profile81_quick(lat81):
    cfg = ChannelConfig(lattice=lat81, gamma=3.7, trials=4_000, seed=PROFILE_SEED)
    return estimate_rate_profile(lat81, cfg)


@pytest.fixture(scope="session")
def mu81(lat81):
    return estimate_mu_stats(lat81, gamma=3.7, trials=100_000, seed=MU_SEED)


@pytest.fixture(scope="session")
def mu27(lat27):
    return estimate_mu_stats(lat27, gamma=3.7, trials=100_000, seed=MU_SEED)


@pytest.fixture(scope="session")
def tables27(lat27):
    return laplace_tables(lat27, 3.7)


@pytest.fixture(scope="session")
def tables81(lat81):
    return laplace_tables(lat81, 3.7)
