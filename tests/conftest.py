import numpy as np
import pytest

from pilotreuse import build_lattice, channel
from pilotreuse.channel import laplace_tables, rate_profile
from pilotreuse.finitem import mu_stats


def finer_quadrature(monkeypatch):
    """Give the exact evaluator four more position nodes per axis and half the
    step in ln z, for tables built after this call."""
    monkeypatch.setattr(channel, "_ORDER", channel._ORDER + 4)
    monkeypatch.setattr(channel, "_DU", channel._DU / 2)


def point_group():
    """The hexagon's 12 symmetries as 2x2 matrices: the six rotations by
    multiples of 60°, each alone and after the reflection y -> -y."""
    out = []
    for k in range(6):
        c, s = np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)
        rotation = np.array([[c, -s], [s, c]])
        out += [rotation, rotation @ np.diag([1.0, -1.0])]
    return out


def cosharing(lat, cell, depth):
    """The other cells of `cell`'s depth-`depth` coset, ascending."""
    return np.flatnonzero(lat.shared_depth([cell])[0] >= depth)


# (m, wraparound) of the lattices whose every pair class is checked against
# its orbit: the torus at L = 9 to 243 and the plane at L = 27 and 81
FOLDED = [(2, True), (3, True), (4, True), (5, True), (3, False), (4, False)]


def one_pair_per_class(lat):
    """(t, j, cls): a (tagged, cell) pair of each pair class, and the class of
    every (tagged, cell) pair, indexing them, (len(tagged), L).

    The classes are the distinct centre differences from the tagged cells:
    on the torus the only tagged cell is 0, so they are canonical there.
    """
    t, j = (a.ravel() for a in np.meshgrid(lat.tagged, np.arange(lat.L), indexing="ij"))
    diff = np.column_stack([lat.u[j] - lat.u[t], lat.v[j] - lat.v[t]])
    _, first, cls = np.unique(diff, axis=0, return_index=True, return_inverse=True)
    return t[first], j[first], cls.reshape(len(lat.tagged), lat.L)


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
