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


# -- the numpy lattice tables and moments before the integer geometry --------
# Kept verbatim as the oracles of `HexLattice._images`, `_class_orbits` and
# `finitem.mu_stats`: float images by a Babai fold, orbits by np.unique, a
# Gauss–Legendre rule by Golub–Welsch, moments by `ratio @ weights`.

_SQRT3 = np.sqrt(3.0)
_A1 = np.array([_SQRT3, 0.0])
_A2 = np.array([_SQRT3 / 2.0, 1.5])
_IMAGE_EPS = 1e-9


def _frozen_gauss_reduce(w1, w2):
    b1, b2 = w1.copy(), w2.copy()
    if b1 @ b1 > b2 @ b2:
        b1, b2 = b2, b1
    while True:
        mu = round((b2 @ b1) / (b1 @ b1))
        b2 = b2 - mu * b1
        if b2 @ b2 >= b1 @ b1:
            return b1, b2
        b1, b2 = b2, b1


def frozen_lattice_tables(m, wraparound):
    """(image_x, image_y, count, orbit, first): each class's candidate images
    as (P, C) tables padded with the nearest one, their count, the orbit of
    each class and the first class of each orbit."""
    L, n_u, n_v = 3**m, 3 ** ((m + 1) // 2), 3 ** (m // 2)
    u, v = np.divmod(np.arange(L), n_v)
    centers = u[:, None] * _A1 + v[:, None] * _A2
    if wraparound:
        basis = np.column_stack(_frozen_gauss_reduce(n_u * _A1, n_v * _A2))
        inv = np.linalg.inv(basis)
        res = centers - np.rint(centers @ inv.T) @ basis.T
        reach = np.hypot(res[:, 0], res[:, 1]).max() + 2.0 + _IMAGE_EPS
        n = int(np.ceil(0.5 + reach * np.linalg.norm(inv, axis=1).max()))
        steps = np.arange(-n, n + 1, dtype=float)
        ij = np.stack(np.meshgrid(steps, steps, indexing="ij"), axis=-1).reshape(-1, 2)
        imgs = res[:, None, :] - (ij @ basis.T)[None]
        norms = np.hypot(imgs[..., 0], imgs[..., 1])
        order = np.argsort(norms, axis=1, kind="stable")
        imgs = np.take_along_axis(imgs, order[..., None], axis=1)
        norms = np.take_along_axis(norms, order, axis=1)
        count = (norms <= norms[:, :1] + 2.0 + _IMAGE_EPS).sum(axis=1)
        imgs = imgs[:, :count.max()]
        pad = np.arange(imgs.shape[1]) >= count[:, None]
        imgs[pad] = np.broadcast_to(imgs[:, :1], imgs.shape)[pad]
        image_x, image_y = imgs[..., 0].T.copy(), imgs[..., 1].T.copy()
    else:
        du = np.arange(1 - n_u, n_u)[:, None]
        dv = np.arange(1 - n_v, n_v)
        image = (du[..., None] * _A1 + dv[:, None] * _A2).reshape(1, -1, 2)
        image_x, image_y = image[..., 0].copy(), image[..., 1].copy()
        count = np.ones(image_x.shape[1], dtype=np.int64)
    a = np.rint(image_x.T * (2 / _SQRT3)).astype(np.int64)
    b = np.rint(image_y.T * 2).astype(np.int64)
    real = np.arange(a.shape[1]) < count[:, None]
    sets = []
    for _ in range(6):
        for mirrored in (b, -b):
            sets.append(np.sort(np.where(real, (a << 32) + mirrored,
                                         np.iinfo(np.int64).max), axis=1))
        a, b = (a - b) // 2, (3 * a + b) // 2
    _, ids = np.unique(np.concatenate(sets), axis=0, return_inverse=True)
    key = ids.reshape(12, -1).min(axis=0)
    _, first, orbit = np.unique(key, return_index=True, return_inverse=True)
    return image_x, image_y, count, orbit, first


def _frozen_position_rule(hole, order):
    k = np.arange(1, order)
    x, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = 2.0 * vectors[0] ** 2
    phi, w_phi = x * np.pi / 6, w * np.pi / 6
    s, w_s = (x + 1) / 2, w / 2
    edge = (_SQRT3 / 2) / np.cos(phi)[:, None]
    grade = 1 if hole > 0 else 2
    r = hole + (edge - hole) * s**grade
    weights = w_phi[:, None] * w_s * grade * s ** (grade - 1) * (edge - hole) * r
    theta = phi[:, None] + np.arange(6)[:, None, None] * (np.pi / 3)
    nodes = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1).reshape(-1, 2)
    weights = np.tile(weights.ravel(), 6)
    return nodes, weights / weights.sum()


def frozen_mu_moments(lat, gamma, order):
    """mu0, mu1, mu2 and mu3 of `lat`, concatenated: one quadrature per orbit
    by the frozen tables, summed over every (tagged, cell) pair."""
    image_x, image_y, count, orbit, first = frozen_lattice_tables(lat.m, lat.wraparound)
    nodes, weights = _frozen_position_rule(lat.hole_ratio, order)
    ox, oy = nodes[:, 0], nodes[None, :, 1]
    best = None
    for p in range(count[first].max()):
        d2 = (image_x[p][first][:, None] + ox) ** 2 + (image_y[p][first][:, None] + oy) ** 2
        best = d2 if best is None else np.minimum(best, d2)
    ratio = (np.hypot(nodes[:, 0], nodes[:, 1]) / np.sqrt(best)) ** gamma
    moment1, moment2 = ratio @ weights, (ratio * ratio) @ weights
    # the class of each (tagged, cell) pair, and the depth its cells share
    t, j = np.meshgrid(lat.tagged, np.arange(lat.L), indexing="ij")
    du, dv = (j // lat.n_v) - (t // lat.n_v), (j % lat.n_v) - (t % lat.n_v)
    cls = (du % lat.n_u * lat.n_v + dv % lat.n_v if lat.wraparound
           else (du + lat.n_u - 1) * (2 * lat.n_v - 1) + dv + lat.n_v - 1)
    depth = (lat.coset[t] == lat.coset[j]).sum(axis=2) - 1
    depth[t == j] = -1
    n = len(lat.tagged)
    mean1, mean2 = (np.where(depth < 0, 1.0, moment[orbit[cls]]) for moment in (moment1, moment2))
    shares = [depth >= i for i in range(lat.m)]
    return np.concatenate([[mean1.sum() / n], *([values[share].sum() / n for share in shares]
                                                for values in (mean1, mean1 ** 2, mean2))])


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
