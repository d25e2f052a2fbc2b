import math

import numpy as np
import pytest

from pilotreuse import build_lattice
from pilotreuse.hexgrid import exponent_of_three

from conftest import cosharing, frozen_lattice_tables, one_pair_per_class, point_group

SQRT3 = math.sqrt(3.0)


def _cell(lat, u, v):
    """Index of the cell at axial (u, v) in the fundamental domain."""
    cell = u * lat.n_v + v
    assert (lat.u[cell], lat.v[cell]) == (u, v)
    return cell

def test_cell_counts():
    assert build_lattice(4).L == 81
    assert build_lattice(3).L == 27
    assert build_lattice(2).L == 9


def test_rejects_shallow_lattices():
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            build_lattice(bad)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_lattice(2, hole_ratio=1.0)
    with pytest.raises(ValueError):
        build_lattice(2, hole_ratio=-0.1)


def test_exponent_of_three():
    assert exponent_of_three(81) == 4
    assert exponent_of_three(3) == 1
    for bad in (80, 82, 1, 0, -9, 30):
        with pytest.raises(ValueError):
            exponent_of_three(bad)


def _frozen_coset_digits_path(lat, cell):
    """The per-cell coset walk the table replaced, kept verbatim as reference."""
    u, v = cell
    u, v = int(u) % lat.n_u, int(v) % lat.n_v
    digits = []
    for _ in range(lat.m - 1):
        c = (u + 2 * v) % 3
        digits.append(c)
        u, v = u - c, v
        u, v = (2 * u + v) // 3, (v - u) // 3
    index = 0
    path = [0]
    for depth, c in enumerate(digits):
        index += c * 3**depth
        path.append(index)
    return path


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_coset_table_matches_frozen_walk(m, wrap):
    lat = build_lattice(m, wraparound=wrap)
    assert lat.coset.shape == (lat.L, m)
    want = [_frozen_coset_digits_path(lat, (u, v))
            for u in range(lat.n_u) for v in range(lat.n_v)]
    assert np.array_equal(lat.coset, np.array(want))
    # cells are indexed in lexicographic (u, v) order
    assert np.array_equal(lat.u * lat.n_v + lat.v, np.arange(lat.L))


def test_depth_zero_is_root_coset(lat81):
    assert np.all(lat81.coset[:, 0] == 0)


def test_depth_one_cosets_of_nine_cells(lat9):
    _, sizes = np.unique(lat9.coset[:, 1], return_counts=True)
    assert sorted(sizes) == [3, 3, 3]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_coset_partition_sizes(m):
    lat = build_lattice(m)
    for depth in range(m):
        index, counts = np.unique(lat.coset[:, depth], return_counts=True)
        assert len(index) == 3**depth
        assert np.all(counts == lat.L // 3**depth)


def test_coset_refinement(lat81):
    # the deeper coset index determines the shallower one (3-ary tree)
    for depth in range(lat81.m - 1):
        parent, child = lat81.coset[:, depth], lat81.coset[:, depth + 1]
        assert np.array_equal(parent, child % 3**depth)


def test_same_coset_distance_grows_by_sqrt3(lat81):
    # nearest same-coset spacing must be sqrt(3)^i * sqrt(3) * r
    mins = []
    for depth in range(lat81.m):
        others = cosharing(lat81, 0, depth)
        mins.append(lat81.min_image_norms(lat81.centers[others] - lat81.centers[0]).min())
    for depth, got in enumerate(mins):
        assert got == pytest.approx(SQRT3 * SQRT3**depth, rel=1e-12)
    ratios = np.array(mins[1:]) / np.array(mins[:-1])
    assert np.allclose(ratios, SQRT3, rtol=1e-12)


def test_cosharing_counts(lat81, lat27):
    assert len(cosharing(lat81, 0, 0)) == 80
    assert len(cosharing(lat81, 0, 3)) == 2
    assert len(cosharing(lat27, _cell(lat27, 2, 1), 1)) == 8


def test_cosharing_excludes_self(lat27):
    cell = _cell(lat27, 4, 2)
    for depth in range(3):
        others = cosharing(lat27, cell, depth)
        assert cell not in others
        assert np.all(np.diff(others) > 0)
        assert np.all(lat27.coset[others, depth] == lat27.coset[cell, depth])
        # and nothing in the coset is left out
        assert np.sum(lat27.coset[:, depth] == lat27.coset[cell, depth]) == len(others) + 1


def test_distance_basics(lat81):
    c0 = lat81.centers[_cell(lat81, 0, 0)]
    c1 = lat81.centers[_cell(lat81, 1, 0)]
    assert lat81.min_image_norms(c0 - c0)[0] == 0.0
    assert lat81.min_image_norms(c1 - c0)[0] == pytest.approx(SQRT3)


def test_distance_wraparound_uses_nearest_image(lat81):
    # cell (8,0) on the 9x9 torus is one step left of cell (0,0)
    d = lat81.min_image_norms(lat81.centers[_cell(lat81, 8, 0)] - lat81.centers[0])
    assert d[0] == pytest.approx(SQRT3, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_min_image_matches_exhaustive_translate_search(m):
    lat = build_lattice(m)
    w1 = lat.n_u * np.array([SQRT3, 0.0])
    w2 = lat.n_v * np.array([SQRT3 / 2.0, 1.5])
    rng = np.random.default_rng(7)
    span = abs(w1) + abs(w2)
    pts = rng.uniform(-1.2, 1.2, size=(3000, 2)) * span
    got = lat.min_image_norms(pts)
    best = np.full(len(pts), np.inf)
    for i in range(-10, 11):
        for j in range(-10, 11):
            t = i * w1 + j * w2
            best = np.minimum(best, np.hypot(pts[:, 0] - t[0], pts[:, 1] - t[1]))
    assert np.allclose(got, best, atol=1e-12)


def test_no_wraparound_distance_is_plain_euclidean():
    lat = build_lattice(2, wraparound=False)
    a = lat.centers[_cell(lat, 2, 0)]
    assert lat.min_image_norms(a - lat.centers[0])[0] == pytest.approx(2 * SQRT3)


def test_sampling_respects_hole_and_hexagon(lat81):
    rng = np.random.default_rng(0)
    pts = lat81.sample_cell_offsets(20_000, rng)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.min() >= 0.14
    assert r.max() <= 1.0
    assert np.all(np.abs(pts[:, 0]) + SQRT3 * np.abs(pts[:, 1]) <= SQRT3 + 1e-12)


def test_sampling_mean_is_cell_center_without_hole():
    lat = build_lattice(2, hole_ratio=0.0)
    rng = np.random.default_rng(1)
    offsets = lat.sample_cell_offsets(4000, rng)
    # symmetric region: the mean offset converges to the center
    assert np.allclose(offsets.mean(axis=0), 0.0, atol=0.03)


def test_sampling_half_plane_fraction():
    lat = build_lattice(2)
    rng = np.random.default_rng(2)
    n = 40_000
    pts = lat.sample_cell_offsets(n, rng)
    frac = float((pts[:, 1] > 0).mean())
    sigma = 0.5 / math.sqrt(n)
    assert abs(frac - 0.5) < 3 * sigma


def _kernel_offsets(hole_ratio):
    """Hexagon corners, edge midpoints, the hole circle and interior points."""
    corner = np.pi / 6 + np.arange(6) * np.pi / 3
    corners = np.column_stack([np.cos(corner), np.sin(corner)])
    hole = np.arange(12) * np.pi / 6
    on_hole = hole_ratio * np.column_stack([np.cos(hole), np.sin(hole)])
    mids = (corners + np.roll(corners, 1, axis=0)) / 2
    inner = build_lattice(2, hole_ratio=hole_ratio).sample_cell_offsets(
        10, np.random.default_rng(5))
    return np.vstack([corners, on_hole, mids, inner])


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_user_distances_match_min_image_for_every_pair(m, wrap):
    lat = build_lattice(m, wraparound=wrap)
    offs = _kernel_offsets(lat.hole_ratio)
    # the offsets reach the hexagon corners, the worst case of the +2 margin
    assert np.hypot(offs[:, 0], offs[:, 1]).max() == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(offs[:, 0]) + SQRT3 * np.abs(offs[:, 1]) <= SQRT3 + 1e-12)
    cells = np.arange(lat.L)
    for bs in range(lat.L):
        delta = (lat.centers[:, None, :] - lat.centers[bs]) + offs
        want = lat.min_image_norms(delta.reshape(-1, 2)).reshape(lat.L, len(offs))
        # array cells against a row of offsets, one scalar BS
        got = lat.user_distances(bs, cells[:, None], offs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # scalar (bs, cell) pairs: only their own stored images
        scalar = np.array([lat.user_distances(bs, cell, offs) for cell in cells])
        np.testing.assert_allclose(scalar, want, rtol=0, atol=1e-12)
    # every BS at once, against one offset per cell: a (BS, cell) matrix
    per_cell = offs[np.arange(lat.L) % len(offs)]
    got = lat.user_distances(cells[:, None], cells[None, :], per_cell)
    delta = (lat.centers[None, :, :] - lat.centers[:, None, :]) + per_cell
    want = lat.min_image_norms(delta.reshape(-1, 2)).reshape(lat.L, lat.L)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # (group, i, j) pairs: the BS of member i seen by the user of member j,
    # repeated cells included
    group = np.random.default_rng(m).integers(0, lat.L, (7, 5))
    pos = offs[np.arange(group.size) % len(offs)].reshape(7, 5, 2)
    got = lat.user_distances(group[:, :, None], group[:, None, :], pos[:, None])
    delta = lat.centers[group][:, None, :, :] - lat.centers[group][:, :, None, :] + pos[:, None]
    want = lat.min_image_norms(delta.reshape(-1, 2)).reshape(7, 5, 5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the same pairs flattened, one (BS, user) pair per row
    flat = lat.user_distances(np.repeat(group, 5, axis=1).ravel(),
                              np.tile(group, 5).ravel(),
                              np.broadcast_to(pos[:, None], (7, 5, 5, 2)).reshape(-1, 2))
    assert np.array_equal(flat, got.ravel())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_stored_images_are_exactly_those_within_the_margin(m):
    lat = build_lattice(m)
    w1 = lat.n_u * np.array([SQRT3, 0.0])
    w2 = lat.n_v * np.array([SQRT3 / 2.0, 1.5])
    steps = np.arange(-10, 11)
    shifts = (steps[:, None, None] * w1 + steps[None, :, None] * w2).reshape(-1, 2)
    for r in range(lat.L):
        images = lat.centers[r] - shifts
        norms = np.hypot(images[:, 0], images[:, 1])
        admitted = images[norms <= norms.min() + 2.0 + 1e-9]
        count = lat._image_count[r]
        stored = np.column_stack([lat._image_xy[0][:, r], lat._image_xy[1][:, r]])
        assert count == len(admitted)
        # the padding repeats the nearest image, so it adds no new one
        assert np.unique(stored.round(9), axis=0).shape[0] == count
        assert np.allclose(np.sort(np.hypot(stored[:count, 0], stored[:count, 1])),
                           np.sort(np.hypot(admitted[:, 0], admitted[:, 1])), atol=1e-9)
        for image in stored:
            assert np.min(np.hypot(*(admitted - image).T)) < 1e-9


@pytest.mark.parametrize("m, wrap", [(m, True) for m in range(2, 7)]
                         + [(m, False) for m in range(2, 6)])
def test_images_and_orbits_match_the_frozen_numpy_tables(m, wrap):
    # the integer geometry against the float tables it replaced: the same
    # image set per class, nearest first, and the same orbits, numbered alike
    lat = build_lattice(m, wraparound=wrap)
    image_x, image_y, count, orbit, first = frozen_lattice_tables(m, wrap)
    assert len(lat._images) == len(count)
    for cls, images in enumerate(lat._images):
        x, y = image_x[:count[cls], cls], image_y[:count[cls], cls]
        a, b = np.rint(x * 2 / SQRT3).astype(int), np.rint(y * 2).astype(int)
        assert np.abs(a * SQRT3 / 2 - x).max() < 1e-9 and np.abs(b / 2 - y).max() < 1e-9
        assert sorted(images) == sorted(zip(a.tolist(), b.tolist()))
        norms = [3 * a * a + b * b for a, b in images]
        assert norms == sorted(norms)
    assert lat._class_orbits == (orbit.tolist(), first.tolist())


@pytest.mark.parametrize("m", [2, 5])
def test_image_tables_are_contiguous_and_no_table_is_L_by_L(m):
    lat = build_lattice(m)
    for table in lat._image_xy:
        assert table.flags.c_contiguous and table.shape == (len(table), lat.L)
    # the canonical difference comes from a table of about 4 L entries
    arrays = [a for a in vars(lat).values() if isinstance(a, np.ndarray)]
    assert max(a.size for a in [*arrays, *lat._image_xy]) < lat.L**2


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_pair_classes_represent_every_pair(m, wrap):
    lat = build_lattice(m, wraparound=wrap)
    cells = np.arange(lat.L)
    # any pair, not only the tagged cells'
    orbit, rep = lat.pair_orbits(cells[:, None], cells), lat.orbit_reps
    assert orbit.shape == (lat.L, lat.L)
    assert set(np.unique(orbit)) == set(range(len(rep)))
    n_classes = lat.L if wrap else (2 * lat.n_u - 1) * (2 * lat.n_v - 1)
    assert len(set(rep)) == len(rep) and 0 <= rep.min() and rep.max() < n_classes
    # pointwise: some symmetry g of the hexagon gives every user offset o of
    # pair (t, j) the distance of the representative's user at g o
    offs = _kernel_offsets(lat.hole_ratio)
    for t in range(lat.L):
        want = lat.user_distances(t, cells[:, None], offs)
        err = [np.abs(lat.class_distances(rep[orbit[t]][:, None], offs @ g.T) - want).max(axis=1)
               for g in point_group()]
        assert np.min(err, axis=0).max() < 1e-12


@pytest.mark.parametrize("m, wrap, classes, orbits", [
    (3, True, 27, 10), (4, True, 81, 12), (5, True, 243, 58), (4, False, 289, 45),
])
def test_pair_classes_fold_into_orbits(m, wrap, classes, orbits):
    lat = build_lattice(m, wraparound=wrap)
    assert len(one_pair_per_class(lat)[0]) == classes
    cells = np.arange(lat.L)
    assert len(lat.orbit_reps) == orbits
    assert lat.pair_orbits(cells[:, None], cells).max() == orbits - 1
    # computed on first use, not at lattice build
    assert "_orbits" in vars(lat) and "_orbits" not in vars(build_lattice(m, wraparound=wrap))


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_tagged_and_shared_depth_agree_with_the_cosets(m, wrap):
    lat = build_lattice(m, wraparound=wrap)
    assert list(lat.tagged) == ([0] if wrap else list(range(lat.L)))
    cells = np.arange(lat.L)
    depth = lat.shared_depth(cells)
    assert depth.shape == (lat.L, lat.L)
    assert np.array_equal(np.diag(depth), np.full(lat.L, -1))
    for cell in cells:
        for i in range(m):
            want = np.flatnonzero((lat.coset[:, i] == lat.coset[cell, i]) & (cells != cell))
            assert np.array_equal(np.flatnonzero(depth[cell] >= i), want)
    assert np.array_equal(lat.shared_depth(lat.tagged), depth[lat.tagged])


def _hexagon_mean_r2(hole):
    """E[x^2 + y^2] of a uniform point in the unit hexagon minus a disk."""
    return ((5 * SQRT3 / 8 - np.pi * hole**4 / 2)
            / (3 * SQRT3 / 2 - np.pi * hole**2))


@pytest.mark.parametrize("hole", [0.0, 0.14, 0.5])
def test_position_rule_is_a_uniform_measure_on_the_cell(hole):
    lat = build_lattice(2, hole_ratio=hole)
    nodes, weights = lat.position_rule(8)
    assert nodes.shape == (6 * 64, 2) and weights.shape == (6 * 64,)
    assert np.all(weights > 0) and weights.sum() == pytest.approx(1.0, abs=1e-15)
    r = np.hypot(nodes[:, 0], nodes[:, 1])
    assert np.all(r >= hole)
    assert np.all(np.abs(nodes[:, 0]) + SQRT3 * np.abs(nodes[:, 1]) <= SQRT3 + 1e-12)
    # symmetric, and exact moments up to the angular quadrature's error
    np.testing.assert_allclose(weights @ nodes, 0.0, atol=1e-15)
    fine_nodes, fine_weights = lat.position_rule(16)
    for w, x in ((weights, nodes), (fine_weights, fine_nodes)):
        assert w @ (x[:, 0] ** 2 + x[:, 1] ** 2) == pytest.approx(
            _hexagon_mean_r2(hole), rel=1e-9)


@pytest.mark.parametrize("hole", [0.0, 0.14])
@pytest.mark.parametrize("order", [8, 16])
def test_position_rule_maps_onto_itself_under_the_point_group(order, hole):
    # the premise of computing transforms and moments once per orbit of pair
    # classes: an asymmetric rule would bias them silently
    nodes, weights = build_lattice(2, hole_ratio=hole).position_rule(order)
    sq = (nodes ** 2).sum(axis=1)
    for g in point_group():
        moved = nodes @ g.T
        nearest = np.argmin(sq[None, :] - 2.0 * moved @ nodes.T, axis=1)
        assert np.array_equal(np.sort(nearest), np.arange(len(nodes)))
        assert np.abs(moved - nodes[nearest]).max() < 1e-14
        assert np.abs(weights[nearest] - weights).max() < 1e-14


def test_position_rule_refuses_empty_orders(lat9):
    with pytest.raises(ValueError, match="positive integer"):
        lat9.position_rule(0)


@pytest.mark.parametrize("hole", [SQRT3 / 2, 0.9])
def test_position_rule_refuses_holes_past_the_inscribed_circle(hole):
    # such a hole cuts the hexagon's edges: the radial interval from the
    # hole to an edge turns negative near each edge normal; just inside the
    # bound, every weight is positive
    assert np.all(build_lattice(2, hole_ratio=0.86).position_rule(16)[1] > 0)
    lat = build_lattice(2, hole_ratio=hole)
    with pytest.raises(ValueError, match=rf"hole_ratio < √3/2 = 0\.866025.*got {hole}"):
        lat.position_rule(16)
