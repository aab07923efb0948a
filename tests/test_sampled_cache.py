"""SampledBackend's exact nearest distances against KD-trees built here.

The backend searches each cloud's boundary nodes and the corners of a
query's grid cell only.  Its distances must equal cKDTree.query's on the
whole cloud bit for bit, for rows in the box, on its faces, up to one cell
outside it, in scanned cells, and next to empty bands; and a run of the
flow must not change by a bit when every distance is queried on such
trees instead.  scipy is the tests' oracle; the backend does not import it.
"""
import json
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from passlab import (BandPartition, DeformationField, DomainBox,
                     RegionSpec, SampledBackend,
                     catalog_field, default_box, polynomial_field,
                     verify_deformation)
from passlab import bands


def _trees(backend):
    """KD-trees on the backend's B, C and OUT clouds; None for an empty one."""
    return [cKDTree(cloud) if len(cloud) else None
            for cloud in (backend.clouds[k] for k in ("B", "C", "OUT"))]


def _tree_distances(trees, u):
    """(dB, dC, d_out) queried on the trees; +inf to an empty cloud."""
    return [np.full(len(u), np.inf) if tree is None else tree.query(u)[0]
            for tree in trees]


def _sq_dist(nodes, x):
    """Squared distances from the point x to each row of nodes, summed over
    the axes in order."""
    d2 = np.zeros(len(nodes))
    for a in range(len(x)):
        d2 += (nodes[:, a] - x[a]) ** 2
    return d2


@st.composite
def _masks_and_queries(draw):
    """A random set of nodes of a random box grid in 1, 2 or 3 dimensions,
    and query points in the box widened by one cell per side, a share of
    their coordinates snapped onto grid lines or cell midlines."""
    dim = draw(st.sampled_from([1, 2, 3]))
    res = draw(st.integers(3, {1: 60, 2: 15, 3: 7}[dim]))
    lo = np.array([draw(st.floats(-3.0, 0.0)) for _ in range(dim)])
    hi = lo + np.array([draw(st.floats(0.5, 4.0)) for _ in range(dim)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((res,) * dim) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    h = (hi - lo) / (res - 1)
    x = rng.uniform(lo - h, hi + h, (30, dim))
    snap = rng.integers(0, 3, x.shape)         # 0 keep, 1 grid line, 2 midline
    j = np.floor((x - lo) / h)
    x = np.where(snap == 1, lo + j * h, np.where(snap == 2, lo + (j + 0.5) * h, x))
    return DomainBox(lo, hi), res, mask, x


@settings(max_examples=80, deadline=None)
@given(_masks_and_queries())
def test_nearest_node_is_a_boundary_node_or_a_cell_corner(case):
    # the minimum over the boundary nodes and the corners of the query's
    # cell (none outside the box) equals the minimum over the set, bit for bit
    box, res, mask, queries = case
    grid = box.grid(res)
    nodes = grid[mask.ravel()]
    edge = grid[bands._boundary(mask).ravel()]
    if not len(nodes):
        assert not len(edge)
        return
    h = (box.hi - box.lo) / (res - 1)
    stride = res ** np.arange(box.dim - 1, -1, -1)
    flat_mask = mask.ravel()
    for x in queries:
        near = _sq_dist(edge, x)
        t = (x - box.lo) / h
        if np.all((t >= 0.0) & (t <= res - 1)):
            k = np.minimum(t.astype(int), res - 2)
            ids = [(k + np.array(c)) @ stride
                   for c in product((0, 1), repeat=box.dim)]
            ids = [i for i in ids if flat_mask[i]]
            near = np.concatenate([near, _sq_dist(grid[ids], x)])
        assert near.min(initial=np.inf) == _sq_dist(nodes, x).min()


def _assert_exact(backend, u):
    """distances equals the trees' distances with ==, and emits no warning."""
    part = backend.part
    phi = part.field.evaluate(u)
    gnorm = part.field.grad_norm(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = backend.distances(u, phi, gnorm)
    want = _tree_distances(_trees(backend), u)
    want[2] = np.minimum(want[2], part.d_distance(u, phi, gnorm))
    for g, w, name in zip(got, want, ("dB", "dC", "dXA")):
        assert np.array_equal(g, w), name


# a tilted bowl in 1, 2 and 3 dimensions on [-1, 1]^dim, and its grid
_RESOLUTION = {1: 201, 2: 61, 3: 17}


def _bowl(dim, c, eps):
    def axis_power(axis, power):
        return tuple(power if i == axis else 0 for i in range(dim))

    terms = [(axis_power(0, 2), 1.0), (axis_power(0, 1), 0.3)]
    terms += [(axis_power(a, 2), 0.5) for a in range(1, dim)]
    box = DomainBox(-np.ones(dim), np.ones(dim))
    part = BandPartition(polynomial_field(dim, terms), box,
                         c=c, eps=eps)
    return SampledBackend(part, _RESOLUTION[dim])


@st.composite
def _queries(draw):
    """A backend and query points in the box widened by one cell per side,
    a share of them snapped onto grid lines (the cells' faces)."""
    dim = draw(st.sampled_from([1, 2, 3]))
    c = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    eps = draw(st.sampled_from([0.05, 0.1, 0.25]))
    backend = _bowl(dim, c, eps)
    h = 2.0 / (_RESOLUTION[dim] - 1)
    coord = st.floats(-1.0 - h, 1.0 + h)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40))
    pts = np.array(pts, dtype=float)
    snap = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    pts[snap] = -1.0 + np.round((pts[snap] + 1.0) / h) * h
    return backend, pts, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_queries())
def test_cached_distances_equal_the_trees(query):
    backend, pts, seed = query
    _assert_exact(backend, pts)
    # a second, larger batch: cells listed by the first one are reused
    lo, hi = backend.part.box.lo, backend.part.box.hi
    h = (hi - lo) / (_RESOLUTION[len(lo)] - 1)
    more = np.random.default_rng(seed).uniform(lo - h, hi + h, (500, len(lo)))
    _assert_exact(backend, np.concatenate([pts, more]))


@pytest.mark.parametrize("name, coefs, empty", [
    ("paraboloid", None, "B"),                  # phi >= 0 at c = 0
    ("neg_paraboloid", (-1.0, -1.0), "C"),      # phi <= 0 at c = 0
])
def test_empty_band_at_a_global_extremum(name, coefs, empty):
    if coefs is None:
        field, box = catalog_field(name), default_box(name)
    else:
        field = polynomial_field(2, [((2, 0), coefs[0]), ((0, 2), coefs[1])])
        box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    part = BandPartition(field, box, c=0.0, eps=0.1)
    backend = SampledBackend(part, 101)
    assert len(backend.clouds[empty]) == 0
    pts = box.sample(np.random.default_rng(3), 3000)
    _assert_exact(backend, pts)
    assert np.all(np.isinf(backend.distances(
        pts, field.evaluate(pts), field.grad_norm(pts))[0 if empty == "B" else 1]))


def test_every_cloud_empty():
    # phi = x, c = 0, eps = 5 on [-1, 1]^2: A covers the box and B, C lie
    # outside it, so every distance is +inf
    part = BandPartition(catalog_field("affine"), default_box("affine"),
                         c=0.0, eps=5.0)
    backend = SampledBackend(part, 5)
    assert not any(len(cloud) for cloud in backend.clouds.values())
    pts = np.random.default_rng(2).uniform(-1.2, 1.2, (50, 2))
    _assert_exact(backend, pts)
    assert np.all(np.isinf(_tree_distances(_trees(backend), pts)))


def test_ring_centre_cell_is_scanned():
    # the paraboloid's B band at c = 1 is a ring around the origin: every
    # ring point can be nearest to a point of the centre cell, far more
    # than the cap
    part = BandPartition(catalog_field("paraboloid"), default_box("paraboloid"),
                         c=1.0, eps=0.3)
    backend = SampledBackend(part, 201)
    centre = np.array([[0.0, 0.0], [0.005, -0.003], [0.3, 0.2]])
    _assert_exact(backend, centre)
    assert np.count_nonzero(backend._slot == bands._SCANNED) >= 1
    rng = np.random.default_rng(11)
    _assert_exact(backend, np.concatenate([centre, rng.uniform(-0.1, 0.1, (200, 2))]))


def test_cells_over_a_lower_cap_mix_with_listed_ones(monkeypatch):
    # with a cap of 2 most cells are scanned; one batch then mixes listed
    # cells, scanned cells and rows outside the box
    monkeypatch.setattr(bands, "CELL_CAP", 2)
    backend = _bowl(2, 0.3, 0.1)
    pts = np.random.default_rng(4).uniform(-1.05, 1.05, (3000, 2))
    _assert_exact(backend, pts)
    slots = backend._slot[backend._slot != bands._UNFILLED]
    assert np.any(slots == bands._SCANNED) and np.any(slots >= 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_every_row_scanned_in_small_blocks(monkeypatch, dim):
    # a cap of 0 scans every row, and a budget of 64 (row, node) pairs
    # scans them a few rows at a time; rows on the grid's last lines sit
    # in the last cell
    monkeypatch.setattr(bands, "CELL_CAP", 0)
    monkeypatch.setattr(bands, "_SCAN", 64)
    backend = _bowl(dim, 0.3, 0.1)
    pts = np.random.default_rng(dim).uniform(-1.05, 1.05, (400, dim))
    pts[:20, 0] = 1.0
    _assert_exact(backend, pts)
    assert np.all(backend._slot[backend._slot != bands._UNFILLED] == bands._SCANNED)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_raises_must_be_finite(bad):
    backend = _bowl(2, 0.3, 0.1)
    u = np.array([[0.1, 0.2], [bad, 0.0], [0.3, -0.4]])
    phi = np.array([0.1, 0.2, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no RuntimeWarning from casting NaN
        with pytest.raises(ValueError, match="must be finite"):
            backend.distances(u, phi, np.ones(3))


def test_large_batch_is_chunked_and_exact():
    backend = _bowl(2, 0.6, 0.25)
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, (3 * bands._CHUNK + 17, 2))
    _assert_exact(backend, pts)


class _TreeBackend(SampledBackend):
    """The sampled backend with every distance queried on KD-trees."""

    def __init__(self, part, resolution):
        super().__init__(part, resolution)
        self.trees = _trees(self)

    def distances(self, u, phi, gnorm):
        dB, dC, d_out = _tree_distances(self.trees, u)
        return dB, dC, np.minimum(d_out, self.part.d_distance(u, phi, gnorm))


def test_flow_is_bit_identical_to_tree_queries():
    # the deform_flow configuration, reduced to 200 samples
    part = BandPartition(catalog_field("well_to_saddle"),
                         default_box("well_to_saddle"),
                         0.5, 0.1, RegionSpec.level_set(0.5))
    runs = []
    for backend in (SampledBackend(part, 201), _TreeBackend(part, 201)):
        df = DeformationField(backend)
        report = verify_deformation(df, 200, seed=1)
        grid = np.asarray(df.psi(part.box.grid(101)))
        runs.append((json.dumps(report.to_dict(), sort_keys=True), grid.tobytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
