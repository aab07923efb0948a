import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passlab import gridoracle
from passlab import (GridGraph, OracleResult, bottleneck_value, catalog_field,
                     critical_scan, default_box, enumerate_small, widest_value)
from passlab.errors import GridTooLarge
from passlab.fields import DomainBox

THREE_BY_THREE = np.array([[0.0, 5.0, 0.0],
                           [1.0, 2.0, 9.0],
                           [4.0, 3.0, 4.0]])


@pytest.fixture
def g33():
    return GridGraph(THREE_BY_THREE, connectivity=4)


def test_bottleneck_frozen_example(g33):
    p, q = g33.flat((0, 0)), g33.flat((0, 2))
    res = bottleneck_value(g33, p, q)
    assert res.value == 5.0
    assert res.witness[0] == p and res.witness[-1] == q


def test_widest_frozen_example(g33):
    p, q = g33.flat((2, 0)), g33.flat((2, 2))
    res = widest_value(g33, p, q)
    assert res.value == 3.0


def test_single_edge_cases(g33):
    p, q = g33.flat((1, 0)), g33.flat((1, 1))  # values 1 and 2, adjacent
    assert bottleneck_value(g33, p, q).value == 2.0
    assert widest_value(g33, p, q).value == 1.0


def test_enumeration_matches_sweep(g33):
    p, q = g33.flat((0, 0)), g33.flat((0, 2))
    assert enumerate_small(g33, p, q, "bottleneck").value == 5.0
    p, q = g33.flat((2, 0)), g33.flat((2, 2))
    assert enumerate_small(g33, p, q, "widest").value == 3.0


def test_enumeration_degenerate_endpoints(g33):
    p = g33.flat((1, 2))
    res = enumerate_small(g33, p, p, "bottleneck")
    assert res.value == 9.0 and res.witness == [p]


def test_same_node_rejected(g33):
    with pytest.raises(ValueError):
        bottleneck_value(g33, 0, 0)
    with pytest.raises(ValueError):
        widest_value(g33, 4, 4)


@pytest.mark.parametrize("oracle", [bottleneck_value, widest_value])
@pytest.mark.parametrize("p, q, name", [(-1, 8, "p"), (0, -1, "q"), (0, 9, "q"),
                                        (0.0, 8, "p"), (True, 8, "p"),
                                        (0, np.int64(9), "q")])
def test_node_index_validated(g33, oracle, p, q, name):
    with pytest.raises(ValueError, match=f"^{name}"):
        oracle(g33, p, q)
    with pytest.raises(ValueError, match=f"^{name}"):
        enumerate_small(g33, p, q, "bottleneck")


def test_numpy_integer_indices_accepted(g33):
    res = bottleneck_value(g33, np.int64(0), np.int32(2))
    assert res.value == 5.0 and res.witness[0] == 0 and res.witness[-1] == 2
    assert all(type(n) is int for n in res.witness)


def test_grid_too_large():
    g = GridGraph(np.zeros((6, 5)) + np.arange(30).reshape(6, 5))
    with pytest.raises(GridTooLarge):
        enumerate_small(g, 0, 29, "widest")


def test_duality_and_symmetry_random_grids():
    rng = np.random.default_rng(17)
    for _ in range(25):
        vals = rng.uniform(-1, 1, size=(4, 4))
        g = GridGraph(vals, connectivity=int(rng.choice([4, 8])))
        flat = vals.ravel()
        p, q = rng.choice(16, size=2, replace=False)
        bn = bottleneck_value(g, int(p), int(q))
        wd = widest_value(g, int(p), int(q))
        assert bn.value >= max(flat[p], flat[q])
        assert wd.value <= min(flat[p], flat[q])
        assert bn.value >= wd.value if p != q else True
        assert bottleneck_value(g, int(q), int(p)).value == bn.value
        assert widest_value(g, int(q), int(p)).value == wd.value


def test_witness_is_connected_path(g33):
    p, q = g33.flat((0, 0)), g33.flat((0, 2))
    res = bottleneck_value(g33, p, q)
    for a, b in zip(res.witness, res.witness[1:]):
        assert b in g33.neighbors(a)
    assert max(THREE_BY_THREE.ravel()[res.witness]) == res.value


def test_grid_validation():
    with pytest.raises(ValueError):
        GridGraph(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        GridGraph(np.array([[0.0, np.nan, 0.0]] * 3))
    with pytest.raises(ValueError, match="connectivity"):
        GridGraph(np.zeros((3, 3)), connectivity=5)


def test_from_field_and_nearest_node(w2s_field, w2s_box):
    g = GridGraph.from_field(w2s_field, w2s_box, 33)
    idx = g.nearest_node([1.0, 0.0])
    node = g.unflat(idx)
    point = [g.coords[ax][i] for ax, i in enumerate(node)]
    assert np.allclose(point, [1.0, 0.0], atol=0.07)
    assert g.values.shape == (33, 33)


@pytest.fixture(scope="module")
def w2s_9(w2s_field, w2s_box):
    return GridGraph.from_field(w2s_field, w2s_box, 9)


@pytest.mark.parametrize("point", [[np.nan, np.nan], [0.0, np.inf],
                                   [1.0, 0.0, 5.0], [1.0], [[1.0, 0.0]]])
def test_nearest_node_rejects_a_bad_point(w2s_9, point):
    # NaN snapped to node 0, a third coordinate was ignored, and a single
    # coordinate raised a raw IndexError
    with pytest.raises(ValueError, match=r"finite point of shape \(2,\)"):
        w2s_9.nearest_node(point)


def test_nearest_node_snaps_a_far_point_to_the_end_nodes(w2s_9):
    # |axis - 1e300| rounds to 1e300 at every node, which made node 0 win
    assert w2s_9.nearest_node([1e300, 1e300]) == 80
    assert w2s_9.nearest_node([-1e300, 1e300]) == 8
    assert w2s_9.nearest_node([1e300, -1e300]) == 72


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 3.0), st.floats(-2.0, 2.0))   # the box
def test_nearest_node_keeps_an_in_box_point_where_it_was(w2s_9, x, y):
    # the rule before clipping, kept here as the reference
    idx = [int(np.argmin(np.abs(axis - p))) for axis, p in zip(w2s_9.coords, (x, y))]
    assert w2s_9.nearest_node([x, y]) == w2s_9.flat(idx)


def test_oracle_resolution_trend(w2s_field, w2s_box):
    errs = []
    for res in (65, 129, 257):
        g = GridGraph.from_field(w2s_field, w2s_box, res)
        p = g.nearest_node([0.0, 0.0])
        q = g.nearest_node([1.0, 0.0])
        errs.append(abs(bottleneck_value(g, p, q).value - 1.0))
        assert widest_value(g, p, q).value <= 0.05
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[-1] <= 0.02


def test_critical_scan_paraboloid():
    clusters = critical_scan(catalog_field("paraboloid"),
                             default_box("paraboloid"), 201, 0.05)
    assert len(clusters) == 1
    assert np.allclose(clusters[0]["center"], [0.0, 0.0], atol=0.02)


def test_critical_scan_affine_empty():
    assert critical_scan(catalog_field("affine"), default_box("affine"),
                         101, 0.05) == []


def test_critical_scan_well_to_saddle():
    box = DomainBox(np.array([-1.0, -1.0]), np.array([3.0, 1.0]))
    clusters = critical_scan(catalog_field("well_to_saddle"), box, 401, 0.05)
    centers = sorted(c["center"][0] for c in clusters)
    assert len(clusters) == 3
    assert np.allclose(centers, [0.0, 1.0, 2.0], atol=0.02)


def _minimax_dijkstra(g: GridGraph, p: int, q: int, mode: str) -> float:
    """The bottleneck (widest) value from p to q by Dijkstra's method for the
    maximum-capacity route (Pollack, 1960): a heap keyed on each route's
    running maximum of sign * value, over GridGraph.neighbors.  It shares no
    code with the threshold sweep and runs in O(E log V) on any grid."""
    sign = -1.0 if mode == "widest" else 1.0
    vals = (sign * g.values.ravel()).tolist()
    best = {p: vals[p]}
    heap = [(vals[p], p)]
    while True:
        key, node = heapq.heappop(heap)
        if node == q:
            return sign * key
        if key > best[node]:   # a stale entry
            continue
        for nb in g.neighbors(node):
            k = max(key, vals[nb])
            if k < best.get(nb, math.inf):
                best[nb] = k
                heapq.heappush(heap, (k, nb))


def _assert_sweeps(g, p, q, reference):
    """Both sweeps equal reference(mode), and each witness is a route from p
    to q whose extremum is the value."""
    flat = g.values.ravel()
    for mode, sweep, extreme in (("bottleneck", bottleneck_value, max),
                                 ("widest", widest_value, min)):
        res = sweep(g, p, q)
        assert res.value == reference(mode)
        assert res.witness[0] == p and res.witness[-1] == q
        for a, b in zip(res.witness, res.witness[1:]):
            assert b in g.neighbors(a)
        assert extreme(flat[res.witness]) == res.value


def _values(draw, rng, n):
    """n node values: half small integers, so that threshold ties occur, and
    half uniform."""
    if draw(st.booleans()):
        return rng.integers(0, draw(st.integers(0, 3)) + 1, size=n).astype(float)
    return rng.uniform(-1.0, 1.0, size=n)


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _endpoints(draw, n):
    p = draw(st.integers(0, n - 1))
    q = draw(st.integers(0, n - 2))
    return p, q + (q >= p)


def _walks(g: GridGraph) -> int:
    """The most self-avoiding walks from any one node of g.  enumerate_small's
    DFS makes one call per walk from p that it extends, so this bounds its
    calls whatever the values."""
    adj = [g.neighbors(n) for n in range(g.n_nodes)]
    seen = [False] * g.n_nodes

    def count(node):
        seen[node] = True
        total = 1 + sum(count(nb) for nb in adj[node] if not seen[nb])
        seen[node] = False
        return total

    return max(count(n) for n in range(g.n_nodes))


# Enumeration is the reference only on the grids with at most ENUM_WALKS
# self-avoiding walks from a node: measured, at most 0.03 s of DFS per call
# on values that defeat its pruning.  The worst counts just past the bound
# are 293,648 and 1,012,520 on 3 x 5 and 4 x 4 8-connected grids, 153,745
# on a 5 x 5 4-connected grid and over two million on 3 x 3 x 3; those
# grids, and larger ones, are checked against Dijkstra.
ENUM_WALKS = 25_000
_ENUM_SHAPES = {   # connectivity -> shapes; 1-D grids take axis neighbours
    4: [(n,) for n in range(3, 26)] + [(3, b) for b in range(3, 8)]
    + [(4, 3), (4, 4), (4, 5), (5, 3), (5, 4)],
    8: [(n,) for n in range(3, 26)] + [(3, 3), (3, 4), (4, 3)],
}


@pytest.mark.parametrize("conn", sorted(_ENUM_SHAPES))
def test_enumeration_shapes_are_bounded(conn):
    walks = {shape: _walks(GridGraph(np.zeros(shape), conn))
             for shape in _ENUM_SHAPES[conn]}
    assert max(walks.values()) <= ENUM_WALKS, walks


@st.composite
def _enumerable_grids(draw):
    """Random grids whose enumeration is bounded by ENUM_WALKS, with
    endpoints p != q."""
    conn = draw(st.sampled_from(sorted(_ENUM_SHAPES)))
    shape = draw(st.sampled_from(_ENUM_SHAPES[conn]))
    n = math.prod(shape)
    return GridGraph(_values(draw, _rng(draw), n).reshape(shape), conn), \
        *_endpoints(draw, n)


@settings(max_examples=200, deadline=None)
@given(_enumerable_grids())
def test_sweep_matches_enumeration(case):
    g, p, q = case

    def reference(mode):
        value = enumerate_small(g, p, q, mode).value
        assert _minimax_dijkstra(g, p, q, mode) == value
        return value

    _assert_sweeps(g, p, q, reference)


@st.composite
def _large_grids(draw):
    """Random grids up to 200 nodes in 1-D, 65 x 65 in 2-D and 9 x 9 x 9 in
    3-D, each axis length uniform, with endpoints p != q."""
    dim, rng = draw(st.integers(1, 3)), _rng(draw)
    shape = tuple(rng.integers(3, {1: 200, 2: 65, 3: 9}[dim], size=dim, endpoint=True))
    n = math.prod(shape)
    g = GridGraph(_values(draw, rng, n).reshape(shape), draw(st.sampled_from([4, 8])))
    return g, *_endpoints(draw, n)


@settings(max_examples=100, deadline=None)
@given(_large_grids())
def test_sweep_matches_dijkstra(case):
    g, p, q = case
    _assert_sweeps(g, p, q, lambda mode: _minimax_dijkstra(g, p, q, mode))


def test_sweep_matches_dijkstra_at_the_corner_sizes():
    # the largest grids of the draw, with far-apart endpoints
    rng = np.random.default_rng(0)
    for shape, conn in (((65, 65), 8), ((65, 65), 4), ((9, 9, 9), 4)):
        for values in (rng.uniform(-1.0, 1.0, shape),
                       rng.integers(0, 4, shape).astype(float)):
            g = GridGraph(values, conn)
            p, q = 0, g.n_nodes - 1
            _assert_sweeps(g, p, q, lambda mode: _minimax_dijkstra(g, p, q, mode))


# Witnesses on grids with ties at the threshold.  Nodes activate in value
# order with ties broken by node index, and the witness is the breadth-first
# path whose every node takes the first frontier node (then the first
# offset) that reaches it as its parent; these lists pin both rules.
TIE_CASES = [
    (np.zeros((5, 5)), 4, "bottleneck", 0, 24,
     [0, 5, 10, 15, 20, 21, 22, 23, 24]),
    (np.zeros((5, 5)), 8, "widest", 4, 20, [4, 8, 12, 16, 20]),
    ([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
     4, "bottleneck", 11, 19, [11, 12, 13, 18, 19]),
    ([[0, 1, 0, 0, 1], [1, 0, 1, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 1, 0]],
     8, "widest", 10, 4, [10, 11, 7, 3, 4]),
    ([[[0, 0, 1], [0, 0, 0], [1, 0, 0]], [[1, 1, 1], [1, 1, 1], [1, 0, 1]],
      [[1, 1, 1], [0, 0, 0], [1, 1, 1]]], 4, "widest", 12, 1, [12, 9, 0, 1]),
    ([[1, 0, 1, 0, 1], [1, 0, 1, 0, 0], [1, 1, 1, 0, 0], [0, 1, 1, 1, 0],
      [1, 1, 0, 0, 0]], 4, "widest", 13, 22, [13, 18, 17, 22]),
]


@pytest.mark.parametrize("values, conn, mode, p, q, witness", TIE_CASES)
def test_tie_break_witness(values, conn, mode, p, q, witness):
    g = GridGraph(np.asarray(values, float), connectivity=conn)
    sweep = bottleneck_value if mode == "bottleneck" else widest_value
    assert sweep(g, p, q).witness == witness


# The threshold sweep before its bisection was bracketed by the axis route,
# kept verbatim as the reference: it bisects over every rank from the
# higher endpoint's to the last.

def _full_range_sweep(g: GridGraph, p, q, descending: bool) -> OracleResult:
    from scipy import ndimage
    p, q = gridoracle._node_index(g, p, "p"), gridoracle._node_index(g, q, "q")
    if p == q:
        raise ValueError("need p != q")
    vals = g.values.ravel()
    key = -vals if descending else vals
    order = np.lexsort((np.arange(vals.size), key))
    rank = np.empty(vals.size, dtype=np.intp)
    rank[order] = np.arange(vals.size)
    rank = rank.reshape(g.shape)
    structure = gridoracle._structure(g.dim, g.connectivity)
    lo, hi = max(rank.flat[p], rank.flat[q]), vals.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        labels, _ = ndimage.label(rank <= mid, structure=structure)
        if labels.flat[p] == labels.flat[q]:
            hi = mid
        else:
            lo = mid + 1
    active = rank <= lo
    method = "union_find_descending" if descending else "union_find_ascending"
    return OracleResult(float(vals[order[lo]]),
                        lambda: gridoracle._frontier_witness(g, active, p, q),
                        method)


@st.composite
def _bracket_grids(draw):
    """Random 1-3-D grids, larger than enumeration allows, half with small
    integer values so that ranks tie; q often shares all but one coordinate
    with p, so that the axis route is a straight line."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(3, {1: 40, 2: 12, 3: 6}[dim]))
                  for _ in range(dim))
    n = math.prod(shape)
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, draw(st.integers(0, 3))),
                               min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    a = [draw(st.integers(0, s - 1)) for s in shape]
    b = [draw(st.integers(0, s - 1)) for s in shape]
    if draw(st.booleans()):   # share a row, column or line of the grid
        keep = draw(st.integers(0, dim - 1))
        b = [b[ax] if ax == keep else a[ax] for ax in range(dim)]
    g = GridGraph(np.reshape(values, shape).astype(float),
                  draw(st.sampled_from([4, 8])))
    p, q = g.flat(a), g.flat(b)
    assume(p != q)
    return g, p, q


@settings(max_examples=300, deadline=None)
@given(_bracket_grids())
def test_bracketed_sweep_equals_the_full_range_sweep(case):
    g, p, q = case
    for descending, sweep in ((False, bottleneck_value), (True, widest_value)):
        got, want = sweep(g, p, q), _full_range_sweep(g, p, q, descending)
        assert (got.value, got.method) == (want.value, want.method)
        assert got.witness == want.witness


def test_readme_bottleneck_sweep_makes_no_label_pass(w2s_field, w2s_box):
    # on the README minimax config q = (1, 0) is the saddle, the highest node
    # of the straight route from p = (0, 0), so the bracket is closed
    from scipy import ndimage
    g = GridGraph.from_field(w2s_field, w2s_box, 257, 8)
    p, q = g.nearest_node([0.0, 0.0]), g.nearest_node([1.0, 0.0])
    want = _full_range_sweep(g, p, q, False).value
    with mock.patch.object(ndimage, "label", wraps=ndimage.label) as label:
        assert bottleneck_value(g, p, q).value == want
    assert label.call_count == 0
