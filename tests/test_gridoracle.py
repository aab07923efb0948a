import numpy as np
import pytest

from passlab import (GridGraph, bottleneck_value, catalog_field, critical_scan,
                     default_box, enumerate_small, widest_value)
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


def test_from_field_and_nearest_node(w2s_field, w2s_box):
    g = GridGraph.from_field(w2s_field, w2s_box, 33)
    idx = g.nearest_node([1.0, 0.0])
    assert np.allclose(g.point(idx), [1.0, 0.0], atol=0.07)
    assert g.values.shape == (33, 33)


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
