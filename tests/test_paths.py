import csv
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationField, DiscretePath, DomainBox,
                     MountainPassInstance, RegionSpec, ScalarField,
                     build_backend, catalog_field, default_box, deform_path,
                     make_path, path_extrema)
from passlab.errors import PinMoved
from passlab.gridoracle import GridGraph, enumerate_small


def test_axis_init_pins_exact(w2s_instance):
    p = make_path(w2s_instance, 8, init="axis")
    assert np.array_equal(p.nodes[2], [0.0, 0.0])
    assert np.array_equal(p.nodes[4], [1.0, 0.0])
    # free prefix collapses onto the zero pin, suffix onto e
    assert np.array_equal(p.nodes[0], p.nodes[2])
    assert np.array_equal(p.nodes[8], p.nodes[4])


def test_invalid_m(w2s_instance):
    # one rule, one error type: "8" was a raw TypeError and True an InvalidM
    for M in (6, 4, 0, -8, 9, 10, "8", True):
        with pytest.raises(ValueError, match="^M must be "):
            make_path(w2s_instance, M)


def test_jitter_keeps_pins(w2s_instance):
    p = make_path(w2s_instance, 8, init="jitter", scale=0.1, seed=7)
    assert np.array_equal(p.nodes[2], [0.0, 0.0])
    assert np.array_equal(p.nodes[4], [1.0, 0.0])
    axis = make_path(w2s_instance, 8, init="axis")
    free = [i for i in range(9) if i not in (2, 4)]
    assert not np.array_equal(p.nodes[free], axis.nodes[free])


def test_make_path_deterministic(w2s_instance):
    a = make_path(w2s_instance, 16, init="jitter", scale=0.2, seed=5)
    b = make_path(w2s_instance, 16, init="jitter", scale=0.2, seed=5)
    assert np.array_equal(a.nodes, b.nodes)


def test_path_extrema_frozen_example(w2s_instance):
    xs = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0]
    nodes = np.column_stack([xs, np.zeros(9)])
    path = DiscretePath(nodes, (2, 4))
    ext = path_extrema(w2s_instance, path)
    assert ext["max_value"] == 9.0 and ext["max_arg_index"] == 0
    # nodes 2 and 8 both attain 0; the tie breaks to the lower index
    assert ext["min_value"] == 0.0 and ext["min_arg_index"] == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pin_sandwich(w2s_instance, seed):
    p = make_path(w2s_instance, 16, init="jitter", scale=0.3, seed=seed)
    ext = path_extrema(w2s_instance, p)
    f = w2s_instance.field
    lo = min(float(f.evaluate(w2s_instance.pin_zero)),
             float(f.evaluate(w2s_instance.pin_e)))
    hi = max(float(f.evaluate(w2s_instance.pin_zero)),
             float(f.evaluate(w2s_instance.pin_e)))
    assert ext["min_value"] <= lo and ext["max_value"] >= hi


def test_deformation_fixes_pins_exactly(w2s_deformation):
    # the two-pin argument needs eta(0) = 0 (via D at the valley level) and
    # eta(e) = e (e sits outside the band); both must be bit-exact
    for pin in (np.array([0.0, 0.0]), np.array([1.0, 0.0])):
        from passlab import eta
        assert np.array_equal(eta(w2s_deformation, pin), pin)


def test_deform_path_preserves_pins(w2s_instance, w2s_deformation):
    # a collapsed near-optimal path: every node sits on a cutoff plateau
    # (the valley level set or outside the band), so the whole path is a
    # fixed point and in particular no pin moves
    nodes = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 6)
    p = DiscretePath(nodes, (2, 4))
    out = deform_path(w2s_deformation, p)
    assert np.array_equal(out.nodes, p.nodes)


def test_deform_path_identity_outside(affine_wide_df, w2s_field):
    inst = MountainPassInstance(affine_wide_df.field, affine_wide_df.part.box,
                                np.array([-1.9, 0.0]), np.array([1.5, 0.0]))
    p = make_path(inst, 8, init="axis")
    out = deform_path(affine_wide_df, p)
    # the node at (1.5, 0) lies outside the band and must not move
    assert np.array_equal(out.nodes[4], [1.5, 0.0])


def test_pin_moved_raises(affine_wide_df):
    # a pin parked inside the pull-down band gets transported by the flow
    inst = MountainPassInstance(affine_wide_df.field, affine_wide_df.part.box,
                                np.array([-1.9, 0.0]), np.array([0.4, 0.0]))
    p = make_path(inst, 8, init="axis")
    with pytest.raises(PinMoved):
        deform_path(affine_wide_df, p)


def test_endpoints_mode_pins(w2s_field, w2s_box):
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.0, 0.0]),
                                np.array([2.0, 0.0]), pin_mode="endpoints")
    p = make_path(inst, 8, init="axis")
    assert p.pinned == (0, 8)
    assert np.array_equal(p.nodes[0], [0.0, 0.0])
    assert np.array_equal(p.nodes[8], [2.0, 0.0])


_UNIT = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["affine", "well_to_saddle"]), _UNIT, _UNIT,
       st.booleans(), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1))
def test_pins_exact_under_deform_path(name, a, b, d_on_e, scale, seed):
    # the two-pin argument's setting: D is the level set through one pin and
    # eps is small enough that the other pin lies outside the band, so the
    # deformation must return both pins bit for bit whatever the free nodes
    # of the path do
    f, box = catalog_field(name), default_box(name)
    z = box.lo + np.asarray(a) * (box.hi - box.lo)
    e = box.lo + np.asarray(b) * (box.hi - box.lo)
    phi_z, phi_e = float(f.evaluate(z)), float(f.evaluate(e))
    gap = abs(phi_e - phi_z)
    assume(gap > 1e-3)
    c = phi_e if d_on_e else phi_z
    eps = min(0.5, gap / 4.0)
    part = BandPartition(f, box, c, eps, RegionSpec.level_set(c))
    df = DeformationField(build_backend(part, "first_order", 41),
                          step=2.0 * eps / 200)
    inst = MountainPassInstance(f, box, z, e)
    path = make_path(inst, 16, init="jitter", scale=scale, seed=seed)
    out = deform_path(df, path)
    for idx in path.pinned:
        assert np.array_equal(out.nodes[idx], path.nodes[idx])


def _reference_to_csv(path, file, field):
    """DiscretePath.to_csv as csv.writer wrote it, one row at a time."""
    dim = path.nodes.shape[1]
    header = ["index", "t"] + [f"x{i+1}" for i in range(dim)] + ["phi"]
    phis = field.evaluate(path.nodes)
    with open(file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, (t, p) in enumerate(zip(path.params, path.nodes)):
            w.writerow([i, float(t), *map(float, p), float(phis[i])])


_NODE_VALUES = np.array([0.0, -0.0, 5e-324, -1e-300, 1e-300, 1e300, -1e300,
                         1.7e308, 0.1, -2.5])


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(rows=st.sampled_from([9, 1024, 1025, 2 * 1024 + 7]),
       seed=st.integers(0, 2**32 - 1))
def test_to_csv_bytes_equal_the_csv_writer(tmp_path_factory, dim, rows, seed):
    # nodes of many magnitudes with +-0.0 and values near 1e+-300, over up to
    # three blocks of rows; phi is the first coordinate times the last, each
    # scaled first, so it overflows to +-inf and is NaN (inf * 0) too
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-300, 300, (rows, dim))
    special = rng.random((rows, dim)) < 0.3
    nodes[special] = rng.choice(_NODE_VALUES, np.count_nonzero(special))

    def ev(u):
        with np.errstate(over="ignore", invalid="ignore"):
            return (u[..., 0] * 1e10) * (u[..., -1] * 1e-10)

    field = ScalarField("product", dim, ev, lambda u: np.zeros(u.shape))
    path = DiscretePath(nodes, (0, rows - 1))
    tmp = tmp_path_factory.mktemp("csv")
    want, got = tmp / "want.csv", tmp / "got.csv"
    _reference_to_csv(path, str(want), field)
    path.to_csv(str(got), field)
    assert got.read_bytes() == want.read_bytes()


def test_make_path_jitter_scale_zero_is_the_axis_path(w2s_instance):
    axis = make_path(w2s_instance, 8, init="axis")
    assert np.array_equal(make_path(w2s_instance, 8, init="jitter",
                                    scale=0.0).nodes, axis.nodes)


def _library_errors(w2s_instance, affine_wide_df):
    path_3d = DiscretePath(np.zeros((9, 3)), (2, 4))
    grid = GridGraph(np.zeros((3, 3)))
    return {
        "make_path_init": lambda: make_path(w2s_instance, 8, init="spiral"),
        # NaN gave NaN free nodes, inf clipped them onto the box corners
        "make_path_scale_nan": lambda: make_path(w2s_instance, 8, init="jitter",
                                                 scale=np.nan),
        "make_path_scale_inf": lambda: make_path(w2s_instance, 8, init="jitter",
                                                 scale=np.inf),
        "deform_path_dimension": lambda: deform_path(affine_wide_df, path_3d),
        "grid_4d": lambda: GridGraph(np.zeros((3, 3, 3, 3))),
        "enumerate_mode": lambda: enumerate_small(grid, 0, 8, "deepest"),
        "partition_dimensions": lambda: BandPartition(
            catalog_field("affine"), DomainBox(-np.ones(3), np.ones(3)), 0.0, 0.5),
    }


@pytest.mark.parametrize("case, message", [
    ("make_path_init", "unknown init 'spiral'"),
    ("make_path_scale_nan", "scale must be finite and >= 0, got nan"),
    ("make_path_scale_inf", "scale must be finite and >= 0, got inf"),
    ("deform_path_dimension", "path dimension does not match"),
    ("grid_4d", "grid dimension must be 1, 2 or 3"),
    ("enumerate_mode", "mode must be 'bottleneck' or 'widest'"),
    ("partition_dimensions", "field and box dimensions differ"),
])
def test_library_argument_errors(w2s_instance, affine_wide_df, case, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _library_errors(w2s_instance, affine_wide_df)[case]()
