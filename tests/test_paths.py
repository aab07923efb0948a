import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationField, DeformationParams,
                     DiscretePath, FlowConfig,
                     MountainPassInstance, RegionSpec, build_backend,
                     catalog_field, default_box, deform_path, make_path,
                     path_extrema)
from passlab.errors import InvalidM, PinMoved


def test_axis_init_pins_exact(w2s_instance):
    p = make_path(w2s_instance, 8, init="axis")
    assert np.array_equal(p.nodes[2], [0.0, 0.0])
    assert np.array_equal(p.nodes[4], [1.0, 0.0])
    # free prefix collapses onto the zero pin, suffix onto e
    assert np.array_equal(p.nodes[0], p.nodes[2])
    assert np.array_equal(p.nodes[8], p.nodes[4])


def test_invalid_m(w2s_instance):
    for M in (6, 4, 0, -8, 9):
        with pytest.raises(InvalidM):
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


def test_path_extrema_subsampling(w2s_instance):
    p = make_path(w2s_instance, 8, init="axis")
    coarse = path_extrema(w2s_instance, p)
    fine = path_extrema(w2s_instance, p, samples_per_segment=8)
    assert fine["max_value"] >= coarse["max_value"]
    assert fine["min_value"] <= coarse["min_value"]


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
    cfg = FlowConfig()
    for pin in (np.array([0.0, 0.0]), np.array([1.0, 0.0])):
        from passlab import eta
        assert np.array_equal(eta(w2s_deformation, cfg, pin), pin)


def test_deform_path_preserves_pins(w2s_instance, w2s_deformation):
    # a collapsed near-optimal path: every node sits on a cutoff plateau
    # (the valley level set or outside the band), so the whole path is a
    # fixed point and in particular no pin moves
    nodes = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 6)
    p = DiscretePath(nodes, (2, 4))
    out = deform_path(w2s_deformation, FlowConfig(), p)
    assert np.array_equal(out.nodes, p.nodes)


def test_deform_path_identity_outside(affine_wide_df, w2s_field):
    inst = MountainPassInstance(affine_wide_df.field, affine_wide_df.part.box,
                                np.array([-1.9, 0.0]), np.array([1.5, 0.0]))
    p = make_path(inst, 8, init="axis")
    out = deform_path(affine_wide_df, FlowConfig(), p)
    # the node at (1.5, 0) lies outside the band and must not move
    assert np.array_equal(out.nodes[4], [1.5, 0.0])


def test_pin_moved_raises(affine_wide_df):
    # a pin parked inside the pull-down band gets transported by the flow
    inst = MountainPassInstance(affine_wide_df.field, affine_wide_df.part.box,
                                np.array([-1.9, 0.0]), np.array([0.4, 0.0]))
    p = make_path(inst, 8, init="axis")
    with pytest.raises(PinMoved):
        deform_path(affine_wide_df, FlowConfig(), p)


def test_endpoints_mode_pins(w2s_field, w2s_box):
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.0, 0.0]),
                                np.array([2.0, 0.0]), pin_mode="endpoints",
                                radius=1.0)
    p = make_path(inst, 8, init="axis")
    assert p.pinned == (0, 8)
    assert np.array_equal(p.nodes[0], [0.0, 0.0])
    assert np.array_equal(p.nodes[8], [2.0, 0.0])


def test_endpoints_mode_radius_constraint(w2s_field, w2s_box):
    with pytest.raises(ValueError):
        MountainPassInstance(w2s_field, w2s_box, np.array([0.0, 0.0]),
                             np.array([0.5, 0.0]), pin_mode="endpoints",
                             radius=1.0)


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
    part = BandPartition(f, box, DeformationParams(c, min(0.5, gap / 4.0)),
                         RegionSpec.level_set(c))
    df = DeformationField(part, build_backend(part, "first_order", 41))
    inst = MountainPassInstance(f, box, z, e)
    path = make_path(inst, 16, init="jitter", scale=scale, seed=seed)
    out = deform_path(df, FlowConfig(step=df.horizon / 200), path)
    for idx in path.pinned:
        assert np.array_equal(out.nodes[idx], path.nodes[idx])
