import hashlib
import types
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationField, DomainBox,
                     FirstOrderBackend, RegionSpec, RegionTag, SampledBackend,
                     ScalarField, build_backend, catalog_field,
                     classify_region, default_box, polynomial_field, psi,
                     vector_field)
from passlab.bands import (MIN_GRAD_FLOOR, _UNDERFLOW, _grid_tags, _quotient,
                           band_ranges, cutoff_stage)
from passlab.cli import export_region_clouds
from passlab.flow import eta_batch
from passlab.errors import InvalidRegionSpec
from passlab.paths import _EXPORT_ROWS


def test_classify_examples(affine_part):
    assert classify_region(affine_part, [-0.4, 0.0]) is RegionTag.B
    assert classify_region(affine_part, [1.5, 0.0]) is RegionTag.OUTSIDE
    assert classify_region(affine_part, [0.8, 0.0]) is RegionTag.A_OTHER
    assert classify_region(affine_part, [0.4, 0.0]) is RegionTag.C


def test_exact_slab_distances(affine_wide_df):
    # on [-2,2]^2 every band and both sides of the complement of A have
    # points in the box, so the distances are the closed-form slab ones
    part, backend = affine_wide_df.part, affine_wide_df.backend
    pts = np.array([[0.0, 0.0], [0.8, 0.0], [0.1, 0.0]])
    dB, dC, dXA = backend.distances(pts, part.field.evaluate(pts),
                                    part.field.grad_norm(pts))
    assert dB[0] == pytest.approx(0.3)
    assert dXA[1] == pytest.approx(0.2)
    assert dC[2] == pytest.approx(0.2)


def test_psi_plateaus_exact(affine_part, affine_backend):
    assert float(psi(affine_part, affine_backend, [-0.4, 0.0])) == 1.0
    assert float(psi(affine_part, affine_backend, [0.4, 0.0])) == -1.0
    assert float(psi(affine_part, affine_backend, [0.0, 0.0])) == 0.0


def test_psi_quotient_value(affine_wide_df):
    # distC = 0.2, distB = 0.4, dist to X\A = 0.9 at (0.1, 0):
    # (-0.2 * 0.9) / (0.6 * 0.9 + 0.4 * 0.2) = -9/31
    value = float(affine_wide_df.psi([0.1, 0.0]))
    assert value == pytest.approx(-9.0 / 31.0, abs=1e-12)


def test_psi_sign_structure_on_axis(affine_part, affine_backend):
    xs = np.linspace(-0.29, -0.01, 15)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    assert np.all(psi(affine_part, affine_backend, pts) > 0)
    pts[:, 0] = -pts[:, 0]
    assert np.all(psi(affine_part, affine_backend, pts) < 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1))
def test_psi_bounded(affine_part, affine_backend, x, y):
    assert abs(float(psi(affine_part, affine_backend, [x, y]))) <= 1.0


def test_plateau_sampling_no_violations(affine_part, affine_backend):
    rng = np.random.default_rng(11)
    pts = affine_part.box.sample(rng, 10_000)
    tags = affine_part.classify(pts)
    vals = psi(affine_part, affine_backend, pts)
    assert np.all(vals[tags == RegionTag.B] == 1.0)
    assert np.all(vals[tags == RegionTag.C] == -1.0)
    assert np.all(vals[tags == RegionTag.OUTSIDE] == 0.0)
    assert np.all(np.abs(vals) <= 1.0)


def test_backend_agreement(affine_wide_df):
    # the wider box is needed so the band complement is nonempty and the
    # sampled backend has a cloud to measure against
    part, exact_backend = affine_wide_df.part, affine_wide_df.backend
    sampled = build_backend(part, "sampled", resolution=201)
    rng = np.random.default_rng(5)
    pts = part.box.sample(rng, 2000)
    exact = psi(part, exact_backend, pts)
    approx = psi(part, sampled, pts)
    assert np.max(np.abs(exact - approx)) <= 0.05


def test_continuity_probe_reports_finite_constant(affine_part, affine_backend):
    rng = np.random.default_rng(9)
    u = affine_part.box.sample(rng, 1000) * (1 - 2e-4)
    delta = rng.uniform(-1e-4, 1e-4, size=u.shape)
    diff = np.abs(psi(affine_part, affine_backend, u + delta)
                  - psi(affine_part, affine_backend, u))
    norms = np.linalg.norm(delta, axis=-1)
    K = float(np.max(diff / np.maximum(norms, 1e-300)))
    assert np.isfinite(K)


def test_d_levelset_accepted_at_center(affine_part):
    part = replace(affine_part, d_spec=RegionSpec.level_set(0.0))
    assert classify_region(part, [0.0, 0.77]) is RegionTag.D


def test_d_spec_too_close_to_bands_rejected(affine_part):
    # value ranges B = [-0.5, -0.3] and C = [0.3, 0.5] with eps = 0.5 must
    # stay 0.05 * eps away from D
    for bad in (-0.3, 0.29, -0.1 - 0.5 * 0.5, 0.6 * 0.5):
        with pytest.raises(InvalidRegionSpec):
            replace(affine_part, d_spec=RegionSpec.level_set(bad))


@pytest.mark.parametrize("kind, kw", [
    ("bogus", {}),                                    # a raw AttributeError
    ("point_cloud", {}),                              # a raw AttributeError
    ("level_set", {}),                                # a raw TypeError
    ("level_set", {"value": np.nan}),
    ("level_set", {"value": "abc"}),
    ("level_set", {"value": 0.0, "thickness": 0.0}),
    ("level_set", {"value": 0.0, "thickness": -1e-3}),
    ("level_set", {"value": 0.0, "thickness": np.nan}),
    ("level_set", {"value": 0.0, "thickness": np.inf}),
    ("point_cloud", {"points": [[0.0, np.nan]]}),
    ("point_cloud", {"points": [[0.0, 0.0], [0.5]]}),
    ("point_cloud", {"points": np.zeros((2, 2, 2))}),
], ids=["bogus_kind", "cloud_without_points", "level_without_value",
        "nan_value", "string_value", "zero_thickness", "negative_thickness",
        "nan_thickness", "inf_thickness", "nan_point", "ragged_points",
        "3d_points"])
def test_malformed_region_spec_rejected_at_construction(kind, kw):
    with pytest.raises(InvalidRegionSpec):
        RegionSpec(kind, **kw)


def test_psi_zero_on_d(affine_part, affine_field):
    part = replace(affine_part, d_spec=RegionSpec.level_set(0.0))
    backend = build_backend(part)
    assert float(psi(part, backend, [0.0, 0.5])) == 0.0


def test_point_cloud_d_membership(affine_field, affine_part):
    cloud = [[0.0, 0.0], [0.0, 0.5]]
    part = replace(affine_part, d_spec=RegionSpec.point_cloud(cloud))
    assert classify_region(part, [0.0, 0.5]) is RegionTag.D


@pytest.mark.parametrize("empty", ["B", "C", "BC"])
def test_psi_limit_with_empty_band(w2s_deformation, empty):
    # dist(u, empty set) = +inf; psi takes the quotient's limit,
    # -dXA / (dXA + dC) without B, dXA / (dXA + dB) without C, and 0
    # without both
    if empty == "B":
        part, backend = w2s_deformation.part, w2s_deformation.backend
    elif empty == "C":   # -x^2 - y^2 <= 0 at c = 0: C is empty
        f = polynomial_field(2, [((2, 0), -1.0), ((0, 2), -1.0)])
        box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        part = BandPartition(f, box, c=0.0, eps=0.1)
        backend = build_backend(part, "sampled", resolution=101)
    else:   # the 3 x 3 grid's phi-values 0, 4, 8 all lie outside [0.3, 0.7]
        part = BandPartition(catalog_field("paraboloid"), default_box("paraboloid"),
                             c=0.5, eps=0.1)
        backend = build_backend(part, "sampled", resolution=3)
        assert len(backend.clouds["OUT"]) == 9
    pts = part.box.sample(np.random.default_rng(5), 4000)
    pts = pts[part.classify(pts) == RegionTag.A_OTHER]
    assert len(pts) > 20
    phi = part.field.evaluate(pts)
    dB, dC, dXA = backend.distances(pts, phi, part.field.grad_norm(pts))
    assert np.all(np.isinf(dB) == ("B" in empty))
    assert np.all(np.isinf(dC) == ("C" in empty))
    if empty == "B":
        want = -dXA / (dXA + dC)
    elif empty == "C":
        want = dXA / (dXA + dB)
    else:
        want = np.zeros_like(dXA)
    with warnings.catch_warnings():   # inf - inf must stay inside the limit
        warnings.simplefilter("error", RuntimeWarning)
        got = psi(part, backend, pts)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(got) <= 1.0)


def _empty_band_partition(empty):
    """The partitions of test_psi_limit_with_empty_band and the resolution
    its sampled backend uses: B empty, C empty, or both."""
    if empty == "B":   # well_to_saddle, phi >= 0, at the valley level c = 0
        part = BandPartition(catalog_field("well_to_saddle"),
                             default_box("well_to_saddle"),
                             0.0, 0.1,
                             RegionSpec.level_set(0.0))
        return part, 201
    if empty == "C":   # -x^2 - y^2 <= 0 at c = 0
        f = polynomial_field(2, [((2, 0), -1.0), ((0, 2), -1.0)])
        box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        return BandPartition(f, box, c=0.0, eps=0.1), 101
    # the 3 x 3 grid's phi-values 0, 4, 8 all lie outside [0.3, 0.7]
    return BandPartition(catalog_field("paraboloid"), default_box("paraboloid"),
                         c=0.5, eps=0.1), 3


@pytest.mark.parametrize("empty", ["B", "C", "BC"])
def test_first_order_psi_limit_with_empty_band(empty):
    # the first-order backend takes a band as empty exactly where the
    # sampled backend at the same resolution has no cloud, and psi takes
    # the same limit of the quotient there
    part, resolution = _empty_band_partition(empty)
    backend = build_backend(part, "first_order", resolution)
    sampled = build_backend(part, "sampled", resolution)
    pts = part.box.sample(np.random.default_rng(5), 4000)
    pts = pts[part.classify(pts) == RegionTag.A_OTHER]
    assert len(pts) > 20
    phi = part.field.evaluate(pts)
    gnorm = part.field.grad_norm(pts)
    dB, dC, dXA = backend.distances(pts, phi, gnorm)
    sB, sC, sXA = sampled.distances(pts, phi, gnorm)
    for got, ref, region in ((dB, sB, "B"), (dC, sC, "C")):
        assert np.all(np.isinf(got) == (region in empty))
        assert np.array_equal(np.isinf(got), np.isinf(ref))
    assert np.all(np.isfinite(dXA) & (dXA > 0))
    if empty == "B":
        want = -dXA / (dXA + dC)
    elif empty == "C":
        want = dXA / (dXA + dB)
    else:
        want = np.zeros_like(dXA)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = psi(part, backend, pts)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(got) <= 1.0)


def test_first_order_complement_sides(affine_part):
    # on [-1, 1]^2 with phi = x, c = 0, eps = 0.5 the band A = [-1, 1] is
    # the whole box: no grid point lies outside A on either side, so the
    # complement of A is at +inf (SampledBackend's OUT cloud is empty);
    # on [-1.5, 1]^2 only the lower side has grid points
    backend = build_backend(affine_part, "first_order", 41)
    pts = np.array([[0.2, 0.0], [-0.1, 0.5]])
    phi = affine_part.field.evaluate(pts)
    gnorm = affine_part.field.grad_norm(pts)
    assert np.all(np.isinf(backend.distances(pts, phi, gnorm)[2]))
    assert len(build_backend(affine_part, "sampled", 41).clouds["OUT"]) == 0
    box = DomainBox(np.array([-1.5, -1.0]), np.array([1.0, 1.0]))
    part = replace(affine_part, box=box)
    dXA = build_backend(part, "first_order", 41).distances(pts, phi, gnorm)[2]
    assert np.array_equal(dXA, phi + 1.0)


def _slab_distance(phi, lo, hi, gnorm):
    """Distance from phi-values to the slab phi in [lo, hi], for ||grad|| = gnorm."""
    return np.maximum(np.maximum(lo - phi, phi - hi), 0.0) / gnorm


def _reference_distances(part, resolution, u, phi, gnorm):
    """FirstOrderBackend.distances as it was before its one slab pass, kept
    here as the reference: a _slab_distance per band, a far array for each
    set with no grid point, and BandPartition.d_distance for D."""
    _, grid_phi, tags = _grid_tags(part, resolution)
    out = tags == RegionTag.OUTSIDE
    a_lo, a_hi = part.a_range
    b = part.b_range if np.any(tags == RegionTag.B) else None
    c = part.c_range if np.any(tags == RegionTag.C) else None
    below = a_lo if np.any(out & (grid_phi < a_lo)) else None
    above = a_hi if np.any(out & (grid_phi > a_hi)) else None
    g = np.maximum(gnorm, MIN_GRAD_FLOOR)
    far = np.full(np.shape(phi), np.inf)
    dB = far if b is None else _slab_distance(phi, *b, g)
    dC = far if c is None else _slab_distance(phi, *c, g)
    below = far if below is None else np.maximum(phi - below, 0.0) / g
    above = far if above is None else np.maximum(above - phi, 0.0) / g
    d_out = np.minimum(below, above)
    return dB, dC, np.minimum(d_out, part.d_distance(u, phi, gnorm))


def _slab_partitions():
    """Partitions for the slab pass: B empty, both sides of the complement of
    A empty, its lower side only, and D empty, a level set at +-0.0 and at
    the deform_flow config's 0.5, and a point cloud."""
    wide = DomainBox(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    affine = catalog_field("affine")
    w2s = catalog_field("well_to_saddle")
    return {
        "empty_b": BandPartition(catalog_field("paraboloid"),
                                 default_box("paraboloid"), 0.05, 0.1),
        "empty_sides": BandPartition(affine, default_box("affine"), 0.0, 0.5),
        "lower_side": BandPartition(affine, DomainBox(np.array([-1.5, -1.0]),
                                                      np.array([1.0, 1.0])),
                                    0.0, 0.5),
        "d_empty": BandPartition(affine, wide, 0.0, 0.5),
        "d_plus_0": BandPartition(affine, wide, 0.0, 0.5, RegionSpec.level_set(0.0)),
        "d_minus_0": BandPartition(affine, wide, 0.0, 0.5,
                                   RegionSpec.level_set(-0.0)),
        "d_level": BandPartition(w2s, default_box("well_to_saddle"), 0.5, 0.1,
                                 RegionSpec.level_set(0.5)),
        "d_cloud": BandPartition(affine, wide, 0.0, 0.5, RegionSpec.point_cloud(
            [[0.1, 0.0], [-0.2, 0.5]])),
    }


_SLAB_PARTS = _slab_partitions()
_GNORMS = [0.0, 5e-324, 1e-8, 1.0, np.inf, np.nan]


@pytest.mark.parametrize("name", sorted(_SLAB_PARTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slab_pass_equals_the_per_set_distances(name, data):
    # the one broadcast pass gives every distance bit for bit as the
    # per-set formulas did, signed zeros and NaNs included, at every band
    # edge, D's value +- thickness, their float neighbours and +-0.0
    part = _SLAB_PARTS[name]
    backend = build_backend(part, "first_order", 41)
    marks = np.ravel([part.a_range, part.b_range, part.c_range])
    if part.d_spec.kind == "level_set":
        v, t = part.d_spec.value, part.d_thickness
        marks = np.append(marks, [v - t, v, v + t])
    marks = np.concatenate([_ulp_steps(marks, 1), [0.0, -0.0]])
    n = data.draw(st.integers(1, 8))
    phi = np.array(data.draw(st.lists(st.sampled_from(marks.tolist())
                                      | st.floats(-1e6, 1e6),
                                      min_size=n, max_size=n)))
    gnorm = np.array(data.draw(st.lists(st.sampled_from(_GNORMS),
                                        min_size=n, max_size=n)))
    ys = data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    u = np.column_stack([np.clip(phi, -2.0, 2.0), ys])
    if part.d_spec.kind == "point_cloud":   # rows on D's points too
        u[:2] = part.d_spec.points[:min(n, 2)]
    got = backend.distances(u, phi, gnorm)
    want = _reference_distances(part, 41, u, phi, gnorm)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(np.ascontiguousarray(g).view(np.int64),
                              w.view(np.int64))


def test_level_set_d_tags_without_in_d(w2s_field, w2s_box):
    # a level-set D is tagged from the interval table: in_d runs once, when the
    # partition builds the table, and never in a 1,000-step flow
    with mock.patch.object(BandPartition, "in_d", autospec=True,
                           side_effect=BandPartition.in_d) as in_d:
        part = BandPartition(w2s_field, w2s_box, 0.5, 0.1,
                             RegionSpec.level_set(0.5, thickness=0.01))
        df = DeformationField(build_backend(part))
        assert in_d.call_count == 1
        starts = w2s_box.sample(np.random.default_rng(3), 200)
        ends = eta_batch(df, starts)
        assert df.grid[0] == 1000 and in_d.call_count == 1
    tags = part.classify(starts)
    assert np.any(tags == RegionTag.D) and np.any(tags == RegionTag.A_OTHER)
    assert not np.array_equal(ends, starts)


def test_build_backend_default_follows_the_field(affine_part, w2s_deformation):
    assert isinstance(build_backend(affine_part), FirstOrderBackend)
    part = w2s_deformation.part
    backend = build_backend(part, resolution=41)
    assert isinstance(backend, FirstOrderBackend)
    assert backend.name == "first_order"
    with pytest.raises(ValueError):
        build_backend(part, "first_order", resolution=2)
    with pytest.raises(ValueError):
        build_backend(part, "kd_tree")


def test_first_order_agrees_with_sampled_reference():
    # the deform_flow configuration (well_to_saddle, c = 0.5, eps = 0.1,
    # D = {phi = c}): away from the band edges the sampled psi converges to
    # the first-order psi as the grid is refined
    f = catalog_field("well_to_saddle")
    part = BandPartition(f, default_box("well_to_saddle"),
                         0.5, 0.1,
                         RegionSpec.level_set(0.5))
    pts = part.box.sample(np.random.default_rng(17), 200_000)
    pts = pts[part.classify(pts) == RegionTag.A_OTHER]
    assert len(pts) >= 10_000
    edges = np.array([*part.a_range, *part.b_range, *part.c_range])
    phi = f.evaluate(pts)
    pts = pts[np.min(np.abs(phi[:, None] - edges), axis=1) >= 0.02]
    first = psi(part, build_backend(part, "first_order", 201), pts)
    gaps, flips = [], []
    for resolution in (101, 201, 401):
        ref = psi(part, build_backend(part, "sampled", resolution), pts)
        gaps.append(float(np.max(np.abs(first - ref))))
        flips.append(float(np.mean(np.sign(first) != np.sign(ref))))
    assert gaps[0] > gaps[1] > gaps[2], gaps
    assert flips[0] > flips[1] > flips[2], flips
    assert flips[2] < 0.03, flips


def test_psi_underflowed_quotient_is_zero(affine_part):
    # a denominator below 1e-300 whose numerator underflows with it is the
    # 0/0 where dXA and dB dC vanish together: psi is 0 there, and the other
    # rows keep the plain quotient
    class Distances:
        part = affine_part

        def distances(self, u, phi, gnorm):
            return (np.array([1e-170, 0.1]), np.array([2e-170, 0.2]),
                    np.array([0.0, 0.3]))

    pts = np.array([[0.0, 0.0], [0.8, 0.0]])
    assert np.all(affine_part.classify(pts) == RegionTag.A_OTHER)
    got = psi(affine_part, Distances(), pts)
    want = (0.2 - 0.1) * 0.3 / ((0.2 + 0.1) * 0.3 + 0.1 * 0.2)
    assert got[0] == 0.0 and got[1] == want


def test_psi_plateau_without_empty_band_query(w2s_deformation):
    # phi >= 0 everywhere so the push-up band is empty; points outside the
    # wider band still get their exact plateau value without touching it
    df = w2s_deformation
    assert float(df.psi(np.array([1.0, 0.0]))) == 0.0   # phi = 1, outside
    assert float(df.psi(np.array([0.0, 0.0]))) == 0.0   # on D


def test_sampled_backend_resolution_floor(affine_part):
    with pytest.raises(ValueError):
        build_backend(affine_part, "sampled", resolution=2)


def test_export_region_clouds(tmp_path, affine_part):
    backend = build_backend(affine_part, "sampled", resolution=41)
    assert isinstance(backend, SampledBackend)
    out = tmp_path / "clouds.csv"
    export_region_clouds(backend, str(out))
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:2] == ["x", "y"]
    assert "tag" in header


@st.composite
def _d_specs(draw):
    """Random D specs inside the admissible window of the wide affine
    configuration (phi = x, c = 0, eps = 0.5: D values in [-0.25, 0.275])."""
    kind = draw(st.sampled_from(["empty", "level_set", "point_cloud"]))
    values = st.floats(-0.24, 0.27)
    if kind == "empty":
        return RegionSpec.empty()
    if kind == "level_set":
        return RegionSpec.level_set(draw(values))
    xs = draw(st.lists(values, min_size=1, max_size=4))
    ys = draw(st.lists(st.floats(-2, 2), min_size=len(xs), max_size=len(xs)))
    return RegionSpec.point_cloud(np.column_stack([xs, ys]))


@settings(max_examples=60, deadline=None)
@given(_d_specs(), st.sampled_from(["first_order", "sampled"]),
       st.integers(0, 2**32 - 1))
def test_psi_plateaus_match_classify(affine_wide_df, d_spec, kind, seed):
    wide = affine_wide_df.part
    part = BandPartition(wide.field, wide.box, wide.c, wide.eps, d_spec)
    backend = build_backend(part, kind, resolution=41)
    pts = part.box.sample(np.random.default_rng(seed), 300)
    if d_spec.kind == "point_cloud":
        pts = np.concatenate([pts, d_spec.points])
    elif d_spec.kind == "level_set":
        pts[:20, 0] = d_spec.value
    vals = psi(part, backend, pts)
    tags = part.classify(pts)
    assert np.all(np.abs(vals) <= 1.0)
    assert np.all(vals[tags == RegionTag.B] == 1.0)
    assert np.all(vals[tags == RegionTag.C] == -1.0)
    zero = (tags == RegionTag.OUTSIDE) | (tags == RegionTag.D)
    assert np.all(vals[zero] == 0.0)
    assert d_spec.kind == "empty" or np.any(tags == RegionTag.D)
    # a mixed batch (masked rows) and each row alone (the whole batch) agree
    # bit for bit
    df = DeformationField(backend)
    f = vector_field(df, pts)
    for i, u in enumerate(pts):
        assert psi(part, backend, u) == vals[i]
        assert np.array_equal(vector_field(df, u), f[i])


def _cascade_tags(part, u, phi):
    """The region codes by the mask cascade tags applied before it looked
    codes up by rank, kept here as the reference: precedence D, OUTSIDE,
    B, C, A_OTHER."""
    c, e = part.c, part.eps
    out = np.zeros(np.shape(phi), dtype=np.int8)
    out[(phi >= c + 0.6 * e) & (phi <= c + e)] = RegionTag.C
    out[(phi >= c - e) & (phi <= c - 0.6 * e)] = RegionTag.B
    out[(phi < c - 2.0 * e) | (phi > c + 2.0 * e)] = RegionTag.OUTSIDE
    if part.d_spec.kind != "empty":
        out[part.in_d(u, phi)] = RegionTag.D
    return out


def _ulp_steps(values, k):
    """values and their float neighbours up to k steps away on each side."""
    out, down, up = [values], values, values
    for _ in range(k):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


@pytest.mark.parametrize("c, eps, d_spec", [
    (0.0, 0.5, RegionSpec.empty()),
    (0.3, 0.1, RegionSpec.level_set(0.3)),
    (-2.5, 1e-3, RegionSpec.level_set(-2.5, thickness=1e-4)),
    (1e16, 1.0, RegionSpec.empty()),      # every edge rounds to one of two floats
    (-7.0, 1e-300, RegionSpec.empty()),   # every edge rounds to c
    # level-set D at the default thickness, 1e-6 eps; at a thickness of
    # 1e-300, around 0.3 (D = {0.3}) and around 0 (subnormals); at one below
    # an ulp of the value; at value +-0.0; and at 1e16, where D and every
    # band edge round to 1e16
    (0.5, 0.1, RegionSpec.level_set(0.5)),
    (0.3, 0.1, RegionSpec.level_set(0.3, thickness=1e-300)),
    (0.0, 0.5, RegionSpec.level_set(0.0, thickness=1e-300)),
    (0.5, 0.1, RegionSpec.level_set(0.52, thickness=1e-18)),
    (0.0, 0.5, RegionSpec.level_set(0.0)),
    (0.0, 0.5, RegionSpec.level_set(-0.0)),
    (1e16, 1.0, RegionSpec.level_set(1e16)),
    # A's upper end overflows to +inf, its lower end to -inf; a subnormal eps
    (1.7e308, 1e307, RegionSpec.empty()),
    (-1.7e308, 1e307, RegionSpec.empty()),
    (0.0, 5e-324, RegionSpec.empty()),
])
def test_tags_equal_the_mask_cascade(affine_field, c, eps, d_spec):
    # a level-set D is looked up in the interval table too, so its ends and
    # their neighbours up to 4 ulp away are drawn, where in_d decides
    part = BandPartition(affine_field, DomainBox(np.array([-1.0, -1.0]),
                                                 np.array([1.0, 1.0])),
                         c, eps, d_spec)
    edges = np.ravel([part.a_range, part.b_range, part.c_range])
    ends = []
    if d_spec.kind == "level_set":
        v, t = d_spec.value, part.d_thickness
        ends = _ulp_steps(np.array([v - t, v, v + t]), 4)
    phi = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ends, [np.nan, np.inf, -np.inf, 0.0, -0.0, c],
        np.random.default_rng(0).normal(c, 3.0 * eps, 2000)])
    u = np.zeros(phi.shape + (2,))
    got = part.tags(u, phi)
    assert got.dtype == np.int8
    assert np.array_equal(got, _cascade_tags(part, u, phi))
    if d_spec.kind == "level_set":   # D's floats are those in_d takes, no more
        assert np.array_equal(got == RegionTag.D, part.in_d(u, phi))
        assert np.any(got == RegionTag.D) and not np.all(got[-2000:] == RegionTag.D)
    # a (rows, cols) batch gets the same codes
    assert np.array_equal(part.tags(u[:12].reshape(3, 4, 2), phi[:12].reshape(3, 4)),
                          got[:12].reshape(3, 4))


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-9, 1e3),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=20))
def test_tags_equal_the_mask_cascade_anywhere(affine_field, c, eps, values):
    part = BandPartition(affine_field, default_box("affine"),
                         c=c, eps=eps)
    phi = np.array(values + [c - 2.0 * eps, c + eps])
    u = np.zeros(phi.shape + (2,))
    assert np.array_equal(part.tags(u, phi), _cascade_tags(part, u, phi))


# sha256 of region_clouds.csv as csv.writer wrote it, one writerow per point
_CLOUD_SHA256 = {
    # the deform_flow benchmark config: 37,565 rows over several write chunks
    "deform_flow": "c19c1a8cc5fe35ec115e3bf180a634df345afddd34fd59623817bef972ab113a",
    "bowl_3d": "d58c8e02013271c1178361b1f7f047a249004112e8cae18f2ea5d64937879395",
}


@pytest.mark.parametrize("name", sorted(_CLOUD_SHA256))
def test_export_region_clouds_bytes_pinned(tmp_path, w2s_field, w2s_box, name):
    if name == "deform_flow":
        part = BandPartition(w2s_field, w2s_box, 0.5, 0.1,
                             RegionSpec.level_set(0.5))
        resolution = 201
    else:
        terms = [((2, 0, 0), 1.0), ((1, 0, 0), 0.3), ((0, 2, 0), 0.5),
                 ((0, 0, 2), 0.5)]
        part = BandPartition(polynomial_field(3, terms),
                             DomainBox(-np.ones(3), np.ones(3)),
                             c=0.6, eps=0.25)
        resolution = 17
    out = tmp_path / "region_clouds.csv"
    export_region_clouds(build_backend(part, "sampled", resolution), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _CLOUD_SHA256[name]


@pytest.mark.parametrize("c, eps", [(np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5),
                                    (0.0, np.nan), (0.0, np.inf), (0.0, 0.0),
                                    (0.0, -0.5)])
def test_partition_needs_finite_c_and_positive_eps(affine_field, c, eps):
    # a NaN or infinite c built an empty band (psi = 0, eta the identity)
    # and a NaN eps failed only at the first integration, in round()
    with pytest.raises(ValueError, match="finite"):
        BandPartition(affine_field, default_box("affine"), c, eps)


def _reference_export_region_clouds(backend, path: str):
    """export_region_clouds as it was before it formatted whole columns: a
    repr per value, row by row."""
    if not isinstance(backend, SampledBackend):
        raise ValueError("only the sampled backend caches region clouds")
    dim = backend.part.field.dim
    header = ["x", "y", "z"][:dim] + ["phi", "tag"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for tag, pts in backend.clouds.items():
            if len(pts) == 0:
                continue
            phis = backend.cloud_phi[tag]
            end = f",{tag}\r\n"
            for i in range(0, len(pts), _EXPORT_ROWS):
                rows = np.column_stack([pts[i:i + _EXPORT_ROWS],
                                        phis[i:i + _EXPORT_ROWS]]).tolist()
                fh.write("".join(",".join(map(repr, row)) + end for row in rows))


_AXIS_VALUES = st.lists(st.floats(-1e6, 1e6, allow_subnormal=True)
                        | st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1e-300]),
                        min_size=1, max_size=6, unique_by=lambda v: repr(v))
_SPECIAL_PHI = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, 5e-324])


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_export_region_clouds_bytes_equal_the_row_writer(tmp_path_factory, dim, data):
    # clouds of grid points (coordinates repeat across rows; -0.0 and 0.0
    # are both drawn), of 0 to three blocks of rows, with NaN and +-inf phi;
    # a stand-in for a sampled backend holds them
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    axes = [np.array(data.draw(_AXIS_VALUES)) for _ in range(dim)]
    clouds, cloud_phi = {}, {}
    for key in ("B", "C", "OUT"):
        n = data.draw(st.sampled_from([0, 1, _EXPORT_ROWS, 2 * _EXPORT_ROWS + 7]))
        clouds[key] = np.column_stack([a[rng.integers(0, len(a), n)] for a in axes])
        phi = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6, n)
        special = rng.random(n) < 0.1
        phi[special] = rng.choice(_SPECIAL_PHI, np.count_nonzero(special))
        cloud_phi[key] = phi
    backend = SampledBackend.__new__(SampledBackend)
    backend.part = types.SimpleNamespace(field=types.SimpleNamespace(dim=dim))
    backend.clouds, backend.cloud_phi = clouds, cloud_phi
    tmp = tmp_path_factory.mktemp("csv")
    want, got = tmp / f"want{dim}.csv", tmp / f"got{dim}.csv"
    _reference_export_region_clouds(backend, str(want))
    export_region_clouds(backend, str(got))
    assert got.read_bytes() == want.read_bytes()


# distances >= 0: zero, subnormals, values near the float maximum and +inf
_DISTANCES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e154,
                     1e308, 1.7976931348623157e308, np.inf]),
    st.floats(min_value=0.0, allow_infinity=True))


def _quotient_terms(dB, dC, dXA):
    """The numerator and denominator that _quotient divides, in its
    arithmetic: the distance form where the denominator is finite, else the
    reciprocal form, in which an infinite reciprocal of dB or dC counts 1
    and a finite one 0."""
    with np.errstate(all="ignore"):
        den = (dC + dB) * dXA + dB * dC
        rB, rC, rX = 1.0 / dB, 1.0 / dC, 1.0 / dXA
        hit = np.isinf(rB) | np.isinf(rC)
        rB, rC, rX = (np.where(hit, np.isinf(r), r) for r in (rB, rC, rX))
        near = np.isfinite(den)
        return (np.where(near, (dC - dB) * dXA, rB - rC),
                np.where(near, den, rB + rC + rX))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_DISTANCES, _DISTANCES, _DISTANCES),
                min_size=1, max_size=6))
def test_quotient_denominator_is_at_least_the_numerator(rows):
    # rounding is monotone, so fl(dC + dB) >= fl(|dC - dB|), and dB dC >= 0
    # only adds (likewise 1/dB + 1/dC >= |1/dB - 1/dC| in the reciprocal
    # form): a denominator that underflows has a numerator that did too, so
    # "the denominator underflowed while the numerator did not" cannot
    # happen, and psi lies in [-1, 1].  A B or C at distance 0 beside an
    # infinite distance gave psi NaN (inf / inf) before the reciprocal form
    # counted infinite reciprocals as 1.
    dB, dC, dXA = np.array(rows).T
    num, den = _quotient_terms(dB, dC, dXA)
    assert np.all(den >= np.abs(num))
    with np.errstate(over="ignore", invalid="ignore"):
        psi_values = _quotient(dB, dC, dXA)
    assert np.all((psi_values >= -1.0) & (psi_values <= 1.0))
    tiny = den < _UNDERFLOW
    assert np.array_equal(psi_values,
                          np.where(tiny, 0.0, num) / np.where(tiny, 1.0, den))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cutoff_stage_norm_is_finite_where_its_square_overflows():
    # 1e156 x^3 + y^2: ||grad phi|| = 3e156 x^2 (and 2 y) squares past the
    # float maximum for |x| above about 0.067, and the stage read it as inf.
    # It is now max |g_i| sqrt(sum (g / max |g_i|)^2) on those rows and
    # np.linalg.norm's value, bit for bit, on the others
    field = polynomial_field(2, [((3, 0), 1e156), ((0, 2), 1.0)])
    box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    part = BandPartition(field, box, 0.0, 1e154)
    u = np.array([[0.15, 0.5], [-0.12, 0.0], [0.01, 0.3], [0.0, 0.2]])
    _, grad, gnorm, _ = cutoff_stage(build_backend(part), u)
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(grad, axis=-1)
    big = np.isinf(plain)
    assert big.tolist() == [True, True, False, False]
    m = np.max(np.abs(grad[big]), axis=-1)
    assert np.array_equal(gnorm[big],
                          m * np.sqrt(np.sum((grad[big] / m[:, None]) ** 2, axis=-1)))
    assert np.array_equal(gnorm[~big], plain[~big])
    assert np.array_equal(gnorm, field.grad_norm(u))


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 4, 300]))
def test_point_cloud_d_equals_a_kd_tree(dim, seed, n):
    # the distance to a point-cloud D, and so D membership, is the one a
    # KD-tree on D's points gives, bit for bit: 2,000 queries (several
    # blocks at 300 points), some on D's points, over many magnitudes
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    box = DomainBox(-scale * np.ones(dim), scale * np.ones(dim))
    pts = rng.uniform(-scale, scale, (n, dim))
    u = rng.uniform(-scale, scale, (2000, dim))
    u[::7] = pts[rng.integers(0, n, len(u[::7]))]
    flat = ScalarField("zero", dim, lambda x: np.zeros(x.shape[:-1]),
                       lambda x: np.zeros(x.shape))
    part = BandPartition(flat, box, 0.0, 1.0, RegionSpec.point_cloud(pts))
    phi = np.zeros(len(u))
    want = cKDTree(pts).query(u)[0]
    assert np.array_equal(part.d_distance(u, phi, phi), want)
    assert np.array_equal(part.in_d(u, phi),
                          want <= 1e-12 * max(1.0, box.diagonal))


def _inline_ranges(c, e):
    """The band ranges as BandPartition wrote them inline before
    band_ranges stated them, kept here as the reference."""
    return ((c - 2.0 * e, c + 2.0 * e), (c - e, c - 0.6 * e),
            (c + 0.6 * e, c + e))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16, 0.3]),
                 st.floats(allow_nan=False, allow_infinity=False)),
       st.one_of(st.sampled_from([5e-324, 2.5e-321, 2.2e-308, 0.1, 0.25]),
                 st.floats(min_value=5e-324, max_value=1e300)))
def test_band_ranges_equal_the_inline_expressions(c, eps):
    got = np.array(band_ranges(c, eps))
    want = np.array(_inline_ranges(c, eps))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_partition_binds_band_ranges(affine_field):
    part = BandPartition(affine_field, default_box("affine"), 0.3, 0.1,
                         RegionSpec.level_set(0.3))
    assert (part.a_range, part.b_range, part.c_range) == band_ranges(0.3, 0.1)
