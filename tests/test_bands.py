import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationField, DeformationParams,
                     DomainBox, FirstOrderBackend, RegionSpec, RegionTag,
                     SampledBackend, build_backend, catalog_field,
                     classify_region, default_box, polynomial_field, psi,
                     vector_field)
from passlab.bands import export_region_clouds
from passlab.errors import InvalidRegionSpec


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
    part = BandPartition(affine_part.field, affine_part.box,
                         affine_part.params, RegionSpec.level_set(0.0))
    assert classify_region(part, [0.0, 0.77]) is RegionTag.D


def test_d_spec_too_close_to_bands_rejected(affine_part):
    # value ranges B = [-0.5, -0.3] and C = [0.3, 0.5] with eps = 0.5 must
    # stay 0.05 * eps away from D
    for bad in (-0.3, 0.29, -0.1 - 0.5 * 0.5, 0.6 * 0.5):
        with pytest.raises(InvalidRegionSpec):
            BandPartition(affine_part.field, affine_part.box,
                          affine_part.params, RegionSpec.level_set(bad))


def test_psi_zero_on_d(affine_part, affine_field):
    part = BandPartition(affine_field, affine_part.box, affine_part.params,
                         RegionSpec.level_set(0.0))
    backend = build_backend(part)
    assert float(psi(part, backend, [0.0, 0.5])) == 0.0


def test_point_cloud_d_membership(affine_field, affine_part):
    cloud = [[0.0, 0.0], [0.0, 0.5]]
    part = BandPartition(affine_field, affine_part.box, affine_part.params,
                         RegionSpec.point_cloud(cloud))
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
        part = BandPartition(f, box, DeformationParams(c=0.0, eps=0.1))
        backend = build_backend(part, "sampled", resolution=101)
    else:   # the 3 x 3 grid's phi-values 0, 4, 8 all lie outside [0.3, 0.7]
        part = BandPartition(catalog_field("paraboloid"), default_box("paraboloid"),
                             DeformationParams(c=0.5, eps=0.1))
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
                             DeformationParams(c=0.0, eps=0.1),
                             RegionSpec.level_set(0.0))
        return part, 201
    if empty == "C":   # -x^2 - y^2 <= 0 at c = 0
        f = polynomial_field(2, [((2, 0), -1.0), ((0, 2), -1.0)])
        box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        return BandPartition(f, box, DeformationParams(c=0.0, eps=0.1)), 101
    # the 3 x 3 grid's phi-values 0, 4, 8 all lie outside [0.3, 0.7]
    return BandPartition(catalog_field("paraboloid"), default_box("paraboloid"),
                         DeformationParams(c=0.5, eps=0.1)), 3


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
    part = BandPartition(affine_part.field, box, affine_part.params)
    dXA = build_backend(part, "first_order", 41).distances(pts, phi, gnorm)[2]
    assert np.array_equal(dXA, phi + 1.0)


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
                         DeformationParams(c=0.5, eps=0.1),
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
    export_region_clouds(affine_part, backend, str(out))
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
    part = BandPartition(wide.field, wide.box, wide.params, d_spec)
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
    df = DeformationField(part, backend)
    f = vector_field(df, pts)
    for i, u in enumerate(pts):
        assert psi(part, backend, u) == vals[i]
        assert np.array_equal(vector_field(df, u), f[i])
