import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationParams, DomainBox, RegionSpec,
                     RegionTag, SampledBackend, build_backend, catalog_field,
                     classify_region, default_box, polynomial_field, psi,
                     region_distance)
from passlab.bands import export_region_clouds
from passlab.errors import EmptyRegion, InvalidRegionSpec


def test_classify_examples(affine_part):
    assert classify_region(affine_part, [-0.4, 0.0]) is RegionTag.B
    assert classify_region(affine_part, [1.5, 0.0]) is RegionTag.OUTSIDE
    assert classify_region(affine_part, [0.8, 0.0]) is RegionTag.A_OTHER
    assert classify_region(affine_part, [0.4, 0.0]) is RegionTag.C


def test_exact_slab_distances(affine_part, affine_backend):
    assert region_distance(affine_part, affine_backend, [0.0, 0.0], "B") \
        == pytest.approx(0.3)
    assert region_distance(affine_part, affine_backend, [0.8, 0.0],
                           "complement_of_A") == pytest.approx(0.2)
    assert region_distance(affine_part, affine_backend, [0.1, 0.0], "C") \
        == pytest.approx(0.2)


def test_psi_plateaus_exact(affine_part, affine_backend):
    assert float(psi(affine_part, affine_backend, [-0.4, 0.0])) == 1.0
    assert float(psi(affine_part, affine_backend, [0.4, 0.0])) == -1.0
    assert float(psi(affine_part, affine_backend, [0.0, 0.0])) == 0.0


def test_psi_quotient_value(affine_part, affine_backend):
    # distC = 0.2, distB = 0.4, dist to X\A = 0.9 at (0.1, 0):
    # (-0.2 * 0.9) / (0.6 * 0.9 + 0.4 * 0.2) = -9/31
    value = float(psi(affine_part, affine_backend, [0.1, 0.0]))
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
    from passlab import ExactAffineBackend
    backend = ExactAffineBackend(part)
    assert float(psi(part, backend, [0.0, 0.5])) == 0.0


def test_point_cloud_d_membership(affine_field, affine_part):
    cloud = [[0.0, 0.0], [0.0, 0.5]]
    part = BandPartition(affine_field, affine_part.box, affine_part.params,
                         RegionSpec.point_cloud(cloud))
    assert classify_region(part, [0.0, 0.5]) is RegionTag.D


def test_empty_region_query_raises():
    f = catalog_field("paraboloid")
    box = default_box("paraboloid")
    # c = -5 puts the B and C bands below the range of the field
    part = BandPartition(f, box, DeformationParams(c=-5.0, eps=0.1))
    backend = build_backend(part, "sampled", resolution=51)
    with pytest.raises(EmptyRegion):
        region_distance(part, backend, [0.3, 0.3], "B")


@pytest.mark.parametrize("empty", ["B", "C"])
def test_psi_limit_with_empty_band(w2s_deformation, empty):
    # dist(u, empty set) = +inf; psi takes the quotient's limit,
    # -dXA / (dXA + dC) without B and dXA / (dXA + dB) without C
    if empty == "B":
        part, backend = w2s_deformation.part, w2s_deformation.backend
    else:   # -x^2 - y^2 <= 0 at c = 0: C is empty
        f = polynomial_field(2, [((2, 0), -1.0), ((0, 2), -1.0)])
        box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        part = BandPartition(f, box, DeformationParams(c=0.0, eps=0.1))
        backend = build_backend(part, "sampled", resolution=101)
    pts = part.box.sample(np.random.default_rng(5), 4000)
    pts = pts[part.classify(pts) == RegionTag.A_OTHER]
    assert len(pts) > 20
    phi = part.field.evaluate(pts)
    dB, dC, dXA = backend.distances(pts, phi, part.field.grad_norm(pts))
    if empty == "B":
        assert np.all(np.isinf(dB))
        want = -dXA / (dXA + dC)
    else:
        assert np.all(np.isinf(dC))
        want = dXA / (dXA + dB)
    got = psi(part, backend, pts)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(got) <= 1.0)
    with pytest.raises(EmptyRegion):   # an explicit query still reports it
        region_distance(part, backend, pts[0], empty)


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
@given(_d_specs(), st.sampled_from(["exact_affine", "sampled"]),
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
