import numpy as np
import pytest
from scipy.integrate import solve_ivp

from passlab import (BandPartition, DeformationParams, FlowConfig,
                     RegionSpec, RegionTag, build_backend, catalog_field,
                     default_box, DeformationField, eta, integrate_flow,
                     vector_field, verify_deformation)
from passlab.flow import eta_batch
from passlab.errors import EmptyRegion


def test_vector_field_values(affine_df):
    assert np.array_equal(vector_field(affine_df, [-0.4, 0.0]), [1.0, 0.0])
    assert np.array_equal(vector_field(affine_df, [1.5, 0.0]), [0.0, 0.0])


def test_vector_field_speed_bound(affine_df):
    rng = np.random.default_rng(2)
    pts = affine_df.part.box.sample(rng, 500)
    norms = np.linalg.norm([vector_field(affine_df, p) for p in pts], axis=-1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_flow_config_validation(affine_df):
    with pytest.raises(ValueError):
        FlowConfig(step=2.0).grid(affine_df.horizon)
    with pytest.raises(ValueError):
        FlowConfig(step=-0.1).grid(affine_df.horizon)


def test_push_up_from_b(affine_df, flow_cfg):
    traj = integrate_flow(affine_df, flow_cfg, np.array([-0.4, 0.0]))
    # phi increases at unit rate while in B, then stalls near the midplane
    assert traj.phi_values[1] > traj.phi_values[0]
    assert -0.3 < traj.end[0] < 0.0
    assert np.all(np.diff(traj.phi_values) >= -1e-12)


def test_pull_down_from_c(affine_df, flow_cfg):
    final = eta(affine_df, flow_cfg, np.array([0.35, 0.0]))
    assert 0.0 < final[0] < 0.3


def test_identity_outside_is_bit_exact(affine_wide_df, flow_cfg):
    u = np.array([1.5, 0.7])
    traj = integrate_flow(affine_wide_df, flow_cfg, u)
    assert np.array_equal(traj.end, u)
    assert len(traj.times) == 2  # constant short-circuit records start/end
    assert np.array_equal(eta(affine_wide_df, flow_cfg, u), u)


def test_identity_at_symmetric_center(affine_df, flow_cfg):
    u = np.array([0.0, 0.0])
    assert np.array_equal(eta(affine_df, flow_cfg, u), u)


def test_identity_sample_outside_and_d(affine_wide_df, flow_cfg):
    rng = np.random.default_rng(4)
    part = affine_wide_df.part
    pts = part.box.sample(rng, 600)
    tags = part.classify(pts)
    outside = pts[tags == RegionTag.OUTSIDE]
    assert len(outside) > 50
    for u in outside[:100]:
        assert np.array_equal(eta(affine_wide_df, flow_cfg, u), u)


def test_monotonicity_coupling(affine_df, flow_cfg):
    rng = np.random.default_rng(8)
    for u in affine_df.part.box.sample(rng, 20):
        traj = integrate_flow(affine_df, flow_cfg, u)
        phi = np.asarray(traj.phi_values)
        psi = np.asarray(traj.psi_values)
        inc = np.diff(phi)
        active = np.abs(psi[:-1]) > 1e-6
        assert np.all(np.sign(inc[active]) == np.sign(psi[:-1][active]))


def _reference_final(df, u0, horizon):
    def rhs(t, y):
        return vector_field(df, y)
    sol = solve_ivp(rhs, (0.0, horizon), np.asarray(u0, float),
                    rtol=1e-12, atol=1e-12, max_step=horizon / 50)
    return sol.y[:, -1]


def test_integration_against_reference(affine_df, flow_cfg):
    u0 = [-0.4, 0.0]
    ref = _reference_final(affine_df, u0, affine_df.horizon)
    ours = eta(affine_df, flow_cfg, np.array(u0))
    assert np.linalg.norm(ours - ref) < 1e-6


def test_integrator_order(affine_df):
    """Convergence rate on the reduced 1-D system, estimated from halving."""
    u0 = [-0.28, 0.0]  # starts inside the smooth interpolation zone
    horizon = affine_df.horizon
    # the reference must be far more accurate than the coarse runs, so use
    # the integrator itself at an 8x finer step than the finest one tested
    ref = eta(affine_df, FlowConfig(step=horizon / 8000), np.array(u0))
    errs = []
    for n in (250, 500, 1000):
        cfg = FlowConfig(step=horizon / n)
        errs.append(np.linalg.norm(eta(affine_df, cfg, np.array(u0)) - ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)
              if errs[i + 1] > 0]
    assert orders and min(orders) >= 3.5, (errs, orders)


def test_verify_deformation_affine(affine_df, flow_cfg):
    rep = verify_deformation(affine_df, flow_cfg, samples=300, seed=0)
    assert rep.hypothesis_min_grad == 1.0
    assert rep.a_prime_violations == 0
    assert rep.b_prime["confined_in_B"] == 0
    assert rep.b_prime["confined_satisfying"] == 0
    assert rep.c_prime["confined_in_C"] == 0
    assert rep.speed_violations == 0
    assert rep.eq31_max_residual <= 1e-4
    d = rep.to_dict()
    assert d["samples"] == 300 and "eq31_max_residual" in d


def test_verify_deformation_empty_band_raises():
    f = catalog_field("paraboloid")
    part = BandPartition(f, default_box("paraboloid"),
                         DeformationParams(c=-5.0, eps=0.1))
    df = DeformationField(f, part, build_backend(part, "sampled", 51))
    with pytest.raises(EmptyRegion):
        verify_deformation(df, FlowConfig(), samples=100, seed=0)


def test_verify_deformation_deterministic(affine_df, flow_cfg):
    a = verify_deformation(affine_df, flow_cfg, samples=120, seed=42)
    b = verify_deformation(affine_df, flow_cfg, samples=120, seed=42)
    assert a.to_dict() == b.to_dict()


def test_deformation_field_rejects_foreign_field(affine_part, affine_backend):
    # psi would run on the partition's landscape and the flow direction on
    # another one
    with pytest.raises(ValueError):
        DeformationField(catalog_field("paraboloid"), affine_part,
                         affine_backend)


def test_eta_batch_mixed_rows_point_cloud_d(affine_wide_df):
    wide = affine_wide_df.part
    d_pts = np.array([[0.0, 0.5], [0.1, -0.3]])
    part = BandPartition(wide.field, wide.box, wide.params,
                         RegionSpec.point_cloud(d_pts))
    df = DeformationField(wide.field, part, build_backend(part, "sampled", 41))
    cfg = FlowConfig(step=df.horizon / 200)
    live = np.array([[-0.4, 0.2], [0.35, -1.0], [-0.8, 0.0], [0.9, 1.5]])
    frozen = np.concatenate([d_pts, [[1.5, 0.7], [-1.7, -1.2]]])
    U = np.concatenate([live, frozen])[[0, 4, 1, 5, 2, 6, 3, 7]]
    is_frozen = np.array([False, True] * 4)
    out = eta_batch(df, cfg, U)
    assert np.array_equal(out[is_frozen], U[is_frozen])
    for u, v in zip(U[~is_frozen], out[~is_frozen]):
        assert np.array_equal(v, eta(df, cfg, u))
        assert not np.array_equal(v, u)
