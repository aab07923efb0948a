from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from passlab import (BandPartition, RegionSpec, RegionTag, build_backend,
                     catalog_field, default_box, DeformationField, eta,
                     integrate_flow, vector_field, verify_deformation)
from passlab.cli import _to_jsonable
from passlab.bands import psi
from passlab.errors import InvalidPoint, VectorFieldSingular
from passlab.flow import eta_batch


def test_vector_field_values(affine_df):
    assert np.array_equal(vector_field(affine_df, [-0.4, 0.0]), [1.0, 0.0])
    assert np.array_equal(vector_field(affine_df, [1.5, 0.0]), [0.0, 0.0])


def test_vector_field_speed_bound(affine_df):
    rng = np.random.default_rng(2)
    pts = affine_df.part.box.sample(rng, 500)
    norms = np.linalg.norm([vector_field(affine_df, p) for p in pts], axis=-1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_flow_config_validation(affine_df):
    # a bad step or record_every fails at construction, before any
    # integration.  record_every = -1 recorded only t = 0 and t = T: a
    # 200-sample audit then used 96 eq31 intervals (residual 0.44) where
    # record_every = 1 uses 199,757 (9.2e-7); 0 raised a bare range() error
    for step in (2.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="step"):
            replace(affine_df, step=step)
    for record_every in (0, -1, 1.5, 2.0, None):
        with pytest.raises(ValueError, match="record_every"):
            replace(affine_df, record_every=record_every)


def test_push_up_from_b(affine_df):
    traj = integrate_flow(affine_df, np.array([-0.4, 0.0]))
    # phi increases at unit rate while in B, then stalls near the midplane
    assert traj.phi_values[1] > traj.phi_values[0]
    assert -0.3 < traj.end[0] < 0.0
    assert np.all(np.diff(traj.phi_values) >= -1e-12)


def test_pull_down_from_c(affine_df):
    final = eta(affine_df, np.array([0.35, 0.0]))
    assert 0.0 < final[0] < 0.3


def test_identity_outside_is_bit_exact(affine_wide_df):
    u = np.array([1.5, 0.7])
    traj = integrate_flow(affine_wide_df, u)
    assert np.array_equal(traj.end, u)
    assert len(traj.times) == 2  # constant short-circuit records start/end
    assert np.array_equal(eta(affine_wide_df, u), u)


def test_identity_at_symmetric_center(affine_df):
    u = np.array([0.0, 0.0])
    assert np.array_equal(eta(affine_df, u), u)


def test_identity_sample_outside_and_d(affine_wide_df):
    rng = np.random.default_rng(4)
    part = affine_wide_df.part
    pts = part.box.sample(rng, 600)
    tags = part.classify(pts)
    outside = pts[tags == RegionTag.OUTSIDE]
    assert len(outside) > 50
    for u in outside[:100]:
        assert np.array_equal(eta(affine_wide_df, u), u)


def test_monotonicity_coupling(affine_df):
    rng = np.random.default_rng(8)
    for u in affine_df.part.box.sample(rng, 20):
        traj = integrate_flow(affine_df, u)
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


def test_integration_against_reference(affine_df):
    u0 = [-0.4, 0.0]
    ref = _reference_final(affine_df, u0, affine_df.horizon)
    ours = eta(affine_df, np.array(u0))
    assert np.linalg.norm(ours - ref) < 1e-6


def test_integrator_order(affine_df):
    """Convergence rate on the reduced 1-D system, estimated from halving."""
    u0 = [-0.28, 0.0]  # starts inside the smooth interpolation zone
    horizon = affine_df.horizon
    # the reference must be far more accurate than the coarse runs, so use
    # the integrator itself at an 8x finer step than the finest one tested
    ref = eta(replace(affine_df, step=horizon / 8000), np.array(u0))
    errs = []
    for n in (250, 500, 1000):
        df = replace(affine_df, step=horizon / n)
        errs.append(np.linalg.norm(eta(df, np.array(u0)) - ref))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)
              if errs[i + 1] > 0]
    assert orders and min(orders) >= 3.5, (errs, orders)


def test_verify_deformation_affine(affine_df):
    rep = verify_deformation(affine_df, samples=300, seed=0)
    assert rep.hypothesis_min_grad == 1.0
    assert rep.a_prime_violations == 0
    assert rep.b_prime["confined_in_B"] == 0
    assert rep.b_prime["confined_satisfying"] == 0
    assert rep.c_prime["confined_in_C"] == 0
    assert rep.speed_violations == 0
    assert rep.eq31_max_residual <= 1e-4
    d = rep.to_dict()
    assert d["samples"] == 300 and "eq31_max_residual" in d


def test_verify_deformation_empty_band_is_vacuous(w2s_deformation):
    # c = -5 puts the whole band below the paraboloid's range: no sample
    # starts in B or C, both conclusions hold vacuously, and every sample is
    # a bit-exact fixed point
    f = catalog_field("paraboloid")
    part = BandPartition(f, default_box("paraboloid"),
                         c=-5.0, eps=0.1)
    df = DeformationField(build_backend(part, "sampled", 51))
    rep = verify_deformation(df, samples=100, seed=0)
    # nothing was measured, so the fraction is NaN (null in report.json)
    assert _to_jsonable(rep.b_prime) == {
        "sampled_B": 0, "confined_in_B": 0, "confined_satisfying": 0,
        "unconditional_fraction_reaching_c_plus_eps": None, "vacuous": True}
    assert rep.c_prime["sampled_C"] == 0 and rep.c_prime["vacuous"] is True
    assert rep.a_prime_checked == 100 and rep.a_prime_violations == 0
    # the valley level of well_to_saddle: B is empty, C is sampled
    rep = verify_deformation(replace(w2s_deformation, step=0.002),
                             samples=300, seed=0)
    assert rep.b_prime["sampled_B"] == 0 and rep.b_prime["vacuous"] is True
    assert rep.c_prime["sampled_C"] > 0 and "vacuous" not in rep.c_prime
    assert rep.a_prime_violations == 0 and rep.speed_violations == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_order_eq31_gate(w2s_field, w2s_box, seed):
    # the deform_flow configuration on the first-order backend: psi is
    # continuous at the band edges, so no trajectory chatters across one and
    # the derivative identity holds to the stencil's accuracy
    part = BandPartition(w2s_field, w2s_box, 0.5, 0.1,
                         RegionSpec.level_set(0.5))
    df = DeformationField(build_backend(part, "first_order"))
    rep = verify_deformation(df, samples=1000, seed=seed)
    assert rep.eq31_max_residual <= 1e-4
    assert rep.a_prime_violations == 0
    assert rep.speed_violations == 0


def test_verify_deformation_deterministic(affine_df):
    a = verify_deformation(affine_df, samples=120, seed=42)
    b = verify_deformation(affine_df, samples=120, seed=42)
    assert a.to_dict() == b.to_dict()


def test_eta_batch_mixed_rows_point_cloud_d(affine_wide_df):
    wide = affine_wide_df.part
    d_pts = np.array([[0.0, 0.5], [0.1, -0.3]])
    part = BandPartition(wide.field, wide.box, wide.c, wide.eps,
                         RegionSpec.point_cloud(d_pts))
    df = DeformationField(build_backend(part, "sampled", 41),
                          step=0.005)   # 200 steps over the horizon 1
    live = np.array([[-0.4, 0.2], [0.35, -1.0], [-0.8, 0.0], [0.9, 1.5]])
    frozen = np.concatenate([d_pts, [[1.5, 0.7], [-1.7, -1.2]]])
    U = np.concatenate([live, frozen])[[0, 4, 1, 5, 2, 6, 3, 7]]
    is_frozen = np.array([False, True] * 4)
    out = eta_batch(df, U)
    assert np.array_equal(out[is_frozen], U[is_frozen])
    for u, v in zip(U[~is_frozen], out[~is_frozen]):
        assert np.array_equal(v, eta(df, u))
        assert not np.array_equal(v, u)


def test_eta_with_empty_b_band(w2s_deformation):
    # c = 0 is the valley level: phi >= 0, so B = {phi in [-0.1, -0.06]} is
    # empty; (0, 0.3) lies in C and flows down through the interpolation zone
    df = replace(w2s_deformation, record_every=50)
    u = np.array([0.0, 0.3])
    assert df.psi(u) == -1.0
    traj = integrate_flow(df, u)
    assert np.all(np.diff(traj.phi_values) <= 0.0)
    assert np.all((traj.psi_values >= -1.0) & (traj.psi_values <= 0.0))
    assert 0.0 <= traj.phi_values[-1] < 0.06
    assert np.array_equal(eta(df, u), traj.end)


def test_critical_point_where_the_cutoff_is_nonzero_raises(w2s_field, w2s_box):
    # at c = 1.07, eps = 0.1 the saddle (1, 0), phi = 1, lies in B = [0.97,
    # 1.01]: psi = +1 there while grad phi = 0, so f is undefined
    part = BandPartition(w2s_field, w2s_box, c=1.07, eps=0.1)
    df = DeformationField(build_backend(part))
    with pytest.raises(VectorFieldSingular, match=r"\[1\.0, 0\.0\]"):
        eta(df, np.array([1.0, 0.0]))


def test_all_frozen_batch_is_returned_bit_identically(affine_wide_df):
    wide = affine_wide_df.part
    d_pts = np.array([[0.0, 0.5], [0.1, -0.3]])
    part = BandPartition(wide.field, wide.box, wide.c, wide.eps,
                         RegionSpec.point_cloud(d_pts))
    df = DeformationField(build_backend(part, "sampled", 41))
    U = np.concatenate([d_pts, [[1.5, 0.7], [-1.7, -1.2], [2.0, -2.0]]])
    assert np.all(np.isin(part.classify(U), [RegionTag.D, RegionTag.OUTSIDE]))
    out = eta_batch(df, U)
    assert out is not U and np.array_equal(out, U)
    n, h = df.grid
    for u in U:
        traj = integrate_flow(df, u)
        assert traj.times.tolist() == [0.0, n * h]
        assert np.array_equal(traj.points, [u, u])
        assert traj.psi_values.tolist() == [0.0, 0.0]
        assert not traj.clamped


# verify_deformation(..., samples=200, seed=0).to_dict() of five audits as
# report.json writes them (NaN as None).  The first four were recorded before
# the audit was restricted to live rows: the deform_flow benchmark
# configuration (well_to_saddle, c = 0.5, eps = 0.1, D = {phi = c}, sampled
# 201^2), the same with record_every = 7, a point-cloud D on the 101^2
# backend, and a paraboloid band cut by the box, with clamped rows.  The
# fifth puts the paraboloid's band at c = -5, below its range: every row is
# frozen and is counted over the full record schedule, as a frozen row of a
# batch with a live row is
PINNED_AUDITS = {
    'all_frozen': {'samples': 200, 'seed': 0, 'hypothesis_min_grad': None, 'a_prime_checked': 200, 'a_prime_violations': 0, 'b_prime': {'sampled_B': 0, 'confined_in_B': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_plus_eps': None, 'vacuous': True}, 'c_prime': {'sampled_C': 0, 'confined_in_C': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_minus_eps': None, 'vacuous': True}, 'eq31_max_residual': 0.0, 'eq31_intervals_used': 200000, 'eq31_intervals_excluded': 0, 'speed_checked_states': 200200, 'speed_violations': 0, 'speed_max_norm': 0.0, 'clamped_trajectories': 0},
    'deform_flow': {'samples': 200, 'seed': 0, 'hypothesis_min_grad': 1.4352596913280982, 'a_prime_checked': 182, 'a_prime_violations': 0, 'b_prime': {'sampled_B': 1, 'confined_in_B': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_plus_eps': 0.0}, 'c_prime': {'sampled_C': 3, 'confined_in_C': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_minus_eps': 0.0}, 'eq31_max_residual': 1.7429789351597336e-05, 'eq31_intervals_used': 199982, 'eq31_intervals_excluded': 18, 'speed_checked_states': 200200, 'speed_violations': 0, 'speed_max_norm': 0.688982333154268, 'clamped_trajectories': 0},
    'record_every_7': {'samples': 200, 'seed': 0, 'hypothesis_min_grad': 1.4352596913280982, 'a_prime_checked': 182, 'a_prime_violations': 0, 'b_prime': {'sampled_B': 1, 'confined_in_B': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_plus_eps': 0.0}, 'c_prime': {'sampled_C': 3, 'confined_in_C': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_minus_eps': 0.0}, 'eq31_max_residual': 0.00016825040969892235, 'eq31_intervals_used': 28582, 'eq31_intervals_excluded': 18, 'speed_checked_states': 28800, 'speed_violations': 0, 'speed_max_norm': 0.688982333154268, 'clamped_trajectories': 0},
    'point_cloud_d': {'samples': 200, 'seed': 0, 'hypothesis_min_grad': 1.4352596913280982, 'a_prime_checked': 182, 'a_prime_violations': 0, 'b_prime': {'sampled_B': 1, 'confined_in_B': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_plus_eps': 0.0}, 'c_prime': {'sampled_C': 3, 'confined_in_C': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_minus_eps': 0.0}, 'eq31_max_residual': 5.559555593448451e-06, 'eq31_intervals_used': 66788, 'eq31_intervals_excluded': 12, 'speed_checked_states': 67000, 'speed_violations': 0, 'speed_max_norm': 0.688982333154268, 'clamped_trajectories': 0},
    'clamped': {'samples': 200, 'seed': 0, 'hypothesis_min_grad': 3.7615883056553625, 'a_prime_checked': 146, 'a_prime_violations': 0, 'b_prime': {'sampled_B': 7, 'confined_in_B': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_plus_eps': 0.0}, 'c_prime': {'sampled_C': 6, 'confined_in_C': 0, 'confined_satisfying': 0, 'unconditional_fraction_reaching_c_minus_eps': 0.0}, 'eq31_max_residual': 0.021126559163679226, 'eq31_intervals_used': 62748, 'eq31_intervals_excluded': 44, 'speed_checked_states': 63315, 'speed_violations': 0, 'speed_max_norm': 0.24999625128042396, 'clamped_trajectories': 12},
}


@pytest.fixture(scope="module")
def pinned_audit_fields(w2s_field, w2s_box):
    def w2s(d_spec, resolution):
        part = BandPartition(w2s_field, w2s_box,
                             0.5, 0.1, d_spec)
        return build_backend(part, "sampled", resolution)

    flow_backend = w2s(RegionSpec.level_set(0.5), 201)
    cloud = RegionSpec.point_cloud([[0.0, 0.5 ** 0.5], [0.0, -0.5 ** 0.5],
                                    [2.0, 0.5 ** 0.5]])
    par = catalog_field("paraboloid")
    part = BandPartition(par, default_box("paraboloid"),
                         c=4.5, eps=0.5)
    below = BandPartition(par, default_box("paraboloid"),
                          c=-5.0, eps=0.1)
    return {
        "deform_flow": DeformationField(flow_backend),
        "record_every_7": DeformationField(flow_backend, record_every=7),
        "point_cloud_d": DeformationField(w2s(cloud, 101), record_every=3),
        "clamped": DeformationField(build_backend(part, "sampled", 101),
                                    record_every=3),
        "all_frozen": DeformationField(build_backend(below, "sampled", 51)),
    }


@pytest.mark.parametrize("name", sorted(PINNED_AUDITS))
def test_verify_deformation_pinned(pinned_audit_fields, name):
    df = pinned_audit_fields[name]
    got = _to_jsonable(verify_deformation(df, samples=200, seed=0).to_dict())
    assert got == PINNED_AUDITS[name]
    # every unclamped trajectory's record intervals are used or excluded
    n, _ = df.grid
    n_rec = len(set(range(0, n + 1, df.record_every)) | {n})
    unclamped = got["samples"] - got["clamped_trajectories"]
    assert (got["eq31_intervals_used"] + got["eq31_intervals_excluded"]
            == (n_rec - 1) * unclamped)


def test_wrong_dimension_point_raises_invalid_point(affine_df):
    # the stage calls the field's eval_fn and grad_fn unchecked; every
    # public entry point checks the points once
    part, backend = affine_df.part, affine_df.backend
    for u in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 1))):
        for call in (lambda: psi(part, backend, u), lambda: affine_df.psi(u),
                     lambda: vector_field(affine_df, u),
                     lambda: eta(affine_df, u),
                     lambda: eta_batch(affine_df, np.atleast_2d(u))):
            with pytest.raises(InvalidPoint):
                call()
    with pytest.raises(InvalidPoint):
        integrate_flow(affine_df, np.zeros(3))


def test_vector_field_of_a_batch_of_batches(affine_df):
    # every row has psi != 0, so the stage takes the whole batch; a
    # (2, 2, dim) batch gave rows mixed across the inner axis
    U = np.array([[[-0.4, 0.1], [-0.2, -0.3]], [[0.2, 0.5], [0.45, 0.0]]])
    f = vector_field(affine_df, U)
    assert f.shape == U.shape
    for idx in np.ndindex(U.shape[:-1]):
        assert np.array_equal(f[idx], vector_field(affine_df, U[idx]))


@pytest.mark.parametrize("kind", ["first_order", "sampled"])
def test_backend_of_another_partition_rejected(w2s_field, w2s_box, kind):
    # with part B's first_order backend, psi at (0.5, 0.3) on part A read
    # +0.166 where A's own gives -0.320, with no error (sampled at 51 points
    # per axis: +0.255 against -0.287); a DeformationField reaches its
    # partition through its backend, so psi is the one call that can mix them
    part_a = BandPartition(w2s_field, w2s_box, c=0.5, eps=0.1)
    part_b = BandPartition(w2s_field, w2s_box, c=1.0, eps=0.2)
    u = np.array([0.5, 0.3])
    with pytest.raises(ValueError, match="another partition"):
        psi(part_a, build_backend(part_b, kind, 51), u)
    df = DeformationField(build_backend(part_a, kind, 51))
    assert df.part is part_a
    assert psi(part_a, df.backend, u) == df.psi(u) < 0.0

