import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from passlab import (BandPartition, DomainBox, RegionSpec, RegionTag,
                     build_backend, catalog_field, default_box,
                     DeformationField, eta, integrate_flow, polynomial_field,
                     vector_field, verify_deformation)
from passlab import flow
from passlab.cli import _to_jsonable
from passlab.bands import cutoff_stage, psi
from passlab.errors import InvalidPoint, PasslabError, VectorFieldSingular
from passlab.flow import (MAX_STEPS, PUSH_TOL, DeformationReport, _integrate,
                          _stage, eta_batch)


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
    # record_every = 1 uses 199,757 (9.2e-7); 0 raised a bare range() error,
    # and True was taken for 1.  A step of 1e-9 on this horizon of 1 asked
    # for 10^9 RK4 steps and a record schedule of as many ints
    horizon = affine_df.horizon
    for step in (2.0, -0.1, float("nan"), horizon / (MAX_STEPS + 1), 1e-9, 5e-324):
        with pytest.raises(ValueError, match="step"):
            replace(affine_df, step=step)
    for record_every in (0, -1, 1.5, 2.0, None, True):
        with pytest.raises(ValueError, match="record_every"):
            replace(affine_df, record_every=record_every)


@pytest.mark.parametrize("eps", [1e308, 8.99e307])
def test_overflowing_horizon_is_an_eps_error(affine_field, eps):
    # a finite eps whose horizon 2 eps overflows failed in round(NaN) with
    # an error that blamed the step
    part = BandPartition(affine_field, DomainBox(-np.ones(2), np.ones(2)), 0.0, eps)
    backend = build_backend(part, resolution=3)
    for step in (None, 1.0):
        with pytest.raises(OverflowError, match="eps"):
            DeformationField(backend, step)


def test_record_schedule(affine_df):
    # step 0, every record_every-th step and the last, computed once beside
    # the step grid, up to MAX_STEPS steps
    horizon = affine_df.horizon
    for n, every in ((1, 1), (10, 3), (12, 4), (1000, 1), (7, 50)):
        df = replace(affine_df, step=horizon / n, record_every=every)
        assert df.grid[0] == n
        assert df.schedule.tolist() == sorted(set(range(0, n + 1, every)) | {n})
    assert replace(affine_df, step=horizon / MAX_STEPS).grid[0] == MAX_STEPS


def test_push_up_from_b(affine_df):
    traj = integrate_flow(affine_df, np.array([-0.4, 0.0]))
    # phi increases at unit rate while in B, then stalls near the midplane
    assert traj.phi_values[1] > traj.phi_values[0]
    assert -0.3 < traj.points[-1, 0] < 0.0
    assert np.all(np.diff(traj.phi_values) >= -1e-12)


def test_pull_down_from_c(affine_df):
    final = eta(affine_df, np.array([0.35, 0.0]))
    assert 0.0 < final[0] < 0.3


def test_identity_outside_is_bit_exact(affine_wide_df):
    u = np.array([1.5, 0.7])
    traj = integrate_flow(affine_wide_df, u)
    assert np.array_equal(traj.points[-1], u)
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
    assert np.array_equal(eta(df, u), traj.points[-1])


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



def _reference_verify_deformation(df: DeformationField, samples: int,
                                  seed: int) -> DeformationReport:
    """verify_deformation as it was before the audit worked in blocks: every
    recorded state's phi, tags, midpoints and gradient norms at once."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    part = df.part
    c, eps = part.c, part.eps
    rng = np.random.default_rng(seed)
    U0 = part.box.sample(rng, samples)
    phi0 = np.asarray(df.field.evaluate(U0))
    tags0 = part.tags(U0, phi0)

    band = tags0 != RegionTag.OUTSIDE
    gn0 = df.field.grad_norm(U0)
    hyp_min = float(np.min(gn0[band])) if np.any(band) else float("nan")

    run = _integrate(df, U0, True)
    live, frozen = run.live, ~run.live
    finals = run.finals(U0)

    # fixed-point property on OUTSIDE and D samples (bit-exact)
    fixed_mask = (tags0 == RegionTag.OUTSIDE) | (tags0 == RegionTag.D)
    a_checked = int(np.sum(fixed_mask))
    a_viol = int(np.sum(np.any(finals[fixed_mask] != U0[fixed_mask], axis=-1)))

    # phi and tags along the live rows' recorded path; a frozen row keeps
    # its start's phi and tag at every recorded time
    path = run.path
    n_rec, n_live, dim = path.shape
    phis = np.asarray(df.field.evaluate(path.reshape(-1, dim))).reshape(n_rec, n_live)
    tags = part.tags(path, phis)
    phi_end = phi0.copy()
    phi_end[live] = phis[-1]

    ok = ~run.clamped  # clamped trajectories are excluded from property stats

    def push_record(tag, at_target, target):
        in_band = tags0 == tag
        m = in_band & ok
        confined = in_band.copy()
        confined[live] = np.all(tags == tag, axis=0)
        confined &= m
        reached = m & at_target
        rec = {f"sampled_{tag.name}": int(np.sum(in_band)),
               f"confined_in_{tag.name}": int(np.sum(confined)),
               "confined_satisfying": int(np.sum(confined & reached)),
               f"unconditional_fraction_reaching_{target}":
                   float(np.sum(reached) / np.sum(m)) if np.any(m)
                   else float("nan")}
        if not np.any(in_band):   # no start in the band: holds vacuously
            rec["vacuous"] = True
        return rec

    b_prime = push_record(RegionTag.B, phi_end >= c + eps - PUSH_TOL, "c_plus_eps")
    c_prime = push_record(RegionTag.C, phi_end <= c - eps + PUSH_TOL, "c_minus_eps")

    # derivative identity residual over uniform-tag record intervals; each of
    # a frozen row's n_sched - 1 intervals is used (dphi = 0, the midpoint is
    # the start) with residual |psi at the start|.  n_sched counts the
    # schedule, not the run's records: a run with no live row records only
    # t = 0 and t = T.
    n_sched = len(df.schedule)
    dt = np.diff(run.times)[:, None]
    dphi = np.diff(phis, axis=0)
    mids = (0.5 * (path[:-1] + path[1:])).reshape(-1, dim)
    psi_mid, _, _, tag_mid = cutoff_stage(df.backend, mids)
    psi_mid = psi_mid.reshape(n_rec - 1, n_live)
    tag_mid = tag_mid.reshape(n_rec - 1, n_live)
    ok_live = ok[live]
    same = (tags[:-1] == tags[1:]) & (tags[:-1] == tag_mid) & ok_live
    resid = np.concatenate([np.abs(dphi / dt - psi_mid)[same],
                            np.abs(run.psi0[frozen])])
    used = int(np.sum(same)) + (n_sched - 1) * int(np.sum(frozen))
    excluded = int(np.sum(~same & ok_live))
    eq31 = float(np.max(resid)) if used else float("nan")

    # speed bound over all recorded states with ||grad|| >= 2 eps; a frozen
    # row's n_sched states are all its start
    gns = df.field.grad_norm(path.reshape(-1, dim)).reshape(n_rec, n_live)
    bound = 1.0 / (2.0 * eps) + 1e-12

    def checked_speeds(psis, gn):
        with np.errstate(divide="ignore", invalid="ignore"):
            fnorm = np.where(psis != 0.0, np.abs(psis) / gn, 0.0)
        return fnorm[gn >= 2.0 * eps]

    live_f = checked_speeds(run.psi, gns)
    frozen_f = checked_speeds(run.psi0[frozen], gn0[frozen])
    speed_checked = live_f.size + n_sched * frozen_f.size
    speed_viol = (int(np.sum(live_f > bound))
                  + n_sched * int(np.sum(frozen_f > bound)))
    speed_max = (float(np.max(np.concatenate([live_f, frozen_f])))
                 if speed_checked else 0.0)

    return DeformationReport(
        samples=samples, seed=seed,
        hypothesis_min_grad=hyp_min,
        a_prime_checked=a_checked, a_prime_violations=a_viol,
        b_prime=b_prime, c_prime=c_prime,
        eq31_max_residual=eq31,
        eq31_intervals_used=used, eq31_intervals_excluded=excluded,
        speed_checked_states=speed_checked, speed_violations=speed_viol,
        speed_max_norm=speed_max,
        clamped_trajectories=int(np.sum(run.clamped)),
    )


def _outcome(audit, df, samples, seed):
    """The audit's report as report.json writes it (NaN as null, -0.0 kept),
    or the class of the library error it raised."""
    try:
        report = audit(df, samples, seed)
    except PasslabError as exc:
        return type(exc)
    return json.dumps(_to_jsonable(report.to_dict()))


def _budgets(df, samples, seed):
    """Block budgets of one row, of a whole number of records plus a part
    of one whose record count divides no schedule longer than two, and of
    more than every row."""
    U0 = df.part.box.sample(np.random.default_rng(seed), samples)
    n_live = int(np.sum(np.any(_stage(df, U0)[0] != 0.0, axis=-1)))
    n_rec = len(df.schedule)
    per = next(k for k in range(2, n_rec + 2) if n_rec % k)
    ragged = per * n_live + n_live // 2 if n_live else 7
    return [1, ragged, (n_rec + 1) * (n_live + 1)]


def _assert_blocked_audit_is_the_reference(df, samples, seed):
    """The audit equals the reference at every budget of _budgets; the
    audits share one integration of the starts."""
    integrate, runs = flow._integrate, []

    def integrate_once(*args):
        if not runs:
            runs.append(integrate(*args))
        return runs[0]

    with mock.patch.object(flow, "_integrate", integrate_once), \
            mock.patch.dict(globals(), _integrate=integrate_once):
        want = _outcome(_reference_verify_deformation, df, samples, seed)
        if isinstance(want, type):   # the starts' flow meets a critical point
            assert _outcome(verify_deformation, df, samples, seed) is want
            return
        for budget in _budgets(df, samples, seed):
            with mock.patch.object(flow, "_AUDIT_ROWS", budget):
                got = _outcome(verify_deformation, df, samples, seed)
            assert got == want, budget


_POLY_BOX = {1: ([-1.5], [1.5]), 2: ([-1.5, -1.0], [1.5, 1.0]),
             3: ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])}


@st.composite
def _deformations(draw):
    """A deformation of a catalog or polynomial field at a drawn level and
    width (at times with an empty band), on either backend, with an empty,
    level-set or point-cloud D, a drawn step and record_every; and the
    audit's samples and seed."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(["affine", "paraboloid", "saddle",
                                     "well_to_saddle", "exp_decay"]))
        field, box = catalog_field(name), default_box(name)
    else:
        dim = draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 8 // dim if dim > 2 else 3)] * dim)
        terms = draw(st.lists(st.tuples(exps, st.floats(-2.0, 2.0)),
                              min_size=1, max_size=4))
        field = polynomial_field(dim, terms)
        box = DomainBox(*map(np.array, _POLY_BOX[dim]))
    samples = draw(st.integers(1, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.asarray(field.evaluate(box.sample(np.random.default_rng(0), 256)))
    lo, hi = float(np.min(values)), float(np.max(values))
    width = max(hi - lo, 1e-3)
    c = lo + draw(st.floats(-0.3, 1.3)) * width
    eps = draw(st.floats(0.02, 0.5)) * width
    kind = draw(st.sampled_from(["empty", "level_set", "point_cloud"]))
    d_spec = RegionSpec.empty()
    if kind == "level_set":
        d_spec = RegionSpec.level_set(c + draw(st.floats(-0.4, 0.4)) * eps)
    elif kind == "point_cloud":
        # D is made of the audit's own starts with phi near c, so that some
        # samples start in D
        U0 = box.sample(np.random.default_rng(seed), samples)
        near = U0[np.abs(np.asarray(field.evaluate(U0)) - c) <= 0.4 * eps]
        if len(near):
            d_spec = RegionSpec.point_cloud(near[:3])
    part = BandPartition(field, box, c, eps, d_spec)
    backend = build_backend(part, draw(st.sampled_from(["first_order", "sampled"])),
                            draw(st.integers(5, 31)))
    n = draw(st.integers(1, 60))
    df = DeformationField(backend, 2.0 * eps / n, draw(st.integers(1, 7)))
    return df, samples, seed


@settings(max_examples=50, deadline=None)
@given(_deformations())
def test_blocked_audit_equals_the_reference(drawn):
    # every report field, NaN-aware and bit for bit, at block budgets of one
    # row, of a size that divides no row count and of more than all rows
    _assert_blocked_audit_is_the_reference(*drawn)


@pytest.mark.parametrize("name", ["all_frozen", "clamped", "vacuous_b"])
def test_blocked_audit_equals_the_reference_pinned(pinned_audit_fields,
                                                   w2s_deformation, name):
    # every row frozen (the band below the paraboloid's range), rows clamped
    # to the box edge, and the valley level of well_to_saddle, where B is
    # empty and (b') holds vacuously
    if name == "vacuous_b":
        df, samples = replace(w2s_deformation, step=0.002), 300
    else:
        df, samples = pinned_audit_fields[name], 200
    _assert_blocked_audit_is_the_reference(df, samples, 0)
    rep = verify_deformation(df, samples, 0)
    assert {"all_frozen": rep.eq31_intervals_excluded == 0
                          and rep.a_prime_checked == samples,
            "clamped": rep.clamped_trajectories > 0,
            "vacuous_b": rep.b_prime.get("vacuous") is True}[name]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["first_order", "sampled"])
def test_overflowing_gradient_audits_without_a_warning(kind):
    # 1e300 x^8 + y^2: ||grad phi||^2 overflows wherever |x| is not tiny;
    # the audit printed numpy's "overflow encountered in multiply" from
    # np.linalg.norm.  Those norms are the scaled norm, finite (they were
    # inf), and the report is the one the old audit gives with the warning
    # silenced
    field = polynomial_field(2, [((8, 0), 1e300), ((0, 2), 1.0)])
    box = DomainBox(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    part = BandPartition(field, box, 1.0, 0.25)
    df = DeformationField(build_backend(part, kind, 51))
    rep = verify_deformation(df, 200, 0)
    x_axis = np.array([5.0, 0.0])
    assert field.grad_norm(x_axis) == abs(field.gradient(x_axis)[0]) > 1e154
    assert field.grad_norm(np.array([0.0, 2.0])) == 4.0
    assert rep.a_prime_violations == 0 and rep.speed_violations == 0
    assert _to_jsonable(rep.to_dict()) == _to_jsonable(
        _reference_audit_quietly(df, 200, 0).to_dict())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_moves_where_the_gradient_norm_squared_overflows():
    # 1e156 x^3 + y^2 on [-1, 1]^2, c = 0, eps = 1e154: ||grad phi||^2
    # overflows for |x| above about 0.067, and psi / ||grad phi||^2 read 0
    # there, so the flow stood still.  Those rows are (psi / gn)(g / gn),
    # with speed |psi| / gn; the others keep psi g / gn^2 bit for bit
    field = polynomial_field(2, [((3, 0), 1e156), ((0, 2), 1.0)])
    box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    df = DeformationField(build_backend(BandPartition(field, box, 0.0, 1e154)))
    u = np.array([[0.15, 0.5], [0.2, -0.1], [0.01, 0.3], [-0.05, 0.1]])
    f = vector_field(df, u)
    psis, g, gn, _ = cutoff_stage(df.backend, u)
    assert np.all(psis != 0.0)
    with np.errstate(over="ignore"):
        big = np.isinf(gn ** 2)
    assert big.tolist() == [True, True, False, False]
    assert np.allclose(np.linalg.norm(f[big], axis=-1),
                       np.abs(psis[big]) / gn[big], rtol=1e-12, atol=0.0)
    assert np.array_equal(f[~big], (psis[~big] / gn[~big] ** 2)[:, None] * g[~big])
    rep = verify_deformation(df, 50, 0)
    assert rep.speed_max_norm > 0.0 and rep.eq31_max_residual < 1e-3


def _reference_audit_quietly(df, samples, seed):
    with np.errstate(over="ignore"):
        return _reference_verify_deformation(df, samples, seed)


@pytest.mark.parametrize("samples", [1000, 4000])
@pytest.mark.parametrize("kind", ["first_order", "sampled"])
def test_audit_memory_is_the_recorded_path_and_one_block(
        pinned_audit_fields, kind, samples):
    # the deform_flow configuration: the audit's heap peak was 16.0-74.2 MB
    # here, about 8 recorded paths; it is now the recorded path and psi
    # (2.2 and 9.1 MB) plus one block
    df = pinned_audit_fields["deform_flow"]
    if kind == "first_order":
        df = DeformationField(build_backend(df.part, "first_order"))
    U0 = df.part.box.sample(np.random.default_rng(0), samples)
    n_live = int(np.sum(np.any(_stage(df, U0)[0] != 0.0, axis=-1)))
    recorded = len(df.schedule) * n_live * (df.part.field.dim + 1) * 8
    tracemalloc.start()
    try:
        verify_deformation(df, samples, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * recorded + 4e6, (peak, recorded)


@pytest.mark.parametrize("kind", ["first_order", "sampled"])
def test_recording_is_one_allocation_per_array(pinned_audit_fields, kind):
    # the path and psi are written into arrays allocated once for the record
    # schedule; appending the states to lists and stacking them held the
    # path twice (a heap peak of 2.1-2.3 times the recorded bytes)
    df = pinned_audit_fields["deform_flow"]
    if kind == "first_order":
        df = DeformationField(build_backend(df.part, "first_order"))
    U0 = df.part.box.sample(np.random.default_rng(0), 4000)
    tracemalloc.start()
    try:
        run = _integrate(df, U0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    recorded = run.path.nbytes + run.psi.nbytes
    assert run.path.shape[:2] == run.psi.shape == (len(df.schedule),
                                                   np.sum(run.live))
    assert peak <= 1.3 * recorded, (peak, recorded)
