"""Pseudo-gradient flow driven by the cutoff, and its property checker.

The vector field is

    f(u) = psi(u) * grad(u) / ||grad(u)||^2     where psi(u) != 0
         = 0                                    where psi(u) = 0

and the deformation is eta(u) = sigma(T, u) with horizon T = 2 eps, where
sigma solves dsigma/dt = f(sigma), sigma(0) = u.  A DeformationField is the
whole deformation: its backend, which holds the partition (c, eps, D), and
the integrator's step and record_every, checked and turned into the step
grid at construction; every flow call takes only it.  Each evaluation of f
reads phi and its gradient once (bands.cutoff_stage) and also yields psi; a
stage whose rows all have psi != 0 is computed on the whole batch, with no
gather or scatter.  One RK4 integrator serves eta, eta_batch, integrate_flow
and the audit; it checks the points' dimension once per call (as
vector_field does), never per stage, and clips a step to the box only when a
row has left it.  Rows with a zero field at the start are frozen: they are
never stepped and come back bit-identically (the unique constant solution),
so the fixed-point property is machine-exact.  Only the live rows are
recorded, with psi at each recorded state taken from the stage that starts
the next step; callers rebuild full rows from the starts, and the audit
evaluates a frozen row once at its start and counts it once per recorded
state or interval.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from numbers import Integral
from typing import NamedTuple, Optional

import numpy as np

from .bands import (MIN_GRAD_FLOOR, BandPartition, RegionTag, cutoff_stage,
                    psi as psi_fn)
from .errors import VectorFieldSingular
from .fields import ScalarField

# How close to c + eps (c - eps) a pushed-up (pushed-down) endpoint's phi must
# come to count as reaching the target level in the audit.
PUSH_TOL = 1e-3


@dataclass(frozen=True)
class DeformationField:
    """eta of the backend's partition in n RK4 steps of h, grid = (n, h), h
    being step (default horizon/1000) rounded to divide the horizon."""

    backend: object
    step: Optional[float] = None
    record_every: int = 1

    def __post_init__(self):
        if not isinstance(self.record_every, Integral) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, "
                             f"got {self.record_every!r}")
        horizon = self.horizon
        step = self.step if self.step is not None else horizon / 1000.0
        if not 0 < step <= horizon:   # False on NaN
            raise ValueError("need 0 < step <= horizon")
        n = max(1, round(horizon / step))
        object.__setattr__(self, "grid", (n, horizon / n))

    @property
    def part(self) -> BandPartition:
        return self.backend.part

    @property
    def field(self) -> ScalarField:
        return self.part.field

    def psi(self, u):
        return psi_fn(self.part, self.backend, u)

    @property
    def horizon(self) -> float:
        return 2.0 * self.part.eps


@dataclass
class Trajectory:
    times: np.ndarray            # (n_rec,)
    points: np.ndarray           # (n_rec, dim)
    phi_values: np.ndarray
    psi_values: np.ndarray
    clamped: bool

    @property
    def end(self):
        return self.points[-1]


def _stage(df: DeformationField, U):
    """f and psi at a checked batch U (N, dim), from one bands.cutoff_stage;
    a batch whose rows all have psi != 0 is not gathered or scattered."""
    psi_vals, g, gn, _ = cutoff_stage(df.backend, U)
    active = psi_vals != 0.0
    whole = np.count_nonzero(active) == active.size
    if not whole:
        g, gn = g[active], gn[active]
    if np.count_nonzero(gn < MIN_GRAD_FLOOR):
        bad = (U if whole else U[active])[gn < MIN_GRAD_FLOOR][0]
        raise VectorFieldSingular(f"||grad|| < {MIN_GRAD_FLOOR} at {bad.tolist()} "
                                  f"where the cutoff is nonzero", bad.tolist())
    if whole:
        return (psi_vals / gn ** 2)[..., None] * g, psi_vals
    f = np.zeros(U.shape)
    f[active] = (psi_vals[active] / gn ** 2)[..., None] * g
    return f, psi_vals


def vector_field(df: DeformationField, u):
    """f at u; exact zero vector wherever psi vanishes."""
    u = np.asarray(u, dtype=float)
    f = _stage(df, df.field.check(np.atleast_2d(u)))[0]
    return f[0] if u.ndim == 1 else f


class _Run(NamedTuple):
    """What _integrate recorded for a batch of N starts, n_live of them live."""

    times: np.ndarray      # (n_rec,)
    live: np.ndarray       # (N,) rows with a nonzero field at t = 0
    path: np.ndarray       # (n_rec, n_live, dim) live rows' recorded states
    psi: np.ndarray        # (n_rec, n_live) the cutoff at those states
    psi0: np.ndarray       # (N,) the cutoff at every start
    clamped: np.ndarray    # (N,)

    def finals(self, U0):
        """States at t = T of every row; frozen rows are their starts."""
        out = U0.copy()
        out[self.live] = self.path[-1]
        return out


def _record_steps(df: DeformationField) -> set:
    """The steps a recording run of df.grid's n steps records at: 0, every
    record_every-th step and n."""
    n = df.grid[0]
    return set(range(0, n + 1, df.record_every)) | {n}


def _integrate(df: DeformationField, U0: np.ndarray, record: bool) -> _Run:
    """RK4 on a batch of starts (N, dim).

    Rows with a zero field at the start are frozen: they are never stepped
    or recorded, being the constant solution.  Live rows that leave the box
    are clamped to it and flagged; the box is tested first, so a step that
    stays inside it is never clipped.  The live rows are recorded at t = 0,
    every record_every-th step and t = T when record is set and some row is
    live, else at t = 0 and t = T only; psi at each recorded state comes
    from the k1 stage that starts the next step (one extra cutoff_stage at
    t = T).
    """
    n, h = df.grid
    U0 = df.field.check(U0)
    f0, psi0 = _stage(df, U0)
    live = np.any(f0 != 0.0, axis=-1)
    clamped = np.zeros(len(U0), dtype=bool)
    U, k1 = U0[live], f0[live]
    times, path, psis = [0.0], [U], [psi0[live]]
    if not np.any(live):
        return _Run(np.array([0.0, n * h]), live, np.stack([U, U]),
                    np.stack(psis * 2), psi0, clamped)
    rec = _record_steps(df) if record else {n}
    box = df.part.box
    for k in range(1, n + 1):
        k2 = _stage(df, U + (0.5 * h) * k1)[0]
        k3 = _stage(df, U + (0.5 * h) * k2)[0]
        k4 = _stage(df, U + h * k3)[0]
        U = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        inside = (U >= box.lo) & (U <= box.hi)   # False on NaN
        if np.count_nonzero(inside) != inside.size:
            Uc = box.clip(U)
            clamped[live] |= np.any(Uc != U, axis=-1)
            U = Uc
        if k < n:
            k1, psi = _stage(df, U)
        else:
            psi = cutoff_stage(df.backend, U)[0]
        if k in rec:
            times.append(k * h)
            path.append(U)
            psis.append(psi)
    return _Run(np.asarray(times), live, np.stack(path), np.stack(psis),
                psi0, clamped)


def integrate_flow(df: DeformationField, u) -> Trajectory:
    """Solve the flow from a single start over [0, 2 eps]."""
    u = np.asarray(u, dtype=float)
    run = _integrate(df, u[None, :], True)
    if run.live[0]:
        pts, psis = run.path[:, 0, :], run.psi[:, 0]
    else:   # the constant solution, recorded at t = 0 and t = T
        pts, psis = np.stack([u, u]), np.full(2, run.psi0[0])
    phis = np.asarray(df.field.evaluate(pts))
    return Trajectory(run.times, pts, phis, psis, bool(run.clamped[0]))


def eta(df: DeformationField, u):
    """Deformation endpoint sigma(2 eps, u) of a point or a batch."""
    u = np.asarray(u, dtype=float)
    out = eta_batch(df, np.atleast_2d(u))
    return out[0] if u.ndim == 1 else out


def eta_batch(df: DeformationField, U):
    U = np.asarray(U, dtype=float)
    return _integrate(df, U, False).finals(U)


@dataclass
class DeformationReport:
    samples: int
    seed: int
    hypothesis_min_grad: float
    a_prime_checked: int
    a_prime_violations: int
    b_prime: dict
    c_prime: dict
    eq31_max_residual: float
    eq31_intervals_used: int
    eq31_intervals_excluded: int
    speed_checked_states: int
    speed_violations: int
    speed_max_norm: float
    clamped_trajectories: int

    def to_dict(self) -> dict:
        return asdict(self)


def verify_deformation(df: DeformationField, samples: int,
                       seed: int) -> DeformationReport:
    """Sample-based audit of the deformation's claimed properties.

    The fixed-point check is bit-exact on points outside the band or in D.
    The push-up/push-down conclusions are reported both conditionally
    (trajectories confined to B resp. C for the whole horizon) and as the
    unconditional fraction that reached the target level, NaN when no
    unclamped sample starts in the band; when no sample starts in B (resp.
    C), as at a level where that band is empty, the record says it holds
    vacuously ("vacuous": True).  The derivative identity d/dt phi(sigma) =
    psi(sigma) is audited by finite differences over record intervals whose
    endpoints and spatial midpoint share one region tag; intervals
    straddling a region boundary are excluded and counted, because the
    midpoint stencil is only second-order accurate away from the cutoff's
    derivative kinks.

    phi, tags, midpoints and gradient norms are evaluated on the live rows'
    recorded path only, with psi as recorded by the integrator.  A frozen
    row is evaluated once at its start and weighted by the number of states
    (speed bound) or intervals (derivative identity) of the record schedule,
    whether or not any row is live, so the report equals an audit of every
    row at every scheduled time.  The fixed-point check compares the rebuilt
    final states with the starts.
    """
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
    n_sched = len(_record_steps(df))
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
