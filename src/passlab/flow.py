"""Pseudo-gradient flow driven by the cutoff, and its property checker.

The vector field is

    f(u) = psi(u) * grad(u) / ||grad(u)||^2     where psi(u) != 0
         = 0                                    where psi(u) = 0

and the deformation is eta(u) = sigma(T, u) with horizon T = 2 eps, where
sigma solves dsigma/dt = f(sigma), sigma(0) = u.  A DeformationField is the
whole deformation: its backend, which holds the partition (c, eps, D), and
the integrator's step and record_every, checked and turned into the step
grid and the record schedule at construction, with at most MAX_STEPS steps;
every flow call takes only it.  Each evaluation of f reads phi and its
gradient once (bands.cutoff_stage) and also yields psi; a stage whose rows
all have psi != 0 is computed on the whole batch, with no gather or
scatter; where ||grad||^2 overflows, f is (psi / ||grad||)(grad / ||grad||),
so the flow keeps its finite speed there.  One RK4 integrator serves eta, eta_batch, integrate_flow
and the audit; it checks the points' dimension once per call (as
vector_field does), never per stage, and clips a step to the box only when a
row has left it.  Rows with a zero field at the start are frozen: they are
never stepped and come back bit-identically (the unique constant solution),
so the fixed-point property is machine-exact.  Only the live rows are
recorded, into arrays allocated once for the record schedule, with psi at
each recorded state taken from the stage that starts the next step;
callers rebuild full rows from the starts.  The audit reduces the recorded
path in blocks under a fixed budget of (state, row) pairs, so it needs
memory for the path and one block, and evaluates a frozen row once at its
start, counting it once per recorded state or interval.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple, Optional

import numpy as np

from .bands import (MIN_GRAD_FLOOR, BandPartition, RegionTag, cutoff_stage,
                    psi as psi_fn)
from .errors import VectorFieldSingular
from .fields import ScalarField, check_count

# A DeformationField takes at most this many RK4 steps over the horizon, so
# that an absurd step fails at construction, not in a run that cannot end or
# in a record schedule that cannot be allocated.
MAX_STEPS = 1_000_000

# How close to c + eps (c - eps) a pushed-up (pushed-down) endpoint's phi must
# come to count as reaching the target level in the audit.
PUSH_TOL = 1e-3

# The largest ||grad phi|| whose square cannot overflow (1e308 < the float
# maximum 1.797e308).
_SQUARE_SAFE = 1e154

# verify_deformation reduces the recorded path in blocks of at most this many
# (recorded state, live row) pairs, which bounds what it derives from the
# path (phi, tags, midpoints, their cutoff stage and gradient norms) at a
# few MB whatever the samples and the record schedule.  On the deform_flow
# benchmark config (2-core x86-64), 2,048 to 32,768 all audit a recorded
# path in the time of the whole-path audit (56 ms at 1,000 samples, 0.41-
# 0.55 s at 10,000); 8,192 keeps the audit's own heap under 3 MB.
_AUDIT_ROWS = 8192


@dataclass(frozen=True)
class DeformationField:
    """eta of the backend's partition in n RK4 steps of h, grid = (n, h), h
    being step (default horizon/1000) rounded to divide the horizon and n at
    most MAX_STEPS; schedule holds the steps a recording run records at: 0,
    every record_every-th step and n."""

    backend: object
    step: Optional[float] = None
    record_every: int = 1

    def __post_init__(self):
        check_count("record_every", self.record_every)
        horizon = self.horizon
        step = self.step if self.step is not None else horizon / 1000.0
        if not 0 < step <= horizon:   # False on NaN
            raise ValueError("need 0 < step <= horizon")
        if horizon / step > MAX_STEPS:
            raise ValueError(f"step {step!r} takes more than {MAX_STEPS} RK4 "
                             f"steps over the horizon {horizon!r}")
        n = max(1, round(horizon / step))
        object.__setattr__(self, "grid", (n, horizon / n))
        object.__setattr__(self, "schedule",
                           np.append(np.arange(0, n, self.record_every), n))

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
        return _velocity(psi_vals, g, gn), psi_vals
    f = np.zeros(U.shape)
    f[active] = _velocity(psi_vals[active], g, gn)
    return f, psi_vals


def _velocity(psi_vals, g, gn):
    """psi g / ||g||^2 by rows, from psi, g and gn = ||g||.  Where gn^2
    overflows it is (psi / gn) (g / gn), so a finite speed psi / gn does not
    become 0 there; no gn <= _SQUARE_SAFE can overflow when squared."""
    if not np.maximum.reduce(gn, axis=None, initial=0.0) > _SQUARE_SAFE:
        return (psi_vals / gn ** 2)[..., None] * g
    with np.errstate(over="ignore", invalid="ignore"):
        gn2 = gn ** 2
        f = (psi_vals / gn2)[..., None] * g
        big = np.isinf(gn2)
        f[big] = (psi_vals[big] / gn[big])[:, None] * (g[big] / gn[big][:, None])
    return f


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


def _integrate(df: DeformationField, U0: np.ndarray, record: bool) -> _Run:
    """RK4 on a batch of starts (N, dim).

    Rows with a zero field at the start are frozen: they are never stepped
    or recorded, being the constant solution.  Live rows that leave the box
    are clamped to it and flagged; the box is tested first, so a step that
    stays inside it is never clipped.  The live rows are recorded at t = 0,
    every record_every-th step and t = T when record is set and some row is
    live (df.schedule), else at t = 0 and t = T only, into arrays allocated
    once for that schedule; psi at each recorded state comes from the k1
    stage that starts the next step (one extra cutoff_stage at t = T).
    """
    n, h = df.grid
    U0 = df.field.check(U0)
    f0, psi0 = _stage(df, U0)
    live = np.any(f0 != 0.0, axis=-1)
    clamped = np.zeros(len(U0), dtype=bool)
    U, k1 = U0[live], f0[live]
    steps = df.schedule if record and len(U) else [0, n]
    path = np.empty((len(steps),) + U.shape)
    psis = np.empty((len(steps), len(U)))
    path[0], psis[0] = U, psi0[live]
    times = np.asarray(steps) * h
    if not len(U):
        return _Run(times, live, path, psis, psi0, clamped)
    box = df.part.box
    j = 1
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
        if k == steps[j]:
            path[j], psis[j] = U, psi
            j += 1
    return _Run(times, live, path, psis, psi0, clamped)


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


def _speeds(psis, gn, eps):
    """||f|| = |psi| / ||grad phi|| at the states where ||grad phi|| >= 2 eps,
    the hypothesis of the speed bound."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fnorm = np.where(psis != 0.0, np.abs(psis) / gn, 0.0)
    return fnorm[gn >= 2.0 * eps]


class _PathAudit(NamedTuple):
    """The audit's reduction of the live rows' recorded path."""

    phi_end: np.ndarray      # (n_live,) phi at t = T
    confined: dict           # tag -> (n_live,) the tag at every recorded state
    eq31_max: list           # per-block maxima of the residuals used
    eq31_used: int
    eq31_excluded: int
    speed_max: list          # per-block maxima of the checked speeds
    speed_checked: int
    speed_violations: int


def _audit_path(df: DeformationField, run: _Run, ok_live,
                bound: float) -> _PathAudit:
    """Reduce the live rows' recorded path in blocks of at most _AUDIT_ROWS
    (state, row) pairs; ok_live marks the unclamped rows, bound is the
    speed bound.

    Each block evaluates phi, the tags and ||grad phi|| on its states, and
    one cutoff_stage on the midpoints of the record intervals that end in
    it, the first of which starts at the previous block's last record.
    Only maxima, counts and the running "confined" flags cross blocks, so
    the result does not depend on the block size.
    """
    part, field, eps = df.part, df.field, df.part.eps
    path, times = run.path, run.times
    n_rec, n_live, dim = path.shape
    per = max(1, _AUDIT_ROWS // max(n_live, 1))
    confined = {RegionTag.B: np.ones(n_live, dtype=bool),
                RegionTag.C: np.ones(n_live, dtype=bool)}
    eq31_max, used, excluded = [], 0, 0
    speed_max, checked, viol = [], 0, 0
    for lo in range(0, n_rec, per):
        hi = min(lo + per, n_rec)
        states = path[lo:hi].reshape(-1, dim)
        phis = np.asarray(field.evaluate(states)).reshape(hi - lo, n_live)
        tags = part.tags(path[lo:hi], phis)
        for tag, flags in confined.items():
            flags &= np.all(tags == tag, axis=0)

        f = _speeds(run.psi[lo:hi],
                    field.grad_norm(states).reshape(hi - lo, n_live), eps)
        checked += f.size
        viol += int(np.sum(f > bound))
        if f.size:
            speed_max.append(np.max(f))

        # the derivative identity over the record intervals that end in this
        # block, from record a on: the first starts at the previous block's
        # last record
        if lo:
            phis = np.concatenate([phi_last[None], phis])
            tags = np.concatenate([tag_last[None], tags])
        phi_last, tag_last = phis[-1], tags[-1]
        a, m = hi - len(phis), len(phis) - 1
        if not m:
            continue
        dt = np.diff(times[a:hi])[:, None]
        dphi = np.diff(phis, axis=0)
        mids = (0.5 * (path[a:hi - 1] + path[a + 1:hi])).reshape(-1, dim)
        psi_mid, _, _, tag_mid = cutoff_stage(df.backend, mids)
        psi_mid = psi_mid.reshape(m, n_live)
        tag_mid = tag_mid.reshape(m, n_live)
        same = (tags[:-1] == tags[1:]) & (tags[:-1] == tag_mid) & ok_live
        resid = np.abs(dphi / dt - psi_mid)[same]
        used += resid.size
        excluded += int(np.sum(~same & ok_live))
        if resid.size:
            eq31_max.append(np.max(resid))
    return _PathAudit(phi_last, confined, eq31_max, used, excluded,
                      speed_max, checked, viol)


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
    recorded path only, with psi as recorded by the integrator, in blocks
    of at most _AUDIT_ROWS (state, row) pairs (_audit_path): the audit
    holds the recorded path and one block, not the path's every derived
    array.  A frozen row is evaluated once at its start and weighted by the
    number of states (speed bound) or intervals (derivative identity) of
    the record schedule, whether or not any row is live, so the report
    equals an audit of every row at every scheduled time.  The fixed-point
    check compares the rebuilt final states with the starts.  A gradient
    that overflows when squared has norm inf, without a warning.
    """
    check_count("samples", samples)
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

    ok = ~run.clamped  # clamped trajectories are excluded from property stats
    bound = 1.0 / (2.0 * eps) + 1e-12   # the speed bound
    audit = _audit_path(df, run, ok[live], bound)
    # a frozen row keeps its start's phi and tag at every recorded time
    phi_end = phi0.copy()
    phi_end[live] = audit.phi_end

    def push_record(tag, at_target, target):
        in_band = tags0 == tag
        m = in_band & ok
        confined = in_band.copy()
        confined[live] = audit.confined[tag]
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

    # derivative identity: each of a frozen row's n_sched - 1 intervals is
    # used (dphi = 0, the midpoint is the start) with residual |psi at the
    # start|.  n_sched counts the schedule, not the run's records: a run
    # with no live row records only t = 0 and t = T.
    n_sched = len(df.schedule)
    n_frozen = int(np.sum(frozen))
    maxima = audit.eq31_max + ([np.max(np.abs(run.psi0[frozen]))]
                               if n_frozen else [])
    used = audit.eq31_used + (n_sched - 1) * n_frozen
    eq31 = float(np.max(maxima)) if used else float("nan")

    # speed bound over all recorded states with ||grad|| >= 2 eps; a frozen
    # row's n_sched states are all its start
    frozen_f = _speeds(run.psi0[frozen], gn0[frozen], eps)
    speed_checked = audit.speed_checked + n_sched * frozen_f.size
    speed_viol = audit.speed_violations + n_sched * int(np.sum(frozen_f > bound))
    maxima = audit.speed_max + ([np.max(frozen_f)] if frozen_f.size else [])
    speed_max = float(np.max(maxima)) if speed_checked else 0.0

    return DeformationReport(
        samples=samples, seed=seed,
        hypothesis_min_grad=hyp_min,
        a_prime_checked=a_checked, a_prime_violations=a_viol,
        b_prime=b_prime, c_prime=c_prime,
        eq31_max_residual=eq31,
        eq31_intervals_used=used, eq31_intervals_excluded=audit.eq31_excluded,
        speed_checked_states=speed_checked, speed_violations=speed_viol,
        speed_max_norm=speed_max,
        clamped_trajectories=int(np.sum(run.clamped)),
    )
