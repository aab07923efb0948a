"""Pseudo-gradient flow driven by the cutoff, and its property checker.

The vector field is

    f(u) = psi(u) * grad(u) / ||grad(u)||^2     where psi(u) != 0
         = 0                                    where psi(u) = 0

and the deformation is eta(u) = sigma(T, u) with horizon T = 2 eps, where
sigma solves dsigma/dt = f(sigma), sigma(0) = u.  Each evaluation of f reads
phi and its gradient once (bands.cutoff_stage).  One RK4 integrator serves
eta, eta_batch, integrate_flow and the audit; rows with a zero field at the
start are never stepped and come back bit-identically (the unique constant
solution), so the fixed-point property is machine-exact.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .bands import BandPartition, RegionTag, cutoff_stage, psi as psi_fn
from .errors import EmptyRegion, VectorFieldSingular
from .fields import ScalarField


@dataclass(frozen=True)
class DeformationField:
    field: ScalarField
    part: BandPartition
    backend: object

    def __post_init__(self):
        if self.field is not self.part.field:
            raise ValueError("field must be the partition's field")

    def psi(self, u):
        return psi_fn(self.part, self.backend, u)

    @property
    def horizon(self) -> float:
        return 2.0 * self.part.params.eps


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step integrator settings; step defaults to horizon/1000."""

    step: Optional[float] = None
    record_every: int = 1

    def grid(self, horizon: float):
        step = self.step if self.step is not None else horizon / 1000.0
        if step <= 0 or step > horizon:
            raise ValueError("need 0 < step <= horizon")
        n = max(1, round(horizon / step))
        return n, horizon / n


@dataclass
class Trajectory:
    times: np.ndarray            # (n_rec,)
    points: np.ndarray           # (n_rec, dim)
    phi_values: np.ndarray
    psi_values: np.ndarray
    confined_in: Optional[RegionTag]
    clamped: bool

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


def vector_field(df: DeformationField, u):
    """f at u; exact zero vector wherever psi vanishes."""
    u = np.asarray(u, dtype=float)
    U = np.atleast_2d(u)
    psi_vals, g, gn = cutoff_stage(df.part, df.backend, U)
    out = np.zeros_like(U)
    active = psi_vals != 0.0
    gn = gn[active]
    floor = df.part.params.min_grad_floor
    if np.any(gn < floor):
        bad = U[active][gn < floor][0]
        raise VectorFieldSingular(
            f"||grad|| < {floor} at {bad.tolist()} where the cutoff is nonzero")
    out[active] = (psi_vals[active] / gn ** 2)[:, None] * g[active]
    return out[0] if u.ndim == 1 else out


def _integrate(df: DeformationField, cfg: FlowConfig, U0: np.ndarray, record: bool):
    """RK4 on a batch of starts (N, dim); returns (times, states, clamped).

    Rows with a zero field at the start are never stepped.  Live rows that
    leave the box are clamped to it and flagged.  states (n_rec, N, dim)
    holds t = 0, every record_every-th step and t = T when record is set and
    some row is live, else t = 0 and t = T only.
    """
    n, h = cfg.grid(df.horizon)
    f0 = vector_field(df, U0)
    live = np.any(f0 != 0.0, axis=-1)
    clamped = np.zeros(len(U0), dtype=bool)
    if not np.any(live):
        return np.array([0.0, n * h]), np.stack([U0, U0]), clamped
    rec = set(range(0, n + 1, cfg.record_every)) if record else set()
    box = df.part.box
    U, k1 = U0[live], f0[live]
    times, states = [0.0], [U0.copy()]
    for k in range(1, n + 1):
        k2 = vector_field(df, U + (0.5 * h) * k1)
        k3 = vector_field(df, U + (0.5 * h) * k2)
        k4 = vector_field(df, U + h * k3)
        U = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Uc = box.clip(U)
        clamped[live] |= np.any(Uc != U, axis=-1)
        U = Uc
        if k in rec or k == n:
            state = U0.copy()
            state[live] = U
            states.append(state)
            times.append(k * h)
        if k < n:
            k1 = vector_field(df, U)
    return np.asarray(times), np.stack(states), clamped


def integrate_flow(df: DeformationField, cfg: FlowConfig, u) -> Trajectory:
    """Solve the flow from a single start over [0, 2 eps]."""
    u = np.asarray(u, dtype=float)
    times, states, clamped = _integrate(df, cfg, u[None, :], True)
    pts = states[:, 0, :]
    phis = np.asarray(df.field.evaluate(pts))
    tags = df.part.tags(pts, phis)
    conf = RegionTag(tags[0]) if np.all(tags == tags[0]) else None
    return Trajectory(times, pts, phis, np.asarray(df.psi(pts)),
                      conf, bool(clamped[0]))


def eta(df: DeformationField, cfg: FlowConfig, u):
    """Deformation endpoint sigma(2 eps, u) of a point or a batch."""
    u = np.asarray(u, dtype=float)
    out = eta_batch(df, cfg, np.atleast_2d(u))
    return out[0] if u.ndim == 1 else out


def eta_batch(df: DeformationField, cfg: FlowConfig, U):
    _, states, _ = _integrate(df, cfg, np.asarray(U, dtype=float), False)
    return states[-1]


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


def verify_deformation(df: DeformationField, cfg: FlowConfig, samples: int,
                       seed: int, tol: float = 1e-3) -> DeformationReport:
    """Sample-based audit of the deformation's claimed properties.

    The fixed-point check is bit-exact on points outside the band or in D.
    The push-up/push-down conclusions are reported both conditionally
    (trajectories confined to B resp. C for the whole horizon) and as the
    unconditional fraction that reached the target level.  The derivative
    identity d/dt phi(sigma) = psi(sigma) is audited by finite differences
    over record intervals whose endpoints and spatial midpoint share one
    region tag; intervals straddling a region boundary are excluded and
    counted, because the midpoint stencil is only second-order accurate
    away from the cutoff's derivative kinks.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    part = df.part
    c, eps = part.params.c, part.params.eps
    rng = np.random.default_rng(seed)
    U0 = part.box.sample(rng, samples)
    phi0 = np.asarray(df.field.evaluate(U0))
    tags0 = part.tags(U0, phi0)

    band = tags0 != RegionTag.OUTSIDE
    gn0 = df.field.grad_norm(U0)
    hyp_min = float(np.min(gn0[band])) if np.any(band) else float("nan")

    in_b = tags0 == RegionTag.B
    in_c = tags0 == RegionTag.C
    if not np.any(in_b):
        raise EmptyRegion("no sampled points fell in B inside the box")
    if not np.any(in_c):
        raise EmptyRegion("no sampled points fell in C inside the box")

    times, rec, clamped = _integrate(df, cfg, U0, True)
    finals = rec[-1]

    # fixed-point property on OUTSIDE and D samples (bit-exact)
    fixed_mask = (tags0 == RegionTag.OUTSIDE) | (tags0 == RegionTag.D)
    a_checked = int(np.sum(fixed_mask))
    a_viol = int(np.sum(np.any(finals[fixed_mask] != U0[fixed_mask], axis=-1)))

    # recorded phi / psi / tags over the whole batch
    n_rec, N, dim = rec.shape
    flat = rec.reshape(-1, dim)
    phis = np.asarray(df.field.evaluate(flat)).reshape(n_rec, N)
    psis = np.asarray(df.psi(flat)).reshape(n_rec, N)
    tags = part.tags(rec, phis)

    ok = ~clamped  # clamped trajectories are excluded from property stats

    def push_record(mask_region, target_check, confined_tag):
        m = mask_region & ok
        sampled = int(np.sum(mask_region))
        confined = np.all(tags == confined_tag, axis=0) & m
        phi_end = phis[-1]
        satisfied = confined & target_check(phi_end)
        reached = m & target_check(phi_end)
        return {
            "sampled": sampled,
            "confined": int(np.sum(confined)),
            "confined_satisfying": int(np.sum(satisfied)),
            "unconditional_fraction": float(np.sum(reached) / max(1, np.sum(m))),
        }

    b_rec = push_record(in_b, lambda p: p >= c + eps - tol, RegionTag.B)
    b_prime = {"sampled_B": b_rec["sampled"],
               "confined_in_B": b_rec["confined"],
               "confined_satisfying": b_rec["confined_satisfying"],
               "unconditional_fraction_reaching_c_plus_eps":
                   b_rec["unconditional_fraction"]}
    c_rec = push_record(in_c, lambda p: p <= c - eps + tol, RegionTag.C)
    c_prime = {"sampled_C": c_rec["sampled"],
               "confined_in_C": c_rec["confined"],
               "confined_satisfying": c_rec["confined_satisfying"],
               "unconditional_fraction_reaching_c_minus_eps":
                   c_rec["unconditional_fraction"]}

    # derivative identity residual over uniform-tag record intervals
    dt = np.diff(times)[:, None]
    dphi = np.diff(phis, axis=0)
    mids = 0.5 * (rec[:-1] + rec[1:])
    psi_mid = np.asarray(df.psi(mids.reshape(-1, dim))).reshape(n_rec - 1, N)
    tag_mid = part.classify(mids.reshape(-1, dim)).reshape(n_rec - 1, N)
    same = (tags[:-1] == tags[1:]) & (tags[:-1] == tag_mid) & ok[None, :]
    resid = np.abs(dphi / dt - psi_mid)
    used = int(np.sum(same))
    excluded = int(np.sum(~same & ok[None, :]))
    eq31 = float(np.max(resid[same])) if used else float("nan")

    # speed bound over all recorded states with ||grad|| >= 2 eps
    gns = df.field.grad_norm(flat).reshape(n_rec, N)
    with np.errstate(divide="ignore", invalid="ignore"):
        fnorm = np.where(psis != 0.0, np.abs(psis) / gns, 0.0)
    check = gns >= 2.0 * eps
    bound = 1.0 / (2.0 * eps) + 1e-12
    speed_viol = int(np.sum(fnorm[check] > bound))
    speed_max = float(np.max(fnorm[check])) if np.any(check) else 0.0

    return DeformationReport(
        samples=samples, seed=seed,
        hypothesis_min_grad=hyp_min,
        a_prime_checked=a_checked, a_prime_violations=a_viol,
        b_prime=b_prime, c_prime=c_prime,
        eq31_max_residual=eq31,
        eq31_intervals_used=used, eq31_intervals_excluded=excluded,
        speed_checked_states=int(np.sum(check)), speed_violations=speed_viol,
        speed_max_norm=speed_max,
        clamped_trajectories=int(np.sum(clamped)),
    )
