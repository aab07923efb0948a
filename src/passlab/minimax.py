"""Minimax estimation over the pinned path space, and its diagnostics.

c1 is the sup over paths of the path minimum of phi; c2 the inf over paths
of the path maximum.  Both are estimated by ensemble elastic-path descent:
each iteration moves the extremal node (and its two free neighbors at half
weight) along the gradient, redistributes free nodes toward uniform
spacing, and accepts the candidate only if the objective improved, so the
per-member history is monotone by construction.  The estimates are meant
to be validated against the grid oracles, not trusted.

The proof tracer deforms at each level with D = {phi = level} on the
default backend of bands.build_backend, first-order distances, so its RK4
stages make no point lookups.  Its settings, and the Palais-Smale probe's
thresholds, are the module constants PROOF_* and PS_*.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from .bands import BandPartition, DeformationParams, RegionSpec, build_backend
from .errors import InvalidInstance, PinMoved
from .fields import DomainBox, ScalarField
from .flow import DeformationField, FlowConfig, eta
from .paths import DiscretePath, MountainPassInstance, make_path, path_extrema, \
    deform_path

STALL_ITERS = 20            # consecutive low-improvement iterations => converged

PROOF_FLOW = FlowConfig()   # the proof tracer's integrator settings
PROOF_M = 32                # segments of the proof tracer's paths
PROOF_RESOLUTION = 201      # grid points per axis: backend and band search
PROOF_HALVINGS = 12         # band widths tried per route, halving from eps1

PS_GRAD_TOL = 1e-3          # ||grad|| below which a probe final is near-critical
PS_CLUSTER_RADIUS = 0.05    # linkage radius of near-critical clusters


@dataclass
class MinimaxResult:
    value: float
    witness_path: DiscretePath
    witness_point: np.ndarray
    witness_index: int
    iterations: int
    converged: bool
    history: list
    member_index: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness_point": self.witness_point.tolist(),
            "witness_index": self.witness_index,
            "iterations": self.iterations,
            "converged": self.converged,
            "history": [float(h) for h in self.history],
            "member_index": self.member_index,
        }


def _redistribute(nodes: np.ndarray, pinned) -> np.ndarray:
    """Arclength-uniform resampling of each segment between anchors.

    Anchors are the pinned indices plus both path endpoints; collapsed
    segments (zero length) are left alone.
    """
    M = nodes.shape[0] - 1
    anchors = sorted(set(pinned) | {0, M})
    out = nodes.copy()
    for a, b in zip(anchors[:-1], anchors[1:]):
        if b - a < 2:
            continue
        seg = nodes[a:b + 1]
        steps = np.linalg.norm(np.diff(seg, axis=0), axis=-1)
        total = steps.sum()
        if total < 1e-12:
            continue
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        targets = np.linspace(0.0, total, b - a + 1)
        for ax in range(nodes.shape[1]):
            out[a:b + 1, ax] = np.interp(targets, cum, seg[:, ax])
        out[a] = nodes[a]
        out[b] = nodes[b]
    return out


def _descend_member(inst: MountainPassInstance, path: DiscretePath,
                    minimize_max: bool, max_iters: int, tol: float):
    """Local search on one member; returns (path, best, history, iters, conv)."""
    field = inst.field
    nodes = path.nodes.copy()
    M = path.M
    pinned = set(path.pinned)
    span = float(np.linalg.norm(inst.pin_e - inst.pin_zero))
    s0 = 0.2 * max(span, 1e-6)
    s = s0

    def objective(ns):
        vals = field.evaluate(ns)
        return float(vals.max()) if minimize_max else float(vals.min())

    best = objective(nodes)
    history = [best]
    stall = 0
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        vals = np.asarray(field.evaluate(nodes))
        j = int(np.argmax(vals)) if minimize_max else int(np.argmin(vals))
        cand = nodes.copy()
        sign = -1.0 if minimize_max else 1.0
        for k, w in ((j - 1, 0.5), (j, 1.0), (j + 1, 0.5)):
            if 0 <= k <= M and k not in pinned:
                g = np.asarray(field.gradient(nodes[k]))
                gn = np.linalg.norm(g)
                if gn > 0:
                    cand[k] = cand[k] + sign * (s * w) * g / gn
        cand = _redistribute(cand, path.pinned)
        cand = inst.box.clip(cand)
        for idx in path.pinned:
            cand[idx] = nodes[idx]
        new = objective(cand)
        improved = new < best - 1e-15 if minimize_max else new > best + 1e-15
        if improved:
            rel = abs(new - best) / max(1.0, abs(best))
            nodes = cand
            best = new
            s = min(s * 1.2, s0)
            stall = stall + 1 if rel < tol else 0
        else:
            s *= 0.5
            stall += 1
        history.append(best)
        if stall >= STALL_ITERS:
            converged = True
            break
    return DiscretePath(nodes, path.pinned), best, history, iters, converged


def _optimize(inst: MountainPassInstance, minimize_max: bool, ensemble_size: int,
              M: int, max_iters: int, tol: float, seed: int) -> MinimaxResult:
    if ensemble_size < 1 or max_iters < 1 or tol <= 0:
        raise ValueError("ensemble_size and max_iters must be >= 1, tol > 0")
    span = float(np.linalg.norm(inst.pin_e - inst.pin_zero))
    child_seeds = np.random.SeedSequence(seed).generate_state(ensemble_size)
    outcomes = []
    for m in range(ensemble_size):
        if m == 0:
            p0 = make_path(inst, M, init="axis")
        else:
            p0 = make_path(inst, M, init="jitter", scale=0.1 * span,
                           seed=int(child_seeds[m]))
        outcomes.append(_descend_member(inst, p0, minimize_max, max_iters, tol))
    finals = [o[1] for o in outcomes]
    best_m = (int(np.argmin(finals)) if minimize_max else int(np.argmax(finals)))
    path, value, history, iters, conv = outcomes[best_m]
    vals = np.asarray(inst.field.evaluate(path.nodes))
    w_idx = int(np.argmax(vals)) if minimize_max else int(np.argmin(vals))
    return MinimaxResult(
        value=float(value), witness_path=path,
        witness_point=path.nodes[w_idx].copy(), witness_index=w_idx,
        iterations=iters, converged=conv, history=history,
        member_index=best_m)


def optimize_c2(inst: MountainPassInstance, ensemble_size: int = 8, M: int = 32,
                max_iters: int = 200, tol: float = 1e-6,
                seed: int = 0) -> MinimaxResult:
    """Estimate the inf-max level; history is nonincreasing."""
    return _optimize(inst, True, ensemble_size, M, max_iters, tol, seed)


def optimize_c1(inst: MountainPassInstance, ensemble_size: int = 8, M: int = 32,
                max_iters: int = 200, tol: float = 1e-6,
                seed: int = 0) -> MinimaxResult:
    """Estimate the sup-min level; history is nondecreasing."""
    return _optimize(inst, False, ensemble_size, M, max_iters, tol, seed)


def check_conclusions(inst: MountainPassInstance, c1_result: MinimaxResult,
                      c2_result: MinimaxResult, eps: float) -> dict:
    """Evaluate the four claimed inequalities at the two witnesses.

    Purely reports the measured values; never asserts the statement.
    """
    field = inst.field
    u_star = c1_result.witness_point
    u_tri = c2_result.witness_point
    c1, c2 = c1_result.value, c2_result.value

    def band(cv, u):
        v = float(field.evaluate(u))
        return {"holds": bool(cv - 2 * eps <= v <= cv + 2 * eps),
                "lower": cv - 2 * eps, "value": v, "upper": cv + 2 * eps}

    def grad(u):
        gn = float(field.grad_norm(u))
        return {"holds": bool(gn < 2 * eps), "grad_norm": gn, "bound": 2 * eps}

    return {"I": band(c1, u_star), "II": grad(u_star),
            "III": band(c2, u_tri), "IV": grad(u_tri)}


# ---------------------------------------------------------------------------
# proof tracer


@dataclass
class ProofTrace:
    eps: float
    eps1: float
    case: str                  # "C1LessC2" | "C1GreaterC2"
    d_choice: str
    steps: list                # {name, claimed, observed, verdict}

    def to_dict(self) -> dict:
        return {"eps": self.eps, "eps1": self.eps1, "case": self.case,
                "d_choice": self.d_choice, "steps": self.steps}


def _step(name, claimed, observed, verdict):
    return {"name": name, "claimed": claimed, "observed": observed,
            "verdict": verdict}


def _deformation_at(inst, level, eps_level):
    params = DeformationParams(c=level, eps=eps_level)
    d_spec = RegionSpec.level_set(level)
    part = BandPartition(inst.field, inst.box, params, d_spec)
    return DeformationField(part,
                            build_backend(part, resolution=PROOF_RESOLUTION))


def trace_proof_argument(inst: MountainPassInstance, c1: float, c2: float,
                         eps: float) -> ProofTrace:
    """Numerically re-run the contradiction machinery step by step.

    Every step records the claimed relation, the measured quantities, and a
    verdict in {holds, fails, vacuous}; nothing is asserted.
    """
    if c1 == c2:
        raise InvalidInstance("the argument requires c1 != c2")
    steps = []

    eps1 = min(abs(c2 - c1) / 4.0, eps)
    case = "C1LessC2" if c1 < c2 else "C1GreaterC2"
    steps.append(_step("eps1_formula", "eps1 = min(|c2 - c1|/4, eps)",
                       {"eps1": eps1}, "holds"))
    if case == "C1LessC2":
        sep_ok = c2 > c1 + 2.0 * eps1
        observed = {"c2": c2, "c1_plus_2eps1": c1 + 2.0 * eps1}
        claimed = "c2 > c1 + 2*eps1"
    else:
        sep_ok = c2 < c1 - 2.0 * eps1
        observed = {"c2": c2, "c1_minus_2eps1": c1 - 2.0 * eps1}
        claimed = "c2 < c1 - 2*eps1"
    steps.append(_step("level_separation", claimed, observed,
                       "holds" if sep_ok else "fails"))

    # pin preservation under the fixed-set choice D = {phi = c1}
    df1 = _deformation_at(inst, c1, eps1)
    img0 = eta(df1, PROOF_FLOW, inst.pin_zero)
    imge = eta(df1, PROOF_FLOW, inst.pin_e)
    exact0 = bool(np.all(img0 == inst.pin_zero))
    exacte = bool(np.all(imge == inst.pin_e))
    steps.append(_step("pin_zero_fixed", "eta(0) = 0 exactly",
                       {"max_move": float(np.max(np.abs(img0 - inst.pin_zero)))},
                       "holds" if exact0 else "fails"))
    steps.append(_step("pin_e_fixed", "eta(e) = e exactly",
                       {"max_move": float(np.max(np.abs(imge - inst.pin_e)))},
                       "holds" if exacte else "fails"))

    # the band-point search's grid and the axis path, shared by both routes
    grid = inst.box.grid(PROOF_RESOLUTION)
    grid_phi = np.asarray(inst.field.evaluate(grid))
    base = make_path(inst, PROOF_M, init="axis")
    free = next(i for i in range(PROOF_M + 1) if i not in base.pinned)

    def _band_route(level, low_side):
        """The eps2 (low_side) or eps3 route: find a near-optimal path in the
        stated band, deform at that level, record the claimed bound."""
        tag = "eps2" if low_side else "eps3"
        eps_k = eps1
        found = None
        for _ in range(PROOF_HALVINGS):
            if low_side:
                lo, hi = level - eps_k, level - 0.6 * eps_k
            else:
                lo, hi = level + 0.6 * eps_k, level + eps_k
            hit = np.flatnonzero((grid_phi >= lo) & (grid_phi <= hi))
            if hit.size:   # put the first grid point in the band on the path
                nodes = base.nodes.copy()
                nodes[free] = grid[hit[0]]
                cand = DiscretePath(nodes, base.pinned)
                ext = path_extrema(inst, cand)
                val = ext["min_value"] if low_side else ext["max_value"]
                if lo <= val <= hi:
                    found = (eps_k, cand, ext)
                    break
            eps_k *= 0.5
        if found is None:
            steps.append(_step(f"{tag}_band_path",
                               f"a path with its extremum in the {tag} band exists",
                               {"halvings_tried": PROOF_HALVINGS}, "vacuous"))
            steps.append(_step(f"{tag}_deformed_bound", "not evaluated",
                               None, "vacuous"))
            return
        eps_k, cand, ext = found
        steps.append(_step(f"{tag}_band_path",
                           f"extremum within [{lo}, {hi}]",
                           {tag: eps_k,
                            "extremum": ext["min_value"] if low_side
                            else ext["max_value"]},
                           "holds"))
        dfk = _deformation_at(inst, level, eps_k)
        try:
            beta = deform_path(dfk, PROOF_FLOW, cand)
        except PinMoved as exc:
            steps.append(_step(f"{tag}_deformed_bound",
                               "pins preserved during deformation",
                               {"error": str(exc)}, "fails"))
            return
        bext = path_extrema(inst, beta)
        if low_side:
            claimed_txt = f"min phi(beta) >= {level + eps_k}"
            observed_v = bext["min_value"]
            ok = observed_v >= level + eps_k
        else:
            claimed_txt = f"max phi(beta) <= {level - eps_k}"
            observed_v = bext["max_value"]
            ok = observed_v <= level - eps_k
        steps.append(_step(f"{tag}_deformed_bound", claimed_txt,
                           {"observed": observed_v},
                           "holds" if ok else "fails"))

    _band_route(c1, low_side=True)    # the push-up route at the lower level
    _band_route(c2, low_side=False)   # the push-down route at the upper level

    return ProofTrace(eps=eps, eps1=eps1, case=case,
                      d_choice="level_set at the deformation level",
                      steps=steps)


# ---------------------------------------------------------------------------
# Palais-Smale probe


@dataclass
class PSReport:
    level: float
    verdict: str                      # "Consistent" | "Vacuous" | "EscapingTrend"
    band_min_grad: float
    accumulation_points: list = dc_field(default_factory=list)
    sample_sequence: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {"level": self.level, "verdict": self.verdict,
                "band_min_grad": self.band_min_grad,
                "accumulation_points": self.accumulation_points,
                "sample_sequence": self.sample_sequence}


def _cluster(points: np.ndarray, radius: float):
    """Greedy single-linkage clustering; returns lists of row indices."""
    clusters = []
    for i in range(len(points)):
        placed = False
        for cl in clusters:
            if any(np.linalg.norm(points[i] - points[j]) <= radius for j in cl):
                cl.append(i)
                placed = True
                break
        if not placed:
            clusters.append([i])
    return clusters


def _fd_slope(field: ScalarField, u: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of ||grad phi|| at u."""
    slope = np.zeros(len(u))
    for ax in range(len(u)):
        e = np.zeros(len(u))
        e[ax] = h
        slope[ax] = (float(field.grad_norm(u + e))
                     - float(field.grad_norm(u - e))) / (2.0 * h)
    return slope


def _escape_probe(field: ScalarField, box: DomainBox, center: np.ndarray):
    """Probe whether a small-gradient point is a genuine critical point.

    Polishes the point by minimizing ||grad phi||^2 with Nelder-Mead inside
    the box (simplex search tracks the narrow valleys of the gradient norm
    where steepest descent zigzags).  Returns None when the polish stays in
    the cluster and drives the norm to essentially zero, i.e. a genuine
    critical point.  Returns a list of points with nonincreasing gradient
    norms marching away from the start when the polish drifts out of the
    cluster, or when it is pinned against the box boundary by an outward
    descent direction, both signatures of an escaping trend.
    """
    h = 1e-4 * float(np.max(box.hi - box.lo))

    def gn2(u):
        g = np.asarray(field.gradient(u))
        return float(g @ g)

    trace = [np.asarray(center, dtype=float).copy()]
    res = scipy_minimize(gn2, center, method="Nelder-Mead",
                         bounds=list(zip(box.lo, box.hi)),
                         callback=lambda xk: trace.append(np.array(xk)),
                         options={"maxiter": 400, "xatol": 1e-12,
                                  "fatol": 1e-24})
    drift = float(np.linalg.norm(res.x - center))
    if drift > PS_CLUSTER_RADIUS:
        # keep a subsequence with nonincreasing gradient norms and growing
        # distance from the start
        gns = np.asarray(field.grad_norm(np.asarray(trace)))
        seq = [trace[0]]
        for i in range(1, len(trace)):
            if gns[i] <= float(field.grad_norm(seq[-1])) and \
                    np.linalg.norm(trace[i] - trace[0]) >= \
                    np.linalg.norm(seq[-1] - trace[0]):
                seq.append(trace[i])
        return seq
    if float(field.grad_norm(res.x)) < 1e-8:
        return None
    # polish stalled above zero without drifting: escaping only if it is
    # held in place by an active box bound with an outward descent direction
    slope = _fd_slope(field, res.x, h)
    norm = float(np.linalg.norm(slope))
    if norm > 0:
        d = -slope / norm
        pinned = np.any(((res.x - box.lo < 2.0 * h) & (d < -1e-3))
                        | ((box.hi - res.x < 2.0 * h) & (d > 1e-3)))
        if pinned:
            return [np.array(res.x)]
    return None


def ps_probe(field: ScalarField, box: DomainBox, c: float,
             band_halfwidth: float, samples: int = 64, seed: int = 0) -> PSReport:
    """Search for near-critical points at the given level and classify.

    Multistart minimization of ||grad phi||^2 + (phi - c)^2 inside the box.
    Verdicts: Consistent (interior near-critical cluster found), Vacuous
    (no near-critical point in the band; the smallest in-band gradient norm
    is reported), EscapingTrend (near-critical samples pile up on the box
    boundary with shrinking gradients).  A probe, not a proof.
    """
    if band_halfwidth <= 0:
        raise ValueError("band_halfwidth must be > 0")
    rng = np.random.default_rng(seed)
    starts = box.sample(rng, samples)
    bounds = list(zip(box.lo, box.hi))

    def F(u):
        g = np.asarray(field.gradient(u))
        return float(g @ g + (float(field.evaluate(u)) - c) ** 2)

    finals = np.asarray([scipy_minimize(F, u0, method="L-BFGS-B", bounds=bounds).x
                         for u0 in starts])
    fin_gn = np.asarray(field.grad_norm(finals))
    fin_phi = np.asarray(field.evaluate(finals))

    # smallest in-band gradient norm, via a penalized search seeded from the
    # multistart finals and raw band samples
    W = 1e8

    def G(u):
        g = np.asarray(field.gradient(u))
        excess = max(0.0, abs(float(field.evaluate(u)) - c) - band_halfwidth)
        return float(g @ g) + W * excess ** 2

    pool = box.sample(rng, max(256, 4 * samples))
    pool_phi = np.asarray(field.evaluate(pool))
    in_band_pool = pool[np.abs(pool_phi - c) <= band_halfwidth]
    g_starts = list(finals[:8]) + list(in_band_pool[:8])
    band_candidates = []
    for u0 in g_starts:
        res = scipy_minimize(G, np.asarray(u0), method="L-BFGS-B", bounds=bounds)
        band_candidates.append(res.x)
    cand = np.concatenate([np.asarray(band_candidates).reshape(-1, box.dim),
                           in_band_pool.reshape(-1, box.dim)]) \
        if (band_candidates or len(in_band_pool)) else np.empty((0, box.dim))
    if len(cand):
        cphi = np.asarray(field.evaluate(cand))
        cin = np.abs(cphi - c) <= band_halfwidth + 1e-4
        band_min_grad = (float(np.min(field.grad_norm(cand[cin])))
                         if np.any(cin) else float("nan"))
    else:
        band_min_grad = float("nan")

    near = (fin_gn < PS_GRAD_TOL) & (np.abs(fin_phi - c) <= band_halfwidth + 1e-9)
    if not np.any(near):
        return PSReport(level=c, verdict="Vacuous", band_min_grad=band_min_grad)

    # classify each near-critical cluster: at a genuine critical point the
    # gradient norm is locally minimized, so its finite-difference slope
    # vanishes there; an escaping cluster has a descent direction for the
    # gradient norm along which doubled-step probes keep shrinking it
    near_pts = finals[near]
    clusters = _cluster(near_pts, PS_CLUSTER_RADIUS)
    stationary, escapes = [], []
    for cl in clusters:
        gns = np.asarray(field.grad_norm(near_pts[cl]))
        center = near_pts[cl[int(np.argmin(gns))]]
        seq = _escape_probe(field, box, center)
        if seq is None:
            stationary.append(center)
        else:
            escapes.append(seq)
    if stationary:
        return PSReport(level=c, verdict="Consistent",
                        band_min_grad=band_min_grad,
                        accumulation_points=[p.tolist() for p in stationary])
    seq = max(escapes, key=len)
    return PSReport(level=c, verdict="EscapingTrend",
                    band_min_grad=band_min_grad,
                    sample_sequence=[p.tolist() for p in seq])


# ---------------------------------------------------------------------------
# mountain-pass geometry check


@dataclass
class GeometryCheckResult:
    b: float
    r: float
    phi_at_zero: float
    phi_at_e: float
    verdict: bool

    def to_dict(self) -> dict:
        return {"b": self.b, "r": self.r, "phi_at_zero": self.phi_at_zero,
                "phi_at_e": self.phi_at_e, "verdict": self.verdict}


def check_mpt_geometry(inst: MountainPassInstance, sphere_samples: int = 4096,
                       seed: int = 0) -> GeometryCheckResult:
    """Check the ring inequality: min phi on the radius-r sphere exceeds
    phi(0), which is at least phi(e)."""
    if inst.radius is None:
        raise ValueError("instance has no radius set")
    r = inst.radius
    dim = inst.field.dim
    if dim == 1:
        pts = np.array([[-r], [r]])
    elif dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, sphere_samples, endpoint=False)
        pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(sphere_samples, dim))
        pts = r * v / np.linalg.norm(v, axis=-1, keepdims=True)
    b = float(np.min(inst.field.evaluate(pts)))
    phi0 = float(inst.field.evaluate(np.zeros(dim)))
    phie = float(inst.field.evaluate(inst.pin_e))
    return GeometryCheckResult(b=b, r=float(r), phi_at_zero=phi0,
                               phi_at_e=phie,
                               verdict=bool(b > phi0 >= phie))
