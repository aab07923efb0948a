"""Minimax estimation over the pinned path space, and its diagnostics.

c1 is the sup over paths of the path minimum of phi; c2 the inf over paths
of the path maximum, and c1(phi) = -c2(-phi).  c2 is estimated by ensemble
elastic-path descent: each iteration moves the maximal node (and its two
free neighbors at half weight) down the gradient, redistributes free nodes
toward uniform spacing, and accepts the candidate only if the path maximum
fell, so the per-member history is monotone by construction.  The members
advance in lockstep, as one (members, M+1, dim) array per block of at most
BLOCK_NODES path nodes, so an iteration makes one gradient call, one
evaluation call and one resample pass (_Resampler, every member and anchor
segment at once) for the whole block; a member that stalls leaves the
block's live set, and each member's path is the one a member-by-member
descent would give, bit for bit.  c1 is the same descent on -phi, its value
and history negated back; each member carries its sign, so optimize_levels
runs the members of both levels, from the same start paths, in one
lockstep block.  The estimates are meant to be validated against the grid
oracles, not trusted.

The proof tracer deforms at each level with D = {phi = level} on the
default backend of bands.build_backend, first-order distances, so its RK4
stages make no point lookups.  It searches band widths on
bands.band_ranges alone and builds a BandPartition only at the width it
deforms with; its deformed-bound targets are that width's ranges.

The Palais-Smale probe's searches for small gradients move all their
starts in lockstep, as one (starts, dim) array (_band_search): the
multistart, the band search, and the escape search, which descends
|grad phi|^2 alone from every near-critical cluster's centre at once and
keeps each start's accepted iterates.  The escape search stops on a
scale-free rule, a relative decrease of F below PS_FTOL * F or F below
PS_ESCAPE_FLOOR, so that it follows a gradient that decays toward the box
edge.  The probe calls no scipy.  The tracer's settings and the probe's
are the module constants PROOF_* and PS_*.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .bands import BandPartition, RegionSpec, band_ranges, build_backend
from .errors import InvalidInstance, PinMoved, VectorFieldSingular
from .fields import (DomainBox, ScalarField, check_count, check_positive,
                     sum_squares)
from .flow import DeformationField, eta
from .paths import DiscretePath, MountainPassInstance, make_path, path_extrema, \
    deform_path

STALL_ITERS = 20            # consecutive low-improvement iterations => converged
BLOCK_NODES = 1 << 14       # path nodes of the ensemble members descending together

_NEIGHBOURS = np.array([-1, 0, 1])   # the maximal node and its two neighbours
_WEIGHTS = np.array([0.5, 1.0, 0.5])  # their step weights

PROOF_M = 32                # segments of the proof tracer's paths
PROOF_RESOLUTION = 201      # grid points per axis: backend and band search
PROOF_HALVINGS = 12         # band widths tried per route, halving from eps1

PS_GRAD_TOL = 1e-3          # ||grad|| below which a probe final is near-critical
PS_CLUSTER_RADIUS = 0.05    # linkage radius of near-critical clusters
PS_BAND_WEIGHT = 1e8        # penalty weight of the band search outside the band
PS_FTOL = 1e7 * np.finfo(float).eps   # a start stops at this relative decrease of F
PS_GTOL = 1e-5              # or at this projected gradient: L-BFGS-B's defaults
PS_FD_STEP = 6e-6           # relative central-difference step of the Hessian
PS_DAMPING = 1e-3           # initial Levenberg-Marquardt damping, on the scaled system
PS_MIN_DAMPING = 1e-10      # its floor, which keeps every damped system regular
PS_MAX_DAMPING = 1e16       # a start whose damping exceeds this stops
PS_MAX_ITERS = 200          # at most this many band-search iterations
PS_ESCAPE_FLOOR = 1e-24     # an escape search stops once |grad phi|^2 is below this


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


class _Resampler:
    """Arclength-uniform resampling of every anchor segment of a block of
    paths (rows, M+1, dim), all pinned at the same indices, in place and
    keeping each segment's end nodes: one pass for all rows and segments.

    Row by row and segment by segment this is ``np.interp`` at
    ``np.linspace(0, total, n)`` on the cumulative arclength, bit for bit,
    whatever the memory layout of the block: a collapsed segment (length
    < 1e-12) is left alone, one of NaN length gets its NaN targets, and one
    of infinite length its end node, as from ``np.interp``.  The layout of
    the segments depends only on the pins and M, so it is built once per
    descent, for blocks of at most ``rows`` rows.
    """

    def __init__(self, pinned: tuple, rows: int, M: int, dim: int):
        anchors = sorted(set(pinned) | {0, M})
        segments = [(a, b) for a, b in zip(anchors[:-1], anchors[1:]) if b - a >= 2]
        n = np.array([b - a + 1 for a, b in segments])
        off = np.cumsum(n) - n
        # a row of L positions: the segments' nodes side by side, so that a
        # shared anchor is at two positions
        self.L = L = int(n.sum())
        self.off = off
        self.spans = list(zip(off.tolist(), (off + n).tolist()))
        self.node = np.concatenate([np.arange(a, b + 1) for a, b in segments])
        self.nm1 = n - 1.0
        seg = np.repeat(np.arange(len(n)), n)
        self.seg, self.seg_nm1 = seg, self.nm1[seg]
        # the targets: the positions inside the segments, x = i h
        inner = np.ones(L, dtype=bool)
        inner[off] = inner[off + n - 1] = False
        pos = np.flatnonzero(inner)
        self.tseg = seg[pos]
        self.i = (pos - off[self.tseg]).astype(float)
        # flat positions in a block: each position's segment start, and
        # each target's own position and its segment's last position
        first = np.arange(rows)[:, None] * L
        self.start = first + off[seg]
        self.tpos = first + pos
        self.end = first + (off + n - 1)[self.tseg]
        # the targets' flat indices in a C-ordered block, coordinate-major
        self.put = (np.arange(rows)[:, None] * (M + 1) + self.node[pos]) * dim \
            + np.arange(dim)[:, None, None]

    def __call__(self, nodes: np.ndarray):
        """Resample the block nodes (rows, M+1, dim) in place."""
        rows, _, dim = nodes.shape
        N = rows * self.L
        # the block's nodes by position, coordinate-major; take returns a new
        # C-ordered array whatever the layout of nodes, which matters: over a
        # node-major gather (nodes[:, idx]) np.add.reduce sums a row's steps
        # sequentially, not pairwise, and moves its total by an ulp
        g = nodes.transpose(2, 0, 1).take(self.node, axis=2)      # (dim, rows, L)
        d = g[:, :, 1:] - g[:, :, :-1]
        steps = np.empty((rows, self.L))
        np.sqrt(sum_squares(np.moveaxis(d, 0, -1)), out=steps[:, 1:])
        steps[:, self.off] = 0.0          # a segment's cumulative length starts at 0
        cum = np.empty_like(steps)
        for a, b in self.spans:
            np.add.accumulate(steps[:, a:b], axis=1, out=cum[:, a:b])
        # reduceat starts each sum at its first element, a segment's 0.0, and
        # adds the pairwise sum of the rest: the bits of np.add.reduce, which
        # starts at 0.0, on the segment's steps
        total = np.add.reduceat(steps, self.off, axis=1)
        h = total / self.nm1
        cum_flat = cum.ravel()
        # NaN, collapsed and infinite segments give garbage, and warnings,
        # until the last lines overwrite their targets
        with np.errstate(all="ignore"):
            # for a target x = i h, j is the last position p of its segment
            # with cum[p] <= x: the segment's start, less one, plus the count
            # of its positions with k_p <= i, k_p the first i with
            # i h >= cum[p].  ceil(cum / h) is k_p or one off it as i h
            # rounds, and the two checks against i h make it exact
            hp = h.take(self.seg, axis=1)
            k = cum / hp
            np.ceil(k, out=k)
            k += k * hp < cum
            k -= (k - 1.0) * hp >= cum
            # each position counts in its own segment, also where k is NaN
            np.fmax(np.fmin(k, self.seg_nm1, out=k), 0.0, out=k)
            slot = k.astype(np.intp)
            slot += self.start[:rows]
            j = np.bincount(slot.ravel(), minlength=N).cumsum().take(self.tpos[:rows])
            j -= 1
            end = self.end[:rows]
            left = np.minimum(j, end - 1)
            x = self.i * h.take(self.tseg, axis=1)
            xl = cum_flat.take(left)
            f = g.reshape(dim, N)
            fl = f.take(left, axis=1)
            out = f.take(left + 1, axis=1)
            out -= fl
            out /= cum_flat.take(left + 1) - xl
            out *= x - xl
            out += fl
            # a target on a node takes that node: j (left, on a finite
            # segment), or its own node on a collapsed segment, or the end
            # node on an infinite one
            collapsed = (total < 1e-12).take(self.tseg, axis=1)
            infinite = x == np.inf
            node = np.where(collapsed, self.tpos[:rows], np.where(infinite, end, left))
            out = np.where((x == xl) | collapsed | infinite, f.take(node, axis=1), out)
            np.copyto(out, x, where=np.isnan(x))   # a NaN length: the NaN targets
        np.put(nodes, self.put[:, :rows], out)


def _descend(inst: MountainPassInstance, nodes: np.ndarray, pinned: tuple,
             sign: np.ndarray, max_iters: int, tol: float, s0: float):
    """Lockstep local search for the inf-max of sign * phi on a block of
    members, nodes (members, M+1, dim), all pinned at the same indices,
    from step length s0; sign holds each member's +-1.0.

    Every live member takes one step per iteration: one gradient call, one
    resample pass and one evaluation call for all of them.  A member that
    stalls leaves the live set.  Returns (nodes, their values of sign * phi, best,
    histories, iterations, converged), one row or list per member.
    """
    field = inst.field
    size, n_nodes, dim = nodes.shape
    M = n_nodes - 1
    pins = np.asarray(pinned)
    resample = _Resampler(pinned, size, M, dim)
    free = np.ones(n_nodes, dtype=bool)
    free[pins] = False

    vals = sign[:, None] * np.asarray(field.evaluate(nodes))
    best = vals.max(axis=1)
    history = [[b] for b in best.tolist()]
    s = np.full(size, s0)
    stall = np.zeros(size, dtype=np.intp)
    iters = np.full(size, max_iters)
    converged = np.zeros(size, dtype=bool)
    live = np.arange(size)
    for it in range(1, max_iters + 1):
        # the maximal node and its free neighbours (at half weight) step
        # down the signed gradient
        cand = nodes[live]
        k = np.argmax(vals[live], axis=1)[:, None] + _NEIGHBOURS
        move = (k >= 0) & (k <= M)
        move[move] = free[k[move]]
        row, col = np.nonzero(move)
        k = k[row, col]
        g = sign[live[row], None] * np.asarray(field.gradient(cand[row, k]))
        with np.errstate(over="ignore", invalid="ignore"):   # an overflowing field
            gn = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])  # np.linalg.norm's dot
        step = gn > 0
        row, col, k, g, gn = row[step], col[step], k[step], g[step], gn[step]
        cand[row, k] = cand[row, k] - (s[live[row]] * _WEIGHTS[col])[:, None] * g \
            / gn[:, None]
        resample(cand)
        cand = inst.box.clip(cand)
        cand[:, pins] = nodes[live[:, None], pins]
        cand_vals = sign[live, None] * np.asarray(field.evaluate(cand))
        new = cand_vals.max(axis=1)

        old = best[live]
        accept = new < old - 1e-15
        with np.errstate(invalid="ignore"):   # inf - inf on a rejected member
            rel = np.abs(new - old) / np.maximum(1.0, np.abs(old))
        stall[live] = np.where(accept & ~(rel < tol), 0, stall[live] + 1)
        s[live] = np.where(accept, np.minimum(s[live] * 1.2, s0), s[live] * 0.5)
        kept = live[accept]
        nodes[kept] = cand[accept]
        vals[kept] = cand_vals[accept]
        best[kept] = new[accept]
        for m, b in zip(live.tolist(), best[live].tolist()):
            history[m].append(b)
        done = stall[live] >= STALL_ITERS
        if done.any():
            iters[live[done]] = it
            converged[live[done]] = True
            live = live[~done]
            if not live.size:
                break
    return nodes, vals, best, history, iters, converged


def _optimize(inst: MountainPassInstance, signs: tuple, ensemble_size: int,
              M: int, max_iters: int, tol: float, seed: int) -> list:
    """The ensemble descent for the inf-max level of sign * phi, one
    MinimaxResult per sign in signs, reported for phi: value and history
    are multiplied back by sign.

    Each start path is built once and descends once per sign; the members
    of every sign descend in lockstep, in blocks of at most BLOCK_NODES
    path nodes.  Per sign only the best member so far is kept, the first
    on ties.
    """
    check_count("ensemble_size", ensemble_size)
    check_count("max_iters", max_iters)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    span = float(np.linalg.norm(inst.pin_e - inst.pin_zero))
    s0 = 0.2 * max(span, 1e-6)
    child_seeds = np.random.SeedSequence(seed).generate_state(ensemble_size)
    n_signs = len(signs)
    block = max(1, BLOCK_NODES // (n_signs * (M + 1)))   # start paths per block
    # per sign, the best member so far: (best, index, nodes, vals, history, iters, conv)
    kept = [None] * n_signs
    for first in range(0, ensemble_size, block):
        paths = [make_path(inst, M, init="axis") if m == 0 else
                 make_path(inst, M, init="jitter", scale=0.1 * span,
                           seed=int(child_seeds[m]))
                 for m in range(first, min(first + block, ensemble_size))]
        pinned = paths[0].pinned
        # row r descends start path r // n_signs for sign r % n_signs
        nodes, vals, best, history, iters, conv = _descend(
            inst, np.repeat(np.stack([p.nodes for p in paths]), n_signs, axis=0),
            pinned, np.tile(np.asarray(signs, dtype=float), len(paths)), max_iters,
            tol, s0)
        for i in range(n_signs):
            r = i + n_signs * int(np.argmin(best[i::n_signs]))
            # np.argmin's choice over the whole ensemble: first NaN, else first minimum
            if kept[i] is None or np.argmin([kept[i][0], best[r]]) == 1:
                kept[i] = (best[r], first + r // n_signs, nodes[r], vals[r],
                           history[r], iters[r], conv[r])
    results = []
    for sign, (best, member, nodes, vals, history, iters, conv) in zip(signs, kept):
        w_idx = int(np.argmax(vals))
        results.append(MinimaxResult(
            value=sign * float(best), witness_path=DiscretePath(nodes.copy(), pinned),
            witness_point=nodes[w_idx].copy(), witness_index=w_idx,
            iterations=int(iters), converged=bool(conv),
            history=[sign * h for h in history], member_index=member))
    return results


def optimize_levels(inst: MountainPassInstance, ensemble_size: int = 8,
                    M: int = 32, max_iters: int = 200, tol: float = 1e-6,
                    seed: int = 0) -> tuple:
    """Estimate (c1, c2) in one lockstep descent: the results of
    optimize_c1 and optimize_c2 with the same arguments, field for field."""
    return tuple(_optimize(inst, (-1.0, 1.0), ensemble_size, M, max_iters, tol, seed))


def optimize_c2(inst: MountainPassInstance, ensemble_size: int = 8, M: int = 32,
                max_iters: int = 200, tol: float = 1e-6,
                seed: int = 0) -> MinimaxResult:
    """Estimate the inf-max level; history is nonincreasing."""
    return _optimize(inst, (1.0,), ensemble_size, M, max_iters, tol, seed)[0]


def optimize_c1(inst: MountainPassInstance, ensemble_size: int = 8, M: int = 32,
                max_iters: int = 200, tol: float = 1e-6,
                seed: int = 0) -> MinimaxResult:
    """Estimate the sup-min level, as the c2 descent on -phi; history is
    nondecreasing."""
    return _optimize(inst, (-1.0,), ensemble_size, M, max_iters, tol, seed)[0]


@np.errstate(over="ignore", invalid="ignore")   # an overflowing field
def check_conclusions(inst: MountainPassInstance, c1_result: MinimaxResult,
                      c2_result: MinimaxResult, eps: float) -> dict:
    """Evaluate the four claimed inequalities at the two witnesses.

    Purely reports the measured values; never asserts the statement.
    """
    check_positive("eps", eps)
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
        return asdict(self)


def _step(name, claimed, observed, verdict):
    return {"name": name, "claimed": claimed, "observed": observed,
            "verdict": verdict}


def _deformation_at(inst, level, eps_level):
    """The tracer's deformation at level, with D = {phi = level}."""
    part = BandPartition(inst.field, inst.box, level, eps_level,
                         RegionSpec.level_set(level))
    return DeformationField(build_backend(part, resolution=PROOF_RESOLUTION))


def trace_proof_argument(inst: MountainPassInstance, c1: float, c2: float,
                         eps: float) -> ProofTrace:
    """Numerically re-run the contradiction machinery step by step.

    Every step records the claimed relation, the measured quantities, and a
    verdict in {holds, fails, vacuous}; nothing is asserted.
    """
    if c1 == c2:
        raise InvalidInstance("the argument requires c1 != c2")
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise ValueError(f"c1 and c2 must be finite, got {c1!r} and {c2!r}")
    check_positive("eps", eps)
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
    for name, claimed, pin in (("pin_zero_fixed", "eta(0) = 0 exactly", inst.pin_zero),
                               ("pin_e_fixed", "eta(e) = e exactly", inst.pin_e)):
        try:
            img = eta(df1, pin)
        except VectorFieldSingular as exc:   # the flow meets a critical point
            steps.append(_step(name, claimed, {"error": str(exc)}, "fails"))
            continue
        steps.append(_step(name, claimed,
                           {"max_move": float(np.max(np.abs(img - pin)))},
                           "holds" if np.all(img == pin) else "fails"))

    # the band-point search's grid and the axis path, shared by both routes
    grid = inst.box.grid(PROOF_RESOLUTION)
    grid_phi = np.asarray(inst.field.evaluate(grid))
    base = make_path(inst, PROOF_M, init="axis")
    free = next(i for i in range(PROOF_M + 1) if i not in base.pinned)

    def _band_route(level, low_side):
        """The eps2 (low_side) or eps3 route: find a near-optimal path with
        its extremum in the B (C) band at this level, deform at that width
        and record the claimed bound: the minimum pushed up to C's top,
        c + eps (the maximum down to B's bottom, c - eps)."""
        tag = "eps2" if low_side else "eps3"
        key = "min_value" if low_side else "max_value"
        eps_k = eps1
        for _ in range(PROOF_HALVINGS):
            check_positive("eps", eps_k)   # BandPartition's rule, at every width
            _, b_range, c_range = band_ranges(level, eps_k)
            lo, hi = b_range if low_side else c_range
            hit = np.flatnonzero((grid_phi >= lo) & (grid_phi <= hi))
            if hit.size:   # put the first grid point in the band on the path
                nodes = base.nodes.copy()
                nodes[free] = grid[hit[0]]
                cand = DiscretePath(nodes, base.pinned)
                ext = path_extrema(inst, cand)
                if lo <= ext[key] <= hi:
                    break
            eps_k *= 0.5
        else:
            steps.append(_step(f"{tag}_band_path",
                               f"a path with its extremum in the {tag} band exists",
                               {"halvings_tried": PROOF_HALVINGS}, "vacuous"))
            steps.append(_step(f"{tag}_deformed_bound", "not evaluated",
                               None, "vacuous"))
            return
        steps.append(_step(f"{tag}_band_path",
                           f"extremum within [{lo}, {hi}]",
                           {tag: eps_k, "extremum": ext[key]}, "holds"))
        try:
            beta = deform_path(_deformation_at(inst, level, eps_k), cand)
        except PinMoved as exc:
            steps.append(_step(f"{tag}_deformed_bound",
                               "pins preserved during deformation",
                               {"error": str(exc)}, "fails"))
            return
        except VectorFieldSingular as exc:   # the flow meets a critical point
            steps.append(_step(f"{tag}_deformed_bound",
                               "no critical point where the cutoff is nonzero",
                               {"error": str(exc)}, "fails"))
            return
        observed_v = path_extrema(inst, beta)[key]
        if low_side:
            target = c_range[1]
            claimed_txt = f"min phi(beta) >= {target}"
            ok = observed_v >= target
        else:
            target = b_range[0]
            claimed_txt = f"max phi(beta) <= {target}"
            ok = observed_v <= target
        steps.append(_step(f"{tag}_deformed_bound", claimed_txt,
                           {"observed": observed_v},
                           "holds" if ok else "fails"))

    _band_route(c1, low_side=True)    # the push-up route at c1
    _band_route(c2, low_side=False)   # the push-down route at c2

    return ProofTrace(eps=eps, eps1=eps1, case=case,
                      d_choice="level_set at the deformation level",
                      steps=steps)


# ---------------------------------------------------------------------------
# Palais-Smale probe


@dataclass
class PSReport:
    level: float
    verdict: str        # "Consistent" | "Vacuous" | "EscapingTrend" | "Unsearched"
    band_min_grad: float
    finite_starts: int  # multistart starts whose objective is finite
    accumulation_points: list = dc_field(default_factory=list)
    sample_sequence: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``.  No library code calls it; it is kept as
    the lookup site that the benchmark's tracer wraps to count optimiser
    calls, which now read 0."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def _cluster(points: np.ndarray, radius: float):
    """Greedy single-linkage clustering; returns lists of row indices.  Each
    point joins the first-made cluster, the least label, among the earlier
    points within ``radius`` of it, or else starts a new cluster."""
    labels = np.empty(len(points), dtype=np.intp)
    n = 0
    for i, p in enumerate(points):
        near = labels[:i][np.linalg.norm(points[:i] - p, axis=1) <= radius]
        labels[i] = near.min() if near.size else n
        n += near.size == 0
    return [np.flatnonzero(labels == k).tolist() for k in range(n)]


def _fd_slope(field: ScalarField, u: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of ||grad phi|| at u."""
    step = h * np.eye(len(u))
    gn = np.asarray(field.grad_norm(np.concatenate([u + step, u - step])))
    return (gn[:len(u)] - gn[len(u):]) / (2.0 * h)


def _escape_verdict(field: ScalarField, box: DomainBox, trail: list):
    """Read one escape search, its accepted iterates from the centre to the
    final.

    Returns None when the search stays in the cluster and drives the norm
    to essentially zero, i.e. a genuine critical point.  Returns a list of
    points with nonincreasing gradient norms marching away from the centre
    when the search drifts out of the cluster, or when it is pinned against
    the box boundary by an outward descent direction, both signatures of an
    escaping trend.
    """
    center, x = trail[0], trail[-1]
    if float(np.linalg.norm(x - center)) > PS_CLUSTER_RADIUS:
        # keep a subsequence with nonincreasing gradient norms and growing
        # distance from the start
        gns = np.asarray(field.grad_norm(np.asarray(trail)))
        kept = [0]
        for i in range(1, len(trail)):
            if gns[i] <= gns[kept[-1]] and \
                    np.linalg.norm(trail[i] - center) >= \
                    np.linalg.norm(trail[kept[-1]] - center):
                kept.append(i)
        return [trail[i] for i in kept]
    if float(field.grad_norm(x)) < 1e-8:
        return None
    # stalled above zero without drifting: escaping only if it is held in
    # place by an active box bound with an outward descent direction
    h = 1e-4 * float(np.max(box.hi - box.lo))
    slope = _fd_slope(field, x, h)
    norm = float(np.linalg.norm(slope))
    if norm > 0:
        d = -slope / norm
        pinned = np.any(((x - box.lo < 2.0 * h) & (d < -1e-3))
                        | ((box.hi - x < 2.0 * h) & (d > 1e-3)))
        if pinned:
            return [x]
    return None


@np.errstate(over="ignore", invalid="ignore")   # an overflowing field
def _band_search(field: ScalarField, box: DomainBox, starts: np.ndarray,
                 c: float, halfwidth: float, weight: float,
                 trails: list | None = None) -> np.ndarray:
    """Minimise F(u) = |grad phi(u)|^2 + weight * max(0, |phi(u) - c| - halfwidth)^2
    over the box from every row of starts (n, dim) at once; returns the
    finals, shape (n, dim).  With trails, a list of n lists, each accepted
    iterate of start i is appended to trails[i].

    Lockstep Levenberg-Marquardt on the residual (grad phi, sqrt(weight) *
    signed excess): each iteration makes one batched gradient call, at every
    live trial point and its central-difference stencil, which gives the
    Hessian, and one batched evaluation.  Steps are clipped to the box.  Each
    start keeps its own damping, moves only when F strictly falls, and
    leaves the live set when it stops by L-BFGS-B's default rule (PS_FTOL,
    PS_GTOL), when a clipped step no longer moves it or its damping passes
    PS_MAX_DAMPING, or at once when F or its Jacobian is not finite.

    At weight 0 it is the escape search: the residual is grad phi alone,
    phi is not evaluated, and the stop rule is scale-free, a relative
    decrease of at most PS_FTOL * F or F below PS_ESCAPE_FLOOR, with no
    projected-gradient test.  L-BFGS-B's rule would stop a start at once
    where F is far below 1, as on a gradient that decays toward the box
    edge.
    """
    dim = box.dim
    escape = weight == 0
    root_w = np.sqrt(weight)
    shifts = np.concatenate([np.zeros((1, dim)), np.eye(dim), -np.eye(dim)])

    def linearise(x):
        """F, the residual and its Jacobian at each row of x."""
        h = PS_FD_STEP * np.maximum(1.0, np.abs(x))
        g = np.asarray(field.gradient(x[:, None, :] + shifts * h[:, None, :]))
        grad = g[:, 0]
        # jac[i, j, k] = d res_j / d u_k; the Hessian rows by central differences
        hess = np.swapaxes(g[:, 1:dim + 1] - g[:, dim + 1:], 1, 2) / (2.0 * h[:, None, :])
        if escape:
            return np.sum(grad * grad, axis=-1), grad, hess
        dev = np.asarray(field.evaluate(x)) - c
        excess = np.maximum(0.0, np.abs(dev) - halfwidth)
        f = np.sum(grad * grad, axis=-1) + weight * excess * excess
        res = np.concatenate([grad, (root_w * np.sign(dev) * excess)[:, None]], axis=1)
        jac = np.concatenate([hess, (root_w * (excess > 0))[:, None, None]
                              * grad[:, None, :]], axis=1)
        return f, res, jac

    def stationary(x, f, res, jac):
        """L-BFGS-B's projected-gradient test on F's gradient 2 J^T r, or
        the escape search's floor on F."""
        if escape:
            return f <= PS_ESCAPE_FLOOR
        dF = 2.0 * np.einsum("nij,ni->nj", jac, res)
        return np.max(np.abs(box.clip(x - dF) - x), axis=-1) <= PS_GTOL

    u = box.clip(starts)
    f, res, jac = linearise(u)
    go = np.isfinite(f) & np.isfinite(jac).all(axis=(1, 2)) & ~stationary(u, f, res, jac)
    live = np.flatnonzero(go)              # the rows of u still moving
    x, f, res, jac = u[live], f[go], res[go], jac[go]
    damping = np.full(live.size, PS_DAMPING)
    for _ in range(PS_MAX_ITERS):
        if not live.size:
            break
        # the damped Gauss-Newton step, on the system scaled by J's largest
        # entry so that J^T J cannot overflow
        s = np.max(np.abs(jac), axis=(1, 2))
        s[s == 0] = 1.0
        J, r = jac / s[:, None, None], res / s[:, None]
        A = np.matmul(np.swapaxes(J, 1, 2), J) + damping[:, None, None] * np.eye(dim)
        step = np.linalg.solve(A, -np.einsum("nij,ni->nj", J, r)[..., None])[..., 0]
        trial = box.clip(x + step)
        ft, rt, jt = linearise(trial)
        ok = (ft < f) & np.isfinite(jt).all(axis=(1, 2))
        stop = ~np.any(trial != x, axis=-1) | \
            (ok & (f - ft <= PS_FTOL * (f if escape else np.maximum(f, 1.0))))
        x = np.where(ok[:, None], trial, x)
        f = np.where(ok, ft, f)
        res = np.where(ok[:, None], rt, res)
        jac = np.where(ok[:, None, None], jt, jac)
        stop |= ok & stationary(x, f, res, jac)
        if trails is not None:
            for i, p in zip(live[ok].tolist(), x[ok]):
                trails[i].append(p)
        damping = np.where(ok, np.maximum(damping / 3.0, PS_MIN_DAMPING), damping * 4.0)
        stop |= damping > PS_MAX_DAMPING
        u[live[stop]] = x[stop]
        go = ~stop
        live, x, f, res, jac, damping = live[go], x[go], f[go], res[go], jac[go], damping[go]
    u[live] = x
    return u


@np.errstate(over="ignore", invalid="ignore")   # an overflowing field
def ps_probe(field: ScalarField, box: DomainBox, c: float,
             band_halfwidth: float, samples: int = 64, seed: int = 0) -> PSReport:
    """Search for near-critical points at the given level and classify.

    Multistart minimization of ||grad phi||^2 + (phi - c)^2 inside the box,
    then of ||grad phi||^2 plus a penalty outside the band, and the escape
    search from the near-critical clusters, all by _band_search, whose
    starts all move in one array.
    Verdicts: Consistent (interior near-critical cluster found), Vacuous
    (no near-critical point in the band; the smallest in-band gradient norm
    is reported), EscapingTrend (near-critical samples pile up on the box
    boundary with shrinking gradients), Unsearched (no multistart start has
    a finite objective, so nothing was searched).  A probe, not a proof.
    """
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    check_positive("band_halfwidth", band_halfwidth)
    check_count("samples", samples)
    rng = np.random.default_rng(seed)
    starts = box.sample(rng, samples)
    finals = _band_search(field, box, starts, c, 0.0, 1.0)
    fin_g = np.asarray(field.gradient(finals))
    fin_gn = np.linalg.norm(fin_g, axis=-1)
    fin_phi = np.asarray(field.evaluate(finals))
    # a start whose objective is not finite never moves, so its final is
    # its start
    finite_starts = int(np.count_nonzero(np.isfinite(
        np.sum(fin_g * fin_g, axis=-1) + (fin_phi - c) ** 2)))

    # smallest in-band gradient norm, via a penalized search seeded from the
    # multistart finals and raw band samples
    pool = box.sample(rng, max(256, 4 * samples))
    pool_phi = np.asarray(field.evaluate(pool))
    in_band_pool = pool[np.abs(pool_phi - c) <= band_halfwidth]
    g_starts = np.concatenate([finals[:8], in_band_pool[:8]])
    cand = np.concatenate([_band_search(field, box, g_starts, c, band_halfwidth,
                                        PS_BAND_WEIGHT), in_band_pool])
    cin = np.abs(np.asarray(field.evaluate(cand)) - c) <= band_halfwidth + 1e-4
    band_min_grad = (float(np.min(field.grad_norm(cand[cin])))
                     if np.any(cin) else float("nan"))

    if not finite_starts:
        return PSReport(level=c, verdict="Unsearched", band_min_grad=band_min_grad,
                        finite_starts=0)
    near = (fin_gn < PS_GRAD_TOL) & (np.abs(fin_phi - c) <= band_halfwidth + 1e-9)
    if not np.any(near):
        return PSReport(level=c, verdict="Vacuous", band_min_grad=band_min_grad,
                        finite_starts=finite_starts)

    # classify each near-critical cluster by the escape search from its
    # smallest-gradient point, which descends ||grad phi||^2 from every
    # centre at once: at a genuine critical point the gradient norm is
    # locally minimized and the search stays put; an escaping cluster has a
    # descent direction for the gradient norm that leads out of it
    near_pts, near_gn = finals[near], fin_gn[near]
    centers = np.array([near_pts[cl[int(np.argmin(near_gn[cl]))]]
                        for cl in _cluster(near_pts, PS_CLUSTER_RADIUS)])
    trails = [[p] for p in centers]
    _band_search(field, box, centers, 0.0, 0.0, 0.0, trails)
    stationary, escapes = [], []
    for center, trail in zip(centers, trails):
        seq = _escape_verdict(field, box, trail)
        if seq is None:
            stationary.append(center)
        else:
            escapes.append(seq)
    if stationary:
        return PSReport(level=c, verdict="Consistent",
                        band_min_grad=band_min_grad, finite_starts=finite_starts,
                        accumulation_points=[p.tolist() for p in stationary])
    seq = max(escapes, key=len)
    return PSReport(level=c, verdict="EscapingTrend",
                    band_min_grad=band_min_grad, finite_starts=finite_starts,
                    sample_sequence=[p.tolist() for p in seq])


# ---------------------------------------------------------------------------
# mountain-pass geometry check


@dataclass
class GeometryCheckResult:
    b: float
    r: float
    phi_at_zero: float         # phi(pin_zero)
    phi_at_e: float
    sphere_in_box: bool
    e_outside_ring: bool
    verdict: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_mpt_geometry(inst: MountainPassInstance, r: float,
                       sphere_samples: int = 4096,
                       seed: int = 0) -> GeometryCheckResult:
    """Check the ring inequality: min phi on the sphere of radius r (finite
    and > 0) around pin_zero exceeds phi(pin_zero), which is at least
    phi(e).  The verdict also needs the sphere inside the box and e outside
    it, in either pin mode."""
    check_positive("r", r)
    check_count("sphere_samples", sphere_samples)
    z = inst.pin_zero
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
    b = float(np.min(inst.field.evaluate(z + pts)))
    phi0 = float(inst.field.evaluate(z))
    phie = float(inst.field.evaluate(inst.pin_e))
    in_box = bool(np.all(inst.box.lo <= z - r) and np.all(z + r <= inst.box.hi))
    outside = bool(np.linalg.norm(inst.pin_e - z) > r)
    return GeometryCheckResult(b=b, r=float(r), phi_at_zero=phi0,
                               phi_at_e=phie, sphere_in_box=in_box,
                               e_outside_ring=outside,
                               verdict=bool(b > phi0 >= phie and in_box and outside))
