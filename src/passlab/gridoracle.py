"""Exact discrete ground truth: bottleneck / widest path values on grids,
brute-force enumeration for small grids, and critical-point scans.

Bottleneck and widest values are maximum-capacity route problems (Hu, 1961),
solved by a threshold sweep: nodes are ranked by value and the first rank
whose sublevel (superlevel) set joins the endpoints is found by bisection
with one ``ndimage.label`` pass per probe.  The bisection runs over a
bracket, from the later endpoint to the latest node of the route that walks
from p to q one axis at a time, a path in every connectivity; only the
bracket is sorted, and where that route is already optimal no pass is
made.  A breadth-first search over the active set gives the witness path,
the first time the witness is read.

Paths are node-valued: the bottleneck value of a path is the maximum node
value along it (the widest value is the minimum), matching the extremum of
the sampled functional along a discrete route.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge
from .fields import DomainBox, ScalarField, check_count, check_positive

ENUM_NODE_CAP = 25


def _offsets(dim: int, connectivity: int):
    """Neighbor offsets, the oracle's one adjacency table.  2-D: 4 = axis,
    8 = axis + diagonals.  1-D and 3-D: the 2 or 6 axis neighbors whatever
    the connectivity (3-D diagonals are left out for cost)."""
    if dim == 2 and connectivity == 8:
        return [d for d in itertools.product((-1, 0, 1), repeat=2) if any(d)]
    offs = []
    for ax in range(dim):
        for s in (-1, 1):
            d = [0] * dim
            d[ax] = s
            offs.append(tuple(d))
    return offs


@dataclass(frozen=True)
class GridGraph:
    values: np.ndarray        # node values, shape = resolution per axis
    connectivity: int = 4
    coords: tuple = None      # per-axis coordinate arrays, or None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim not in (1, 2, 3):
            raise ValueError("grid dimension must be 1, 2 or 3")
        for n in v.shape:
            check_count("resolution", n, 3)
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, "
                             f"got {self.connectivity!r}")
        if not np.all(np.isfinite(v)):
            raise ValueError("node values must be finite")

    @classmethod
    def from_field(cls, field: ScalarField, box: DomainBox, resolution: int,
                   connectivity: int = 8) -> "GridGraph":
        """The graph of field on the box's grid of ``resolution`` points per
        axis, an integer >= 3."""
        res = check_count("resolution", resolution, 3)
        axes = tuple(np.linspace(lo, hi, res) for lo, hi in zip(box.lo, box.hi))
        vals = np.asarray(field.evaluate(box.grid(res))).reshape((res,) * box.dim)
        return cls(vals, connectivity, axes)

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self):
        return self.values.shape

    @property
    def n_nodes(self) -> int:
        return self.values.size

    def flat(self, node) -> int:
        return int(np.ravel_multi_index(tuple(node), self.shape))

    def unflat(self, idx: int):
        return tuple(int(i) for i in np.unravel_index(idx, self.shape))

    def nearest_node(self, point) -> int:
        """The flat index of the node nearest to a finite point of shape
        (dim,), axis by axis; a ValueError for any other point.  Each
        coordinate is first clipped to its axis's ends, so that a far point
        snaps to the end node rather than to a tie of rounded distances."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,) or not np.all(np.isfinite(point)):
            raise ValueError(f"nearest_node needs a finite point of shape "
                             f"({self.dim},), got {point.tolist()!r}")
        idx = []
        for ax in range(self.dim):
            axis = (self.coords[ax] if self.coords is not None
                    else np.arange(self.shape[ax], dtype=float))
            p = np.clip(point[ax], axis.min(), axis.max())
            idx.append(int(np.argmin(np.abs(axis - p))))
        return self.flat(idx)

    def neighbors(self, idx: int):
        node = self.unflat(idx)
        out = []
        for off in _offsets(self.dim, self.connectivity):
            nb = tuple(n + o for n, o in zip(node, off))
            if all(0 <= nb[ax] < self.shape[ax] for ax in range(self.dim)):
                out.append(self.flat(nb))
        return out


class OracleResult:
    """An oracle's value, its method and its witness, the flat node indices
    of a route from p to q.  The witness may be given as a function that
    builds it; the function then runs once, when the witness is first read."""

    def __init__(self, value: float, witness, method: str):
        self.value = value
        self._witness = witness
        self.method = method

    @property
    def witness(self) -> list:
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness

    def to_dict(self) -> dict:
        return {"value": self.value, "witness": self.witness,
                "method": self.method}


def _structure(dim: int, connectivity: int) -> np.ndarray:
    """``ndimage.label`` structuring element: the centre and the neighbours
    of ``_offsets``."""
    out = np.zeros((3,) * dim, dtype=bool)
    out[(1,) * dim] = True
    out[tuple(np.transpose(_offsets(dim, connectivity)) + 1)] = True
    return out


def _node_index(g: GridGraph, idx, name: str) -> int:
    if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
        raise ValueError(f"{name} must be an integer node index, got {idx!r}")
    if not 0 <= idx < g.n_nodes:
        raise ValueError(f"{name}={idx} is outside the node range "
                         f"[0, {g.n_nodes})")
    return int(idx)


def _frontier_witness(g: GridGraph, active: np.ndarray, p: int, q: int):
    """Shortest hop path from p to q through active nodes (both active).

    Level-synchronous BFS.  Each frontier keeps discovery order and is
    expanded in ``_offsets`` order; a node reached from several frontier
    nodes takes the first (lowest frontier position, then lowest offset)
    as its parent, which is the choice a FIFO queue makes node by node.
    """
    shape = np.asarray(g.shape)
    offs = np.asarray(_offsets(g.dim, g.connectivity))
    prev = np.full(g.n_nodes, -1, dtype=np.intp)
    seen = ~active.ravel()
    seen[p] = True
    frontier = np.array([p])
    while not seen[q]:
        coords = np.stack(np.unravel_index(frontier, g.shape), axis=-1)
        nbr = coords[:, None, :] + offs[None, :, :]      # (frontier, offset, dim)
        inside = np.all((nbr >= 0) & (nbr < shape), axis=-1)
        parent = np.broadcast_to(frontier[:, None], inside.shape)[inside]
        cand = np.ravel_multi_index(tuple(nbr[inside].T), g.shape)
        fresh = ~seen[cand]
        cand, parent = cand[fresh], parent[fresh]
        _, first = np.unique(cand, return_index=True)
        first.sort()
        frontier = cand[first]
        prev[frontier] = parent[first]
        seen[frontier] = True
    path = [q]
    while path[-1] != p:
        path.append(int(prev[path[-1]]))
    return path[::-1]


def _threshold_sweep(g: GridGraph, p, q, descending: bool) -> OracleResult:
    """Activate nodes in ascending (descending) value order, ties by index,
    and stop at the first node whose activation joins p and q.

    That node lies in a bracket of the order: from the later endpoint to
    the latest node of the route that walks from p to q along axis 0, then
    axis 1, ..., a path in every connectivity.  Only the bracket is ranked:
    its node k has rank k, the nodes before it rank -1 and those after it
    never activate, so the nodes active at step k are ``rank <= k``.  The
    stopping step is found by bisection over the bracket, one
    ``ndimage.label`` pass per probe; a bracket of one node needs none.  The
    result keeps the nodes active at that step, and its witness, a
    breadth-first search through them, is built when it is first read.  The
    method strings ``union_find_ascending`` / ``union_find_descending`` name
    the direction.
    """
    from scipy import ndimage  # deferred: ~0.2 s to import; only the oracle needs it
    p, q = _node_index(g, p, "p"), _node_index(g, q, "q")
    if p == q:
        raise ValueError("need p != q")
    vals = g.values.ravel()
    key = -vals if descending else vals
    flat = np.arange(vals.size)

    def latest(nodes):
        return nodes[np.lexsort((nodes, key[nodes]))[-1]]

    def before(node):
        return (key < key[node]) | ((key == key[node]) & (flat < node))

    a, b = np.unravel_index(p, g.shape), np.unravel_index(q, g.shape)
    legs = []
    for ax in range(g.dim):   # the leg along ax: q's coordinates before ax, p's after
        start, stop = sorted((a[ax], b[ax]))
        legs.append(flat.reshape(g.shape)[b[:ax] + (slice(start, stop + 1),) + a[ax + 1:]])
    route = np.concatenate(legs)
    first, last = latest(np.array([p, q])), latest(route)
    always = before(first)
    bracket = np.flatnonzero(~always & (before(last) | (flat == last)))
    bracket = bracket[np.argsort(key[bracket], kind="stable")]
    rank = np.where(always, -1, vals.size)
    rank[bracket] = np.arange(bracket.size)
    rank = rank.reshape(g.shape)
    structure = _structure(g.dim, g.connectivity)
    lo, hi = 0, bracket.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        labels, _ = ndimage.label(rank <= mid, structure=structure)
        if labels.flat[p] == labels.flat[q]:
            hi = mid
        else:
            lo = mid + 1
    active = rank <= lo
    method = "union_find_descending" if descending else "union_find_ascending"
    return OracleResult(float(vals[bracket[lo]]),
                        lambda: _frontier_witness(g, active, p, q), method)


def bottleneck_value(g: GridGraph, p: int, q: int) -> OracleResult:
    """Minimal over grid paths p->q of the maximum node value."""
    return _threshold_sweep(g, p, q, descending=False)


def widest_value(g: GridGraph, p: int, q: int) -> OracleResult:
    """Maximal over grid paths p->q of the minimum node value."""
    return _threshold_sweep(g, p, q, descending=True)


def enumerate_small(g: GridGraph, p: int, q: int, mode: str) -> OracleResult:
    """Exhaustive DFS over simple paths; exact but capped at 25 nodes.

    The widest value is the bottleneck value of -values, negated back.
    """
    if g.n_nodes > ENUM_NODE_CAP:
        raise GridTooLarge(f"{g.n_nodes} nodes exceeds the cap {ENUM_NODE_CAP}")
    if mode not in ("bottleneck", "widest"):
        raise ValueError(f"mode must be 'bottleneck' or 'widest', got {mode!r}")
    p, q = _node_index(g, p, "p"), _node_index(g, q, "q")
    sign = -1.0 if mode == "widest" else 1.0
    vals = sign * g.values.ravel()
    if p == q:
        return OracleResult(sign * float(vals[p]), [p], f"enumerate_{mode}")
    adj = {n: g.neighbors(n) for n in range(g.n_nodes)}
    best, best_path = float("inf"), None
    visited = np.zeros(g.n_nodes, dtype=bool)

    def dfs(node, extreme, path):
        nonlocal best, best_path
        extreme = max(extreme, float(vals[node]))
        if extreme >= best:   # no completion can beat the incumbent from here
            return
        path.append(node)
        if node == q:
            best, best_path = extreme, list(path)
        else:
            visited[node] = True
            for nb in adj[node]:
                if not visited[nb]:
                    dfs(nb, extreme, path)
            visited[node] = False
        path.pop()

    dfs(p, float("-inf"), [])
    return OracleResult(sign * best, best_path, f"enumerate_{mode}")


def critical_scan(field: ScalarField, box: DomainBox, resolution: int,
                  grad_tol: float) -> list:
    """Grid points with small gradient norm, on the box's grid of
    ``resolution`` points per axis (an integer >= 3), clustered by grid
    adjacency.

    Returns a list of {"center", "min_grad", "phi"} dicts, one per cluster,
    sorted by center coordinates; the center is the cluster's argmin of the
    gradient norm.
    """
    from scipy import ndimage  # deferred: ~0.2 s to import; only the oracle needs it
    check_positive("grad_tol", grad_tol)
    res = check_count("resolution", resolution, 3)
    pts = box.grid(res)
    phi = np.asarray(field.evaluate(pts))
    gn = np.asarray(field.grad_norm(pts))
    mask = (gn < grad_tol).reshape((res,) * box.dim)
    structure = np.ones((3,) * box.dim, dtype=int)
    labels, nlab = ndimage.label(mask, structure=structure)
    labels = labels.ravel()
    clusters = []
    for lab in range(1, nlab + 1):
        where = np.flatnonzero(labels == lab)
        node = where[np.argmin(gn[where])]
        clusters.append({
            "center": pts[node].tolist(),
            "min_grad": float(gn[node]),
            "phi": float(phi[node]),
        })
    clusters.sort(key=lambda c: tuple(c["center"]))
    return clusters

