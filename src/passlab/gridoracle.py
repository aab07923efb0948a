"""Exact discrete ground truth: bottleneck / widest path values on grids,
brute-force enumeration for small grids, and critical-point scans.

Paths are node-valued: the bottleneck value of a path is the maximum node
value along it (the widest value is the minimum), matching the extremum of
the sampled functional along a discrete route.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import GridTooLarge
from .fields import DomainBox, ScalarField

ENUM_NODE_CAP = 25


def _offsets(dim: int, connectivity: int):
    """Neighbor offsets.  2-D: 4 = axis, 8 = axis + diagonals.
    1-D and 3-D use axis neighbors only (face diagonals are disabled in 3-D
    for cost; the connectivity argument is accepted for config uniformity)."""
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
    box: DomainBox = None
    coords: tuple = None      # per-axis coordinate arrays, or None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim not in (1, 2, 3):
            raise ValueError("grid dimension must be 1, 2 or 3")
        if min(v.shape) < 3:
            raise ValueError("resolution must be >= 3 per axis")
        if not np.all(np.isfinite(v)):
            raise ValueError("node values must be finite")

    @classmethod
    def from_field(cls, field: ScalarField, box: DomainBox, resolution,
                   connectivity: int = 8) -> "GridGraph":
        res = np.broadcast_to(resolution, (box.dim,))
        axes = tuple(np.linspace(box.lo[i], box.hi[i], res[i])
                     for i in range(box.dim))
        vals = np.asarray(field.evaluate(box.grid(res))).reshape(res)
        return cls(vals, connectivity, box, axes)

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

    def point(self, idx: int) -> np.ndarray:
        node = self.unflat(idx)
        if self.coords is None:
            return np.asarray(node, dtype=float)
        return np.array([self.coords[ax][i] for ax, i in enumerate(node)])

    def nearest_node(self, point) -> int:
        point = np.asarray(point, dtype=float)
        idx = []
        for ax in range(self.dim):
            axis = (self.coords[ax] if self.coords is not None
                    else np.arange(self.shape[ax], dtype=float))
            idx.append(int(np.argmin(np.abs(axis - point[ax]))))
        return self.flat(idx)

    def neighbors(self, idx: int):
        node = self.unflat(idx)
        out = []
        for off in _offsets(self.dim, self.connectivity):
            nb = tuple(n + o for n, o in zip(node, off))
            if all(0 <= nb[ax] < self.shape[ax] for ax in range(self.dim)):
                out.append(self.flat(nb))
        return out


@dataclass
class OracleResult:
    value: float
    witness: list           # flat node indices, p .. q
    method: str

    def to_dict(self) -> dict:
        return {"value": self.value, "witness": self.witness,
                "method": self.method}


class _DSU:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, x):
        root = x
        p = self.parent
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _bfs_witness(g: GridGraph, active: np.ndarray, p: int, q: int):
    """Shortest hop path from p to q through active nodes (both active)."""
    prev = {p: None}
    dq = deque([p])
    while dq:
        n = dq.popleft()
        if n == q:
            break
        for nb in g.neighbors(n):
            if active[nb] and nb not in prev:
                prev[nb] = n
                dq.append(nb)
    path = []
    n = q
    while n is not None:
        path.append(n)
        n = prev[n]
    return path[::-1]


def _threshold_sweep(g: GridGraph, p: int, q: int, descending: bool) -> OracleResult:
    vals = g.values.ravel()
    idx = np.arange(vals.size)
    key = -vals if descending else vals
    order = np.lexsort((idx, key))  # ties broken by node index
    dsu = _DSU(vals.size)
    active = np.zeros(vals.size, dtype=bool)
    threshold = None
    for node in order:
        active[node] = True
        for nb in g.neighbors(int(node)):
            if active[nb]:
                dsu.union(int(node), nb)
        if active[p] and active[q] and dsu.find(p) == dsu.find(q):
            threshold = float(vals[node])
            break
    witness = _bfs_witness(g, active, p, q)
    method = "union_find_descending" if descending else "union_find_ascending"
    return OracleResult(threshold, witness, method)


def bottleneck_value(g: GridGraph, p: int, q: int) -> OracleResult:
    """Minimal over grid paths p->q of the maximum node value."""
    if p == q:
        raise ValueError("need p != q")
    return _threshold_sweep(g, p, q, descending=False)


def widest_value(g: GridGraph, p: int, q: int) -> OracleResult:
    """Maximal over grid paths p->q of the minimum node value."""
    if p == q:
        raise ValueError("need p != q")
    return _threshold_sweep(g, p, q, descending=True)


def enumerate_small(g: GridGraph, p: int, q: int, mode: str) -> OracleResult:
    """Exhaustive DFS over simple paths; exact but capped at 25 nodes."""
    if g.n_nodes > ENUM_NODE_CAP:
        raise GridTooLarge(f"{g.n_nodes} nodes exceeds the cap {ENUM_NODE_CAP}")
    if mode not in ("bottleneck", "widest"):
        raise ValueError(f"mode must be 'bottleneck' or 'widest', got {mode!r}")
    vals = g.values.ravel()
    if p == q:
        return OracleResult(float(vals[p]), [p], f"enumerate_{mode}")
    adj = {n: g.neighbors(n) for n in range(g.n_nodes)}
    best = {"value": None, "path": None}
    visited = np.zeros(g.n_nodes, dtype=bool)
    maximize_min = mode == "widest"

    def dfs(node, extreme, path):
        v = float(vals[node])
        extreme = min(extreme, v) if maximize_min else max(extreme, v)
        if best["value"] is not None:
            # no completion can beat the incumbent from here
            if maximize_min and extreme <= best["value"]:
                return
            if not maximize_min and extreme >= best["value"]:
                return
        path.append(node)
        if node == q:
            better = (best["value"] is None
                      or (maximize_min and extreme > best["value"])
                      or (not maximize_min and extreme < best["value"]))
            if better:
                best["value"] = extreme
                best["path"] = list(path)
            path.pop()
            return
        visited[node] = True
        for nb in adj[node]:
            if not visited[nb]:
                dfs(nb, extreme, path)
        visited[node] = False
        path.pop()

    start_extreme = float("inf") if maximize_min else float("-inf")
    dfs(p, start_extreme, [])
    return OracleResult(best["value"], best["path"], f"enumerate_{mode}")


def critical_scan(field: ScalarField, box: DomainBox, resolution,
                  grad_tol: float) -> list:
    """Grid points with small gradient norm, clustered by grid adjacency.

    Returns a list of {"center", "min_grad", "phi"} dicts, one per cluster,
    sorted by center coordinates; the center is the cluster's argmin of the
    gradient norm.
    """
    if grad_tol <= 0:
        raise ValueError("grad_tol must be > 0")
    g = GridGraph.from_field(field, box, resolution)
    gn = field.grad_norm(box.grid(resolution)).reshape(g.shape)
    phi = g.values
    mask = gn < grad_tol
    structure = np.ones((3,) * box.dim, dtype=int)
    labels, nlab = ndimage.label(mask, structure=structure)
    clusters = []
    for lab in range(1, nlab + 1):
        where = np.argwhere(labels == lab)
        sub = [gn[tuple(n)] for n in where]
        k = int(np.argmin(sub))
        node = tuple(where[k])
        center = np.array([g.coords[ax][i] for ax, i in enumerate(node)])
        clusters.append({
            "center": center.tolist(),
            "min_grad": float(gn[node]),
            "phi": float(phi[node]),
        })
    clusters.sort(key=lambda c: tuple(c["center"]))
    return clusters

