"""Level-band regions around a center level and the distance-quotient cutoff.

The partition is driven by a center level c and half-width eps:

    A-range = [c - 2 eps, c + 2 eps]   (deformation band, minus the fixed set D)
    B-range = [c - eps,   c - 0.6 eps] (pushed up)
    C-range = [c + 0.6 eps, c + eps]   (pushed down)

The cutoff is

    psi(u) = (dC - dB) dXA / ((dC + dB) dXA + dB dC)

with dB = dist(u, B), dC = dist(u, C), dXA = dist(u, complement of A).
It equals +1 on B, -1 on C and 0 outside the band and on D, exactly.

Region membership is decided in one place, BandPartition.tags, as int8
codes viewed through the IntEnum RegionTag; psi's plateaus come from them.
A partition binds its band edges as floats once, and tags looks a value's
code up by its rank among the sorted edges, in a table built at
construction from the mask cascade that states the rule.  A backend holds
the partition it was built for, and psi rejects another partition's.
cutoff_stage, the per-stage cutoff of the flow, reaches the partition
through the backend, takes a batch its callers have checked once and
calls the field's eval_fn and grad_fn on it directly; it compares the
codes as plain ints and passes a batch through whole when all its rows
need the gradient or the set distances.  The quotient cannot degenerate:
for distances >= 0 its computed denominator is never below |numerator|,
as rounding is monotone, so psi stays in [-1, 1]; a row whose denominator
underflows is at 0.

Two backends give the set distances between the plateaus, both measured
in the box.  FirstOrderBackend, the default, divides the slab distance in
phi by the local ||grad phi||: the distances vanish at the band edges, so
psi is continuous there, no point lookup is made, and they are exact for an
affine field.  SampledBackend measures them exactly to grid point clouds;
it is the set-distance reference the first-order distances are checked
against.  It lists, the first time a query lands in a grid cell, the cloud
points that can be nearest to any point of the cell, and answers later
queries there from those lists, kept in one dimension-major table, with
the arithmetic of cKDTree.query, bit for bit; rows outside the box,
non-finite rows and cells whose lists would be too long go to the
KD-trees.  A band (or a side of the complement of A) with no grid point
is at +inf in both.  A distance that divides by ||grad phi|| floors it at
MIN_GRAD_FLOOR.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from itertools import chain, product
from typing import Optional

import numpy as np

from .errors import InvalidRegionSpec
from .fields import DomainBox, ScalarField, check_positive, check_resolution

# Minimum separation (in units of eps) between D's value range and the
# B/C value ranges: it keeps D's values off B and C, so that psi's +1 and
# -1 plateaus hold on the whole of B and C.
D_SEPARATION = 0.05

# The smallest ||grad phi|| a distance or the flow's vector field divides by;
# the flow raises VectorFieldSingular below it where the cutoff is nonzero.
MIN_GRAD_FLOOR = 1e-8

_UNDERFLOW = 1e-300

# SampledBackend: a grid cell whose candidate list for some cloud is longer
# than CELL_CAP points is answered by the KD-trees, as is one whose ball
# holds more than _BALL_CAP points before pruning (the centre of a
# ring-shaped band holds hundreds).  Cells are listed _CELL_CHUNK at a time
# and looked up _CHUNK rows at a time, which bounds the temporaries.  _SLACK
# is the relative margin by which a candidate must lose to be pruned.
CELL_CAP = 32
_BALL_CAP = 128
_CELL_CHUNK = 64
_CHUNK = 2048
_SLACK = 1e-9
_UNFILLED, _TO_TREES = -1, -2   # cell-to-slot codes of unlisted and tree cells

# export_region_clouds (and the CLI's psi grid) formats and writes this many
# rows at a time, which bounds the text held in memory
_EXPORT_ROWS = 1024


class RegionTag(IntEnum):
    """Region codes as returned by BandPartition.tags.

    The codes below OUTSIDE are the rows where psi can be nonzero.
    """

    A_OTHER = 0
    B = 1
    C = 2
    OUTSIDE = 3
    D = 4


# The codes as plain ints: an IntEnum member costs a class-attribute lookup
# and a slow scalar conversion in every numpy comparison of the per-stage
# hot path.  On the small batches of that path, np.count_nonzero also stands
# in for ndarray.any/all, which dispatch through Python.
_A_OTHER, _B, _C, _OUTSIDE, _D = (int(t) for t in RegionTag)

# psi on each region code; A_OTHER rows are interpolated instead
_PLATEAU = np.array([0.0, 1.0, -1.0, 0.0, 0.0])


def _rows_of(mask):
    """Index selecting the rows of a boolean mask: slice(None), a view
    with no gather or scatter, when every row is selected."""
    return slice(None) if np.count_nonzero(mask) == mask.size else mask


def _rank_code(edges, values):
    """The number of sorted edges below each value plus the number at or
    below it, NaN sorting above every number."""
    code = edges.searchsorted(values, "left")
    code += edges.searchsorted(values, "right")   # in place: one intp temporary
    return code


@dataclass(frozen=True)
class RegionSpec:
    """Specification of the fixed set D: empty, a level set, or a point cloud."""

    kind: str = "empty"  # "empty" | "level_set" | "point_cloud"
    value: Optional[float] = None
    thickness: Optional[float] = None
    points: Optional[np.ndarray] = None

    @classmethod
    def empty(cls) -> "RegionSpec":
        return cls("empty")

    @classmethod
    def level_set(cls, value: float, thickness: Optional[float] = None) -> "RegionSpec":
        return cls("level_set", value=float(value), thickness=thickness)

    @classmethod
    def point_cloud(cls, points) -> "RegionSpec":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls("point_cloud", points=pts)


@dataclass(frozen=True)
class BandPartition:
    """The regions A, B, C, D induced by a field, a center level and eps."""

    field: ScalarField
    box: DomainBox
    c: float
    eps: float
    d_spec: RegionSpec = dc_field(default_factory=RegionSpec.empty)

    def __post_init__(self):
        if self.field.dim != self.box.dim:
            raise ValueError("field and box dimensions differ")
        # NaN fails both; a non-finite c or eps would empty the band silently
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c!r}")
        check_positive("eps", self.eps)
        self._validate_d()
        spec = self.d_spec
        tree = None
        if spec.kind == "point_cloud":
            # deferred: ~0.25 s to import; only a point-cloud D needs scipy.spatial
            from scipy.spatial import cKDTree
            tree = cKDTree(spec.points)
        object.__setattr__(self, "_d_tree", tree)
        object.__setattr__(self, "_diagonal", self.box.diagonal)
        # the band edges, bound once as floats, and the region code of every
        # rank of a value among them (see tags)
        c, e = self.c, self.eps
        ranges = ((c - 2.0 * e, c + 2.0 * e), (c - e, c - 0.6 * e),
                  (c + 0.6 * e, c + e))
        object.__setattr__(self, "_ranges", ranges)
        edges = np.append(np.sort(np.ravel(ranges)), np.nan)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_code_tags", self._rank_table(edges))

    # value ranges -----------------------------------------------------
    @property
    def a_range(self):
        return self._ranges[0]

    @property
    def b_range(self):
        return self._ranges[1]

    @property
    def c_range(self):
        return self._ranges[2]

    @property
    def d_thickness(self) -> float:
        if self.d_spec.thickness is not None:
            return self.d_spec.thickness
        return 1e-6 * self.eps

    def _validate_d(self):
        c, e = self.c, self.eps
        spec = self.d_spec
        if spec.kind == "empty":
            return
        if spec.kind == "level_set":
            values = np.array([spec.value])
            # NaN fails every comparison below, and a thickness <= 0 (or
            # NaN) matches no point: either would leave D silently empty
            if not np.isfinite(spec.value):
                raise InvalidRegionSpec(f"D level {spec.value} must be finite")
            if not self.d_thickness > 0:
                raise InvalidRegionSpec(
                    f"D thickness {self.d_thickness} must be > 0")
        else:
            if spec.points.shape[1] != self.field.dim:
                raise InvalidRegionSpec("point cloud dimension mismatch")
            values = np.asarray(self.field.evaluate(spec.points))
        lo = c - 0.5 * e                    # the fixed set lives in [c-0.5eps, c+eps]
        hi = c + (0.6 - D_SEPARATION) * e   # keep >= 0.05 eps below C's bottom
        pad = self.d_thickness
        if np.any(values - pad < lo) or np.any(values + pad > hi):
            raise InvalidRegionSpec(
                f"D values {values} must lie in [{lo}, {hi}] "
                f"(0.05*eps-separated from the B and C value ranges)"
            )

    # membership -------------------------------------------------------
    def in_d(self, u, phi) -> np.ndarray:
        """D membership of points u (..., dim) whose phi-values are known."""
        spec = self.d_spec
        if spec.kind == "empty":
            return np.zeros(np.shape(phi), dtype=bool)
        if spec.kind == "level_set":
            return np.abs(phi - spec.value) <= self.d_thickness
        d, _ = self._d_tree.query(u)
        return d <= 1e-12 * max(1.0, self._diagonal)

    def _band_tags(self, phi) -> np.ndarray:
        """int8 codes of values phi by the band ranges alone, precedence
        OUTSIDE, B, C, A_OTHER: the rule tags applies through its table."""
        (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = self._ranges
        out = np.zeros(phi.shape, dtype=np.int8)   # _A_OTHER everywhere
        out[(phi >= c_lo) & (phi <= c_hi)] = _C
        out[(phi >= b_lo) & (phi <= b_hi)] = _B
        out[(phi < a_lo) | (phi > a_hi)] = _OUTSIDE
        return out

    def _rank_table(self, edges) -> np.ndarray:
        """_band_tags of each rank code of the sorted edges.

        The edges end in a NaN, which sorts above every number.  The code
        of a value is the number of edges below it plus the number at or
        below it: one code per distinct edge value and one per open gap
        between them, +-inf sharing the outer gaps' codes and NaN getting
        its own.  _band_tags compares values with edges only, so it is
        constant on each code; it is taken at every edge, both float
        neighbours of every edge and +-inf, which reach every code a value
        can have.
        """
        reps = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf), [-np.inf, np.inf]])
        table = np.zeros(2 * edges.size + 1, dtype=np.int8)
        table[_rank_code(edges, reps)] = self._band_tags(reps)
        return table

    def tags(self, u, phi) -> np.ndarray:
        """int8 region codes (RegionTag values) of points u with values phi.

        Precedence D, OUTSIDE, B, C, A_OTHER.  Region membership is decided
        here only: the band codes are looked up by the rank of phi among the
        sorted band edges, in the table built once from _band_tags, and an
        empty D is not queried.
        """
        phi = np.asarray(phi)
        out = self._code_tags.take(_rank_code(self._edges, phi))
        if self.d_spec.kind != "empty":
            out = np.where(self.in_d(u, phi), np.int8(_D), out)
        return out

    def classify(self, u) -> np.ndarray:
        """Vectorized region codes; see tags."""
        u = np.asarray(u, dtype=float)
        return self.tags(u, self.field.evaluate(u))

    # distance to D ----------------------------------------------------
    def d_distance(self, u, phi, gnorm) -> np.ndarray:
        """First-order distance estimate to D (exact for affine fields),
        from the phi-values and gradient norms at u."""
        spec = self.d_spec
        if spec.kind == "empty":
            return np.full(np.shape(phi), np.inf)
        if spec.kind == "level_set":
            gn = np.maximum(gnorm, MIN_GRAD_FLOOR)
            return np.minimum(np.abs(phi - spec.value) / gn, self._diagonal)
        d, _ = self._d_tree.query(u)
        return d


def classify_region(part: BandPartition, u) -> RegionTag:
    """Tag of a single point."""
    u = np.asarray(u, dtype=float)
    return RegionTag(part.classify(u[None, :])[0])


def _slab_distance(phi, lo, hi, gnorm):
    """Distance from phi-values to the slab phi in [lo, hi], for ||grad|| = gnorm."""
    return np.maximum(np.maximum(lo - phi, phi - hi), 0.0) / gnorm


def _grid_tags(part: BandPartition, resolution: int):
    """The regular grid of the box at ``resolution`` points per axis, its
    phi-values and its region codes."""
    check_resolution(resolution, part.box.dim)
    pts = part.box.grid(resolution)
    phi = part.field.evaluate(pts)
    return pts, phi, part.tags(pts, phi)


class FirstOrderBackend:
    """First-order set distances: the slab distance in phi divided by the
    local ||grad phi|| (floored at MIN_GRAD_FLOOR).

    For an affine field a . u + b this is the closed-form distance to a
    slab, |a| being ||grad phi||; it vanishes at every band edge.  The
    distance to the complement of A is the nearer of its lower and upper
    sides.  A band or side that no point of box.grid(resolution) falls in
    is at +inf, exactly where SampledBackend at that resolution has an
    empty cloud; this is decided once, here, and no tree is built.
    """

    name = "first_order"

    def __init__(self, part: BandPartition, resolution: int = 201):
        _, phi, tags = _grid_tags(part, resolution)
        self.part = part
        out = tags == _OUTSIDE
        a_lo, a_hi = part.a_range
        # each band's range and each outer side's edge, None where no grid
        # point falls in it
        self._b = part.b_range if np.any(tags == _B) else None
        self._c = part.c_range if np.any(tags == _C) else None
        self._below = a_lo if np.any(out & (phi < a_lo)) else None
        self._above = a_hi if np.any(out & (phi > a_hi)) else None
        self._any_empty = any(s is None for s in
                              (self._b, self._c, self._below, self._above))

    def distances(self, u, phi, gnorm):
        """Set distances (dB, dC, dXA) from points u with values phi and
        gradient norms gnorm; plateau rows are not masked."""
        g = np.maximum(gnorm, MIN_GRAD_FLOOR)
        far = np.full(np.shape(phi), np.inf) if self._any_empty else None
        dB = far if self._b is None else _slab_distance(phi, *self._b, g)
        dC = far if self._c is None else _slab_distance(phi, *self._c, g)
        below = far if self._below is None else np.maximum(phi - self._below, 0.0) / g
        above = far if self._above is None else np.maximum(self._above - phi, 0.0) / g
        d_out = np.minimum(below, above)
        return dB, dC, np.minimum(d_out, self.part.d_distance(u, phi, gnorm))


class SampledBackend:
    """Rejection-sampled region clouds on a regular grid, with exact
    nearest-point distances to them.

    Reported distances err from true set distances by at most one grid-cell
    diagonal; the distance to a region without grid points is +inf.  The
    clouds are the grid points BandPartition.tags puts in B, C and outside
    A; the cutoff's plateau values come from the region codes, not from
    these distances, so they stay exact.

    A query row is looked up in the grid cell that holds it (cell k spans
    [lo + k h, lo + (k + 1) h]).  The first query landing in a cell lists,
    for each cloud, the points that can be nearest to a point of the cell:
    the KD-tree's points within d(x_c) + 2r of the centre x_c, r being the
    cell's circumradius, less each point that another one is closer than
    at every corner of the cell (and so everywhere in it).  Both tests
    keep a float margin.  The three lists sit side by side, padded with
    +inf, in one dimension-major coordinate table (dim, candidates,
    slots), so a lookup is one gather of slots, a sum of the squared
    coordinate differences over the axes in order, as cKDTree sums them,
    and one minimum per cloud over contiguous rows: the distances equal
    cKDTree.query's bit for bit.
    Rows outside the box, non-finite rows and rows in a cell with a list
    longer than CELL_CAP points are queried on the KD-trees (which reject
    a non-finite row with ValueError).
    """

    name = "sampled"

    def __init__(self, part: BandPartition, resolution: int = 201):
        # deferred: scipy.spatial takes ~0.25 s to import; only this backend and
        # a point-cloud D need it
        from scipy.spatial import cKDTree
        pts, phi, tags = _grid_tags(part, resolution)
        self.part = part
        masks = {"B": tags == RegionTag.B, "C": tags == RegionTag.C,
                 "OUT": tags == RegionTag.OUTSIDE}
        self.clouds = {k: pts[m] for k, m in masks.items()}
        self.cloud_phi = {k: phi[m] for k, m in masks.items()}
        self.trees = {k: (cKDTree(v) if len(v) else None) for k, v in self.clouds.items()}
        box = part.box
        self._res = resolution
        self._lo = box.lo
        self._h = (box.hi - box.lo) / (resolution - 1)
        self._stride = resolution ** np.arange(box.dim - 1, -1, -1, dtype=np.int32)
        # Float margins, far above the rounding of a cell index, a distance
        # or a difference of squared distances at this coordinate scale:
        # cells are widened by _pad per side, the ball's radius 2r by a
        # margin above that, and a point is pruned only when another one
        # is closer by _SLACK * (d^2 + scale^2) at every corner.
        scale = float(np.abs([box.lo, box.hi]).max())
        r = 0.5 * float(np.linalg.norm(self._h))
        self._pad = 1e-12 * (r + scale)
        self._span = self._h + 2.0 * self._pad
        self._reach = 2.0 * r + 1e-9 * (r + scale)
        self._scale2 = scale * scale
        self._corners = np.array(list(product((False, True), repeat=box.dim)))
        self._points = np.concatenate(list(self.clouds.values()))
        self._base = np.cumsum([0] + [len(c) for c in self.clouds.values()])[:3]
        self._slot = np.full(resolution ** box.dim, _UNFILLED, dtype=np.int32)
        self._filled = 0
        self._width = np.ones(3, dtype=np.intp)   # B, C, OUT segment widths
        self._start = np.arange(3)
        self._table = np.empty((box.dim, 3, 0))   # axis, candidate, slot

    def _undominated(self, pts, n, lo, hi):
        """(cells, K) mask of the first n[i] of the +inf-padded candidates
        pts (cells, K, dim) of the cells [lo, hi], less each one that the
        candidate nearest to some corner is closer than at every corner."""
        v = np.where(self._corners, hi[:, None], lo[:, None])     # (m, C, dim)
        diff = v[:, :, None, :] - pts[:, None, :, :]
        diff *= diff
        d2 = np.add.reduce(diff, axis=-1)                          # (m, C, K)
        # d2 at every corner of the candidate nearest to each corner
        best = np.take_along_axis(d2, np.argmin(d2, axis=2)[:, None, :], axis=2)
        # p is dominated where one of them is closer by the slack at every
        # corner; the closer point then wins everywhere in the cell, by more
        # than the rounding of a squared distance
        bar = (1.0 - _SLACK) * d2 - _SLACK * self._scale2
        dominated = np.all(best[:, :, :, None] < bar[:, :, None, :], axis=1)
        return ~np.any(dominated, axis=1) & (np.arange(pts.shape[1]) < n[:, None])

    def _fill(self, cells):
        """List the candidates of the given unique, unlisted flat cell ids."""
        m, dim = len(cells), len(self._h)
        k = cells[:, None] // self._stride % self._res          # (m, dim) cell index
        lo = self._lo - self._pad + k * self._h
        hi = lo + self._span
        centres = lo + 0.5 * self._span
        balls = list(chain.from_iterable(
            [[]] * m if tree is None else tree.query_ball_point(
                centres, tree.query(centres)[0] + self._reach)
            for tree in self.trees.values()))                    # cloud-major
        n = np.fromiter(map(len, balls), dtype=np.intp, count=3 * m)
        over = n > _BALL_CAP
        n[over] = 0
        total = int(n.sum())
        ids = np.fromiter(chain.from_iterable(
            b for b, o in zip(balls, over) if not o), dtype=np.intp, count=total)
        # the balls as one +inf-padded (3 m, K, dim) coordinate array
        row = np.repeat(np.arange(3 * m), n)
        col = np.arange(total) - np.repeat(np.cumsum(n) - n, n)
        pts = np.full((3 * m, int(n.max(initial=1)), dim), np.inf)   # K >= 1
        pts[row, col] = self._points[ids + self._base[row // m]]
        keep = self._undominated(pts, n, np.tile(lo, (3, 1)), np.tile(hi, (3, 1)))
        n = np.count_nonzero(keep, axis=1)
        n[over] = CELL_CAP + 1      # an unpruned ball goes to the trees too
        n = n.reshape(3, m)
        ok = np.all(n <= CELL_CAP, axis=0)
        self._slot[cells[~ok]] = _TO_TREES
        filled = self._filled + np.count_nonzero(ok)
        width = np.maximum(self._width, n[:, ok].max(axis=1, initial=0))
        slots = self._table.shape[2]
        if filled > slots or np.any(width > self._width):
            # grow: double the slots, widen the segments that need it
            start = np.cumsum(width) - width
            table = np.full((dim, int(width.sum()), max(filled, 2 * slots)), np.inf)
            for s_old, s_new, w in zip(self._start, start, self._width):
                table[:, s_new:s_new + w, :self._filled] = \
                    self._table[:, s_old:s_old + w, :self._filled]
            self._table, self._width, self._start = table, width, start
        # the kept candidates of each cloud j go to the front of segment j
        keep = keep.reshape(3, m, -1)[:, ok]
        j, i, c = np.nonzero(keep)
        rank = np.cumsum(keep, axis=2)[j, i, c] - 1
        self._table[:, self._start[j] + rank, self._filled + i] = \
            pts.reshape(3, m, -1, dim)[:, ok][j, i, c].T
        self._slot[cells[ok]] = np.arange(self._filled, filled)
        self._filled = filled

    def _lookup(self, slot, u):
        """(3, rows) distances from points u (rows, dim) to the B, C and OUT
        candidates of their table slots."""
        g = self._table.take(slot, axis=2)   # (dim, candidates, rows)
        g -= u.T[:, None, :]
        g *= g
        d2 = np.add.reduce(g, axis=0)     # dx*dx + dy*dy (+ dz*dz), in order
        return np.sqrt(np.minimum.reduceat(d2, self._start, axis=0))

    def _all_rows(self, pts):
        """(3, rows) distances from every row of pts: lists the cells not
        yet listed, sends the rows outside the box or in a cell over the cap
        to the KD-trees and looks the rest up in chunks."""
        t = (pts - self._lo) / self._h
        inside = np.all((t >= 0.0) & (t <= self._res - 1), axis=-1)   # False on NaN
        cell = t[inside].astype(np.int32) @ self._stride
        del t
        new = np.unique(cell[self._slot[cell] == _UNFILLED])
        for i in range(0, new.size, _CELL_CHUNK):
            self._fill(new[i:i + _CELL_CHUNK])
        slot = np.full(len(pts), _TO_TREES, dtype=np.int32)
        slot[inside] = self._slot[cell]
        d = np.empty((3, len(pts)))
        miss = np.flatnonzero(slot < 0)
        if miss.size:   # +inf to a cloud with no points
            for j, tree in enumerate(self.trees.values()):
                d[j, miss] = np.inf if tree is None else tree.query(pts[miss])[0]
        for i in range(0, len(pts), _CHUNK):
            s = slot[i:i + _CHUNK]
            hit = _rows_of(s >= 0)
            d[:, i:i + _CHUNK][:, hit] = self._lookup(s[hit], pts[i:i + _CHUNK][hit])
        return d

    def _nearest(self, pts):
        """(3, rows) distances from the rows of pts (rows, dim) to the B, C
        and OUT clouds."""
        if len(pts) <= _CHUNK:
            # a batch of rows all in the box (min and max are NaN on a NaN
            # row) and in listed cells is one lookup
            t = (pts - self._lo) / self._h
            if (np.minimum.reduce(t, axis=None, initial=0.0) >= 0.0
                    and np.maximum.reduce(t, axis=None, initial=0.0) <= self._res - 1):
                slot = self._slot[t.astype(np.int32) @ self._stride]
                if np.minimum.reduce(slot, initial=0) >= 0:
                    return self._lookup(slot, pts)
        return self._all_rows(pts)

    def distances(self, u, phi, gnorm):
        """Set distances (dB, dC, dXA) from points u with values phi and
        gradient norms gnorm; plateau rows are not masked."""
        u = np.asarray(u, dtype=float)
        d = self._nearest(u.reshape(-1, u.shape[-1]))
        dB, dC, d_out = d.reshape((3,) + u.shape[:-1])
        return dB, dC, np.minimum(d_out, self.part.d_distance(u, phi, gnorm))


def build_backend(part: BandPartition, kind: Optional[str] = None,
                  resolution: int = 201):
    """The set-distance backend ``kind``, "first_order" (the default, also
    for kind None) or "sampled", on the grid of ``resolution`` points per
    axis."""
    if kind is None or kind == "first_order":
        return FirstOrderBackend(part, resolution)
    if kind == "sampled":
        return SampledBackend(part, resolution)
    raise ValueError(f"unknown backend kind {kind!r}; "
                     f"have 'first_order' and 'sampled'")


def _quotient(dB, dC, dXA):
    """psi at interpolation rows from their set distances: the distance
    quotient, or its limit where a set is empty."""
    den = (dC + dB) * dXA + dB * dC
    near = np.isfinite(den)
    if np.count_nonzero(near) == near.size:
        num = (dC - dB) * dXA
    else:
        # An empty set is at distance +inf.  Dividing through by dB dC dXA
        # gives psi = (1/dB - 1/dC) / (1/dB + 1/dC + 1/dXA), the quotient's
        # limit there, e.g. -dXA / (dXA + dC) for empty B.
        with np.errstate(divide="ignore", invalid="ignore"):
            rB, rC, rX = 1.0 / dB, 1.0 / dC, 1.0 / dXA
            # B or C at distance 0, or so near that the reciprocal overflows,
            # outweighs the rest: each infinite reciprocal counts 1, each
            # finite one 0 (inf / inf would give NaN)
            hit = np.isinf(rB) | np.isinf(rC)
            if np.count_nonzero(hit):
                rB, rC, rX = (np.where(hit, np.isinf(r), r) for r in (rB, rC, rX))
            num = np.where(near, (dC - dB) * dXA, rB - rC)
            den = np.where(near, den, rB + rC + rX)
    # den >= |num| in both forms, so an underflowed den has num ~ 0 too
    tiny = den < _UNDERFLOW
    if np.count_nonzero(tiny):
        num, den = np.where(tiny, 0.0, num), np.where(tiny, 1.0, den)
    return num / den


def cutoff_stage(backend, U):
    """psi, grad phi, ||grad phi|| and the region codes of a batch U
    (..., dim) of floats on the backend's partition, from one evaluation of
    phi and one of its gradient.

    U is not checked: psi and the flow check a batch once, with
    ScalarField.check, and the stage calls the field's eval_fn and grad_fn
    on it directly.  The gradient is evaluated only off the zero plateau;
    OUTSIDE and D rows get a zero gradient.  Plateau values (+1 on B, -1 on
    C, 0 outside the band and on D) come from the region codes alone; set
    distances are only queried for the interpolation rows between the
    plateaus.  A batch whose rows all need the gradient (or the distances)
    is passed through whole rather than gathered and scattered back.  Where
    B, C or the complement of A has no points (an empty band at a global
    minimum or maximum), its distance is +inf and psi takes the quotient's
    limit.
    """
    part = backend.part
    field = part.field
    phi = np.asarray(field.eval_fn(U))
    tags = part.tags(U, phi)
    rest = tags == _A_OTHER
    n_rest = np.count_nonzero(rest)
    all_rest = n_rest == rest.size      # then every row is live too
    live = None if all_rest else tags < _OUTSIDE
    if all_rest or np.count_nonzero(live) == live.size:
        grad = field.grad_fn(U)
    else:
        grad = np.zeros(U.shape)
        grad[live] = field.grad_fn(U[live])
    # np.linalg.norm(grad, axis=-1) without its dispatch: the same formula
    gnorm = np.sqrt(np.add.reduce(grad * grad, axis=-1))
    if all_rest:
        out = _quotient(*backend.distances(U, phi, gnorm))
    else:
        out = _PLATEAU.take(tags)
        if n_rest:
            out[rest] = _quotient(*backend.distances(U[rest], phi[rest], gnorm[rest]))
    return out, grad, gnorm, tags


def psi(part: BandPartition, backend, u):
    """The cutoff value(s) at u; in [-1, 1] with exact plateaus."""
    # another partition's backend gives a wrong psi with no error
    if backend.part is not part:
        raise ValueError("backend was built for another partition")
    u = np.asarray(u, dtype=float)
    out = cutoff_stage(backend, part.field.check(np.atleast_2d(u)))[0]
    return float(out[0]) if u.ndim == 1 else out


def _coordinate_text(col) -> list:
    """repr of each float of a column of grid coordinates, formatted once per
    distinct value.  Values are told apart by their bits, so -0.0 and 0.0,
    which compare equal, keep their own text."""
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def export_region_clouds(backend, path: str):
    """CSV dump (coords, phi, tag) of the backend's cached region clouds.

    The lines are those csv.writer writes for these rows (floats as repr,
    CRLF line ends), formatted a column at a time and written _EXPORT_ROWS
    rows at a time.
    """
    if not isinstance(backend, SampledBackend):
        raise ValueError("only the sampled backend caches region clouds")
    dim = backend.part.field.dim
    header = ["x", "y", "z"][:dim] + ["phi", "tag"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        line = ",".join(["{}"] * (dim + 1))
        for tag, pts in backend.clouds.items():
            if len(pts) == 0:
                continue
            phis = backend.cloud_phi[tag]
            fmt = line + f",{tag}\r\n"
            for i in range(0, len(pts), _EXPORT_ROWS):
                block = pts[i:i + _EXPORT_ROWS]
                cols = [_coordinate_text(block[:, j]) for j in range(dim)]
                cols.append(map(repr, phis[i:i + _EXPORT_ROWS].tolist()))
                fh.write("".join(map(fmt.format, *cols)))
