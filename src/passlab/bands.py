"""Level-band regions around a center level and the distance-quotient cutoff.

The partition is driven by a center level c and half-width eps, its value
ranges stated once, in band_ranges:

    A-range = [c - 2 eps, c + 2 eps]   (deformation band, minus the fixed set D)
    B-range = [c - eps,   c - 0.6 eps] (pushed up)
    C-range = [c + 0.6 eps, c + eps]   (pushed down)

The cutoff is

    psi(u) = (dC - dB) dXA / ((dC + dB) dXA + dB dC)

with dB = dist(u, B), dC = dist(u, C), dXA = dist(u, complement of A).
It equals +1 on B, -1 on C and 0 outside the band and on D, exactly.

D is given by a RegionSpec, which checks its own rules when it is built;
BandPartition checks the rules that need the field, c and eps, and
measures a point-cloud D by brute force, in bounded blocks (_nearest).

Region membership is decided in one place, BandPartition.tags, as int8
codes viewed through the IntEnum RegionTag; psi's plateaus come from them.
A partition binds its band edges, and a level-set D's least and greatest
float, once, and tags looks a value's code up by its rank among them, in
a table built at construction from the mask cascade that states the rule
and from in_d; only a point-cloud D is measured per call.  A backend holds
the partition it was built for, and psi rejects another partition's.
cutoff_stage, the per-stage cutoff of the flow, reaches the partition
through the backend, takes a batch its callers have checked once and
calls the field's eval_fn and grad_fn on it directly; it compares the
codes as plain ints and passes a batch through whole when all its rows
need the gradient or the set distances.  A gradient norm is inf there
only where the norm itself overflows (fields.vector_norm), and a set
distance or denominator that overflows is inf, without a numpy warning.  The
quotient cannot degenerate: for distances >= 0 its computed denominator is
never below |numerator|, as rounding is monotone, so psi stays in [-1, 1];
a row whose denominator underflows is at 0.  The module does no file I/O.

Two backends give the set distances between the plateaus, both measured
in the box.  FirstOrderBackend, the default, divides the slab distance in
phi by the local ||grad phi||, for all sets in one pass but a point-cloud
D, which is measured to its points: the distances vanish at the band
edges, so psi is continuous there, and they are exact for an affine
field.  SampledBackend measures them exactly to grid point clouds;
it is the set-distance reference the first-order distances are checked
against.  The nearest node of a cloud to any point is one of the cloud's
boundary nodes or a corner of the point's grid cell (_boundary), so the
backend searches those alone.  It lists, the first time a query lands in
a grid cell, the cloud points that can be nearest to any point of the
cell, and answers later queries there from those lists, kept in one
dimension-major table at one width for all three clouds; rows outside
the box and cells whose lists would be too long are scanned over the
boundary nodes.  Either way a distance is the brute-force minimum over
the cloud, bit for bit, and a non-finite row is a ValueError.  A band (or
a side of the complement of A) with no grid point is at +inf in both.
A distance that divides by ||grad phi|| floors it at MIN_GRAD_FLOOR.
Both build on the box's grid of one resolution, an integer >= 3, on
every axis.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from itertools import product
from typing import Optional

import numpy as np

from .errors import InvalidRegionSpec
from .fields import (DomainBox, ScalarField, check_count, check_positive,
                     vector_norm)

# Minimum separation (in units of eps) between D's value range and the
# B/C value ranges: it keeps D's values off B and C, so that psi's +1 and
# -1 plateaus hold on the whole of B and C.
D_SEPARATION = 0.05

# The smallest ||grad phi|| a distance or the flow's vector field divides by;
# the flow raises VectorFieldSingular below it where the cutoff is nonzero.
MIN_GRAD_FLOOR = 1e-8

_UNDERFLOW = 1e-300

# SampledBackend: a grid cell whose candidate list for some cloud is longer
# than CELL_CAP points is scanned, as is one whose ball holds more than
# _BALL_CAP points before pruning (the centre of a ring-shaped band holds
# hundreds).  Cells are listed _CELL_CHUNK at a time and looked up _CHUNK
# rows at a time, and a listing or a scan measures at most _SCAN (row,
# node) pairs at once, which bounds the temporaries.  _SLACK is the
# relative margin by which a candidate must lose to be pruned.
CELL_CAP = 32
_BALL_CAP = 128
_CELL_CHUNK = 64
_CHUNK = 2048
_SCAN = 1 << 18
_SLACK = 1e-9
_UNFILLED, _SCANNED = -1, -2   # cell-to-slot codes of unlisted and scanned cells

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


def _rank_code(edges, values):
    """The number of sorted edges below each value plus the number at or
    below it, NaN sorting above every number."""
    code = edges.searchsorted(values, "left")
    code += edges.searchsorted(values, "right")   # in place: one intp temporary
    return code


def _last_inside(inside, x, end):
    """The last float from x, where inside holds, towards end, where it does
    not, for an inside that holds on an interval of floats: a bisection
    over the bit patterns in the order the floats compare, <= 64 steps."""
    flip = lambda k: k ^ (k >> 63 & (1 << 63) - 1)   # its own inverse
    key = lambda f: flip(struct.unpack("<q", struct.pack("<d", f))[0])
    val = lambda k: struct.unpack("<d", struct.pack("<q", flip(k)))[0]
    k_in, k_out = key(x), key(end)
    while abs(k_out - k_in) > 1:
        mid = (k_in + k_out) // 2
        k_in, k_out = (mid, k_out) if inside(val(mid)) else (k_in, mid)
    return val(k_in)


@dataclass(frozen=True)
class RegionSpec:
    """Specification of the fixed set D: empty, a level set, or a point cloud.

    Its own rules are checked when it is built, with InvalidRegionSpec: the
    kind is one of the three, a level set has a finite value (kept as a
    float) and a thickness that is None (1e-6 eps) or finite and > 0, and a
    point cloud has finite points (kept as a 2-D float array).  The rules
    that need the field, c and eps are BandPartition's.
    """

    kind: str = "empty"  # "empty" | "level_set" | "point_cloud"
    value: Optional[float] = None
    thickness: Optional[float] = None
    points: Optional[np.ndarray] = None

    def __post_init__(self):
        # a NaN value fails every band comparison, and a thickness <= 0 (or
        # NaN) matches no point: either would leave D silently empty
        try:
            if self.kind == "level_set":
                object.__setattr__(self, "value", float(self.value))
                thick = 1.0 if self.thickness is None else float(self.thickness)
                ok = np.isfinite(self.value) and np.isfinite(thick) and thick > 0
            elif self.kind == "point_cloud":
                pts = np.atleast_2d(np.asarray(self.points, dtype=float))
                ok = pts.ndim == 2 and np.all(np.isfinite(pts))
                if ok:
                    object.__setattr__(self, "points", pts)
            else:
                ok = self.kind == "empty"
        except (TypeError, ValueError):   # None, or not numbers
            ok = False
        if not ok:
            raise InvalidRegionSpec(
                f"D needs kind 'empty', 'level_set' with a finite value and a "
                f"thickness None or finite and > 0, or 'point_cloud' with "
                f"finite points, got {self!r}")

    @classmethod
    def empty(cls) -> "RegionSpec":
        return cls("empty")

    @classmethod
    def level_set(cls, value: float, thickness: Optional[float] = None) -> "RegionSpec":
        return cls("level_set", value=value, thickness=thickness)

    @classmethod
    def point_cloud(cls, points) -> "RegionSpec":
        return cls("point_cloud", points=points)


def band_ranges(c: float, eps: float) -> tuple:
    """The A, B and C value ranges ((lo, hi) each) at center c and
    half-width eps; the partition binds them as a_range, b_range, c_range."""
    return ((c - 2.0 * eps, c + 2.0 * eps), (c - eps, c - 0.6 * eps),
            (c + 0.6 * eps, c + eps))


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
        if self.d_spec.kind == "point_cloud":   # one contiguous row per axis
            object.__setattr__(self, "_d_nodes", self.d_spec.points.T.copy())
        object.__setattr__(self, "_diagonal", self.box.diagonal)
        # the band edges, bound once as floats, and the region code of every
        # rank of a value among them (see tags)
        ranges = band_ranges(self.c, self.eps)
        for name, r in zip(("a_range", "b_range", "c_range"), ranges):
            object.__setattr__(self, name, r)
        edges = np.ravel(ranges)
        if self.d_spec.kind == "level_set":
            # the least and the greatest float in D: phi - value rounds
            # monotonically in phi, so D's floats are an interval
            v, t = self.d_spec.value, float(self.d_thickness)
            inside = lambda phi: abs(phi - v) <= t   # in_d's rule, in floats
            edges = np.append(edges, [_last_inside(inside, v, end)
                                      for end in (-np.inf, np.inf)])
        edges = np.append(np.sort(edges), np.nan)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_code_tags", self._rank_table(edges))

    @property
    def d_thickness(self) -> float:
        if self.d_spec.thickness is not None:
            return self.d_spec.thickness
        return 1e-6 * self.eps

    def _validate_d(self):
        """The rules of D that need the field, c and eps (RegionSpec checks
        its own): the points' dimension and the band separation."""
        c, e = self.c, self.eps
        spec = self.d_spec
        if spec.kind == "empty":
            return
        if spec.kind == "level_set":
            values = np.array([spec.value])
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
        return _nearest(u, self._d_nodes) <= 1e-12 * max(1.0, self._diagonal)

    def _band_tags(self, phi) -> np.ndarray:
        """int8 codes of values phi by the band ranges alone, precedence
        OUTSIDE, B, C, A_OTHER: the rule tags applies through its table."""
        (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = \
            self.a_range, self.b_range, self.c_range
        out = np.zeros(phi.shape, dtype=np.int8)   # _A_OTHER everywhere
        out[(phi >= c_lo) & (phi <= c_hi)] = _C
        out[(phi >= b_lo) & (phi <= b_hi)] = _B
        out[(phi < a_lo) | (phi > a_hi)] = _OUTSIDE
        return out

    def _rank_table(self, edges) -> np.ndarray:
        """_band_tags, or D where in_d holds, of each rank code of the edges.

        The edges end in a NaN, which sorts above every number.  The code
        of a value is the number of edges below it plus the number at or
        below it: one code per distinct edge value and one per open gap
        between them, +-inf sharing the outer gaps' codes and NaN getting
        its own.  _band_tags compares values with the band edges only, and
        a level-set D is the floats between two of the edges, so both are
        constant on each code; they are taken at every edge, both float
        neighbours of every edge and +-inf, which reach every code a value
        can have.
        """
        reps = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf), [-np.inf, np.inf]])
        codes = self._band_tags(reps)
        if self.d_spec.kind == "level_set":
            codes[self.in_d(None, reps)] = _D
        table = np.zeros(2 * edges.size + 1, dtype=np.int8)
        table[_rank_code(edges, reps)] = codes
        return table

    def tags(self, u, phi) -> np.ndarray:
        """int8 region codes (RegionTag values) of points u with values phi.

        Precedence D, OUTSIDE, B, C, A_OTHER.  Region membership is decided
        here only: the codes are looked up by the rank of phi among the
        sorted band edges and the ends of a level-set D, in the table built
        once from _band_tags and in_d, and only a point-cloud D is measured
        per call, by in_d.
        """
        phi = np.asarray(phi)
        out = self._code_tags.take(_rank_code(self._edges, phi))
        if self.d_spec.kind == "point_cloud":
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
        return _nearest(u, self._d_nodes)


def classify_region(part: BandPartition, u) -> RegionTag:
    """Tag of a single point."""
    u = np.asarray(u, dtype=float)
    return RegionTag(part.classify(u[None, :])[0])


def _grid_tags(part: BandPartition, resolution: int):
    """The regular grid of the box at ``resolution`` points per axis (an
    integer >= 3), its phi-values and its region codes."""
    check_count("resolution", resolution, 3)
    pts = part.box.grid(resolution)
    phi = part.field.evaluate(pts)
    return pts, phi, part.tags(pts, phi)


class FirstOrderBackend:
    """First-order set distances: the slab distance in phi divided by the
    local ||grad phi|| (floored at MIN_GRAD_FLOOR).

    For an affine field a . u + b this is the closed-form distance to a
    slab, |a| being ||grad phi||; it vanishes at every band edge.  B, C,
    the two sides of the complement of A (slabs open below and above) and
    a level-set D (the slab [value, value], capped at the box diagonal)
    are measured in one broadcast pass over (rows, sets).  dXA is the
    nearest of the two sides and D.  A band or side that no point of
    box.grid(resolution) falls in is at +inf, exactly where SampledBackend
    at that resolution has an empty cloud; this is decided once, here.
    """

    name = "first_order"

    def __init__(self, part: BandPartition, resolution: int = 201):
        _, phi, tags = _grid_tags(part, resolution)
        self.part = part
        out = tags == _OUTSIDE
        a_lo, a_hi = part.a_range
        # each set's slab [lo, hi] of phi, and the sets no grid point is in
        slabs = [part.b_range, part.c_range, (-np.inf, a_lo), (a_hi, np.inf)]
        found = [tags == _B, tags == _C, out & (phi < a_lo), out & (phi > a_hi)]
        self._empty = [j for j, m in enumerate(found) if not np.any(m)]
        self._d_kind = part.d_spec.kind
        if self._d_kind == "level_set":   # + 0.0: a zero distance is +0.0
            slabs.append((part.d_spec.value + 0.0,) * 2)
        self._lo, self._hi = np.array(slabs).T

    def distances(self, u, phi, gnorm):
        """Set distances (dB, dC, dXA) from points u with values phi (finite
        or NaN) and gradient norms gnorm; plateau rows are not masked."""
        p = phi[..., None]
        d = np.maximum(self._lo - p, p - self._hi)   # (rows, sets)
        np.maximum(d, 0.0, out=d)
        d /= np.maximum(gnorm, MIN_GRAD_FLOOR)[..., None]
        for j in self._empty:
            d[..., j] = np.inf
        d_out = np.minimum(d[..., 2], d[..., 3])
        if self._d_kind == "level_set":
            d_out = np.minimum(d_out, np.minimum(d[..., 4], self.part._diagonal))
        elif self._d_kind == "point_cloud":
            d_out = np.minimum(d_out, self.part.d_distance(u, phi, gnorm))
        return d[..., 0], d[..., 1], d_out


def _boundary(inside):
    """The boundary nodes of a boolean grid array: those in it that lack
    one of their 2 dim axis neighbours in it, every node on a face of the
    grid among them.

    The nearest node of the set to a point x is one of them or a corner of
    x's grid cell.  For an inner node p that is not a corner of the cell,
    some axis i has p_i at least one step h_i from x_i; p's neighbour one
    step towards x_i is in the set, and its difference to x_i on axis i,
    and so its squared distance, is no larger in floats (rounding is
    monotone), while the other axes' terms are the same.  The same holds
    for an inner node and a point outside the box.  The step h_i must
    exceed the rounding of a cell index, which SampledBackend checks.
    """
    inner = inside.copy()
    for axis in range(inside.ndim):
        have, keep = np.moveaxis(inside, axis, 0), np.moveaxis(inner, axis, 0)
        keep[1:] &= have[:-1]
        keep[:-1] &= have[1:]
        keep[[0, -1]] = False
    return inside & ~inner


def _sq_dist(x, nodes):
    """(rows, nodes) squared distances from the rows of x (rows, dim) to
    nodes (dim, nodes), one contiguous row per axis: the squared coordinate
    differences summed over the axes in order."""
    d2 = nodes[0] - x[:, 0, None]
    d2 *= d2
    for axis in range(1, len(nodes)):
        t = nodes[axis] - x[:, axis, None]
        t *= t
        d2 += t
    return d2


def _nearest(u, nodes):
    """(...) distances from the points u (..., dim) to the nearest of nodes
    (dim, nodes), the brute-force minimum measured _SCAN (point, node) pairs
    at a time; a non-finite point is a ValueError."""
    x = np.asarray(u, dtype=float).reshape(-1, len(nodes))
    if not np.all(np.isfinite(x)):
        raise ValueError("query points must be finite")
    d2 = np.empty(len(x))
    per = max(1, _SCAN // max(nodes.shape[1], 1))
    for i in range(0, len(x), per):
        d2[i:i + per] = _sq_dist(x[i:i + per], nodes).min(axis=1, initial=np.inf)
    return np.sqrt(d2).reshape(np.shape(u)[:-1])


class SampledBackend:
    """Rejection-sampled region clouds on a regular grid, with exact
    nearest-point distances to them.

    Reported distances err from true set distances by at most one grid-cell
    diagonal; the distance to a region without grid points is +inf.  The
    clouds are the grid points BandPartition.tags puts in B, C and outside
    A; the cutoff's plateau values come from the region codes, not from
    these distances, so they stay exact.

    The nearest node of a cloud to a point is one of the cloud's boundary
    nodes or an inner node at a corner of the point's cell (see _boundary),
    so those are the only nodes searched: on well_to_saddle at c = 0.5,
    eps = 0.1 and a 201^2 grid, 2,148 boundary nodes of 37,565.  Where the
    squared step of some axis is not above _SLACK times the squared
    coordinate scale (only very fine grids), every node counts as a
    boundary node.

    A query row is looked up in the grid cell that holds it (cell k spans
    [lo + k h, lo + (k + 1) h]; a row on the last grid line of an axis is
    in the last cell).  The first query landing in a cell lists, for each
    cloud, the points that can be nearest to a point of the cell: the
    boundary nodes within d(x_c) + 2r of the centre x_c and the cell's
    inner corners, r being the cell's circumradius, less each point that
    another one is closer than at every corner of the cell (and so
    everywhere in it).  Both tests keep a float margin.  The lists sit in
    one dimension-major coordinate table (dim, 3 w, slots) padded with +inf,
    cloud j in rows j w to j w + w - 1, w the longest list yet (a longer one
    widens the table by one copy), so a lookup is one gather of slots, a sum
    of the squared coordinate differences over the axes in order, and a
    minimum over w per cloud.  Rows outside the box and rows in a cell with
    a list longer than CELL_CAP points are scanned: every boundary node is
    measured, and the inner corners of the row's cell.  Both give the
    brute-force minimum over the cloud bit for bit, and a non-finite row
    raises ValueError.
    """

    name = "sampled"

    def __init__(self, part: BandPartition, resolution: int = 201):
        pts, phi, tags = _grid_tags(part, resolution)
        self.part = part
        masks = {"B": tags == _B, "C": tags == _C, "OUT": tags == _OUTSIDE}
        self.clouds = {k: pts[m] for k, m in masks.items()}
        self.cloud_phi = {k: phi[m] for k, m in masks.items()}
        box = part.box
        dim = box.dim
        self._res = resolution
        self._lo = box.lo
        self._h = (box.hi - box.lo) / (resolution - 1)
        self._stride = resolution ** np.arange(dim - 1, -1, -1, dtype=np.int32)
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
        self._corners = np.array(list(product((False, True), repeat=dim)))
        # each cloud's boundary nodes side by side, one contiguous row per
        # axis, and the cloud (0, 1, 2) of each inner node, -1 elsewhere
        coarse = np.all(self._h * self._h > _SLACK * self._scale2)
        edges = [_boundary(m.reshape((resolution,) * dim)).ravel() if coarse
                 else m for m in masks.values()]
        self._edge = np.concatenate([pts[e] for e in edges]).T.copy()
        ends = np.cumsum([np.count_nonzero(e) for e in edges]).tolist()
        self._segments = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self._inner = np.full(resolution ** dim, -1, dtype=np.int8)
        for j, (m, e) in enumerate(zip(masks.values(), edges)):
            self._inner[m & ~e] = j
        # the grid's coordinates on each axis, as box.grid gave them
        self._axes = [pts[np.arange(resolution) * s, a]
                      for a, s in enumerate(self._stride)]
        self._slot = np.full(resolution ** dim, _UNFILLED, dtype=np.int32)
        self._filled = 0
        self._table = np.empty((dim, 3, 0))   # axis, cloud-major candidate, slot

    def _inner_corners(self, x, k):
        """The corners of the cells k (rows, dim) that are inner nodes of a
        cloud: (rows, corners) cloud codes (-1 for none), (rows, corners,
        dim) coordinates and (rows, corners) squared distances to the rows
        of x."""
        idx = k[:, None, :] + self._corners          # (rows, corners, dim)
        code = self._inner.take(idx @ self._stride)
        at = np.stack([ax.take(idx[..., a]) for a, ax in enumerate(self._axes)])
        return code, np.moveaxis(at, 0, -1), _sq_dist(x, at)

    def _minima(self, d2e, code, d2c):
        """(3, rows) minima of each cloud's squared distances: d2e to the
        boundary nodes (rows, nodes), d2c to the corners of codes code."""
        out = np.empty((3, len(d2e)))
        for j, seg in enumerate(self._segments):
            np.minimum(d2e[:, seg].min(axis=1, initial=np.inf),
                       np.where(code == j, d2c, np.inf).min(axis=1), out=out[j])
        return out

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
        k = np.minimum(cells[:, None] // self._stride % self._res, self._res - 2)
        lo = self._lo - self._pad + k * self._h
        hi = lo + self._span
        centres = lo + 0.5 * self._span
        # the ball around each centre: the boundary nodes within d + reach
        # of it, d being its distance to the cloud, and the inner corners
        d2e = _sq_dist(centres, self._edge)                      # (m, nodes)
        code, corner, d2c = self._inner_corners(centres, k)
        radius = np.sqrt(self._minima(d2e, code, d2c)) + self._reach
        rows, at = [], []
        for j, seg in enumerate(self._segments):   # cloud-major rows j m + i
            i, e = np.nonzero(d2e[:, seg] <= (radius[j] * radius[j])[:, None])
            ic, c = np.nonzero(code == j)
            rows += [j * m + i, j * m + ic]
            at += [self._edge.T[seg][e], corner[ic, c]]
        row = np.concatenate(rows)
        order = np.argsort(row, kind="stable")     # grouped by row
        row = row[order]
        n = np.bincount(row, minlength=3 * m)
        over = n > _BALL_CAP
        n[over] = 0
        take = ~over[row]
        row = row[take]
        col = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n)
        # the balls as one +inf-padded (3 m, K, dim) coordinate array
        pts = np.full((3 * m, int(n.max(initial=1)), dim), np.inf)   # K >= 1
        pts[row, col] = np.concatenate(at)[order[take]]
        keep = self._undominated(pts, n, np.tile(lo, (3, 1)), np.tile(hi, (3, 1)))
        n = np.count_nonzero(keep, axis=1)
        n[over] = CELL_CAP + 1      # an unpruned ball is scanned too
        n = n.reshape(3, m)
        ok = np.all(n <= CELL_CAP, axis=0)
        self._slot[cells[~ok]] = _SCANNED
        filled = self._filled + np.count_nonzero(ok)
        w, slots = self._table.shape[1] // 3, self._table.shape[2]
        width = max(w, int(n[:, ok].max(initial=0)))
        if filled > slots or width > w:
            # grow: double the slots, widen every cloud's rows to width
            table = np.full((dim, 3, width, max(filled, 2 * slots)), np.inf)
            table[:, :, :w, :self._filled] = \
                self._table[:, :, :self._filled].reshape(dim, 3, w, -1)
            self._table = table.reshape(dim, 3 * width, -1)
        # the kept candidates of each cloud j go to the front of its rows
        keep = keep.reshape(3, m, -1)[:, ok]
        j, i, c = np.nonzero(keep)
        rank = np.cumsum(keep, axis=2)[j, i, c] - 1
        self._table[:, j * width + rank, self._filled + i] = \
            pts.reshape(3, m, -1, dim)[:, ok][j, i, c].T
        self._slot[cells[ok]] = np.arange(self._filled, filled)
        self._filled = filled

    def _lookup(self, slot, u):
        """(3, rows) distances from points u (rows, dim) to the B, C and OUT
        candidates of their table slots."""
        g = self._table.take(slot, axis=2)   # (dim, 3 w, rows)
        g -= u.T[:, None, :]
        g *= g
        d2 = g[0]
        for a in range(1, len(g)):   # dx*dx + dy*dy (+ dz*dz), in order, in place
            d2 += g[a]
        return np.sqrt(d2.reshape(3, len(d2) // 3, -1).min(axis=1))

    def _scan(self, pts, t, inside):
        """(3, rows) distances from the rows of pts (rows, dim), at grid
        coordinates t and in the box where inside, to every boundary node
        and the inner corners of each row's cell, _SCAN pairs at a time."""
        if not np.all(np.isfinite(pts)):
            raise ValueError("query points must be finite")
        # the cell of each row in the box, a row on the last grid line of an
        # axis being in the last cell; rows outside get cell 0, unused
        k = np.minimum(np.where(inside[:, None], t, 0.0).astype(np.int32),
                       self._res - 2)
        d2 = np.empty((3, len(pts)))
        per = max(1, _SCAN // max(self._edge.shape[1], 1))
        for i in range(0, len(pts), per):
            x = pts[i:i + per]
            code, _, d2c = self._inner_corners(x, k[i:i + per])
            code[~inside[i:i + per]] = -1   # outside the box: the boundary only
            d2[:, i:i + per] = self._minima(_sq_dist(x, self._edge), code, d2c)
        return np.sqrt(d2)

    def _nearest(self, pts):
        """(3, rows) distances from the rows of pts (rows, dim) to the B, C
        and OUT clouds: lists the cells not yet listed, scans the rows
        outside the box or in a cell over the cap and looks the rest up,
        _CHUNK rows at a time."""
        t = (pts - self._lo) / self._h   # grid coordinates: lo + t h = pts
        if len(pts) <= _CHUNK:
            # a batch of rows all in the box (min and max are NaN on a NaN
            # row) and in listed cells is one lookup
            if (np.minimum.reduce(t, axis=None, initial=0.0) >= 0.0
                    and np.maximum.reduce(t, axis=None, initial=0.0) <= self._res - 1):
                slot = self._slot[t.astype(np.int32) @ self._stride]
                if np.minimum.reduce(slot, initial=0) >= 0:
                    return self._lookup(slot, pts)
        inside = np.all((t >= 0.0) & (t <= self._res - 1), axis=-1)   # False on NaN
        cell = t[inside].astype(np.int32) @ self._stride
        new = np.unique(cell[self._slot[cell] == _UNFILLED])
        per = max(1, min(_CELL_CHUNK, _SCAN // max(self._edge.shape[1], 1)))
        for i in range(0, new.size, per):
            self._fill(new[i:i + per])
        slot = np.full(len(pts), _SCANNED, dtype=np.int32)
        slot[inside] = self._slot[cell]
        d = np.empty((3, len(pts)))
        miss = np.flatnonzero(slot < 0)
        if miss.size:
            d[:, miss] = self._scan(pts[miss], t[miss], inside[miss])
        for i in range(0, len(pts), _CHUNK):
            s = slot[i:i + _CHUNK]
            hit = s >= 0   # a view, with no gather or scatter, when all hit
            hit = slice(None) if np.count_nonzero(hit) == hit.size else hit
            d[:, i:i + _CHUNK][:, hit] = self._lookup(s[hit], pts[i:i + _CHUNK][hit])
        return d

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


@np.errstate(over="ignore", invalid="ignore")
def cutoff_stage(backend, U):
    """psi, grad phi, ||grad phi|| and the region codes of a batch U
    (..., dim) of floats on the backend's partition, from one evaluation of
    phi and one of its gradient.  ||grad phi|| is fields.vector_norm, as
    in ScalarField.grad_norm, so it is finite wherever the norm is, even
    where its square overflows; a set distance or the quotient's
    denominator that overflows is inf.  No numpy warning is printed.

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
    gnorm = vector_norm(grad)
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
