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
cutoff_stage, the per-stage cutoff of the flow, compares the codes as plain
ints, passes a batch through whole when all its rows need the gradient or
the set distances, and tests for a degenerate quotient only where a
denominator underflows.

Two backends give the set distances between the plateaus, both measured
in the box.  FirstOrderBackend, the default, divides the slab distance in
phi by the local ||grad phi||: the distances vanish at the band edges, so
psi is continuous there, no point lookup is made, and they are exact for an
affine field.  SampledBackend measures them to grid point clouds with
KD-trees; it is the set-distance reference the first-order distances are
checked against.  A band (or a side of the complement of A) with no grid
point is at +inf in both.  A distance that divides by ||grad phi|| floors
it at MIN_GRAD_FLOOR.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegeneratePartition, InvalidRegionSpec
from .fields import DomainBox, ScalarField

# Minimum separation (in units of eps) between D's value range and the
# B/C value ranges; closer specs make the cutoff quotient degenerate.
D_SEPARATION = 0.05

# The smallest ||grad phi|| a distance or the flow's vector field divides by;
# the flow raises VectorFieldSingular below it where the cutoff is nonzero.
MIN_GRAD_FLOOR = 1e-8

_UNDERFLOW = 1e-300


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


@dataclass(frozen=True)
class DeformationParams:
    c: float
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be > 0")


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
    params: DeformationParams
    d_spec: RegionSpec = dc_field(default_factory=RegionSpec.empty)

    def __post_init__(self):
        if self.field.dim != self.box.dim:
            raise ValueError("field and box dimensions differ")
        self._validate_d()
        spec = self.d_spec
        object.__setattr__(self, "_d_tree", cKDTree(spec.points)
                           if spec.kind == "point_cloud" else None)
        object.__setattr__(self, "_diagonal", self.box.diagonal)

    # value ranges -----------------------------------------------------
    @property
    def a_range(self):
        c, e = self.params.c, self.params.eps
        return (c - 2.0 * e, c + 2.0 * e)

    @property
    def b_range(self):
        c, e = self.params.c, self.params.eps
        return (c - e, c - 0.6 * e)

    @property
    def c_range(self):
        c, e = self.params.c, self.params.eps
        return (c + 0.6 * e, c + e)

    @property
    def d_thickness(self) -> float:
        if self.d_spec.thickness is not None:
            return self.d_spec.thickness
        return 1e-6 * self.params.eps

    def _validate_d(self):
        c, e = self.params.c, self.params.eps
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
        lo = c - (0.6 - D_SEPARATION) * e   # keep >= 0.05 eps above B's top
        hi = c + (0.6 - D_SEPARATION) * e   # keep >= 0.05 eps below C's bottom
        lo = max(lo, c - 0.5 * e)           # the fixed set lives in [c-0.5eps, c+eps]
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

    def tags(self, u, phi) -> np.ndarray:
        """int8 region codes (RegionTag values) of points u with values phi.

        Precedence D, OUTSIDE, B, C, A_OTHER.  This is the only place the
        band ranges and D membership are tested; an empty D is not queried.
        """
        phi = np.asarray(phi)
        a_lo, a_hi = self.a_range
        b_lo, b_hi = self.b_range
        c_lo, c_hi = self.c_range
        out = np.zeros(phi.shape, dtype=np.int8)   # _A_OTHER everywhere
        out[(phi >= c_lo) & (phi <= c_hi)] = _C
        out[(phi >= b_lo) & (phi <= b_hi)] = _B
        out[(phi < a_lo) | (phi > a_hi)] = _OUTSIDE
        if self.d_spec.kind != "empty":
            out[self.in_d(u, phi)] = _D
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
    if resolution < 3:
        raise ValueError("resolution must be >= 3 per axis")
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
        self._has_b = bool(np.any(tags == _B))
        self._has_c = bool(np.any(tags == _C))
        self._has_below = bool(np.any(out & (phi < a_lo)))
        self._has_above = bool(np.any(out & (phi > a_hi)))

    def distances(self, u, phi, gnorm):
        """Set distances (dB, dC, dXA) from points u with values phi and
        gradient norms gnorm; plateau rows are not masked."""
        part = self.part
        g = np.maximum(gnorm, MIN_GRAD_FLOOR)
        far = np.full(np.shape(phi), np.inf)
        dB = _slab_distance(phi, *part.b_range, g) if self._has_b else far
        dC = _slab_distance(phi, *part.c_range, g) if self._has_c else far
        a_lo, a_hi = part.a_range
        below = np.maximum(phi - a_lo, 0.0) / g if self._has_below else far
        above = np.maximum(a_hi - phi, 0.0) / g if self._has_above else far
        d_out = np.minimum(below, above)
        return dB, dC, np.minimum(d_out, part.d_distance(u, phi, gnorm))


class SampledBackend:
    """Rejection-sampled region clouds on a regular grid, with KD-tree lookup.

    Reported distances err from true set distances by at most one grid-cell
    diagonal; the distance to a region without grid points is +inf.  The
    clouds are the grid points BandPartition.tags puts in B, C and outside
    A; the cutoff's plateau values come from the region codes, not from
    these distances, so they stay exact.
    """

    name = "sampled"

    def __init__(self, part: BandPartition, resolution: int = 201):
        pts, _, tags = _grid_tags(part, resolution)
        self.part = part
        self.clouds = {
            "B": pts[tags == RegionTag.B],
            "C": pts[tags == RegionTag.C],
            "OUT": pts[tags == RegionTag.OUTSIDE],
        }
        self.trees = {k: (cKDTree(v) if len(v) else None) for k, v in self.clouds.items()}

    def _cloud_distance(self, key, u):
        """Distances from u to a cloud; +inf to a cloud with no points."""
        tree = self.trees[key]
        if tree is None:
            return np.full(np.shape(u)[:-1], np.inf)
        return tree.query(u)[0]

    def distances(self, u, phi, gnorm):
        """Set distances (dB, dC, dXA) from points u with values phi and
        gradient norms gnorm; plateau rows are not masked."""
        dB = self._cloud_distance("B", u)
        dC = self._cloud_distance("C", u)
        d_out = self._cloud_distance("OUT", u)
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


def cutoff_stage(part: BandPartition, backend, U):
    """psi, grad phi, ||grad phi|| and the region codes of a batch U
    (..., dim), from one evaluation of phi and one of its gradient.

    The gradient is evaluated only off the zero plateau; OUTSIDE and D rows
    get a zero gradient.  Plateau values (+1 on B, -1 on C, 0 outside the
    band and on D) come from the region codes alone; set distances are only
    queried for the interpolation rows between the plateaus.  A batch whose
    rows all need the gradient (or the distances) is passed through whole
    rather than gathered and scattered back.  Where B, C or the complement
    of A has no points (an empty band at a global minimum or maximum), its
    distance is +inf and psi takes the quotient's limit.
    """
    field = part.field
    phi = np.asarray(field.evaluate(U))
    tags = part.tags(U, phi)
    live = _rows_of(tags < _OUTSIDE)
    grad = np.zeros(U.shape)
    grad[live] = field.gradient(U[live])
    # np.linalg.norm(grad, axis=-1) without its dispatch: the same formula
    gnorm = np.sqrt(np.add.reduce(grad * grad, axis=-1))
    out = _PLATEAU[tags]
    rest = tags == _A_OTHER
    if np.count_nonzero(rest):
        rest = _rows_of(rest)
        dB, dC, dXA = backend.distances(U[rest], phi[rest], gnorm[rest])
        den = (dC + dB) * dXA + dB * dC
        near = np.isfinite(den)
        if np.count_nonzero(near) == near.size:
            num = (dC - dB) * dXA
        else:
            # An empty set is at distance +inf.  Dividing through by
            # dB dC dXA gives psi = (1/dB - 1/dC) / (1/dB + 1/dC + 1/dXA),
            # the quotient's limit there, e.g. -dXA / (dXA + dC) for empty B.
            with np.errstate(divide="ignore", invalid="ignore"):
                rB, rC, rX = 1.0 / dB, 1.0 / dC, 1.0 / dXA
                num = np.where(near, (dC - dB) * dXA, rB - rC)
                den = np.where(near, den, rB + rC + rX)
        tiny = den < _UNDERFLOW
        if np.count_nonzero(tiny):
            if np.any(tiny & (np.abs(num) >= _UNDERFLOW)):
                raise DegeneratePartition(
                    "cutoff denominator underflowed while the numerator did not "
                    "(the fixed set D touches B or C)")
            num, den = np.where(tiny, 0.0, num), np.where(tiny, 1.0, den)
        out[rest] = num / den
    return out, grad, gnorm, tags


def psi(part: BandPartition, backend, u):
    """The cutoff value(s) at u; in [-1, 1] with exact plateaus."""
    u = np.asarray(u, dtype=float)
    out = cutoff_stage(part, backend, np.atleast_2d(u))[0]
    return float(out[0]) if u.ndim == 1 else out


def export_region_clouds(part: BandPartition, backend, path: str):
    """CSV dump (coords, phi, tag) of the backend's cached region clouds."""
    if not isinstance(backend, SampledBackend):
        raise ValueError("only the sampled backend caches region clouds")
    dim = part.field.dim
    header = ["x", "y", "z"][:dim] + ["phi", "tag"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for tag, pts in backend.clouds.items():
            if len(pts) == 0:
                continue
            phis = part.field.evaluate(pts)
            for p, v in zip(pts, phis):
                w.writerow([*map(float, p), float(v), tag])
