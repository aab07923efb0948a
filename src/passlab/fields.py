"""Scalar fields on bounded boxes: evaluation, analytic gradients, audit.

All fields are vectorized: points may be a single vector of shape (dim,)
or a batch of shape (..., dim).  A field is its name, dimension, value and
gradient and nothing more: no closed form is attached to it, so the cutoff's
set distances treat an affine field like any other.  A box grid has one
resolution, the same integer count of points on every axis.  A polynomial
whose value overflows is inf there, without a numpy warning, and one whose
derivative coefficients overflow is rejected when it is built.  A gradient
norm (vector_norm) is finite wherever the norm is, even where its square
overflows.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidPoint

MAX_POLY_DEGREE = 8


def check_count(name: str, value, least: int = 1) -> int:
    """value as an int, or a ValueError naming ``name`` unless it is an
    integer (not a boolean) >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_positive(name: str, value):
    """A ValueError naming ``name`` unless value is finite and > 0."""
    if not (np.isfinite(value) and value > 0):   # False on NaN
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box in R^n, n in {1, 2, 3}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if lo.size not in (1, 2, 3):
            raise ValueError("box dimension must be 1, 2 or 3")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("lo and hi must be finite")
        if not np.all(lo < hi):
            raise ValueError("need lo[i] < hi[i] on every axis")

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def contains(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.all((u >= self.lo) & (u <= self.hi), axis=-1)

    def clip(self, u) -> np.ndarray:
        return np.clip(np.asarray(u, dtype=float), self.lo, self.hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points in the box, shape (n, dim)."""
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def grid(self, resolution: int) -> np.ndarray:
        """The regular grid of ``resolution`` points on every axis (an
        integer >= 1), in C order, shape (points, dim)."""
        n = check_count("resolution", resolution)
        axes = [np.linspace(lo, hi, n) for lo, hi in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class ScalarField:
    """A scalar functional with analytic gradient.

    eval_fn maps (..., dim) -> (...); grad_fn maps (..., dim) -> (..., dim).
    Both must be deterministic.  evaluate and gradient check the points
    first; a caller that has checked a batch once (the cutoff and the flow)
    calls eval_fn and grad_fn on it directly.
    """

    name: str
    dim: int
    eval_fn: Callable[[np.ndarray], np.ndarray] = dc_field(repr=False)
    grad_fn: Callable[[np.ndarray], np.ndarray] = dc_field(repr=False)

    def check(self, u) -> np.ndarray:
        """u as a float array, or InvalidPoint unless its last axis is dim."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or u.shape[-1] != self.dim:
            raise InvalidPoint(
                f"field {self.name!r} has dim {self.dim}, got point shape {u.shape}"
            )
        return u

    def evaluate(self, u) -> np.ndarray:
        u = self.check(u)
        return self.eval_fn(u)

    def gradient(self, u) -> np.ndarray:
        u = self.check(u)
        return self.grad_fn(u)

    def grad_norm(self, u) -> np.ndarray:
        """||grad phi|| at u (vector_norm), without a numpy warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return vector_norm(self.gradient(u))


def vector_norm(v):
    """||v|| over the last axis: the root of the summed squares, as
    np.linalg.norm computes it, except on the rows where that sum overflows.
    There it is m sqrt(sum((v / m)^2)), m = max |v_i|, which is inf only
    where the norm itself overflows or v has an infinite entry.  Callers
    silence numpy's overflow and invalid-value warnings."""
    norm = np.asarray(np.sqrt(np.add.reduce(v * v, axis=-1)))
    big = np.isinf(norm)
    if np.count_nonzero(big):
        w = np.abs(v[big])
        m = np.max(w, axis=-1, keepdims=True)
        scaled = m[:, 0] * np.sqrt(np.add.reduce((w / m) ** 2, axis=-1))
        norm[big] = np.where(np.isinf(m[:, 0]), np.inf, scaled)
    return norm[()]   # a scalar for one point


def affine_field() -> ScalarField:
    """phi(x, y) = x."""
    a = np.array([1.0, 0.0])

    def ev(u):
        return u @ a + 0.0   # the offset maps -0.0 to +0.0

    def gr(u):
        return np.broadcast_to(a, u.shape).copy()

    return ScalarField("affine", 2, ev, gr)


def paraboloid_field() -> ScalarField:
    """phi(x, y) = x^2 + y^2."""

    def ev(u):
        return np.sum(u * u, axis=-1)

    def gr(u):
        return 2.0 * u

    return ScalarField("paraboloid", 2, ev, gr)


def saddle_field() -> ScalarField:
    def ev(u):
        return u[..., 0] ** 2 - u[..., 1] ** 2

    def gr(u):
        out = np.empty(u.shape)
        out[..., 0] = 2.0 * u[..., 0]
        out[..., 1] = -2.0 * u[..., 1]
        return out

    return ScalarField("saddle", 2, ev, gr)


def well_to_saddle_field() -> ScalarField:
    """phi(x, y) = x^2 (x - 2)^2 + y^2: wells at x=0 and x=2, saddle at x=1."""

    def ev(u):
        x, y = u[..., 0], u[..., 1]
        return x * x * (x - 2.0) ** 2 + y * y

    def gr(u):
        x, y = u[..., 0], u[..., 1]
        out = np.empty(u.shape)
        out[..., 0] = 2.0 * x * (x - 2.0) * (2.0 * x - 2.0)
        out[..., 1] = 2.0 * y
        return out

    return ScalarField("well_to_saddle", 2, ev, gr)


def exp_decay_field() -> ScalarField:
    """phi(x, y) = exp(-x) + y^2: no critical point, flattens as x grows."""

    def ev(u):
        return np.exp(-u[..., 0]) + u[..., 1] ** 2

    def gr(u):
        out = np.empty(u.shape)
        out[..., 0] = -np.exp(-u[..., 0])
        out[..., 1] = 2.0 * u[..., 1]
        return out

    return ScalarField("exp_decay", 2, ev, gr)


# name -> (factory, default box lo, default box hi)
_CATALOG = {
    "affine": (affine_field, [-1.0, -1.0], [1.0, 1.0]),
    "paraboloid": (paraboloid_field, [-2.0, -2.0], [2.0, 2.0]),
    "saddle": (saddle_field, [-2.0, -2.0], [2.0, 2.0]),
    "well_to_saddle": (well_to_saddle_field, [-1.0, -2.0], [3.0, 2.0]),
    "exp_decay": (exp_decay_field, [-1.0, -2.0], [12.0, 2.0]),
}


def _catalog_entry(name: str) -> tuple:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog field {name!r}; have {sorted(_CATALOG)}")


def catalog_field(name: str) -> ScalarField:
    return _catalog_entry(name)[0]()


def catalog_names():
    return sorted(_CATALOG)


def default_box(name: str) -> DomainBox:
    _, lo, hi = _catalog_entry(name)
    return DomainBox(np.asarray(lo), np.asarray(hi))


def polynomial_field(dim: int, terms: Sequence[tuple]) -> ScalarField:
    """Dense multi-index polynomial: terms is a list of (exps, coef).

    exps is a length-dim tuple of nonnegative integer exponents with total
    degree <= 8, and coef a finite number (not a boolean or a string) whose
    product with every exponent, a derivative coefficient, is finite too.
    """
    parsed = []
    for exps, coef in terms:
        if any(isinstance(e, bool) or (isinstance(e, float) and not e.is_integer())
               for e in exps):
            raise ValueError(f"exponents {exps} must be integers")
        exps = tuple(int(e) for e in exps)
        if len(exps) != dim or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps} for dim {dim}")
        if sum(exps) > MAX_POLY_DEGREE:
            raise ValueError(f"term degree {sum(exps)} exceeds cap {MAX_POLY_DEGREE}")
        if isinstance(coef, (bool, str)):
            raise ValueError(f"coefficient {coef!r} of term {exps} must be a number")
        coef = float(coef)
        if not np.isfinite(coef):
            raise ValueError(f"coefficient {coef} of term {exps} must be finite")
        if not np.isfinite(coef * max(exps, default=0)):
            raise ValueError(f"coefficient {coef} of term {exps} overflows "
                             f"in the term's derivative")
        parsed.append((exps, coef))

    # the partial derivative along each axis, as monomial terms
    partials = [[(exps[:ax] + (exps[ax] - 1,) + exps[ax + 1:], coef * exps[ax])
                 for exps, coef in parsed if exps[ax]]
                for ax in range(dim)]
    return ScalarField(
        "poly", dim, lambda u: _monomials(parsed, u),
        lambda u: np.stack([_monomials(terms, u) for terms in partials], axis=-1))


@np.errstate(over="ignore", invalid="ignore")
def _monomials(terms, u) -> np.ndarray:
    """The sum of coef * prod(u[..., ax] ** e) over terms (exps, coef), in
    order; a sum that overflows is +-inf (or NaN), without a warning."""
    out = np.zeros(u.shape[:-1])
    for exps, coef in terms:
        term = np.full(u.shape[:-1], coef)
        for ax, e in enumerate(exps):
            if e:
                term = term * u[..., ax] ** e
        out = out + term
    return out


def gradient_check(field: ScalarField, box: DomainBox, samples: int = 1000,
                   step: float = 1e-4, seed: int = 0) -> dict:
    """Compare analytic gradients to central differences at random points.

    Reports the maximum relative error (absolute where the analytic gradient
    norm is below 1e-8) and the worst offending point.
    """
    check_count("samples", samples)
    check_positive("step", step)
    rng = np.random.default_rng(seed)
    pts = box.sample(rng, samples)
    analytic = field.gradient(pts)
    fd = np.empty_like(analytic)
    for ax in range(field.dim):
        h = np.zeros(field.dim)
        h[ax] = step
        fd[:, ax] = (field.evaluate(pts + h) - field.evaluate(pts - h)) / (2.0 * step)
    diff = np.linalg.norm(fd - analytic, axis=-1)
    anorm = np.linalg.norm(analytic, axis=-1)
    rel = np.where(anorm < 1e-8, diff, diff / np.maximum(anorm, 1e-300))
    worst = int(np.argmax(rel))
    return {
        "max_rel_error": float(rel[worst]),
        "worst_point": pts[worst].tolist(),
        "samples": samples,
        "step": step,
    }
