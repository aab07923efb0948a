"""Discrete paths with exactly pinned nodes, and their nodewise deformation.

A path is M+1 nodes at parameters t_i = i/M, with M a multiple of 4.  In
"interior" pin mode the nodes at t = 1/4 and t = 1/2 are pinned to the two
anchor points (both path endpoints stay free); "endpoints" mode pins t = 0
and t = 1 instead.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidM, PinMoved
from .fields import DomainBox, ScalarField, check_count, check_positive
from .flow import DeformationField, eta_batch


@dataclass(frozen=True)
class MountainPassInstance:
    """A field on a box with two distinct pins, finite points inside it."""

    field: ScalarField
    box: DomainBox
    pin_zero: np.ndarray
    pin_e: np.ndarray
    pin_mode: str = "interior"  # "interior" | "endpoints"
    radius: Optional[float] = None

    def __post_init__(self):
        z = np.asarray(self.pin_zero, dtype=float)
        e = np.asarray(self.pin_e, dtype=float)
        object.__setattr__(self, "pin_zero", z)
        object.__setattr__(self, "pin_e", e)
        if z.shape != (self.field.dim,) or e.shape != (self.field.dim,):
            raise ValueError("pin dimensions must match the field")
        for name, pin in (("pin_zero", z), ("pin_e", e)):
            if not (np.all(np.isfinite(pin)) and self.box.contains(pin)):
                raise ValueError(f"{name} {pin.tolist()} must be a finite point "
                                 f"inside the box")
        if np.array_equal(z, e):
            raise ValueError("the two pins must differ")
        if self.pin_mode not in ("interior", "endpoints"):
            raise ValueError(f"unknown pin mode {self.pin_mode!r}")
        if self.radius is not None:
            check_positive("radius", self.radius)
            if self.pin_mode == "endpoints" and np.linalg.norm(e - z) <= self.radius:
                raise ValueError("endpoints mode requires ||e - pin_zero|| > radius")

    def pinned_indices(self, M: int):
        if self.pin_mode == "interior":
            return (M // 4, M // 2)
        return (0, M)


@dataclass
class DiscretePath:
    nodes: np.ndarray          # (M+1, dim)
    pinned: tuple              # (index of the zero-pin, index of the e-pin)

    @property
    def params(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes.shape[0])

    def to_csv(self, path: str, field: ScalarField):
        dim = self.nodes.shape[1]
        header = ["index", "t"] + [f"x{i+1}" for i in range(dim)] + ["phi"]
        phis = field.evaluate(self.nodes)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i, (t, p) in enumerate(zip(self.params, self.nodes)):
                w.writerow([i, float(t), *map(float, p), float(phis[i])])


def check_m(M: int):
    """Raise InvalidM unless M (path segments) is a multiple of 4 and >= 8,
    and ValueError unless it is an integer."""
    if M < 8 or M % 4 != 0:
        raise InvalidM(f"M must be a multiple of 4 and >= 8, got {M}")
    check_count("M", M)


def make_path(inst: MountainPassInstance, M: int, init: str = "axis",
              scale: float = 0.1, seed: int = 0) -> DiscretePath:
    """Build a pinned path.

    "axis": straight line between the pins on the pinned segment; free
    prefix collapsed on the zero-pin and free suffix on the e-pin.
    "jitter": axis plus Gaussian noise of the given scale on free nodes.
    """
    check_m(M)
    i0, i1 = inst.pinned_indices(M)
    nodes = np.empty((M + 1, inst.field.dim))
    nodes[: i0 + 1] = inst.pin_zero
    frac = np.linspace(0.0, 1.0, i1 - i0 + 1)[:, None]
    nodes[i0: i1 + 1] = (1.0 - frac) * inst.pin_zero + frac * inst.pin_e
    nodes[i1:] = inst.pin_e
    if init == "jitter":
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, scale, size=nodes.shape)
        noise[i0] = 0.0
        noise[i1] = 0.0
        nodes = inst.box.clip(nodes + noise)
        nodes[i0] = inst.pin_zero
        nodes[i1] = inst.pin_e
    elif init != "axis":
        raise ValueError(f"unknown init {init!r}")
    return DiscretePath(nodes, (i0, i1))


def path_extrema(inst: MountainPassInstance, path: DiscretePath) -> dict:
    """Node-level extrema; ties break toward the lowest node index."""
    vals = np.asarray(inst.field.evaluate(path.nodes))
    imin = int(np.argmin(vals))
    imax = int(np.argmax(vals))
    return {
        "min_value": float(vals[imin]),
        "min_arg_index": imin,
        "max_value": float(vals[imax]),
        "max_arg_index": imax,
    }


def deform_path(df: DeformationField, path: DiscretePath) -> DiscretePath:
    """Apply the deformation to every node; pins must be preserved exactly."""
    if path.nodes.shape[1] != df.field.dim:
        raise ValueError("path dimension does not match the deformation field")
    images = eta_batch(df, path.nodes)
    for idx in path.pinned:
        if np.any(images[idx] != path.nodes[idx]):
            raise PinMoved(
                f"pinned node {idx} moved from {path.nodes[idx].tolist()} "
                f"to {images[idx].tolist()}")
    return DiscretePath(images, path.pinned)

