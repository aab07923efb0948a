"""Discrete paths with exactly pinned nodes, and their nodewise deformation.

A path is M+1 nodes at parameters t_i = i/M, with M a multiple of 4 and
>= 8 (check_m, a ValueError otherwise).  In "interior" pin mode the nodes at
t = 1/4 and t = 1/2 are pinned to the two anchor points (both path endpoints
stay free); "endpoints" mode pins t = 0 and t = 1 instead.  An instance holds
no ring radius: the radius is minimax.check_mpt_geometry's parameter, whose
verdict reports e inside the ring in either pin mode.  write_rows is the
package's one CSV row writer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PinMoved
from .fields import DomainBox, ScalarField, check_count
from .flow import DeformationField, eta_batch


@dataclass(frozen=True)
class MountainPassInstance:
    """A field on a box with two distinct pins, finite points inside it."""

    field: ScalarField
    box: DomainBox
    pin_zero: np.ndarray
    pin_e: np.ndarray
    pin_mode: str = "interior"  # "interior" | "endpoints"

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
        n, dim = self.nodes.shape
        header = ["index", "t"] + [f"x{i+1}" for i in range(dim)] + ["phi"]
        data = np.column_stack([np.arange(n), self.params, self.nodes,
                                field.evaluate(self.nodes)])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            write_rows(fh, data, ["{:.0f}"] + ["{!r}"] * (dim + 2), "\r\n")


_EXPORT_ROWS = 1024   # rows per block of write_rows: bounds the text in memory


def write_rows(fh, data, formats, end):
    """Write the rows of the float array data to the text file fh, column j
    as formats[j].format(value), joined by commas, each row ended by ``end``.
    Each column of a block of _EXPORT_ROWS rows formats each distinct value
    (by its bits, so -0.0 and 0.0 keep their own text) once."""
    for i in range(0, len(data), _EXPORT_ROWS):
        cols = []
        for fmt, col in zip(formats, data[i:i + _EXPORT_ROWS].T):
            keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
            text = np.array([fmt.format(v) for v in keys.view(np.float64).tolist()],
                            dtype=object)
            cols.append(text[inverse].tolist())
        fh.write(end.join(map(",".join, zip(*cols))) + end)


def check_m(M: int):
    """A ValueError naming M unless M (path segments) is an integer (not a
    boolean) >= 8 and a multiple of 4."""
    if check_count("M", M, 8) % 4:
        raise ValueError(f"M must be a multiple of 4, got {M!r}")


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
        if not (np.isfinite(scale) and scale >= 0):   # False on NaN
            raise ValueError(f"scale must be finite and >= 0, got {scale!r}")
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

