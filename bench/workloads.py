"""The benchmark's workloads, their known answers, and the oracle cross-check.

Every op is one or more ``passlab.cli`` subcommands on the canonical configs of
the acceptance suite and the demos.  A workload's ``check`` reads the
``report.json`` of each call and returns the names of the known answers that
did not hold, plus the observations the tables and per-layer metrics use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import passlab.gridoracle as gridoracle

W2S = {"catalog": "well_to_saddle"}
PINS = {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0]}

# D = {phi = c} is the two-pin argument's choice; c = 0.5 sits mid-range so
# that verify_deformation samples land in both B and C.
DEFORM = {
    "functional": W2S,
    "deformation": {"c": 0.5, "eps": 0.1, "backend": "sampled",
                    "resolution": 201,
                    "d_spec": {"kind": "level_set", "value": 0.5},
                    "samples": 1000, "dump_resolution": 101},
}

# The README config: minimax estimates validated by the 257^2 oracle.
MINIMAX = {
    "functional": W2S,
    "minimax": dict(PINS, conclusions_eps=0.05),
    "oracle": {"resolution": 257},
}

PROOF_TRACE = {  # the criterion-8 config
    "functional": W2S,
    "minimax": PINS,
    "proof_trace": {"c1": 0.0, "c2": 1.0, "eps": 0.3},
}
PSCHECK = {
    "functional": W2S,
    "ps": {"level": 1.0, "band_halfwidth": 0.05, "samples": 48},
}
GEOMETRY = {
    "functional": W2S,
    "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [2.0, 0.0]},
    "geometry": {"r": 1.0},
}

# The CLI's own strict bound between the minimax estimates and the oracle.
ORACLE_TOL = 0.03
SADDLE = (1.0, 0.0)
SADDLE_TOL = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple            # ((subcommand, config), ...) run in order as one op
    check: Callable         # reports -> (failed check names, observations)


def _results(reports):
    return [r["payload"]["result"] for r in reports]


def check_deform(reports):
    (r,) = _results(reports)
    fails = [] if r["a_prime_violations"] == 0 else ["a_prime_violations"]
    return fails, {"eq31_residual": r["eq31_max_residual"],
                   "a_prime_checked": r["a_prime_checked"],
                   "samples": r["samples"]}


def _accepts(history):
    """Accepted descent steps: every accepted candidate strictly improves."""
    return sum(b != a for a, b in zip(history, history[1:]))


def check_minimax(reports):
    (r,) = _results(reports)
    c1, c2, oracle = r["c1"], r["c2"], r["oracle"]
    gap = max(abs(c2["value"] - oracle["bottleneck"]),
              abs(c1["value"] - oracle["widest"]))
    fails = [] if gap <= ORACLE_TOL else ["oracle_gap"]
    return fails, {"oracle_gap": gap,
                   "iterations": c1["iterations"] + c2["iterations"],
                   "accepts": _accepts(c1["history"]) + _accepts(c2["history"])}


def check_diagnostics(reports):
    trace, ps, geo = _results(reports)
    verdicts = {s["name"]: s["verdict"] for s in trace["steps"]}
    fails = []
    if trace["eps1"] != 0.25:
        fails.append("eps1")
    fails += [pin for pin in ("pin_zero_fixed", "pin_e_fixed")
              if verdicts.get(pin) != "holds"]
    near_saddle = any(math.dist(p, SADDLE) <= SADDLE_TOL
                      for p in ps["accumulation_points"])
    if ps["verdict"] != "Consistent" or not near_saddle:
        fails.append("pscheck_saddle")
    if geo["verdict"] is not True:
        fails.append("geometry_verdict")
    return fails, {}


WORKLOADS = {
    "deform_flow": Workload("deform_flow", (("deform", DEFORM),), check_deform),
    "minimax_oracle": Workload("minimax_oracle", (("minimax", MINIMAX),),
                               check_minimax),
    "diagnostics": Workload("diagnostics",
                            (("proof-trace", PROOF_TRACE),
                             ("pscheck", PSCHECK),
                             ("geometry", GEOMETRY)),
                            check_diagnostics),
}


# ---------------------------------------------------------------------------
# oracle cross-check: threshold sweeps against exhaustive enumeration

# Grid shapes per family.  8-connected 2-D grids stop at 16 nodes and 3-D
# grids use values from {0, 1, 2}: exhaustive enumeration on 25-node
# king-move grids, or on 3-D grids with many distinct values, can take
# minutes.  A 3-D grid needs at least 3 nodes per axis, so 27 nodes, which
# is above enumerate_small's 25-node cap; the cap is lifted to 27 for them.
_FAMILIES = (
    # (label, count, connectivity choices, shapes)
    ("1-D", 6, (4, 8), [(n,) for n in range(3, 26)]),
    ("2-D/4", 6, (4,), [(a, b) for a in (3, 4, 5) for b in range(3, 9)
                        if a * b <= 25]),
    ("2-D/8", 6, (8,), [(a, b) for a in (3, 4, 5) for b in range(3, 6)
                        if a * b <= 16]),
    ("3-D", 2, (4, 8), [(3, 3, 3)]),
)
_CUBE_NODES = 27


def oracle_crosscheck(seed: int):
    """bottleneck_value / widest_value against enumerate_small on seeded grids.

    Half of the 1-D and 2-D grids draw uniform values and half draw small
    integers, so ties are exercised too.  Returns (grids per family,
    mismatches as (family, shape, connectivity, mode, sweep, enumeration)).
    """
    rng = np.random.default_rng(seed)
    counts, mismatches = {}, []
    cap = gridoracle.ENUM_NODE_CAP
    try:
        gridoracle.ENUM_NODE_CAP = max(cap, _CUBE_NODES)
        for label, count, conns, shapes in _FAMILIES:
            counts[label] = count
            for k in range(count):
                shape = shapes[int(rng.integers(len(shapes)))]
                if label == "3-D":
                    values = rng.integers(0, 3, size=shape).astype(float)
                elif k % 2:
                    values = rng.integers(0, 4, size=shape).astype(float)
                else:
                    values = rng.uniform(-1.0, 1.0, size=shape)
                conn = int(conns[int(rng.integers(len(conns)))])
                g = gridoracle.GridGraph(values, connectivity=conn)
                p, q = (int(i) for i in rng.choice(g.n_nodes, 2, replace=False))
                for mode, sweep in (("bottleneck", gridoracle.bottleneck_value),
                                    ("widest", gridoracle.widest_value)):
                    got = sweep(g, p, q).value
                    want = gridoracle.enumerate_small(g, p, q, mode).value
                    if got != want:
                        mismatches.append((label, shape, conn, mode, got, want))
    finally:
        gridoracle.ENUM_NODE_CAP = cap
    return counts, mismatches
