"""Span tracing from outside the library, and the per-layer metrics it yields.

The tracer wraps passlab's public functions where they are looked up: a
``from x import y`` binds a copy, so ``passlab.flow.psi_fn`` and
``passlab.cli.bottleneck_value`` are patched rather than only their defining
modules, and methods are patched on their classes.  Wrappers are installed
for one op at a time and removed afterwards, so untraced ops run the
library untouched.  Spans stay in memory with their parent's id and are
written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

# span record fields
ID, PARENT, NAME, T0, T1, OP, ROWS, EXTRA = range(8)


def _rows(u) -> int:
    """Points in a (..., dim) batch; a single point is one row."""
    shape = np.shape(u)
    return math.prod(shape[:-1]) if shape else 1


def _nfev(args, result):
    return {"nfev": int(result.nfev)}


def _sweep_info(active_side):
    def info(args, result):
        g = args[0]
        t = result.value
        active = 0 if t is None else int(np.count_nonzero(active_side(g.values, t)))
        return {"witness_len": len(result.witness or ()), "activated": active,
                "nodes": int(g.n_nodes)}
    return info


def patch_points():
    """(owner, attribute, span name, index of the batch argument, extra info)."""
    from passlab import bands, cli, fields, flow, gridoracle, minimax, paths

    below = _sweep_info(lambda v, t: v <= t)
    above = _sweep_info(lambda v, t: v >= t)
    return [
        (fields.ScalarField, "evaluate", "fields.evaluate", 1, None),
        (fields.ScalarField, "gradient", "fields.gradient", 1, None),
        (flow, "psi_fn", "bands.psi", 2, None),
        (bands.SampledBackend, "distances", "bands.distances", 1, None),
        (bands.BandPartition, "in_d", "bands.in_d", 1, None),
        (bands.BandPartition, "d_distance", "bands.d_distance", 1, None),
        (bands.BandPartition, "classify", "bands.classify", 1, None),
        (cli, "build_backend", "bands.backend_build", None, None),
        (minimax, "build_backend", "bands.backend_build", None, None),
        (cli, "export_region_clouds", "bands.export_region_clouds", None, None),
        (flow, "vector_field", "flow.vector_field", 1, None),
        (cli, "verify_deformation", "flow.verify_deformation", None, None),
        (minimax, "eta", "flow.eta", None, None),
        (flow, "eta_batch", "flow.eta_batch", None, None),
        (paths, "eta_batch", "flow.eta_batch", None, None),
        (minimax, "deform_path", "paths.deform_path", None, None),
        (minimax, "path_extrema", "paths.path_extrema", None, None),
        (minimax, "make_path", "paths.make_path", None, None),
        (paths.DiscretePath, "to_csv", "paths.to_csv", None, None),
        (cli, "optimize_c1", "minimax.optimize_c1", None, None),
        (cli, "optimize_c2", "minimax.optimize_c2", None, None),
        (cli, "check_conclusions", "minimax.check_conclusions", None, None),
        (cli, "trace_proof_argument", "minimax.trace_proof_argument", None, None),
        (cli, "ps_probe", "minimax.ps_probe", None, None),
        (cli, "check_mpt_geometry", "minimax.check_mpt_geometry", None, None),
        (minimax, "scipy_minimize", "minimax.minimize", None, _nfev),
        (gridoracle.GridGraph, "from_field", "gridoracle.from_field", None, None),
        (cli, "bottleneck_value", "gridoracle.bottleneck_value", None, below),
        (cli, "widest_value", "gridoracle.widest_value", None, above),
        (cli, "main", "cli.main", None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []     # [id, parent, name, t0, t1, op, rows, extra]
        self._stack = []
        self._op = None

    def _wrap(self, fn, name, rows_arg, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = _rows(args[rows_arg]) if rows_arg is not None else 0
            rec = [len(self.spans), self._stack[-1] if self._stack else None,
                   name, time.perf_counter(), None, self._op, rows, None]
            self.spans.append(rec)
            self._stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                rec[EXTRA] = info(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace every call made inside the block as part of op ``op``."""
        saved, wrappers = [], {}
        for owner, attr, name, rows_arg, info in patch_points():
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in wrappers:   # one wrapper per function, shared by its lookup sites
                wrappers[id(fn)] = self._wrap(fn, name, rows_arg, info)
            new = wrappers[id(fn)]
            saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        self._op = op
        try:
            yield
        finally:
            self._op = None
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path):
        keys = ("id", "parent", "name", "t0", "t1", "op", "rows", "extra")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[T0], rec[T1]))
    out = {}
    for rec in spans:
        t0, t1 = rec[T0], rec[T1]
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(rec[ID], ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[rec[ID]] = (t1 - t0) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, traced_ops, untraced_op_s) -> dict:
    """Per-op layer metrics from the spans and observations of traced ops.

    ``traced_ops`` are the harness's records of the traced ops (their wall
    seconds and observations); every count and time is divided by their
    number.  Each ratio's base is reported beside it.
    """
    n = len(traced_ops)
    selfs = self_times(spans)
    agg = {}
    for rec in spans:
        a = agg.setdefault(rec[NAME], {})
        for k, v in (("calls", 1), ("rows", rec[ROWS]), ("s", rec[T1] - rec[T0]),
                     ("self_s", selfs[rec[ID]]), *(rec[EXTRA] or {}).items()):
            a[k] = a.get(k, 0) + v

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per_op(name, key):
        return get(name, key) / n

    obs_sum = {}
    for op in traced_ops:
        for k, v in op.obs.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                obs_sum[k] = obs_sum.get(k, 0) + v

    m = {}
    for name in ("fields.evaluate", "fields.gradient", "bands.psi",
                 "bands.distances", "flow.vector_field"):
        for key in ("calls", "rows", "self_s"):
            m[f"{name}.{key}"] = per_op(name, key)
    for name in ("bands.in_d", "bands.d_distance", "bands.classify"):
        for key in ("calls", "self_s"):
            m[f"{name}.{key}"] = per_op(name, key)
    m["bands.backend_build.calls"] = per_op("bands.backend_build", "calls")
    m["bands.backend_build.s"] = per_op("bands.backend_build", "s")
    m["bands.interp_share"] = _ratio(get("bands.distances", "rows"),
                                     get("bands.psi", "rows"))
    m["flow.rows_per_rhs"] = _ratio(get("flow.vector_field", "rows"),
                                    get("flow.vector_field", "calls"))
    m["flow.samples"] = obs_sum.get("samples", 0) / n
    m["flow.fixed_row_frac"] = _ratio(obs_sum.get("a_prime_checked", 0),
                                      obs_sum.get("samples", 0))
    m["flow.verify_deformation.s"] = per_op("flow.verify_deformation", "s")
    m["flow.verify_deformation.self_s"] = per_op("flow.verify_deformation", "self_s")
    m["paths.deform_path.calls"] = per_op("paths.deform_path", "calls")
    m["paths.deform_path.s"] = per_op("paths.deform_path", "s")
    m["paths.path_extrema.calls"] = per_op("paths.path_extrema", "calls")
    m["paths.to_csv.s"] = per_op("paths.to_csv", "s")
    for name in ("optimize_c1", "optimize_c2", "trace_proof_argument",
                 "ps_probe", "check_mpt_geometry"):
        m[f"minimax.{name}.s"] = per_op(f"minimax.{name}", "s")
    m["minimax.iterations"] = obs_sum.get("iterations", 0) / n
    m["minimax.accept_ratio"] = _ratio(obs_sum.get("accepts", 0),
                                       obs_sum.get("iterations", 0))
    m["minimax.minimize.calls"] = per_op("minimax.minimize", "calls")
    m["minimax.minimize.nfev"] = per_op("minimax.minimize", "nfev")
    m["minimax.minimize.self_s"] = per_op("minimax.minimize", "self_s")
    m["gridoracle.from_field.s"] = per_op("gridoracle.from_field", "s")
    m["gridoracle.bottleneck_value.s"] = per_op("gridoracle.bottleneck_value", "s")
    m["gridoracle.widest_value.s"] = per_op("gridoracle.widest_value", "s")
    sweeps = ("gridoracle.bottleneck_value", "gridoracle.widest_value")
    m["gridoracle.witness_len"] = sum(get(s, "witness_len") for s in sweeps) / n
    m["gridoracle.nodes"] = sum(get(s, "nodes") for s in sweeps) / n
    m["gridoracle.activated_frac"] = _ratio(
        sum(get(s, "activated") for s in sweeps), sum(get(s, "nodes") for s in sweeps))
    m["cli.main.self_s"] = per_op("cli.main", "self_s")
    m["cli.csv_s"] = (get("bands.export_region_clouds", "s")
                      + get("paths.to_csv", "s")) / n
    traced_p50 = statistics.median(op.seconds for op in traced_ops)
    m["trace.ops"] = n
    m["trace.spans"] = len(spans) / n
    m["trace.op_s.p50"] = traced_p50
    m["trace.untraced_op_s.p50"] = untraced_op_s
    m["trace.overhead_s"] = traced_p50 - untraced_op_s
    return m


def top_self(spans, k=5):
    """The k span names with the largest total self time."""
    totals = {}
    selfs = self_times(spans)
    for rec in spans:
        totals[rec[NAME]] = totals.get(rec[NAME], 0.0) + selfs[rec[ID]]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:k]
