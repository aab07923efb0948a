"""Config-driven experiment runner.

    passlab <subcommand> --config cfg.json --out outdir [--seed N] [--strict]

Subcommands: deform, minimax, oracle, pscheck, proof-trace, geometry.
Each run writes report.json (keys: config, version, payload, wall_ms) plus
CSV artifacts (paths.write_rows) into the output directory.  Exit codes: 0
ok, 1 internal error, 2 invalid config, 3 a strict-mode check failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .bands import BandPartition, RegionSpec, SampledBackend, build_backend
from .errors import ConfigError, PasslabError, VectorFieldSingular
from .fields import (DomainBox, ScalarField, catalog_field, default_box,
                     polynomial_field)
from .flow import DeformationField, verify_deformation
from .gridoracle import GridGraph, bottleneck_value, widest_value, critical_scan
# optimize_c1 and optimize_c2 stay bound here: bench/spans.py traces them
# at this lookup site
from .minimax import (check_conclusions, check_mpt_geometry, optimize_c1,
                      optimize_c2, optimize_levels, ps_probe,
                      trace_proof_argument)
from .paths import MountainPassInstance, check_m, write_rows

_REQUIRED = "required"

# Every key a config may hold: section -> key -> (kind, default[, lower[,
# upper]]).  A section is the dotted path of a JSON object, "" the root.
# Kinds: int and float (a finite JSON number, not a boolean or string; an
# int may be 2.0, not 2.5; int bounds are inclusive, a float lower bound
# strict), str, point (an array of finite numbers), points (a point or an
# array of them), object (the section named by the dotted key) and objects
# (an array of them).  A missing key, or a null one unless it is an object,
# takes the default; _REQUIRED has none, and None means "not given" (or no
# lower bound).  Counts have an upper bound, so that an absurd count is a
# config error rather than a failed allocation; the resolutions are bounded
# by MAX_GRID_POINTS instead.
_SCHEMA = {
    "": {"seed": ("int", 0, 0), "functional": ("object", _REQUIRED),
         "box": ("object", None), "deformation": ("object", None),
         "minimax": ("object", None), "geometry": ("object", None),
         "oracle": ("object", None), "ps": ("object", None),
         "proof_trace": ("object", None)},
    "functional": {"catalog": ("str", None), "poly": ("object", None)},
    "functional.poly": {"dim": ("int", _REQUIRED, 1, 3),
                        "terms": ("objects", _REQUIRED)},
    "functional.poly.terms": {"exps": ("point", _REQUIRED),
                              "coef": ("float", _REQUIRED)},
    "box": {"lo": ("point", _REQUIRED), "hi": ("point", _REQUIRED)},
    "deformation": {"c": ("float", _REQUIRED), "eps": ("float", _REQUIRED, 0),
                    "backend": ("str", None), "resolution": ("int", 201, 3),
                    "step": ("float", None, 0), "record_every": ("int", 1, 1),
                    "d_spec": ("object", None),
                    "samples": ("int", 1000, 1, 10_000),
                    "dump_resolution": ("int", 101, 1)},
    "deformation.d_spec": {"kind": ("str", "empty"), "value": ("float", None),
                           "thickness": ("float", None),
                           "points": ("points", None)},
    "minimax": {"pin_zero": ("point", _REQUIRED), "pin_e": ("point", _REQUIRED),
                "pin_mode": ("str", "interior"),
                "ensemble_size": ("int", 8, 1, 1000),
                "M": ("int", 32, 8, 4096),
                "max_iters": ("int", 200, 1, 100_000),
                "tol": ("float", 1e-6, 0), "conclusions_eps": ("float", 0.05, 0)},
    "geometry": {"r": ("float", None, 0),
                 "sphere_samples": ("int", 4096, 1, 1_000_000)},
    "oracle": {"resolution": ("int", 257, 3), "connectivity": ("int", 8),
               "p": ("point", None), "q": ("point", None),
               "scan_resolution": ("int", 201, 3),
               "grad_tol": ("float", 0.05, 0)},
    "ps": {"level": ("float", _REQUIRED), "band_halfwidth": ("float", 0.1, 0),
           "samples": ("int", 64, 1, 10_000)},
    "proof_trace": {"c1": ("float", _REQUIRED), "c2": ("float", _REQUIRED),
                    "eps": ("float", _REQUIRED, 0)},
}

# The fields that give grid points per axis; a grid of resolution**dim
# points for the functional's dim may hold at most MAX_GRID_POINTS.
_GRID_FIELDS = (("deformation", "resolution"), ("deformation", "dump_resolution"),
                ("oracle", "resolution"), ("oracle", "scan_resolution"))
MAX_GRID_POINTS = 10_000_000

# A deform run records every live sample at each state of its record
# schedule; it may hold at most MAX_RECORDED_STATES (state, sample) pairs,
# the default schedule of 1,001 states at the 10,000-sample cap.
MAX_RECORDED_STATES = 1001 * 10_000


def _parse(raw, section: str = "", name: str = "") -> dict:
    """``raw`` checked against ``_SCHEMA[section]``, with every default filled
    in; ``name`` is its dotted path in messages.  Any fault is a ConfigError
    that names the key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be an object"
                          if name else "config root must be a JSON object")
    keys = _SCHEMA[section]
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key {_dotted(name, key)!r}; "
                              f"{name or 'the config root'} takes "
                              f"{', '.join(keys)}")
    parsed = {}
    for key, (kind, default, *bound) in keys.items():
        value, full = raw.get(key), _dotted(name, key)
        if value is None and (key not in raw or not kind.startswith("object")):
            if default is _REQUIRED:
                raise ConfigError(f"{full} is required")
            parsed[key] = default
        elif kind == "object":
            parsed[key] = _parse(value, _dotted(section, key), full)
        elif kind == "objects":
            if not isinstance(value, list):
                raise ConfigError(f"{full} must be an array, got {value!r}")
            parsed[key] = [_parse(v, _dotted(section, key), f"{full}[{i}]")
                           for i, v in enumerate(value)]
        else:
            parsed[key] = _check(value, kind, full, *bound)
    return parsed


def _dotted(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _check(value, kind: str, name: str, lower=None, upper=None):
    """A non-null str, point, points, int or float ``value`` of field
    ``name``, converted to the kind and within its bounds, or a ConfigError
    naming the field."""
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if kind in ("point", "points"):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be an array, got {value!r}")
        return [_check(v, "point" if kind == "points" and isinstance(v, list)
                       else "float", f"{name}[{i}]")
                for i, v in enumerate(value)]
    want = "an integer" if kind == "int" else "a number"
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind == "int" and isinstance(value, float)
                and not value.is_integer())):
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    try:
        out = int(value) if kind == "int" else float(value)
    except OverflowError:  # float() of an int beyond the float range
        out = math.inf
    if kind == "float" and not math.isfinite(out):  # an int is finite
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if lower is not None and (out < lower if kind == "int" else out <= lower):
        raise ConfigError(f"{name} must be {'>=' if kind == 'int' else '>'} "
                          f"{lower}, got {value!r}")
    if upper is not None and out > upper:
        raise ConfigError(f"{name} must be <= {upper}, got {value!r}")
    return out


def _check_grids(cfg: dict, dim: int):
    """A ConfigError naming the first grid field whose grid has more than
    MAX_GRID_POINTS points in ``dim`` dimensions."""
    top = round(MAX_GRID_POINTS ** (1.0 / dim))   # the largest resolution
    if top ** dim > MAX_GRID_POINTS:                # allowed, once the float
        top -= 1                                    # root is rounded down
    for section, key in _GRID_FIELDS:
        if cfg[section] is not None and cfg[section][key] > top:
            raise ConfigError(f"{section}.{key} must be <= {top} for a {dim}-D "
                              f"functional (at most {MAX_GRID_POINTS} grid "
                              f"points), got {cfg[section][key]!r}")


@contextmanager
def _naming(name: str):
    """Re-raise a library error from the block as a ConfigError naming the
    config field (or section) ``name`` that caused it."""
    try:
        yield
    except (KeyError, ValueError, PasslabError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from None


def _build_field(f: dict) -> ScalarField:
    if f["catalog"] is not None and f["poly"] is not None:
        raise ConfigError("functional takes one of functional.catalog and "
                          "functional.poly, got both")
    if f["catalog"] is not None:
        with _naming("functional.catalog"):
            return catalog_field(f["catalog"])
    if f["poly"] is not None:
        with _naming("functional.poly"):
            return polynomial_field(f["poly"]["dim"], [
                (t["exps"], t["coef"]) for t in f["poly"]["terms"]])
    raise ConfigError("functional needs a functional.catalog name or a "
                      "functional.poly object")


def _build_box(cfg: dict, field: ScalarField) -> DomainBox:
    if cfg["box"] is not None:
        with _naming("box"):
            box = DomainBox(cfg["box"]["lo"], cfg["box"]["hi"])
    elif cfg["functional"]["catalog"] is None:
        raise ConfigError("poly functionals require an explicit box")
    else:
        box = default_box(cfg["functional"]["catalog"])
    if box.dim != field.dim:
        raise ConfigError("box dimension does not match the functional")
    return box


def _instance(cfg, field, box) -> MountainPassInstance:
    m = cfg["minimax"]
    with _naming("minimax"):
        return MountainPassInstance(field, box, m["pin_zero"], m["pin_e"],
                                    m["pin_mode"])


def _oracle(o: dict, field, box, a, b, name_a: str, name_b: str):
    """The oracle grid and the nodes that points a and b snap to, which
    must differ."""
    with _naming("oracle"):
        g = GridGraph.from_field(field, box, o["resolution"], o["connectivity"])
    p, q = g.nearest_node(a), g.nearest_node(b)
    if p == q:
        raise ConfigError(f"{name_a} and {name_b} snap to the same oracle grid "
                          f"node {p}; raise oracle.resolution")
    return g, p, q


def _to_jsonable(obj):
    """obj with numpy arrays and scalars as Python lists and numbers, and
    every non-finite float (NaN, +-inf) at any depth as null."""
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed config, the field and its box, and
# returns (payload, checks)


def _run_deform(cfg, field, box, seed, out_dir):
    d = cfg["deformation"]
    with _naming("deformation.d_spec"):
        part = BandPartition(field, box, d["c"], d["eps"],
                             RegionSpec(**(d["d_spec"] or {})))
    with _naming("deformation.backend or deformation.resolution"):
        backend = build_backend(part, d["backend"], d["resolution"])
    try:
        with _naming("deformation.step"):
            df = DeformationField(backend, d["step"], d["record_every"])
    except OverflowError as exc:   # the horizon 2 eps
        raise ConfigError(f"bad deformation.eps: {exc}") from None
    if len(df.schedule) * d["samples"] > MAX_RECORDED_STATES:
        raise ConfigError(
            f"deformation.samples x recorded states must be <= "
            f"{MAX_RECORDED_STATES}, got {d['samples']} x {len(df.schedule)}; "
            f"raise deformation.step or deformation.record_every, or lower "
            f"deformation.samples")
    try:
        report = verify_deformation(df, d["samples"], seed)
    except VectorFieldSingular as exc:   # a critical point in the band
        payload = {"error": str(exc), "point": exc.point}
        checks = [{"name": "band_gradient_hypothesis", "ok": False}]
    else:
        payload = report.to_dict()
        checks = [
            {"name": "a_prime_identity", "ok": report.a_prime_violations == 0},
            {"name": "speed_bound", "ok": report.speed_violations == 0},
            {"name": "conditional_b_prime",
             "ok": report.b_prime["confined_satisfying"]
                   == report.b_prime["confined_in_B"]},
            {"name": "conditional_c_prime",
             "ok": report.c_prime["confined_satisfying"]
                   == report.c_prime["confined_in_C"]},
        ]
    _dump_psi_grid(df, box, d["dump_resolution"],
                   os.path.join(out_dir, "psi_grid.csv"))
    if isinstance(df.backend, SampledBackend):
        export_region_clouds(df.backend, os.path.join(out_dir, "region_clouds.csv"))
    return payload, checks


def _dump_psi_grid(df, box, resolution, path):
    pts = box.grid(resolution)
    data = np.column_stack([pts, df.field.evaluate(pts), df.psi(pts)])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["x", "y", "z"][:box.dim] + ["phi", "psi"]) + "\n")
        write_rows(fh, data, ["{:.18e}"] * data.shape[1], "\n")


def export_region_clouds(backend, path: str):
    """CSV dump (coords, phi, tag) of the backend's cached region clouds,
    as Python's csv module writes the rows (floats as repr, CRLF line
    ends)."""
    if not isinstance(backend, SampledBackend):
        raise ValueError("only the sampled backend caches region clouds")
    dim = backend.part.field.dim
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["x", "y", "z"][:dim] + ["phi", "tag"]) + "\r\n")
        for tag, pts in backend.clouds.items():
            write_rows(fh, np.column_stack([pts, backend.cloud_phi[tag]]),
                       ["{!r}"] * (dim + 1), f",{tag}\r\n")


def _run_minimax(cfg, field, box, seed, out_dir):
    m, o = cfg["minimax"], cfg["oracle"]
    inst = _instance(cfg, field, box)
    with _naming("minimax.M"):
        check_m(m["M"])
    if o is not None:
        g, p, q = _oracle(o, field, box, inst.pin_zero, inst.pin_e,
                          "minimax.pin_zero", "minimax.pin_e")
    kw = dict(ensemble_size=m["ensemble_size"], M=m["M"],
              max_iters=m["max_iters"], tol=m["tol"], seed=seed)
    eps = m["conclusions_eps"]
    r1, r2 = optimize_levels(inst, **kw)
    conclusions = check_conclusions(inst, r1, r2, eps)
    payload = {"c1": r1.to_dict(), "c2": r2.to_dict(),
               "conclusions_eps": eps, "conclusions": conclusions}
    checks = [
        {"name": "c1_history_nondecreasing",
         "ok": all(b >= a for a, b in zip(r1.history, r1.history[1:]))},
        {"name": "c2_history_nonincreasing",
         "ok": all(b <= a for a, b in zip(r2.history, r2.history[1:]))},
        {"name": "c1_below_pin_values",
         "ok": r1.value <= min(float(field.evaluate(inst.pin_zero)),
                               float(field.evaluate(inst.pin_e))) + 1e-12},
        {"name": "c2_above_pin_values",
         "ok": r2.value >= max(float(field.evaluate(inst.pin_zero)),
                               float(field.evaluate(inst.pin_e))) - 1e-12},
    ]
    if o is not None:
        ob = bottleneck_value(g, p, q)
        ow = widest_value(g, p, q)
        payload["oracle"] = {"bottleneck": ob.value, "widest": ow.value}
        checks.append({"name": "c2_within_0.03_of_oracle",
                       "ok": abs(r2.value - ob.value) <= 0.03})
        checks.append({"name": "c1_within_0.03_of_oracle",
                       "ok": abs(r1.value - ow.value) <= 0.03})
    r1.witness_path.to_csv(os.path.join(out_dir, "witness_c1.csv"), field)
    r2.witness_path.to_csv(os.path.join(out_dir, "witness_c2.csv"), field)
    return payload, checks


def _run_oracle(cfg, field, box, seed, out_dir):
    o = cfg["oracle"]
    for key in ("p", "q"):
        if o[key] is None or len(o[key]) != box.dim:
            raise ConfigError(f"oracle.{key} must be a point with {box.dim} "
                              f"coordinates, got {o[key]!r}")
        if not box.contains(o[key]):
            raise ConfigError(f"oracle.{key} {o[key]!r} must lie in the box "
                              f"[{box.lo.tolist()}, {box.hi.tolist()}]")
    g, p, q = _oracle(o, field, box, o["p"], o["q"], "oracle.p", "oracle.q")
    ob = bottleneck_value(g, p, q)
    ow = widest_value(g, p, q)
    clusters = critical_scan(field, box, o["scan_resolution"], o["grad_tol"])
    payload = {"bottleneck": ob.to_dict(), "widest": ow.to_dict(),
               "critical_clusters": clusters}
    vp, vq = float(g.values.ravel()[p]), float(g.values.ravel()[q])
    checks = [
        {"name": "bottleneck_at_least_endpoint_values",
         "ok": ob.value >= max(vp, vq)},
        {"name": "widest_at_most_endpoint_values",
         "ok": ow.value <= min(vp, vq)},
    ]
    return payload, checks


def _run_pscheck(cfg, field, box, seed, out_dir):
    p = cfg["ps"]
    rep = ps_probe(field, box, p["level"], p["band_halfwidth"],
                   samples=p["samples"], seed=seed)
    return rep.to_dict(), []


def _run_proof_trace(cfg, field, box, seed, out_dir):
    inst = _instance(cfg, field, box)
    t = cfg["proof_trace"]
    with _naming("proof_trace"):
        trace = trace_proof_argument(inst, t["c1"], t["c2"], t["eps"])
    checks = [{"name": "eps1_arithmetic",
               "ok": trace.eps1 == min(abs(t["c2"] - t["c1"]) / 4.0, t["eps"])}]
    return trace.to_dict(), checks


def _run_geometry(cfg, field, box, seed, out_dir):
    inst = _instance(cfg, field, box)
    g = cfg["geometry"]
    if g["r"] is None:
        raise ConfigError("geometry.r is required")
    res = check_mpt_geometry(inst, g["r"], g["sphere_samples"], seed)
    return res.to_dict(), []


# subcommand -> (runner, the config sections it requires)
_SUBCOMMANDS = {
    "deform": (_run_deform, ("deformation",)),
    "minimax": (_run_minimax, ("minimax",)),
    "oracle": (_run_oracle, ("oracle",)),
    "pscheck": (_run_pscheck, ("ps",)),
    "proof-trace": (_run_proof_trace, ("minimax", "proof_trace")),
    "geometry": (_run_geometry, ("minimax", "geometry")),
}


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config {path}: not UTF-8 text ({exc.reason} "
                          f"at byte {exc.start})") from None
    except ValueError as exc:   # not JSON, or an integer past 4300 digits
        raise ConfigError(f"--config {path}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="passlab", description="deformation-flow and minimax experiments")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when an invariant check fails")
    args = parser.parse_args(argv)
    run, sections = _SUBCOMMANDS[args.subcommand]

    try:
        raw = _load_config(args.config)
        cfg = _parse(raw)
        for name in sections:
            if cfg[name] is None:
                raise ConfigError(f"config is missing required section {name!r}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        seed = cfg["seed"] if args.seed is None else args.seed
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot make the output "
                              f"directory ({exc.strerror})") from None
        t0 = time.perf_counter()
        field = _build_field(cfg["functional"])
        box = _build_box(cfg, field)
        _check_grids(cfg, box.dim)
        payload, checks = run(cfg, field, box, seed, args.out)
        wall_ms = (time.perf_counter() - t0) * 1000.0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PasslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "config": raw,
        "version": __version__,
        "payload": _to_jsonable({"result": payload, "checks": checks,
                                 "seed": seed}),
        "wall_ms": wall_ms,
    }
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
    if args.strict and any(not c["ok"] for c in checks):
        failed = [c["name"] for c in checks if not c["ok"]]
        print(f"strict-mode check failure: {failed}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
