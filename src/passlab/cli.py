"""Config-driven experiment runner.

    passlab <subcommand> --config cfg.json --out outdir [--seed N] [--strict]

Subcommands: deform, minimax, oracle, pscheck, proof-trace, geometry.
Each run writes report.json (keys: config, version, payload, wall_ms) plus
CSV artifacts into the output directory.  Exit codes: 0 ok, 1 internal
error, 2 invalid config, 3 a strict-mode check failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bands import (BandPartition, DeformationParams, RegionSpec,
                    SampledBackend, build_backend, export_region_clouds, psi)
from .errors import ConfigError, InvalidM, PasslabError
from .fields import (DomainBox, ScalarField, catalog_field, default_box,
                     polynomial_field)
from .flow import DeformationField, FlowConfig, verify_deformation
from .gridoracle import GridGraph, bottleneck_value, widest_value, critical_scan
from .minimax import (check_conclusions, check_mpt_geometry, optimize_c1,
                      optimize_c2, ps_probe, trace_proof_argument)
from .paths import MountainPassInstance, check_m


def _object(value, name: str) -> dict:
    """A config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required section {key!r}")
    return _object(cfg[key], key)


_REQUIRED = object()


def _number(sec: dict, name: str, kind=float, default=_REQUIRED,
            positive: bool = False):
    """Field ``name`` ("section.key") of ``sec`` as a finite int or float.

    A missing or null field takes ``default`` and is an error without one.
    A boolean, a non-number, a fractional value for an int, or with
    ``positive`` a value <= 0, is a ConfigError naming the field.
    """
    value = sec.get(name.rpartition(".")[2])
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        return default
    want = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {want}, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if positive and out <= 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return out


def _build_field(cfg: dict) -> ScalarField:
    spec = _require(cfg, "functional")
    if "catalog" in spec:
        name = spec["catalog"]
        if not isinstance(name, str):
            raise ConfigError(f"functional.catalog must be a string, got {name!r}")
        try:
            return catalog_field(name)
        except KeyError as exc:
            raise ConfigError(str(exc))
    if "poly" in spec:
        p = spec["poly"]
        try:
            return polynomial_field(int(p["dim"]),
                                    [(t["exps"], t["coef"]) for t in p["terms"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad functional.poly: {exc}")
    raise ConfigError("functional must contain 'catalog' or 'poly'")


def _build_box(cfg: dict, field: ScalarField) -> DomainBox:
    if "box" in cfg:
        b = cfg["box"]
        try:
            box = DomainBox(np.asarray(b["lo"], float), np.asarray(b["hi"], float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad box: {exc}")
    else:
        name = cfg.get("functional", {}).get("catalog")
        if name is None:
            raise ConfigError("poly functionals require an explicit box")
        box = default_box(name)
    if box.dim != field.dim:
        raise ConfigError("box dimension does not match the functional")
    return box


def _build_d_spec(d: dict) -> RegionSpec:
    kind = d.get("kind", "empty")
    if kind == "empty":
        return RegionSpec.empty()
    if kind == "level_set":
        return RegionSpec.level_set(d["value"], d.get("thickness"))
    if kind == "point_cloud":
        return RegionSpec.point_cloud(d["points"])
    raise ConfigError(f"unknown d_spec kind {kind!r}")


def _deformation_objects(cfg, field, box):
    d = _require(cfg, "deformation")
    d_spec = _object(d.get("d_spec", {}), "deformation.d_spec")
    params = DeformationParams(_number(d, "deformation.c"),
                               _number(d, "deformation.eps", positive=True))
    resolution = _number(d, "deformation.resolution", int, 201)
    fcfg = FlowConfig(
        step=_number(d, "deformation.step", default=None, positive=True),
        record_every=_number(d, "deformation.record_every", int, 1, positive=True))
    try:
        part = BandPartition(field, box, params, _build_d_spec(d_spec))
    except (KeyError, TypeError, ValueError, PasslabError) as exc:
        raise ConfigError(f"bad deformation.d_spec: {exc}")
    try:
        backend = build_backend(part, d.get("backend"), resolution)
    except ValueError as exc:
        raise ConfigError(
            f"bad deformation.backend or deformation.resolution: {exc}")
    df = DeformationField(part, backend)
    try:
        fcfg.grid(df.horizon)
    except ValueError as exc:
        raise ConfigError(f"bad deformation.step: {exc}")
    return df, fcfg, d


def _instance(cfg, field, box) -> MountainPassInstance:
    m = _require(cfg, "minimax")
    g = _require(cfg, "geometry") if "geometry" in cfg else {}
    radius = _number(g, "geometry.r", default=None, positive=True)
    try:
        return MountainPassInstance(
            field, box,
            np.asarray(m["pin_zero"], float), np.asarray(m["pin_e"], float),
            m.get("pin_mode", "interior"), radius)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad minimax section: {exc}")


def _oracle_grid(o: dict, field, box) -> GridGraph:
    resolution = _number(o, "oracle.resolution", int, 257)
    connectivity = _number(o, "oracle.connectivity", int, 8)
    try:
        return GridGraph.from_field(field, box, resolution, connectivity)
    except ValueError as exc:
        raise ConfigError(f"bad oracle.resolution or oracle.connectivity: {exc}")


def _oracle_point(o: dict, key: str, dim: int) -> np.ndarray:
    if key not in o:
        raise ConfigError(f"oracle.{key} is required")
    try:
        point = np.asarray(o[key], float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad oracle.{key}: {exc}")
    if point.shape != (dim,):
        raise ConfigError(f"oracle.{key} must be a point with {dim} coordinates")
    return point


def _oracle_nodes(g: GridGraph, a, b, name_a: str, name_b: str):
    """Snap two points to grid nodes, which must differ."""
    p, q = g.nearest_node(a), g.nearest_node(b)
    if p == q:
        raise ConfigError(f"{name_a} and {name_b} snap to the same oracle grid "
                          f"node {p}; raise oracle.resolution")
    return p, q


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and (obj != obj):  # NaN -> null for valid JSON
        return None
    return obj


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, checks)


def _run_deform(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    df, fcfg, d = _deformation_objects(cfg, field, box)
    samples = _number(d, "deformation.samples", int, 1000, positive=True)
    res = _number(d, "deformation.dump_resolution", int, 101, positive=True)
    report = verify_deformation(df, fcfg, samples, seed)
    _dump_psi_grid(df, box, res, os.path.join(out_dir, "psi_grid.csv"))
    if isinstance(df.backend, SampledBackend):
        export_region_clouds(df.part, df.backend,
                             os.path.join(out_dir, "region_clouds.csv"))
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
    return report.to_dict(), checks


def _dump_psi_grid(df, box, resolution, path):
    pts = box.grid(resolution)
    phis = np.asarray(df.field.evaluate(pts))
    psis = np.asarray(df.psi(pts))
    header = ",".join(["x", "y", "z"][:box.dim] + ["phi", "psi"])
    data = np.column_stack([pts, phis, psis])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def _run_minimax(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    inst = _instance(cfg, field, box)
    m = cfg["minimax"]
    kw = dict(ensemble_size=_number(m, "minimax.ensemble_size", int, 8, positive=True),
              M=_number(m, "minimax.M", int, 32),
              max_iters=_number(m, "minimax.max_iters", int, 200, positive=True),
              tol=_number(m, "minimax.tol", float, 1e-6, positive=True), seed=seed)
    try:
        check_m(kw["M"])
    except InvalidM as exc:
        raise ConfigError(f"minimax.M: {exc}") from None
    o = _require(cfg, "oracle") if "oracle" in cfg else None
    if o is not None:
        g = _oracle_grid(o, field, box)
        p, q = _oracle_nodes(g, inst.pin_zero, inst.pin_e,
                             "minimax.pin_zero", "minimax.pin_e")
    eps = _number(m, "minimax.conclusions_eps", float, 0.05, positive=True)
    r1 = optimize_c1(inst, **kw)
    r2 = optimize_c2(inst, **kw)
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


def _run_oracle(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    o = _require(cfg, "oracle")
    g = _oracle_grid(o, field, box)
    p, q = _oracle_nodes(g, _oracle_point(o, "p", box.dim),
                         _oracle_point(o, "q", box.dim), "oracle.p", "oracle.q")
    scan_res = _number(o, "oracle.scan_resolution", int, 201)
    grad_tol = _number(o, "oracle.grad_tol", float, 0.05, positive=True)
    if scan_res < 3:
        raise ConfigError("oracle.scan_resolution must be >= 3")
    ob = bottleneck_value(g, p, q)
    ow = widest_value(g, p, q)
    clusters = critical_scan(field, box, scan_res, grad_tol)
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


def _run_pscheck(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    p = _require(cfg, "ps")
    rep = ps_probe(field, box, _number(p, "ps.level"),
                   _number(p, "ps.band_halfwidth", float, 0.1, positive=True),
                   samples=_number(p, "ps.samples", int, 64, positive=True),
                   seed=seed)
    return rep.to_dict(), []


def _run_proof_trace(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    inst = _instance(cfg, field, box)
    t = _require(cfg, "proof_trace")
    c1, c2 = _number(t, "proof_trace.c1"), _number(t, "proof_trace.c2")
    eps = _number(t, "proof_trace.eps", positive=True)
    try:
        trace = trace_proof_argument(inst, c1, c2, eps)
    except PasslabError as exc:
        raise ConfigError(str(exc))
    checks = [{"name": "eps1_arithmetic",
               "ok": trace.eps1 == min(abs(c2 - c1) / 4.0, eps)}]
    return trace.to_dict(), checks


def _run_geometry(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    inst = _instance(cfg, field, box)
    g = _require(cfg, "geometry")
    if inst.radius is None:
        raise ConfigError("geometry section requires 'r'")
    res = check_mpt_geometry(
        inst, _number(g, "geometry.sphere_samples", int, 4096, positive=True), seed)
    return res.to_dict(), []


_SUBCOMMANDS = {
    "deform": _run_deform,
    "minimax": _run_minimax,
    "oracle": _run_oracle,
    "pscheck": _run_pscheck,
    "proof-trace": _run_proof_trace,
    "geometry": _run_geometry,
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config {path}: {exc.strerror}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if "seed" in cfg and (isinstance(cfg["seed"], bool)
                          or not isinstance(cfg["seed"], int)
                          or cfg["seed"] < 0):
        raise ConfigError(f"seed must be a non-negative integer, "
                          f"got {cfg['seed']!r}")
    return cfg


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

    try:
        cfg = _load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot make the output "
                              f"directory ({exc.strerror})") from None
        t0 = time.perf_counter()
        payload, checks = _SUBCOMMANDS[args.subcommand](cfg, seed, args.out)
        wall_ms = (time.perf_counter() - t0) * 1000.0
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PasslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "config": cfg,
        "version": __version__,
        "payload": _to_jsonable({"result": payload, "checks": checks,
                                 "seed": seed}),
        "wall_ms": wall_ms,
    }
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if args.strict and any(not c["ok"] for c in checks):
        failed = [c["name"] for c in checks if not c["ok"]]
        print(f"strict-mode check failure: {failed}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
