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
import os
import sys
import time

import numpy as np

from . import __version__
from .bands import (BandPartition, DeformationParams, RegionSpec,
                    SampledBackend, build_backend, export_region_clouds, psi)
from .errors import ConfigError, PasslabError
from .fields import (DomainBox, ScalarField, catalog_field, default_box,
                     polynomial_field, gradient_check)
from .flow import DeformationField, FlowConfig, verify_deformation
from .gridoracle import GridGraph, bottleneck_value, widest_value, critical_scan
from .minimax import (check_conclusions, check_mpt_geometry, optimize_c1,
                      optimize_c2, ps_probe, trace_proof_argument)
from .paths import MountainPassInstance


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required section {key!r}")
    return cfg[key]


def _build_field(cfg: dict) -> ScalarField:
    spec = _require(cfg, "functional")
    if "catalog" in spec:
        try:
            return catalog_field(spec["catalog"])
        except KeyError as exc:
            raise ConfigError(str(exc))
    if "poly" in spec:
        p = spec["poly"]
        try:
            return polynomial_field(int(p["dim"]),
                                    [(t["exps"], t["coef"]) for t in p["terms"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad poly spec: {exc}")
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
    try:
        params = DeformationParams(float(d["c"]), float(d["eps"]))
        part = BandPartition(field, box, params, _build_d_spec(d.get("d_spec", {})))
        backend = build_backend(part, d.get("backend", "sampled"),
                                int(d.get("resolution", 201)))
    except (KeyError, TypeError, ValueError, PasslabError) as exc:
        raise ConfigError(f"bad deformation section: {exc}")
    fcfg = FlowConfig(step=d.get("step"), record_every=int(d.get("record_every", 1)))
    return DeformationField(field, part, backend), fcfg, d


def _instance(cfg, field, box) -> MountainPassInstance:
    m = _require(cfg, "minimax")
    try:
        return MountainPassInstance(
            field, box,
            np.asarray(m["pin_zero"], float), np.asarray(m["pin_e"], float),
            m.get("pin_mode", "interior"),
            cfg.get("geometry", {}).get("r"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad minimax section: {exc}")


def _oracle_grid(o: dict, field, box) -> GridGraph:
    try:
        return GridGraph.from_field(field, box, int(o.get("resolution", 257)),
                                    int(o.get("connectivity", 8)))
    except (TypeError, ValueError) as exc:
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
    report = verify_deformation(df, fcfg, int(d.get("samples", 1000)), seed)
    res = int(d.get("dump_resolution", 101))
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
    o = cfg.get("oracle")
    if o:
        g = _oracle_grid(o, field, box)
        p, q = _oracle_nodes(g, inst.pin_zero, inst.pin_e,
                             "minimax.pin_zero", "minimax.pin_e")
    kw = dict(ensemble_size=int(m.get("ensemble_size", 8)),
              M=int(m.get("M", 32)), max_iters=int(m.get("max_iters", 200)),
              tol=float(m.get("tol", 1e-6)), seed=seed)
    r1 = optimize_c1(inst, **kw)
    r2 = optimize_c2(inst, **kw)
    eps = float(m.get("conclusions_eps", 0.05))
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
    if o:
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
    try:
        scan_res = int(o.get("scan_resolution", 201))
        grad_tol = float(o.get("grad_tol", 0.05))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad oracle.scan_resolution or oracle.grad_tol: {exc}")
    if scan_res < 3:
        raise ConfigError("oracle.scan_resolution must be >= 3")
    if not grad_tol > 0:
        raise ConfigError("oracle.grad_tol must be > 0")
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
    rep = ps_probe(field, box, float(p["level"]),
                   float(p.get("band_halfwidth", 0.1)),
                   samples=int(p.get("samples", 64)), seed=seed)
    return rep.to_dict(), []


def _run_proof_trace(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    inst = _instance(cfg, field, box)
    t = _require(cfg, "proof_trace")
    try:
        trace = trace_proof_argument(inst, float(t["c1"]), float(t["c2"]),
                                     float(t["eps"]))
    except PasslabError as exc:
        raise ConfigError(str(exc))
    checks = [{"name": "eps1_arithmetic",
               "ok": trace.eps1 == min(abs(float(t["c2"]) - float(t["c1"])) / 4.0,
                                       float(t["eps"]))}]
    return trace.to_dict(), checks


def _run_geometry(cfg, seed, out_dir):
    field = _build_field(cfg)
    box = _build_box(cfg, field)
    inst = _instance(cfg, field, box)
    g = _require(cfg, "geometry")
    if inst.radius is None:
        raise ConfigError("geometry section requires 'r'")
    res = check_mpt_geometry(inst, int(g.get("sphere_samples", 4096)), seed)
    return res.to_dict(), []


_SUBCOMMANDS = {
    "deform": _run_deform,
    "minimax": _run_minimax,
    "oracle": _run_oracle,
    "pscheck": _run_pscheck,
    "proof-trace": _run_proof_trace,
    "geometry": _run_geometry,
}


def _validate_common(cfg: dict):
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    d = cfg.get("deformation")
    if d is not None and float(d.get("eps", 1.0)) <= 0:
        raise ConfigError("deformation.eps must be > 0")
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")


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
        with open(args.config) as fh:
            cfg = json.load(fh)
        _validate_common(cfg)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        payload, checks = _SUBCOMMANDS[args.subcommand](cfg, seed, args.out)
        wall_ms = (time.perf_counter() - t0) * 1000.0
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
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
