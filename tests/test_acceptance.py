"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints "criterion N (label): PASS/FAIL" and asserts both the
substantive claim and its wall-clock budget.
"""
import json
import time

import numpy as np
import pytest

from passlab import (BandPartition, DeformationField, DeformationParams,
                     DomainBox, FlowConfig, GridGraph,
                     MountainPassInstance, RegionSpec, RegionTag,
                     bottleneck_value, build_backend, catalog_field,
                     catalog_names, check_conclusions, default_box,
                     enumerate_small, eta, gradient_check, optimize_c1,
                     optimize_c2, ps_probe, psi, trace_proof_argument,
                     verify_deformation, widest_value)
from passlab.cli import main as cli_main


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def affine_verification():
    """Criterion 4's run, shared with criterion 2's speed audit."""
    part = BandPartition(catalog_field("affine"), default_box("affine"),
                         DeformationParams(0.0, 0.5))
    df = DeformationField(part, build_backend(part))
    t0 = time.perf_counter()
    rep = verify_deformation(df, FlowConfig(), samples=100, seed=0)
    return rep, time.perf_counter() - t0


def test_criterion_01_cutoff_suite():
    t0 = time.perf_counter()
    violations = 0
    configs = [("affine", "first_order")]
    for name in ("paraboloid", "well_to_saddle"):
        configs.append((name, "sampled"))
    for name, kind in configs:
        f = catalog_field(name)
        c = 0.0 if name == "affine" else 1.0
        eps = 0.5 if name == "affine" else 0.1
        part = BandPartition(f, default_box(name), DeformationParams(c, eps))
        backend = build_backend(part, kind, 201)
        pts = part.box.sample(np.random.default_rng(0), 10_000)
        vals = np.asarray(psi(part, backend, pts))
        tags = part.classify(pts)
        violations += int(np.sum(np.abs(vals) > 1.0))
        violations += int(np.sum(vals[tags == RegionTag.B] != 1.0))
        violations += int(np.sum(vals[tags == RegionTag.C] != -1.0))
        violations += int(np.sum(vals[tags == RegionTag.OUTSIDE] != 0.0))
        violations += int(np.sum(vals[tags == RegionTag.D] != 0.0))
    dt = time.perf_counter() - t0
    _verdict(1, "cutoff suite", violations == 0 and dt < 10.0,
             f"violations={violations}, {dt:.1f}s")


def test_criterion_02_speed_bound(affine_verification):
    rep, _ = affine_verification
    ok = rep.speed_violations == 0 and rep.speed_checked_states > 0
    _verdict(2, "speed bound", ok,
             f"states={rep.speed_checked_states}, "
             f"violations={rep.speed_violations}, max={rep.speed_max_norm:.6f}")


def test_criterion_03_identity_exactness():
    t0 = time.perf_counter()
    f = catalog_field("affine")
    box = DomainBox(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    part = BandPartition(f, box, DeformationParams(0.0, 0.5),
                         RegionSpec.level_set(0.0))
    df = DeformationField(part, build_backend(part))
    rng = np.random.default_rng(1)
    pts = box.sample(rng, 4000)
    outside = pts[part.classify(pts) == RegionTag.OUTSIDE][:800]
    d_pts = np.column_stack([np.zeros(200), rng.uniform(-2, 2, 200)])
    sample = np.concatenate([outside, d_pts])
    assert len(sample) == 1000
    cfg = FlowConfig()
    exact = sum(1 for u in sample if np.array_equal(eta(df, cfg, u), u))
    dt = time.perf_counter() - t0
    _verdict(3, "identity exactness", exact == 1000 and dt < 5.0,
             f"bit-exact {exact}/1000, {dt:.1f}s")


def test_criterion_04_eq31_residual(affine_verification):
    rep, dt = affine_verification
    ok = (rep.eq31_max_residual <= 1e-4
          and rep.b_prime["confined_in_B"] == 0
          and rep.c_prime["confined_in_C"] == 0
          and rep.b_prime["confined_satisfying"] == rep.b_prime["confined_in_B"]
          and rep.c_prime["confined_satisfying"] == rep.c_prime["confined_in_C"]
          and dt < 30.0)
    _verdict(4, "derivative identity residual", ok,
             f"residual={rep.eq31_max_residual:.2e}, "
             f"confined B/C={rep.b_prime['confined_in_B']}/"
             f"{rep.c_prime['confined_in_C']}, {dt:.1f}s")


def test_criterion_05_oracle_self_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    mismatches = 0
    for _ in range(100):
        g = GridGraph(rng.uniform(-1, 1, size=(4, 4)),
                      connectivity=int(rng.choice([4, 8])))
        p, q = (int(i) for i in rng.choice(16, size=2, replace=False))
        if bottleneck_value(g, p, q).value \
                != enumerate_small(g, p, q, "bottleneck").value:
            mismatches += 1
        if widest_value(g, p, q).value \
                != enumerate_small(g, p, q, "widest").value:
            mismatches += 1
    dt = time.perf_counter() - t0
    _verdict(5, "oracle self-validation", mismatches == 0 and dt < 30.0,
             f"mismatches={mismatches}, {dt:.1f}s")


def test_criterion_06_well_to_saddle_minimax():
    t0 = time.perf_counter()
    f = catalog_field("well_to_saddle")
    box = default_box("well_to_saddle")
    g = GridGraph.from_field(f, box, 513)
    oracle_c2 = bottleneck_value(g, g.nearest_node([0.0, 0.0]),
                                 g.nearest_node([1.0, 0.0])).value
    inst = MountainPassInstance(f, box, np.array([0.0, 0.0]),
                                np.array([1.0, 0.0]))
    r1 = optimize_c1(inst, seed=0)
    r2 = optimize_c2(inst, seed=0)
    conclusions = check_conclusions(inst, r1, r2, eps=0.05)
    dt = time.perf_counter() - t0
    ok = (abs(oracle_c2 - 1.0) <= 0.02
          and abs(r2.value - oracle_c2) <= 0.03
          and abs(r1.value) <= 0.01
          and np.linalg.norm(r2.witness_point - [1.0, 0.0]) <= 0.05
          and all(conclusions[k]["holds"] for k in ("I", "II", "III", "IV"))
          and conclusions["II"]["grad_norm"] <= 0.1
          and conclusions["IV"]["grad_norm"] <= 0.1
          and dt < 120.0)
    _verdict(6, "well_to_saddle minimax", ok,
             f"oracle={oracle_c2:.4f}, c2={r2.value:.4f}, c1={r1.value:.4f}, "
             f"{dt:.1f}s")


def test_criterion_07_paraboloid_diagnostic():
    t0 = time.perf_counter()
    f = catalog_field("paraboloid")
    box = default_box("paraboloid")
    inst = MountainPassInstance(f, box, np.array([0.0, 0.0]),
                                np.array([1.0, 0.0]))
    r1 = optimize_c1(inst, seed=0)
    r2 = optimize_c2(inst, seed=0)
    band_min_grad = ps_probe(f, box, float(r2.value), band_halfwidth=0.02,
                             samples=48, seed=0).band_min_grad
    conclusions = check_conclusions(inst, r1, r2, eps=0.05)
    dt = time.perf_counter() - t0
    ok = (abs(r1.value) <= 0.01 and abs(r2.value - 1.0) <= 0.02
          and abs(band_min_grad - 2.0) <= 0.05
          and not conclusions["IV"]["holds"]
          and dt < 60.0)
    _verdict(7, "paraboloid diagnostic", ok,
             f"c1={r1.value:.4f}, c2={r2.value:.4f}, "
             f"band_min_grad={band_min_grad:.4f}, "
             f"IV holds={conclusions['IV']['holds']}, {dt:.1f}s")


def test_criterion_08_proof_tracer():
    t0 = time.perf_counter()
    f = catalog_field("well_to_saddle")
    inst = MountainPassInstance(f, default_box("well_to_saddle"),
                                np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    trace = trace_proof_argument(inst, 0.0, 1.0, 0.3)
    steps = {s["name"]: s for s in trace.steps}
    dt = time.perf_counter() - t0
    ok = (trace.eps1 == 0.25
          and steps["level_separation"]["verdict"] == "holds"
          and steps["pin_zero_fixed"]["verdict"] == "holds"
          and steps["pin_e_fixed"]["verdict"] == "holds"
          and dt < 60.0)
    _verdict(8, "proof tracer arithmetic", ok,
             f"eps1={trace.eps1}, "
             f"separation={steps['level_separation']['verdict']}, "
             f"pins={steps['pin_zero_fixed']['verdict']}/"
             f"{steps['pin_e_fixed']['verdict']}, {dt:.1f}s")


def test_criterion_09_ps_probes():
    t0 = time.perf_counter()
    vac = ps_probe(catalog_field("paraboloid"), default_box("paraboloid"),
                   1.0, 0.1, samples=48, seed=0)
    con = ps_probe(catalog_field("well_to_saddle"),
                   default_box("well_to_saddle"), 1.0, 0.05,
                   samples=48, seed=0)
    esc = ps_probe(catalog_field("exp_decay"), default_box("exp_decay"),
                   0.0, 0.05, samples=48, seed=0)
    dt = time.perf_counter() - t0
    cluster_ok = con.verdict == "Consistent" and any(
        np.linalg.norm(np.asarray(p) - [1.0, 0.0]) <= 0.05
        for p in con.accumulation_points)
    ok = (vac.verdict == "Vacuous" and 1.85 <= vac.band_min_grad <= 1.95
          and cluster_ok
          and esc.verdict == "EscapingTrend" and len(esc.sample_sequence) > 0
          and dt < 60.0)
    _verdict(9, "PS probes", ok,
             f"{vac.verdict}/{vac.band_min_grad:.3f}, {con.verdict}, "
             f"{esc.verdict}, {dt:.1f}s")


def test_criterion_10_gradient_audit():
    t0 = time.perf_counter()
    worst = {}
    for name in catalog_names():
        f = catalog_field(name)
        rep = gradient_check(f, default_box(name), samples=1000, step=1e-4)
        worst[name] = rep["max_rel_error"]
    dt = time.perf_counter() - t0
    ok = all(e < 1e-5 for e in worst.values()) and dt < 10.0
    _verdict(10, "gradient audit", ok,
             f"max_rel_error={max(worst.values()):.2e}, {dt:.1f}s")


def test_criterion_11_determinism(tmp_path):
    configs = {
        "well_to_saddle": {
            "functional": {"catalog": "well_to_saddle"},
            "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0],
                        "conclusions_eps": 0.05},
            "oracle": {"resolution": 257},
            "seed": 0,
        },
        "paraboloid": {
            "functional": {"catalog": "paraboloid"},
            "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0],
                        "conclusions_eps": 0.05},
            "seed": 0,
        },
    }
    identical = True
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            assert cli_main(["minimax", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            payloads.append(json.dumps(report["payload"], sort_keys=True))
        identical &= payloads[0] == payloads[1]
    _verdict(11, "determinism", identical,
             "byte-identical payloads across repeated runs")
