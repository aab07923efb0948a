import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passlab import (MountainPassInstance, ScalarField, catalog_field,
                     catalog_names,
                     check_conclusions, check_mpt_geometry, default_box,
                     optimize_c1, optimize_c2, ps_probe, trace_proof_argument)
from passlab.errors import InvalidInstance

OPT_KW = dict(ensemble_size=4, M=16, max_iters=150, seed=0)


def _instance(name, e=(1.0, 0.0), r=None):
    f = catalog_field(name)
    return MountainPassInstance(f, default_box(name), np.array([0.0, 0.0]),
                                np.asarray(e, float), radius=r)


@pytest.fixture(scope="module")
def w2s_results(w2s_instance):
    return (optimize_c1(w2s_instance, **OPT_KW),
            optimize_c2(w2s_instance, **OPT_KW))


def test_c2_estimates():
    assert optimize_c2(_instance("paraboloid"), **OPT_KW).value \
        == pytest.approx(1.0, abs=0.01)
    assert optimize_c2(_instance("affine"), **OPT_KW).value \
        == pytest.approx(1.0, abs=0.01)


def test_c1_estimates():
    assert optimize_c1(_instance("paraboloid"), **OPT_KW).value \
        == pytest.approx(0.0, abs=0.01)
    assert optimize_c1(_instance("affine"), **OPT_KW).value \
        == pytest.approx(0.0, abs=0.01)


def test_w2s_minimax_values(w2s_results):
    r1, r2 = w2s_results
    assert r1.value == pytest.approx(0.0, abs=0.01)
    assert r2.value == pytest.approx(1.0, abs=0.03)
    assert np.linalg.norm(r1.witness_point - [0.0, 0.0]) <= 0.05
    assert np.linalg.norm(r2.witness_point - [1.0, 0.0]) <= 0.05


def test_history_monotone(w2s_results):
    r1, r2 = w2s_results
    assert all(b >= a for a, b in zip(r1.history, r1.history[1:]))
    assert all(b <= a for a, b in zip(r2.history, r2.history[1:]))


_UNIT = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(catalog_names()), _UNIT, _UNIT,
       st.integers(0, 2**32 - 1))
def test_histories_monotone_random_pins(name, a, b, seed):
    # a candidate is accepted only if it improves the objective, so the
    # histories are monotone for any landscape, pins in the box and seed
    f, box = catalog_field(name), default_box(name)
    z = box.lo + np.asarray(a) * (box.hi - box.lo)
    e = box.lo + np.asarray(b) * (box.hi - box.lo)
    assume(not np.array_equal(z, e))
    inst = MountainPassInstance(f, box, z, e)
    kw = dict(ensemble_size=2, M=8, max_iters=30, seed=seed)
    r1, r2 = optimize_c1(inst, **kw), optimize_c2(inst, **kw)
    assert all(y >= x for x, y in zip(r1.history, r1.history[1:]))
    assert all(y <= x for x, y in zip(r2.history, r2.history[1:]))
    assert r1.history[-1] == r1.value and r2.history[-1] == r2.value


def _negated(f):
    return ScalarField(f"-{f.name}", f.dim, lambda u: -f.eval_fn(u),
                       lambda u: -f.grad_fn(u))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(catalog_names()), _UNIT, _UNIT,
       st.sampled_from([8, 16, 32]), st.integers(0, 2**32 - 1))
def test_c1_is_c2_of_the_negated_field(name, a, b, M, seed):
    # c1(phi) = -c2(-phi), run for run: the sign fold optimize_c1 rests on
    f, box = catalog_field(name), default_box(name)
    z = box.lo + np.asarray(a) * (box.hi - box.lo)
    e = box.lo + np.asarray(b) * (box.hi - box.lo)
    assume(not np.array_equal(z, e))
    kw = dict(ensemble_size=2, M=M, max_iters=40, seed=seed)
    r1 = optimize_c1(MountainPassInstance(f, box, z, e), **kw)
    r2 = optimize_c2(MountainPassInstance(_negated(f), box, z, e), **kw)
    assert r1.value == -r2.value
    assert r1.history == [-h for h in r2.history]
    assert r1.witness_index == r2.witness_index
    assert np.array_equal(r1.witness_path.nodes, r2.witness_path.nodes)
    assert r1.witness_path.pinned == r2.witness_path.pinned
    assert (r1.member_index, r1.iterations, r1.converged) \
        == (r2.member_index, r2.iterations, r2.converged)


# optimize_c1 / optimize_c2 at their defaults on well_to_saddle with pins
# (0, 0) and e, recorded before c1 became the c2 descent on -phi; the
# witness path's nodes by the sha256 of their float64 bytes
PINNED_OPTIMA = {
    ((1.0, 0.0), "c1"): {
        "value": 0.0, "witness_point": [0.0, 0.0], "witness_index": 0,
        "iterations": 20, "converged": True, "history": [0.0] * 21,
        "member_index": 0, "nodes_sha256":
        "da97432c71f4008e22423aaa84033689cd089ec5dc64568d90f2074ca431f7cd"},
    ((1.0, 0.0), "c2"): {
        "value": 1.0, "witness_point": [1.0, 0.0], "witness_index": 16,
        "iterations": 20, "converged": True, "history": [1.0] * 21,
        "member_index": 0, "nodes_sha256":
        "da97432c71f4008e22423aaa84033689cd089ec5dc64568d90f2074ca431f7cd"},
    ((2.0, 0.0), "c1"): {
        "value": 0.0, "witness_point": [0.0, 0.0], "witness_index": 0,
        "iterations": 20, "converged": True, "history": [0.0] * 21,
        "member_index": 0, "nodes_sha256":
        "b4b8114eb124e5ce417d57269312e109f6d8128b703911c0787a8dadfad15d39"},
    ((2.0, 0.0), "c2"): {
        "value": 0.8958693082610129,
        "witness_point": [0.7077047898918662, 0.24380913470801532],
        "witness_index": 11, "iterations": 20, "converged": True,
        "history": [0.8958693082610129] * 21, "member_index": 2,
        "nodes_sha256":
        "4152b936c1b70838df04602d6fab0f7a29e26dfb092713706f1bccb06a186b8c"},
}


@pytest.mark.parametrize("e, level", sorted(PINNED_OPTIMA))
def test_optimizers_pinned(w2s_field, w2s_box, e, level):
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.0, 0.0]),
                                np.array(e))
    r = {"c1": optimize_c1, "c2": optimize_c2}[level](inst)
    got = r.to_dict()
    got["nodes_sha256"] = hashlib.sha256(r.witness_path.nodes.tobytes()).hexdigest()
    assert got == PINNED_OPTIMA[e, level]


def _trace_steps(*rows):
    return [{"name": n, "claimed": c, "observed": o, "verdict": v}
            for n, c, o, v in rows]


_PINS_FIXED = (
    ("pin_zero_fixed", "eta(0) = 0 exactly", {"max_move": 0.0}, "holds"),
    ("pin_e_fixed", "eta(e) = e exactly", {"max_move": 0.0}, "holds"),
)


def _vacuous(tag):
    return ((f"{tag}_band_path",
             f"a path with its extremum in the {tag} band exists",
             {"halvings_tried": 12}, "vacuous"),
            (f"{tag}_deformed_bound", "not evaluated", None, "vacuous"))


# trace_proof_argument on well_to_saddle with pins (0, 0) and (1, 0),
# recorded before the band ranges came from the tracer's BandPartition
PINNED_TRACES = {
    (0.0, 1.0, 0.3): {   # the criterion-8 config
        "eps": 0.3, "eps1": 0.25, "case": "C1LessC2",
        "d_choice": "level_set at the deformation level",
        "steps": _trace_steps(
            ("eps1_formula", "eps1 = min(|c2 - c1|/4, eps)", {"eps1": 0.25},
             "holds"),
            ("level_separation", "c2 > c1 + 2*eps1",
             {"c2": 1.0, "c1_plus_2eps1": 0.5}, "holds"),
            *_PINS_FIXED, *_vacuous("eps2"),
            ("eps3_band_path", "extremum within [1.15, 1.25]",
             {"eps3": 0.25, "extremum": 1.2426169599999999}, "holds"),
            ("eps3_deformed_bound", "max phi(beta) <= 0.75",
             {"observed": 1.0349875634129342}, "fails"))},
    (1.0, 0.2, 0.3): {
        "eps": 0.3, "eps1": 0.2, "case": "C1GreaterC2",
        "d_choice": "level_set at the deformation level",
        "steps": _trace_steps(
            ("eps1_formula", "eps1 = min(|c2 - c1|/4, eps)", {"eps1": 0.2},
             "holds"),
            ("level_separation", "c2 < c1 - 2*eps1",
             {"c2": 0.2, "c1_minus_2eps1": 0.6}, "holds"),
            *_PINS_FIXED, *_vacuous("eps2"), *_vacuous("eps3"))},
}


@pytest.mark.parametrize("levels", sorted(PINNED_TRACES))
def test_proof_trace_pinned(w2s_instance, levels):
    got = trace_proof_argument(w2s_instance, *levels).to_dict()
    assert got == PINNED_TRACES[levels]


def test_pins_outside_the_box_rejected(w2s_field, w2s_box):
    for bad in ([np.nan, 0.0], [50.0, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="pin_zero"):
            MountainPassInstance(w2s_field, w2s_box, np.array(bad),
                                 np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="pin_e"):
            MountainPassInstance(w2s_field, w2s_box, np.array([1.0, 0.0]),
                                 np.array(bad))


def test_bounds_vs_pins(w2s_instance, w2s_results):
    r1, r2 = w2s_results
    f = w2s_instance.field
    vals = [float(f.evaluate(w2s_instance.pin_zero)),
            float(f.evaluate(w2s_instance.pin_e))]
    assert r1.value <= min(vals) + 1e-12
    assert r2.value >= max(vals) - 1e-12


def test_witness_is_extremal_node(w2s_results, w2s_instance):
    r1, r2 = w2s_results
    f = w2s_instance.field
    assert float(f.evaluate(r1.witness_point)) == r1.value
    assert float(f.evaluate(r2.witness_point)) == r2.value
    assert np.array_equal(r1.witness_path.nodes[r1.witness_index],
                          r1.witness_point)


def test_optimizer_deterministic(w2s_instance):
    a = optimize_c2(w2s_instance, **OPT_KW)
    b = optimize_c2(w2s_instance, **OPT_KW)
    assert a.to_dict() == b.to_dict()


def test_conclusions_w2s(w2s_instance, w2s_results):
    r1, r2 = w2s_results
    out = check_conclusions(w2s_instance, r1, r2, eps=0.05)
    assert all(out[k]["holds"] for k in ("I", "II", "III", "IV"))
    assert out["II"]["grad_norm"] <= 0.1
    assert out["IV"]["grad_norm"] <= 0.1


def test_conclusions_paraboloid_eps_dependence():
    inst = _instance("paraboloid")
    r1 = optimize_c1(inst, **OPT_KW)
    r2 = optimize_c2(inst, **OPT_KW)
    small = check_conclusions(inst, r1, r2, eps=0.05)
    assert not small["IV"]["holds"]
    assert small["IV"]["grad_norm"] == pytest.approx(2.0, abs=0.05)
    large = check_conclusions(inst, r1, r2, eps=1.1)
    assert large["IV"]["holds"]


def test_proof_trace_arithmetic(w2s_instance):
    trace = trace_proof_argument(w2s_instance, 0.0, 1.0, 0.3)
    assert trace.eps1 == 0.25
    steps = {s["name"]: s for s in trace.steps}
    assert steps["eps1_formula"]["verdict"] == "holds"
    assert steps["level_separation"]["verdict"] == "holds"
    assert steps["pin_zero_fixed"]["verdict"] == "holds"
    assert steps["pin_e_fixed"]["verdict"] == "holds"


def test_proof_trace_eps1_capped(w2s_instance):
    trace = trace_proof_argument(w2s_instance, 0.0, 1.0, 0.1)
    assert trace.eps1 == 0.1


def test_proof_trace_requires_distinct_levels(w2s_instance):
    with pytest.raises(InvalidInstance):
        trace_proof_argument(w2s_instance, 0.5, 0.5, 0.3)


def test_proof_trace_records_deformed_bound(w2s_instance):
    trace = trace_proof_argument(w2s_instance, 0.0, 1.0, 0.3)
    names = [s["name"] for s in trace.steps]
    assert any(n.endswith("_band_path") for n in names)
    assert any(n.endswith("_deformed_bound") for n in names)
    for s in trace.steps:
        assert s["verdict"] in ("holds", "fails", "vacuous")


def test_ps_probe_vacuous():
    f = catalog_field("paraboloid")
    rep = ps_probe(f, default_box("paraboloid"), 1.0, 0.1, samples=48, seed=0)
    assert rep.verdict == "Vacuous"
    assert 1.85 <= rep.band_min_grad <= 1.95


def test_ps_probe_consistent():
    f = catalog_field("well_to_saddle")
    rep = ps_probe(f, default_box("well_to_saddle"), 1.0, 0.05,
                   samples=48, seed=0)
    assert rep.verdict == "Consistent"
    dists = [np.linalg.norm(np.asarray(p) - [1.0, 0.0])
             for p in rep.accumulation_points]
    assert min(dists) <= 0.05


def test_ps_probe_escaping():
    f = catalog_field("exp_decay")
    rep = ps_probe(f, default_box("exp_decay"), 0.0, 0.05, samples=48, seed=0)
    assert rep.verdict == "EscapingTrend"
    seq = np.asarray(rep.sample_sequence)
    assert len(seq) >= 2
    gns = np.asarray(f.grad_norm(seq))
    assert np.all(np.diff(gns) <= 1e-15)
    assert seq[-1][0] > seq[0][0]  # marches along increasing x


def test_geometry_w2s_holds():
    inst = _instance("well_to_saddle", e=(2.0, 0.0), r=1.0)
    res = check_mpt_geometry(inst, sphere_samples=2048, seed=0)
    assert res.verdict
    assert res.b == pytest.approx(1.0, abs=0.01)


def test_geometry_paraboloid_fails():
    inst = _instance("paraboloid", e=(1.0, 0.0), r=0.5)
    res = check_mpt_geometry(inst, sphere_samples=512, seed=0)
    assert not res.verdict
    assert res.phi_at_e > res.phi_at_zero


def test_geometry_affine_fails():
    inst = _instance("affine", e=(1.0, 0.0), r=0.5)
    res = check_mpt_geometry(inst, sphere_samples=512, seed=0)
    assert not res.verdict
    assert res.b == pytest.approx(-0.5, abs=0.01)
