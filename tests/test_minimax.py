import contextlib
import hashlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DiscretePath, DomainBox, MinimaxResult,
                     MountainPassInstance, ScalarField, catalog_field,
                     catalog_names, check_conclusions, check_mpt_geometry,
                     default_box, make_path, optimize_c1, optimize_c2,
                     optimize_levels, polynomial_field, ps_probe,
                     trace_proof_argument)
from passlab import minimax
from passlab.errors import InvalidInstance
from passlab.minimax import STALL_ITERS

OPT_KW = dict(ensemble_size=4, M=16, max_iters=150, seed=0)


def _instance(name, e=(1.0, 0.0)):
    f = catalog_field(name)
    return MountainPassInstance(f, default_box(name), np.array([0.0, 0.0]),
                                np.asarray(e, float))


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


# The member-by-member descent that the lockstep descent replaced, kept
# verbatim as the reference: _redistribute, _descend_member and the member
# loop of _optimize.

def _redistribute(nodes: np.ndarray, pinned) -> np.ndarray:
    """Arclength-uniform resampling of each segment between anchors.

    Anchors are the pinned indices plus both path endpoints; collapsed
    segments (zero length) are left alone.
    """
    M = nodes.shape[0] - 1
    anchors = sorted(set(pinned) | {0, M})
    out = nodes.copy()
    for a, b in zip(anchors[:-1], anchors[1:]):
        if b - a < 2:
            continue
        seg = nodes[a:b + 1]
        steps = np.linalg.norm(np.diff(seg, axis=0), axis=-1)
        total = steps.sum()
        if total < 1e-12:
            continue
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        targets = np.linspace(0.0, total, b - a + 1)
        for ax in range(nodes.shape[1]):
            out[a:b + 1, ax] = np.interp(targets, cum, seg[:, ax])
        out[a] = nodes[a]
        out[b] = nodes[b]
    return out


def _descend_member(inst: MountainPassInstance, path: DiscretePath,
                    sign: float, max_iters: int, tol: float):
    """Local search on one member for the inf-max of sign * phi.

    Returns (path, its node values of sign * phi, best, history, iters,
    conv); each accepted path's node values are kept, so an iteration
    evaluates phi once, on the candidate.
    """
    field = inst.field
    nodes = path.nodes.copy()
    M = len(nodes) - 1
    pinned = set(path.pinned)
    span = float(np.linalg.norm(inst.pin_e - inst.pin_zero))
    s0 = 0.2 * max(span, 1e-6)
    s = s0

    vals = sign * np.asarray(field.evaluate(nodes))
    best = float(vals.max())
    history = [best]
    stall = 0
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        j = int(np.argmax(vals))
        cand = nodes.copy()
        for k, w in ((j - 1, 0.5), (j, 1.0), (j + 1, 0.5)):
            if 0 <= k <= M and k not in pinned:
                g = sign * np.asarray(field.gradient(nodes[k]))
                gn = np.linalg.norm(g)
                if gn > 0:
                    cand[k] = cand[k] - (s * w) * g / gn
        cand = _redistribute(cand, path.pinned)
        cand = inst.box.clip(cand)
        for idx in path.pinned:
            cand[idx] = nodes[idx]
        cand_vals = sign * np.asarray(field.evaluate(cand))
        new = float(cand_vals.max())
        if new < best - 1e-15:
            rel = abs(new - best) / max(1.0, abs(best))
            nodes, vals = cand, cand_vals
            best = new
            s = min(s * 1.2, s0)
            stall = stall + 1 if rel < tol else 0
        else:
            s *= 0.5
            stall += 1
        history.append(best)
        if stall >= STALL_ITERS:
            converged = True
            break
    return DiscretePath(nodes, path.pinned), vals, best, history, iters, converged


def _optimize_by_member(inst: MountainPassInstance, sign: float, ensemble_size: int,
                        M: int, max_iters: int, tol: float, seed: int) -> MinimaxResult:
    """The ensemble descent for the inf-max level of sign * phi, reported
    for phi: value and history are multiplied back by sign."""
    if ensemble_size < 1 or max_iters < 1 or tol <= 0:
        raise ValueError("ensemble_size and max_iters must be >= 1, tol > 0")
    span = float(np.linalg.norm(inst.pin_e - inst.pin_zero))
    child_seeds = np.random.SeedSequence(seed).generate_state(ensemble_size)
    outcomes = []
    for m in range(ensemble_size):
        if m == 0:
            p0 = make_path(inst, M, init="axis")
        else:
            p0 = make_path(inst, M, init="jitter", scale=0.1 * span,
                           seed=int(child_seeds[m]))
        outcomes.append(_descend_member(inst, p0, sign, max_iters, tol))
    best_m = int(np.argmin([o[2] for o in outcomes]))
    path, vals, best, history, iters, conv = outcomes[best_m]
    w_idx = int(np.argmax(vals))
    return MinimaxResult(
        value=sign * best, witness_path=path,
        witness_point=path.nodes[w_idx].copy(), witness_index=w_idx,
        iterations=iters, converged=conv,
        history=[sign * h for h in history], member_index=best_m)


def _same_result(a: MinimaxResult, b: MinimaxResult) -> bool:
    # NaN-aware on value and history: an overflowing field gives NaN levels
    return (np.array_equal(a.value, b.value, equal_nan=True)
            and np.array_equal(a.history, b.history, equal_nan=True)
            and np.array_equal(a.witness_path.nodes, b.witness_path.nodes)
            and a.witness_path.pinned == b.witness_path.pinned
            and np.array_equal(a.witness_point, b.witness_point)
            and (a.witness_index, a.iterations, a.converged, a.member_index)
            == (b.witness_index, b.iterations, b.converged, b.member_index))


@st.composite
def _fields(draw):
    """A catalog field on its default box, a 1-D or 3-D polynomial on a box
    around the origin, or a 2-D polynomial whose values and gradients
    overflow to inf (so that descent steps put NaN nodes on a path); the
    flag says which overflows."""
    kind = draw(st.sampled_from(catalog_names() + ["poly1", "poly3", "overflow"]))
    if kind == "overflow":
        exps = st.tuples(st.integers(0, 6), st.integers(0, 2))
        terms = draw(st.lists(st.tuples(exps, st.floats(-1e305, 1e305)),
                              min_size=1, max_size=3))
        half = draw(st.floats(1.0, 10.0))
        return polynomial_field(2, terms), DomainBox([-half, -half], [half, half]), True
    if not kind.startswith("poly"):
        return catalog_field(kind), default_box(kind), False
    dim = int(kind[-1])
    exps = st.tuples(*[st.integers(0, 4 if dim == 1 else 2)] * dim)
    terms = draw(st.lists(st.tuples(exps, st.floats(-2.0, 2.0)), min_size=1,
                          max_size=4))
    half = draw(st.floats(0.5, 2.0))
    return polynomial_field(dim, terms), DomainBox(-half * np.ones(dim),
                                                   half * np.ones(dim)), False


def _pin(draw, box):
    """A point of the box whose coordinates are often on its faces."""
    return np.array([draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))
                     for lo, hi in zip(box.lo, box.hi)])


def _assert_lockstep_equals_member(inst, signs, args):
    # the lockstep descent gives, for each sign, every field of the
    # member-by-member result, whatever the block size: blocks of 1 and 3
    # start paths, and one block
    M = args[1]
    want = [_optimize_by_member(inst, sign, *args) for sign in signs]
    got = minimax._optimize(inst, signs, *args)
    assert len(got) == len(signs) and all(map(_same_result, got, want))
    for members in (1, 3):
        with mock.patch.object(minimax, "BLOCK_NODES",
                               members * len(signs) * (M + 1)):
            assert all(map(_same_result, minimax._optimize(inst, signs, *args),
                           want))


def _drawn_instance(data):
    """A drawn field, box and pin pair; the flag says whether it overflows."""
    field, box, overflows = data.draw(_fields())
    z, e = _pin(data.draw, box), _pin(data.draw, box)
    assume(not np.array_equal(z, e))
    inst = MountainPassInstance(field, box, z, e,
                                pin_mode=data.draw(st.sampled_from(["interior",
                                                                    "endpoints"])))
    return inst, overflows


def _overflow_guard(overflows):
    return (np.errstate(over="ignore", invalid="ignore") if overflows
            else contextlib.nullcontext())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lockstep_descent_equals_the_member_descent(data):
    inst, overflows = _drawn_instance(data)
    signs = data.draw(st.sampled_from([(1.0,), (-1.0,), (-1.0, 1.0)]))
    args = (data.draw(st.integers(1, 5)), data.draw(st.sampled_from([8, 12, 16, 32])),
            data.draw(st.sampled_from([1, 3, 40])), 1e-6,
            data.draw(st.integers(0, 2**32 - 1)))
    with _overflow_guard(overflows):
        _assert_lockstep_equals_member(inst, signs, args)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_optimize_levels_equals_c1_and_c2(data):
    # one descent for both levels gives what the two single-level runs give
    inst, overflows = _drawn_instance(data)
    kw = dict(ensemble_size=data.draw(st.integers(1, 5)),
              M=data.draw(st.sampled_from([8, 12, 16, 32])),
              max_iters=data.draw(st.sampled_from([1, 3, 40])),
              seed=data.draw(st.integers(0, 2**32 - 1)))
    with _overflow_guard(overflows):
        got = optimize_levels(inst, **kw)
        want = (optimize_c1(inst, **kw), optimize_c2(inst, **kw))
    assert len(got) == 2 and all(map(_same_result, got, want))


def test_lockstep_descent_with_nan_levels():
    # x^4 y times 7.5e304 overflows at every start node, so both results
    # have value NaN and history [nan, nan]; NaN != NaN made the comparison
    # fail on a matching pair
    field = polynomial_field(2, [((4, 1), 7.487268366773494e+304)])
    inst = MountainPassInstance(field, DomainBox([-7.0, -7.0], [7.0, 7.0]),
                                np.array([-7.0, -7.0]), np.array([-7.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = minimax._optimize(inst, (1.0,), 1, 8, 1, 1e-6, 0)[0]
        assert np.isnan(got.value) and len(got.history) == 2 \
            and np.isnan(got.history).all()
        _assert_lockstep_equals_member(inst, (1.0,), (1, 8, 1, 1e-6, 0))
        _assert_lockstep_equals_member(inst, (-1.0, 1.0), (1, 8, 1, 1e-6, 0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_descent_keeps_nan_nodes(seed):
    # 1e305 x^6 overflows the c1 descent's gradient, and a step puts a NaN
    # node on a path; np.interp spreads it over the segment, so the member
    # descent rejects that step, and so must the lockstep descent, also
    # beside the c2 members
    field = polynomial_field(2, [((6, 0), 1e305), ((2, 0), -1.0), ((0, 2), 1.0)])
    inst = MountainPassInstance(field, DomainBox([-10.0, -10.0], [10.0, 10.0]),
                                np.array([-9.0, 0.3]), np.array([9.0, -0.2]))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_lockstep_equals_member(inst, (-1.0,), (3, 16, 40, 1e-6, seed))
        _assert_lockstep_equals_member(inst, (-1.0, 1.0), (3, 16, 40, 1e-6, seed))


@pytest.mark.parametrize("optimize", [optimize_c1, optimize_c2])
@pytest.mark.parametrize("kw, name", [
    ({"tol": float("nan")}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1e-6}, "tol"),
    ({"max_iters": 2.5}, "max_iters"), ({"max_iters": 0}, "max_iters"),
    ({"max_iters": True}, "max_iters"), ({"ensemble_size": 2.0}, "ensemble_size"),
    ({"ensemble_size": 0}, "ensemble_size"), ({"ensemble_size": False}, "ensemble_size"),
])
def test_optimizer_arguments_checked(w2s_instance, optimize, kw, name):
    # a NaN tol switched the small-gain stop off, and a float count died in
    # range() or generate_state with a raw TypeError
    with pytest.raises(ValueError, match=name):
        optimize(w2s_instance, **kw)


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


def test_proof_trace_push_up_bound_pinned():
    # on saddle with pins (-1, 0) and (1, 0) the eps2 route finds a path
    # with its minimum in B, so the push-up bound is evaluated (and fails)
    inst = MountainPassInstance(catalog_field("saddle"), default_box("saddle"),
                                np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert trace_proof_argument(inst, 0.0, 1.0, 0.3).to_dict() == {
        "eps": 0.3, "eps1": 0.25, "case": "C1LessC2",
        "d_choice": "level_set at the deformation level",
        "steps": _trace_steps(
            ("eps1_formula", "eps1 = min(|c2 - c1|/4, eps)", {"eps1": 0.25},
             "holds"),
            ("level_separation", "c2 > c1 + 2*eps1",
             {"c2": 1.0, "c1_plus_2eps1": 0.5}, "holds"),
            *_PINS_FIXED,
            ("eps2_band_path", "extremum within [-0.25, -0.15]",
             {"eps2": 0.25, "extremum": -0.15840000000000032}, "holds"),
            ("eps2_deformed_bound", "min phi(beta) >= 0.25",
             {"observed": -0.029411310739480445}, "fails"),
            ("eps3_band_path", "extremum within [1.15, 1.25]",
             {"eps3": 0.25, "extremum": 1.1776000000000004}, "holds"),
            ("eps3_deformed_bound", "max phi(beta) <= 0.75",
             {"observed": 1.0305387310477183}, "fails"))}


def _partitions_built(monkeypatch, inst, *args):
    """The number of BandPartitions one trace_proof_argument call builds."""
    built = []
    post_init = BandPartition.__post_init__

    def counting(self):
        built.append(self.eps)
        post_init(self)

    monkeypatch.setattr(BandPartition, "__post_init__", counting)
    trace_proof_argument(inst, *args)
    return len(built)


def test_proof_trace_builds_partitions_only_where_it_deforms(monkeypatch,
                                                             w2s_instance):
    # criterion 8: the pins' deformation at c1 and the eps3 route's at c2;
    # the vacuous eps2 route searches 12 widths and builds none
    assert _partitions_built(monkeypatch, w2s_instance, 0.0, 1.0, 0.3) == 2
    # saddle: the pins' deformation and both routes' deformations
    inst = MountainPassInstance(catalog_field("saddle"), default_box("saddle"),
                                np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert _partitions_built(monkeypatch, inst, 0.0, 1.0, 0.3) == 3


@pytest.mark.parametrize("c1, c2", [(np.nan, 1.0), (np.inf, 1.0),
                                    (-np.inf, 1.0), (0.0, np.nan),
                                    (0.0, np.inf), (0.0, -np.inf)])
def test_proof_trace_rejects_non_finite_levels(w2s_instance, c1, c2):
    with pytest.raises(ValueError, match=re.escape(
            f"c1 and c2 must be finite, got {c1!r} and {c2!r}")):
        trace_proof_argument(w2s_instance, c1, c2, 0.3)


def test_proof_trace_rejects_a_band_width_that_underflows(w2s_instance):
    # eps1 = 2.5e-321 halves to 0.0 before the eps2 route finds a band point
    with pytest.raises(ValueError,
                       match=re.escape("eps must be finite and > 0, got 0.0")):
        trace_proof_argument(w2s_instance, 0.0, 1e-320, 0.3)


def test_proof_trace_records_a_moved_pin():
    # the same instance at c1 = 0.5: the zero pin has phi = 1, inside the
    # band at c2 = 1.05 and off its D = {phi = 1.05}, so the eps3
    # deformation moves it
    inst = MountainPassInstance(catalog_field("saddle"), default_box("saddle"),
                                np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert trace_proof_argument(inst, 0.5, 1.05, 0.3).to_dict() == {
        "eps": 0.3, "eps1": 0.1375, "case": "C1LessC2",
        "d_choice": "level_set at the deformation level",
        "steps": _trace_steps(
            ("eps1_formula", "eps1 = min(|c2 - c1|/4, eps)", {"eps1": 0.1375},
             "holds"),
            ("level_separation", "c2 > c1 + 2*eps1",
             {"c2": 1.05, "c1_plus_2eps1": 0.775}, "holds"),
            *_PINS_FIXED, *_vacuous("eps2"),
            ("eps3_band_path", "extremum within [1.1325, 1.1875]",
             {"eps3": 0.1375, "extremum": 1.1776000000000004}, "holds"),
            ("eps3_deformed_bound", "pins preserved during deformation",
             {"error": "pinned node 8 moved from [-1.0, 0.0] to "
                       "[-1.0181108137405792, 0.0]"}, "fails"))}


_SINGULAR = {"error": "||grad|| < 1e-08 at [1.0, 0.0] where the cutoff is nonzero"}


def test_proof_trace_records_a_critical_point_on_the_path(w2s_field, w2s_box):
    # at the optimiser's c2 for pins (0, 0) and (2, 0) the eps3 deformation
    # meets the saddle (1, 0), where the band's hypothesis fails
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.0, 0.0]),
                                np.array([2.0, 0.0]))
    steps = trace_proof_argument(inst, 0.0, 0.8958693082610129, 0.3).steps
    assert steps[-1] == _trace_steps(
        ("eps3_deformed_bound", "no critical point where the cutoff is nonzero",
         _SINGULAR, "fails"))[0]


def test_proof_trace_records_a_critical_pin(w2s_instance):
    # e = (1, 0) is the saddle, and at c1 = 0.9 it lies in the band
    steps = trace_proof_argument(w2s_instance, 0.9, 2.0, 0.3).steps
    assert steps[3] == _trace_steps(
        ("pin_e_fixed", "eta(e) = e exactly", _SINGULAR, "fails"))[0]


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


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.05])
def test_conclusions_reject_a_bad_eps(w2s_instance, w2s_results, eps):
    # NaN made every conclusion fail with NaN bounds, inf made I and III hold
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        check_conclusions(w2s_instance, *w2s_results, eps=eps)


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


def _assert_escaping_sequence(field, rep):
    # at least two points, with nonincreasing gradient norms, marching
    # along increasing x
    seq = np.asarray(rep.sample_sequence)
    assert len(seq) >= 2
    assert np.all(np.diff(np.asarray(field.grad_norm(seq))) <= 1e-15)
    assert np.all(np.diff(seq[:, 0]) > 0)


def test_ps_probe_escaping():
    f = catalog_field("exp_decay")
    rep = ps_probe(f, default_box("exp_decay"), 0.0, 0.05, samples=48, seed=0)
    assert rep.verdict == "EscapingTrend"
    assert rep.finite_starts == 48
    _assert_escaping_sequence(f, rep)


def _nelder_mead_escape_probe(field: ScalarField, box: DomainBox, center: np.ndarray):
    """Probe whether a small-gradient point is a genuine critical point.

    Polishes the point by minimizing ||grad phi||^2 with Nelder-Mead inside
    the box (simplex search tracks the narrow valleys of the gradient norm
    where steepest descent zigzags).  Returns None when the polish stays in
    the cluster and drives the norm to essentially zero, i.e. a genuine
    critical point.  Returns a list of points with nonincreasing gradient
    norms marching away from the start when the polish drifts out of the
    cluster, or when it is pinned against the box boundary by an outward
    descent direction, both signatures of an escaping trend.
    """
    from scipy.optimize import minimize as scipy_minimize
    PS_CLUSTER_RADIUS, _fd_slope = minimax.PS_CLUSTER_RADIUS, minimax._fd_slope
    h = 1e-4 * float(np.max(box.hi - box.lo))

    def gn2(u):
        g = np.asarray(field.gradient(u))
        return float(g @ g)

    trace = [np.asarray(center, dtype=float).copy()]
    res = scipy_minimize(gn2, center, method="Nelder-Mead",
                         bounds=list(zip(box.lo, box.hi)),
                         callback=lambda xk: trace.append(np.array(xk)),
                         options={"maxiter": 400, "xatol": 1e-12,
                                  "fatol": 1e-24})
    drift = float(np.linalg.norm(res.x - center))
    if drift > PS_CLUSTER_RADIUS:
        # keep a subsequence with nonincreasing gradient norms and growing
        # distance from the start
        gns = np.asarray(field.grad_norm(np.asarray(trace)))
        kept = [0]
        for i in range(1, len(trace)):
            if gns[i] <= gns[kept[-1]] and \
                    np.linalg.norm(trace[i] - trace[0]) >= \
                    np.linalg.norm(trace[kept[-1]] - trace[0]):
                kept.append(i)
        return [trace[i] for i in kept]
    if float(field.grad_norm(res.x)) < 1e-8:
        return None
    # polish stalled above zero without drifting: escaping only if it is
    # held in place by an active box bound with an outward descent direction
    slope = _fd_slope(field, res.x, h)
    norm = float(np.linalg.norm(slope))
    if norm > 0:
        d = -slope / norm
        pinned = np.any(((res.x - box.lo < 2.0 * h) & (d < -1e-3))
                        | ((box.hi - res.x < 2.0 * h) & (d > 1e-3)))
        if pinned:
            return [np.array(res.x)]
    return None


def _scipy_ps_probe(field, box, c, band_halfwidth, samples=64, seed=0):
    """The probe as it was with 64 scalar scipy L-BFGS-B runs and a
    Nelder-Mead escape probe per cluster, verbatim but for the count of
    finite starts: the reference that the lockstep searches are held to."""
    from scipy.optimize import minimize
    if band_halfwidth <= 0:
        raise ValueError("band_halfwidth must be > 0")
    rng = np.random.default_rng(seed)
    starts = box.sample(rng, samples)
    bounds = list(zip(box.lo, box.hi))

    def F(u):
        g = np.asarray(field.gradient(u))
        return float(g @ g + (float(field.evaluate(u)) - c) ** 2)

    finals = np.asarray([minimize(F, u0, method="L-BFGS-B", bounds=bounds).x
                         for u0 in starts])
    fin_gn = np.asarray(field.grad_norm(finals))
    fin_phi = np.asarray(field.evaluate(finals))
    finite = int(np.count_nonzero(np.isfinite(fin_gn ** 2 + (fin_phi - c) ** 2)))

    # smallest in-band gradient norm, via a penalized search seeded from the
    # multistart finals and raw band samples
    W = 1e8

    def G(u):
        g = np.asarray(field.gradient(u))
        excess = max(0.0, abs(float(field.evaluate(u)) - c) - band_halfwidth)
        return float(g @ g) + W * excess ** 2

    pool = box.sample(rng, max(256, 4 * samples))
    pool_phi = np.asarray(field.evaluate(pool))
    in_band_pool = pool[np.abs(pool_phi - c) <= band_halfwidth]
    g_starts = list(finals[:8]) + list(in_band_pool[:8])
    band_candidates = []
    for u0 in g_starts:
        res = minimize(G, np.asarray(u0), method="L-BFGS-B", bounds=bounds)
        band_candidates.append(res.x)
    cand = np.concatenate([np.reshape(band_candidates, (-1, box.dim)),
                           in_band_pool])
    cin = np.abs(np.asarray(field.evaluate(cand)) - c) <= band_halfwidth + 1e-4
    band_min_grad = (float(np.min(field.grad_norm(cand[cin])))
                     if np.any(cin) else float("nan"))

    near = (fin_gn < minimax.PS_GRAD_TOL) \
        & (np.abs(fin_phi - c) <= band_halfwidth + 1e-9)
    if not np.any(near):
        return minimax.PSReport(level=c, verdict="Vacuous",
                                band_min_grad=band_min_grad, finite_starts=finite)

    near_pts = finals[near]
    clusters = minimax._cluster(near_pts, minimax.PS_CLUSTER_RADIUS)
    stationary, escapes = [], []
    for cl in clusters:
        gns = np.asarray(field.grad_norm(near_pts[cl]))
        center = near_pts[cl[int(np.argmin(gns))]]
        seq = _nelder_mead_escape_probe(field, box, center)
        if seq is None:
            stationary.append(center)
        else:
            escapes.append(seq)
    if stationary:
        return minimax.PSReport(level=c, verdict="Consistent",
                                band_min_grad=band_min_grad, finite_starts=finite,
                                accumulation_points=[p.tolist() for p in stationary])
    seq = max(escapes, key=len)
    return minimax.PSReport(level=c, verdict="EscapingTrend",
                            band_min_grad=band_min_grad, finite_starts=finite,
                            sample_sequence=[p.tolist() for p in seq])


# (catalog field, level, band half-width): one per catalog field
_PS_CASES = [("affine", 0.0, 0.1), ("paraboloid", 1.0, 0.1), ("saddle", 0.0, 0.1),
             ("well_to_saddle", 1.0, 0.05), ("exp_decay", 0.0, 0.05)]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name, level, halfwidth", _PS_CASES)
def test_ps_probe_matches_the_scipy_probe(name, level, halfwidth, seed):
    f, box = catalog_field(name), default_box(name)
    got = ps_probe(f, box, level, halfwidth, samples=48, seed=seed)
    want = _scipy_ps_probe(f, box, level, halfwidth, samples=48, seed=seed)
    _assert_same_verdict(got, want)
    assert got.band_min_grad == pytest.approx(want.band_min_grad, abs=1e-3)
    assert got.finite_starts == want.finite_starts == 48


def _assert_same_verdict(got, want):
    assert got.verdict == want.verdict
    assert len(got.accumulation_points) == len(want.accumulation_points)
    for p, q in zip(got.accumulation_points, want.accumulation_points):
        assert np.linalg.norm(np.subtract(p, q)) <= minimax.PS_CLUSTER_RADIUS


@pytest.mark.parametrize("name, level, halfwidth", _PS_CASES)
def test_escape_search_matches_nelder_mead(name, level, halfwidth):
    # over seeds 0-149, the escape search and the Nelder-Mead escape probe
    # call the same clusters stationary, so the probe's verdict and
    # accumulation points are those it had with Nelder-Mead; every escaping
    # sequence it reports is a trend
    f, box = catalog_field(name), default_box(name)
    escape, verdicts = minimax._escape_verdict, []

    def both(field, box, trail):   # trail[0] is the cluster's centre
        got = escape(field, box, trail)
        want = _nelder_mead_escape_probe(field, box, trail[0])
        verdicts.append((got is None, want is None))
        return got

    with mock.patch.object(minimax, "_escape_verdict", both):
        for seed in range(150):
            verdicts.clear()
            rep = ps_probe(f, box, level, halfwidth, samples=48, seed=seed)
            for got, want in verdicts:
                assert got == want, seed
            if rep.verdict == "EscapingTrend":
                _assert_escaping_sequence(f, rep)


def _band_objective(field, u, c, halfwidth, weight):
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(field.gradient(u))
        if weight == 0:   # the escape search, which does not evaluate phi
            return np.sum(g * g, axis=-1)
        excess = np.maximum(0.0, np.abs(np.asarray(field.evaluate(u)) - c) - halfwidth)
        return np.sum(g * g, axis=-1) + weight * excess * excess


def _assert_band_search_descends(field, box, starts, c, halfwidth, weight):
    # finals stay in the box, no final's objective exceeds its start's, a
    # start whose objective is not finite stays put, reruns are byte for
    # byte the same, and an overflowing field raises no RuntimeWarning; each
    # start's trail runs from the start to its final through iterates whose
    # objective strictly falls
    trails = [[u] for u in box.clip(starts)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finals = minimax._band_search(field, box, starts, c, halfwidth, weight, trails)
        again = minimax._band_search(field, box, starts, c, halfwidth, weight)
    assert finals.shape == starts.shape
    assert finals.tobytes() == again.tobytes()
    assert np.all(box.contains(finals))
    f0 = _band_objective(field, starts, c, halfwidth, weight)
    f1 = _band_objective(field, finals, c, halfwidth, weight)
    finite = np.isfinite(f0)
    assert np.all(f1[finite] <= f0[finite])
    assert np.array_equal(finals[~finite], starts[~finite])
    for trail, final, ok in zip(trails, finals, finite):
        assert np.array_equal(trail[-1], final)
        assert ok or len(trail) == 1
        assert np.all(np.diff(_band_objective(field, np.asarray(trail), c, halfwidth,
                                              weight)) < 0)


# (halfwidth, weight): the multistart, two band searches and the escape search
_BAND_SEARCHES = [(0.0, 1.0), (0.05, 1e8), (0.5, 1e8), (0.0, 0.0)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_band_search_descends_inside_the_box(data):
    field, box, _ = data.draw(_fields())
    starts = box.sample(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                        data.draw(st.integers(1, 24)))
    _assert_band_search_descends(field, box, starts, data.draw(st.floats(-2.0, 2.0)),
                                 *data.draw(st.sampled_from(_BAND_SEARCHES)))


@pytest.mark.parametrize("halfwidth, weight", _BAND_SEARCHES)
@pytest.mark.parametrize("terms", [[((8, 0), 1e300), ((0, 2), 1.0)],
                                   [((6, 2), 1e305)]])
def test_band_search_on_an_overflowing_field(terms, halfwidth, weight):
    box = DomainBox([-10.0, -10.0], [10.0, 10.0])
    starts = np.concatenate([box.sample(np.random.default_rng(0), 16),
                             [[0.0, 1.0], [1e-38, 0.5], [0.0, 0.0]]])
    _assert_band_search_descends(polynomial_field(2, terms), box, starts, 1.0,
                                 halfwidth, weight)


def test_ps_probe_makes_no_scipy_minimize_call():
    # the benchmark's pscheck config, one cluster at the saddle (1, 0), and
    # exp_decay, whose clusters all escape
    with mock.patch.object(minimax, "scipy_minimize",
                           wraps=minimax.scipy_minimize) as spy:
        reps = [ps_probe(catalog_field(name), default_box(name), level, halfwidth,
                         samples=48, seed=0)
                for name, level, halfwidth in (("well_to_saddle", 1.0, 0.05),
                                               ("exp_decay", 0.0, 0.05))]
    assert [rep.verdict for rep in reps] == ["Consistent", "EscapingTrend"]
    assert spy.call_count == 0


@pytest.mark.parametrize("kw", [dict(c=np.nan), dict(c=np.inf), dict(c=-np.inf),
                                dict(band_halfwidth=np.nan),
                                dict(band_halfwidth=np.inf),
                                dict(band_halfwidth=0.0), dict(band_halfwidth=-0.1),
                                dict(samples=0), dict(samples=-3), dict(samples=2.5),
                                dict(samples=True), dict(samples="8")])
def test_ps_probe_arguments_checked(kw):
    args = dict(dict(c=1.0, band_halfwidth=0.1, samples=8), **kw)
    with pytest.raises(ValueError, match=next(iter(kw))):
        ps_probe(catalog_field("paraboloid"), default_box("paraboloid"), **args)


def test_geometry_w2s_holds():
    inst = _instance("well_to_saddle", e=(2.0, 0.0))
    res = check_mpt_geometry(inst, 1.0, sphere_samples=2048, seed=0)
    assert res.verdict
    assert res.b == pytest.approx(1.0, abs=0.01)


def test_geometry_paraboloid_fails():
    inst = _instance("paraboloid", e=(1.0, 0.0))
    res = check_mpt_geometry(inst, 0.5, sphere_samples=512, seed=0)
    assert not res.verdict
    assert res.phi_at_e > res.phi_at_zero


def test_geometry_affine_fails():
    inst = _instance("affine", e=(1.0, 0.0))
    res = check_mpt_geometry(inst, 0.5, sphere_samples=512, seed=0)
    assert not res.verdict
    assert res.b == pytest.approx(-0.5, abs=0.01)


def test_geometry_centres_the_sphere_on_pin_zero(w2s_field, w2s_box):
    # phi(pin_zero) = 0.25 * 2.25 + 0.25, not phi(0) = 0
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.5, 0.5]),
                                np.array([2.0, 0.0]))
    res = check_mpt_geometry(inst, 1.0, sphere_samples=512)
    assert res.phi_at_zero == 0.8125
    assert res.sphere_in_box and res.e_outside_ring
    assert res.verdict == (res.b > 0.8125 >= res.phi_at_e)


def test_geometry_needs_the_sphere_in_the_box_and_e_outside_it(w2s_field, w2s_box):
    # the r = 5 sphere around (0.5, 0.5) leaves the box [-1, 3] x [-2, 2],
    # where phi only grows, and holds e
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.5, 0.5]),
                                np.array([2.0, 0.0]))
    res = check_mpt_geometry(inst, 5.0, sphere_samples=512)
    assert res.b > res.phi_at_zero >= res.phi_at_e
    assert not res.sphere_in_box and not res.e_outside_ring
    assert not res.verdict


def test_endpoints_mode_measures_e_from_pin_zero(w2s_field, w2s_box):
    # ||e|| = 2.5 > r, but e lies 0.5 from pin_zero, inside the ring
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([1.5, 1.5]),
                                np.array([2.0, 1.5]), pin_mode="endpoints")
    res = check_mpt_geometry(inst, 1.0, sphere_samples=512)
    assert not res.e_outside_ring and not res.verdict


@pytest.mark.parametrize("pin_mode", ["interior", "endpoints"])
def test_e_inside_the_ring_is_a_verdict_in_both_pin_modes(w2s_field, w2s_box,
                                                          pin_mode):
    # endpoints mode rejected this instance when it was built, with a radius
    inst = MountainPassInstance(w2s_field, w2s_box, np.array([0.0, 0.0]),
                                np.array([0.5, 0.0]), pin_mode=pin_mode)
    res = check_mpt_geometry(inst, 1.0, sphere_samples=512)
    assert res.sphere_in_box
    assert not res.e_outside_ring and not res.verdict


@pytest.mark.parametrize("terms, z, e", [
    # x^2 - x^4 / 4: the 1-D sphere is exactly the two points -+1
    ([((2,), 1.0), ((4,), -0.25)], [0.0], [2.8]),
    # x^2 + (y^2 + z^2 - z) - x^4 / 4 around pin_zero (0, 0, 0.5)
    ([((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 0, 2), 1.0), ((0, 0, 1), -1.0),
      ((4, 0, 0), -0.25)], [0.0, 0.0, 0.5], [2.8, 0.0, 0.5]),
])
def test_geometry_in_1d_and_3d(terms, z, e):
    dim = len(z)
    field = polynomial_field(dim, terms)
    z = np.array(z)
    inst = MountainPassInstance(field, DomainBox([-1.0] * dim, [3.0] * dim), z,
                                np.array(e))
    res = check_mpt_geometry(inst, 1.0, sphere_samples=4096, seed=0)
    # the sphere's lowest points are pin_zero -+ (1, 0, 0)
    want = float(field.evaluate(z + np.eye(dim)[0]))
    if dim == 1:
        assert res.b == want
    else:
        assert want <= res.b <= want + 0.01
    assert res.phi_at_zero == float(field.evaluate(z))
    assert res.sphere_in_box and res.e_outside_ring and res.verdict


def _reference_cluster(points, radius):
    """minimax._cluster as it was: each point compared with every member of
    every cluster, in Python."""
    clusters = []
    for i in range(len(points)):
        placed = False
        for cl in clusters:
            if any(np.linalg.norm(points[i] - points[j]) <= radius for j in cl):
                cl.append(i)
                placed = True
                break
        if not placed:
            clusters.append([i])
    return clusters


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(0, 60), lattice=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cluster_equals_the_reference_loop(dim, n, lattice, seed):
    # on a lattice of spacing 1/4 with radius 1/4 many distances equal the
    # radius exactly, and a point is often near two clusters at once
    rng = np.random.default_rng(seed)
    if lattice:
        points, radius = rng.integers(0, 4, (n, dim)) * 0.25, 0.25
    else:
        points, radius = rng.random((n, dim)), 0.15
    assert minimax._cluster(points, radius) == _reference_cluster(points, radius)
