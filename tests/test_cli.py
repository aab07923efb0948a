import copy
import hashlib
import json
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab import (BandPartition, DeformationField, DomainBox, RegionSpec,
                     build_backend, catalog_field, default_box,
                     polynomial_field, verify_deformation)
from passlab.cli import (_REQUIRED, _SCHEMA, MAX_RECORDED_STATES, _check_grids,
                         _dump_psi_grid, _parse, _to_jsonable, main)
from passlab.errors import ConfigError, InvalidPoint
from passlab.paths import write_rows

ROOT = pathlib.Path(__file__).parent.parent

AFFINE_DEFORM = {
    "functional": {"catalog": "affine"},
    "deformation": {"c": 0.0, "eps": 0.5, "samples": 200},
    "seed": 0,
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, sub, cfg, *flags):
    out = tmp_path / "out"
    code = main([sub, "--config", _write(tmp_path, cfg), "--out", str(out),
                 *flags])
    report = None
    rp = out / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return code, report, out


def test_deform_affine(tmp_path):
    code, report, out = _run(tmp_path, "deform", AFFINE_DEFORM)
    assert code == 0
    result = report["payload"]["result"]
    assert result["a_prime_violations"] == 0
    assert result["hypothesis_min_grad"] == 1.0
    assert all(c["ok"] for c in report["payload"]["checks"])
    assert (out / "psi_grid.csv").exists()
    assert report["config"] == AFFINE_DEFORM
    assert "wall_ms" in report and "version" in report


def test_minimax_with_oracle(tmp_path):
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0],
                    "ensemble_size": 4, "M": 16, "max_iters": 150,
                    "conclusions_eps": 0.05},
        "oracle": {"resolution": 129},
        "seed": 0,
    }
    code, report, out = _run(tmp_path, "minimax", cfg)
    assert code == 0
    result = report["payload"]["result"]
    assert abs(result["c2"]["value"] - result["oracle"]["bottleneck"]) <= 0.03
    assert all(result["conclusions"][k]["holds"]
               for k in ("I", "II", "III", "IV"))
    assert (out / "witness_c1.csv").exists()
    assert (out / "witness_c2.csv").exists()


def test_oracle_subcommand(tmp_path):
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "oracle": {"resolution": 65, "p": [0.0, 0.0], "q": [1.0, 0.0],
                   "scan_resolution": 101, "grad_tol": 0.05},
    }
    code, report, _ = _run(tmp_path, "oracle", cfg)
    assert code == 0
    result = report["payload"]["result"]
    assert result["bottleneck"]["value"] == pytest.approx(1.0, abs=0.1)
    assert all(c["ok"] for c in report["payload"]["checks"])


def test_minimax_builds_no_oracle_witness(tmp_path, monkeypatch):
    # the minimax payload reads only the oracle values, so the breadth-first
    # witness searches never run; an oracle run reads both witnesses
    from passlab import gridoracle
    search, calls = gridoracle._frontier_witness, []
    monkeypatch.setattr(gridoracle, "_frontier_witness",
                        lambda *args: calls.append(args) or search(*args))
    cfg = {"functional": {"catalog": "well_to_saddle"},
           "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0],
                       "ensemble_size": 2, "M": 16, "max_iters": 20},
           "oracle": {"resolution": 65}}
    code, report, _ = _run(tmp_path, "minimax", cfg)
    assert code == 0 and "oracle" in report["payload"]["result"]
    assert len(calls) == 0
    code, _, _ = _run(tmp_path, "oracle", ORACLE)
    assert code == 0
    assert len(calls) == 2


POLY3 = {"poly": {"dim": 3, "terms": [
    {"exps": [2, 0, 0], "coef": 1.0}, {"exps": [0, 2, 0], "coef": -1.0},
    {"exps": [0, 0, 2], "coef": 1.0}, {"exps": [1, 1, 1], "coef": 0.5}]}}

# the oracle payload's sweeps, recorded before the witness was built on first
# read: value, method, witness length and the sha256 of the witness as JSON
# (the 3-D witnesses in full)
PINNED_WITNESSES = {
    "well_to_saddle": (
        {"functional": {"catalog": "well_to_saddle"},
         "oracle": {"p": [0.0, 0.0], "q": [2.0, 0.0], "resolution": 257}},
        {"bottleneck": (1.0, "union_find_ascending", 129,
                        "479a70bbc16abd4161b98dc25e72eccdcf755ae502d4fde45fd7eb9e1053efb9"),
         "widest": (0.0, "union_find_descending", 129,
                    "9faa01f2f692b7d83bada2ea33a053724b41fa8a98c71924f4bae1bfccb21f02")}),
    "poly3": (
        {"functional": POLY3, "box": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
         "oracle": {"p": [0.0, -0.5, 0.0], "q": [0.0, 0.5, 0.2], "resolution": 21,
                    "scan_resolution": 21}},
        {"bottleneck": (0.0, "union_find_ascending", 13, [
            4525, 4546, 4567, 4588, 4609, 4630, 4651, 4672, 4693, 4714, 4735,
            4736, 4737]),
         "widest": (-0.25, "union_find_descending", 13, [
             4525, 4546, 4567, 4588, 4609, 4630, 4651, 4672, 4693, 4714, 4715,
             4736, 4737])}),
}


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_oracle_witnesses_pinned(tmp_path, name):
    cfg, want = PINNED_WITNESSES[name]
    code, report, _ = _run(tmp_path, "oracle", cfg)
    assert code == 0
    for sweep, (value, method, length, witness) in want.items():
        got = report["payload"]["result"][sweep]
        assert (got["value"], got["method"], len(got["witness"])) \
            == (value, method, length)
        if isinstance(witness, str):
            got_hash = hashlib.sha256(json.dumps(got["witness"]).encode()).hexdigest()
            assert got_hash == witness
        else:
            assert got["witness"] == witness


def test_pscheck_and_geometry(tmp_path):
    cfg = {
        "functional": {"catalog": "paraboloid"},
        "ps": {"level": 1.0, "band_halfwidth": 0.1, "samples": 32},
    }
    code, report, _ = _run(tmp_path, "pscheck", cfg)
    assert code == 0
    assert report["payload"]["result"]["verdict"] == "Vacuous"

    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [2.0, 0.0]},
        "geometry": {"r": 1.0, "sphere_samples": 512},
    }
    code, report, _ = _run(tmp_path, "geometry", cfg)
    assert code == 0
    assert report["payload"]["result"]["verdict"] is True


def test_proof_trace_subcommand(tmp_path):
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0]},
        "proof_trace": {"c1": 0.0, "c2": 1.0, "eps": 0.3},
    }
    code, report, _ = _run(tmp_path, "proof-trace", cfg)
    assert code == 0
    assert report["payload"]["result"]["eps1"] == 0.25
    assert report["payload"]["checks"][0]["ok"]


def test_proof_trace_at_a_critical_point_exits_0(tmp_path):
    # the deformation at the optimiser's own c2 meets the saddle (1, 0): a
    # failed step, not a config error
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [2.0, 0.0]},
        "proof_trace": {"c1": 0.0, "c2": 0.8958693082610129, "eps": 0.3},
    }
    code, report, _ = _run(tmp_path, "proof-trace", cfg, "--strict")
    assert code == 0
    step = report["payload"]["result"]["steps"][-1]
    assert step["name"] == "eps3_deformed_bound" and step["verdict"] == "fails"
    assert "[1.0, 0.0]" in step["observed"]["error"]


# phi = 1e-9 x: |grad phi| is below MIN_GRAD_FLOOR everywhere, and the
# band around c = 1e-9 holds points where the cutoff is nonzero
TINY_GRADIENT_DEFORM = {
    "functional": {"poly": {"dim": 2, "terms": [{"exps": [1, 0], "coef": 1e-9}]}},
    "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "deformation": {"c": 1e-9, "eps": 1e-9, "samples": 20}}


@pytest.mark.parametrize("flags, exit_code", [((), 0), (("--strict",), 3)])
def test_deform_at_a_critical_point_is_recorded(tmp_path, flags, exit_code):
    # the audit's flow meets the small gradient: a failed hypothesis that
    # names the point, not an internal error
    code, report, out = _run(tmp_path, "deform", TINY_GRADIENT_DEFORM, *flags)
    assert code == exit_code
    result = report["payload"]["result"]
    assert result["error"].startswith("||grad|| < 1e-08 at ")
    assert len(result["point"]) == 2 and str(result["point"]) in result["error"]
    assert report["payload"]["checks"] == [{"name": "band_gradient_hypothesis",
                                            "ok": False}]
    assert (out / "psi_grid.csv").exists()


def test_library_error_exits_1(tmp_path, capsys):
    # a library error the run cannot record (deform records only
    # VectorFieldSingular), here one raised by the audit, exits 1 and writes
    # no report
    with mock.patch("passlab.cli.verify_deformation",
                    side_effect=InvalidPoint("point of the wrong shape")):
        code, report, _ = _run(tmp_path, "deform", AFFINE_DEFORM)
    assert code == 1 and report is None
    assert capsys.readouterr().err == "error: point of the wrong shape\n"


def test_absurd_step_exits_2(tmp_path, capsys):
    # 2 * 10^8 RK4 steps: the record schedule was a set of as many ints, and
    # the run died with a raw MemoryError and exit 1
    cfg = {"functional": {"catalog": "well_to_saddle"},
           "deformation": {"c": 0.5, "eps": 0.1, "step": 1e-9, "samples": 1000}}
    err = _config_error(tmp_path, capsys, "deform", cfg)
    assert err.startswith("config error: bad deformation.step: step 1e-09 ")


def test_overflowing_horizon_names_eps(tmp_path, capsys):
    # 2 eps = inf: the step grid read round(NaN) and the error named
    # deformation.step, which this config does not set
    cfg = {"functional": {"catalog": "well_to_saddle"},
           "deformation": {"c": 0.5, "eps": 1e308}}
    err = _config_error(tmp_path, capsys, "deform", cfg)
    assert err.startswith("config error: bad deformation.eps: ")
    assert "step" not in err


def test_recorded_states_past_the_budget_exit_2(tmp_path, capsys):
    # 1,002 recorded states of 10,000 samples; the benchmark's deform config
    # at the sample cap, 1,001 states of 10,000 samples, is the budget
    deformation = {"c": 0.5, "eps": 0.1, "samples": 10_000, "resolution": 3}
    cfg = {"functional": {"catalog": "well_to_saddle"},
           "deformation": dict(deformation, step=0.2 / 1001)}
    err = _config_error(tmp_path, capsys, "deform", cfg)
    assert "deformation.samples x recorded states must be <= 10010000, " \
        "got 10000 x 1002" in err
    part = BandPartition(catalog_field("well_to_saddle"),
                         default_box("well_to_saddle"), 0.5, 0.1)
    df = DeformationField(build_backend(part, resolution=3))
    assert len(df.schedule) * 10_000 == MAX_RECORDED_STATES


def test_invalid_eps_exits_2(tmp_path):
    cfg = dict(AFFINE_DEFORM, deformation={"c": 0.0, "eps": -1.0})
    code, _, _ = _run(tmp_path, "deform", cfg)
    assert code == 2


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["deform", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["deform", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_catalog_exits_2(tmp_path):
    cfg = dict(AFFINE_DEFORM, functional={"catalog": "mystery"})
    code, _, _ = _run(tmp_path, "deform", cfg)
    assert code == 2


def test_strict_mode_failure_exits_3(tmp_path):
    # a deliberately coarse oracle grid disagrees with the optimizer by
    # more than the 0.03 proximity check allows
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0],
                    "ensemble_size": 2, "M": 16, "max_iters": 100},
        "oracle": {"resolution": 6},
        "seed": 0,
    }
    code, report, _ = _run(tmp_path, "minimax", cfg, "--strict")
    assert code == 3
    assert report is not None  # the report is still written


def test_seed_override(tmp_path):
    cfg = {
        "functional": {"catalog": "paraboloid"},
        "ps": {"level": 1.0, "band_halfwidth": 0.1, "samples": 16},
        "seed": 0,
    }
    code, report, _ = _run(tmp_path, "pscheck", cfg, "--seed", "7")
    assert code == 0
    assert report["payload"]["seed"] == 7


def test_reproducible_payload(tmp_path):
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "ps": {"level": 1.0, "band_halfwidth": 0.05, "samples": 32},
        "seed": 3,
    }
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["pscheck", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        runs.append(json.dumps(
            json.loads((out / "report.json").read_text())["payload"],
            sort_keys=True))
    assert runs[0] == runs[1]


ORACLE = {
    "functional": {"catalog": "well_to_saddle"},
    "oracle": {"resolution": 9, "p": [0.0, 0.0], "q": [1.0, 0.0],
               "scan_resolution": 21},
}


def _config_error(tmp_path, capsys, sub, cfg):
    code, report, _ = _run(tmp_path, sub, cfg)
    assert code == 2 and report is None
    return capsys.readouterr().err


def test_catalog_and_poly_together_exit_2(tmp_path, capsys):
    # the polynomial used to be dropped silently, with exit 0
    cfg = {"functional": {"catalog": "saddle", "poly": {"dim": 2, "terms": []}},
           "ps": {"level": 0.0, "samples": 4}}
    err = _config_error(tmp_path, capsys, "pscheck", cfg)
    assert "functional.catalog" in err and "functional.poly" in err


@pytest.mark.parametrize("key", ["p", "q"])
def test_oracle_missing_point_exits_2(tmp_path, capsys, key):
    oracle = {k: v for k, v in ORACLE["oracle"].items() if k != key}
    err = _config_error(tmp_path, capsys, "oracle", dict(ORACLE, oracle=oracle))
    assert f"oracle.{key}" in err


def test_oracle_resolution_below_3_exits_2(tmp_path, capsys):
    cfg = dict(ORACLE, oracle=dict(ORACLE["oracle"], resolution=2))
    assert "resolution" in _config_error(tmp_path, capsys, "oracle", cfg)


@pytest.mark.parametrize("key, value", [("scan_resolution", 2),
                                        ("grad_tol", 0.0)])
def test_oracle_scan_settings_exit_2(tmp_path, capsys, key, value):
    cfg = dict(ORACLE, oracle=dict(ORACLE["oracle"], **{key: value}))
    assert f"oracle.{key}" in _config_error(tmp_path, capsys, "oracle", cfg)


def test_oracle_connectivity_5_exits_2(tmp_path, capsys):
    cfg = dict(ORACLE, oracle=dict(ORACLE["oracle"], connectivity=5))
    assert "connectivity" in _config_error(tmp_path, capsys, "oracle", cfg)


def test_oracle_points_on_one_node_exit_2(tmp_path, capsys):
    cfg = dict(ORACLE, oracle=dict(ORACLE["oracle"], q=[0.01, 0.0]))
    err = _config_error(tmp_path, capsys, "oracle", cfg)
    assert "oracle.p" in err and "oracle.q" in err


@pytest.mark.parametrize("key, point", [("p", [10.0, 10.0]), ("q", [-1.5, 0.0]),
                                        ("q", [0.0, 2.0 + 1e-9])])
def test_oracle_point_outside_the_box_exits_2(tmp_path, capsys, key, point):
    # a point outside the box snapped to a boundary node with exit 0: at
    # resolution 33, p = (10, 10) read the corner (3, 2), bottleneck 13.0
    cfg = dict(ORACLE, oracle=dict(ORACLE["oracle"], **{key: point}))
    assert f"oracle.{key}" in _config_error(tmp_path, capsys, "oracle", cfg)


def test_oracle_points_on_the_box_faces_run(tmp_path):
    # well_to_saddle's box is [-1, 3] x [-2, 2]
    cfg = dict(ORACLE, oracle=dict(ORACLE["oracle"], p=[-1.0, -2.0],
                                   q=[3.0, 0.0]))
    code, report, _ = _run(tmp_path, "oracle", cfg)
    assert code == 0
    assert report["payload"]["result"]["bottleneck"]["witness"][0] == 0


def test_minimax_pins_on_one_oracle_node_exit_2(tmp_path, capsys):
    cfg = {
        "functional": {"catalog": "well_to_saddle"},
        "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [0.01, 0.0],
                    "ensemble_size": 2, "M": 16, "max_iters": 20},
        "oracle": {"resolution": 5},
    }
    err = _config_error(tmp_path, capsys, "minimax", cfg)
    assert "minimax.pin_zero" in err and "minimax.pin_e" in err


PSCHECK = {
    "functional": {"catalog": "paraboloid"},
    "ps": {"level": 1.0, "band_halfwidth": 0.1, "samples": 16},
}
MINIMAX = {
    "functional": {"catalog": "well_to_saddle"},
    "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0],
                "ensemble_size": 2, "M": 16, "max_iters": 20},
}


GEOMETRY = {
    "functional": {"catalog": "well_to_saddle"},
    "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [2.0, 0.0]},
    "geometry": {"r": 1.0, "sphere_samples": 64},
}


_SECTION_RUNS = {"deformation": ("deform", AFFINE_DEFORM),
                 "minimax": ("minimax", MINIMAX), "ps": ("pscheck", PSCHECK),
                 "geometry": ("geometry", GEOMETRY),
                 "box": ("deform", dict(AFFINE_DEFORM, box={"lo": [-1.0, -1.0],
                                                            "hi": [1.0, 1.0]})),
                 "oracle": ("oracle", ORACLE)}


@pytest.mark.parametrize("name, value", [
    ("deformation.eps", "abc"),
    ("deformation.step", -1),
    ("deformation.samples", "x"),
    ("deformation.d_spec", []),
    ("deformation.backend", "kd_tree"),
    ("minimax.ensemble_size", "x"),
    ("minimax.M", 10),
    ("minimax.M", 4),
    ("minimax.conclusions_eps", -1),
    ("minimax.conclusions_eps", 0),
    ("ps.level", "x"),
    ("geometry.r", "x"),
    ("geometry.r", -1.0),
    # each of these ran with exit 0 before the config had a schema
    ("box.lo[0]", ["-1", "-1"]),
    ("box.hi[0]", [True, "1"]),
    ("minimax.pin_zero[1]", [0.0, "0"]),
    ("minimax.pin_e[0]", [False, 0.0]),
    ("oracle.p[0]", ["0", 0.0]),
    ("oracle.q[1]", [1.0, True]),
    ("deformation.d_spec.points[0][0]", [["0.45", 0.0]]),
    ("deformation.d_spec.value", "0.1"),
    ("deformation.d_spec.thickness", True),
    ("deformation.d_spec.thicknes", 0.01),
])
def test_bad_section_field_exits_2(tmp_path, capsys, name, value):
    # name is what the message must name; its element indices ("box.lo[0]")
    # are dropped to find the key to set
    *path, key = re.sub(r"\[\d+\]", "", name).split(".")
    sub, base = _SECTION_RUNS[path[0]]
    cfg = copy.deepcopy(base)
    section = cfg
    for part in path:
        section = section.setdefault(part, {})
    section[key] = value
    assert name in _config_error(tmp_path, capsys, sub, cfg)


@pytest.mark.parametrize("cfg, named", [
    # ran --strict with no oracle check and exit 0
    (dict(MINIMAX, oracles={}), ["'oracles'", "oracle"]),
    # ran the defaults, 8 members and 200 iterations
    (dict(MINIMAX, minimax=dict(MINIMAX["minimax"], ensemble=2, max_iter=5)),
     ["'minimax.ensemble'", "ensemble_size"]),
], ids=["oracles", "minimax.ensemble"])
def test_misspelt_key_exits_2(tmp_path, capsys, cfg, named):
    code, report, _ = _run(tmp_path, "minimax", cfg, "--strict")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert all(n in err for n in named), err


# Every section of the schema, for sweeping it through _parse alone.
FULL = {
    "seed": 0,
    "functional": {"catalog": "affine", "poly": {
        "dim": 2, "terms": [{"exps": [1, 0], "coef": 1.0}]}},
    "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "deformation": {"c": 0.0, "eps": 0.5, "d_spec": {}},
    "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0]},
    "geometry": {}, "oracle": {}, "ps": {"level": 1.0},
    "proof_trace": {"c1": 0.0, "c2": 1.0, "eps": 0.3},
}
WRONG_TYPE = {"int": "1", "float": "1.0", "str": 1, "point": ["1"],
              "points": ["1"], "object": [], "objects": {}}
SCHEMA_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key in keys]


def _section(cfg, section):
    """The object of dotted ``section`` in cfg and its name in messages."""
    obj, name = cfg, section
    for part in filter(None, section.split(".")):
        obj = obj[part]
        if isinstance(obj, list):
            obj, name = obj[0], name + "[0]"
    return obj, name


@pytest.mark.parametrize("section, key", SCHEMA_KEYS,
                         ids=[f"{s or 'root'}.{k}" for s, k in SCHEMA_KEYS])
def test_schema_names_misspelt_keys_and_wrong_types(section, key):
    assert set(_parse(FULL)) == set(_SCHEMA[""])
    kind = _SCHEMA[section][key][0]
    for bad_key, value, suffix in [(key + "x", 1, ""),
                                   (key, WRONG_TYPE[kind],
                                    "[0]" if kind.startswith("point") else "")]:
        cfg = copy.deepcopy(FULL)
        obj, prefix = _section(cfg, section)
        obj[bad_key] = value
        name = f"{prefix}.{bad_key}" if prefix else bad_key
        with pytest.raises(ConfigError, match=re.escape(name + suffix)):
            _parse(cfg)


def _schema_row(section, key, kind, default, lower=None, upper=None):
    shown = ("required" if default is _REQUIRED else "none" if default is None
             else f"`{json.dumps(default)}`")
    limits = ([] if lower is None else [f"`{'>=' if kind == 'int' else '>'} {lower}`"]
              ) + ([] if upper is None else [f"`<= {upper}`"])
    return (f"| {f'`{section}`' if section else '(root)'} | `{key}` | {kind} "
            f"| {shown} | {', '.join(limits)} |")


def test_readme_config_table_matches_the_schema():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| section | key | kind | default | bound |") + 2
    table = lines[start:lines.index("", start)]
    assert table == [_schema_row(section, key, *spec)
                     for section, keys in _SCHEMA.items()
                     for key, spec in keys.items()]


def test_numbers_spelled_as_strings_exit_2(tmp_path, capsys):
    # float("0.0") and int("20") used to accept these and run with exit 0
    cfg = {"functional": {"catalog": "affine"},
           "deformation": {"c": "0.0", "eps": "0.5", "samples": "20"}}
    assert "deformation.c" in _config_error(tmp_path, capsys, "deform", cfg)


@pytest.mark.parametrize("name, value", [("deformation.eps", "0.5"),
                                         ("deformation.samples", "20")])
def test_string_number_field_names_the_field(tmp_path, capsys, name, value):
    key = name.split(".")[1]
    cfg = dict(AFFINE_DEFORM, deformation=dict(AFFINE_DEFORM["deformation"],
                                               **{key: value}))
    assert name in _config_error(tmp_path, capsys, "deform", cfg)


@pytest.mark.parametrize("oracle", [[1], 3])
def test_oracle_section_not_an_object_exits_2(tmp_path, capsys, oracle):
    err = _config_error(tmp_path, capsys, "minimax", dict(MINIMAX, oracle=oracle))
    assert "'oracle'" in err


def test_boolean_seed_exits_2(tmp_path, capsys):
    # int(True) would silently run seed 1
    err = _config_error(tmp_path, capsys, "pscheck", dict(PSCHECK, seed=True))
    assert "seed" in err


@pytest.mark.parametrize("cfg, flags, name", [(dict(PSCHECK, seed=-1), (), "seed"),
                                              (PSCHECK, ("--seed", "-3"), "--seed")])
def test_negative_seed_exits_2(tmp_path, capsys, cfg, flags, name):
    code, report, _ = _run(tmp_path, "pscheck", cfg, *flags)
    assert code == 2 and report is None
    assert name in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["pscheck", "--config", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "--config" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # was a raw UnicodeDecodeError with exit 1
    cfg = tmp_path / "bin.json"
    cfg.write_bytes(b"\xff\xfe\x00garbage")
    assert main(["deform", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "--config" in capsys.readouterr().err


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["pscheck", "--config", _write(tmp_path, PSCHECK),
                 "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err


def test_empty_oracle_section_runs_the_default_oracle(tmp_path):
    code, report, _ = _run(tmp_path, "minimax", dict(MINIMAX, oracle={}),
                           "--strict")
    assert code == 0
    assert set(report["payload"]["result"]["oracle"]) == {"bottleneck", "widest"}
    names = {c["name"] for c in report["payload"]["checks"]}
    assert {"c1_within_0.03_of_oracle", "c2_within_0.03_of_oracle"} <= names


@pytest.mark.parametrize("d_spec", [
    {"kind": "level_set", "value": float("nan")},
    {"kind": "level_set", "value": 0.0, "thickness": 0.0},
    {"kind": "level_set", "value": 0.0, "thickness": -1.0},
])
def test_d_spec_that_leaves_d_empty_exits_2(tmp_path, capsys, d_spec):
    deformation = dict(AFFINE_DEFORM["deformation"], d_spec=d_spec)
    cfg = dict(AFFINE_DEFORM, deformation=deformation)
    assert "deformation.d_spec" in _config_error(tmp_path, capsys, "deform", cfg)


def test_nan_poly_coefficient_exits_2(tmp_path, capsys):
    cfg = dict(AFFINE_DEFORM, box={"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
               functional={"poly": {"dim": 2, "terms": [
                   {"exps": [1, 0], "coef": 1.0},
                   {"exps": [0, 2], "coef": float("nan")}]}})
    assert "functional.poly" in _config_error(tmp_path, capsys, "deform", cfg)


@pytest.mark.parametrize("dim, exps, coef, lo", [
    (2, [2.5, 0], 1.0, [-1.0, -1.0]),    # ran as x^2: phi(2, 0) = 4, not 2^2.5
    (2, [True, 0], 1.0, [-1.0, -1.0]),
    (2.9, [1, 0], 1.0, [-1.0, -1.0]),    # ran as dim 2
    (True, [1], 1.0, [-1.0]),            # ran as dim 1
    (2, [1, 0], "2.5", [-1.0, -1.0]),    # ran as 2.5 x
    (2, [1, 0], True, [-1.0, -1.0]),     # ran as x
], ids=["fractional_exponent", "bool_exponent", "fractional_dim", "bool_dim",
        "string_coef", "bool_coef"])
def test_non_integer_poly_dim_or_exponent_exits_2(tmp_path, capsys, dim, exps,
                                                  coef, lo):
    cfg = dict(AFFINE_DEFORM, box={"lo": lo, "hi": [-x for x in lo]},
               functional={"poly": {"dim": dim, "terms": [
                   {"exps": exps, "coef": coef}]}})
    assert "functional.poly" in _config_error(tmp_path, capsys, "deform", cfg)


@pytest.mark.parametrize("catalog", [[], 3, None])
def test_non_string_catalog_exits_2(tmp_path, capsys, catalog):
    cfg = dict(AFFINE_DEFORM, functional={"catalog": catalog})
    assert "functional.catalog" in _config_error(tmp_path, capsys, "deform", cfg)


@pytest.mark.parametrize("sub, base", [("minimax", MINIMAX),
                                       ("geometry", GEOMETRY)])
@pytest.mark.parametrize("pin", [[float("nan"), 0.0], [50.0, 0.0]])
def test_pin_outside_the_box_exits_2(tmp_path, capsys, sub, base, pin):
    # a NaN pin gave c1 = c2 = null, a far one c2 = 5.76e6, both with exit 0
    cfg = dict(base, minimax=dict(base["minimax"], pin_zero=pin))
    assert "pin_zero" in _config_error(tmp_path, capsys, sub, cfg)


@pytest.mark.parametrize("sub, base, name, value", [
    # a raw "Maximum allowed dimension exceeded" ValueError with exit 1
    ("pscheck", PSCHECK, "ps.samples", int("9" * 401)),
    # a raw _ArrayMemoryError with exit 1
    ("deform", AFFINE_DEFORM, "deformation.samples", 10 ** 12),
    ("minimax", MINIMAX, "minimax.ensemble_size", 1001),
    ("geometry", GEOMETRY, "geometry.sphere_samples", 10 ** 6 + 1),
], ids=["ps.samples", "deformation.samples", "ensemble_size", "sphere_samples"])
def test_count_past_its_maximum_exits_2(tmp_path, capsys, sub, base, name,
                                        value):
    section, key = name.split(".")
    cfg = dict(base, **{section: dict(base[section], **{key: value})})
    err = _config_error(tmp_path, capsys, sub, cfg)
    assert name in err and "must be <=" in err


@pytest.mark.parametrize("sub, cfg, name", [
    ("oracle", dict(ORACLE, oracle=dict(ORACLE["oracle"], resolution=3163)),
     "oracle.resolution"),
    ("deform", dict(AFFINE_DEFORM, deformation=dict(
        AFFINE_DEFORM["deformation"], dump_resolution=int("9" * 401))),
     "deformation.dump_resolution"),
    # 216 ** 3 > 10 ** 7 >= 3162 ** 2: the bound depends on the dimension
    ("deform", dict(AFFINE_DEFORM, box={"lo": [-1.0] * 3, "hi": [1.0] * 3},
                    functional={"poly": {"dim": 3, "terms": [
                        {"exps": [1, 0, 0], "coef": 1.0}]}},
                    deformation=dict(AFFINE_DEFORM["deformation"],
                                     resolution=216)),
     "deformation.resolution"),
])
def test_grid_past_its_maximum_exits_2(tmp_path, capsys, sub, cfg, name):
    err = _config_error(tmp_path, capsys, sub, cfg)
    assert name in err and "grid points" in err


def test_grid_at_its_maximum_passes_the_check():
    cfg = _parse(dict(AFFINE_DEFORM, deformation=dict(
        AFFINE_DEFORM["deformation"], resolution=3162)))
    _check_grids(cfg, 2)
    with pytest.raises(ConfigError, match="deformation.resolution"):
        _check_grids(cfg, 3)


def test_integer_past_the_json_digit_limit_exits_2(tmp_path, capsys):
    # json.load raised ValueError: a raw traceback with exit 1
    p = tmp_path / "long.json"
    p.write_text('{"functional": {"catalog": "paraboloid"}, '
                 '"ps": {"level": 1.0, "samples": ' + "9" * 5000 + "}}")
    assert main(["pscheck", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    # a Python without the digit limit (before 3.10.7) parses it, and the
    # schema's bound names the field
    err = capsys.readouterr().err
    assert "--config" in err or "ps.samples" in err


def test_deform_at_an_empty_band_is_vacuous(tmp_path):
    # the two-pin argument's c1 level on well_to_saddle: phi >= 0, so B is
    # empty; the default backend, first_order, writes no region clouds
    cfg = {"functional": {"catalog": "well_to_saddle"},
           "deformation": {"c": 0.0, "eps": 0.1, "samples": 300,
                           "d_spec": {"kind": "level_set", "value": 0.0}}}
    code, report, out = _run(tmp_path, "deform", cfg, "--strict")
    assert code == 0
    result = report["payload"]["result"]
    assert result["b_prime"]["sampled_B"] == 0
    assert result["b_prime"]["vacuous"] is True
    assert result["c_prime"]["sampled_C"] > 0
    assert "vacuous" not in result["c_prime"]
    assert (out / "psi_grid.csv").exists()
    assert not (out / "region_clouds.csv").exists()


# the sampled backend with a point-cloud D, which only the benchmark's
# deform_flow workload ran through the CLI before
SAMPLED_CLOUD_DEFORM = {
    "functional": {"catalog": "paraboloid"},
    "deformation": {"c": 1.0, "eps": 0.3, "backend": "sampled",
                    "resolution": 61, "samples": 200,
                    "d_spec": {"kind": "point_cloud",
                               "points": [[1.0, 0.0], [0.0, 1.0]]}},
}


def test_sampled_deform_with_a_point_cloud_d(tmp_path):
    code, report, out = _run(tmp_path, "deform", SAMPLED_CLOUD_DEFORM,
                             "--strict")
    assert code == 0
    assert (out / "region_clouds.csv").exists()
    # the payload is the library's audit of the same objects
    f = catalog_field("paraboloid")
    part = BandPartition(f, default_box("paraboloid"), 1.0, 0.3,
                         RegionSpec.point_cloud([[1.0, 0.0], [0.0, 1.0]]))
    df = DeformationField(build_backend(part, "sampled", 61))
    want = _to_jsonable(verify_deformation(df, 200, seed=0).to_dict())
    assert report["payload"]["result"] == want


def test_point_cloud_d_without_points_exits_2(tmp_path, capsys):
    deformation = dict(SAMPLED_CLOUD_DEFORM["deformation"],
                       d_spec={"kind": "point_cloud"})
    cfg = dict(SAMPLED_CLOUD_DEFORM, deformation=deformation)
    err = _config_error(tmp_path, capsys, "deform", cfg)
    assert "bad deformation.d_spec: D needs kind" in err
    assert "'point_cloud' with finite points" in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


# x^8 * 1e300 overflows the gradient norm almost everywhere in the box
OVERFLOW = {"functional": {"poly": {"dim": 2, "terms": [
                {"exps": [8, 0], "coef": 1e300}, {"exps": [0, 2], "coef": 1.0}]}},
            "box": {"lo": [-10.0, -10.0], "hi": [10.0, 10.0]}}


def test_overflowing_report_is_strict_json(tmp_path):
    # the squares of both witnesses' gradient norms overflow; the run raises
    # no RuntimeWarning, which the test settings make an error.  The norms
    # are finite, from the scaled norm (they were null, from inf)
    cfg = dict(OVERFLOW, minimax={"pin_zero": [-1.0, 0.0], "pin_e": [1.0, 0.0]})
    code, _, out = _run(tmp_path, "minimax", cfg)
    assert code == 0
    report = _strict_json((out / "report.json").read_text())
    conclusions = report["payload"]["result"]["conclusions"]
    assert conclusions["II"]["grad_norm"] > 1e154
    assert conclusions["IV"]["grad_norm"] > 1e154


def test_overflowing_oracle_prints_nothing(tmp_path, capsys):
    # the critical scan's gradient norms overflow; numpy printed "overflow
    # encountered in multiply", which the test settings make an error
    cfg = dict(OVERFLOW, oracle={"resolution": 33, "scan_resolution": 33,
                                 "p": [-1.0, 0.0], "q": [1.0, 0.0]})
    code, _, out = _run(tmp_path, "oracle", cfg, "--strict")
    assert code == 0 and capsys.readouterr().err == ""
    _strict_json((out / "report.json").read_text())


def _poly_deform(terms, c, eps):
    return {"functional": {"poly": {"dim": 2, "terms": [
                {"exps": exps, "coef": coef} for exps, coef in terms]}},
            "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "deformation": {"c": c, "eps": eps, "samples": 50}}


@pytest.mark.parametrize("cfg", [
    # ||grad phi||^2 and the quotient's denominator overflow in the cutoff
    _poly_deform([([3, 0], 1e156), ([0, 2], 1.0)], 0.0, 1e154),
    # phi itself overflows, at (1, 1)
    _poly_deform([([1, 0], 1e308), ([0, 1], 1e308)], 0.0, 1.0),
], ids=["cutoff", "monomials"])
def test_overflowing_deform_prints_nothing(tmp_path, capsys, cfg):
    # numpy's "overflow encountered" and "invalid value encountered", which
    # the test settings make an error
    code, _, out = _run(tmp_path, "deform", cfg)
    assert code == 0 and capsys.readouterr().err == ""
    _strict_json((out / "report.json").read_text())


def test_poly_whose_derivative_overflows_exits_2(tmp_path, capsys):
    # the x-derivative coefficient of 1e308 x^2 is 2e308, inf
    cfg = _poly_deform([([2, 0], 1e308), ([0, 2], 1.0)], 0.0, 1.0)
    err = _config_error(tmp_path, capsys, "deform", cfg)
    assert "bad functional.poly" in err and "(2, 0)" in err


def test_minimax_reads_no_ring_radius(tmp_path):
    # e lies 0.5 from pin_zero, inside the r = 1 ring; exited 2 with
    # "endpoints mode requires ||e - pin_zero|| > radius"
    cfg = {"functional": {"catalog": "well_to_saddle"},
           "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [0.5, 0.0],
                       "pin_mode": "endpoints", "ensemble_size": 2, "M": 16,
                       "max_iters": 50},
           "geometry": {"r": 1.0}}
    code, report, _ = _run(tmp_path, "minimax", cfg, "--strict")
    assert code == 0 and report is not None


def test_overflowing_pscheck_is_strict_json(tmp_path):
    # the probe's objective overflows at every start, which then stays put,
    # so nothing is searched and the verdict says so; pscheck has no strict
    # checks, so the run still exits 0
    cfg = dict(OVERFLOW, ps={"level": 1.0, "band_halfwidth": 0.05})
    code, _, out = _run(tmp_path, "pscheck", cfg, "--strict")
    assert code == 0
    result = _strict_json((out / "report.json").read_text())["payload"]["result"]
    assert result["verdict"] == "Unsearched"
    assert result["finite_starts"] == 0
    assert result["band_min_grad"] is None


def test_to_jsonable_nulls_every_non_finite_float():
    got = _to_jsonable({"a": [1.5, np.inf, (np.float64(-np.inf),)],
                        "b": np.array([[np.nan, 2.0], [3.0, -np.inf]]),
                        "c": np.float32(np.nan), "d": np.int64(4)})
    assert got == {"a": [1.5, None, [None]], "b": [[None, 2.0], [3.0, None]],
                   "c": None, "d": 4}
    assert _strict_json(json.dumps(got, allow_nan=False)) == got


def _reference_dump_psi_grid(df, box, resolution, path):
    """_dump_psi_grid as it was before it formatted blocks of rows: through
    np.savetxt, one row at a time."""
    pts = box.grid(resolution)
    phis = np.asarray(df.field.evaluate(pts))
    psis = np.asarray(df.psi(pts))
    header = ",".join(["x", "y", "z"][:box.dim] + ["phi", "psi"])
    data = np.column_stack([pts, phis, psis])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, 5e-324, -1e-300])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.sampled_from([0, 1, 1023, 1024, 3000]),
       st.integers(0, 2**32 - 1))
def test_write_csv_bytes_equal_savetxt(tmp_path_factory, cols, rows, seed):
    # 0 to three blocks of rows of values over many magnitudes, with NaN,
    # +-inf, -0.0 and subnormals
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    special = rng.random((rows, cols)) < 0.1
    data[special] = rng.choice(_SPECIAL, np.count_nonzero(special))
    header = [f"c{j}" for j in range(cols)]
    tmp = tmp_path_factory.mktemp("csv")
    want, got = tmp / "want.csv", tmp / "got.csv"
    np.savetxt(str(want), data, delimiter=",", header=",".join(header),
               comments="")
    with open(got, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, data, ["{:.18e}"] * cols, "\n")
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("dim, resolution", [(1, 2000), (2, 41), (3, 13)])
def test_psi_grid_bytes_equal_the_savetxt_writer(tmp_path, dim, resolution):
    terms = [(tuple(2 if i == j else 0 for i in range(dim)), 1.0 + j)
             for j in range(dim)]
    box = DomainBox(-np.ones(dim), np.ones(dim))
    part = BandPartition(polynomial_field(dim, terms), box, 0.5, 0.2)
    df = DeformationField(build_backend(part, "first_order", 11))
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _reference_dump_psi_grid(df, box, resolution, str(want))
    _dump_psi_grid(df, box, resolution, str(got))
    assert got.read_bytes() == want.read_bytes()


_POLY_1D = {"poly": {"dim": 1, "terms": [{"exps": [2], "coef": 1.0}]}}
# hi - lo overflowed: numpy overflow warnings from the diagonal and the grid,
# then a raw OverflowError from the uniform sampler
_HUGE_BOX = {"lo": [-1e308, -1e308], "hi": [1e308, 1e308]}


def _with(base, section, **keys):
    return dict(base, **{section: dict(base[section], **keys)})


@pytest.mark.parametrize("sub, cfg, message", [
    ("deform", dict(AFFINE_DEFORM, deformation={"eps": 0.5}),
     "deformation.c is required"),
    ("deform", {"functional": {"catalog": "affine"}},
     "config is missing required section 'deformation'"),
    ("deform", dict(AFFINE_DEFORM, functional=_POLY_1D),
     "poly functionals require an explicit box"),
    ("deform", dict(AFFINE_DEFORM, box={"lo": [-1.0] * 3, "hi": [1.0] * 3}),
     "box dimension does not match the functional"),
    ("geometry", dict(GEOMETRY, geometry={}), "geometry.r is required"),
    ("deform", dict(AFFINE_DEFORM, box={"lo": -1.0, "hi": [1.0, 1.0]}),
     "box.lo must be an array, got -1.0"),
    ("deform", _with(AFFINE_DEFORM, "deformation", c=10 ** 400),
     f"deformation.c must be finite, got {10 ** 400!r}"),
    ("deform", dict(AFFINE_DEFORM, box={"lo": [-1.0], "hi": [1.0, 1.0]}),
     "bad box: lo and hi must be 1-D arrays of equal length"),
    ("deform", dict(AFFINE_DEFORM, box={"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                    functional={"poly": {"dim": 2, "terms": [
                        {"exps": [2], "coef": 1.0}]}}),
     "bad functional.poly: bad exponent tuple (2,) for dim 2"),
    ("minimax", _with(MINIMAX, "minimax", pin_zero=[0.0, 0.0, 0.0]),
     "bad minimax: pin dimensions must match the field"),
    ("minimax", _with(MINIMAX, "minimax", pin_e=[0.0, 0.0]),
     "bad minimax: the two pins must differ"),
    ("minimax", _with(MINIMAX, "minimax", pin_mode="ends"),
     "bad minimax: unknown pin mode 'ends'"),
    ("deform", _with(AFFINE_DEFORM, "deformation", d_spec={
        "kind": "point_cloud", "points": [[0.0, 0.0, 0.0]]}),
     "bad deformation.d_spec: point cloud dimension mismatch"),
    ("deform", dict(AFFINE_DEFORM, box=_HUGE_BOX),
     "bad box: the box's squared diagonal must be finite: "
     "set distances are compared as squares"),
    ("pscheck", dict(PSCHECK, box=_HUGE_BOX),
     "bad box: the box's squared diagonal must be finite: "
     "set distances are compared as squares"),
], ids=["missing_key", "missing_section", "poly_without_box", "box_dimension",
        "geometry_without_r", "number_for_point", "huge_integer_float",
        "box_lengths_differ", "exponent_tuple_length", "pin_dimension",
        "equal_pins", "unknown_pin_mode", "d_point_dimension",
        "deform_box_overflows", "pscheck_box_overflows"])
def test_typed_config_errors_exit_2(tmp_path, capsys, sub, cfg, message):
    # the message is the whole of stderr: no numpy warning comes first
    assert _config_error(tmp_path, capsys, sub, cfg) == f"config error: {message}\n"


_WIDE_W2S = {"functional": {"catalog": "well_to_saddle"},
             "box": {"lo": [-1e100, -1e100], "hi": [1e100, 1e100]},
             "minimax": {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0]}}


@pytest.mark.parametrize("sub, cfg, code, err", [
    ("deform", dict(_WIDE_W2S, deformation={"c": 0.5, "eps": 0.1,
                                            "samples": 20}), 0, ""),
    ("proof-trace", dict(_WIDE_W2S, proof_trace={"c1": 0.0, "c2": 1.0,
                                                 "eps": 0.3}), 0, ""),
    ("oracle", dict(_WIDE_W2S, oracle={"resolution": 9, "p": [0.0, 0.0],
                                       "q": [1.0, 0.0], "scan_resolution": 9}),
     2, "config error: bad oracle: node values must be finite\n"),
])
def test_catalog_field_overflow_prints_no_warning(tmp_path, capsys, sub, cfg,
                                                  code, err):
    # phi overflows on most of the box: the catalog field printed numpy's
    # "overflow encountered in multiply" where a polynomial field is silent
    assert _run(tmp_path, sub, cfg)[0] == code
    assert capsys.readouterr().err == err
