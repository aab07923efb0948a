import json

import pytest

from passlab.cli import main

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
                 "geometry": ("geometry", GEOMETRY)}


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
])
def test_bad_section_field_exits_2(tmp_path, capsys, name, value):
    section, key = name.split(".")
    sub, base = _SECTION_RUNS[section]
    cfg = dict(base, **{section: dict(base[section], **{key: value})})
    assert name in _config_error(tmp_path, capsys, sub, cfg)


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
