"""Which scipy subpackages each entry point loads, in a fresh interpreter.

Importing scipy.spatial, scipy.ndimage or scipy.optimize takes 0.2-0.35 s
each, more than most subcommands take to run, so the library imports each
one only inside the code that calls it, and no subcommand loads
scipy.optimize.  These tests keep it that way.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SUBPACKAGES = {"scipy.ndimage", "scipy.optimize", "scipy.spatial"}

W2S = {"catalog": "well_to_saddle"}
PINS = {"pin_zero": [0.0, 0.0], "pin_e": [1.0, 0.0]}


def _deform(**extra):
    return {"functional": W2S, "seed": 0,
            "deformation": dict({"c": 0.5, "eps": 0.1, "samples": 20}, **extra)}


CASES = {
    # id: (subcommand runs, subpackages that must load, ones that must not;
    #      None: no scipy module at all)
    "import": ([], set(), None),
    "first_order_deform_proof_trace_geometry": ([
        ("deform", _deform()),
        ("deform", _deform(d_spec={"kind": "level_set", "value": 0.5})),
        ("proof-trace", {"functional": W2S, "minimax": PINS,
                         "proof_trace": {"c1": 0.0, "c2": 1.0, "eps": 0.3}}),
        ("geometry", {"functional": W2S, "minimax": {"pin_zero": [0.0, 0.0],
                                                     "pin_e": [2.0, 0.0]},
                      "geometry": {"r": 1.0, "sphere_samples": 64}}),
    ], set(), None),
    "minimax_with_oracle": ([
        ("minimax", {"functional": W2S, "oracle": {"resolution": 33},
                     "minimax": dict(PINS, ensemble_size=2, M=16, max_iters=20)}),
    ], {"scipy.ndimage"}, {"scipy.optimize", "scipy.spatial"}),
    "oracle": ([
        ("oracle", {"functional": W2S, "oracle": {
            "resolution": 9, "p": [0.0, 0.0], "q": [1.0, 0.0],
            "scan_resolution": 21}}),
    ], {"scipy.ndimage"}, {"scipy.optimize", "scipy.spatial"}),
    "sampled_deform": ([
        ("deform", _deform(backend="sampled", resolution=41)),
    ], set(), None),
    "point_cloud_deform": ([
        ("deform", _deform(d_spec={"kind": "point_cloud", "points": [[0.45, 0.0]]})),
    ], {"scipy.spatial"}, {"scipy.optimize", "scipy.ndimage"}),
    # near-critical clusters, so escape searches: a stationary one and
    # escaping ones
    "pscheck": ([
        ("pscheck", {"functional": W2S,
                     "ps": {"level": 1.0, "band_halfwidth": 0.05, "samples": 4}}),
        ("pscheck", {"functional": {"catalog": "exp_decay"},
                     "ps": {"level": 0.0, "band_halfwidth": 0.05, "samples": 16}}),
    ], set(), None),
    # no near-critical cluster, so no escape search
    "vacuous_pscheck": ([
        ("pscheck", {"functional": {"catalog": "paraboloid"},
                     "ps": {"level": 1.0, "band_halfwidth": 0.1}}),
    ], set(), None),
}

# Imports passlab, runs each (subcommand, config, out) of argv[1] through
# passlab.cli.main, and prints the scipy modules loaded as its last line.
PROBE = """
import json, sys
import passlab, passlab.cli
for sub, cfg, out in json.loads(sys.argv[1]):
    assert passlab.cli.main([sub, "--config", cfg, "--out", out]) == 0, sub
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""


def _loaded_scipy_modules(tmp_path, runs):
    argv = []
    for i, (sub, cfg) in enumerate(runs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        argv.append([sub, str(path), str(tmp_path / f"out{i}")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", CASES)
def test_scipy_subpackages_load_only_where_used(tmp_path, case):
    runs, must, must_not = CASES[case]
    loaded = _loaded_scipy_modules(tmp_path, runs)
    if must_not is None:
        assert not loaded, sorted(loaded)
    else:
        assert must <= loaded and not must_not & loaded, sorted(loaded & SUBPACKAGES)
