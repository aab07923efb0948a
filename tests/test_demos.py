"""Smoke tests: every demo script and the README's library example run to
completion, and the README's JSON config runs under the command line."""
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name == "03_oracles.py":
        assert "0 mismatches" in out


def test_demos_found():
    assert DEMOS


def test_readme_library_example_runs():
    # the README's fenced python block, run as written
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})


def test_readme_config_runs_strict_minimax(tmp_path):
    # the README's fenced json block, run by `python -m passlab.cli` in a
    # fresh process so the real exit code and the __main__ path are covered
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(blocks[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "passlab.cli", "minimax", "--strict",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"] == json.loads(blocks[0])
    names = {c["name"] for c in report["payload"]["checks"]}
    assert {"c1_within_0.03_of_oracle", "c2_within_0.03_of_oracle"} <= names
