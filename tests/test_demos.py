"""Smoke test: every demo script runs to completion."""
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name == "03_oracles.py":
        assert "0 mismatches" in out


def test_demos_found():
    assert DEMOS
