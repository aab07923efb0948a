"""Smoke tests: every demo script and the README's library example run to
completion."""
import pathlib
import re
import runpy

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
