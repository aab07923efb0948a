"""The benchmark tracer's patch points still name bound attributes.

bench/spans.py wraps each library function where it is looked up, with
``vars(owner)[attr]``; a lookup site that is dropped from the library
makes a traced benchmark run fail with KeyError.  The harness module is
read and executed here without importing it from bench/, so nothing is
written there.
"""
import pathlib
import types

SPANS = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def _spans():
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_patch_point_resolves():
    points = _spans().patch_points()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
               for owner, attr, name, _, _ in points if attr not in vars(owner)]
    assert missing == []
