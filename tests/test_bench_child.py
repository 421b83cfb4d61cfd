"""The benchmark child's span wrappers still find every name they replace."""

import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def test_every_wrap_point_resolves():
    # bench/run.py only prints a note when a wrap point is missing, so a
    # renamed function would silently drop its per-layer metric.  Loading the
    # child does not install its wrappers, so each name is still the package's.
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.WRAP_POINTS
    for module, attr, *_ in child.WRAP_POINTS:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr} is missing"
        assert fn.__module__.startswith("spinbath."), f"{module.__name__}.{attr} is wrapped"
