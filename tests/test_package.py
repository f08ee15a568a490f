import importlib.util
from pathlib import Path

import permutomino

REMOVED = ("enumerate_convex", "generate", "degree", "Visitor", "census_by_class", "BivariateSeries")
CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_census_attribute_is_the_module():
    assert permutomino.census is importlib.import_module("permutomino.census")
    from permutomino import census

    assert census is permutomino.census
    assert callable(census.census)


def test_every_exported_name_resolves():
    for name in permutomino.__all__:
        assert hasattr(permutomino, name), name


def test_removed_names_are_gone():
    modules = [permutomino] + [importlib.import_module(f"permutomino.{m}") for m in ("census", "eco", "grid", "oracle", "series")]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "census" not in permutomino.__all__


def test_benchmark_spans_resolve():
    # a renamed function would silently read zero in a per-layer benchmark metric
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.FUNCTION_SPANS
    for module, attr, span in child.FUNCTION_SPANS:
        target = importlib.import_module(f"permutomino.{module}")
        assert callable(getattr(target, attr, None)), f"{span}: permutomino.{module}.{attr}"
