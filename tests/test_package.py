import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permutomino

REMOVED = (
    "enumerate_convex",
    "generate",
    "degree",
    "Visitor",
    "census_by_class",
    "BivariateSeries",
    "diagnostic_triple_sum",
    "polynomial",
    "census_full_bivariate",
    "expand_en",
    "expand_nw",
    "expand_se",
    "expand_ws",
    "Label",
    "Poly",
    "_grown",
)
REMOVED_FROM_GRID = ("_occupied", "_corner_vertices", "_sdiff_runs", "_run_count", "_rises_then_falls", "_overlapping")
ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def test_census_attribute_is_the_module():
    assert permutomino.census is importlib.import_module("permutomino.census")
    from permutomino import census

    assert census is permutomino.census
    assert callable(census.census)


def _fresh_modules(code: str) -> list[str]:
    # the modules a fresh interpreter holds after running ``code``
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_count_imports_only_the_census():
    loaded = _fresh_modules("from permutomino.cli import main; main(['count', '--n', '1'])")
    assert [m for m in loaded if m.startswith("permutomino")] == ["permutomino", "permutomino.census", "permutomino.cli"]
    assert "dataclasses" not in loaded
    assert "fractions" not in loaded


def test_series_and_verify_run_without_rational_arithmetic():
    # every series coefficient is an int, so neither command needs fractions
    for argv in (["series", "F1", "--order", "5"], ["verify", "--max-n", "3", "--pair-n", "2"]):
        loaded = _fresh_modules(f"from permutomino.cli import main; main({argv!r})")
        assert "fractions" not in loaded and "decimal" not in loaded, argv


def test_bare_import_loads_no_submodule():
    loaded = _fresh_modules("import permutomino")
    assert [m for m in loaded if m.startswith("permutomino")] == ["permutomino"]


def test_lazy_exports_behave_like_attributes():
    assert set(permutomino.__all__) <= set(dir(permutomino))
    namespace = {}
    exec("from permutomino import *", namespace)
    for name in permutomino.__all__:
        assert namespace[name] is getattr(permutomino, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        permutomino.no_such_name


def test_every_exported_name_resolves():
    for name in permutomino.__all__:
        assert hasattr(permutomino, name), name


def test_removed_names_are_gone():
    modules = [permutomino] + [importlib.import_module(f"permutomino.{m}") for m in ("census", "eco", "grid", "oracle", "series")]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "census" not in permutomino.__all__
    assert not hasattr(permutomino.Permutomino, "cell_count")
    for name in ("from_terms", "at_s1", "constant_in_s", "integer_coeffs", "__rtruediv__"):
        assert not hasattr(permutomino.TruncatedSeries, name), name
    assert not hasattr(importlib.import_module("permutomino.cli"), "_open_out")
    assert not hasattr(permutomino.PermPair, "n")
    assert not hasattr(permutomino.ReentrantPermutation, "size")


def test_boundary_geometry_lives_in_the_profile_scan():
    # the edge walk and its helpers survive only as test references, and
    # eco.parent reads its last two columns instead of the boundary
    grid = importlib.import_module("permutomino.grid")
    eco = importlib.import_module("permutomino.eco")
    for name in REMOVED_FROM_GRID:
        assert not hasattr(grid, name), name
    assert not hasattr(grid.CornerReport, "rightmost_reentrant")
    assert not hasattr(eco, "boundary_word")
    assert not hasattr(eco, "corner_report")


def test_benchmark_spans_resolve():
    # a renamed function would silently read zero in a per-layer benchmark metric
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.FUNCTION_SPANS
    for module, attr, span in child.FUNCTION_SPANS:
        target = importlib.import_module(f"permutomino.{module}")
        assert callable(getattr(target, attr, None)), f"{span}: permutomino.{module}.{attr}"


def test_benchmark_census_counters_read_the_level_cache(monkeypatch):
    # perfbench/child.py reports census.levels and census.labels_top from these
    census_module = importlib.import_module("permutomino.census")
    monkeypatch.setattr(census_module, "_LEVELS", [census_module._ROOT])
    census_module.census(300)
    assert len(census_module._LEVELS) == 300
    assert len(census_module.census(300).rows()) == 598


def test_benchmark_checker_self_tests_pass():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "test_check.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
