import importlib

import permutomino

REMOVED = ("enumerate_convex", "generate", "degree", "Visitor")


def test_census_attribute_is_the_module():
    assert permutomino.census is importlib.import_module("permutomino.census")
    from permutomino import census

    assert census is permutomino.census
    assert callable(census.census)


def test_every_exported_name_resolves():
    for name in permutomino.__all__:
        assert hasattr(permutomino, name), name


def test_removed_names_are_gone():
    modules = [permutomino] + [importlib.import_module(f"permutomino.{m}") for m in ("eco", "grid", "oracle")]
    for module in modules:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "census" not in permutomino.__all__
