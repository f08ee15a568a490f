"""Workload definitions and the output checkers of the benchmark.

A checker never raises on bad output: every expected value, record or check
is one operation, and whatever is wrong, missing or extra is counted as a
failed operation, so a crash part-way through fails every remaining one.
Reference values come from the closed form, computed here independently of
the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

# the "n" whose shapes generate-stream emits; the sample size checked deeply
GENERATE_N = 9
GENERATE_SAMPLE = 100

VERIFY_CHECKS = (
    "sequence",
    "closed-form",
    "series",
    "eco-partition",
    "corner-identities",
    "oracle-calibration",
    "oracle-triangulation",
    "corollaries",
    "functional-equations",
    "kernel-root",
    "pair-oracle",
)


def closed_count(n: int) -> int:
    """2(n+3)4^(n-2) - (n/2)C(2n,n), in integers (n >= 1)."""
    return (n + 3) * 4**n // 8 - n * comb(2 * n, n) // 2


# captured stdout lines of each CLI command, in order; a child that died
# part-way leaves fewer (or shorter) sections
Sections = list[list[str]]


@dataclass
class Outcome:
    attempted: int
    failed: int
    units: int


def compare(expected: list[str], got: list[str]) -> tuple[int, int]:
    """(attempted, failed) for a line-by-line comparison; missing and extra
    lines are failures."""
    attempted = max(len(expected), len(got))
    passed = sum(1 for e, g in zip(expected, got) if e == g)
    return attempted, attempted - passed


def _section(sections: Sections, i: int) -> list[str]:
    return sections[i] if i < len(sections) else []


def _row_sum(line: str) -> str:
    # "n<TAB>c0,c1,..." -> "n<TAB>sum"; anything unparsable stays as is
    try:
        n, row = line.split("\t")
        return f"{int(n)}\t{sum(int(c) for c in row.split(','))}"
    except ValueError:
        return line


def check_census_deep(sections: Sections, seed: int) -> Outcome:
    counts = [str(closed_count(n)) for n in range(1, 301)]
    f1 = [f"{n}\t{closed_count(n) if n else 0}" for n in range(301)]
    fst = [f"{n}\t{closed_count(n) if n else 0}" for n in range(61)]
    attempted = failed = 0
    for i, expected in enumerate((counts, f1, fst)):
        got = _section(sections, i)
        if i == 2:
            got = [_row_sum(line) for line in got]
        a, f = compare(expected, got)
        attempted += a
        failed += f
    return Outcome(attempted, failed, attempted - failed)


def _deep_ok(line: str) -> bool:
    # rebuild the shape, validate it and walk the parent chain to the root
    from permutomino import eco, grid

    try:
        shape = grid.Permutomino.from_record(json.loads(line))
        if not grid.is_valid(shape):
            return False
        while shape.n > 1:
            before = shape.n
            shape, _ = eco.parent(shape)
            if shape.n != before - 1 or not grid.is_valid(shape):
                return False
        return shape == grid.UNIT
    except (ValueError, KeyError, TypeError, AssertionError):
        return False


def check_generate_stream(sections: Sections, seed: int) -> Outcome:
    lines = _section(sections, 0)
    expected = closed_count(GENERATE_N)
    bad: set[int] = set()
    seen: set[str] = set()
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
            good = isinstance(record, dict) and record.get("n") == GENERATE_N
        except ValueError:
            good = False
        if not good or line in seen:
            bad.add(i)
        seen.add(line)
    rng = random.Random(seed)
    for i in rng.sample(range(len(lines)), min(GENERATE_SAMPLE, len(lines))):
        if i not in bad and not _deep_ok(lines[i]):
            bad.add(i)
    attempted = max(expected, len(lines))
    failed = min(attempted, len(bad) + abs(expected - len(lines)))
    return Outcome(attempted, failed, attempted - failed)


def check_verify_deep(sections: Sections, seed: int) -> Outcome:
    # "<status> <name> <detail>"; indented witness lines follow a failure
    got = [" ".join(line.split()[:2]) for line in _section(sections, 0) if not line.startswith(" ")]
    expected = [f"ok {name}" for name in VERIFY_CHECKS]
    attempted, failed = compare(expected, got)
    # the unit of work is a child shape validated by eco-partition: shapes
    # of sizes 2..8, i.e. every child of levels 1..7
    partition_ok = len(got) > 3 and got[3] == "ok eco-partition"
    units = sum(closed_count(n) for n in range(2, 9)) if partition_ok else 0
    return Outcome(attempted, failed, units)


@dataclass(frozen=True)
class Workload:
    commands: list[list[str]]
    check: Callable[[Sections, int], Outcome]
    unit: str
    # per-layer counters a traced run must reproduce exactly
    exact_counts: dict[str, int]


WORKLOADS = {
    "census-deep": Workload(
        [["count", "--seq", "--n", "300"], ["series", "F1", "--order", "300"], ["series", "Fst", "--order", "60"]],
        check_census_deep,
        "exact values checked",
        {},
    ),
    "generate-stream": Workload(
        [["generate", "--n", str(GENERATE_N)]],
        check_generate_stream,
        "records",
        # children() runs once on every shape below the emitted size
        {"eco.children_calls": sum(closed_count(n) for n in range(1, GENERATE_N))},
    ),
    "verify-deep": Workload(
        [["verify", "--max-n", "7", "--pair-n", "4"]],
        check_verify_deep,
        "child shapes validated",
        # parent() runs once on every child of levels 1..7; the oracle
        # finds every shape of size <= 7
        {
            "eco.parent_calls": sum(closed_count(n) for n in range(2, 9)),
            "oracle.survivors": sum(closed_count(n) for n in range(1, 8)),
        },
    ),
}
