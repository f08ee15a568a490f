"""Cross-verification suite: every counting route must agree.

Each check returns a :class:`CheckResult`; a failing check carries a short
reason and, when a single shape is to blame, its JSON record as a witness.
The CLI ``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO

from . import eco, oracle, series
from .census import (
    catalan,
    census,
    closed_convex_polyominoes,
    closed_count,
    closed_directed,
    closed_stack,
    count,
    production,
)
from .grid import Permutomino, boundary_word, classify, corner_report, is_valid, reentrant_corners, reentrant_matrix

SEQUENCE = (1, 4, 18, 84, 394, 1836, 8468)

# The largest ``verify --max-n``.  Memory stays at about 18 MiB, so time
# sets it: cold on two cores with the oracles at 1, --max-n 8 takes 3.5-4 s
# and --max-n 9 13-15 s, each level about 4x the one before.
MAX_N = 9


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    witness: str | None = None


def _fail(name: str, detail: str, shape: Permutomino | None = None) -> CheckResult:
    witness = json.dumps(shape.to_record()) if shape is not None else None
    return CheckResult(name, False, detail, witness)


def materialize_levels(max_n: int) -> dict[int, list[Permutomino]]:
    """Shapes of every size up to ``max_n``, each level in walk order."""
    return {n: list(eco.iter_permutominoes(n)) for n in range(1, max_n + 1)}


def check_sequence() -> CheckResult:
    got = tuple(count(n) for n in range(1, 8))
    if got != SEQUENCE:
        return _fail("sequence", f"census totals {got} != {SEQUENCE}")
    return CheckResult("sequence", True, "f(1..7) = " + " ".join(map(str, got)))


def _matches_census(name: str, route: str, count_of: Callable[[int], int], max_n: int) -> CheckResult:
    for n in range(1, max_n + 1):
        got, want = count_of(n), count(n)
        if got != want:
            return _fail(name, f"{route} found {got} at n={n}, census says {want}")
    return CheckResult(name, True, f"{route} == census for n <= {max_n}")


def check_closed_form(max_n: int = 40) -> CheckResult:
    return _matches_census("closed-form", "closed form", closed_count, max_n)


def check_series(max_n: int = 25) -> CheckResult:
    f1 = series.series_f1(max_n)
    b1 = series.series_b1(max_n)
    r1 = series.series_r1(max_n)
    n1 = series.series_n1(max_n)
    for n in range(1, max_n + 1):
        b, r, g = census(n).by_class()
        expected = {"F": count(n), "B": b, "R": r, "G": g}
        got = {"F": f1[n], "B": b1[n], "R": r1[n], "G": n1[n]}
        for key in expected:
            if got[key] != expected[key]:
                return _fail("series", f"[t^{n}] {key}-series = {got[key]} != census {expected[key]}")
    return CheckResult("series", True, f"all four series match the census for n <= {max_n}")


def check_eco_partition(max_n: int) -> CheckResult:
    # eco.walk descends into a family only after it has passed here, and no
    # set of shapes is kept: ``parent`` is a function and one parent's tags are
    # distinct, so by induction on n the children that pass the round trip
    # are distinct, and a tally per level equal to the census shows they fill it.
    name = "eco-partition"
    tally = [1] + [0] * max_n  # shapes of sizes 1..max_n+1
    for p, label, top, _, kids in eco.walk(max_n):
        expected = production(*label)
        if len(kids) != len(expected):
            return _fail(name, f"label {label} produced {len(kids)} children", p)
        if len({tag for tag, _ in kids}) != len(kids):
            return _fail(name, f"children of {label} repeat a tag", p)
        labels = [classify(c) for _, c in kids]
        if sorted(labels) != sorted(expected):
            return _fail(name, f"children labels of {label} break the succession rule", p)
        for (tag, child), got in zip(kids, labels):
            carried = eco.child_label(label, tag, top)
            if got != carried:
                return _fail(name, f"{tag} child of {label} is {got}, child_label says {carried}", child)
            if not is_valid(child):
                return _fail(name, "invalid child", child)
            back, back_tag = eco.parent(child)
            if back != p or back_tag != tag:
                return _fail(name, f"parent round-trip broke for tag {tag}", child)
        tally[p.n] += len(kids)
    for n, got in enumerate(tally, start=1):
        if got != count(n):
            return _fail(name, f"level {n} has {got} shapes, census says {count(n)}")
    return CheckResult(name, True, f"partition, validity and round-trips hold for levels 1..{max_n}")


def check_corner_identities(max_n: int) -> CheckResult:
    # the single cell, then the children of each shape below max_n in walk
    # order: every shape of sizes 1..max_n once, none of size max_n expanded
    name = "corner-identities"
    below = (child for *_, kids in eco.walk(max_n - 1) for _, child in kids)
    for p in chain([eco.UNIT] if max_n > 0 else [], below):
        n = p.n
        bw = boundary_word(p)
        if len(bw) != 4 * n:
            return _fail(name, f"boundary length {len(bw)} != {4 * n}", p)
        report = corner_report(bw)
        if len(report.salient) != n + 3 or len(report.reentrant) != n - 1:
            return _fail(
                name,
                f"{len(report.salient)} salient / {len(report.reentrant)} reentrant at size {n}",
                p,
            )
        if sorted(report.reentrant) != sorted(reentrant_corners(p)):
            return _fail(name, "boundary word and column profiles disagree on the reentrant corners", p)
        try:
            reentrant_matrix(p)
        except ValueError as exc:
            return _fail(name, str(exc), p)
    return CheckResult(name, True, f"n+3 salient, n-1 reentrant, permutation matrices for n <= {max_n}")


def check_oracle_calibration(max_m: int = 8) -> CheckResult:
    got = oracle.convex_totals_by_semiperimeter(max_m)
    expected = [closed_convex_polyominoes(m) for m in range(max_m + 1)]
    if got != expected:
        return _fail("oracle-calibration", f"totals {got} != {expected}")
    return CheckResult(
        "oracle-calibration",
        True,
        f"convex totals match for semi-perimeter <= {max_m + 2}: " + " ".join(map(str, got)),
    )


def check_oracle_triangulation(max_n: int) -> CheckResult:
    return _matches_census("oracle-triangulation", "brute force", oracle.count_permutominoes, max_n)


def check_corollaries(max_n: int = 20) -> CheckResult:
    name = "corollaries"
    for n in range(1, max_n + 1):
        b, r, _ = census(n).by_class()
        if b != closed_stack(n):
            return _fail(name, f"class-B mass {b} != 2^{n - 1}")
        if r % 2 != 0:
            return _fail(name, f"class-R mass {r} is odd at n={n}")
        if b + r // 2 != closed_directed(n):
            return _fail(name, f"B + R/2 != C(2n,n)/2 at n={n}")
    return CheckResult(name, True, f"stack = 2^(n-1) and B + R/2 = C(2n,n)/2 for n <= {max_n}")


def check_functional_equations(order: int) -> CheckResult:
    residuals = series.functional_equation_residuals(order)
    for key, residual in residuals.items():
        worst = max(abs(c) for row in residual for c in row)
        if worst:
            return _fail(
                "functional-equations",
                f"{key}-equation residual has max |coeff| {worst} at order {order}",
            )
    return CheckResult("functional-equations", True, f"both equations hold identically to order {order}")


def check_kernel(order: int = 30) -> CheckResult:
    residual = series.kernel_residual(order)
    if not residual.is_zero():
        return _fail("kernel-root", f"1 - s0 + t s0^2 != 0 to order {order}")
    root = series.kernel_root(order)
    if any(root[k] != catalan(k) for k in range(order + 1)):
        return _fail("kernel-root", "root series coefficients are not the Catalan numbers")
    return CheckResult(
        "kernel-root", True, f"kernel residual vanishes to order {order}, coefficients are Catalan numbers"
    )


def check_pair_oracle(max_n: int) -> CheckResult:
    return _matches_census("pair-oracle", "pair reconstruction", oracle.count_pair_permutominoes, max_n)


# Checks run in one forked worker beside eco-partition, where os.fork exists.
# eco-partition and oracle-triangulation stay in the calling process because
# the traced benchmark counts their calls there exactly, and
# oracle-calibration because it starts only after corner-identities' line is out.
_IN_WORKER = ("corner-identities", "pair-oracle")


def _run(name: str, check: Callable[..., CheckResult], args: tuple) -> CheckResult:
    try:
        return check(*args)
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _fork(checks: list) -> tuple[int, BinaryIO]:
    """Fork a worker that runs ``checks`` in order and writes each pickled
    result to the pipe it returns; the worker never returns here."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            for check in checks:
                os.write(write, pickle.dumps(_run(*check)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def run_checks(*, max_n: int, oracle_n: int, order: int, pair_n: int) -> Iterator[CheckResult]:
    """Run the whole triangulation suite with the given bounds.

    Each result is yielded in list order when its check finishes. A check
    that raises fails under its own name, with the exception's type and
    message as its detail, and the checks after it still run. Where
    ``os.fork`` exists, ``_IN_WORKER`` runs in a worker process that lives
    from eco-partition's start until this generator ends or is closed.
    """
    checks = [
        ("sequence", check_sequence, ()),
        ("closed-form", check_closed_form, ()),
        ("series", check_series, ()),
        ("eco-partition", check_eco_partition, (max_n,)),
        ("corner-identities", check_corner_identities, (max_n,)),
        ("oracle-calibration", check_oracle_calibration, ()),
        ("oracle-triangulation", check_oracle_triangulation, (oracle_n,)),
        ("corollaries", check_corollaries, ()),
        ("functional-equations", check_functional_equations, (order,)),
        ("kernel-root", check_kernel, ()),
        ("pair-oracle", check_pair_oracle, (pair_n,)),
    ]
    pid = pipe = status = None
    try:
        for name, check, args in checks:
            if name == "eco-partition" and hasattr(os, "fork"):
                pid, pipe = _fork([c for c in checks if c[0] in _IN_WORKER])
            if pipe is None or name not in _IN_WORKER:
                yield _run(name, check, args)
                continue
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                if status is None:
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                result = CheckResult(name, False, f"worker process exited with status {status} before this check ended")
            yield result
    finally:
        if pipe is not None:
            pipe.close()
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
