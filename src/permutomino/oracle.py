"""Independent brute-force enumeration of convex polyominoes and convex
permutominoes.

Nothing here touches the recursive construction in :mod:`permutomino.eco`;
the only shared code is the geometric predicates of
:mod:`permutomino.grid`, so the counts produced here fail independently of
the generator.  The convex enumerator itself is certified against the
classical semi-perimeter totals 1, 2, 7, 28, 120, 528, ... before being
trusted as a filter base.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .grid import (
    DisconnectedPair,
    Interval,
    NotColumnConvex,
    PermPair,
    Permutomino,
    SelfIntersectingPair,
    from_permutations,
    is_convex,
    is_permutomino,
)


# The largest sizes the command line lets each brute force run.
# count_permutominoes(10) takes 15-20 s on a 2-core host under Python 3.11
# and each further size about five times longer; classify_pairs(6) would
# walk 7!^2 = 25 401 600 pairs.  Calibration to semi-perimeter M + 2 does
# about 4x the work per step of M: M = 12 takes 29-35 s, M = 16 hours.
MAX_N = 10
MAX_PAIR_N = 5
MAX_CALIBRATE = 12


def iter_convex(rows: int, cols: int, one_side: bool = False) -> Iterator[tuple[Interval, ...]]:
    """Every convex polyomino with exactly ``cols`` columns and exactly
    ``rows`` occupied rows, once each, as column intervals.

    The DFS builds column intervals left to right and prunes on the
    structure every convex shape must have: consecutive columns overlap,
    column tops rise then fall, column bottoms fall then rise.  A branch
    whose top profile has started falling short of the highest row (or whose
    bottom has started rising above row 1) can never fill the box and is cut.

    ``one_side`` enforces both halves of the permutomino definition during
    the search.  One vertical side per abscissa: consecutive columns move
    exactly one endpoint.  One horizontal side per ordinate: a column
    ``(lo, hi)`` has its bottom side at ordinate ``lo`` and its top side at
    ``hi + 1``; the first column claims both, and each step claims the
    ordinate of the side it starts, which must still be free.  In an
    n-by-n box every shape it yields is then a permutomino.
    """
    if rows < 1 or cols < 1:
        raise ValueError("box dimensions must be >= 1")

    def walk() -> Iterator[tuple[Interval, ...]]:
        # an explicit stack of partial shapes, each with its search state
        # (used, top_falling, bot_rising, seen_bottom, seen_top), pushed in
        # reverse so that they pop in order; the last column's shapes are
        # yielded straight away instead of being pushed
        stack = [
            (((lo, hi),), 1 << lo | 1 << (hi + 1), False, False, lo == 1, hi == rows)
            for lo in range(rows, 0, -1)
            for hi in range(rows, lo - 1, -1)
        ]
        while stack:
            path, used, top_falling, bot_rising, seen_bottom, seen_top = stack.pop()
            if len(path) == cols:
                if seen_bottom and seen_top:
                    yield path
                continue
            if (bot_rising and not seen_bottom) or (top_falling and not seen_top):
                continue
            prev_lo, prev_hi = path[-1]
            lo_min = prev_lo if bot_rising else 1
            hi_max = prev_hi if top_falling else rows
            if one_side:
                # ``used`` has bit y set when ordinate y carries a horizontal side;
                # prev_lo and prev_hi + 1 are set, so each step moves one endpoint
                steps = [(lo, prev_hi) for lo in range(lo_min, prev_hi + 1) if not used >> lo & 1]
                steps += [(prev_lo, hi) for hi in range(prev_lo, hi_max + 1) if not used >> (hi + 1) & 1]
            else:
                steps = [(lo, hi) for lo in range(lo_min, prev_hi + 1) for hi in range(max(lo, prev_lo), hi_max + 1)]
            if len(path) + 1 == cols:
                for lo, hi in steps:
                    if (seen_bottom or lo == 1) and (seen_top or hi == rows):
                        yield path + ((lo, hi),)
                continue
            stack += [
                (
                    path + ((lo, hi),),
                    used | 1 << lo | 1 << (hi + 1),
                    top_falling or hi < prev_hi,
                    bot_rising or lo > prev_lo,
                    seen_bottom or lo == 1,
                    seen_top or hi == rows,
                )
                for lo, hi in reversed(steps)
            ]

    return walk()


def convex_totals_by_semiperimeter(max_m: int) -> list[int]:
    """Totals of :func:`iter_convex` grouped by semi-perimeter: entry m
    sums over all boxes with rows + cols = m + 2."""
    totals = []
    for m in range(max_m + 1):
        semi = m + 2
        totals.append(sum(1 for r in range(1, semi) for _ in iter_convex(r, semi - r)))
    return totals


def iter_permutomino_survivors(n: int) -> Iterator[Permutomino]:
    """All size-n convex permutominoes found by brute force, as shapes.

    The one-side step rule only discards shapes the final
    :func:`is_permutomino` filter would reject anyway, and every shape it
    keeps passes that filter; the test suite checks both.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    return (Permutomino(cols) for cols in iter_convex(n, n, one_side=True) if is_permutomino(cols))


def count_permutominoes(n: int) -> int:
    """Brute-force count of convex permutominoes of size n."""
    return sum(1 for _ in iter_permutomino_survivors(n))


@dataclass(frozen=True)
class PairClassification:
    """Outcome histogram of reconstructing shapes from all pointwise-distinct
    permutation pairs of ``[n+1]``.

    Every valid convex permutomino is hit by exactly two ordered pairs (the
    pair and its swap), so ``valid_convex_pairs == 2 * len(convex_forms)``.
    """

    n: int
    total_pairs: int
    valid_convex_pairs: int
    valid_nonconvex_pairs: int
    disconnected_pairs: int
    self_intersecting_pairs: int
    convex_forms: frozenset[tuple[Interval, ...]]

    @property
    def distinct_convex(self) -> int:
        return len(self.convex_forms)


def classify_pairs(n: int) -> PairClassification:
    """Run the boundary reconstruction over every pointwise-distinct ordered
    pair of permutations of ``[n+1]`` and bucket the outcomes.

    Exhausts ``(n+1)!^2`` candidates, so keep n small (n <= 5)."""
    if n < 1:
        raise ValueError("size must be >= 1")
    total = valid_convex = valid_nonconvex = disconnected = crossing = 0
    forms: set[tuple[Interval, ...]] = set()
    ground = range(1, n + 2)
    for pi1 in permutations(ground):
        for pi2 in permutations(ground):
            if any(a == b for a, b in zip(pi1, pi2)):
                continue
            total += 1
            try:
                shape = from_permutations(PermPair(pi1, pi2))
            except DisconnectedPair:
                disconnected += 1
            except SelfIntersectingPair:
                crossing += 1
            except NotColumnConvex:
                valid_nonconvex += 1
            else:
                if is_convex(shape):
                    valid_convex += 1
                    forms.add(shape.cols)
                else:
                    valid_nonconvex += 1
    return PairClassification(
        n=n,
        total_pairs=total,
        valid_convex_pairs=valid_convex,
        valid_nonconvex_pairs=valid_nonconvex,
        disconnected_pairs=disconnected,
        self_intersecting_pairs=crossing,
        convex_forms=frozenset(forms),
    )


def count_pair_permutominoes(n: int) -> int:
    """Distinct valid convex permutominoes among all pair reconstructions."""
    return classify_pairs(n).distinct_convex
