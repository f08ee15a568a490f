"""The cell- and edge-level boundary derivations that ``permutomino.grid``
used before it read the boundary off the column profiles, and the
boundary-word walk that ``reentrant_matrix`` used before it read the
reentrant corners off them.

They are kept here only as references: the tests compare the profile
scans with them.  The bodies are unchanged apart from their names.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from permutomino.grid import (
    _STEP,
    BoundaryError,
    BoundaryWord,
    Interval,
    PermPair,
    Permutomino,
    Point,
    ReentrantPermutation,
    _cols_of,
    corner_report,
)


def _occupied(cols: tuple[Interval, ...], x: int, y: int) -> bool:
    if not 1 <= x <= len(cols):
        return False
    lo, hi = cols[x - 1]
    return lo <= y <= hi


def boundary_word(shape: "Permutomino | Sequence[Interval]") -> BoundaryWord:
    """Clockwise boundary word of a connected column-interval polyomino.

    The walk starts at the leftmost boundary point of minimal ordinate and
    keeps the interior on its right, so a single cell reads ``NESW``.  For a
    convex permutomino of size n the word has length 4n.
    """
    cols = _cols_of(shape)
    edges: dict[Point, tuple[str, Point]] = {}

    def add(src: Point, letter: str, dst: Point) -> None:
        if src in edges:
            raise BoundaryError(f"boundary touches itself at {src}")
        edges[src] = (letter, dst)

    for x, (lo, hi) in enumerate(cols, start=1):
        for y in range(lo, hi + 1):
            if not _occupied(cols, x - 1, y):
                add((x, y), "N", (x, y + 1))
            if not _occupied(cols, x + 1, y):
                add((x + 1, y + 1), "S", (x + 1, y))
            if not _occupied(cols, x, y + 1):
                add((x, y + 1), "E", (x + 1, y + 1))
            if not _occupied(cols, x, y - 1):
                add((x + 1, y), "W", (x, y))

    bottom = min(lo for lo, _ in cols)
    start = (min(x for x, (lo, _) in enumerate(cols, start=1) if lo == bottom), bottom)
    letters = []
    vertex = start
    for _ in range(len(edges)):
        letter, vertex_next = edges[vertex]
        letters.append(letter)
        vertex = vertex_next
        if vertex == start:
            break
    if vertex != start or len(letters) < len(edges):
        raise BoundaryError("boundary is not a single closed curve")
    return BoundaryWord("".join(letters), start)


def _sdiff_runs(a: Interval | None, b: Interval | None) -> int:
    # number of maximal runs in the symmetric difference of two row
    # intervals; assumes they overlap when both are present (connectedness).
    if a is None and b is None:
        return 0
    if a is None or b is None:
        return 1
    if a == b:
        return 0
    if a[0] == b[0] or a[1] == b[1]:
        return 1
    return 2


def _run_count(indices: Sequence[int]) -> int:
    runs = 0
    prev = None
    for i in indices:
        if prev is None or i != prev + 1:
            runs += 1
        prev = i
    return runs


def is_convex(shape: "Permutomino | Sequence[Interval]") -> bool:
    """True iff every row of the (connected) shape is one contiguous run.

    Column-convexity is structural in the representation, so this decides
    full convexity.
    """
    cols = _cols_of(shape)
    rows: dict[int, list[int]] = {}
    for i, (lo, hi) in enumerate(cols, start=1):
        for y in range(lo, hi + 1):
            stat = rows.get(y)
            if stat is None:
                rows[y] = [i, i, 1]
            else:
                stat[0] = min(stat[0], i)
                stat[1] = max(stat[1], i)
                stat[2] += 1
    return all(last - first + 1 == count for first, last, count in rows.values())


def is_permutomino(shape: "Permutomino | Sequence[Interval]") -> bool:
    """True iff each grid line carries exactly one boundary side.

    Vertical sides at abscissa x are the maximal runs in the symmetric
    difference of columns x-1 and x; horizontal sides at ordinate y are the
    maximal runs of column bottoms at y and column tops at y-1 (under the
    connectedness precondition the two families can never merge).
    """
    cols = _cols_of(shape)
    n = len(cols)
    for x in range(1, n + 2):
        a = cols[x - 2] if x >= 2 else None
        b = cols[x - 1] if x <= n else None
        if _sdiff_runs(a, b) != 1:
            return False
    bottoms: dict[int, list[int]] = defaultdict(list)
    tops: dict[int, list[int]] = defaultdict(list)
    for i, (lo, hi) in enumerate(cols):
        bottoms[lo].append(i)
        tops[hi + 1].append(i)
    lo_min = min(lo for lo, _ in cols)
    hi_max = max(hi for _, hi in cols)
    for y in range(lo_min, hi_max + 2):
        if _run_count(bottoms.get(y, ())) + _run_count(tops.get(y, ())) != 1:
            return False
    return True


def _corner_vertices(bw: BoundaryWord) -> list[Point]:
    # all direction changes in walk order; the start vertex comes first
    # because the arriving step (the word's last letter) differs from the
    # leaving one on any simple boundary.
    word = bw.word
    out: list[Point] = []
    x, y = bw.start
    for idx in range(len(word)):
        if word[idx - 1] != word[idx]:
            out.append((x, y))
        dx, dy = _STEP[word[idx]]
        x, y = x + dx, y + dy
    return out


def vertex_permutations(p: Permutomino) -> PermPair:
    """Split the boundary vertices of a valid convex permutomino into the
    odd- and even-indexed subsequences and return both as permutations.

    The walk starts at the leftmost bottom vertex, so that vertex belongs to
    the first permutation.  Raises ``ValueError`` when the vertex sets are
    not permutation matrices of ``[n+1]`` (i.e. the shape is not a
    permutomino).
    """
    corners = _corner_vertices(boundary_word(p))
    m = p.n + 1
    if len(corners) != 2 * m:
        raise ValueError("boundary does not have 2(n+1) vertices")
    maps: list[dict[int, int]] = [{}, {}]
    for pos, (x, y) in enumerate(corners):
        side = maps[pos % 2]
        if x in side:
            raise ValueError("vertex set is not a permutation matrix")
        side[x] = y
    for side in maps:
        if set(side) != set(range(1, m + 1)) or set(side.values()) != set(range(1, m + 1)):
            raise ValueError("vertex set is not a permutation matrix")
    return PermPair(
        tuple(maps[0][x] for x in range(1, m + 1)),
        tuple(maps[1][x] for x in range(1, m + 1)),
    )


def reentrant_matrix(p: Permutomino) -> ReentrantPermutation:
    """Reentrant corners of a valid convex permutomino as a decorated
    permutation of ``[n-1]`` (empty for n = 1)."""
    report = corner_report(boundary_word(p))
    size = p.n - 1
    by_abscissa: dict[int, tuple[int, str]] = {}
    ordinates: set[int] = set()
    for (x, y), kind in report.reentrant:
        if x - 1 in by_abscissa or y - 1 in ordinates:
            raise ValueError("reentrant corners do not form a permutation matrix")
        by_abscissa[x - 1] = (y - 1, kind)
        ordinates.add(y - 1)
    if set(by_abscissa) != set(range(1, size + 1)):
        raise ValueError("reentrant corners do not form a permutation matrix")
    sigma = tuple(by_abscissa[x][0] for x in range(1, size + 1))
    symbols = tuple(by_abscissa[x][1] for x in range(1, size + 1))
    if set(sigma) != set(range(1, size + 1)):
        raise ValueError("reentrant corners do not form a permutation matrix")
    return ReentrantPermutation(sigma, symbols)
