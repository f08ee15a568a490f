"""Column-interval polyominoes on the square lattice.

Conventions used throughout the package:

* Cell ``(i, j)`` sits in column ``i`` (1-based, left to right) and row ``j``
  (1-based, bottom to top) and covers the unit square ``[i, i+1] x [j, j+1]``,
  so the south-west corner of the bounding box is the lattice point ``(1, 1)``.
* A shape is stored as one closed interval of rows per column.  That carries
  every column-convex polyomino; row-convexity and the permutomino property
  are separate predicates so that general shapes can flow through the same
  boundary machinery (the brute-force oracle relies on this).  Two readers
  scan the ``lo``/``hi`` column profiles.  ``_sides`` gives the vertical
  sides at every abscissa: :func:`boundary_word`, :func:`is_permutomino` and
  :func:`vertex_permutations` read them.  :func:`reentrant_corners` gives
  the corner kinds at every junction: :func:`is_convex`,
  :func:`reentrant_matrix` and ``eco.parent`` read them.  :func:`is_valid`,
  which ``verify`` calls on every shape, keeps a one-pass scan of its own.
* Boundary words are read clockwise from the leftmost boundary point of
  minimal ordinate, over the alphabet ``N E S W``.  Note that some of the
  literature writes west as ``O`` (ovest); here it is always ``W``.

Clockwise corner step-pairs ``NE, ES, SW, WN`` are convex ("salient")
corners; ``EN, SE, WS, NW`` are concave ("reentrant") corners.  Reentrant
kinds double as the names of the growth operations in :mod:`permutomino.eco`,
because each operation creates a child whose rightmost reentrant corner has
exactly that kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

Interval = tuple[int, int]
Point = tuple[int, int]

SALIENT_KINDS = ("NE", "ES", "SW", "WN")
REENTRANT_KINDS = ("EN", "SE", "WS", "NW")

_STEP = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
# each of the 16 step pairs -> (0 salient, 1 reentrant, 2 straight or
# 3 back-track, then the step of its second letter)
_PAIRS = {
    a + b: (0 if a + b in SALIENT_KINDS else 1 if a + b in REENTRANT_KINDS else 2 if a == b else 3, *_STEP[b])
    for a in _STEP
    for b in _STEP
}


class BoundaryError(ValueError):
    """The boundary is not a single simple closed clockwise curve."""


class PairError(ValueError):
    """A permutation pair does not define a column-convex permutomino."""


class DisconnectedPair(PairError):
    """The reconstructed boundary splits into several closed loops."""


class SelfIntersectingPair(PairError):
    """The reconstructed boundary crosses itself."""


class NotColumnConvex(PairError):
    """The boundary is a single simple loop but some column of the enclosed
    cell set is not one contiguous interval, so the shape cannot be carried
    by the column-interval representation."""


@dataclass(frozen=True)
class Permutomino:
    """A connected column-interval polyomino, south-west normalized.

    Construction enforces only structural well-formedness: integer intervals
    ``1 <= lo <= hi``, consecutive columns overlapping, and minimal row
    ordinate 1.  Convexity and the permutomino property are checked by
    :func:`is_convex` and :func:`is_permutomino`; valid convex permutominoes
    additionally have an exactly square bounding box.

    ``eco.children`` builds its shapes without these checks, because the
    expansions of a shape that passed them always pass them too;
    :func:`is_valid` checks the same structural rule, so a malformed child
    fails it instead of passing as valid.
    """

    cols: tuple[Interval, ...]

    def __post_init__(self) -> None:
        # one pass; a bad column anywhere outranks an earlier overlap error
        if not self.cols:
            raise ValueError("a polyomino needs at least one column")
        lo_a, hi_a = self.cols[0]
        apart = bottom = False
        for lo, hi in self.cols:
            if type(lo) is not int or type(hi) is not int:
                raise ValueError("column bounds must be integers")
            if not 1 <= lo <= hi:
                raise ValueError(f"bad column interval ({lo}, {hi})")
            apart = apart or lo > hi_a or hi < lo_a
            bottom = bottom or lo == 1
            lo_a, hi_a = lo, hi
        if apart:
            raise ValueError("consecutive columns do not overlap")
        if not bottom:
            raise ValueError("shape is not normalized to bottom row 1")

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "Permutomino":
        """Shape from ``(lo, hi)`` pairs of plain ints; bools, floats and
        anything else raise ValueError instead of being converted."""
        pairs = []
        for col in cols:
            if not isinstance(col, (list, tuple)) or len(col) != 2:
                raise ValueError(f"column {col!r} is not a pair of integers")
            pairs.append((col[0], col[1]))
        return cls(tuple(pairs))

    @property
    def n(self) -> int:
        """Number of columns; the size for valid convex permutominoes."""
        return len(self.cols)

    @property
    def height(self) -> int:
        return max(map(itemgetter(1), self.cols))

    @property
    def degree(self) -> int:
        lo, hi = self.cols[-1]
        return hi - lo + 1

    def touches_top(self) -> bool:
        """Rightmost column reaches the maximal ordinate of the shape."""
        return self.cols[-1][1] == self.height

    def touches_bottom(self) -> bool:
        """Rightmost column reaches the minimal ordinate (always 1)."""
        return self.cols[-1][0] == 1

    def cells(self) -> Iterator[Point]:
        for i, (lo, hi) in enumerate(self.cols, start=1):
            for j in range(lo, hi + 1):
                yield (i, j)

    def to_record(self) -> dict:
        k, group = classify(self)
        return {
            "n": self.n,
            "cols": [[lo, hi] for lo, hi in self.cols],
            "label": {"k": k, "class": group},
        }

    @classmethod
    def from_record(cls, record: dict) -> "Permutomino":
        """Shape from a JSONL record; raises ValueError unless the record
        is an object with a ``cols`` list of integer pairs."""
        if not isinstance(record, dict) or not isinstance(record.get("cols"), list):
            raise ValueError("record needs a 'cols' list")
        p = cls.from_columns(record["cols"])
        if "n" in record and (type(record["n"]) is not int or record["n"] != p.n):
            raise ValueError("record field 'n' does not match the columns")
        return p


UNIT = Permutomino(((1, 1),))


@dataclass(frozen=True)
class BoundaryWord:
    """Clockwise boundary word with its starting lattice point."""

    word: str
    start: Point

    def __len__(self) -> int:
        return len(self.word)

    def vertices(self) -> Iterator[Point]:
        """Lattice points visited by the walk, starting point first."""
        x, y = self.start
        for letter in self.word:
            yield (x, y)
            dx, dy = _STEP[letter]
            x, y = x + dx, y + dy


@dataclass(frozen=True)
class CornerReport:
    """Salient and reentrant corners of a boundary word, in walk order.

    Each entry is ``(vertex, kind)`` where ``kind`` is the clockwise step
    pair meeting at that lattice vertex.
    """

    salient: tuple[tuple[Point, str], ...]
    reentrant: tuple[tuple[Point, str], ...]


@dataclass(frozen=True)
class PermPair:
    """Two pointwise-distinct permutations of the same ground set.

    ``pi1[i-1]`` is the image of ``i``; for a convex permutomino of size n
    these are the ordinates of the odd- and even-indexed boundary vertices,
    both permutations of ``[n+1]``.
    """

    pi1: tuple[int, ...]
    pi2: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.pi1)
        if m < 2 or len(self.pi2) != m:
            raise ValueError("need two equal-length permutations of size >= 2")
        base = set(range(1, m + 1))
        if set(self.pi1) != base or set(self.pi2) != base:
            raise ValueError("entries must each be a permutation of 1..m")
        if any(a == b for a, b in zip(self.pi1, self.pi2)):
            raise ValueError("permutations must be pointwise distinct")


@dataclass(frozen=True)
class ReentrantPermutation:
    """Reentrant corners of a size-n convex permutomino as a permutation.

    The reentrant vertices have pairwise distinct abscissas and ordinates,
    all in ``[2, n]``; shifting by one gives a permutation of ``[n-1]``
    decorated with the corner kind at each position.
    """

    sigma: tuple[int, ...]
    symbols: tuple[str, ...]


def _cols_of(shape: "Permutomino | Sequence[Interval]") -> Sequence[Interval]:
    # a shape's columns, or the sequence as given: every reader only indexes,
    # slices and iterates over its pairs, so a list needs no copy
    return shape.cols if isinstance(shape, Permutomino) else shape


def _sides(cols: Sequence[Interval]) -> list[tuple[Interval | None, Interval | None]]:
    # clockwise vertical sides (y_from, y_to) at abscissas 1..n+1, as the
    # pair (side on the top path, side on the bottom path).  The top path
    # runs left to right from (1, lo_1) and opens with the left side; the
    # bottom path runs right to left and opens with the right side.
    sides: list[tuple[Interval | None, Interval | None]] = [((cols[0][0], cols[0][1] + 1), None)]
    for (lo_a, hi_a), (lo_b, hi_b) in zip(cols, cols[1:]):
        if lo_b > hi_a or hi_b < lo_a:
            raise BoundaryError("consecutive columns do not overlap")
        sides.append(((hi_a + 1, hi_b + 1) if hi_a != hi_b else None, (lo_b, lo_a) if lo_a != lo_b else None))
    sides.append((None, (cols[-1][1] + 1, cols[-1][0])))
    return sides


def _run(side: Interval | None) -> str:
    if side is None:
        return ""
    y_from, y_to = side
    return "N" * (y_to - y_from) if y_to > y_from else "S" * (y_from - y_to)


def boundary_word(shape: "Permutomino | Sequence[Interval]") -> BoundaryWord:
    """Clockwise boundary word of a connected column-interval polyomino.

    The walk starts at the leftmost boundary point of minimal ordinate and
    keeps the interior on its right, so a single cell reads ``NESW``.  For a
    convex permutomino of size n the word has length 4n.  It is the top
    path followed by the bottom path, both read off the column profiles;
    columns that do not overlap raise :class:`BoundaryError`.
    """
    cols = _cols_of(shape)
    sides = _sides(cols)
    top = "".join(_run(t) + "E" for t, _ in sides[:-1])
    bottom = [_run(b) + "W" for _, b in reversed(sides[1:])]
    # start at the left end of the bottom edge of the first lowest column
    # x0, which the bottom path reaches after abscissas n+1 .. x0+1
    lo_min = min(lo for lo, _ in cols)
    x0 = next(x for x, (lo, _) in enumerate(cols, start=1) if lo == lo_min)
    cut = len(cols) + 1 - x0
    return BoundaryWord("".join(bottom[cut:]) + top + "".join(bottom[:cut]), (x0, lo_min))


def corner_report(w: "BoundaryWord | str") -> CornerReport:
    """Classify every cyclically adjacent step pair of a boundary word.

    Rejects words containing an immediate back-track pair (``NS``, ``SN``,
    ``EW``, ``WE``), which cannot occur on a simple boundary.  Raw strings
    are accepted for convenience and anchored at ``(1, 1)``.
    """
    if isinstance(w, BoundaryWord):
        word, start = w.word, w.start
    else:
        word, start = str(w), (1, 1)
    if not word:
        raise BoundaryError("empty boundary word")
    if not set(word) <= _STEP.keys():
        raise BoundaryError("letters must be among N, E, S, W")
    if word.count("N") != word.count("S") or word.count("E") != word.count("W"):
        raise BoundaryError("word does not describe a closed path")

    salient: list[tuple[Point, str]] = []
    reentrant: list[tuple[Point, str]] = []
    corners = (salient.append, reentrant.append)
    x, y = start
    prev = word[-1]
    for letter in word:
        pair = prev + letter
        kind, dx, dy = _PAIRS[pair]
        if kind < 2:
            corners[kind](((x, y), pair))
        elif kind == 3:
            raise BoundaryError(f"immediate back-track pair {pair}")
        x += dx
        y += dy
        prev = letter
    return CornerReport(tuple(salient), tuple(reentrant))


def is_convex(shape: "Permutomino | Sequence[Interval]") -> bool:
    """True iff every row of the (connected) shape is one contiguous run.

    Column-convexity is structural in the representation, so this decides
    full convexity.  For connected columns a row breaks exactly where the
    profiles dip: the tops must weakly rise then fall, so no EN corner of
    :func:`reentrant_corners` comes after an SE, and the bottoms weakly fall
    then rise, so no NW comes after a WS.  Columns that do not overlap
    raise :class:`BoundaryError`.
    """
    kinds = [kind for _, kind in reentrant_corners(shape)]
    pairs = (("SE", "EN"), ("WS", "NW"))
    return not any(fall in kinds and rise in kinds[kinds.index(fall) :] for fall, rise in pairs)


def _single_sides(cols: Sequence[Interval]) -> list[Interval] | None:
    # the one vertical side at each abscissa, or None unless each grid line
    # carries exactly one side: n + 1 single sides whose starts, where the
    # horizontal sides sit, are distinct and span n.  lo_min and hi_max + 1
    # are always starts, so a span of n means the box is n high.
    single = [top or bottom for top, bottom in _sides(cols) if (top is None) != (bottom is None)]
    starts = {y for y, _ in single}
    if len(starts) == len(single) == len(cols) + 1 and max(starts) - min(starts) == len(cols):
        return single
    return None


def is_permutomino(shape: "Permutomino | Sequence[Interval]") -> bool:
    """True iff each grid line carries exactly one boundary side.

    Read off ``_sides``: exactly one vertical side per abscissa, and the
    start ordinates of those sides are exactly ``lo_min .. hi_max + 1``.
    Columns that do not overlap raise :class:`BoundaryError`.
    """
    return _single_sides(_cols_of(shape)) is not None


def is_valid(p: Permutomino) -> bool:
    """Full validity: the constructor's structural rule, square bounding box,
    convex, permutomino property.

    Shapes from ``eco.children`` skip the constructor, so this checks its
    rule too, and returns False, never an exception, for columns the
    constructor refuses.  The rest is ``p.height == p.n and is_convex(p)
    and is_permutomino(p)`` in the same scan: one end moves at each inner
    abscissa, tops rise then fall, bottoms fall then rise, and the start
    ordinates of the vertical sides never repeat, so with bottom row 1 and
    top row n they are exactly ``1 .. n + 1``.  Every column's ``lo`` is
    among those starts, so a column at row 1 means the start 1.
    """
    if not p.cols:
        return False
    cols = iter(p.cols)
    lo_a, hi_a = next(cols)
    if type(lo_a) is not int or type(hi_a) is not int or not 1 <= lo_a <= hi_a:
        return False
    starts = 1 << lo_a
    hi_max = hi_a
    top_falling = bottom_rising = False
    for lo_b, hi_b in cols:
        if type(lo_b) is not int or type(hi_b) is not int or not 1 <= lo_b <= hi_b:
            return False
        if hi_b != hi_a:
            if lo_b != lo_a:
                return False
            if hi_b > hi_a:
                if top_falling:
                    return False
                hi_max = hi_b
            else:
                top_falling = True
            y = hi_a + 1
        elif lo_b > lo_a:
            bottom_rising = True
            y = lo_b
        elif lo_b < lo_a and not bottom_rising:
            y = lo_b
        else:
            return False
        if starts >> y & 1:
            return False
        starts |= 1 << y
        lo_a, hi_a = lo_b, hi_b
    return starts & 2 != 0 and not starts >> (hi_a + 1) & 1 and hi_max == len(p.cols)


def classify(p: Permutomino) -> tuple[int, str]:
    """Generating-tree label of a shape as the census key ``(k, class)``.

    ``k`` is the degree, the number of cells in the rightmost column.  Class
    B means that column touches both the top and the bottom of the bounding
    box, R exactly one of them, G neither.
    """
    top = p.touches_top()
    bottom = p.touches_bottom()
    return (p.degree, "B" if top and bottom else "R" if top or bottom else "G")


def vertex_permutations(p: Permutomino) -> PermPair:
    """Split the boundary vertices of a valid convex permutomino into the
    odd- and even-indexed subsequences and return both as permutations.

    The walk starts at the leftmost bottom vertex, which opens a vertical
    side, so ``pi1(x)`` and ``pi2(x)`` are the start and end ordinates of the
    one vertical side at abscissa x.  Raises ``ValueError`` when the vertex
    sets are not permutation matrices of ``[n+1]`` (i.e. the shape is not a
    permutomino).
    """
    single = _single_sides(p.cols)
    if single is None:
        raise ValueError("vertex set is not a permutation matrix")
    return PermPair(tuple(y for y, _ in single), tuple(y for _, y in single))


def from_permutations(pair: PermPair) -> Permutomino:
    """Rebuild the polyomino whose boundary alternates the pair's vertices.

    The candidate boundary has one vertical side per abscissa, joining
    ``(x, pi1(x))`` to ``(x, pi2(x))``, and one horizontal side per ordinate,
    joining the two preimages of ``y``.  The pair defines a permutomino
    exactly when those segments form a single simple closed curve; the two
    failure modes raise :class:`SelfIntersectingPair` and
    :class:`DisconnectedPair`.  The enclosed shape may fail convexity; when
    its columns are not even contiguous (possible for larger sizes) the
    result cannot be represented here and :class:`NotColumnConvex` is raised.
    """
    pi1, pi2 = pair.pi1, pair.pi2
    m = len(pi1)
    inv1 = {y: x for x, y in enumerate(pi1, start=1)}
    inv2 = {y: x for x, y in enumerate(pi2, start=1)}
    vert = {x: (min(pi1[x - 1], pi2[x - 1]), max(pi1[x - 1], pi2[x - 1])) for x in range(1, m + 1)}
    horiz = {y: (min(inv1[y], inv2[y]), max(inv1[y], inv2[y])) for y in range(1, m + 1)}

    # every vertical/horizontal intersection must be a shared endpoint;
    # T-junctions are impossible for this construction, so anything else is
    # a proper crossing.
    for x in range(1, m + 1):
        y_lo, y_hi = vert[x]
        for y in range(y_lo, y_hi + 1):
            x_lo, x_hi = horiz[y]
            if x_lo <= x <= x_hi and y != pi1[x - 1] and y != pi2[x - 1]:
                raise SelfIntersectingPair(f"boundary crosses itself at {(x, y)}")

    # walk the loop through abscissa 1, alternating vertical and horizontal
    # sides; a single loop must visit every abscissa.
    seen: set[int] = set()
    x, y = 1, pi1[0]
    start = (x, y)
    while True:
        seen.add(x)
        y = pi2[x - 1] if y == pi1[x - 1] else pi1[x - 1]
        x = inv2[y] if x == inv1[y] else inv1[y]
        if (x, y) == start:
            break
    if len(seen) != m:
        raise DisconnectedPair("boundary splits into several loops")

    # downward ray casting per column strip: a cell is inside iff an odd
    # number of horizontal sides spans the strip at or below the cell.  The
    # one simple loop, with sides at x = 1 and x = m, crosses each strip 2, 4, ... times.
    cols: list[Interval] = []
    for i in range(1, m):
        flips = [y for y in range(1, m + 1) if horiz[y][0] <= i and horiz[y][1] >= i + 1]
        if len(flips) > 2:
            raise NotColumnConvex(f"column {i} encloses several cell runs")
        cols.append((flips[0], flips[1] - 1))
    return Permutomino(tuple(cols))


def reentrant_corners(shape: "Permutomino | Sequence[Interval]") -> tuple[tuple[Point, str], ...]:
    """Reentrant corners of a connected column-interval polyomino, ordered
    by abscissa, as ``(vertex, kind)`` pairs like :class:`CornerReport`'s.

    Read off the column profiles: at each inner abscissa x, column x-1
    ``(lo_a, hi_a)`` meets column x ``(lo_b, hi_b)``.  A top that steps up
    makes EN at ``(x, hi_a+1)``, one that steps down SE at ``(x, hi_b+1)``;
    a bottom that steps up makes WS at ``(x, lo_b)``, one that steps down NW
    at ``(x, lo_a)``.  Columns that do not overlap raise
    :class:`BoundaryError`.
    """
    cols = _cols_of(shape)
    corners: list[tuple[Point, str]] = []
    for x, ((lo_a, hi_a), (lo_b, hi_b)) in enumerate(zip(cols, cols[1:]), start=2):
        if lo_b > hi_a or hi_b < lo_a:
            raise BoundaryError("consecutive columns do not overlap")
        if hi_b > hi_a:
            corners.append(((x, hi_a + 1), "EN"))
        elif hi_b < hi_a:
            corners.append(((x, hi_b + 1), "SE"))
        if lo_b > lo_a:
            corners.append(((x, lo_b), "WS"))
        elif lo_b < lo_a:
            corners.append(((x, lo_a), "NW"))
    return tuple(corners)


def reentrant_matrix(p: Permutomino) -> ReentrantPermutation:
    """Reentrant corners of a valid convex permutomino as a decorated
    permutation of ``[n-1]`` (empty for n = 1).

    Raises ``ValueError`` unless there is exactly one corner at each inner
    abscissa ``2..n`` and the corner ordinates are exactly ``2..n``.
    """
    corners = reentrant_corners(p)
    inner = list(range(2, p.n + 1))
    if [x for (x, _), _ in corners] != inner or sorted(y for (_, y), _ in corners) != inner:
        raise ValueError("reentrant corners do not form a permutation matrix")
    return ReentrantPermutation(tuple(y - 1 for (_, y), _ in corners), tuple(kind for _, kind in corners))


# Largest drawing box, columns times height, that render() draws.  A convex
# permutomino of size n fits in n x n, so every shape up to n = 316 passes;
# a 1 x 100 000 svg takes about 0.6 s and 69 MiB, and time and memory
# grow linearly in the box.
MAX_RENDER_CELLS = 10**5


def render(p: Permutomino, fmt: str = "ascii") -> str:
    """Deterministic drawing of a shape, as an ASCII block grid or SVG 1.1.

    Raises ValueError, before drawing anything, for a drawing box of more
    than ``MAX_RENDER_CELLS`` cells.
    """
    if p.n * p.height > MAX_RENDER_CELLS:
        raise ValueError(f"drawing box {p.n} x {p.height} is above the render cap of {MAX_RENDER_CELLS} cells")
    if fmt == "ascii":
        return render_ascii(p)
    if fmt == "svg":
        return render_svg(p)
    raise ValueError(f"unknown render format {fmt!r}")


def render_ascii(p: Permutomino) -> str:
    height = p.height
    filled = set(p.cells())
    lines = []
    for y in range(height, 0, -1):
        lines.append("".join("#" if (x, y) in filled else " " for x in range(1, p.n + 1)).rstrip())
    return "\n".join(lines)


_SVG_SCALE = 20
_SVG_MARGIN = 10


def _svg_point(x: int, y: int, height: int) -> tuple[int, int]:
    # flip the y axis: SVG grows downward
    return (
        _SVG_MARGIN + (x - 1) * _SVG_SCALE,
        _SVG_MARGIN + (height + 1 - y) * _SVG_SCALE,
    )


def render_svg(p: Permutomino) -> str:
    height = p.height
    width_px = 2 * _SVG_MARGIN + p.n * _SVG_SCALE
    height_px = 2 * _SVG_MARGIN + height * _SVG_SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
    ]
    for x, y in p.cells():
        px, py = _svg_point(x, y + 1, height)
        parts.append(
            f'<rect x="{px}" y="{py}" width="{_SVG_SCALE}" height="{_SVG_SCALE}" '
            f'fill="#d0d7e4" stroke="#8899aa" stroke-width="1"/>'
        )
    bw = boundary_word(p)
    points = list(bw.vertices())
    points.append(points[0])
    path = " ".join(
        ("M" if idx == 0 else "L") + "{},{}".format(*_svg_point(x, y, height))
        for idx, (x, y) in enumerate(points)
    )
    parts.append(f'<path d="{path} Z" fill="none" stroke="black" stroke-width="2"/>')
    report = corner_report(bw)
    half = 4
    styles = ('fill="black"', 'fill="white" stroke="black" stroke-width="1.5"')
    for corners, style in zip((report.salient, report.reentrant), styles):
        for (x, y), _kind in corners:
            px, py = _svg_point(x, y, height)
            parts.append(f'<rect x="{px - half}" y="{py - half}" width="{2 * half}" height="{2 * half}" {style}/>')
    parts.append("</svg>")
    return "\n".join(parts)
