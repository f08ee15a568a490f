"""Column-interval polyominoes on the square lattice.

Conventions used throughout the package:

* Cell ``(i, j)`` sits in column ``i`` (1-based, left to right) and row ``j``
  (1-based, bottom to top) and covers the unit square ``[i, i+1] x [j, j+1]``,
  so the south-west corner of the bounding box is the lattice point ``(1, 1)``.
* A shape is stored as one closed interval of rows per column.  That carries
  every column-convex polyomino; row-convexity and the permutomino property
  are separate predicates so that general shapes can flow through the same
  boundary machinery (the brute-force oracle relies on this).
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

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Interval = tuple[int, int]
Point = tuple[int, int]

SALIENT_KINDS = ("NE", "ES", "SW", "WN")
REENTRANT_KINDS = ("EN", "SE", "WS", "NW")

_STEP = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_BACKTRACK = {"NS", "SN", "EW", "WE"}


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
class Label:
    """Generating-tree label: degree plus class B / R / G.

    ``k`` is the number of cells in the rightmost column.  Class B means the
    rightmost column touches both the top and the bottom of the bounding box,
    R exactly one of them, G neither.  For class R, ``flush`` records which
    side is touched (``"top"`` or ``"bottom"``); it is ``None`` otherwise.
    """

    k: int
    group: str
    flush: str | None = None

    def key(self) -> tuple[int, str]:
        """(degree, class) pair; the census works at this granularity."""
        return (self.k, self.group)

    def __str__(self) -> str:
        return f"({self.k}){self.group.lower()}"


@dataclass(frozen=True)
class Permutomino:
    """A connected column-interval polyomino, south-west normalized.

    Construction enforces only structural well-formedness: integer intervals
    ``1 <= lo <= hi``, consecutive columns overlapping, and minimal row
    ordinate 1.  Convexity and the permutomino property are checked by
    :func:`is_convex` and :func:`is_permutomino`; valid convex permutominoes
    additionally have an exactly square bounding box.
    """

    cols: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.cols:
            raise ValueError("a polyomino needs at least one column")
        for lo, hi in self.cols:
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise ValueError("column bounds must be integers")
            if not 1 <= lo <= hi:
                raise ValueError(f"bad column interval ({lo}, {hi})")
        for (lo_a, hi_a), (lo_b, hi_b) in zip(self.cols, self.cols[1:]):
            if lo_b > hi_a or hi_b < lo_a:
                raise ValueError("consecutive columns do not overlap")
        if min(lo for lo, _ in self.cols) != 1:
            raise ValueError("shape is not normalized to bottom row 1")

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "Permutomino":
        """Shape from ``(lo, hi)`` pairs of plain ints; bools, floats and
        anything else raise ValueError instead of being converted."""
        pairs = []
        for col in cols:
            if not isinstance(col, (list, tuple)) or len(col) != 2 or any(type(v) is not int for v in col):
                raise ValueError(f"column {col!r} is not a pair of integers")
            pairs.append((col[0], col[1]))
        return cls(tuple(pairs))

    @property
    def n(self) -> int:
        """Number of columns; the size for valid convex permutominoes."""
        return len(self.cols)

    @property
    def height(self) -> int:
        return max(hi for _, hi in self.cols)

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

    def cell_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.cols)

    def cells(self) -> Iterator[Point]:
        for i, (lo, hi) in enumerate(self.cols, start=1):
            for j in range(lo, hi + 1):
                yield (i, j)

    def to_record(self) -> dict:
        label = classify(self)
        return {
            "n": self.n,
            "cols": [[lo, hi] for lo, hi in self.cols],
            "label": {"k": label.k, "class": label.group},
        }

    @classmethod
    def from_record(cls, record: dict) -> "Permutomino":
        """Shape from a JSONL record; raises ValueError unless the record
        is an object with a ``cols`` list of integer pairs."""
        if not isinstance(record, dict) or not isinstance(record.get("cols"), list):
            raise ValueError("record needs a 'cols' list")
        p = cls.from_columns(record["cols"])
        if "n" in record and record["n"] != p.n:
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

    def rightmost_reentrant(self) -> tuple[Point, str]:
        if not self.reentrant:
            raise ValueError("no reentrant corners")
        return max(self.reentrant, key=lambda item: item[0][0])


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

    @property
    def n(self) -> int:
        return len(self.pi1) - 1


@dataclass(frozen=True)
class ReentrantPermutation:
    """Reentrant corners of a size-n convex permutomino as a permutation.

    The reentrant vertices have pairwise distinct abscissas and ordinates,
    all in ``[2, n]``; shifting by one gives a permutation of ``[n-1]``
    decorated with the corner kind at each position.
    """

    sigma: tuple[int, ...]
    symbols: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.sigma)


def _cols_of(shape: "Permutomino | Sequence[Interval]") -> tuple[Interval, ...]:
    if isinstance(shape, Permutomino):
        return shape.cols
    return tuple((lo, hi) for lo, hi in shape)


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
    if any(letter not in _STEP for letter in word):
        raise BoundaryError("letters must be among N, E, S, W")
    if word.count("N") != word.count("S") or word.count("E") != word.count("W"):
        raise BoundaryError("word does not describe a closed path")

    salient: list[tuple[Point, str]] = []
    reentrant: list[tuple[Point, str]] = []
    x, y = start
    for idx in range(len(word)):
        pair = word[idx - 1] + word[idx]
        if pair in _BACKTRACK:
            raise BoundaryError(f"immediate back-track pair {pair}")
        if pair in SALIENT_KINDS:
            salient.append(((x, y), pair))
        elif pair in REENTRANT_KINDS:
            reentrant.append(((x, y), pair))
        dx, dy = _STEP[word[idx]]
        x, y = x + dx, y + dy
    return CornerReport(tuple(salient), tuple(reentrant))


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


def is_valid(p: Permutomino) -> bool:
    """Full validity: square bounding box, convex, permutomino property."""
    return p.height == p.n and is_convex(p) and is_permutomino(p)


def classify(p: Permutomino) -> Label:
    """Degree and class of a shape, read off its rightmost column."""
    top = p.touches_top()
    bottom = p.touches_bottom()
    if top and bottom:
        return Label(p.degree, "B")
    if top:
        return Label(p.degree, "R", "top")
    if bottom:
        return Label(p.degree, "R", "bottom")
    return Label(p.degree, "G")


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
    # number of horizontal sides spans the strip at or below the cell.
    cols: list[Interval] = []
    for i in range(1, m):
        flips = [y for y in range(1, m + 1) if horiz[y][0] <= i and horiz[y][1] >= i + 1]
        if len(flips) == 2:
            cols.append((flips[0], flips[1] - 1))
        elif len(flips) >= 4:
            raise NotColumnConvex(f"column {i} encloses several cell runs")
        else:
            raise DisconnectedPair("interior misses a column strip")
    return Permutomino(tuple(cols))


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


def render(p: Permutomino, fmt: str = "ascii") -> str:
    """Deterministic drawing of a shape, as an ASCII block grid or SVG 1.1."""
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
    for (x, y), _kind in report.salient:
        px, py = _svg_point(x, y, height)
        parts.append(
            f'<rect x="{px - half}" y="{py - half}" width="{2 * half}" height="{2 * half}" fill="black"/>'
        )
    for (x, y), _kind in report.reentrant:
        px, py = _svg_point(x, y, height)
        parts.append(
            f'<rect x="{px - half}" y="{py - half}" width="{2 * half}" height="{2 * half}" '
            f'fill="white" stroke="black" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
