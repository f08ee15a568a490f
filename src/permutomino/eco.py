"""Recursive growth of convex permutominoes.

Every convex permutomino of size n+1 is produced exactly once by applying
one of four local expansions to a convex permutomino of size n, always acting
on the rightmost column.  Each expansion is named after the reentrant corner
kind it creates at the new rightmost junction.  :func:`children` is the one
statement of which expansions a shape admits and how each builds its child:

* ``EN``  append a column flush with the top (needs a top-flush parent);
* ``SE``  duplicate the row of the i-th rightmost-column cell and append a
  bottom-anchored column of i cells;
* ``WS``  duplicate the same row and append a top-anchored column of
  ``degree - i + 1`` cells;
* ``NW``  append a column hanging one row below the bottom (needs a
  bottom-flush parent), then renormalize.

:func:`expand` looks one of them up by its :class:`OperationTag`.  The
inverse map :func:`parent` reads the kind of the rightmost reentrant corner
off the last two columns with :func:`~permutomino.grid.reentrant_corners`
and undoes the unique expansion that created it, which is what makes the
construction a bijection level by level.  :func:`walk` is the one depth-first
walk of this tree; the shape streams and the checks in ``verification`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .census import Key
from .grid import Interval, Permutomino, UNIT, reentrant_corners


# The largest ``generate --n``, set by output volume: count(12) is 15.2 M
# records and count(13) 66.6 M.  generate --n 12 into /dev/null takes about
# 70 s cold on two cores at a 17 MiB peak; the walker's own memory, about
# 30 n**3 bytes, is negligible at these sizes.
MAX_N = 12


@dataclass(frozen=True)
class OperationTag:
    """Which expansion produced a child; ``cell`` is the 1-based index of
    the targeted rightmost-column cell for SE/WS and ``None`` otherwise."""

    kind: str
    cell: int | None = None

    def __str__(self) -> str:
        return self.kind if self.cell is None else f"{self.kind}:{self.cell}"


def _duplicate_row(cols: tuple[Interval, ...], r: int) -> tuple[Interval, ...]:
    # insert a copy of row r next to itself: rows above shift up, columns
    # through r stretch by one.
    return tuple([(lo + (lo > r), hi + (hi >= r)) for lo, hi in cols])


def _remove_row(cols: tuple[Interval, ...], r: int) -> tuple[Interval, ...]:
    return tuple([(lo - (lo > r), hi - (hi >= r)) for lo, hi in cols])


_EN, _NW = OperationTag("EN"), OperationTag("NW")


@cache
def _side_tags(k: int) -> tuple[OperationTag, ...]:
    # SE:1..k then WS:1..k; tags are frozen, so every child shares them
    return tuple([OperationTag(kind, i) for kind in ("SE", "WS") for i in range(1, k + 1)])


def _child(cols: tuple[Interval, ...]) -> Permutomino:
    # a shape built without the constructor's checks; children() says why
    # that is sound
    child = object.__new__(Permutomino)
    object.__setattr__(child, "cols", cols)
    return child


def children(p: Permutomino) -> list[tuple[OperationTag, Permutomino]]:
    """All expansions of a shape, in the fixed emission order EN, SE:1..k,
    WS:1..k, NW, where k is the degree: EN only on a top-flush shape and NW
    only on a bottom-flush one, so a class-B parent gets 2k+2 children,
    class R 2k+1 and class G 2k.  SE:i and WS:i share one duplicated
    prefix, built once per cell.

    Children skip the constructor's checks, which were the largest single
    cost of ``generate``.  Any parent the constructor accepts passes them on:
    the expansions only add integers to integer bounds; row duplication and
    the NW shift raise no ``lo`` above its ``hi`` and leave a ``lo`` of 1
    at 1; and each new column lies in rows 1 and up and shares a row with
    the old last column.  :func:`~permutomino.grid.is_valid` checks the
    same rule, so ``verify`` still checks it on every child it reaches.
    """
    cols = p.cols
    lo, hi = cols[-1]
    top, bottom = p.touches_top(), p.touches_bottom()
    grown = [cols + ((lo, hi + 1),)] if top else []
    ws = []
    for r in range(lo, hi + 1):
        prefix = _duplicate_row(cols, r)
        grown.append(prefix + ((lo, r),))
        ws.append(prefix + ((r + 1, hi + 1),))
    grown += ws
    if bottom:
        grown.append(tuple([(c_lo + 1, c_hi + 1) for c_lo, c_hi in cols]) + ((1, hi + 1),))
    tags = ((_EN,) if top else ()) + _side_tags(hi - lo + 1) + ((_NW,) if bottom else ())
    return list(zip(tags, map(_child, grown)))


def expand(p: Permutomino, tag: OperationTag) -> Permutomino:
    """The child of ``p`` that :func:`children` emits under ``tag``: its
    rightmost reentrant corner has the tag's kind.  A tag that
    :func:`children` does not emit for ``p``, or whose cell differs from the
    emitted one in type (``SE:True``, ``WS:1.0``), raises ValueError.
    """
    for emitted, child in children(p):
        if emitted == tag and type(emitted.cell) is type(tag.cell):
            return child
    raise ValueError(f"children() emits no {tag!r} for this shape")


def parent(p: Permutomino) -> tuple[Permutomino, OperationTag]:
    """Undo the unique expansion that produced ``p`` (size must be >= 2):
    the inverse of :func:`expand`, so ``expand(*parent(p)) == p``.

    The rightmost reentrant corner sits at abscissa n, so
    :func:`~permutomino.grid.reentrant_corners` of the last two columns
    gives its kind and ordinate y.  EN and NW drop the rightmost column (NW
    also shifts back down); SE and WS additionally delete one of the two
    identical rows created by the duplication: row y, just above the
    rightmost column's top (SE), or row y - 1, just below its bottom (WS).
    Last two columns that do not differ in exactly one end come from no
    expansion and raise ValueError.
    """
    if p.n < 2:
        raise ValueError("the single cell has no parent")
    corners = reentrant_corners(p.cols[-2:])
    if len(corners) != 1:
        raise ValueError("the last two columns must differ in exactly one end")
    [((_, y), kind)] = corners
    rest = p.cols[:-1]
    if kind == "EN":
        return Permutomino(rest), _EN
    if kind == "NW":
        shift = min(c_lo for c_lo, _ in rest) - 1
        return Permutomino(tuple((c_lo - shift, c_hi - shift) for c_lo, c_hi in rest)), _NW
    # the shared SE:1..k, WS:1..k tags of a parent of degree k
    if kind == "SE":
        parent_p = Permutomino(_remove_row(rest, y))
        return parent_p, _side_tags(parent_p.degree)[p.degree - 1]
    parent_p = Permutomino(_remove_row(rest, y - 1))
    k = parent_p.degree
    return parent_p, _side_tags(k)[2 * k - p.degree]


def child_label(key: Key, tag: OperationTag, top: bool) -> Key:
    """Census key of the child that ``tag`` (as :func:`children` emits it)
    builds from a shape with key ``key = (k, class)``; ``top`` says whether
    a class-R parent's rightmost column touches the top.  EN and NW give
    ``(k + 1, class)``; SE:i gives (i, R) from a bottom-flush parent and WS:i
    (k - i + 1, R) from a top-flush one, class G otherwise.  Over the
    admissible tags these keys are :func:`~permutomino.census.production`.
    """
    k, group = key
    if tag.kind == "EN" or tag.kind == "NW":
        return (k + 1, group)
    if tag.kind == "SE":
        return (tag.cell, "R" if group == "B" or group == "R" and not top else "G")
    return (k - tag.cell + 1, "R" if group == "B" or group == "R" and top else "G")


def _family(key: Key, top: bool, path: tuple, kids: list) -> Iterator[tuple[Permutomino, Key, bool, tuple]]:
    # each child of a shape with this key, top and path, with its own: the new
    # column reaches the top after EN, and after WS or NW when the old one did
    for tag, child in kids:
        yield child, child_label(key, tag, top), tag.kind == "EN" or top and tag.kind != "SE", path + (tag,)


def walk(max_n: int) -> Iterator[tuple[Permutomino, Key, bool, tuple[OperationTag, ...], list]]:
    """Pre-order walk of the generating tree, first child first: each shape
    of size 1..max_n once, as ``(p, key, top, path, kids)``.  ``kids`` is
    ``children(p)``, ``key`` the census key carried by :func:`child_label`,
    ``top`` whether the rightmost column touches the top and ``path`` the
    tags from the single cell.  It descends into ``kids`` only when
    ``p.n < max_n``, and only once the next item is asked for.

    The walk keeps an explicit stack, one child iterator per level of the
    current path, so the interpreter's recursion limit does not bound its
    depth.  Memory still grows as about max_n**3: each level holds its
    shape's children, 2k+2 shapes of k+1 columns at degree k on the leftmost path.
    """
    stack = [iter([(UNIT, (1, "B"), True, ())])] if max_n > 0 else []
    while stack:
        for p, key, top, path in stack[-1]:
            kids = children(p)
            yield p, key, top, path, kids
            if p.n < max_n:
                stack.append(_family(key, top, path, kids))
                break
        else:
            stack.pop()


def iter_with_paths(n: int) -> Iterator[tuple[Permutomino, Key, tuple[OperationTag, ...]]]:
    """All convex permutominoes of size n, each once, in walk order, with
    the census key and path of each: the children of the size n-1 shapes
    of :func:`walk`."""
    if n < 1:
        raise ValueError("size must be >= 1")
    if n == 1:
        return iter([(UNIT, (1, "B"), ())])
    return (
        (child, child_label(key, tag, top), path + (tag,))
        for p, key, top, path, kids in walk(n - 1)
        if p.n == n - 1
        for tag, child in kids
    )


def iter_permutominoes(n: int) -> Iterator[Permutomino]:
    """The shapes of :func:`iter_with_paths`, without their keys and paths."""
    return (p for p, _, _ in iter_with_paths(n))
