"""Label-level counting for the convex-permutomino generating tree.

The tree is tracked as an exact multiplicity map from labels ``(k, class)``
to arbitrary-precision integers, one census per level; all closed-form
counts live here too.  The shared level cache holds every computed level's
total and only the last level whole, so its memory is O(n) big integers
rather than O(n²).  The U1/U2 side of class-R labels is irrelevant at
this granularity because the R production does not depend on it.

:func:`production` states the succession rule label by label and is the
reference; :meth:`LabelCensus.step` applies the same rule in aggregate,
through suffix sums over the degree, so a level costs O(n) big-integer
additions rather than O(n²).
"""

from __future__ import annotations

import threading
from math import comb

Key = tuple[int, str]

_GROUPS = ("B", "R", "G")


def production(k: int, group: str) -> list[Key]:
    """Children labels of ``(k, group)``:

    * B: two copies of (i, R) for i = 1..k and two of (k+1, B);
    * R: (i, R) and (i, G) for i = 1..k, plus (k+1, R);
    * G: two copies of (i, G) for i = 1..k.
    """
    if group == "B":
        out = [(i, "R") for i in range(1, k + 1) for _ in (0, 1)]
        out += [(k + 1, "B"), (k + 1, "B")]
        return out
    if group == "R":
        out = []
        for i in range(1, k + 1):
            out += [(i, "R"), (i, "G")]
        out.append((k + 1, "R"))
        return out
    if group == "G":
        return [(i, "G") for i in range(1, k + 1) for _ in (0, 1)]
    raise ValueError(f"unknown label class {group!r}")


class LabelCensus:
    """Exact label multiplicities at one level of the generating tree."""

    __slots__ = ("level", "counts")

    def __init__(self, level: int, counts: dict[Key, int]) -> None:
        self.level = level
        self.counts = counts

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.counts) == (other.level, other.counts)

    def __repr__(self) -> str:
        return f"LabelCensus(level={self.level!r}, counts={self.counts!r})"

    def total(self) -> int:
        return sum(self.counts.values())

    def by_class(self) -> tuple[int, int, int]:
        """Total mass per class, ordered (B, R, G)."""
        sums = {g: 0 for g in _GROUPS}
        for (_, group), c in self.counts.items():
            sums[group] += c
        return (sums["B"], sums["R"], sums["G"])

    def step(self) -> "LabelCensus":
        """Census of the next level, from suffix sums of this one.

        Every production in :func:`production` (the reference statement of
        the rule) is a run of labels ``(i, ·)`` for ``i = 1..k`` plus at most
        one label at ``k + 1``, so label ``i`` of the next level collects the
        mass of every label with degree at least ``i``:

        * R'(i) = 2·ΣB(≥i) + ΣR(≥i) + R(i−1)
        * G'(i) = ΣR(≥i) + 2·ΣG(≥i)
        * B'(k+1) = 2·B(k)

        That is O(k) big-integer additions per level instead of O(k²).
        """
        top = max((k for k, _ in self.counts), default=0)
        dense = {group: [0] * (top + 2) for group in _GROUPS}
        for (k, group), mass in self.counts.items():
            dense[group][k] = mass
        b, r, g = (dense[group] for group in _GROUPS)
        nb, nr, ng = ([0] * (top + 2) for _ in _GROUPS)
        sum_b = sum_r = sum_g = 0
        for i in range(top + 1, 0, -1):
            sum_b += b[i]
            sum_r += r[i]
            sum_g += g[i]
            nb[i] = 2 * b[i - 1]
            nr[i] = 2 * sum_b + sum_r + r[i - 1]
            ng[i] = sum_r + 2 * sum_g
        nxt = {(k, group): c for group, row in zip(_GROUPS, (nb, nr, ng)) for k, c in enumerate(row) if c}
        return LabelCensus(self.level + 1, nxt)

    def rows(self) -> list[tuple[int, int, str, int]]:
        """Deterministic (level, k, class, count) rows for TSV output."""
        order = {g: i for i, g in enumerate(_GROUPS)}
        keys = sorted(self.counts, key=lambda key: (order[key[1]], key[0]))
        return [(self.level, k, group, self.counts[(k, group)]) for k, group in keys]


_ROOT = LabelCensus(1, {(1, "B"): 1})
# One entry per computed level: its total, except the last, which stays whole
# so that the next step() can start from it.  Extended only under the lock;
# an entry, once a total, never changes, so reads need no lock.
_LEVELS: list[LabelCensus | int] = [_ROOT]
_LEVELS_LOCK = threading.Lock()
# The level census() last recomputed below the last whole one, so that an
# ascending scan pays one step() per call.  Written without the lock: every
# level is a correct start for a later call, and a lost write costs steps.
_REPLAY: LabelCensus = _ROOT

# Largest level the CLI computes: a cold ``count --n 2000`` takes about 5 s
# and 20 MiB on two cores, and the time grows about as n^2.1.
MAX_N = 2000


def _entry(n: int) -> LabelCensus | int:
    """Cache entry of level n, stepping the cache up to it first."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if len(_LEVELS) < n:
        with _LEVELS_LOCK:
            while len(_LEVELS) < n:
                last = _LEVELS[-1]
                _LEVELS.append(last.step())
                # append first, so the last entry is whole at every moment
                _LEVELS[-2] = last.total()
    return _LEVELS[n - 1]


def census(n: int) -> LabelCensus:
    """Census at level n (the root, a single (1, B), is level 1).

    The shared cache keeps every computed level's total but only the last
    level whole.  An earlier level is recomputed forward with step(), from
    the root or from the level recomputed last, whichever is nearer below
    n; so ascending scans cost one step per call.  Safe to call from several
    threads: the cache is extended under a lock.
    """
    global _REPLAY
    entry = _entry(n)
    if isinstance(entry, LabelCensus):
        return entry
    level = _REPLAY
    if level.level > n:
        level = _ROOT
    while level.level < n:
        level = level.step()
    _REPLAY = level
    return level


def count(n: int) -> int:
    """Number of convex permutominoes of size n, by the census dynamics."""
    entry = _entry(n)
    return entry if isinstance(entry, int) else entry.total()


def closed_count(n: int) -> int:
    """Closed form 2(n+3)4^(n-2) - (n/2) C(2n, n) for the size-n count.

    Evaluated exactly in integers as one eighth of (n+3)4^n - 4n C(2n, n)
    (the power is fractional at n = 1, and n/2 at odd n), which is asserted
    to be divisible by 8.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    value, remainder = divmod((n + 3) * 4**n - 4 * n * comb(2 * n, n), 8)
    if remainder:
        raise ArithmeticError(f"closed form is not integral at n={n}")
    return value


def closed_convex_polyominoes(m: int) -> int:
    """Number of convex polyominoes with semi-perimeter m + 2.

    Starts 1, 2, 7, 28, 120, 528, 2344, 10416; beyond the two seed values it
    is (2k+11) 4^k - 4(2k+1) C(2k, k) with k = m - 2.
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    if m == 0:
        return 1
    if m == 1:
        return 2
    k = m - 2
    return (2 * k + 11) * 4**k - 4 * (2 * k + 1) * comb(2 * k, k)


def closed_stack(n: int) -> int:
    """Stack permutominoes of size n: coefficient of t^n in t/(1-2t).

    Note this is 2^(n-1); part of the literature states 2^n for this count,
    which does not match the generating function and looks like a size
    convention mismatch.  The generating function is authoritative here.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    return 2 ** (n - 1)


def closed_directed(n: int) -> int:
    """Directed-convex permutominoes of size n: half the central binomial,
    C(2n,n)/2 = C(2n-1,n-1)."""
    if n < 1:
        raise ValueError("size must be >= 1")
    return comb(2 * n - 1, n - 1)


def catalan(n: int) -> int:
    """n-th Catalan number, the parallelogram permutomino count."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return comb(2 * n, n) // (n + 1)
