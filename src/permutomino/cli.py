"""Command-line entry point.

Subcommands: count, census, generate, render, series, oracle, verify.
Every subcommand is deterministic given its flags; exit code 0 means
success (a reader that closes the output pipe early included), 1 a
verification failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from itertools import islice

# every other package module is imported by the command that runs it, so a
# cold ``count`` loads only the census
from . import census

# for annotations only, so that typing is not imported at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO, Callable, Iterator

    from .census import Key
    from .eco import OperationTag


def _at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be >= {minimum}")
        return value

    return parse


_positive = _at_least(1)
_nonnegative = _at_least(0)


# the ``series`` function behind each univariate name, looked up when run
_UNIVARIATE = {
    "F1": "series_f1",
    "B1": "series_b1",
    "R1": "series_r1",
    "N1": "series_n1",
    "s0": "kernel_root",
    "sqrt1m4t": "sqrt_1m4t",
    "directed": "series_directed",
}
_BIVARIATE = ("Bst", "Rst", "Nst", "Fst")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutomino",
        description="Exact enumeration and cross-verification of convex permutominoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of convex permutominoes of size n")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--seq", action="store_true", help="print the whole sequence up to n, one count per line")

    p = sub.add_parser("census", help="label census of one generating-tree level")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--format", choices=("tsv", "text"), default="tsv")

    p = sub.add_parser("generate", help="stream all size-n shapes as JSONL")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--paths", action="store_true", help="record the operation path from the root")

    p = sub.add_parser("render", help="draw one JSONL record as ascii or svg")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--in", dest="infile", help="file with one JSONL record (default: stdin)")

    p = sub.add_parser("series", help="coefficients of a generating-function expansion")
    p.add_argument("name", choices=tuple(_UNIVARIATE) + _BIVARIATE)
    p.add_argument("--order", type=_nonnegative, default=12)

    p = sub.add_parser("oracle", help="independent brute-force counts")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=_positive)
    p.add_argument("--pairs", action="store_true", help="count via permutation-pair reconstruction")
    mode.add_argument(
        "--calibrate",
        type=_nonnegative,
        metavar="M",
        help="print convex-polyomino totals for semi-perimeters 2..M+2 instead",
    )

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--max-n", type=_positive, default=6, help="generation depth (default 6)")
    p.add_argument("--oracle-n", type=_positive, default=None, help="brute-force depth (default: min(max-n, 7))")
    p.add_argument("--order", type=_positive, default=12, help="functional-equation order")
    p.add_argument("--pair-n", type=_positive, default=3)
    for command in sub.choices.values():
        command.add_argument("--out")
    return parser


class _OutFile:
    """The ``--out`` file, opened (and so truncated) at the first write: a
    command that fails before it has output, such as ``render`` on a bad
    record, leaves an existing file as it was."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.handle: IO[str] | None = None

    def write(self, text: str) -> int:
        if self.handle is None:
            self.handle = open(self.path, "w", encoding="utf-8")
        return self.handle.write(text)

    def flush(self) -> None:
        if self.handle is not None:
            self.handle.flush()

    def __enter__(self) -> "_OutFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.handle is not None:
            self.handle.close()


def _cmd_count(args: argparse.Namespace, out: IO[str]) -> int:
    _refuse_above("--n", args.n, census.MAX_N, "census")
    for n in range(1 if args.seq else args.n, args.n + 1):
        print(census.count(n), file=out)
    return 0


def _cmd_census(args: argparse.Namespace, out: IO[str]) -> int:
    _refuse_above("--n", args.n, census.MAX_N, "census")
    level = census.census(args.n)
    rows = level.rows()
    if args.format == "tsv":
        for row in rows:
            print("\t".join(map(str, row)), file=out)
    else:
        print(f"level {args.n}: {level.total()} shapes", file=out)
        for _, k, group, c in rows:
            print(f"  ({k}){group.lower():<2} {c}", file=out)
    return 0


def _record_lines(n: int, paths: bool) -> Iterator[str]:
    """Every line of ``generate --n n``: ``json.dumps`` of each record, plus
    its path with ``paths``, written out, because the walker carries each
    label and every value is an int or a plain ASCII word.

    A parent's ``(key, top)`` fixes its children's tags and labels, so the
    text after a child's columns is formatted once per ``(key, top)``, the
    record head once, the parent's path once per parent and each column once.
    """
    from . import eco

    head = f'{{"n": {n}, "cols": ['
    # a shape of size n fits in n rows
    col_text = {(lo, hi): f"[{lo}, {hi}]" for hi in range(1, n + 1) for lo in range(1, hi + 1)}

    def ends(labelled: list[tuple[Key, OperationTag | None]]) -> tuple[list[str], list[str]]:
        # the text before and after the parent's path, for each child in
        # turn; interned, because families share most of it
        before = [
            f'], "label": {{"k": {k}, "class": "{group}"}}' + (', "path": [' if paths else "}\n")
            for (k, group), _ in labelled
        ]
        after = [(f'"{tag}"]}}\n' if tag else "]}\n") if paths else "" for _, tag in labelled]
        return list(map(sys.intern, before)), list(map(sys.intern, after))

    # the ends of each parent's children, by the parent's (key, top); the
    # single cell, which has no parent, under None
    known = {None: ends([((1, "B"), None)])}
    if n == 1:
        families = [(None, (), [(None, eco.UNIT)])]
    else:
        families = (((key, top), path, kids) for p, key, top, path, kids in eco.walk(n - 1) if p.n == n - 1)
    for family, path, kids in families:
        if family not in known:
            key, top = family
            known[family] = ends([(eco.child_label(key, tag, top), tag) for tag, _ in kids])
        before, after = known[family]
        steps = "".join([f'"{tag}", ' for tag in path]) if paths else ""
        yield from [
            f"{head}{', '.join(map(col_text.__getitem__, child.cols))}{b}{steps}{a}"
            for (_, child), b, a in zip(kids, before, after)
        ]


# records per write: on an unbuffered stdout (PYTHONUNBUFFERED, ``-u``)
# each write is a system call and a wake-up of the reader
_GENERATE_BLOCK = 512


def _cmd_generate(args: argparse.Namespace, out: IO[str]) -> int:
    from . import eco

    _refuse_above("--n", args.n, eco.MAX_N, "generation")
    lines = _record_lines(args.n, args.paths)
    while block := "".join(islice(lines, _GENERATE_BLOCK)):
        out.write(block)
    return 0


def _cmd_render(args: argparse.Namespace, out: IO[str]) -> int:
    from . import grid

    # the first non-blank line, read no further than its end
    with open(args.infile, encoding="utf-8") if args.infile else contextlib.nullcontext(sys.stdin) as source:
        record = next((part for line in source for part in line.splitlines() if part.strip()), None)
    if record is None:
        raise ValueError("no JSONL record on input")
    shape = grid.Permutomino.from_record(json.loads(record))
    print(grid.render(shape, args.format), file=out)
    return 0


def _cmd_series(args: argparse.Namespace, out: IO[str]) -> int:
    from . import series

    if args.name in _UNIVARIATE:
        _refuse_above("--order", args.order, series.MAX_ORDER, "series")
        expansion = getattr(series, _UNIVARIATE[args.name])(args.order)
        for n, c in enumerate(expansion.coeffs):
            print(f"{n}\t{c}", file=out)
        return 0
    _refuse_above("--order", args.order, series.MAX_BIVARIATE_ORDER, "bivariate series")
    b, r, g = series.census_bivariate(args.order)
    chosen = {"Bst": (b,), "Rst": (r,), "Nst": (g,), "Fst": (b, r, g)}[args.name]
    for n, rows in enumerate(zip(*chosen)):
        row = [sum(column) for column in zip(*rows)]
        while row and not row[-1]:
            row.pop()
        print(f"{n}\t{','.join(map(str, row)) or '0'}", file=out)
    return 0


def _refuse_above(flag: str, value: int, cap: int, route: str = "brute-force") -> None:
    if value > cap:
        raise ValueError(f"{flag} {value} is above the {route} cap of {cap}")


def _cmd_oracle(args: argparse.Namespace, out: IO[str]) -> int:
    from . import oracle

    if args.calibrate is not None:
        if args.pairs:
            raise ValueError("--pairs needs --n")
        _refuse_above("--calibrate", args.calibrate, oracle.MAX_CALIBRATE, "calibration")
        for m, total in enumerate(oracle.convex_totals_by_semiperimeter(args.calibrate)):
            print(f"{m + 2}\t{total}", file=out)
        return 0
    if args.pairs:
        _refuse_above("--n", args.n, oracle.MAX_PAIR_N)
        print(oracle.count_pair_permutominoes(args.n), file=out)
    else:
        _refuse_above("--n", args.n, oracle.MAX_N)
        print(oracle.count_permutominoes(args.n), file=out)
    return 0


def _cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    from . import oracle, series, verification

    oracle_n = args.oracle_n if args.oracle_n is not None else min(args.max_n, 7)
    _refuse_above("--max-n", args.max_n, verification.MAX_N, "generation")
    _refuse_above("--order", args.order, series.MAX_BIVARIATE_ORDER, "bivariate series")
    _refuse_above("--oracle-n", oracle_n, oracle.MAX_N)
    _refuse_above("--pair-n", args.pair_n, oracle.MAX_PAIR_N)
    results = verification.run_checks(
        max_n=args.max_n,
        oracle_n=oracle_n,
        order=args.order,
        pair_n=args.pair_n,
    )
    failed = False
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        # flushed, so that a pipe too sees each line as its check ends
        print(f"{status} {result.name:<22} {result.detail}", file=out, flush=True)
        if not result.ok:
            failed = True
            if result.witness:
                print(f"     witness: {result.witness}", file=out, flush=True)
    return 1 if failed else 0


_COMMANDS = {
    "count": _cmd_count,
    "census": _cmd_census,
    "generate": _cmd_generate,
    "render": _cmd_render,
    "series": _cmd_series,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _OutFile(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
            return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        # the reader closed stdout (``generate | head``): stop quietly, and
        # point fd 1 at devnull so the interpreter's final flush of the
        # closed pipe reports nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
