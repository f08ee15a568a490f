"""Command-line entry point.

Subcommands: count, census, generate, render, series, oracle, verify.
Every subcommand is deterministic given its flags; exit code 0 means
success, 1 a verification failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO, Callable

from . import eco, oracle, series, verification
from .census import census as census_level
from .census import count as census_count
from .grid import Permutomino, render


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return value


_UNIVARIATE: dict[str, Callable[[int], series.TruncatedSeries]] = {
    "F1": series.series_f1,
    "B1": series.series_b1,
    "R1": series.series_r1,
    "N1": series.series_n1,
    "s0": series.kernel_root,
    "sqrt1m4t": series.sqrt_1m4t,
    "directed": series.series_directed,
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
    p.add_argument("--out")

    p = sub.add_parser("census", help="label census of one generating-tree level")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--format", choices=("tsv", "text"), default="tsv")
    p.add_argument("--out")

    p = sub.add_parser("generate", help="stream all size-n shapes as JSONL")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--paths", action="store_true", help="record the operation path from the root")
    p.add_argument("--out")

    p = sub.add_parser("render", help="draw one JSONL record as ascii or svg")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--in", dest="infile", help="file with one JSONL record (default: stdin)")
    p.add_argument("--out")

    p = sub.add_parser("series", help="coefficients of a generating-function expansion")
    p.add_argument("name", choices=tuple(_UNIVARIATE) + _BIVARIATE)
    p.add_argument("--order", type=_nonnegative, default=12)
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="independent brute-force counts")
    p.add_argument("--n", type=_positive)
    p.add_argument("--pairs", action="store_true", help="count via permutation-pair reconstruction")
    p.add_argument(
        "--calibrate",
        type=_nonnegative,
        metavar="M",
        help="print convex-polyomino totals for semi-perimeters 2..M+2 instead",
    )
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--max-n", type=_positive, default=6, help="generation depth (default 6)")
    p.add_argument("--oracle-n", type=_positive, default=None, help="brute-force depth (default: min(max-n, 7))")
    p.add_argument("--order", type=_positive, default=12, help="functional-equation order")
    p.add_argument("--pair-n", type=_positive, default=3)
    p.add_argument("--out")
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

    def __enter__(self) -> "_OutFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.handle is not None:
            self.handle.close()


def _open_out(args: argparse.Namespace) -> contextlib.AbstractContextManager:
    path = getattr(args, "out", None)
    if path:
        return _OutFile(path)
    return contextlib.nullcontext(sys.stdout)


def _cmd_count(args: argparse.Namespace, out: IO[str]) -> int:
    if args.seq:
        for n in range(1, args.n + 1):
            print(census_count(n), file=out)
    else:
        print(census_count(args.n), file=out)
    return 0


def _cmd_census(args: argparse.Namespace, out: IO[str]) -> int:
    level = census_level(args.n)
    rows = level.rows()
    if args.format == "tsv":
        for row in rows:
            print("\t".join(map(str, row)), file=out)
    else:
        print(f"level {args.n}: {level.total()} shapes", file=out)
        for _, k, group, c in rows:
            print(f"  ({k}){group.lower():<2} {c}", file=out)
    return 0


def _cmd_generate(args: argparse.Namespace, out: IO[str]) -> int:
    if args.paths:
        for p, path in eco.iter_with_paths(args.n):
            record = p.to_record()
            record["path"] = [str(tag) for tag in path]
            print(json.dumps(record), file=out)
    else:
        for p in eco.iter_permutominoes(args.n):
            print(json.dumps(p.to_record()), file=out)
    return 0


def _cmd_render(args: argparse.Namespace, out: IO[str]) -> int:
    if args.infile:
        with open(args.infile, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no JSONL record on input")
    shape = Permutomino.from_record(json.loads(lines[0]))
    print(render(shape, args.format), file=out)
    return 0


def _format_coeff(c) -> str:
    return str(int(c)) if c.denominator == 1 else str(c)


def _cmd_series(args: argparse.Namespace, out: IO[str]) -> int:
    if args.name in _UNIVARIATE:
        expansion = _UNIVARIATE[args.name](args.order)
        for n, c in enumerate(expansion.coeffs):
            print(f"{n}\t{_format_coeff(c)}", file=out)
        return 0
    b, r, g = series.census_bivariate(args.order)
    chosen = {"Bst": b, "Rst": r, "Nst": g, "Fst": b + r + g}[args.name]
    for n, row in enumerate(chosen.coeffs):
        print(f"{n}\t{','.join(_format_coeff(c) for c in row.coeffs) or '0'}", file=out)
    return 0


def _cmd_oracle(args: argparse.Namespace, out: IO[str]) -> int:
    if args.calibrate is not None:
        for m, total in enumerate(oracle.convex_totals_by_semiperimeter(args.calibrate)):
            print(f"{m + 2}\t{total}", file=out)
        return 0
    if args.n is None:
        raise argparse.ArgumentTypeError("--n is required unless --calibrate is given")
    if args.pairs:
        print(oracle.count_pair_permutominoes(args.n), file=out)
    else:
        print(oracle.count_permutominoes(args.n), file=out)
    return 0


def _cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    options = verification.VerifyOptions(
        max_n=args.max_n,
        oracle_n=args.oracle_n if args.oracle_n is not None else min(args.max_n, 7),
        order=args.order,
        pair_n=args.pair_n,
    )
    results = verification.run_checks(options)
    failed = False
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        print(f"{status} {result.name:<22} {result.detail}", file=out)
        if not result.ok:
            failed = True
            if result.witness:
                print(f"     witness: {result.witness}", file=out)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_out(args) as out:
            return _COMMANDS[args.command](args, out)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
