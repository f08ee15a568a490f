import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutomino.cli import _BIVARIATE, _UNIVARIATE, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count(capsys):
    code, out = run(capsys, "count", "--n", "5")
    assert code == 0
    assert out == "394\n"


def test_count_sequence(capsys):
    code, out = run(capsys, "count", "--n", "7", "--seq")
    assert code == 0
    assert [int(line) for line in out.split()] == [1, 4, 18, 84, 394, 1836, 8468]


def test_count_rejects_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "0"])
    assert exc.value.code == 2
    # every integer flag goes through the same parse
    for argv in (
        ["count", "--n"],
        ["census", "--n"],
        ["generate", "--n"],
        ["series", "F1", "--order"],
        ["oracle", "--n"],
        ["oracle", "--calibrate"],
        ["verify", "--max-n"],
        ["verify", "--oracle-n"],
        ["verify", "--order"],
        ["verify", "--pair-n"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["abc"])
        assert exc.value.code == 2, argv
        assert "'abc' is not an integer" in capsys.readouterr().err, argv


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_census_tsv(capsys):
    code, out = run(capsys, "census", "--n", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [
        ["3", "3", "B", "4"],
        ["3", "1", "R", "6"],
        ["3", "2", "R", "6"],
        ["3", "1", "G", "2"],
    ]


def test_census_text(capsys):
    code, out = run(capsys, "census", "--n", "2", "--format", "text")
    assert code == 0
    assert "level 2: 4 shapes" in out


def test_generate_streams_jsonl(capsys):
    code, out = run(capsys, "generate", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 84
    records = [json.loads(line) for line in lines]
    assert all(r["n"] == 4 for r in records)
    assert len({json.dumps(r["cols"]) for r in records}) == 84


def test_generate_line_count_matches_count(capsys):
    _, generated = run(capsys, "generate", "--n", "5")
    _, counted = run(capsys, "count", "--n", "5")
    assert len(generated.strip().splitlines()) == int(counted)


def test_generate_is_byte_deterministic(capsys):
    _, first = run(capsys, "generate", "--n", "4", "--paths")
    _, second = run(capsys, "generate", "--n", "4", "--paths")
    assert first == second


@pytest.mark.parametrize("paths", [False, True])
def test_generate_lines_are_the_json_records(capsys, paths):
    from permutomino.eco import iter_with_paths

    for n in range(1, 8):
        _, out = run(capsys, "generate", "--n", str(n), *(["--paths"] if paths else []))
        expected = []
        for p, _, path in iter_with_paths(n):
            record = p.to_record()
            if paths:
                record["path"] = [str(tag) for tag in path]
            expected.append(json.dumps(record))
        assert out.splitlines() == expected, n


def test_generate_needs_no_classify_record_or_json(capsys, monkeypatch):
    from permutomino import cli, grid

    def refuse(*args, **kwargs):
        raise AssertionError("generate must write the carried label itself")

    monkeypatch.setattr(grid, "classify", refuse)
    monkeypatch.setattr(grid.Permutomino, "to_record", refuse)
    monkeypatch.setattr(cli.json, "dumps", refuse)
    code, out = run(capsys, "generate", "--n", "6")
    assert code == 0
    assert len(out.splitlines()) == 1836


class _CountingOut(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("paths", [False, True])
def test_generate_writes_whole_blocks_of_records(monkeypatch, paths):
    # on an unbuffered stdout every write is a system call, so generate
    # must not write once per record
    from permutomino.cli import _GENERATE_BLOCK

    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["generate", "--n", "7", *(["--paths"] if paths else [])]) == 0
    assert len(out.getvalue().splitlines()) == 8468
    assert out.writes == -(-8468 // _GENERATE_BLOCK)


# SHA-256 of the whole `generate --n 8` output; any change to the emission
# order or the line format changes them
GOLDEN_N8 = {
    False: "d1966ff084237e2f4c079e54d50011d68215e5d571d36a3c5c6f08b421893e5c",
    True: "cd26c5c8eff04ae2e23f125c561bc8b9c890f296052080afe795398e7c46abe2",
}


@pytest.mark.parametrize("paths", [False, True])
def test_generate_output_matches_the_golden_digest(capsys, paths):
    code, out = run(capsys, "generate", "--n", "8", *(["--paths"] if paths else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_N8[paths]


@pytest.mark.parametrize("paths", [False, True])
def test_record_lines_with_multi_digit_bounds_are_the_json_records(paths):
    # the golden digests stop at n = 8, where every bound has one digit
    from itertools import islice

    from permutomino.cli import _record_line
    from permutomino.eco import iter_with_paths

    col_text = {}
    wide = 0
    for p, key, path in islice(iter_with_paths(12), 2000):
        record = p.to_record()
        if paths:
            record["path"] = [str(tag) for tag in path]
        assert _record_line(p, key, path if paths else None, col_text) == json.dumps(record) + "\n"
        wide += key[0] >= 10
    assert wide > 0 and max(hi for _, hi in col_text) >= 10


@pytest.mark.parametrize(
    "argv",
    [["count", "--n", "2001"], ["count", "--seq", "--n", "2001"], ["census", "--n", "2001"]],
    ids=["count", "count-seq", "census"],
)
def test_census_route_above_its_cap_is_refused_before_it_runs(capsys, monkeypatch, argv):
    import permutomino.census

    def ran(n):
        raise AssertionError("the refused request started the census")

    monkeypatch.setattr(permutomino.census, "count", ran)
    monkeypatch.setattr(permutomino.census, "census", ran)
    assert permutomino.census.MAX_N == 2000
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n 2001 is above the census cap of 2000\n"


def test_census_route_at_its_cap_runs(capsys):
    from permutomino.census import closed_count

    # the first command steps the shared cache to the cap; the other two
    # read the totals and the last level it keeps
    code, out = run(capsys, "count", "--n", "2000")
    assert code == 0
    assert out == f"{closed_count(2000)}\n"
    code, out = run(capsys, "census", "--n", "2000")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 2 * 2000 - 2
    assert sum(int(row[3]) for row in rows) == closed_count(2000)
    code, out = run(capsys, "count", "--seq", "--n", "2000")
    assert code == 0
    assert [int(line) for line in out.splitlines()] == [closed_count(n) for n in range(1, 2001)]


# a real n = 9 record and the sha256 of its drawings before the render cap
N9_RECORD = (
    '{"n": 9, "cols": [[4, 4], [1, 4], [1, 5], [1, 6], [2, 6], [2, 8], [2, 9], [3, 9], [3, 7]], '
    '"label": {"k": 5, "class": "G"}}'
)
N9_DIGESTS = {
    "ascii": "8669fdf101e10ce9595fa2cd25f7b524f39cd5639f4c0c4d33f54fa6ecb6da6b",
    "svg": "0ef083b7e9bc3a447159cac69db16d474c25e63817f17e59f44aa8c44e7d5515",
}


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_render_of_a_real_shape_is_unchanged(capsys, monkeypatch, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO(N9_RECORD + "\n"))
    code, out = run(capsys, "render", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == N9_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
@pytest.mark.parametrize(
    "cols, box",
    [([[1, 400000]], "1 x 400000"), ([[1, 100001]], "1 x 100001"), ([[1, 317]] * 316, "316 x 317")],
    ids=["tall", "one-row-over", "wide"],
)
def test_render_above_its_cap_is_refused_before_drawing(capsys, monkeypatch, fmt, cols, box):
    import permutomino.grid

    def drew(p):
        raise AssertionError("the refused record was drawn")

    monkeypatch.setattr(permutomino.grid, "render_ascii", drew)
    monkeypatch.setattr(permutomino.grid, "render_svg", drew)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"cols": cols}) + "\n"))
    assert permutomino.grid.MAX_RENDER_CELLS == 10**5
    assert main(["render", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: drawing box {box} is above the render cap of 100000 cells\n"


def test_render_at_its_cap_draws(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"cols": [[1, 100000]]}\n'))
    code, out = run(capsys, "render", "--format", "ascii")
    assert code == 0
    assert out == "#\n" * 100000


def test_render_ascii_from_stdin(capsys, monkeypatch):
    record = '{"n": 2, "cols": [[1, 2], [1, 1]], "label": {"k": 1, "class": "R"}}\n'
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(record))
    code, out = run(capsys, "render", "--format", "ascii")
    assert code == 0
    assert out == "#\n##\n"


def test_render_svg_from_file(capsys, tmp_path):
    path = tmp_path / "shape.jsonl"
    path.write_text('{"n": 1, "cols": [[1, 1]], "label": {"k": 1, "class": "B"}}\n')
    code, out = run(capsys, "render", "--format", "svg", "--in", str(path))
    assert code == 0
    assert out.startswith("<svg")
    assert "</svg>" in out


class _OneRecordThenFail:
    """Standard input whose lines after the first record must not be read."""

    def __iter__(self):
        yield "\n"
        yield '{"n": 2, "cols": [[1, 2], [1, 1]], "label": {"k": 1, "class": "R"}}\n'
        raise AssertionError("render read past the first record")

    def read(self, *size):
        raise AssertionError("render read the whole input")


def test_render_reads_no_further_than_the_first_record(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _OneRecordThenFail())
    code, out = run(capsys, "render", "--format", "ascii")
    assert code == 0
    assert out == "#\n##\n"


def test_render_of_blank_input_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n\t\n"))
    assert main(["render"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no JSONL record on input\n"


def test_render_bad_record_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("not json\n"))
    code, _ = run(capsys, "render")
    assert code == 2


@pytest.mark.parametrize(
    "record",
    [
        '{"n": 1}',
        '{"cols": 5}',
        '[[1, 1]]',
        '{"cols": [[1.9, 1.2]]}',
        '{"cols": [[true, true]]}',
        '{"cols": [[1]]}',
        '{"cols": [1]}',
        # equal to 1 but not an int column count
        '{"n": true, "cols": [[1, 1]]}',
        '{"n": 1.0, "cols": [[1, 1]]}',
    ],
)
def test_render_malformed_record_is_a_one_line_error(capsys, monkeypatch, record):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(record + "\n"))
    code = main(["render"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_oracle_too_deep_for_the_stack_is_a_one_line_error(capsys):
    n = sys.getrecursionlimit() + 100
    code = main(["oracle", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --n {n} is above the brute-force cap of 10\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "--n", "11"], "--n 11 is above the brute-force cap of 10"),
        (["oracle", "--pairs", "--n", "6"], "--n 6 is above the brute-force cap of 5"),
        (["verify", "--oracle-n", "11"], "--oracle-n 11 is above the brute-force cap of 10"),
        (["verify", "--pair-n", "6"], "--pair-n 6 is above the brute-force cap of 5"),
        (["verify", "--max-n", "10"], "--max-n 10 is above the generation cap of 9"),
    ],
    ids=["oracle", "oracle-pairs", "verify-oracle-n", "verify-pair-n", "verify-max-n"],
)
def test_brute_force_above_its_cap_is_refused_before_it_runs(capsys, monkeypatch, argv, message):
    import permutomino.oracle
    import permutomino.verification

    def ran(*args, **kwargs):
        raise AssertionError("the refused request started the brute force")

    for module, name in (
        (permutomino.oracle, "count_permutominoes"),
        (permutomino.oracle, "count_pair_permutominoes"),
        (permutomino.verification, "run_checks"),
    ):
        monkeypatch.setattr(module, name, ran)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_defaults_and_benchmark_bounds_are_under_the_caps(monkeypatch):
    import permutomino.verification

    bounds = []
    monkeypatch.setattr(permutomino.verification, "run_checks", lambda **kw: bounds.append(kw) or [])
    for argv in (["verify", "--max-n", "9"], ["verify", "--max-n", "7", "--pair-n", "4"]):
        assert main(argv) == 0, argv
    assert [(kw["oracle_n"], kw["pair_n"]) for kw in bounds] == [(7, 3), (7, 4)]


@pytest.mark.parametrize("name", [*_UNIVARIATE, *_BIVARIATE, "verify"])
def test_series_order_above_its_cap_is_refused_before_it_runs(capsys, monkeypatch, name):
    import permutomino.series as series
    import permutomino.verification

    # every route to an expansion records the order it got and returns a
    # small real result
    reached = []
    for function in [*_UNIVARIATE.values(), "census_bivariate"]:
        real = getattr(series, function)
        monkeypatch.setattr(series, function, lambda order, real=real: reached.append(order) or real(2))
    monkeypatch.setattr(permutomino.verification, "run_checks", lambda **kw: reached.append(kw["order"]) or [])
    assert (series.MAX_ORDER, series.MAX_BIVARIATE_ORDER) == (1000, 400)
    if name in _UNIVARIATE:
        cap, route = series.MAX_ORDER, "series"
    else:
        cap, route = series.MAX_BIVARIATE_ORDER, "bivariate series"
    argv = ["verify"] if name == "verify" else ["series", name]

    assert main(argv + ["--order", str(cap + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --order {cap + 1} is above the {route} cap of {cap}\n"
    assert reached == []

    # the first call is the route's own; a real(2) may add inner ones
    assert main(argv + ["--order", str(cap)]) == 0
    assert reached[:1] == [cap]


def test_generate_above_its_cap_is_refused_before_any_output(capsys, monkeypatch):
    import permutomino.eco

    assert permutomino.eco.MAX_N == 12
    walked = []
    real = permutomino.eco.iter_with_paths
    monkeypatch.setattr(permutomino.eco, "iter_with_paths", lambda n: walked.append(n) or real(min(n, 2)))
    assert main(["generate", "--n", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n 13 is above the generation cap of 12\n"
    assert walked == []
    # the cap itself and the generate-stream benchmark's n = 9 run; the
    # stand-in walker writes the 4 shapes of size 2 instead
    for n in (12, 9):
        assert main(["generate", "--n", str(n)]) == 0
        assert capsys.readouterr().out.count("\n") == 4
    assert walked == [12, 9]


def test_series_defaults_and_benchmark_orders_are_under_the_caps():
    from permutomino.cli import _build_parser
    from permutomino.series import MAX_BIVARIATE_ORDER, MAX_ORDER

    parser = _build_parser()
    assert parser.parse_args(["series", "F1"]).order <= MAX_BIVARIATE_ORDER
    assert parser.parse_args(["verify"]).order <= MAX_BIVARIATE_ORDER
    # the census-deep benchmark runs series F1 --order 300 and Fst --order 60
    assert 300 <= MAX_ORDER and 60 <= MAX_BIVARIATE_ORDER


def test_recursion_error_outside_the_oracle_is_not_masked(monkeypatch):
    # only the oracle's brute force turns a RecursionError into a usage
    # error; anywhere else it is a bug and must keep its traceback
    import permutomino.series

    def deep(order):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(permutomino.series, "series_f1", deep)
    with pytest.raises(RecursionError):
        main(["series", "F1", "--order", "3"])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(["n", "cols", "label"]) | st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
# records whose columns are mostly integer pairs, so that some of them decode
_RECORDS = st.fixed_dictionaries(
    {"cols": st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2), min_size=1, max_size=4)},
    optional={"n": st.integers(min_value=0, max_value=5) | _JSON},
)


@settings(max_examples=300, deadline=None)
@given(_JSON | _RECORDS, st.sampled_from(["ascii", "svg"]))
def test_render_any_json_value_exits_cleanly(value, fmt):
    # ints stay small so that some values are drawable shapes; how large a
    # shape render accepts is a separate question
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(value) + "\n")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["render", "--format", fmt])
    finally:
        sys.stdin = saved
    err = stderr.getvalue()
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "" and stdout.getvalue()


def test_closed_pipe_ends_the_command_quietly():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "permutomino.cli", "generate", "--n", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert json.loads(first)["n"] == 8
    assert code == 0
    assert err == b""


def test_series_univariate(capsys):
    code, out = run(capsys, "series", "F1", "--order", "7")
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert values == [0, 1, 4, 18, 84, 394, 1836, 8468]


def test_series_bivariate(capsys):
    code, out = run(capsys, "series", "Fst", "--order", "3")
    assert code == 0
    assert out.strip().splitlines() == ["0\t0", "1\t0,1", "2\t0,2,2", "3\t0,8,6,4"]


# SHA-256 of `series <name> --order 40` (univariate) or `--order 12`
# (bivariate); F1 and Fst are pinned by value above
GOLDEN_SERIES = {
    "B1": "c660fc78cbeb4443b2636d79ca8a495917aa878911a79174706d7733aa0cf5d4",
    "R1": "62d3a6853093c1202a03b21de6bec88f5d763252d4cb44b1b0c6878a859b6df4",
    "N1": "e34a179ec1a908fd5df76eb3ccfd7dccd99755d6c49fc61aaae09a9af70fb6e3",
    "s0": "893fa77904614e77f21b6740bb74672fbd0a43aee9d5252c33d6ee2c0436aa44",
    "sqrt1m4t": "a1359ee099f1c31e56690235566ad42b9cd4dbaae1b49dcdf0685e4e059be80f",
    "directed": "461b3fb249030107e87f0d0eb6e78cbee0396c5c3482fa542801b182418a93fd",
    "Bst": "7f99eac03514589d738f81be6237d0ca6ab91908d4285c5d793d76f91b2a74ed",
    "Rst": "c955d6e77c48e03e7b039f237ce8076616d326b5115f6ed0cbad39df10fc6407",
    "Nst": "bf812ea2aa42889a0bf3e6412d098cc16be15c28404fc0b122b24979a8515146",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SERIES))
def test_series_output_matches_the_golden_digest(capsys, name):
    order = "12" if name in ("Bst", "Rst", "Nst") else "40"
    code, out = run(capsys, "series", name, "--order", order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SERIES[name]


def test_oracle_count(capsys):
    code, out = run(capsys, "oracle", "--n", "4")
    assert code == 0
    assert out == "84\n"


def test_oracle_pairs(capsys):
    code, out = run(capsys, "oracle", "--n", "3", "--pairs")
    assert code == 0
    assert out == "18\n"


def test_oracle_calibrate(capsys):
    code, out = run(capsys, "oracle", "--calibrate", "4")
    assert code == 0
    assert out.strip().splitlines() == ["2\t1", "3\t2", "4\t7", "5\t28", "6\t120"]


def test_oracle_calibrate_above_its_cap_is_refused_before_any_output(capsys, monkeypatch):
    import permutomino.oracle

    assert permutomino.oracle.MAX_CALIBRATE == 12
    reached = []
    real = permutomino.oracle.convex_totals_by_semiperimeter
    monkeypatch.setattr(permutomino.oracle, "convex_totals_by_semiperimeter", lambda m: reached.append(m) or real(m))
    assert main(["oracle", "--calibrate", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --calibrate 13 is above the calibration cap of 12\n"
    assert reached == []
    # the check's own semi-perimeter bound, 8, and a small one still run
    for m in (4, 8):
        assert main(["oracle", "--calibrate", str(m)]) == 0
        assert capsys.readouterr().out.count("\n") == m + 1
    assert reached == [4, 8]


def test_oracle_needs_n_or_calibrate(capsys):
    for argv in (["oracle"], ["oracle", "--pairs"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "one of the arguments --n --calibrate is required" in capsys.readouterr().err, argv


def test_oracle_pairs_with_calibrate_is_a_usage_error(capsys):
    code = main(["oracle", "--pairs", "--calibrate", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --pairs needs --n\n"


def test_oracle_refuses_both_n_and_calibrate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "3", "--calibrate", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    # argparse's usage line, then one error line
    assert captured.err.startswith("usage: ")
    assert captured.err.splitlines()[1:] == [
        "permutomino oracle: error: argument --calibrate: not allowed with argument --n"
    ]


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("ok ") for line in lines)


def test_verify_reports_failures_with_witness(capsys, monkeypatch):
    from permutomino import verification

    def broken(**bounds):
        return [
            verification.CheckResult("sequence", True, "fine"),
            verification.CheckResult("eco-partition", False, "boom", witness='{"n": 1}'),
        ]

    monkeypatch.setattr(verification, "run_checks", broken)
    code, out = run(capsys, "verify")
    assert code == 1
    assert "FAIL eco-partition" in out
    assert 'witness: {"n": 1}' in out


def test_verify_reports_a_check_that_raises_and_runs_the_rest(capsys, monkeypatch):
    import permutomino.oracle

    def planted(pair):
        raise ValueError("planted")

    monkeypatch.setattr(permutomino.oracle, "from_permutations", planted)
    code, out = run(capsys, "verify", "--max-n", "3")
    assert code == 1
    lines = out.splitlines()
    assert [line[5:27].rstrip() for line in lines] == [
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
    ]
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1] == f"FAIL {'pair-oracle':<22} ValueError: planted"


def test_verify_prints_each_line_when_its_check_finishes(capsys, monkeypatch):
    from permutomino import verification

    seen = []

    def calibration():
        seen.extend(line[5:27].rstrip() for line in capsys.readouterr().out.splitlines())
        return verification.CheckResult("oracle-calibration", True, "stand-in")

    monkeypatch.setattr(verification, "check_oracle_calibration", calibration)
    assert main(["verify", "--max-n", "3"]) == 0
    assert seen == ["sequence", "closed-form", "series", "eco-partition", "corner-identities"]


def test_verify_flushes_each_line_before_the_next_check_runs(monkeypatch):
    from permutomino import verification

    class Recording(io.StringIO):
        flushed = ""

        def flush(self):
            self.flushed = self.getvalue()

    out = Recording()
    seen = []

    def calibration():
        seen.extend(line[5:27].rstrip() for line in out.flushed.splitlines())
        return verification.CheckResult("oracle-calibration", True, "stand-in")

    monkeypatch.setattr(verification, "check_oracle_calibration", calibration)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "--max-n", "3"]) == 0
    assert seen == ["sequence", "closed-form", "series", "eco-partition", "corner-identities"]
    assert out.flushed == out.getvalue()


def test_verify_out_file_holds_the_stdout_bytes(capsys, tmp_path):
    target = tmp_path / "verify.txt"
    assert main(["verify", "--max-n", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["verify", "--max-n", "3"]) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode()


def test_verify_in_a_subprocess_prints_each_line_once_and_leaves_nothing_running(capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "permutomino.cli", "verify", "--max-n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        # reads stdout to its end: a worker left running would hold it open
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    names = [line[5:27].rstrip() for line in out.decode().splitlines()]
    assert names == [
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
    ]
    assert main(["verify", "--max-n", "5"]) == 0
    assert out.decode() == capsys.readouterr().out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "c.txt"
    code = main(["count", "--n", "6", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "1836\n"


def test_rejected_render_keeps_the_out_file(capsys, monkeypatch, tmp_path):
    target = tmp_path / "existing.txt"
    target.write_text("keep me\n")
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO('{"n": 1}\n'))
    code = main(["render", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert target.read_text() == "keep me\n"


def test_unopenable_out_file_is_a_one_line_error(capsys, tmp_path):
    code = main(["count", "--n", "3", "--out", str(tmp_path / "missing" / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
