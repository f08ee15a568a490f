import json

import pytest

from permutomino.cli import main


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


def test_count_rejects_zero():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "0"])
    assert exc.value.code == 2


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


def test_series_univariate(capsys):
    code, out = run(capsys, "series", "F1", "--order", "7")
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert values == [0, 1, 4, 18, 84, 394, 1836, 8468]


def test_series_bivariate(capsys):
    code, out = run(capsys, "series", "Fst", "--order", "3")
    assert code == 0
    assert out.strip().splitlines() == ["0\t0", "1\t0,1", "2\t0,2,2", "3\t0,8,6,4"]


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


def test_oracle_needs_n_or_calibrate():
    with pytest.raises(SystemExit) as exc:
        main(["oracle"])
    assert exc.value.code == 2


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("ok ") for line in lines)


def test_verify_reports_failures_with_witness(capsys, monkeypatch):
    from permutomino import verification

    def broken(options=None):
        return [
            verification.CheckResult("sequence", True, "fine"),
            verification.CheckResult("eco-partition", False, "boom", witness='{"n": 1}'),
        ]

    monkeypatch.setattr(verification, "run_checks", broken)
    code, out = run(capsys, "verify")
    assert code == 1
    assert "FAIL eco-partition" in out
    assert 'witness: {"n": 1}' in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "c.txt"
    code = main(["count", "--n", "6", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "1836\n"
