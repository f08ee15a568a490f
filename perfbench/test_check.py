"""Tests of the benchmark's own output checkers: correct output passes, and
corrupted output is counted as failed operations instead of crashing.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_check.py``
from the repository root.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import GENERATE_N, VERIFY_CHECKS, WORKLOADS, closed_count  # noqa: E402
from run import split_output  # noqa: E402

SEED = 7


def census_output() -> list[list[str]]:
    return [
        [str(closed_count(n)) for n in range(1, 301)],
        [f"{n}\t{closed_count(n) if n else 0}" for n in range(301)],
        # Fst rows are checked through their sum at s = 1
        ["0\t0"] + [f"{n}\t{closed_count(n) - 1},1" for n in range(1, 61)],
    ]


def generate_output() -> list[list[str]]:
    from permutomino import eco

    return [[json.dumps(p.to_record()) for p in eco.iter_permutominoes(GENERATE_N)]]


def verify_output() -> list[list[str]]:
    return [[f"ok   {name:<22} detail" for name in VERIFY_CHECKS]]


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.generated = generate_output()

    def run_check(self, workload: str, sections: list[list[str]]):
        return WORKLOADS[workload].check(sections, SEED)

    def test_reference_closed_form(self) -> None:
        self.assertEqual([closed_count(n) for n in range(1, 10)], [1, 4, 18, 84, 394, 1836, 8468, 38632, 174426])

    def test_correct_outputs_pass(self) -> None:
        census = self.run_check("census-deep", census_output())
        self.assertEqual((census.attempted, census.failed, census.units), (662, 0, 662))
        generate = self.run_check("generate-stream", self.generated)
        self.assertEqual((generate.attempted, generate.failed), (closed_count(GENERATE_N), 0))
        verify = self.run_check("verify-deep", verify_output())
        self.assertEqual((verify.attempted, verify.failed, verify.units), (11, 0, 49436))

    def test_off_by_one_count(self) -> None:
        sections = census_output()
        sections[0][99] = str(closed_count(100) + 1)
        self.assertEqual(self.run_check("census-deep", sections).failed, 1)

    def test_bad_series_row(self) -> None:
        sections = census_output()
        sections[2][10] = "10\t1,2,x"
        self.assertEqual(self.run_check("census-deep", sections).failed, 1)

    def test_crash_fails_every_remaining_op(self) -> None:
        sections = census_output()
        outcome = self.run_check("census-deep", [sections[0][:150]])
        self.assertEqual((outcome.attempted, outcome.failed), (662, 150 + 301 + 61))
        self.assertEqual(self.run_check("verify-deep", []).failed, 11)
        self.assertEqual(self.run_check("generate-stream", []).failed, closed_count(GENERATE_N))

    def test_dropped_record(self) -> None:
        lines = list(self.generated[0])
        del lines[1234]
        self.assertEqual(self.run_check("generate-stream", [lines]).failed, 1)

    def test_repeated_and_foreign_records(self) -> None:
        lines = list(self.generated[0])
        lines[5] = lines[4]
        lines[6] = json.dumps({"n": GENERATE_N - 1, "cols": [[1, 1]]})
        lines[7] = "not json"
        self.assertEqual(self.run_check("generate-stream", [lines]).failed, 3)

    def test_deep_check_rejects_invalid_shapes(self) -> None:
        from check import _deep_ok

        self.assertTrue(_deep_ok(self.generated[0][0]))
        straight = json.dumps({"n": GENERATE_N, "cols": [[1, 1]] * GENERATE_N})
        self.assertFalse(_deep_ok(straight))
        self.assertFalse(_deep_ok('{"n": 9}'))

    def test_failed_check(self) -> None:
        lines = verify_output()[0]
        lines[3] = "FAIL eco-partition           parent round-trip broke"
        lines.insert(4, '     witness: {"n": 3}')
        outcome = self.run_check("verify-deep", [lines])
        self.assertEqual((outcome.attempted, outcome.failed, outcome.units), (11, 1, 0))

    def test_split_output(self) -> None:
        text = "1\n4\n#perfbench rc=0\n0\t0\n#perfbench rc=0\n#perfbench-trace {\"spans\": {}}\n#perfbench-peak_rss_kib 9\n"
        sections, meta, bytes_out = split_output(text)
        self.assertEqual(sections, [["1", "4"], ["0\t0"]])
        self.assertEqual(meta, {"trace": {"spans": {}}, "peak_rss_kib": 9})
        self.assertEqual(bytes_out, len("1\n4\n0\t0\n"))
        # a child that died mid-command leaves an unterminated section
        self.assertEqual(split_output("1\n4\n")[0], [["1", "4"]])


if __name__ == "__main__":
    unittest.main()
