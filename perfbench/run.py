"""Benchmark runner: cold-process CLI workloads, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload census-deep --seed 1 --seconds 42 --trace 0

Every sample is a fresh child interpreter (``perfbench/child.py``) that calls
``permutomino.cli.main`` in-process on the workload's commands; its stdout is
captured through a pipe and checked by ``perfbench/check.py``.  Children run
one at a time until another round would overrun ``--seconds``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json: medians
over the children of the run, with setup probes (a cold ``count --n 1``)
interleaved between them.  ``--trace 1`` alternates untraced and traced
children and prints the per-layer metrics, medians over the traced ones.
The last stdout line is the JSON result; the lines before it are the same
figures for a human, with sample counts and an environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from check import WORKLOADS, Sections  # noqa: E402
from child import SENTINEL  # noqa: E402

SETUP_PROBES_PER_CHILD = 5
CHILD_TIMEOUT_S = 120
PROBE = "from permutomino.cli import main; main(['count', '--n', '1'])"


@dataclass
class Run:
    wall: float
    rc: int
    out: str
    err: str
    rss_mib: float
    cpu_s: float


def spawn(argv: list[str], env: dict) -> Run:
    """Run one child to completion; wall time is spawn to exit."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        wall,
        proc.returncode,
        out.decode(errors="replace"),
        b"".join(err).decode(errors="replace"),
        usage.ru_maxrss / 1024,
        usage.ru_utime + usage.ru_stime,
    )


def split_output(text: str) -> tuple[Sections, dict, int]:
    """Per-command sections, the child's ``#perfbench-<key> <json>`` lines
    as a dict, and the number of bytes the CLI itself wrote."""
    sections: Sections = []
    lines: list[str] = []
    meta = {}
    sentinel_bytes = 0
    for line in text.splitlines():
        if line.startswith(SENTINEL + " rc="):
            sections.append(lines)
            lines = []
        elif line.startswith(SENTINEL + "-"):
            key, _, value = line[len(SENTINEL) + 1 :].partition(" ")
            meta[key] = json.loads(value)
        else:
            lines.append(line)
            continue
        sentinel_bytes += len(line.encode()) + 1
    if lines:
        sections.append(lines)
    return sections, meta, len(text.encode()) - sentinel_bytes


def git_revision() -> str | None:
    """HEAD of the checkout, read without running git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_value(name: str, report: dict) -> float:
    """A per-layer metric from a trace report: ``<span>_calls``,
    ``<span>_self_s`` and ``<span>_s`` read span aggregates, any other name
    a counter; a layer the workload never entered reads 0."""
    for suffix, field in (("_calls", "calls"), ("_self_s", "self_s"), ("_s", "total_s")):
        if name.endswith(suffix):
            return report["spans"].get(name[: -len(suffix)], {}).get(field, 0)
    return report["counters"].get(name, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, spec: dict) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = perf_counter() + seconds
        self.spec = spec
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.exit_codes: list[int] = []
        self.cpu: list[float] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        print(f"FAILED {count}: {why}", file=sys.stderr)

    def child(self, trace: bool) -> tuple[Run, int, dict, int]:
        """One checked workload child: (run, units, trace report, CLI bytes)."""
        argv = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", json.dumps(self.workload.commands)]
        run = spawn(argv, self.env)
        sections, meta, bytes_out = split_output(run.out)
        if "peak_rss_kib" in meta:
            run.rss_mib = meta["peak_rss_kib"] / 1024
        outcome = self.workload.check(sections, self.seed)
        self.attempted += outcome.attempted
        if outcome.failed:
            self.fail(outcome.failed, f"{self.name} output check\n{run.err[-2000:]}")
        elif run.rc != 0:
            self.attempted += 1
            self.fail(1, f"{self.name} child exited {run.rc}\n{run.err[-2000:]}")
        self.exit_codes.append(run.rc)
        self.cpu.append(run.cpu_s)
        report = meta.get("trace", {"spans": {}, "counters": {}})
        return run, outcome.units, report, bytes_out

    def setup_probe(self) -> float:
        """Interpreter start + ``import permutomino`` + parser + a trivial
        command; its one output value is checked."""
        run = spawn([sys.executable, "-c", PROBE], self.env)
        self.attempted += 1
        if run.rc != 0 or run.out.strip() != "1":
            self.fail(1, f"setup probe exited {run.rc} with {run.out.strip()!r}\n{run.err[-2000:]}")
        return run.wall

    def fits(self, estimate: float) -> bool:
        """Whether another round, as long as the longest so far, ends in time."""
        return perf_counter() + estimate <= self.deadline

    def end_to_end(self) -> dict:
        samples = {"wall_s": [], "units_per_s": [], "setup_s": [], "peak_rss_mib": []}
        longest = 0.0
        while True:
            began = perf_counter()
            samples["setup_s"] += [self.setup_probe() for _ in range(SETUP_PROBES_PER_CHILD)]
            run, units, _, _ = self.child(trace=False)
            samples["wall_s"].append(run.wall)
            samples["units_per_s"].append(units / run.wall)
            samples["peak_rss_mib"].append(run.rss_mib)
            longest = max(longest, perf_counter() - began)
            if not self.fits(longest):
                break
        return self.summarize("end_to_end", samples)

    def per_layer(self) -> dict:
        plain, traced, layers = [], [], []
        longest = 0.0
        while True:
            began = perf_counter()
            run, _, _, _ = self.child(trace=False)
            plain.append(run.wall)
            run, _, report, bytes_out = self.child(trace=True)
            traced.append(run.wall)
            counters = report["counters"]
            extra = {
                "cli.self_s": report["spans"].get("cli", {}).get("self_s", 0),
                "cli.bytes_out": bytes_out,
                "oracle.survivor_ratio": ratio(counters.get("oracle.survivors", 0), counters.get("oracle.candidates", 0)),
                "oracle.pairs_convex_ratio": ratio(counters.get("oracle.pairs_convex", 0), counters.get("oracle.pairs_total", 0)),
            }
            layers.append({m["name"]: extra.get(m["name"], layer_value(m["name"], report)) for m in self.spec["per_layer"]})
            self.check_exact_counts(layers[-1])
            longest = max(longest, perf_counter() - began)
            if not self.fits(longest):
                break
        samples = {name: [layer[name] for layer in layers] for name in layers[0]}
        # traced minus untraced wall, each the median of its children
        samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
        return self.summarize("per_layer", samples)

    def check_exact_counts(self, layer: dict) -> None:
        for name, want in self.workload.exact_counts.items():
            self.attempted += 1
            if layer[name] != want:
                self.fail(1, f"{self.name}: {name} = {layer[name]}, expected exactly {want}")

    def summarize(self, kind: str, samples: dict[str, list]) -> dict:
        """Median of every metric BENCHMARK.json lists under ``kind``."""
        metrics = {}
        for m in self.spec[kind]:
            name, unit, values = m["name"], m["unit"], samples[m["name"]]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{name:<36} {metrics[name]['value']:>14.6g} {unit:<6} median of {len(values)}, range {min(values):.6g} .. {max(values):.6g}")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "permutomino" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding {SRC / 'permutomino'} and {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the generate checker rebuilds shapes

    load = os.getloadavg()
    bench = Bench(args.workload, args.seed, args.seconds, json.loads(spec_path.read_text()))
    print(f"workload {args.workload} ({bench.workload.unit})  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print(f"{'failed_frac':<36} {bench.failed / bench.attempted:>14.6g} {'ratio':<6} {bench.failed}/{bench.attempted} ops")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_revision(),
        "loadavg_start": [round(x, 2) for x in load],
        "child_cpu_s": statistics.median(bench.cpu),
        "children": len(bench.cpu),
    }
    print("env " + json.dumps(env))
    correct = bench.failed == 0 and not any(bench.exit_codes)
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
