"""One benchmark child: a fresh interpreter that runs CLI commands in-process.

Usage: child.py <trace 0|1> <commands as a JSON list of argv lists>

Each command goes through ``permutomino.cli.main`` exactly as a shell call
would, so module state such as the census level cache starts cold.  After
each command the child writes a ``#perfbench rc=<code>`` line, so the runner
can split the captured stdout per command, and at the end one
``#perfbench-peak_rss_kib <kib>`` line.  With tracing on, the public
functions of every package module are wrapped at each place they are looked
up; spans are aggregated in memory and written as one ``#perfbench-trace``
JSON line when the commands are done.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SENTINEL = "#perfbench"

# (module, attribute, span name) for every plain function that is traced.
# Each function is replaced wherever a package module holds a reference to
# it, because the package imports names with ``from .grid import ...``.
FUNCTION_SPANS = [
    ("census", "count", "census.count"),
    ("census", "closed_count", "census.closed_count"),
    ("series", "series_f1", "series.f1"),
    ("series", "census_bivariate", "series.bivariate"),
    ("series", "functional_equation_residuals", "series.residuals"),
    ("series", "kernel_root", "series.kernel"),
    ("series", "kernel_residual", "series.kernel"),
    ("eco", "children", "eco.children"),
    ("eco", "parent", "eco.parent"),
    ("grid", "boundary_word", "grid.boundary_word"),
    ("grid", "corner_report", "grid.corner_report"),
    ("grid", "is_valid", "grid.is_valid"),
    ("grid", "is_permutomino", "grid.is_permutomino"),
    ("grid", "is_convex", "grid.is_convex"),
    ("grid", "reentrant_matrix", "grid.reentrant_matrix"),
    ("grid", "classify", "grid.classify"),
    ("grid", "from_permutations", "grid.from_permutations"),
    ("oracle", "count_permutominoes", "oracle.count"),
    ("oracle", "convex_totals_by_semiperimeter", "oracle.calibration"),
    ("oracle", "classify_pairs", "oracle.pairs"),
    ("verification", "materialize_levels", "verification.materialize"),
    ("verification", "check_sequence", "verification.sequence"),
    ("verification", "check_closed_form", "verification.closed-form"),
    ("verification", "check_series", "verification.series"),
    ("verification", "check_eco_partition", "verification.eco-partition"),
    ("verification", "check_corner_identities", "verification.corner-identities"),
    ("verification", "check_oracle_calibration", "verification.oracle-calibration"),
    ("verification", "check_oracle_triangulation", "verification.oracle-triangulation"),
    ("verification", "check_corollaries", "verification.corollaries"),
    ("verification", "check_functional_equations", "verification.functional-equations"),
    ("verification", "check_kernel", "verification.kernel-root"),
    ("verification", "check_pair_oracle", "verification.pair-oracle"),
]

MODULES = ("census", "cli", "eco", "grid", "oracle", "series", "verification")


class Tracer:
    """Per-name span aggregates: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of the spans it
    directly encloses.  A call nested inside a span of the same name is not
    a new span, so totals never count the same interval twice.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        self._active: set[str] = set()

    def enter(self, name: str) -> bool:
        if name in self._active:
            return False
        self._active.add(name)
        self._stack.append([name, perf_counter(), 0.0])
        return True

    def exit(self) -> None:
        name, start, inner = self._stack.pop()
        span = perf_counter() - start
        self._active.discard(name)
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span
        entry[2] += span - inner
        if self._stack:
            self._stack[-1][2] += span

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name: str, func, on_result=None):
        def traced(*args, **kwargs):
            if not self.enter(name):
                return func(*args, **kwargs)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def spans_iterator(self, name: str, func, counter: str):
        """Wrap a generator factory so that each ``next()`` is one span."""

        def traced(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.add(counter)
                yield item

        return traced

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in self.stats.items()},
            "counters": self.counters,
        }


def _replace_everywhere(modules: list, original, replacement) -> None:
    # module globals, plus dispatch tables such as cli._UNIVARIATE
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer, mods: dict) -> None:
    modules = list(mods.values())

    def pairs_done(pc) -> None:
        tracer.add("oracle.pairs_total", pc.total_pairs)
        tracer.add("oracle.pairs_convex", pc.valid_convex_pairs)

    hooks = {
        "oracle.count": lambda found: tracer.add("oracle.survivors", found),
        "oracle.pairs": pairs_done,
    }
    for mod_name, attr, span_name in FUNCTION_SPANS:
        original = getattr(mods[mod_name], attr)
        _replace_everywhere(modules, original, tracer.span(span_name, original, hooks.get(span_name)))

    # every is_permutomino call the brute-force oracle makes is one candidate
    traced_predicate = mods["oracle"].is_permutomino

    def candidate(cols):
        tracer.add("oracle.candidates")
        return traced_predicate(cols)

    mods["oracle"].is_permutomino = candidate

    eco = mods["eco"]
    original_iter = eco.iter_permutominoes
    _replace_everywhere(modules, original_iter, tracer.spans_iterator("eco.iter", original_iter, "eco.shapes_emitted"))

    shape = mods["grid"].Permutomino
    shape.__post_init__ = tracer.span("grid.construct", shape.__post_init__)
    shape.to_record = tracer.span("grid.to_record", shape.to_record)


def main(argv: list[str]) -> int:
    trace = argv[0] == "1"
    commands = json.loads(argv[1])
    cli = importlib.import_module("permutomino.cli")
    run = cli.main
    tracer = None
    if trace:
        # importlib, because ``permutomino.census`` as an attribute is the
        # re-exported census() function, not the module
        mods = {name: importlib.import_module(f"permutomino.{name}") for name in MODULES}
        tracer = Tracer()
        install(tracer, mods)
        run = tracer.span("cli", cli.main)
    status = 0
    for command in commands:
        try:
            rc = run(command)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        print(f"{SENTINEL} rc={rc}", flush=True)
        status = status or rc
    if tracer is not None:
        census = mods["census"]
        levels = len(getattr(census, "_LEVELS", ()))
        tracer.counters["census.levels"] = levels
        tracer.counters["census.labels_top"] = len(census.census(levels).rows()) if levels else 0
        print(f"{SENTINEL}-trace {json.dumps(tracer.report())}", flush=True)
    peak = _peak_rss_kib()
    if peak is not None:
        print(f"{SENTINEL}-peak_rss_kib {peak}", flush=True)
    return status


def _peak_rss_kib() -> int | None:
    """High-water RSS of this interpreter since exec.

    ``ru_maxrss`` from ``wait4`` also counts the address space the child
    shared with the runner before exec, so it reads the runner's own peak;
    VmHWM does not.  None where /proc is not available.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
