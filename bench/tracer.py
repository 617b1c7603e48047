"""Span tracer for the benchmark's traced runs.

`instrument` wraps public functions of the postopt modules from outside the
package.  The package imports names with ``from .x import y``, so one
function object is bound in several modules (``encode`` in both
``postopt.encoding`` and ``postopt.algorithm``); every binding is replaced,
or calls made through the other names would be missed.

Each wrapped call records a span (name, start, end, parent).  Spans stay in
memory and are written out when the traced command ends.  In memory mode the
tracer also records, per span, the tracemalloc peak above the traced memory
at entry; tracemalloc sees numpy buffers, but slows Python-heavy code, so the
benchmark takes memory in a separate pass from times.

Run as a script, it traces one CLI invocation in the current process:

    python bench/tracer.py SUMMARY.json [--memory] -- verify inst.txt --c-tol 0.1

and writes the per-span summary to SUMMARY.json and the raw spans, one
``name start end parent`` line each, to SUMMARY.json.spans.  The exit code is
the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter
from typing import Callable

# (span name, module, attribute) for every wrapped function.  Two functions
# may share a span name; their spans are then summed under it.
TARGETS = (
    ("costfn.generate", "postopt.costfn", "generate"),
    ("costfn.load_instance", "postopt.costfn", "load_instance"),
    ("costfn.save_instance", "postopt.costfn", "save_instance"),
    ("encoding.encode", "postopt.encoding", "encode"),
    ("encoding.instance_amplitudes", "postopt.encoding", "instance_amplitudes"),
    ("statevec.uniform_superposition", "postopt.statevec", "uniform_superposition"),
    ("statevec.marginal_probability", "postopt.statevec", "marginal_probability"),
    ("statevec.marginal_distribution", "postopt.statevec", "marginal_distribution"),
    ("statevec.postselect", "postopt.statevec", "postselect"),
    ("statevec.joint_distribution", "postopt.statevec", "joint_distribution"),
    ("algorithm.exact_analysis", "postopt.algorithm", "exact_analysis"),
    ("algorithm.chain_decomposition", "postopt.algorithm", "chain_decomposition"),
    ("algorithm.sequential_vs_joint_check", "postopt.algorithm", "sequential_vs_joint_check"),
    ("algorithm.run_repeat_until_success", "postopt.algorithm", "run_repeat_until_success"),
    ("baselines.random_search", "postopt.baselines", "random_search"),
    ("baselines.hill_climb", "postopt.baselines", "hill_climb"),
    ("baselines.grover_simulate", "postopt.baselines", "grover_simulate"),
    ("cli.check_configuration", "postopt.cli", "check_configuration"),
    ("cli.sweep_configurations", "postopt.cli", "sweep_configurations"),
    ("cli.report", "postopt.cli", "_write_report"),
    ("cli.report", "postopt.cli", "_print_verify_table"),
)

# Spans whose every duration goes into the summary, for percentiles.
KEEP_DURATIONS = ("cli.check_configuration",)

DENSE_BYTES = "statevec.dense_bytes_computed"


def _dense_bytes(state) -> int:
    """16 bytes (complex128) per amplitude of a returned dense state."""
    return 16 * state.layout.total_dim


# Work counted at a span boundary from the call's arguments and result.
COUNTERS: dict[str, Callable[[tuple, dict, object], dict[str, int]]] = {
    "statevec.uniform_superposition": lambda a, kw, r: {DENSE_BYTES: _dense_bytes(r)},
    "statevec.postselect": lambda a, kw, r: {DENSE_BYTES: _dense_bytes(r[1])},
    "algorithm.run_repeat_until_success": lambda a, kw, r: {
        "algorithm.run_repeat_until_success.hits": r.low_cost_hits,
        "algorithm.run_repeat_until_success.preparations": r.preparations_used,
    },
    "baselines.random_search": lambda a, kw, r: {"baselines.random_search.trials": r.trials_used},
    "baselines.hill_climb": lambda a, kw, r: {"baselines.hill_climb.cost_evals": r.trials_used},
    "baselines.grover_simulate": lambda a, kw, r: {
        "baselines.grover_simulate.iterations": a[2] if len(a) > 2 else kw["iterations"],
    },
}


class Tracer:
    """Records nested spans; optionally the tracemalloc peak of each."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, memory: bool = False):
        self.clock = clock
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}  # name -> largest peak bytes above entry
        self._open: list[int] = []
        self._mem: list[list[int]] = []  # per open span: [traced at entry, peak carried]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def enter(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                # reset_peak below forgets the parent's peak so far; keep it
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, 0])
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        self._open.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            at_entry, carried = self._mem.pop()
            top = max(peak, carried)
            self.peaks[span[0]] = max(self.peaks.get(span[0], 0), top - at_entry)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)


def instrument(tracer: Tracer, targets=TARGETS, counters=COUNTERS) -> Callable[[], None]:
    """Wrap every target in every loaded postopt module; returns an undo function."""
    modules = [m for n, m in list(sys.modules.items()) if n == "postopt" or n.startswith("postopt.")]
    replaced = []
    for name, module, attr in targets:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, counters.get(name))
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)
                replaced.append((mod, key, original))

    def undo() -> None:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)

    return undo


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, busy time, and self time.

    Busy time sums the durations of a name's spans.  Self time subtracts from
    each span the part of its interval that its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats: dict[str, dict] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - _covered(children.get(index, []))
        if name in KEEP_DURATIONS:
            entry.setdefault("durations", []).append(duration)
    return stats


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: tracer.py SUMMARY.json [--memory] -- <postopt CLI arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    out, flags, cli_argv = argv[0], argv[1:split], argv[split + 1:]

    import postopt.cli

    tracer = Tracer(memory="--memory" in flags)
    if tracer.memory:
        tracemalloc.start()
    instrument(tracer)
    code = postopt.cli.main(cli_argv)
    summary = {"spans": summarize(tracer.spans), "counts": dict(tracer.counts),
               "peaks": tracer.peaks, "exit": code}
    with open(out, "w") as fh:
        json.dump(summary, fh)
    with open(out + ".spans", "w") as fh:
        fh.writelines(f"{name} {start:.9f} {end:.9f} {parent}\n" for name, start, end, parent in tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
