#!/usr/bin/env python3
"""Benchmark of the postopt CLI: two seeded workloads, end to end and by layer.

Every CLI invocation is a fresh ``python -m postopt.cli`` process with the
checkout's ``src`` on PYTHONPATH.  Invocations run one at a time from this
single process (a closed loop with one client), through ``launcher.py`` so
that each child's peak RSS is its own.  Each workload sets up its instance
files, then repeats its commands for ``--seconds`` and reports per-command
medians of host-adjusted times (see PROBE_REF_S), summed over the command
list.  Each round draws fresh sweep and
compare seeds, so a run averages over many inputs.  Every invocation's
report is checked; at the default seed, round 0 is also compared with the
golden copy in ``golden/``.

    python3 bench/run.py --workload engine --seed 3 --seconds 50 --trace 0
    python3 bench/run.py --workload all                  # every workload, untraced
    python3 bench/run.py --workload all --trace 1        # per-layer metrics
    python3 bench/run.py --workload all --smoke          # tiny sizes, one round

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs each
command under ``tracer.py`` and reports the per-layer metrics.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import marshal
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden"
PYTHON = sys.executable

RUN_SECONDS = 50  # BENCHMARK.json run_seconds
DEFAULT_SEED = 1  # the seed the golden reports were taken at
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
# Host-speed probe.  The speed of a shared host drifts by tens of percent over
# minutes, and all code slows together, so raw times of ten runs spread past
# any useful bound.  Right before each child, run.py times a fixed pure-Python
# loop (median of three); every reported time is the child's time scaled by
# PROBE_REF_S / probe, i.e. seconds on a host where the loop takes PROBE_REF_S.
# The probe shares no code with postopt, so a change of the program moves the
# adjusted times as it moves raw ones.  Raw times are printed beside them.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.0125
TOL = 1e-12
MIB = 1 << 20
# The CLI makes no BLAS calls worth a thread; idle OpenBLAS threads spin and
# inflate cpu_s, so children get one thread each (at most nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Report fields drawn by sampling; a golden comparison needs them exact.
SAMPLED_FIELDS = frozenset({"hit_rate", "mean_trials_used", "mean_trials_to_hit",
                            "best_cost", "mean_p_joint_estimate"})

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "configs_per_s": "1/s",
}

# Span metrics of the traced run, per span name of tracer.TARGETS.
SPAN_STATS = (
    ("costfn.generate", ("calls", "busy_s")),
    ("costfn.load_instance", ("calls", "busy_s", "peak_mib")),
    ("costfn.save_instance", ("calls", "busy_s")),
    ("encoding.encode", ("calls", "busy_s", "self_s", "peak_mib")),
    ("encoding.instance_amplitudes", ("calls", "busy_s")),
    ("statevec.uniform_superposition", ("calls", "busy_s")),
    ("statevec.marginal_probability", ("calls", "busy_s")),
    ("statevec.marginal_distribution", ("calls", "busy_s")),
    ("statevec.postselect", ("calls", "busy_s")),
    ("statevec.joint_distribution", ("calls", "busy_s")),
    ("algorithm.exact_analysis", ("calls", "busy_s", "self_s", "peak_mib")),
    ("algorithm.chain_decomposition", ("calls", "busy_s", "self_s", "peak_mib")),
    ("algorithm.sequential_vs_joint_check", ("calls", "busy_s", "self_s", "peak_mib")),
    ("algorithm.run_repeat_until_success", ("calls", "busy_s", "self_s", "peak_mib")),
    ("baselines.random_search", ("calls", "busy_s")),
    ("baselines.hill_climb", ("calls", "busy_s")),
    ("baselines.grover_simulate", ("calls", "busy_s")),
    ("cli.check_configuration", ("calls", "busy_s", "self_s")),
    ("cli.sweep_configurations", ("busy_s", "self_s")),
    ("cli.report", ("busy_s",)),
)
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "peak_mib": "MiB"}
# Counts taken at span boundaries (tracer.COUNTERS) and ratios over them.
COUNTED = {
    "encoding.encode.calls_per_item": "calls/item",
    "statevec.dense_bytes_computed": "B",
    "algorithm.run_repeat_until_success.hits_per_preparation": "hits/prep",
    "baselines.random_search.trials": "count",
    "baselines.hill_climb.cost_evals": "count",
    "baselines.grover_simulate.iterations": "count",
    "cli.check_configuration.p50_ms": "ms",
    "cli.check_configuration.p99_ms": "ms",
    "cli.check_configuration.tail_pct": "%",
    "cli.check_configuration.tail_ms": "ms",
    "cli.check_configuration.samples": "count",
    "trace.overhead_s": "s",
}
PER_LAYER = {f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_STATS for stat in stats}
PER_LAYER.update(COUNTED)


@dataclass(frozen=True)
class Sizes:
    sweep_count: int = 1000    # configurations per verify --sweep invocation
    sweep_n: int = 12
    large_n: int = 20
    post_n: int = 18
    post_repeats: int = 24
    base_n: int = 20
    base_repeats: int = 128
    base_budget: int = 10_000
    base_m: int = 8


FULL = Sizes()
SMOKE = Sizes(sweep_count=12, sweep_n=6, large_n=8, post_n=8, post_repeats=4,
              base_n=10, base_repeats=4, base_budget=200)

# Placeholder in a command's arguments for the seed of its round.  Round 0's
# seeds, which the golden reports were taken at, depend only on --seed.
ROUND_SEED = "{round_seed}"


@dataclass(frozen=True)
class Command:
    """One timed CLI invocation; its report goes to <label>.jsonl."""

    label: str
    args: tuple[str, ...]
    configs: int            # records the report must hold
    m: int | None = None    # M every compare record must show, when fixed by construction

    def argv(self, workload_seed: int, round_: int) -> list[str]:
        seed = random.Random(f"{self.label}/{workload_seed}/{round_}").randrange(1, 2**31)
        return [str(seed) if arg == ROUND_SEED else arg for arg in self.args]


@dataclass(frozen=True)
class Sample:
    status: int
    wall: float
    cpu: float
    maxrss_kib: int
    probe: float  # host-speed probe time taken right before the child

    def adjusted(self, seconds: float) -> float:
        return seconds * PROBE_REF_S / self.probe


def host_probe() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads

_GENERATED = re.compile(r"min_cost=(\S+) at index \d+ max_cost=(\S+)")

# Prints the c_tol midway between the m-th and (m+1)-th smallest cost of the
# uniform_random instance `generate` writes for (n, seed), so M is exactly m.
_CTOL_CODE = """
import sys
import numpy as np
from postopt.costfn import generate
n, seed, m = map(int, sys.argv[1:])
costs = generate("uniform_random", {"n_data": n, "low": 0.0, "high": 1.0}, seed).costs
low = np.sort(np.partition(costs, m)[: m + 1])
print(repr(float((low[m - 1] + low[m]) / 2)))
"""


def _range_fraction(generated: str, fraction: float) -> str:
    """c_tol at `fraction` of the cost range that `generate` printed."""
    c_min, c_max = map(float, _GENERATED.search(generated).groups())
    return repr(c_min + fraction * (c_max - c_min))


def _generate(kind: str, n: int, seed: int, out: str) -> list[str]:
    return ["generate", "--kind", kind, "--n", str(n), "--seed", str(seed), "-o", out]


def _engine_setup(s, sizes):
    return [_generate("uniform_random", sizes.large_n, s[0], "uniform.txt"),
            _generate("hamming_structured", sizes.large_n, s[1], "hamming.txt"),
            _generate("uniform_random", sizes.post_n, s[2], "uniform_post.txt")]


def _engine_commands(s, sizes, generated, runner):
    return [
        Command("sweep", ("verify", "--sweep", str(sizes.sweep_count), "--n", str(sizes.sweep_n),
                          "--seed", ROUND_SEED), sizes.sweep_count),
        Command("uniform_cospow2_anc1",
                ("verify", "uniform.txt", "--c-tol", _range_fraction(generated[0], 0.1),
                 "--encoder", "cospow:2", "--junk", "concentrated", "--n-anc", "1"), 1),
        Command("hamming_linear_anc3",
                ("verify", "hamming.txt", "--c-tol", _range_fraction(generated[1], 0.25),
                 "--encoder", "linear", "--junk", "spread", "--n-anc", "3"), 1),
        Command("random_postselect",
                ("compare", "uniform_post.txt", "--c-tol", _range_fraction(generated[2], 0.1),
                 "--strategy", "random,postselect", "--encoder", "cospow:8",
                 "--repeats", str(sizes.post_repeats), "--seed", ROUND_SEED), 2),
    ]


def _baselines_setup(s, sizes):
    return [_generate("uniform_random", sizes.base_n, s[0], "uniform.txt")]


def _baselines_commands(s, sizes, generated, runner):
    c_tol = runner.program(["-c", _CTOL_CODE, str(sizes.base_n), str(s[0]), str(sizes.base_m)],
                           "c_tol")[1].strip()
    return [Command("random_hillclimb_grover",
                    ("compare", "uniform.txt", "--c-tol", c_tol,
                     "--strategy", "random,hillclimb,grover:auto", "--repeats",
                     str(sizes.base_repeats), "--budget", str(sizes.base_budget),
                     "--seed", ROUND_SEED), 3, m=sizes.base_m)]


@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable  # (seeds, sizes) -> generate argument lists
    commands: Callable  # (seeds, sizes, generate outputs, runner) -> [Command]


WORKLOADS = {
    "engine": Workload(
        "verify sweep (<=15 qubits), verify at n_data=20 with n_anc 1 and 3, sampled "
        "post-selection at n_data=18: every layer of the dense engine", _engine_setup,
        _engine_commands),
    "baselines": Workload(
        "random, hill climbing and Grover at n_data=20 with M=8: baselines only, the dense "
        "engine is never touched", _baselines_setup, _baselines_commands),
}


# ---------------------------------------------------------------------------
# processes

class Launcher:
    """Client of launcher.py, which spawns and reaps every child."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([PYTHON, "-S", "-I", str(HERE / "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def spawn(self, argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path) -> Sample:
        payload = marshal.dumps((argv, str(cwd), env, str(stdout), str(stderr)))
        probe = host_probe()
        self._proc.stdin.write(len(payload).to_bytes(8, "little") + payload)
        self._proc.stdin.flush()
        header = self._proc.stdout.read(8)
        if len(header) < 8:
            raise RuntimeError("launcher exited unexpectedly")
        return Sample(*marshal.loads(self._proc.stdout.read(int.from_bytes(header, "little"))), probe)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


class Runner:
    """Runs one workload's processes and keeps its attempt and failure counts."""

    def __init__(self, launcher: Launcher, workdir: Path, seed: int, golden: dict | None) -> None:
        self.launcher = launcher
        self.workdir = workdir
        self.seed = seed
        self.golden = golden
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failures: list[str] = []
        self.first_reports: dict[str, list[dict]] = {}

    def spawn(self, args: list[str], label: str) -> tuple[Sample, str]:
        out = self.workdir / f"{label}.out"
        sample = self.launcher.spawn([PYTHON, *args], self.workdir, self.env, out,
                                     self.workdir / f"{label}.err")
        return sample, out.read_text()

    def program(self, args: list[str], label: str) -> tuple[Sample, str]:
        """One counted invocation of postopt code that must exit 0."""
        sample, stdout = self.spawn(args, label)
        self.attempted += 1
        if sample.status != 0:
            self._fail(label, [f"exit code {sample.status}"])
        return sample, stdout

    def command(self, cmd: Command, round_: int,
                trace: str | None = None) -> tuple[Sample, dict | None]:
        """Run a timed command, plain or under the tracer ("time" or "memory"), and check it.

        Round 0 is compared with the golden report, when there is one.
        """
        report = f"{cmd.label}.jsonl"
        cli_args = [*cmd.argv(self.seed, round_), "-o", report]
        if trace is None:
            args = ["-m", "postopt.cli", *cli_args]
        else:
            flags = ["--memory"] if trace == "memory" else []
            args = [str(HERE / "tracer.py"), f"{cmd.label}.trace.json", *flags, "--", *cli_args]
        (self.workdir / report).unlink(missing_ok=True)
        (self.workdir / f"{cmd.label}.trace.json").unlink(missing_ok=True)
        sample, _ = self.spawn(args, cmd.label)
        self.attempted += 1
        records, problems = read_report(self.workdir / report)
        if sample.status != 0:
            problems.insert(0, f"exit code {sample.status}")
        problems += report_problems(cmd, records)
        if self.golden is not None and round_ == 0:
            problems += golden_problems(self.golden.get(cmd.label, []), records)
        self.first_reports.setdefault(cmd.label, records)
        summary = None
        if trace is not None:
            summary = self.trace_summary(f"{cmd.label}.trace.json", problems)
        if problems:
            self._fail(cmd.label, problems)
        return sample, summary

    def traced_setup(self, args: list[str], label: str) -> dict:
        """Run a set-up command under the tracer; returns its trace summary."""
        (self.workdir / f"{label}.trace.json").unlink(missing_ok=True)
        sample, _ = self.spawn([str(HERE / "tracer.py"), f"{label}.trace.json", "--", *args], label)
        self.attempted += 1
        problems = [f"exit code {sample.status}"] if sample.status else []
        summary = self.trace_summary(f"{label}.trace.json", problems)
        if problems:
            self._fail(label, problems)
        return summary

    def trace_summary(self, name: str, problems: list[str]) -> dict:
        try:
            return json.loads((self.workdir / name).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"no trace summary ({exc})")
            return {"spans": {}, "counts": {}, "peaks": {}}

    def _fail(self, label: str, problems: list[str]) -> None:
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        self.failures.append(f"{label}: {'; '.join(problems[:3])}{more}")


# ---------------------------------------------------------------------------
# output checks

def read_report(path: Path) -> tuple[list[dict], list[str]]:
    try:
        return [json.loads(line) for line in path.read_text().splitlines() if line.strip()], []
    except (OSError, ValueError) as exc:
        return [], [f"unreadable report ({exc})"]


def report_problems(cmd: Command, records: list[dict]) -> list[str]:
    """Claims every report must satisfy, at any seed."""
    if not records or records[0].get("record") != "meta":
        return ["report has no meta record"]
    body = records[1:]
    problems = [] if len(body) == cmd.configs else [f"{len(body)} records, expected {cmd.configs}"]
    for r in body:
        try:
            if r["record"] == "verify":
                if r["ok"] is not True:
                    problems.append(f"verify {r['key']}: a check failed")
                continue
            strategy = r["strategy"]
            if strategy.startswith("grover") and not abs(r["success_probability"] - r["closed_form"]) <= TOL:
                problems.append(f"{strategy}: success_probability {r['success_probability']!r} "
                                f"!= closed_form {r['closed_form']!r}")
            if strategy == "postselect" and not r["p_joint_exact"] <= r["bound"]:
                problems.append(f"postselect: p_joint_exact {r['p_joint_exact']!r} > bound {r['bound']!r}")
            if cmd.m is not None and r["m"] != cmd.m:
                problems.append(f"{strategy}: M={r['m']}, expected {cmd.m}")
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"malformed record ({exc!r})")
    return problems


def _without_timestamp(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if not (r.get("record") == "meta" and k == "timestamp")}
            for r in records]


def _same(key: str, want, got) -> bool:
    if type(want) is float and type(got) is float and key not in SAMPLED_FIELDS:
        return abs(want - got) <= TOL * max(1.0, abs(want), abs(got))
    return type(want) is type(got) and want == got


def golden_problems(expected: list[dict], actual: list[dict]) -> list[str]:
    """Differences from the golden report: numbers within 1e-12, the rest exact."""
    expected, actual = _without_timestamp(expected), _without_timestamp(actual)
    if len(expected) != len(actual):
        return [f"{len(actual)} records, golden has {len(expected)}"]
    problems = []
    for i, (want, got) in enumerate(zip(expected, actual)):
        if want.keys() != got.keys():
            problems.append(f"record {i}: fields {sorted(got)} != golden {sorted(want)}")
            continue
        problems += [f"record {i} {key}: {got[key]!r} != golden {want[key]!r}"
                     for key in want if not _same(key, want[key], got[key])]
    return problems


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json.gz"


# Reads the child's own peak RSS, as the kernel keeps it for its address space.
_HWM_CODE = "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))"


def rss_self_check(runner: Runner) -> tuple[str | None, dict]:
    """A bare Python child's ru_maxrss must be its own peak, not this process's."""
    sample, stdout = runner.spawn(["-c", _HWM_CODE], "rss_check")
    main_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    facts = {"child_ru_maxrss_kib": sample.maxrss_kib, "main_ru_maxrss_kib": main_kib}
    try:
        own_kib = int(stdout)
    except ValueError:
        return f"rss self-check: child printed {stdout!r}", facts
    facts["child_vmhwm_kib"] = own_kib
    if sample.status != 0 or abs(sample.maxrss_kib - own_kib) > 1024:
        return f"rss self-check: ru_maxrss {sample.maxrss_kib} KiB, own peak {own_kib} KiB", facts
    return None, facts


# ---------------------------------------------------------------------------
# provenance

def provenance(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cpu_model = None
    try:
        cpu_model = next((line.split(":", 1)[1].strip() for line in
                          Path("/proc/cpuinfo").read_text().splitlines()
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """Identifies the measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# measurement

def _loop(commands: list[Command], seconds: float, step: Callable[[Command, int], None]) -> int:
    """Run the commands in turn until `seconds` pass; at least one full round."""
    deadline = time.monotonic() + seconds
    rounds = 0
    while True:
        for cmd in commands:
            if rounds and time.monotonic() >= deadline:
                return rounds
            step(cmd, rounds)
        rounds += 1
        if time.monotonic() >= deadline:
            return rounds


def _per_command_median(samples: dict[str, list[Sample]], value: Callable[[Sample], float]) -> float:
    return sum(statistics.median(map(value, runs)) for runs in samples.values())


def _percentile(ordered: list[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _tail(durations: list[float]) -> dict[str, float]:
    """p50, p99 and the highest percentile with at least ten samples beyond it."""
    if not durations:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "tail_pct": 0.0, "tail_ms": 0.0, "samples": 0}
    ordered = sorted(durations)
    n = len(ordered)
    tail_pct = next((p for p in (99.9, 99.0, 90.0, 50.0) if n * (1 - p / 100) >= 10), 100.0)
    return {"p50_ms": 1e3 * _percentile(ordered, 50), "p99_ms": 1e3 * _percentile(ordered, 99),
            "tail_pct": tail_pct, "tail_ms": 1e3 * _percentile(ordered, tail_pct), "samples": n}


def layer_metrics(setup: list[dict], traced: dict[str, list[dict]], memory: list[dict],
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass: the traced set-up plus each command's median run.

    Calls and counts come from each command's first traced run (they repeat
    exactly); busy and self times are medians over its traced runs.
    """
    firsts = setup + [runs[0] for runs in traced.values()]
    counts = Counter()
    for summary in firsts:
        counts.update(summary["counts"])

    def total(span: str, stat: str) -> float:
        value = sum(s["spans"].get(span, {}).get(stat, 0) for s in setup)
        for runs in traced.values():
            per_run = [s["spans"].get(span, {}).get(stat, 0) for s in runs]
            value += per_run[0] if stat == "calls" else statistics.median(per_run)
        return value

    metrics: dict[str, float] = {}
    for span, stats in SPAN_STATS:
        for stat in stats:
            if stat == "peak_mib":
                metrics[f"{span}.{stat}"] = max((s["peaks"].get(span, 0) for s in memory), default=0) / MIB
            else:
                metrics[f"{span}.{stat}"] = total(span, stat)

    items = metrics["cli.check_configuration.calls"] + metrics["algorithm.run_repeat_until_success.calls"]
    preparations = counts["algorithm.run_repeat_until_success.preparations"]
    metrics["encoding.encode.calls_per_item"] = metrics["encoding.encode.calls"] / items if items else 0.0
    metrics["statevec.dense_bytes_computed"] = counts["statevec.dense_bytes_computed"]
    metrics["algorithm.run_repeat_until_success.hits_per_preparation"] = (
        counts["algorithm.run_repeat_until_success.hits"] / preparations if preparations else 0.0)
    for name in ("baselines.random_search.trials", "baselines.hill_climb.cost_evals",
                 "baselines.grover_simulate.iterations"):
        metrics[name] = counts[name]
    durations = [d for runs in traced.values() for s in runs
                 for d in s["spans"].get("cli.check_configuration", {}).get("durations", [])]
    for stat, value in _tail(durations).items():
        metrics[f"cli.check_configuration.{stat}"] = value
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 launcher: Launcher, update_golden: bool = False) -> dict:
    workload = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    golden = None
    if seed == DEFAULT_SEED and sizes == FULL and not update_golden:
        path = golden_path(name)
        golden = json.loads(gzip.decompress(path.read_bytes())) if path.exists() else {}
    runner = Runner(launcher, workdir, seed, golden)
    rss_problem, rss_facts = rss_self_check(runner)
    info = dict(provenance(name, seed, seconds, int(trace), sizes == SMOKE), rss_check=rss_facts)
    print(json.dumps({"provenance": info}))

    seeds = random.Random(f"{name}/{seed}").sample(range(1, 2**31), 8)
    setup_args = workload.setup(seeds, sizes)
    setups, generated = [], []
    repeats = 1 if trace or sizes != FULL else SETUP_REPEATS
    for _ in range(repeats):
        runs = [runner.program(["-m", "postopt.cli", *args], f"setup{i}")
                for i, args in enumerate(setup_args)]
        setups.append([sample for sample, _ in runs])
        generated = [stdout for _, stdout in runs]
    commands = workload.commands(seeds, sizes, generated, runner)

    samples: dict[str, list[Sample]] = {c.label: [] for c in commands}
    traced_samples: dict[str, list[Sample]] = {c.label: [] for c in commands}
    traced: dict[str, list[dict]] = {c.label: [] for c in commands}

    def step(cmd: Command, round_: int) -> None:
        samples[cmd.label].append(runner.command(cmd, round_)[0])
        if trace:
            sample, summary = runner.command(cmd, round_, "time")
            traced_samples[cmd.label].append(sample)
            traced[cmd.label].append(summary)

    rounds = _loop(commands, seconds, step)
    for label, runs in samples.items():
        values = [s.adjusted(s.wall) for s in runs]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"   wall of {label}: median {q[1]:.4f} s, quartiles {q[0]:.4f}..{q[2]:.4f} s; "
              f"{len(runs)} runs, raw s @ probe ms: "
              f"{' '.join(f'{s.wall:.3f}@{1e3 * s.probe:.1f}' for s in runs)}")
    wall_s = _per_command_median(samples, lambda s: s.adjusted(s.wall))
    metrics = {
        "setup_s": statistics.median(sum(s.adjusted(s.wall) for s in runs) for runs in setups),
        "wall_s": wall_s,
        "cpu_s": _per_command_median(samples, lambda s: s.adjusted(s.cpu)),
        "peak_rss_mib": max(s.maxrss_kib for runs in samples.values() for s in runs) * 1024 / MIB,
        "configs_per_s": sum(c.configs for c in commands) / wall_s,
    }
    raw = {
        "raw setup_s": statistics.median(sum(s.wall for s in runs) for runs in setups),
        "raw wall_s": _per_command_median(samples, lambda s: s.wall),
        "raw cpu_s": _per_command_median(samples, lambda s: s.cpu),
        "probe_ms": 1e3 * statistics.median(s.probe for runs in samples.values() for s in runs),
    }
    units = END_TO_END
    if trace:
        setup_summaries = [runner.traced_setup(args, f"setup{i}") for i, args in enumerate(setup_args)]
        memory = [runner.command(cmd, 0, "memory")[1] for cmd in commands]
        print_table(f"{name} untraced", seed, rounds, runner, metrics, END_TO_END, raw)
        traced_wall_s = _per_command_median(traced_samples, lambda s: s.adjusted(s.wall))
        metrics = layer_metrics(setup_summaries, traced, memory, traced_wall_s - wall_s)
        units = PER_LAYER

    if update_golden:
        golden_path(name).write_bytes(gzip.compress(json.dumps(
            {label: _without_timestamp(records) for label, records in runner.first_reports.items()},
            sort_keys=True).encode(), mtime=0))
    problems = runner.failures + ([rss_problem] if rss_problem else [])
    print_table(f"{name} traced" if trace else name, seed, rounds, runner, metrics, units,
                {} if trace else raw)
    for problem in problems:
        print(f"bench {name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def print_table(title: str, seed: int, rounds: int, runner: Runner, metrics: dict,
                units: dict, raw: dict) -> None:
    """The metrics, then the raw times and probe behind the adjusted ones."""
    print(f"== {title}  seed {seed}  rounds {rounds}")
    for key, unit in units.items():
        print(f"   {key:<58} {metrics[key]:>14.6g} {unit}")
    for key, value in raw.items():
        print(f"   {key:<58} {value:>14.6g} {'ms' if key == 'probe_ms' else 's'}")
    failed, attempted = len(runner.failures), runner.attempted
    print(f"   {'error_rate':<58} {failed / attempted if attempted else 0.0:>14.6g} "
          f"({failed} failed / {attempted} invocations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help=f"run length (default {RUN_SECONDS}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    parser.add_argument("--update-golden", action="store_true",
                        help=f"rewrite golden/ from this run (seed {DEFAULT_SEED}, full sizes)")
    args = parser.parse_args(argv)
    if args.update_golden and (args.smoke or args.seed != DEFAULT_SEED):
        parser.error(f"--update-golden needs full sizes and --seed {DEFAULT_SEED}")
    if not (SRC / "postopt" / "cli.py").is_file():
        print(f"bench: no postopt sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (0 if args.smoke else RUN_SECONDS)
    sizes = SMOKE if args.smoke else FULL
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    launcher = Launcher()
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace), sizes, launcher,
                                  args.update_golden)
            print(json.dumps({"workload": name, **result}) if len(names) > 1 else json.dumps(result))
    finally:
        launcher.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
