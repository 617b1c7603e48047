"""Tests of the benchmark itself: tracer arithmetic, rebinding, checks, smoke run.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_child_spans_of_a_nested_call():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    a = t.wrap("a", lambda: None)
    b = t.wrap("b", lambda: a())
    outer = t.wrap("outer", lambda: (a(), b()))
    outer()  # outer [0, 10] > a [1, 2], b [3, 7] > a [4, 6]

    assert [(name, parent) for name, _, _, parent in t.spans] == [
        ("outer", -1), ("a", 0), ("b", 0), ("a", 2)]
    stats = tracer.summarize(t.spans)
    assert stats["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert stats["b"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    assert stats["a"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0], ["c", 3.0, 7.0, 0], ["c", 8.0, 9.0, 0]]
    stats = tracer.summarize(spans)
    assert stats["p"]["self_s"] == pytest.approx(10.0 - 7.0)
    assert stats["c"]["busy_s"] == pytest.approx(9.0)


def test_wrapper_catches_calls_made_through_another_modules_binding():
    import postopt.algorithm
    import postopt.encoding
    from postopt import AmplitudeEncoder, RunConfig, generate

    original = postopt.encoding.encode
    t = tracer.Tracer()
    undo = tracer.instrument(t, targets=(
        ("encoding.encode", "postopt.encoding", "encode"),
        ("statevec.uniform_superposition", "postopt.statevec", "uniform_superposition"),
    ))
    try:
        assert postopt.algorithm.encode is postopt.encoding.encode is not original
        instance = generate("uniform_random", {"n_data": 3}, 0)
        # algorithm.encoded_state calls encode and uniform_superposition through
        # algorithm's own bindings; encode calls uniform_superposition through encoding's
        postopt.algorithm.encoded_state(instance, RunConfig(c_tol=0.5, encoder=AmplitudeEncoder.identity()))
    finally:
        undo()

    assert postopt.algorithm.encode is original
    assert [(name, parent) for name, _, _, parent in t.spans] == [
        ("statevec.uniform_superposition", -1),
        ("encoding.encode", -1),
        ("statevec.uniform_superposition", 1),
    ]
    assert t.counts[tracer.DENSE_BYTES] == 2 * 16 * 2 ** (3 + 1)


def test_memory_peak_of_a_span_survives_a_child_resetting_the_peak():
    t = tracer.Tracer(memory=True)
    child = t.wrap("child", lambda: bytearray(1 << 20))

    def body():
        scratch = bytearray(8 << 20)
        del scratch
        return child()  # resets tracemalloc's peak on entry

    parent = t.wrap("parent", body)
    tracemalloc.start()
    try:
        parent()
    finally:
        tracemalloc.stop()
    assert t.peaks["parent"] >= 8 << 20
    assert 1 << 20 <= t.peaks["child"] < 2 << 20


def test_adjusted_time_scales_with_the_probe_only():
    at_reference = bench.Sample(0, 3.0, 2.0, 0, probe=bench.PROBE_REF_S)
    slow_host = bench.Sample(0, 6.0, 4.0, 0, probe=2 * bench.PROBE_REF_S)
    assert at_reference.adjusted(at_reference.wall) == pytest.approx(3.0)
    assert slow_host.adjusted(slow_host.wall) == pytest.approx(3.0)
    assert slow_host.adjusted(slow_host.cpu) == pytest.approx(2.0)


def test_golden_comparison_tolerates_1e12_and_nothing_sampled():
    meta = {"record": "meta", "timestamp": "t0", "seed": 1}
    want = [meta, {"record": "compare", "p_joint_exact": 0.25, "hit_rate": 0.5, "m": 8}]
    same = [dict(meta, timestamp="t1"),
            {"record": "compare", "p_joint_exact": 0.25 + 5e-13, "hit_rate": 0.5, "m": 8}]
    assert bench.golden_problems(want, same) == []
    assert bench.golden_problems(want, [meta, dict(want[1], p_joint_exact=0.25 + 1e-9)])
    assert bench.golden_problems(want, [meta, dict(want[1], hit_rate=0.5 + 1e-15)])
    assert bench.golden_problems(want, [meta, dict(want[1], m=9)])
    assert bench.golden_problems(want, [meta])


def test_report_checks_flag_each_broken_claim():
    verify = bench.Command("v", (), 1)
    meta = {"record": "meta"}
    assert bench.report_problems(verify, [meta, {"record": "verify", "key": "k", "ok": True}]) == []
    assert bench.report_problems(verify, [meta, {"record": "verify", "key": "k", "ok": False}])
    assert bench.report_problems(verify, [meta])
    compare = bench.Command("c", (), 1, m=8)
    grover = {"record": "compare", "strategy": "grover:auto", "m": 8,
              "success_probability": 0.5, "closed_form": 0.5}
    assert bench.report_problems(compare, [meta, grover]) == []
    assert bench.report_problems(compare, [meta, dict(grover, closed_form=0.5 + 1e-10)])
    assert bench.report_problems(compare, [meta, dict(grover, m=7)])
    post = {"record": "compare", "strategy": "postselect", "m": 8, "p_joint_exact": 0.2, "bound": 0.1}
    assert bench.report_problems(compare, [meta, post])


def test_benchmark_json_names_the_metrics_run_py_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    spans = {name for name, _, _ in tracer.TARGETS}
    assert {span for span, _ in bench.SPAN_STATS} <= spans


def _smoke(trace: int) -> dict[str, dict]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"workload"')]
    return {r.pop("workload"): r for r in results}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, section):
    results = _smoke(trace)
    assert list(results) == list(bench.WORKLOADS)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, name
        assert result["attempted"] >= 1 and result["failed"] == 0, name  # error_rate 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted, name
    if trace:
        engine = {k: v["value"] for k, v in results["engine"]["metrics"].items()}
        # three encodes per verify record, one per post-selection repeat and
        # one for the compare command's exact analysis
        configs = engine["cli.check_configuration.calls"]
        repeats = engine["algorithm.run_repeat_until_success.calls"]
        assert configs > 0 and repeats > 0
        assert engine["encoding.encode.calls_per_item"] == (3 * configs + repeats + 1) / (configs + repeats)
        assert results["baselines"]["metrics"]["baselines.grover_simulate.iterations"]["value"] > 0
        assert results["baselines"]["metrics"]["encoding.encode.calls"]["value"] == 0


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                           "engine", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
