"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Tolerances: 1e-12 algebraic identities, 1e-9 bound checks, 1e-10 total
variation, 5-sigma binomial bands for sampled statistics.
"""

import json
import math

import numpy as np
import pytest

from postopt.algorithm import RunConfig, exact_analysis, run_repeat_until_success
from postopt.baselines import amplitude_amplification_success, grover_simulate, random_search
from postopt.cli import check_configuration, main, sweep_configurations
from postopt.costfn import count_below, generate, hamming_distances, save_instance
from postopt.encoding import AmplitudeEncoder, JunkPolicy

SWEEP_SEED = 20260810
DEMO_COSTS = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def sweep_records():
    swept = sweep_configurations(200, SWEEP_SEED, 12)
    return [check_configuration(inst, cfg, key, desc) for key, inst, cfg, desc in swept]


def random_instances(count, seed, n_lo=2, n_hi=9):
    rng = np.random.default_rng(seed)
    kinds = ["uniform_random", "number_partition", "hamming_structured"]
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi))
        kind = kinds[rng.integers(3)]
        if kind == "uniform_random":
            params = {"n_data": n}
        elif kind == "number_partition":
            params = {"weights": rng.uniform(0.5, 10.0, size=n).tolist()}
        else:
            params = {"n_data": n, "lipschitz": 1.0, "n_centers": 2}
        out.append(generate(kind, params, seed=int(rng.integers(2**31))))
    return out


def test_criterion_1_joint_success_bound(tmp_path, sweep_records):
    exit_code = main(["verify", "--sweep", "200", "--seed", str(SWEEP_SEED),
                      "-o", str(tmp_path / "sweep.jsonl")])
    violations = [r for r in sweep_records if r["p_joint"] > r["bound"] + 1e-9]
    report(1, "joint success probability <= M/N over 200 configurations",
           exit_code == 0 and not violations,
           f"exit={exit_code}, violations={len(violations)}")


def test_criterion_2_per_state_bound(sweep_records):
    violations = [r for r in sweep_records
                  if r["max_per_state_product"] > r["per_state_bound"] + 1e-9]
    worst_gap = 0.0
    for inst in random_instances(20, seed=2):
        ana = exact_analysis(inst, RunConfig(c_tol=float(np.median(inst.costs)),
                                             encoder=AmplitudeEncoder.identity()))
        worst_gap = max(worst_gap, abs(ana.max_per_state_product - 1 / ana.n))
    report(2, "per-state products <= 1/N, identity achieves equality",
           not violations and worst_gap <= 1e-12,
           f"violations={len(violations)}, identity gap={worst_gap:.2e}")


def test_criterion_3_tightness_witnesses():
    worst = 0.0
    for inst in random_instances(20, seed=3):
        c_tol = float(np.quantile(inst.costs, 0.5))
        if count_below(inst, c_tol) == 0:
            c_tol = inst.c_max + 1.0
        for enc in (AmplitudeEncoder.identity(), AmplitudeEncoder.oracle_threshold(c_tol)):
            ana = exact_analysis(inst, RunConfig(c_tol=c_tol, encoder=enc))
            worst = max(worst, abs(ana.p_joint - ana.bound))
    report(3, "identity and oracle encoders reach p_joint = M/N", worst <= 1e-12,
           f"max |p_joint - M/N| = {worst:.2e}")


def test_criterion_4_chain_identity(sweep_records):
    worst = 0.0
    for r in sweep_records:
        for route in (r["chain_via_ancilla"], r["chain_via_cost"]):
            if route is not None:
                worst = max(worst, abs(route - r["chain_direct"]))
    report(4, "three chain decompositions agree", worst <= 1e-12,
           f"max spread = {worst:.2e}")


def test_criterion_5_sequential_equals_joint(sweep_records):
    worst = max(r["tv_distance"] for r in sweep_records)
    report(5, "sequential vs joint measurement TV distance", worst <= 1e-10,
           f"max TV = {worst:.2e}")


def test_criterion_6_sampled_convergence():
    demo = generate("explicit", {"costs": DEMO_COSTS})
    benchmarks = [
        (demo, 3.0, AmplitudeEncoder.identity()),
        (demo, 3.0, AmplitudeEncoder.oracle_threshold(3.0)),
        (demo, 3.0, AmplitudeEncoder.cosine_power(1)),
        (demo, 3.0, AmplitudeEncoder.cosine_power(8)),
        (demo, 3.0, AmplitudeEncoder.linear()),
    ]
    for i, (kind, params) in enumerate([
        ("uniform_random", {"n_data": 4}),
        ("uniform_random", {"n_data": 6}),
        ("uniform_random", {"n_data": 8}),
        ("number_partition", {"weights": [2.0, 3.5, 5.0, 7.5, 9.0, 11.0]}),
        ("hamming_structured", {"n_data": 8, "lipschitz": 1.0, "n_centers": 2}),
    ]):
        inst = generate(kind, params, seed=100 + i)
        benchmarks.append((inst, float(np.quantile(inst.costs, 0.6)),
                           AmplitudeEncoder.cosine_power(1)))

    budget = 100_000
    worst_pulls = []
    for i, (inst, c_tol, enc) in enumerate(benchmarks):
        config = RunConfig(c_tol=c_tol, encoder=enc, max_preparations=budget, seed=1000 + i)
        p = exact_analysis(inst, config).p_joint
        stats = run_repeat_until_success(inst, config)
        sigma = math.sqrt(p * (1 - p) / budget)
        pull = abs(stats.p_joint_estimate - p) / sigma if sigma > 0 else 0.0
        worst_pulls.append(pull)
    report(6, "sampled hit frequency within 5-sigma of exact p_joint (10 benchmarks)",
           max(worst_pulls) < 5.0, f"worst pull = {max(worst_pulls):.2f} sigma")


def test_criterion_7_junk_independence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for inst in random_instances(20, seed=77):
        c_tol = float(np.quantile(inst.costs, 0.5))
        enc = AmplitudeEncoder.parse(
            ["cospow:0.5", "cospow:1", "cospow:2", "cospow:8", "linear"][rng.integers(5)])
        n_anc = int(rng.integers(2, 4))
        analyses = [
            exact_analysis(inst, RunConfig(c_tol=c_tol, encoder=enc, junk=junk, n_anc=n_anc))
            for junk in (JunkPolicy.CONCENTRATED, JunkPolicy.SPREAD)
        ]
        a, b = analyses
        worst = max(worst, abs(a.p_first - b.p_first), abs(a.p_joint - b.p_joint))
        if a.p_cond is not None and b.p_cond is not None:
            worst = max(worst, abs(a.p_cond - b.p_cond))
        else:
            assert a.p_cond is None and b.p_cond is None
    report(7, "junk policy cannot change p_first, p_cond, p_joint", worst <= 1e-12,
           f"max difference = {worst:.2e}")


def test_criterion_8_baseline_sanity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 13))
        inst = generate("uniform_random", {"n_data": n}, seed=int(rng.integers(2**31)))
        c_tol = float(np.quantile(inst.costs, rng.uniform(0.05, 0.95)))
        m = count_below(inst, c_tol)
        if m == 0:
            continue
        t = int(rng.integers(0, 51))
        worst = max(worst, abs(grover_simulate(inst, c_tol, t)
                               - amplitude_amplification_success(n, m, t)))
    grover_ok = worst <= 1e-10

    hw3 = generate("explicit", {"costs": hamming_distances(3, 0).astype(float)})
    frozen_ok = abs(grover_simulate(hw3, 1.0, 2) - 0.94531) <= 1e-5

    demo = generate("explicit", {"costs": DEMO_COSTS})
    trials = [random_search(demo, 3.0, seed=s, max_trials=1000).trials_used
              for s in range(10_000)]
    p = 3 / 8
    sigma_mean = math.sqrt((1 - p) / p**2) / math.sqrt(len(trials))
    rs_pull = abs(float(np.mean(trials)) - 1 / p) / sigma_mean
    report(8, "Grover simulation matches closed form; random search mean = N/M",
           grover_ok and frozen_ok and rs_pull < 5.0,
           f"max grover gap = {worst:.2e}, N=8 case ok = {frozen_ok}, "
           f"random-search pull = {rs_pull:.2f} sigma")


def test_criterion_9_possibly_much_worse():
    margins = []
    for i in range(10):
        inst = generate("uniform_random", {"n_data": 8}, seed=900 + i)
        c_tol = float(np.quantile(inst.costs, 0.5))
        config = RunConfig(c_tol=c_tol, encoder=AmplitudeEncoder.cosine_power(8))
        ana = exact_analysis(inst, config)
        assert ana.m >= 1 and ana.p_joint > 0
        margins.append((1.0 / ana.p_joint) / (ana.n / ana.m))
    report(9, "cospow(8) needs more preparations per hit than random search: 1/p_joint > N/M",
           all(m > 1.0 for m in margins),
           f"min ratio (1/p_joint)/(N/M) = {min(margins):.3f}")


def test_criterion_10_reproducibility(tmp_path):
    def strip_timestamp(path):
        out = []
        for line in path.read_text().splitlines():
            row = json.loads(line)
            row.pop("timestamp", None)
            out.append(json.dumps(row, sort_keys=True))
        return out

    demo = generate("explicit", {"costs": DEMO_COSTS})
    demo_path = tmp_path / "demo.txt"
    save_instance(demo, demo_path)

    ok = True
    gen_argv = ["generate", "--kind", "uniform_random", "--n", "9", "--seed", "41"]
    a, b = tmp_path / "gen_a.txt", tmp_path / "gen_b.txt"
    ok &= main(gen_argv + ["-o", str(a)]) == 0
    ok &= main(gen_argv + ["-o", str(b)]) == 0
    ok &= a.read_bytes() == b.read_bytes()

    ver_argv = ["verify", "--sweep", "20", "--seed", "17"]
    a, b = tmp_path / "ver_a.jsonl", tmp_path / "ver_b.jsonl"
    ok &= main(ver_argv + ["-o", str(a)]) == 0
    ok &= main(ver_argv + ["-o", str(b)]) == 0
    ok &= strip_timestamp(a) == strip_timestamp(b)

    cmp_argv = ["compare", str(demo_path), "--c-tol", "3", "--strategy",
                "random,hillclimb,postselect,grover:auto", "--seed", "23",
                "--repeats", "8", "--budget", "2000"]
    a, b = tmp_path / "cmp_a.jsonl", tmp_path / "cmp_b.jsonl"
    ok &= main(cmp_argv + ["-o", str(a)]) == 0
    ok &= main(cmp_argv + ["-o", str(b)]) == 0
    ok &= strip_timestamp(a) == strip_timestamp(b)

    report(10, "identical flags and seed reproduce records byte for byte", ok)
