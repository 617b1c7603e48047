"""Command-line front end: generate instances, verify the bounds, compare strategies.

Subcommands:

    generate  write a cost-instance file (text, or .npz by suffix)
    verify    run the exact bound/identity checks on one instance or a sweep
              of randomized configurations; exit 0 iff every check holds
    compare   run search strategies side by side on one instance

Reports are line-delimited JSON, one record per configuration, each
carrying the full configuration needed to reproduce it.  Rerunning the same
command with the same seed reproduces the records byte for byte; only the
meta record's timestamp differs.

Exit codes: 0 all checks pass, 1 a claim check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import (
    ATOL_BOUND,
    ATOL_IDENTITY,
    RunConfig,
    chain_decomposition,
    exact_analysis,
    run_repeat_until_success,
    sequential_vs_joint_check,
)
from .baselines import (
    grover_simulate,
    amplitude_amplification_success,
    hill_climb,
    optimal_iterations,
    random_search,
)
from .costfn import (CENTERS_MAX, CostInstance, check_params, count_below, generate, load_instance,
                     min_cost, save_instance)
from .encoding import AmplitudeEncoder, JunkPolicy, shifted_span
from .errors import ConfigurationError, PostoptError
from .statevec import NORM_ATOL, RegisterLayout

SWEEP_ENCODERS = ("identity", "oracle", "cospow:0.5", "cospow:1", "cospow:2", "cospow:8", "linear")
SWEEP_KINDS = ("uniform_random", "number_partition", "hamming_structured")
SWEEP_QUANTILES = (0.1, 0.25, 0.5, 0.9)
TABLE_N_MAX = 20  # explicit cost tables stop being practical past 2**20 entries
GROVER_T_MAX = 10**7  # grover:<t> steps cost O(t); 10^7 of them take about 3 s
BUDGET_MAX = 10**7  # postselect draws --budget ancilla outcomes in one array, ~256 MiB at the cap
REPEATS_MAX = 10**5  # compare runs every strategy --repeats times
# a sweep holds every drawn configuration until its report: 2**n costs each plus
# about 2 KiB of Python objects, counted here as 256 more float64 entries
SWEEP_ENTRIES_MAX = 1 << 28  # 2 GiB of float64
SWEEP_ITEM_ENTRIES = 256


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postopt",
        description="Simulate the post-selection optimization procedure and "
        "verify that its success probability never beats random search (M/N).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a cost instance file")
    gen.add_argument("--kind", required=True,
                     choices=["explicit", "uniform_random", "number_partition", "hamming_structured"])
    gen.add_argument("--n", type=int, help="data qubit count (uniform_random, hamming_structured)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--costs", help="comma-separated cost table (explicit); write --costs=-1.5,2 "
                     "for a list that starts with '-'; past about 2**12 full-precision costs, "
                     "Linux's 128 KiB argument limit is passed: write a text or .npz file instead")
    gen.add_argument("--weights", help="comma-separated positive weights (number_partition)")
    gen.add_argument("--low", type=float, default=0.0, help="uniform_random lower bound")
    gen.add_argument("--high", type=float, default=1.0, help="uniform_random upper bound")
    gen.add_argument("--lipschitz", type=float, default=1.0,
                     help="single-bit-flip cost bound (hamming_structured)")
    gen.add_argument("--centers", type=int, default=3,
                     help=f"number of basins, at most {CENTERS_MAX} (hamming_structured)")
    gen.add_argument("-o", "--out", required=True,
                     help="output path; .npz writes a NumPy archive, any other suffix text")

    shared = argparse.ArgumentParser(add_help=False)
    # None marks a flag as unset, so a command that would not read it can refuse it;
    # _run_config applies the defaults
    shared.add_argument("--junk", choices=["concentrated", "spread"],
                        help="where the failure amplitude goes (default concentrated)")
    shared.add_argument("--n-anc", type=int, help="ancilla qubit count (default 1)")
    shared.add_argument("-o", "--out", help="report path")

    ver = sub.add_parser("verify", parents=[shared],
                         help="check the M/N and 1/N bounds and the measurement identities")
    source = ver.add_mutually_exclusive_group(required=True)
    source.add_argument("instance", nargs="?", help="instance file to verify")
    source.add_argument("--sweep", type=int, metavar="COUNT",
                        help="verify COUNT randomized configurations instead of a file; "
                             "COUNT * (2**n + 256) may not exceed 2**28")
    ver.add_argument("--n", type=int, help="cap on swept data qubit count (default 12)")
    ver.add_argument("--seed", type=int, help="sweep seed (default 0)")
    ver.add_argument("--encoder", help="identity | oracle:<tau> | cospow:<b> | linear "
                                       "(default identity)")
    ver.add_argument("--c-tol", type=float, help="success threshold (strict); required with a file")

    cmp_ = sub.add_parser("compare", parents=[shared],
                          help="run strategies side by side on one instance")
    cmp_.add_argument("instance", help="instance file")
    cmp_.add_argument("--c-tol", type=float, required=True)
    cmp_.add_argument("--strategy", required=True,
                      help="comma list of random | hillclimb | grover:<t|auto> | postselect; "
                           f"t <= {GROVER_T_MAX}")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--encoder", help="encoder for the postselect strategy (default cospow:1)")
    cmp_.add_argument("--repeats", type=int, default=32,
                      help=f"independent runs per strategy, at most {REPEATS_MAX}")
    cmp_.add_argument("--budget", type=int, default=10_000,
                      help="per-run budget: draws (random), preparations (postselect), "
                           f"cost evaluations, approximately (hillclimb); at most {BUDGET_MAX}")

    return parser


# ---------------------------------------------------------------------------
# report plumbing

def _meta(command: str, seed: int) -> dict:
    return {
        "record": "meta",
        "command": command,
        "seed": seed,
        "versions": {
            "postopt": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_report(out: str | None, meta: dict, records: list[dict]) -> None:
    if out:
        Path(out).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in [meta, *records]))


def _fmt(x) -> str:
    if x is None:
        return "undef"
    return f"{x:.6g}"


def _check_table_cap(n_data: int) -> None:
    """Refuse a cost table past 2**TABLE_N_MAX entries before any state is built from it."""
    if n_data > TABLE_N_MAX:
        raise ConfigurationError(f"n_data={n_data} exceeds the table cap of {TABLE_N_MAX}")


def _check_capacity(instance: CostInstance, config: RunConfig, encodes: bool = True) -> None:
    """Refuse a loaded table past the table cap, registers past the qubit cap, or,
    when the instance is to be encoded, costs the encoder cannot scale."""
    _check_table_cap(instance.n_data)
    RegisterLayout(instance.n_data, config.n_anc)
    if encodes:
        shifted_span(config.encoder, instance)


def _refuse_unread(args: argparse.Namespace, flags: tuple[str, ...], context: str) -> None:
    """Refuse any of `flags` that was set: the command would never read it."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigurationError(f"--{flag.replace('_', '-')} cannot be used {context}")


def _run_config(args: argparse.Namespace, default_encoder: str, **extra) -> RunConfig:
    """The RunConfig the shared verify/compare flags describe; unset flags take their defaults."""
    encoder = default_encoder if args.encoder is None else args.encoder
    return RunConfig(c_tol=args.c_tol, encoder=AmplitudeEncoder.parse(encoder),
                     junk=JunkPolicy(args.junk or "concentrated"),
                     n_anc=1 if args.n_anc is None else args.n_anc, **extra)


# ---------------------------------------------------------------------------
# verify

def check_configuration(instance: CostInstance, config: RunConfig, key: str,
                        instance_desc: dict) -> dict:
    """Run every exact check for one configuration; returns a flat record."""
    ana = exact_analysis(instance, config)
    chain = chain_decomposition(instance, config)
    tv = sequential_vs_joint_check(instance, config)

    checks = {
        "check_joint_bound": bool(ana.p_joint <= ana.bound + ATOL_BOUND),
        "check_per_state_bound": bool(ana.max_per_state_product <= 1.0 / ana.n + ATOL_BOUND),
        "check_product_identity": bool(
            ana.p_cond is None
            or abs(ana.p_joint - ana.p_first * ana.p_cond) <= ATOL_IDENTITY
        ),
        "check_chain_identity": bool(
            all(
                abs(route - chain.direct) <= ATOL_IDENTITY
                for route in (chain.via_ancilla, chain.via_cost)
                if route is not None
            )
        ),
        "check_sequential_joint": bool(tv <= NORM_ATOL),
    }
    record = {
        "record": "verify",
        "key": key,
        **instance_desc,
        "n_anc": config.n_anc,
        "encoder": config.encoder.spec(),
        "junk": config.junk.value,
        "c_tol": float(config.c_tol),
        "n": ana.n,
        "m": ana.m,
        "p_first": float(ana.p_first),
        "p_cond": None if ana.p_cond is None else float(ana.p_cond),
        "p_joint": float(ana.p_joint),
        "bound": float(ana.bound),
        "max_per_state_product": ana.max_per_state_product,
        "per_state_bound": 1.0 / ana.n,
        "chain_direct": float(chain.direct),
        "chain_via_ancilla": None if chain.via_ancilla is None else float(chain.via_ancilla),
        "chain_via_cost": None if chain.via_cost is None else float(chain.via_cost),
        "p_b_given_a": None if chain.p_b_given_a is None else float(chain.p_b_given_a),
        "tv_distance": float(tv),
        **checks,
        "ok": all(checks.values()),
    }
    return record


def _quantile(costs: np.ndarray, q: float) -> float:
    """`np.quantile(costs, q)` to the bit, by one `np.partition` and numpy's own `_lerp`.

    Its partition takes the same kth set as numpy's, so a tie of 0.0 and -0.0
    resolves the same way; the arithmetic is in Python floats, which round as
    float64 does.
    """
    n = costs.size
    vi = (n - 1) * q
    lo = math.floor(vi)
    hi = min(lo + 1, n - 1)
    g = vi - lo
    part = np.partition(costs, sorted({0, lo, hi, n - 1}))
    a, b = float(part[lo]), float(part[hi])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def sweep_configurations(count: int, seed: int, n_max: int) -> list[tuple[str, CostInstance, RunConfig, dict]]:
    """Deterministically draw `count` (instance, config) pairs, sorted by key."""
    rng = np.random.default_rng(seed)
    drawn = []
    for i in range(count):
        n_data = int(rng.integers(1, n_max + 1))
        kind = SWEEP_KINDS[rng.integers(len(SWEEP_KINDS))]
        inst_seed = int(rng.integers(2**31))
        if kind == "uniform_random":
            params = {"n_data": n_data}
        elif kind == "number_partition":
            params = {"weights": np.round(rng.uniform(0.5, 10.0, size=n_data), 3).tolist()}
        else:
            params = {
                "n_data": n_data,
                "lipschitz": round(float(rng.uniform(0.5, 2.0)), 3),
                "n_centers": int(rng.integers(1, 4)),
            }
        instance = generate(kind, params, inst_seed)

        if rng.random() < 0.1:
            c_tol = float(instance.costs.min()) - 1.0  # M = 0 corner
        else:
            c_tol = _quantile(instance.costs, SWEEP_QUANTILES[rng.integers(len(SWEEP_QUANTILES))])
        spec = SWEEP_ENCODERS[rng.integers(len(SWEEP_ENCODERS))]
        encoder = AmplitudeEncoder.oracle_threshold(c_tol) if spec == "oracle" else AmplitudeEncoder.parse(spec)
        junk = JunkPolicy.SPREAD if rng.random() < 0.5 else JunkPolicy.CONCENTRATED
        n_anc = int(rng.integers(1, 4))

        config = RunConfig(c_tol=c_tol, encoder=encoder, junk=junk, n_anc=n_anc)
        key = (f"{kind}/n{n_data:02d}/s{inst_seed}/{encoder.spec()}/"
               f"{junk.value}/anc{n_anc}/ctol{c_tol:.6g}")
        desc = {"instance_kind": kind, "instance_seed": inst_seed,
                "instance_params": json.dumps(params, sort_keys=True), "n_data": n_data}
        drawn.append((key, instance, config, desc))
    drawn.sort(key=lambda item: item[0])
    return drawn


def _print_verify_table(records: list[dict]) -> None:
    header = f"{'configuration':<58} {'n':>5} {'m':>5} {'p_first':>10} {'p_cond':>10} " \
             f"{'p_joint':>10} {'M/N':>10} {'max p_k':>10} {'TV':>9} ok"
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{r['key']:<58} {r['n']:>5} {r['m']:>5} {_fmt(r['p_first']):>10} "
              f"{_fmt(r['p_cond']):>10} {_fmt(r['p_joint']):>10} {_fmt(r['bound']):>10} "
              f"{_fmt(r['max_per_state_product']):>10} {_fmt(r['tv_distance']):>9} "
              f"{'yes' if r['ok'] else 'NO'}")


def cmd_verify(args: argparse.Namespace) -> int:
    # a sweep draws its own configurations; a file has no --n to cap and nothing to seed
    seed = 0 if args.seed is None else args.seed
    if args.sweep is not None:
        _refuse_unread(args, ("encoder", "c_tol", "junk", "n_anc"), "with --sweep")
        n_max = 12 if args.n is None else args.n
        if args.sweep < 1:
            raise ConfigurationError("--sweep must be >= 1")
        if not 1 <= n_max <= TABLE_N_MAX:
            raise ConfigurationError(f"--n must lie in [1, {TABLE_N_MAX}]")
        if args.sweep * ((1 << n_max) + SWEEP_ITEM_ENTRIES) > SWEEP_ENTRIES_MAX:
            raise ConfigurationError(f"--sweep {args.sweep} at --n {n_max} exceeds the cap of "
                                     f"2**28 entries, COUNT * (2**n + {SWEEP_ITEM_ENTRIES})")
        swept = sweep_configurations(args.sweep, seed, n_max)
        records = [check_configuration(inst, cfg, key, desc) for key, inst, cfg, desc in swept]
    else:
        _refuse_unread(args, ("n", "seed"), "with an instance file")
        if args.c_tol is None:
            raise ConfigurationError("--c-tol is required when verifying an instance file")
        config = _run_config(args, "identity")
        instance = load_instance(args.instance, TABLE_N_MAX)
        _check_capacity(instance, config)
        key = (f"file:{args.instance}/{config.encoder.spec()}/{config.junk.value}/"
               f"anc{config.n_anc}/ctol{args.c_tol:.6g}")
        desc = {"instance_kind": "file", "instance_seed": None,
                "instance_params": json.dumps({"path": args.instance}), "n_data": instance.n_data}
        records = [check_configuration(instance, config, key, desc)]

    meta = _meta("verify", seed)
    _write_report(args.out, meta, records)
    _print_verify_table(records)

    failures = [r for r in records if not r["ok"]]
    if failures:
        print(f"\n{len(failures)} configuration(s) FAILED a claim check:", file=sys.stderr)
        for r in failures:
            bad = [name for name in r if name.startswith("check_") and not r[name]]
            print(f"  {r['key']}: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"\nall {len(records)} configuration(s) pass: p_joint <= M/N, "
          f"per-state products <= 1/N, identities hold")
    return 0


# ---------------------------------------------------------------------------
# compare

def _parse_strategies(text: str) -> list[tuple[str, int | None]]:
    """Split a --strategy list into (spec, Grover iteration count or None) pairs."""
    parsed = []
    for spec in filter(None, (s.strip() for s in text.split(","))):
        name, _, arg = spec.partition(":")
        if spec in ("random", "hillclimb", "postselect") or (name == "grover" and arg in ("", "auto")):
            parsed.append((spec, None))
        elif name == "grover" and arg.isdecimal():
            # float, not int: int() refuses digit strings past 4300 digits with a ValueError
            if float(arg) > GROVER_T_MAX:
                raise ConfigurationError(f"{spec!r} exceeds the cap of {GROVER_T_MAX} iterations")
            parsed.append((spec, int(arg)))
        else:
            raise ConfigurationError(f"cannot parse strategy {spec!r}")
    if not parsed:
        raise ConfigurationError("empty strategy list")
    return parsed


def _compare_one(strategy: str, iterations: int | None, instance: CostInstance,
                 config: RunConfig, seeds: list[int]) -> dict:
    c_tol, budget = config.c_tol, config.max_preparations
    m = count_below(instance, c_tol)
    record: dict = {
        "record": "compare",
        "strategy": strategy,
        "c_tol": float(c_tol),
        "repeats": len(seeds),
        "budget": budget,
        "seeds": json.dumps(seeds),
        "n": instance.size,
        "m": m,
    }

    if strategy in ("random", "hillclimb"):
        if strategy == "random":
            results = [random_search(instance, c_tol, s, max_trials=budget) for s in seeds]
        else:
            restarts = max(1, budget // (instance.n_data + 1))
            results = [hill_climb(instance, c_tol, s, max_restarts=restarts) for s in seeds]
        hits = [r for r in results if r.hit]
        record["hit_rate"] = len(hits) / len(results)
        record["mean_trials_used"] = float(np.mean([r.trials_used for r in results]))
        record["mean_trials_to_hit"] = float(np.mean([r.trials_used for r in hits])) if hits else None
        record["best_cost"] = float(min(r.best_cost for r in results))
        return record

    if strategy == "postselect":
        ana = exact_analysis(instance, config)
        record["encoder"] = config.encoder.spec()
        record["p_joint_exact"] = float(ana.p_joint)
        record["bound"] = float(ana.bound)
        record["expected_preparations_per_hit"] = (
            1.0 / ana.p_joint if ana.p_joint > 0 else None
        )
        stats = [run_repeat_until_success(instance, replace(config, seed=s)) for s in seeds]
        first_hits = [s.first_hit_preparation for s in stats if s.first_hit_preparation]
        record["hit_rate"] = sum(1 for s in stats if s.low_cost_hits) / len(stats)
        record["mean_trials_to_hit"] = float(np.mean(first_hits)) if first_hits else None
        record["mean_p_joint_estimate"] = float(np.mean([s.p_joint_estimate for s in stats]))
        return record

    t = optimal_iterations(instance.n_data, m) if iterations is None else iterations
    record["iterations"] = t
    record["success_probability"] = grover_simulate(instance, c_tol, t)
    record["closed_form"] = amplitude_amplification_success(instance.n_data, m, t)
    record["expected_repetitions_per_hit"] = (
        1.0 / record["success_probability"] if record["success_probability"] > 0 else None
    )
    return record


def cmd_compare(args: argparse.Namespace) -> int:
    strategies = _parse_strategies(args.strategy)
    postselects = any(spec == "postselect" for spec, _ in strategies)
    if not postselects:
        _refuse_unread(args, ("encoder", "junk", "n_anc"), "without the postselect strategy")
    if not 1 <= args.repeats <= REPEATS_MAX:
        raise ConfigurationError(f"--repeats must lie in [1, {REPEATS_MAX}]")
    if not 1 <= args.budget <= BUDGET_MAX:
        raise ConfigurationError(f"--budget must lie in [1, {BUDGET_MAX}]")
    config = _run_config(args, "cospow:1", max_preparations=args.budget)
    instance = load_instance(args.instance, TABLE_N_MAX)
    _check_capacity(instance, config, encodes=postselects)
    if count_below(instance, args.c_tol) < 1:
        raise ConfigurationError(f"no state has cost below c_tol={args.c_tol}; nothing to find")

    master = np.random.default_rng(args.seed)
    records = []
    for strategy, iterations in strategies:
        seeds = [int(s) for s in master.integers(2**63, size=args.repeats)]
        records.append(_compare_one(strategy, iterations, instance, config, seeds))

    meta = _meta("compare", args.seed)
    _write_report(args.out, meta, records)

    print(f"instance: N={instance.size}, M={records[0]['m']}, c_tol={args.c_tol:g} "
          f"(random-search mean trials N/M = {instance.size / records[0]['m']:.4g})")
    header = f"{'strategy':<16} {'hit rate':>9} {'mean trials-to-hit':>19} {'notes'}"
    print(header)
    print("-" * 72)
    for r in records:
        if r["strategy"].startswith("grover"):
            note = (f"success prob {r['success_probability']:.6g} at t={r['iterations']}, "
                    f"expected reps/hit {_fmt(r['expected_repetitions_per_hit'])}")
            print(f"{r['strategy']:<16} {'':>9} {'':>19} {note}")
        elif r["strategy"] == "postselect":
            note = (f"exact p_joint {r['p_joint_exact']:.6g} <= M/N {r['bound']:.6g}, "
                    f"expected preps/hit {_fmt(r['expected_preparations_per_hit'])}")
            print(f"{r['strategy']:<16} {r['hit_rate']:>9.3f} "
                  f"{_fmt(r['mean_trials_to_hit']):>19} {note}")
        else:
            print(f"{r['strategy']:<16} {r['hit_rate']:>9.3f} "
                  f"{_fmt(r['mean_trials_to_hit']):>19} mean trials used {r['mean_trials_used']:.4g}")
    return 0


# ---------------------------------------------------------------------------
# generate

def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise PostoptError(f"{flag}: {exc}") from exc


def cmd_generate(args: argparse.Namespace) -> int:
    """Build the instance and write it with `save_instance`, then print a summary line.

    A large text table is formatted on every usable core, with the same bytes
    as from one process.  The file replaces the path only once it is whole, so
    a failed write exits 2 and leaves the path as it was.
    """
    kind = args.kind
    flag = {"explicit": "costs", "number_partition": "weights"}.get(kind, "n")
    if getattr(args, flag) in (None, ""):
        raise ConfigurationError(f"--{flag} is required for kind={kind}")
    if flag != "n":  # the list flags are named after their generator parameter
        params = {flag: _parse_floats(getattr(args, flag), f"--{flag}")}
    elif kind == "uniform_random":
        params = {"n_data": args.n, "low": args.low, "high": args.high}
    else:
        params = {"n_data": args.n, "lipschitz": args.lipschitz, "n_centers": args.centers}
    n_data = check_params(kind, params)[0]  # before the table cap, so before any table is built

    _check_table_cap(n_data)
    instance = generate(kind, params, args.seed)
    save_instance(instance, args.out)
    k_min, c_min = min_cost(instance)
    print(f"wrote {args.out}: kind={kind} n_data={instance.n_data} N={instance.size} "
          f"min_cost={c_min:g} at index {k_min} max_cost={instance.c_max:g} seed={args.seed}")
    return 0


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if (args.seed or 0) < 0:  # numpy's generators refuse it, as a traceback
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_compare(args)
    except (PostoptError, OSError) as exc:
        print(f"postopt {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
