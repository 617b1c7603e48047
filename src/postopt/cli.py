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
import contextlib
import json
import math
import platform
import sys
from collections.abc import Iterator
from dataclasses import replace
from datetime import datetime, timezone

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
from .costfn import (CENTERS_MAX, CostInstance, check_cap, check_params, count_below, generate,
                     load_instance, min_cost, replacing, save_instance)
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
SWEEP_MAX = 1 << 16  # a sweep holds one record per configuration, about 1.5 KiB each


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
                             f"COUNT <= {SWEEP_MAX}")
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

def _write_report(out, command: str, seed: int, records: list[dict]) -> None:
    """Stream the meta record, then one JSON line per record, into `out`, a file or None."""
    if out is None:
        return
    meta = {
        "record": "meta",
        "command": command,
        "seed": seed,
        "versions": {"postopt": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    for record in [meta, *records]:
        out.write(json.dumps(record, sort_keys=True).encode() + b"\n")


def _fmt(x) -> str:
    if x is None:
        return "undef"
    return f"{x:.6g}"


def _check_capacity(instance: CostInstance, config: RunConfig) -> None:
    """Refuse registers past the qubit cap or costs the encoder cannot scale;
    `load_instance` has refused a table past the cap."""
    RegisterLayout(instance.n_data, config.n_anc)
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
        "check_joint_bound": ana.p_joint <= ana.bound + ATOL_BOUND,
        "check_per_state_bound": ana.max_per_state_product <= 1.0 / ana.n + ATOL_BOUND,
        "check_product_identity": (ana.p_cond is None
                                   or abs(ana.p_joint - ana.p_first * ana.p_cond) <= ATOL_IDENTITY),
        "check_chain_identity": all(abs(route - chain.direct) <= ATOL_IDENTITY
                                    for route in (chain.via_ancilla, chain.via_cost)
                                    if route is not None),
        "check_sequential_joint": tv <= NORM_ATOL,
    }
    return {
        "record": "verify",
        "key": key,
        **instance_desc,
        "n_anc": config.n_anc,
        "encoder": config.encoder.spec(),
        "junk": config.junk.value,
        "c_tol": float(config.c_tol),
        **vars(ana),  # the analyses hold Python floats and ints, which json writes as they are
        "per_state_bound": 1.0 / ana.n,
        "chain_direct": chain.direct,
        "chain_via_ancilla": chain.via_ancilla,
        "chain_via_cost": chain.via_cost,
        "p_b_given_a": chain.p_b_given_a,
        "tv_distance": tv,
        **checks,
        "ok": all(checks.values()),
    }


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


def sweep_configurations(count: int, seed: int,
                         n_max: int) -> Iterator[tuple[str, CostInstance, RunConfig, dict]]:
    """Deterministically draw `count` (key, instance, config, desc) tuples, in draw order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
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
        yield key, instance, config, desc


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
        if args.sweep > SWEEP_MAX:
            raise ConfigurationError(f"--sweep {args.sweep} exceeds the cap of {SWEEP_MAX}")
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
        configurations = [(key, instance, config, desc)]
    # the report is opened before any work, so a bad -o exits 2 at once
    with replacing(args.out) if args.out else contextlib.nullcontext() as out:
        if args.sweep is not None:
            configurations = sweep_configurations(args.sweep, seed, n_max)
        # each table is checked as it is drawn and then dropped; the stable sort by key
        # keeps draw order among equal keys
        records = sorted((check_configuration(inst, cfg, key, desc) for key, inst, cfg, desc
                          in configurations), key=lambda record: record["key"])
        _write_report(out, "verify", seed, records)
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
                 config: RunConfig, m: int, seeds: list[int]) -> tuple[dict, str]:
    """The strategy's record, and its row of the compare table after the strategy column."""
    c_tol, budget = config.c_tol, config.max_preparations
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
        return record, f"{_hit_cells(record)} mean trials used {record['mean_trials_used']:.4g}"

    if strategy == "postselect":
        ana = exact_analysis(instance, config)
        record["encoder"] = config.encoder.spec()
        record["p_joint_exact"] = ana.p_joint
        record["bound"] = ana.bound
        record["expected_preparations_per_hit"] = (
            1.0 / ana.p_joint if ana.p_joint > 0 else None
        )
        stats = [run_repeat_until_success(instance, replace(config, seed=s)) for s in seeds]
        first_hits = [s.first_hit_preparation for s in stats if s.first_hit_preparation]
        record["hit_rate"] = sum(1 for s in stats if s.low_cost_hits) / len(stats)
        record["mean_trials_to_hit"] = float(np.mean(first_hits)) if first_hits else None
        record["mean_p_joint_estimate"] = float(np.mean([s.p_joint_estimate for s in stats]))
        return record, (f"{_hit_cells(record)} exact p_joint {ana.p_joint:.6g} <= M/N {ana.bound:.6g}, "
                        f"expected preps/hit {_fmt(record['expected_preparations_per_hit'])}")

    t = optimal_iterations(instance.n_data, m) if iterations is None else iterations
    record["iterations"] = t
    record["success_probability"] = grover_simulate(instance, c_tol, t)
    record["closed_form"] = amplitude_amplification_success(instance.n_data, m, t)
    record["expected_repetitions_per_hit"] = (
        1.0 / record["success_probability"] if record["success_probability"] > 0 else None
    )
    return record, (f"{'':>9} {'':>19} success prob {record['success_probability']:.6g} at t={t}, "
                    f"expected reps/hit {_fmt(record['expected_repetitions_per_hit'])}")


def _hit_cells(record: dict) -> str:
    return f"{record['hit_rate']:>9.3f} {_fmt(record['mean_trials_to_hit']):>19}"


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
    if postselects:  # nothing else encodes, and --n-anc was refused above
        _check_capacity(instance, config)
    m = count_below(instance, args.c_tol)
    if m < 1:
        raise ConfigurationError(f"no state has cost below c_tol={args.c_tol}; nothing to find")

    master = np.random.default_rng(args.seed)
    with replacing(args.out) if args.out else contextlib.nullcontext() as out:
        rows = [_compare_one(strategy, iterations, instance, config, m,
                             [int(s) for s in master.integers(2**63, size=args.repeats)])
                for strategy, iterations in strategies]
        _write_report(out, "compare", args.seed, [record for record, _ in rows])

    print(f"instance: N={instance.size}, M={m}, c_tol={args.c_tol:g} "
          f"(random-search mean trials N/M = {instance.size / m:.4g})")
    header = f"{'strategy':<16} {'hit rate':>9} {'mean trials-to-hit':>19} {'notes'}"
    print(header)
    print("-" * 72)
    for record, row in rows:
        print(f"{record['strategy']:<16} {row}")
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
    check_cap(check_params(kind, params)[0], TABLE_N_MAX)  # before any table is built
    with replacing(args.out) as out:  # opened first, so a bad -o exits 2 before the table is built
        instance = generate(kind, params, args.seed)
        save_instance(instance, args.out, out)
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
