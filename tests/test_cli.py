import argparse
import contextlib
import errno
import hashlib
import json
import os
import stat
import threading
import tracemalloc
import weakref
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from postopt import costfn
from postopt.algorithm import RunConfig
from postopt.cli import (BUDGET_MAX, GROVER_T_MAX, REPEATS_MAX, SWEEP_MAX, SWEEP_QUANTILES,
                         TABLE_N_MAX, _quantile, build_parser, check_configuration, main,
                         sweep_configurations)
from postopt.costfn import (CENTERS_MAX, CostInstance, generate, hamming_distances,
                            load_instance, save_instance)
from postopt.encoding import BLOCK, AmplitudeEncoder, JunkPolicy
from postopt.statevec import uniform_superposition


def read_records(path):
    lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    meta = [r for r in rows if r.get("record") == "meta"]
    records = [r for r in rows if r.get("record") != "meta"]
    assert len(meta) == 1
    return meta[0], records


def records_without_timestamp(path):
    lines = path.read_text().splitlines()
    out = []
    for line in lines:
        row = json.loads(line)
        row.pop("timestamp", None)
        out.append(json.dumps(row, sort_keys=True))
    return out


def write_demo(tmp_path):
    inst = generate("explicit", {"costs": [3, 1, 4, 1, 5, 9, 2, 6]})
    path = tmp_path / "demo.txt"
    save_instance(inst, path)
    return path


# ---------------------------------------------------------------------------
# generate

def test_generate_round_trip(tmp_path):
    out = tmp_path / "inst.txt"
    assert main(["generate", "--kind", "uniform_random", "--n", "10", "--seed", "7",
                 "-o", str(out)]) == 0
    loaded = load_instance(out)
    direct = generate("uniform_random", {"n_data": 10, "low": 0.0, "high": 1.0}, seed=7)
    assert np.array_equal(loaded.costs, direct.costs)


def test_generate_number_partition_full_plus(tmp_path):
    out = tmp_path / "np.npz"
    assert main(["generate", "--kind", "number_partition", "--weights", "4,5,6,7,8",
                 "-o", str(out)]) == 0
    inst = load_instance(out)
    assert inst.costs[0] == 30.0  # all-plus sign pattern
    assert inst.provenance["kind"] == "number_partition"


def test_generate_explicit_takes_a_negative_first_cost_after_an_equals_sign(tmp_path):
    # `--costs -1.5,2` would be read by argparse as an option, not as the flag's value
    out = tmp_path / "inst.txt"
    assert main(["generate", "--kind", "explicit", "--costs=-1.5,2", "-o", str(out)]) == 0
    assert np.array_equal(load_instance(out).costs, [-1.5, 2.0])


def test_generate_bad_kind_usage_error(tmp_path):
    assert main(["generate", "--kind", "nonsense", "-o", str(tmp_path / "x.txt")]) == 2


def test_generate_missing_params(tmp_path):
    assert main(["generate", "--kind", "uniform_random", "-o", str(tmp_path / "x.txt")]) == 2
    assert main(["generate", "--kind", "number_partition", "-o", str(tmp_path / "x.txt")]) == 2


def test_generate_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    argv = ["generate", "--kind", "hamming_structured", "--n", "8", "--seed", "3"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# verify

def test_verify_single_instance_equality_case(tmp_path, capsys):
    demo = write_demo(tmp_path)
    report = tmp_path / "report.jsonl"
    code = main(["verify", str(demo), "--encoder", "identity", "--c-tol", "3",
                 "-o", str(report)])
    assert code == 0
    meta, records = read_records(report)
    assert meta["seed"] == 0
    assert len(records) == 1
    rec = records[0]
    assert rec["p_joint"] == pytest.approx(0.375, abs=1e-12)
    assert rec["bound"] == 0.375
    assert rec["ok"] is True
    assert "p_joint" in capsys.readouterr().out


def test_verify_requires_c_tol_with_file(tmp_path):
    demo = write_demo(tmp_path)
    assert main(["verify", str(demo)]) == 2


def test_verify_unreadable_file(tmp_path):
    assert main(["verify", str(tmp_path / "missing.txt"), "--c-tol", "1"]) == 2


def test_verify_rejects_both_modes(tmp_path):
    demo = write_demo(tmp_path)
    assert main(["verify", str(demo), "--sweep", "5", "--c-tol", "1"]) == 2
    assert main(["verify"]) == 2


def test_verify_sweep_passes(tmp_path):
    report = tmp_path / "sweep.jsonl"
    assert main(["verify", "--sweep", "25", "--seed", "5", "-o", str(report)]) == 0
    _, records = read_records(report)
    assert len(records) == 25
    assert all(r["ok"] for r in records)
    assert all(r["p_joint"] <= r["bound"] + 1e-9 for r in records)
    keys = [r["key"] for r in records]
    assert keys == sorted(keys)  # deterministic report ordering


def test_verify_sweep_records_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["verify", "--sweep", "12", "--seed", "9", "-o", str(a)]) == 0
    assert main(["verify", "--sweep", "12", "--seed", "9", "-o", str(b)]) == 0
    assert records_without_timestamp(a) == records_without_timestamp(b)


def test_verify_sweep_draws_are_pinned():
    # the keys and c_tol bits of one sweep: a change to any draw, to the quantile or to a
    # generator moves this digest
    digest = hashlib.sha256()
    for key, _, config, _ in sorted(sweep_configurations(300, 5, 14), key=lambda item: item[0]):
        digest.update(f"{key} {config.c_tol.hex()}\n".encode())
    assert digest.hexdigest() == "ecd5bc3a7283d8a49b7c9d5a2630731f12f5aa12bfdae8f3b658ad733ad18232"


COSTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormal and zero
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),  # ties
)


@settings(max_examples=300, deadline=None, database=None)
@given(arrays(np.float64, st.integers(2, 4096), elements=COSTS),
       st.sampled_from(SWEEP_QUANTILES + (0.0, 1.0)))
@example(np.array([0.0, 0.0, 0.0, -0.0, -0.0]), 0.9)  # the kth set picks which zero
@example(np.array([1.0, 2.0, 3.0, 5.0]), 0.9)  # g = 0.7, numpy's b - d * (1 - g) branch
@example(np.array([1.0, 2.0, 3.0, 5.0]), 0.1)  # g = 0.3, its a + d * g branch
def test_quantile_equals_numpy_to_the_bit(costs, q):
    # neighbours more than the float range apart overflow b - a: numpy warns, and both give
    # inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.quantile(costs, q))
    assert _quantile(costs, q).hex() == expected.hex()


def test_verify_encoder_spec_error(tmp_path):
    demo = write_demo(tmp_path)
    assert main(["verify", str(demo), "--encoder", "warp:9", "--c-tol", "1"]) == 2


def test_verify_flags_reach_the_record(tmp_path):
    demo = write_demo(tmp_path)
    report = tmp_path / "report.jsonl"
    assert main(["verify", str(demo), "--encoder", "cospow:2", "--c-tol", "3",
                 "--junk", "spread", "--n-anc", "3", "-o", str(report)]) == 0
    _, records = read_records(report)
    rec = records[0]
    assert (rec["encoder"], rec["junk"], rec["n_anc"]) == ("cospow:2", "spread", 3)


def test_verify_exits_1_on_violated_claim(tmp_path, capsys, monkeypatch):
    # a genuine violation would falsify the bound, so fake one to pin the
    # failure reporting path and the exit code
    import postopt.cli as cli

    def fake_check(instance, config, key, instance_desc):
        record = check_configuration(instance, config, key, instance_desc)
        record["check_joint_bound"] = False
        record["ok"] = False
        return record

    monkeypatch.setattr(cli, "check_configuration", fake_check)
    report = tmp_path / "report.jsonl"
    assert main(["verify", "--sweep", "5", "--n", "3", "-o", str(report)]) == 1
    assert "check_joint_bound" in capsys.readouterr().err
    _, records = read_records(report)  # the whole report, failed records too
    assert len(records) == 5 and not any(r["ok"] for r in records)


# ---------------------------------------------------------------------------
# one dense encoding per configuration

def count_encodings(monkeypatch):
    """Count the encoded instances built: one per encoding `encode` builds."""
    import postopt.encoding as encoding

    calls = []
    original = encoding.EncodedInstance.__post_init__

    def counted(self):
        calls.append(self.layout)
        original(self)

    monkeypatch.setattr(encoding.EncodedInstance, "__post_init__", counted)
    return calls


def test_one_verify_record_builds_one_encoding(monkeypatch):
    calls = count_encodings(monkeypatch)
    inst = generate("uniform_random", {"n_data": 5}, seed=3)
    config = RunConfig(c_tol=0.3, encoder=AmplitudeEncoder.cosine_power(2), n_anc=2)
    assert check_configuration(inst, config, "k", {})["ok"]
    assert len(calls) == 1


def test_a_sweep_builds_each_layouts_uniform_state_once():
    # a one-entry cache rebuilt the state whenever consecutive records changed layout
    swept = list(sweep_configurations(1000, 3, 12))
    layouts = {(inst.n_data, config.n_anc) for _, inst, config, _ in swept}
    uniform_superposition.cache_clear()
    for key, inst, config, desc in swept:
        check_configuration(inst, config, key, desc)
    assert uniform_superposition.cache_info().misses == len(layouts) == 36


def test_a_sweep_holds_one_cost_table_at_a_time(monkeypatch):
    # the sweep used to hold every drawn table until the last was drawn: 39 of 40 at the end
    import postopt.cli as cli

    instances, alive = [], []
    generate_ = cli.generate
    check = cli.check_configuration

    def generate_kept(*args):
        instance = generate_(*args)
        instances.append(weakref.ref(instance))
        return instance

    def check_counted(instance, *args):
        alive.append(sum(ref() is not None for ref in instances if ref() is not instance))
        return check(instance, *args)

    monkeypatch.setattr(cli, "generate", generate_kept)
    monkeypatch.setattr(cli, "check_configuration", check_counted)
    assert main(["verify", "--sweep", "40", "--n", "10", "--seed", "2"]) == 0
    assert len(alive) == 40
    assert max(alive) <= 1  # encode's one-entry memo may keep the last one


def test_postselect_compare_builds_one_encoding_for_all_repeats(tmp_path, monkeypatch):
    calls = count_encodings(monkeypatch)
    demo = write_demo(tmp_path)
    assert main(["compare", str(demo), "--c-tol", "3", "--strategy", "postselect",
                 "--repeats", "5", "--budget", "200"]) == 0
    assert len(calls) == 1


def test_postselect_compare_builds_one_pair_of_tables_for_all_repeats(tmp_path, monkeypatch):
    import postopt.encoding as encoding

    builds = []
    original = encoding._choice_cdf
    monkeypatch.setattr(encoding, "_choice_cdf", lambda p: builds.append(p) or original(p))
    demo = write_demo(tmp_path)
    assert main(["compare", str(demo), "--c-tol", "3", "--strategy", "postselect",
                 "--repeats", "5", "--budget", "200"]) == 0
    assert len(builds) == 2  # the ancilla table and the post-selected data table


def test_postselect_compare_builds_each_blocks_weights_twice(tmp_path, monkeypatch):
    # once when the encoded instance sums its columns, once in the walk the exact
    # checks share; the sampler reads those sums and builds a_k^2/N, and no weights
    import postopt.encoding as encoding

    built = []
    weights = encoding.EncodedInstance.weights
    monkeypatch.setattr(encoding.EncodedInstance, "weights",
                        lambda self, block: built.append(block.start) or weights(self, block))
    path = tmp_path / "inst.txt"
    save_instance(generate("uniform_random", {"n_data": 17}, seed=5), path)
    assert main(["compare", str(path), "--c-tol", "0.3", "--strategy", "postselect",
                 "--repeats", "1", "--budget", "200"]) == 0
    starts = range(0, 1 << 17, BLOCK)
    assert len(starts) == 4 and sorted(built) == sorted([*starts, *starts])


def test_one_verify_record_holds_four_blocks_and_their_masks():
    # O(block) temporaries and no array of N entries: the walk holds one block's two
    # weight columns and two temporaries, as the row sums and conditionals are built
    # in place, and the block's `costs < c_tol` mask; a block's amplitudes and the
    # encoder's endpoint mask are gone before its weights are; the uniform state is one
    # ancilla row, so the bound does not grow with n_anc; the table spans several blocks
    inst = generate("uniform_random", {"n_data": 18}, seed=8)
    config = RunConfig(c_tol=0.3, encoder=AmplitudeEncoder.cosine_power(2),
                       junk=JunkPolicy.SPREAD, n_anc=3)
    uniform_superposition.cache_clear()  # so the traced call builds the uniform state too
    tracemalloc.start()
    try:
        assert check_configuration(inst, config, "k", {})["ok"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.size > 4 * BLOCK
    assert peak <= 4.5 * 8 * BLOCK


def test_a_postselect_compare_holds_one_n_array_beyond_the_table(monkeypatch):
    # the sampler's data CDF, built block by block in one array and normalized and
    # summed in place; the exact walk and the draws hold O(block) beside it
    import postopt.cli as cli

    inst = generate("uniform_random", {"n_data": 18}, seed=3)
    c_tol = float(np.quantile(inst.costs, 0.001))
    monkeypatch.setattr(cli, "load_instance", lambda path, cap: inst)  # the table, loaded untraced
    tracemalloc.start()
    try:
        assert main(["compare", "table.txt", "--c-tol", repr(c_tol), "--strategy",
                     "random,postselect", "--encoder", "cospow:8", "--repeats", "24"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * inst.size + 3 * 8 * BLOCK


@st.composite
def memo_configurations(draw):
    """Configurations A and B: B keeps or redraws each of A's encode key parts."""
    def instance():
        n_data = draw(st.integers(1, 8))
        kind = draw(st.sampled_from(["uniform_random", "hamming_structured"]))
        return generate(kind, {"n_data": n_data}, draw(st.integers(0, 2**16)))

    encoders = st.sampled_from(["identity", "oracle:0.5", "cospow:0.5", "cospow:2", "linear"])
    inst_a = instance()
    enc_a, junk_a, n_anc_a = draw(encoders), draw(st.sampled_from(list(JunkPolicy))), draw(
        st.integers(1, 3))
    inst_b = draw(st.sampled_from([
        lambda: inst_a,
        lambda: CostInstance(inst_a.n_data, inst_a.costs.copy()),  # equal costs, another object
        instance,
    ]))()
    enc_b = enc_a if draw(st.booleans()) else draw(encoders)
    junk_b = junk_a if draw(st.booleans()) else next(j for j in JunkPolicy if j != junk_a)
    n_anc_b = n_anc_a if draw(st.booleans()) else draw(st.integers(1, 3))

    def config(inst, spec, junk, n_anc):
        c_tol = float(np.quantile(inst.costs, draw(st.sampled_from([0.1, 0.5, 0.9]))))
        return RunConfig(c_tol=c_tol, encoder=AmplitudeEncoder.parse(spec), junk=junk, n_anc=n_anc)

    return ((inst_a, config(inst_a, enc_a, junk_a, n_anc_a)),
            (inst_b, config(inst_b, enc_b, junk_b, n_anc_b)))


@settings(max_examples=150, deadline=None, database=None)
@given(memo_configurations())
def test_memoized_records_equal_records_built_afresh(pair):
    import postopt.encoding as encoding

    a, b = pair
    for inst, config in (a, b, a):
        record = check_configuration(inst, config, "k", {})
        encoding._last_encoding = None
        assert record == check_configuration(inst, config, "k", {})


# ---------------------------------------------------------------------------
# compare

def test_compare_postselect_never_beats_random(tmp_path):
    demo = write_demo(tmp_path)
    report = tmp_path / "cmp.jsonl"
    code = main(["compare", str(demo), "--c-tol", "3", "--strategy",
                 "postselect,random", "--encoder", "cospow:8", "--seed", "11",
                 "--repeats", "64", "--budget", "5000", "-o", str(report)])
    assert code == 0
    _, records = read_records(report)
    by_name = {r["strategy"]: r for r in records}
    post, rand = by_name["postselect"], by_name["random"]
    assert post["p_joint_exact"] <= post["bound"] + 1e-9
    # crushing encoder: expected preparations per hit clearly exceeds N/M
    assert post["expected_preparations_per_hit"] > rand["n"] / rand["m"]
    # and the sampled runs agree within loose statistical tolerance
    assert post["mean_trials_to_hit"] > 0.8 * rand["mean_trials_to_hit"]


def test_compare_grover_auto(tmp_path):
    inst = generate("explicit", {"costs": hamming_distances(3, 0).astype(float)})
    path = tmp_path / "hw3.txt"
    save_instance(inst, path)
    report = tmp_path / "grover.jsonl"
    assert main(["compare", str(path), "--c-tol", "1", "--strategy", "grover:auto",
                 "-o", str(report)]) == 0
    _, records = read_records(report)
    rec = records[0]
    assert rec["iterations"] == 2
    assert rec["success_probability"] == pytest.approx(0.9453125, abs=1e-5)
    assert rec["closed_form"] == pytest.approx(rec["success_probability"], abs=1e-10)


def test_compare_grover_large_explicit_t(tmp_path):
    inst = generate("explicit", {"costs": hamming_distances(16, 0).astype(float)})
    path = tmp_path / "hw16.txt"
    save_instance(inst, path)
    report = tmp_path / "grover.jsonl"
    assert main(["compare", str(path), "--c-tol", "1", "--strategy", "grover:100000",
                 "-o", str(report)]) == 0
    _, records = read_records(report)
    rec = records[0]
    assert (rec["m"], rec["iterations"]) == (1, 100_000)
    assert abs(rec["success_probability"] - rec["closed_form"]) <= 1e-10


def test_compare_grover_closed_form_holds_at_large_t(tmp_path):
    # N = 1024, M = 1023: the double-precision sin^2 was 1.8e-10 off at t = 10^5
    inst = generate("explicit", {"costs": np.arange(1024.0)})
    path = tmp_path / "ramp10.txt"
    save_instance(inst, path)
    report = tmp_path / "grover.jsonl"
    assert main(["compare", str(path), "--c-tol", "1023", "--strategy", "grover:100000",
                 "-o", str(report)]) == 0
    rec = read_records(report)[1][0]
    assert (rec["m"], rec["iterations"]) == (1023, 100_000)
    assert abs(rec["success_probability"] - rec["closed_form"]) <= 1e-10


def test_compare_strategy_table_order(tmp_path):
    demo = write_demo(tmp_path)
    report = tmp_path / "order.jsonl"
    assert main(["compare", str(demo), "--c-tol", "3", "--strategy",
                 "hillclimb,random", "--repeats", "4", "--budget", "500",
                 "-o", str(report)]) == 0
    _, records = read_records(report)
    assert [r["strategy"] for r in records] == ["hillclimb", "random"]


def test_compare_records_reproducible(tmp_path):
    demo = write_demo(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["compare", str(demo), "--c-tol", "3", "--strategy", "random,postselect",
            "--seed", "21", "--repeats", "8", "--budget", "2000"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert records_without_timestamp(a) == records_without_timestamp(b)
    assert read_records(a)[1][1]["encoder"] == "cospow:1"  # the default postselect encoder


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--sweep", "40", "--n", "8", "--seed", "3"],
     "be42e73046cf182ae7f33aef2980ee4d7ba1cc99417eece93e52860ce032a823"),
    (["compare", "{inst}", "--c-tol", "0.05", "--strategy", "random,hillclimb,grover:auto,postselect",
      "--encoder", "cospow:2", "--junk", "spread", "--n-anc", "2", "--seed", "7", "--repeats", "4",
      "--budget", "500"],
     "b8223ecf43c8e7298623b2659b73e76c91743809b8908f486ebc6d1f943ae5b6"),
], ids=["verify_sweep", "compare"])
def test_report_records_are_pinned_to_the_bit(tmp_path, argv, digest):
    # every value of every record, and its JSON form: the digest of the report after its
    # meta record, whose timestamp changes
    inst = tmp_path / "inst.txt"
    save_instance(generate("uniform_random", {"n_data": 8}, seed=2), inst)
    report = tmp_path / "report.jsonl"
    assert main([arg.format(inst=inst) for arg in argv] + ["-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes().partition(b"\n")[2]).hexdigest() == digest


# ---------------------------------------------------------------------------
# the report file: opened before any work, streamed, and in place only once whole

@pytest.mark.parametrize("argv, work", [
    (["verify", "--sweep", "40", "--n", "6"], ("check_configuration",)),
    (["compare", "{demo}", "--c-tol", "3", "--strategy", "random,hillclimb"],
     ("random_search", "hill_climb")),
    (["generate", "--kind", "hamming_structured", "--n", "20"], ("generate",)),
], ids=["verify", "compare", "generate"])
def test_a_report_into_a_missing_directory_exits_2_before_any_work(argv, work, tmp_path,
                                                                    monkeypatch, capsys):
    # the error names the path given, not the new file `replacing` makes beside it
    import postopt.cli as cli

    calls = dict.fromkeys(work, 0)
    for name in work:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    demo = write_demo(tmp_path)
    report = tmp_path / "missing" / "report.jsonl"
    capsys.readouterr()
    assert main([arg.format(demo=demo) for arg in argv] + ["-o", str(report)]) == 2
    assert calls == dict.fromkeys(work, 0)
    err = capsys.readouterr().err
    assert str(report) in err and ".postopt-" not in err, err


class FullDisk:
    """A report file whose third write raises, as a full disk would."""

    def __init__(self, file):
        self.file, self.writes = file, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.file.write(data)


@pytest.mark.parametrize("argv", [
    ["verify", "--sweep", "5", "--n", "3"],
    ["compare", "{demo}", "--c-tol", "3", "--strategy", "random,hillclimb", "--repeats", "2"],
], ids=["verify", "compare"])
def test_a_report_write_that_fails_partway_leaves_the_old_report(argv, tmp_path, monkeypatch):
    import postopt.cli as cli

    @contextlib.contextmanager
    def full_disk(path):
        with costfn.replacing(path) as out:
            yield FullDisk(out)

    monkeypatch.setattr(cli, "replacing", full_disk)
    demo = write_demo(tmp_path)
    report = tmp_path / "report.jsonl"
    report.write_bytes(b"the last run's report\n")
    assert main([arg.format(demo=demo) for arg in argv] + ["-o", str(report)]) == 2
    assert report.read_bytes() == b"the last run's report\n"
    assert list(tmp_path.glob(".postopt-*.tmp")) == []


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "uniform_random", "--n", "6", "--seed", "2"],
    ["verify", "{demo}", "--c-tol", "3"],
], ids=["generate", "verify"])
def test_a_fifo_out_is_written_in_place(argv, tmp_path, monkeypatch):
    # a target that is no regular file is written in place, never replaced; a FIFO
    # under tmp_path, not /dev/null, so that a broken branch replaces nothing else
    import postopt.cli as cli

    class Frozen(datetime):  # one timestamp, so the two reports match byte for byte
        @classmethod
        def now(cls, tz=None):
            return datetime(2020, 1, 1, tzinfo=tz)

    monkeypatch.setattr(cli, "datetime", Frozen)
    argv = [arg.format(demo=write_demo(tmp_path)) for arg in argv]
    regular, fifo = tmp_path / "regular.txt", tmp_path / "fifo.txt"
    assert main([*argv, "-o", str(regular)]) == 0
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main([*argv, "-o", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert read == [regular.read_bytes()]
    assert list(tmp_path.glob(".postopt-*.tmp")) == []


def test_a_report_adds_no_copy_of_the_sweep(tmp_path):
    # a report joined into one string before it is written holds every record twice
    report = ["-o", str(tmp_path / "report.jsonl")]
    assert main(["verify", "--sweep", "50", "--n", "1", *report]) == 0  # lazy imports and caches
    peaks = []
    for out in ([], report):
        tracemalloc.start()
        try:
            assert main(["verify", "--sweep", "2000", "--n", "1", "--seed", "1", *out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


def test_compare_usage_errors(tmp_path):
    demo = write_demo(tmp_path)
    assert main(["compare", str(demo), "--c-tol", "3", "--strategy", ","]) == 2
    assert main(["compare", str(demo), "--c-tol", "3", "--strategy", "teleport"]) == 2
    assert main(["compare", str(demo), "--c-tol", "0.1", "--strategy", "random"]) == 2
    assert main(["compare", str(demo), "--strategy", "random"]) == 2  # missing --c-tol
    assert main(["compare", str(demo), "--c-tol", "3", "--strategy", "random",
                 "--repeats", "0"]) == 2


def test_an_old_json_instance_exits_2(tmp_path):
    # JSON is not an instance form; a file in it, well formed or not, fails the text header
    path = tmp_path / "old.json"
    for text in ('{"costs": [0.5, 0.25, 1.0, 2.0], "n_data": 2, "provenance": {}}\n',
                 '{"n_data": 2}', '{not json'):
        path.write_text(text)
        assert main(["verify", str(path), "--c-tol", "1"]) == 2
        assert main(["compare", str(path), "--c-tol", "1", "--strategy", "random"]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


MALFORMED_ARGV = {
    "encoder_not_a_number": ["verify", "{demo}", "--c-tol", "3", "--encoder", "cospow:abc"],
    "encoder_nan_exponent": ["verify", "{demo}", "--c-tol", "3", "--encoder", "cospow:nan"],
    "encoder_inf_exponent": ["verify", "{demo}", "--c-tol", "3", "--encoder", "cospow:inf"],
    "encoder_nan_threshold": ["verify", "{demo}", "--c-tol", "3", "--encoder", "oracle:nan"],
    "grover_not_a_number": ["compare", "{demo}", "--c-tol", "3", "--strategy", "grover:x"],
    "grover_not_a_number_after_hillclimb": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                            "hillclimb,grover:x"],
    "grover_over_cap": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                        f"grover:{GROVER_T_MAX + 1}"],
    "grover_past_int_digit_limit": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                    "grover:" + "9" * 5000],
    "compare_n_anc_zero_without_postselect": ["compare", "{demo}", "--c-tol", "3",
                                              "--strategy", "random", "--n-anc", "0"],
    "verify_nan_c_tol": ["verify", "{demo}", "--c-tol", "nan"],
    "compare_inf_c_tol": ["compare", "{demo}", "--c-tol", "inf", "--strategy", "random"],
    "sweep_n_zero": ["verify", "--sweep", "2", "--n", "0"],
    "sweep_n_over_cap": ["verify", "--sweep", "2", "--n", str(TABLE_N_MAX + 1)],
    # the report is opened before any draw, check or search
    "sweep_out_in_missing_directory": ["verify", "--sweep", "2", "-o", "{missing}"],
    "verify_out_in_missing_directory": ["verify", "{demo}", "--c-tol", "3", "-o", "{missing}"],
    "compare_out_in_missing_directory": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                         "random,hillclimb,grover,postselect", "-o", "{missing}"],
    # each record, about 1.5 KiB whatever --n, is held until the report; 10^8 of them
    # used to start drawing
    "sweep_over_cap": ["verify", "--sweep", str(10**8), "--n", "1"],
    "sweep_one_over_cap": ["verify", "--sweep", str(SWEEP_MAX + 1), "--n", "1"],
    # jsonl is the only report form, so a --format flag must fail, never be ignored
    "verify_format_removed": ["verify", "--sweep", "2", "--format", "csv"],
    # 2**n_data as a huge integer; a file in the old JSON form fails the text header
    "text_n_data_oversized": ["verify", "{huge_text}", "--c-tol", "0.3"],
    "json_n_data_oversized": ["verify", "{huge_json}", "--c-tol", "0.3"],
    # a byte that is not UTF-8 used to escape as a UnicodeDecodeError traceback, exit 1
    "text_not_utf8": ["verify", "{nonutf8_text}", "--c-tol", "0.3"],
    "generate_over_cap": ["generate", "--kind", "uniform_random", "--n", str(TABLE_N_MAX + 1),
                          "-o", "{out}"],
    # rng.uniform raised OverflowError on these, a traceback with exit 1; a NaN passed `<= 0`
    "generate_low_infinite": ["generate", "--kind", "uniform_random", "--n", "4", "--low=-inf",
                              "-o", "{out}"],
    "generate_range_overflows": ["generate", "--kind", "uniform_random", "--n", "4",
                                 "--low=-1e308", "--high=1e308", "-o", "{out}"],
    "generate_lipschitz_nan": ["generate", "--kind", "hamming_structured", "--n", "4",
                               "--lipschitz", "nan", "-o", "{out}"],
    "generate_lipschitz_overflows": ["generate", "--kind", "hamming_structured", "--n", "4",
                                     "--lipschitz", "1e308", "-o", "{out}"],
    "generate_lipschitz_cone_overflows": ["generate", "--kind", "hamming_structured", "--n",
                                          "20", "--lipschitz", "8e306", "-o", "{out}"],
    # these built the table, with an overflow warning for the first, before refusing it
    "generate_weights_sum_overflows": ["generate", "--kind", "number_partition", "--weights",
                                       "1e308,1e308", "-o", "{out}"],
    "generate_weights_nan": ["generate", "--kind", "number_partition", "--weights", "nan,1",
                             "-o", "{out}"],
    "generate_explicit_not_a_power_of_two": ["generate", "--kind", "explicit", "--costs",
                                             "1,2,3", "-o", "{out}"],
    # one N-sized cone per center used to be built before any check
    "generate_centers_over_cap": ["generate", "--kind", "hamming_structured", "--n", "4",
                                  "--centers", str(CENTERS_MAX + 1), "-o", "{out}"],
    # a sweep draws its own encoder, c_tol, junk policy and n_anc; a file has no --n to cap
    "sweep_with_encoder": ["verify", "--sweep", "2", "--encoder", "cospow:2"],
    "sweep_with_c_tol": ["verify", "--sweep", "2", "--c-tol", "0.5"],
    "sweep_with_junk": ["verify", "--sweep", "2", "--junk", "spread"],
    "sweep_with_n_anc": ["verify", "--sweep", "2", "--n-anc", "2"],
    "file_with_n": ["verify", "{demo}", "--c-tol", "3", "--n", "4"],
    "file_with_seed": ["verify", "{demo}", "--c-tol", "3", "--seed", "99"],
    # the encoder, junk policy and n_anc act only on the postselect strategy
    "compare_encoder_without_postselect": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                           "random", "--encoder", "cospow:3"],
    "compare_junk_without_postselect": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                        "random", "--junk", "spread"],
    "compare_n_anc_without_postselect": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                         "random,grover:auto", "--n-anc", "2"],
    "compare_qubits_over_cap_before_hillclimb": ["compare", "{demo}", "--c-tol", "3", "--strategy",
                                                 "hillclimb,postselect", "--n-anc", "30"],
    "verify_qubits_over_cap": ["verify", "{demo}", "--c-tol", "3", "--n-anc", "30"],
    # oversized requests: postselect allocates --budget draws, compare --repeats seeds
    "compare_budget_over_cap": ["compare", "{demo}", "--c-tol", "3", "--strategy", "postselect",
                                "--repeats", "1", "--budget", str(BUDGET_MAX + 1)],
    "compare_repeats_over_cap": ["compare", "{demo}", "--c-tol", "3", "--strategy", "random",
                                 "--budget", "1", "--repeats", str(REPEATS_MAX + 1)],
    # run with TABLE_N_MAX patched to 2, below the n=3 demo file
    "loaded_file_over_cap_verify": ["verify", "{demo}", "--c-tol", "3"],
    "loaded_file_over_cap_compare": ["compare", "{demo}", "--c-tol", "3", "--strategy", "random"],
    "loaded_file_over_cap_npz_verify": ["verify", "{demo_npz}", "--c-tol", "3"],
    "loaded_file_over_cap_npz_compare": ["compare", "{demo_npz}", "--c-tol", "3", "--strategy",
                                         "random"],
    # numpy's generators raised ValueError on a negative seed, a traceback with exit 1
    "generate_seed_negative": ["generate", "--kind", "uniform_random", "--n", "3", "--seed", "-1",
                               "-o", "{out}"],
    "sweep_seed_negative": ["verify", "--sweep", "3", "--seed", "-1"],
    "compare_seed_negative": ["compare", "{demo}", "--c-tol", "3", "--strategy", "random",
                              "--seed", "-1"],
    # an empty list shifted by -1 in the power-of-two check, a ValueError with exit 1
    "generate_explicit_empty": ["generate", "--kind", "explicit", "--costs", ",", "-o", "{out}"],
    # a token float() refuses is named with its flag
    "generate_explicit_not_a_number": ["generate", "--kind", "explicit", "--costs", "1,x",
                                       "-o", "{out}"],
    "generate_weights_not_a_number": ["generate", "--kind", "number_partition", "--weights",
                                      "2,y", "-o", "{out}"],
    # costs -1e308 and 1e308: shifting them overflowed, and the Born weights summed to nan
    "verify_linear_span_overflows": ["verify", "{wide_text}", "--encoder", "linear",
                                     "--c-tol", "0"],
    "verify_cospow_span_overflows": ["verify", "{wide_text}", "--encoder", "cospow:2",
                                     "--c-tol", "0"],
    "compare_postselect_span_overflows": ["compare", "{wide_text}", "--c-tol", "0", "--strategy",
                                          "random,postselect", "--encoder", "linear"],
}


@pytest.mark.parametrize("argv", [
    ["verify", "--encoder", "identity", "--c-tol", "0"],
    ["verify", "--encoder", "oracle:0", "--c-tol", "0"],
    ["compare", "--c-tol", "0", "--strategy", "random,hillclimb,grover"],
])
def test_a_span_past_the_float_range_runs_where_nothing_scales_it(argv, tmp_path):
    wide = tmp_path / "wide.txt"
    wide.write_text("n_data=1\n-1e308 1e308\n")
    assert main([argv[0], str(wide), *argv[1:]]) == 0


@pytest.mark.parametrize("count, n_max", [(1000, 12), (300, 14), (255, TABLE_N_MAX),
                                          (SWEEP_MAX, TABLE_N_MAX)])
def test_sweep_cap_admits_the_benchmark_sizes(count, n_max, monkeypatch):
    import postopt.cli as cli

    drawn = []
    monkeypatch.setattr(cli, "sweep_configurations", lambda *args: drawn.append(args) or [])
    assert main(["verify", "--sweep", str(count), "--n", str(n_max)]) == 0
    assert drawn == [(count, 0, n_max)]


@pytest.mark.parametrize("case", sorted(MALFORMED_ARGV))
def test_malformed_values_are_usage_errors(case, tmp_path, monkeypatch):
    # bad or oversized requests must be refused before any table, sweep, search or analysis
    import postopt.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the arguments were validated")

    for name in ("generate", "sweep_configurations", "random_search", "hill_climb",
                 "grover_simulate", "exact_analysis", "run_repeat_until_success"):
        monkeypatch.setattr(cli, name, forbidden)
    if case.startswith("loaded_file_over_cap"):
        monkeypatch.setattr(cli, "TABLE_N_MAX", 2)
    headers = {"huge_text": b"n_data=20000\n0.5 0.25\n",
               "huge_json": b'{"n_data": 1000000000, "costs": [0.5, 0.25]}',
               "nonutf8_text": b"n_data=1\n0.5 \xff\xfe\n",
               "wide_text": b"n_data=1\n-1e308 1e308\n"}
    paths = {"demo": write_demo(tmp_path), "out": tmp_path / "out.txt",
             "demo_npz": tmp_path / "demo.npz", "missing": tmp_path / "missing" / "report.jsonl"}
    save_instance(load_instance(paths["demo"]), paths["demo_npz"])
    for name, text in headers.items():
        paths[name] = tmp_path / f"{name}.{name.split('_')[1]}"
        paths[name].write_bytes(text)
    argv = [arg.format(**paths) for arg in MALFORMED_ARGV[case]]
    assert main(argv) == 2


# ---------------------------------------------------------------------------
# the exit-code contract, over argv built from the parser's own actions

SUBCOMMANDS = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices
BAD_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "9" * 5000, "", "x"]
INT_MAX = {"n": 4, "sweep": 3, "repeats": 4, "budget": 200, "n_anc": 3, "centers": 4, "seed": 9}
TEXT_VALUES = {
    "encoder": ["identity", "oracle:3", "cospow:0.5", "cospow:2", "linear", "oracle", "cospow:-2"],
    "strategy": ["random", "hillclimb", "grover", "grover:auto", "grover:2", "postselect",
                 "random,hillclimb,grover:auto,postselect", "postselect,grover:0"],
    "costs": ["3,1,4,1", "-1.5,2", "1,2,3", "0.5"],
    "weights": ["1,2,3", "0.5,4", "2"],
}
PATHS = {"out": ["{tmp}/report.txt", "{tmp}/out.npz", "{tmp}", "{tmp}/missing/out.txt"],
         "instance": ["{inst}"] * 6 + ["{tmp}/missing.txt", "{tmp}"]}


def action_values(action):
    """Small valid values for one parser action."""
    if action.dest in PATHS:
        return st.sampled_from(PATHS[action.dest])
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(1, INT_MAX[action.dest]).map(str)
    if action.type is float:
        return st.floats(-2.0, 10.0).map(repr)
    return st.sampled_from(TEXT_VALUES[action.dest])


@st.composite
def cli_argv(draw):
    """argv for one subcommand: each action set or left out, options as --flag=value.

    Each argv draws how many of its optional actions it sets and whether some
    values are malformed, so that clean runs and usage errors both come often.
    """
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    parser = SUBCOMMANDS[command]
    set_share, bad_share = draw(st.sampled_from([0, 2, 5, 9])), draw(st.sampled_from([0, 0, 2]))
    required = {action for action in parser._actions
                if action.required or not action.option_strings}
    unset = set()  # one action of each exclusive group, or now and then any of them
    for group in parser._mutually_exclusive_groups:
        chosen = draw(st.sampled_from(group._group_actions))
        unset.update(action for action in group._group_actions if action is not chosen)
        if group.required:
            required = (required - unset) | {chosen}
    argv, positionals = [command], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action in unset and draw(st.integers(0, 9)):
            continue
        if draw(st.integers(0, 19)) >= (19 if action in required else 2 * set_share):
            continue
        if draw(st.integers(0, 9)) >= bad_share:
            value = draw(action_values(action))
        else:  # a malformed path stays under tmp too, so no report lands in the working directory
            value = ("{tmp}/" if action.dest in PATHS else "") + draw(st.sampled_from(BAD_VALUES))
        if action.option_strings:
            argv.append(f"{action.option_strings[-1]}={value}")
        else:
            positionals.append(value)
    return argv + positionals


# how an instance file is damaged: kept, one byte flipped, cut short or grown
FILE_DAMAGE = st.tuples(st.sampled_from([".txt", ".npz"]),
                        st.sampled_from(["keep", "keep", "keep", "flip", "cut", "grow"]),
                        st.integers(0, 1 << 16), st.integers(1, 255),
                        st.binary(min_size=1, max_size=64))


@settings(max_examples=300, deadline=None, database=None)
@given(cli_argv(), FILE_DAMAGE)
def test_every_argv_exits_0_or_2(tmp_path_factory, argv, damage):
    # the claim holds for every valid input, so 1 never answers a valid or a bad one
    tmp = tmp_path_factory.mktemp("argv")
    suffix, how, at, flip, tail = damage
    inst = tmp / f"inst{suffix}"
    save_instance(generate("explicit", {"costs": [3, 1, 4, 1, 5, 9, 2, 6]}), inst)
    data = inst.read_bytes()
    at %= len(data)
    if how == "flip":
        data = data[:at] + bytes([data[at] ^ flip]) + data[at + 1:]
    elif how == "cut":
        data = data[:at]
    elif how == "grow":
        data += tail
    inst.write_bytes(data)
    tracemalloc.start()
    try:
        code = main([arg.format(tmp=tmp, inst=inst) for arg in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 2)
    if code == 2:  # a refused request allocates no more than one parse chunk
        assert peak < costfn._PARSE_BLOCK_BYTES + (1 << 20), peak
