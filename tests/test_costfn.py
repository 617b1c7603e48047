import errno
import hashlib
import io
import json
import math
import os
import signal
import stat
import subprocess
import threading
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postopt import costfn
from postopt.cli import main
from postopt.costfn import (
    CostInstance,
    check_params,
    count_below,
    generate,
    hamming_distances,
    load_instance,
    min_cost,
    save_instance,
)
from postopt.errors import ConfigurationError, DomainError

DEMO = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


def demo_instance() -> CostInstance:
    return generate("explicit", {"costs": DEMO})


def hamming_weight_instance(n: int) -> CostInstance:
    return generate("explicit", {"costs": hamming_distances(n, 0).astype(float)})


def test_cost_of_lookup():
    inst = demo_instance()
    assert inst.costs[5] == 9.0


def test_cost_of_generated_finite():
    inst = generate("uniform_random", {"n_data": 6}, seed=3)
    assert all(np.isfinite(inst.costs[k]) for k in range(inst.size))


def test_count_below_examples():
    inst = demo_instance()
    assert count_below(inst, 3.0) == 3  # {1, 1, 2}, strict inequality
    assert count_below(inst, 1.0) == 0  # c_tol at the minimum: still strict
    assert count_below(inst, 9.5) == 8


def test_count_below_matches_enumeration():
    inst = generate("uniform_random", {"n_data": 8}, seed=11)
    for c_tol in np.quantile(inst.costs, [0.0, 0.1, 0.5, 0.9, 1.0]):
        assert count_below(inst, c_tol) == sum(1 for c in inst.costs if c < c_tol)


def test_count_below_monotone():
    inst = generate("uniform_random", {"n_data": 7}, seed=5)
    thresholds = np.linspace(inst.costs.min() - 0.1, inst.c_max + 0.1, 25)
    counts = [count_below(inst, t) for t in thresholds]
    assert counts == sorted(counts)


def test_min_cost_tie_break():
    assert min_cost(demo_instance()) == (1, 1.0)  # indices 1 and 3 tie; report 1
    const = generate("explicit", {"costs": [2.5] * 8})
    assert min_cost(const) == (0, 2.5)
    assert min_cost(hamming_weight_instance(5)) == (0, 0.0)


def test_min_cost_consistent_with_count_below():
    rng = np.random.default_rng(42)
    for _ in range(20):
        inst = generate("uniform_random", {"n_data": int(rng.integers(2, 9))},
                        seed=int(rng.integers(2**31)))
        c_tol = float(rng.uniform(-0.5, 1.5))
        assert (min_cost(inst)[1] < c_tol) == (count_below(inst, c_tol) >= 1)


# ---------------------------------------------------------------------------
# generators

def test_number_partition_sign_pattern():
    inst = generate("number_partition", {"weights": [4, 5, 6, 7, 8]})
    # bits 2 and 3 set: minus on weights 6 and 7 -> |4+5-6-7+8| = 4
    assert inst.costs[0b01100] == 4.0
    assert inst.costs[0] == 30.0  # all plus


def test_hamming_structured_lipschitz_brute_force():
    lipschitz = 1.5
    inst = generate("hamming_structured",
                    {"n_data": 8, "lipschitz": lipschitz, "n_centers": 3}, seed=9)
    for k in range(inst.size):
        for j in range(inst.n_data):
            assert abs(inst.costs[k] - inst.costs[k ^ (1 << j)]) <= lipschitz + 1e-12


def test_generators_reproducible():
    for kind, params in [
        ("uniform_random", {"n_data": 6}),
        ("number_partition", {"weights": [1.5, 2.5, 3.5, 4.5]}),
        ("hamming_structured", {"n_data": 6, "lipschitz": 1.0, "n_centers": 2}),
    ]:
        a = generate(kind, params, seed=77)
        b = generate(kind, params, seed=77)
        assert np.array_equal(a.costs, b.costs)
        assert a.provenance == b.provenance


def test_generator_bad_params():
    with pytest.raises(ConfigurationError):
        generate("uniform_random", {"n_data": 0})
    with pytest.raises(ConfigurationError):
        generate("number_partition", {"weights": [1.0, -2.0]})
    with pytest.raises(ConfigurationError):
        generate("hamming_structured", {"n_data": 4, "lipschitz": -1.0})
    with pytest.raises(ConfigurationError):
        generate("explicit", {"costs": [1.0, 2.0, 3.0]})  # not a power of two
    with pytest.raises(ConfigurationError):
        generate("no_such_kind", {})


@pytest.mark.parametrize("kind, params", [
    # rng.uniform used to raise OverflowError on an infinite range
    ("uniform_random", {"n_data": 4, "low": -np.inf}),
    ("uniform_random", {"n_data": 4, "high": np.inf}),
    ("uniform_random", {"n_data": 4, "low": -1e308, "high": 1e308}),
    ("uniform_random", {"n_data": 4, "low": np.nan}),
    ("hamming_structured", {"n_data": 4, "lipschitz": np.nan}),
    ("hamming_structured", {"n_data": 4, "lipschitz": np.inf}),
    ("hamming_structured", {"n_data": 4, "lipschitz": 1e308}),
    ("hamming_structured", {"n_data": 4, "n_centers": 0}),
    ("hamming_structured", {"n_data": 4, "n_centers": costfn.CENTERS_MAX + 1}),
    # the offsets fit, but the largest cone value L*n/2 + L*n does not
    ("hamming_structured", {"n_data": 20, "lipschitz": 8e306}),
    # the table was built, overflowing for the first, before these were refused
    ("number_partition", {"weights": [1e308, 1e308]}),
    ("number_partition", {"weights": [np.nan, 1.0]}),
    ("number_partition", {"weights": [np.inf, 1.0]}),
    ("number_partition", {"weights": [1.0, 0.0]}),
    ("explicit", {"costs": [1.0, 2.0, 3.0]}),
    # an empty list used to shift by -1, a ValueError
    ("explicit", {"costs": []}),
])
def test_generator_refuses_overflowing_or_oversized_params(kind, params):
    with pytest.raises(ConfigurationError):
        check_params(kind, params)
    with pytest.raises(ConfigurationError):
        generate(kind, params)


@pytest.mark.parametrize("n_data", [1, 2, 12])
def test_every_swept_center_count_is_valid(n_data):
    # the default 3 and the sweep's 1..3 hold at every n, even with more centers than states
    for n_centers in (1, 2, 3, None, costfn.CENTERS_MAX):
        params = {"n_data": n_data} if n_centers is None else {"n_data": n_data,
                                                                "n_centers": n_centers}
        inst = generate("hamming_structured", params, seed=n_data)
        assert inst.costs.min() == 0.0


# ---------------------------------------------------------------------------
# the O(N) generators against the loops they replaced

def _hamming_distances_reference(n_data, center):
    idx = np.arange(1 << n_data, dtype=np.int64) ^ center
    dist = np.zeros(1 << n_data, dtype=np.int64)
    for j in range(n_data):
        dist += (idx >> j) & 1
    return dist


def _number_partition_reference(weights):
    weights = np.asarray(weights, dtype=float)
    idx = np.arange(1 << weights.size, dtype=np.int64)
    signed = np.zeros(1 << weights.size)
    for i, w in enumerate(weights):
        signs = 1.0 - 2.0 * ((idx >> i) & 1)  # bit set -> minus
        signed += signs * w
    return np.abs(signed)


def _hamming_structured_reference(n_data, lipschitz, n_centers, seed):
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 1 << n_data, size=n_centers)
    offsets = np.sort(rng.uniform(0.0, lipschitz * n_data / 2.0, size=n_centers))
    offsets[0] = 0.0
    cones = [off + lipschitz * _hamming_distances_reference(n_data, int(c))
             for c, off in zip(centers, offsets)]
    return np.minimum.reduce(cones)


def _save_text_reference(instance, path):
    with open(path, "w") as out:
        out.write(f"n_data={instance.n_data}\n")
        costs = instance.costs.tolist()
        out.writelines(" ".join(map(repr, costs[i:i + 8])) + "\n"
                       for i in range(0, len(costs), 8))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_hamming_distances_match_the_bit_loop(n_center):
    n_data, center = n_center
    dist = hamming_distances(n_data, center)
    assert dist.dtype == np.uint8
    assert np.array_equal(dist, _hamming_distances_reference(n_data, center))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=14))
@example([0.1, 0.2, 0.3, 0.1 + 0.2])  # sums that round differently in another order
@example([1.0, 1e16, 1.0, 1e-16, 3.0])
def test_number_partition_matches_the_bit_loop(weights):
    costs = generate("number_partition", {"weights": weights}).costs
    assert costs.tobytes() == _number_partition_reference(weights).tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 14), st.floats(1e-3, 1e3), st.integers(1, 5), st.integers(0, 2**32))
def test_hamming_structured_matches_the_list_of_cones(n_data, lipschitz, n_centers, seed):
    params = {"n_data": n_data, "lipschitz": lipschitz, "n_centers": n_centers}
    costs = generate("hamming_structured", params, seed=seed).costs
    reference = _hamming_structured_reference(n_data, lipschitz, n_centers, seed)
    assert costs.tobytes() == reference.tobytes()


@pytest.mark.parametrize("kind, params, tables", [
    ("uniform_random", {"n_data": 16}, 1.5),  # the table, not the table and a copy
    ("number_partition", {"weights": [float(w) for w in range(1, 17)]}, 1.5),
    ("hamming_structured", {"n_data": 16, "n_centers": 3}, 2.5),  # the table and one cone
    ("explicit", {"costs": [float(c) for c in range(1 << 16)]}, 1.5),  # one copy of the list
])
def test_generate_hands_its_table_over_without_a_copy(kind, params, tables):
    tracemalloc.start()
    try:
        inst = generate(kind, params, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.size == 1 << 16
    assert peak < tables * 8 * (1 << 16)


def test_instance_validation():
    with pytest.raises(DomainError):
        CostInstance(2, np.array([1.0, 2.0, np.inf, 0.0]))
    with pytest.raises(DomainError):
        CostInstance(3, np.array([1.0, 2.0]))


def test_instance_leaves_the_callers_array_as_it_was():
    c = np.array([1.0, 2.0])
    inst = CostInstance(1, c)
    assert c.flags.writeable
    c[0] = 5.0  # the caller may still write to its array, and the instance does not change
    assert np.array_equal(inst.costs, [1.0, 2.0])
    with pytest.raises(ValueError):
        inst.costs[0] = 5.0


def test_oversized_n_data_is_refused_without_building_two_to_the_n():
    # 1 << 10**9 alone is a 125 MB integer; the shape check must not form it
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"2\*\*1000000000 costs"):
            CostInstance(10**9, [0.5, 0.25])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# file round-trips

@pytest.mark.parametrize("suffix", [".txt", ".npz"])
def test_round_trip_bit_exact(tmp_path, suffix):
    # awkward floats: repr-based serialization must reproduce them exactly
    costs = [0.1 + 0.2, 1 / 3, -7.25e-17, 9.0, 1e300, -2.5, np.pi, 4.0]
    inst = generate("explicit", {"costs": costs})
    path = tmp_path / f"inst{suffix}"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded.n_data == inst.n_data
    assert np.array_equal(loaded.costs, inst.costs)


def test_text_load_ignores_line_endings_and_trailing_blank_lines(tmp_path):
    costs = [0.1 + 0.2, 1 / 3, -7.25e-17, 9.0, 1e300, -2.5, np.pi, 4.0]
    inst = generate("explicit", {"costs": costs})
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    text = path.read_text()
    crlf = text.replace("\n", "\r\n")
    for variant in (crlf, text + "\n\n  \n", crlf + "\r\n\r\n", "\n \t\n  " + text,
                    text.replace("\n", "\r")):
        path.write_bytes(variant.encode())
        loaded = load_instance(path)
        assert loaded.n_data == inst.n_data
        assert np.array_equal(loaded.costs, inst.costs)


def test_npz_preserves_provenance(tmp_path):
    inst = generate("uniform_random", {"n_data": 4}, seed=13)
    save_instance(inst, tmp_path / "inst.npz")
    assert load_instance(tmp_path / "inst.npz").provenance == inst.provenance


def test_text_format_shape(tmp_path):
    inst = demo_instance()
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n_data=3"
    assert len(" ".join(lines[1:]).split()) == 8


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("this is not an instance\n1 2 3\n")
    with pytest.raises(ConfigurationError):
        load_instance(path)


@pytest.mark.parametrize("name", ["inst.json", "inst"])
def test_any_suffix_but_npz_writes_and_reads_the_text_form(tmp_path, name):
    inst = demo_instance()
    save_instance(inst, tmp_path / "inst.txt")
    save_instance(inst, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (tmp_path / "inst.txt").read_bytes()
    assert np.array_equal(load_instance(tmp_path / name).costs, inst.costs)


def test_the_suffix_not_the_content_picks_the_form(tmp_path):
    inst = demo_instance()
    save_instance(inst, tmp_path / "inst.npz")
    with pytest.raises(ConfigurationError, match="n_data=<int>"):
        load_instance((tmp_path / "inst.npz").rename(tmp_path / "npz.txt"))
    save_instance(inst, tmp_path / "inst.txt")
    with pytest.raises(ConfigurationError, match="malformed instance .npz"):
        load_instance((tmp_path / "inst.txt").rename(tmp_path / "text.npz"))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1 << n, max_size=1 << n)))
@example([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@example([2.2250738585072009e-308, -4.9e-324, 0.1, -0.0])
def test_every_form_round_trips_bit_exactly(tmp_path_factory, costs):
    inst = CostInstance(len(costs).bit_length() - 1, np.array(costs))
    directory = tmp_path_factory.mktemp("round_trip")
    for suffix in (".txt", ".npz"):
        path = directory / f"inst{suffix}"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.n_data == inst.n_data
        assert np.array_equal(loaded.costs.view(np.int64), inst.costs.view(np.int64))


# ---------------------------------------------------------------------------
# the block writers

def _random_costs(n_data, seed):
    rng = np.random.default_rng(seed)
    costs = rng.standard_normal(1 << n_data) * 10.0 ** rng.integers(-300, 300, size=1 << n_data)
    costs[rng.integers(0, 1 << n_data, size=3)] = [-0.0, 5e-324, 1.7976931348623157e308]
    return costs


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 14), st.integers(0, 2**32))
@example(13, 0)  # exactly one block of costfn.BLOCK costs
def test_text_writer_matches_the_line_writer(tmp_path_factory, n_data, seed):
    inst = CostInstance(n_data, _random_costs(n_data, seed))
    directory = tmp_path_factory.mktemp("text_writer")
    save_instance(inst, directory / "inst.txt")
    _save_text_reference(inst, directory / "reference.txt")
    assert (directory / "inst.txt").read_bytes() == (directory / "reference.txt").read_bytes()


def test_a_json_provenance_that_does_not_serialize_writes_no_file(tmp_path):
    inst = CostInstance(1, np.array([0.5, 0.25]), {"params": np.arange(2)})
    with pytest.raises(TypeError):  # json.dumps runs before np.savez opens the file
        save_instance(inst, tmp_path / "inst.npz")
    assert not (tmp_path / "inst.npz").exists()


# ---------------------------------------------------------------------------
# the text writer's parts, its forked children and the replaced file

# sha256 of the text that save_instance wrote for `_pinned_instance` before the
# writer was split into parts; the sizes fall on both sides of costfn._PART_MIN
PINNED_TEXT = {
    ("uniform_random", 1): "24ee9461af33d460c15070a6db16b8603f442076c00fdaad8b54ba5b8942541c",
    ("uniform_random", 2): "fe0acf68bdd9b8e8105b57e5420286e7c5cea6c9530c15035571a7f06c1a2ebe",
    ("uniform_random", 3): "c9f0aab1b515c466c869223b918c5f685bbadc3051dc74c46b225fa3c6a0471a",
    ("uniform_random", 16): "16c346c649db03246a6484745ee2f985da91a5d4bd5e9b19724356cfcc588cfd",
    ("uniform_random", 17): "bba3ebc74499648a27eecb5638ed5edf0d2ddd93c8b1ef147c19443b129cac41",
    ("uniform_random", 18): "4d37b7a6424a4a62e81bf32a1c3404a2b5e4e874712929dc67f2c0b5539e5d96",
    ("hamming_structured", 1): "4281c1713c8da45838430491b1c7ad894148e2698ba1981a61caf0387cadae67",
    ("hamming_structured", 2): "71dd4a285659a05255d56561c48a0d036cfc42fbb1c4c18e42b2e70e16fa97d2",
    ("hamming_structured", 3): "593a578a15294b7e3ed9635e2edd5613e7191c5402a502655b20a3d951b6bafb",
    ("hamming_structured", 16): "ee0186fbe722f025a87abf9ca82f7276be7358d9d457a0e94ef307be2d64014f",
    ("hamming_structured", 17): "cb83cb0c6bf1e477ecbc9a4986040ba5a5f5170ede5f6f66373b480b832e3547",
    ("hamming_structured", 18): "c363ad5416687e9a93ec5d5afd87a1c511d4840048598e93588eb92a99796338",
    ("number_partition", 1): "11aa75c185c3ee6262276a92fc0ee93084c1e33877c5c9c3bd59fc265866e5d1",
    ("number_partition", 2): "1d1170089c37f217f52a8855a746af383688cb3134c94d65621ff184df3a2d3a",
    ("number_partition", 3): "a392c6bbb08f2429ae43933b7c81320d6bf6cc2d377e6dbb6c1ac31f0f29c77c",
    ("number_partition", 16): "a7f0d6aff5fb3241230ce96f12b3c400553897723dcd934520c6c40c67a381d3",
    ("number_partition", 17): "ede838d8cd6f4892bbfac8191833a2079b9557062a370c0653e6b02274122f78",
    ("number_partition", 18): "4a8c1e8031180f21e6eb81434af3a850e65d49f8078b7c43659426c66d3d38a3",
    ("edges", 17): "696845e9aaea5728e065c5ee562fd7437249d6027f0c9c3ae289765629356fd7",
}
EDGE_COSTS = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]


def _pinned_instance(kind, n):
    if kind == "edges":
        costs = generate("uniform_random", {"n_data": 17, "low": -1e3, "high": 1e3}, 17).costs.copy()
        for i, value in enumerate(EDGE_COSTS):  # at both ends, and where 2 or 3 parts meet
            costs[[i, (1 << 16) - 1 - i, (1 << 16) + i, 43690 + i, (1 << 17) - 1 - i]] = value
        return CostInstance(17, costs)
    if kind == "number_partition":
        return generate(kind, {"weights": [math.sqrt(i + 2) for i in range(n)]})
    return generate(kind, {"n_data": n}, seed=n)


@pytest.mark.parametrize("kind, n", list(PINNED_TEXT))
def test_text_bytes_match_the_pinned_digests(tmp_path, kind, n):
    save_instance(_pinned_instance(kind, n), tmp_path / "inst.txt")
    assert hashlib.sha256((tmp_path / "inst.txt").read_bytes()).hexdigest() == PINNED_TEXT[kind, n]


@pytest.mark.parametrize("cpus, n_data", [(2, 12), (3, 12), (5, 11), (8, 10)])
def test_text_split_into_parts_matches_one_process(tmp_path, monkeypatch, cpus, n_data):
    inst = CostInstance(n_data, _random_costs(n_data, cpus))
    _save_text_reference(inst, tmp_path / "reference.txt")
    monkeypatch.setattr(costfn, "_PART_MIN", 1 << 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = _record_forks(monkeypatch)
    save_instance(inst, tmp_path / "inst.txt")
    assert (tmp_path / "inst.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    assert len(started) == min(cpus, inst.size >> 8) - 1
    _assert_reaped(started)


def _record_forks(monkeypatch):
    """The pids of the children that costfn forks from now on."""
    started, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return started


def _assert_reaped(pids):
    for pid in pids:  # waited for: neither running nor a zombie
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _exit_1():
    os._exit(1)


def _write_stderr_and_kill_self():
    os.write(2, b"helper stderr line\n")
    os.kill(os.getpid(), signal.SIGKILL)


def _fail_in_children(monkeypatch, name, fault):
    """Make `costfn.<name>`, a part's work, call `fault` first in every forked child."""
    real, parent = getattr(costfn, name), os.getpid()

    def work(*args):
        if os.getpid() != parent:
            fault()
        return real(*args)

    monkeypatch.setattr(costfn, name, work)


def _formatter_failing_at_third_block(monkeypatch):
    real, calls = costfn.format_rows, []

    def failing(costs, per):
        calls.append(len(costs))
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(costs, per)

    monkeypatch.setattr(costfn, "format_rows", failing)


@pytest.mark.parametrize("failure", ["helper_exits_1", "helper_killed", "formatter_raises"])
@pytest.mark.parametrize("existing", [None, b"n_data=1\n0.5 0.25\n"])
def test_failed_text_write_exits_2_and_leaves_the_path_as_it_was(
        tmp_path, monkeypatch, capsys, failure, existing):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if failure == "helper_exits_1":
        _fail_in_children(monkeypatch, "format_rows", _exit_1)
    elif failure == "helper_killed":
        _fail_in_children(monkeypatch, "format_rows", _write_stderr_and_kill_self)
    else:
        _formatter_failing_at_third_block(monkeypatch)
    started = _record_forks(monkeypatch)
    out = tmp_path / "out" / "inst.txt"
    out.parent.mkdir()
    if existing is not None:
        out.write_bytes(existing)
    argv = ["generate", "--kind", "uniform_random", "--n", "17", "--seed", "4", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("postopt generate: ")
    if failure == "helper_killed":
        assert "signal 9" in err and "helper stderr line" in err
    assert len(started) == 1
    _assert_reaped(started)
    assert os.listdir(out.parent) == ([] if existing is None else ["inst.txt"])
    if existing is not None:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("suffix", [".txt", ".npz"])
def test_a_saved_file_gets_the_mode_open_would_give(tmp_path, suffix):
    inst = demo_instance()
    fresh, kept = tmp_path / f"fresh{suffix}", tmp_path / f"kept{suffix}"
    kept.write_bytes(b"old")
    kept.chmod(0o604)
    umask = os.umask(0o027)
    try:
        save_instance(inst, fresh)
        save_instance(inst, kept)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert np.array_equal(load_instance(kept).costs, inst.costs)


def test_saving_through_a_symlink_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old")
    link.symlink_to(target)
    save_instance(demo_instance(), link)
    assert link.is_symlink()
    assert np.array_equal(load_instance(target).costs, DEMO)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


# ---------------------------------------------------------------------------
# text tables that span several parse blocks

@pytest.fixture(scope="module")
def n17_text(tmp_path_factory):
    """An n=17 text table (about 2.5 MB, so at least 3 parse blocks) and its costs."""
    rng = np.random.default_rng(17)
    costs = rng.standard_normal(1 << 17) * 10.0 ** rng.integers(-300, 300, size=1 << 17)
    path = tmp_path_factory.mktemp("n17") / "inst.txt"
    save_instance(CostInstance(17, costs), path)
    data = path.read_bytes()
    assert len(data) > 2 * costfn._PARSE_BLOCK_BYTES
    return data, costs


def test_multi_block_text_loads_like_split(n17_text, tmp_path):
    data, costs = n17_text
    path = tmp_path / "inst.txt"
    path.write_bytes(data)
    reference = np.array(data.decode().partition("\n")[2].split(), dtype=float)
    loaded = load_instance(path).costs
    assert np.array_equal(loaded.view(np.int64), reference.view(np.int64))
    assert np.array_equal(loaded.view(np.int64), costs.view(np.int64))


def test_multi_block_text_ignores_line_endings_and_blank_tail(n17_text, tmp_path):
    data, costs = n17_text
    path = tmp_path / "inst.txt"
    # the blank tail alone fills more than one block
    tail = (b" " * 1022 + b"\r\n") * (2 * costfn._PARSE_BLOCK_BYTES // 1024)
    path.write_bytes(data.replace(b"\n", b"\r\n") + tail)
    assert np.array_equal(load_instance(path).costs, costs)


def test_blank_block_adds_no_cost(tmp_path, monkeypatch):
    # np.fromstring reads a blank-only block as [-1.0], which would fill in the missing cost
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 64)
    path = tmp_path / "inst.txt"
    path.write_text("n_data=2\n" + "0.5 0.25 1.0".ljust(70) + "\n" + " " * 70 + "\n")
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


def test_bad_token_in_a_later_block_exits_2(n17_text, tmp_path):
    data, _ = n17_text
    at = data.index(b" ", len(data) * 2 // 3)
    path = tmp_path / "inst.txt"
    path.write_bytes(data[:at] + b" 0.5x" + data[at:])
    assert main(["verify", str(path), "--c-tol", "0"]) == 2


def _one_line_body(data):
    header, _, body = data.partition(b"\n")
    return header + b"\n" + body.replace(b"\n", b" ")


def test_one_line_body_loads_in_chunks(tmp_path, monkeypatch):
    # readline used to take such a body whole, at twice the peak of the 8-per-line layout
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 1 << 16)
    costs = _random_costs(16, 16)
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(16, costs), path)
    data = path.read_bytes()
    for variant in (_one_line_body(data), data.replace(b"\n", b"\r")):
        path.write_bytes(variant)
        tracemalloc.start()
        try:
            loaded = load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64))
        # the parsed parts and their concatenation, plus a few chunks of text
        assert peak < 2 * costs.nbytes + 4 * costfn._PARSE_BLOCK_BYTES < len(variant)


@pytest.mark.parametrize("layout", ["lines", "one_line", "lone_cr", "no_final_newline"])
def test_tokens_straddling_chunk_boundaries_load_whole(tmp_path, monkeypatch, layout):
    costs = _random_costs(5, 5)
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(5, costs), path)
    data = path.read_bytes()
    data = {"lines": data, "one_line": _one_line_body(data),
            "lone_cr": data.replace(b"\n", b"\r"), "no_final_newline": data.rstrip()}[layout]
    path.write_bytes(data)
    # chunks shorter than a token, so some chunks hold no whitespace at all
    for size in range(1, 48):
        monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", size)
        loaded = load_instance(path)
        assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64)), size


def test_blank_chunks_add_no_cost(tmp_path, monkeypatch):
    # at some chunk size the blank tail is one chunk alone, which fromstring would read as -1.0
    path = tmp_path / "inst.txt"
    path.write_text("n_data=2\n0.5 0.25 1.0" + " " * 40 + "\n")
    for size in range(1, 60):
        monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", size)
        with pytest.raises(DomainError, match="expected 2\\*\\*2 costs"):
            load_instance(path)


def test_bad_token_in_a_later_chunk_of_one_line_exits_2(n17_text, tmp_path, monkeypatch):
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 1 << 14)
    data = _one_line_body(n17_text[0])
    at = data.index(b" ", len(data) * 2 // 3)
    path = tmp_path / "inst.txt"
    path.write_bytes(data[:at] + b" 0.5x" + data[at:])
    assert main(["verify", str(path), "--c-tol", "0"]) == 2


def test_a_text_body_past_its_header_count_stops_at_the_first_chunk(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"n_data=2\n" + b"0.5 " * (1 << 20))
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="more than 2\\*\\*2 costs"):
            load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of text and the 8-byte floats of its 4-byte tokens, plus 1 MiB; the whole
    # body parses to 8 MiB
    assert peak < costfn._PARSE_BLOCK_BYTES + 2 * costfn._PARSE_BLOCK_BYTES + (1 << 20)


def test_a_huge_header_count_builds_no_huge_bound(tmp_path):
    # the loader's running count must not be checked against 1 << 10**9, a 125 MB integer
    path = tmp_path / "inst.txt"
    path.write_text("n_data=1000000000\n0.5 0.25\n")
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"2\*\*1000000000 costs"):
            load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * costfn._PARSE_BLOCK_BYTES


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_a_header_past_the_table_cap_is_refused_before_the_body(tmp_path, monkeypatch, capsys,
                                                                 command):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"n_data=21\n" + b"0.5 " * (1 << 21))
    started = _record_forks(monkeypatch)
    argv = [command, str(path), "--c-tol", "1"] + (["--strategy", "random"] * (command == "compare"))
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "n_data=21 exceeds the table cap of 20" in err
    assert peak < 1 << 20
    assert started == []


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_an_npz_past_the_table_cap_is_refused_before_its_costs(tmp_path, capsys, command):
    # its 32 MiB of costs used to be read whole before the cap refused them
    path = tmp_path / "inst.npz"
    np.savez(path, costs=np.zeros(1 << 22), n_data=np.int64(22), provenance="{}")
    argv = [command, str(path), "--c-tol", "1"] + (["--strategy", "random"] * (command == "compare"))
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text form's words: the refusal is no malformed archive
    assert capsys.readouterr().err == f"postopt {command}: n_data=22 exceeds the table cap of 20\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_an_npz_past_its_n_data_is_refused_before_its_costs(tmp_path, capsys, command):
    # its 32 MiB of costs used to be read whole before CostInstance refused their count
    path = tmp_path / "inst.npz"
    np.savez(path, costs=np.zeros(1 << 22), n_data=np.int64(2), provenance="{}")
    argv = [command, str(path), "--c-tol", "1"] + (["--strategy", "random"] * (command == "compare"))
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text form's words for a body past its header
    err = capsys.readouterr().err
    assert err == f"postopt {command}: {path}: more than 2**2 costs under 'n_data=2'\n"
    assert peak < 1 << 20


def test_a_one_line_file_is_refused_at_the_header_bound(tmp_path):
    # the header line used to be read on to its end, here the end of an 8 MiB file
    path = tmp_path / "inst.txt"
    path.write_bytes(b"n_data=2 " + b"0.5 " * (2 << 20))
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="header line runs past 65536 bytes"):
            load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * costfn._PARSE_BLOCK_BYTES


@pytest.mark.parametrize("block", [1 << 10, 1 << 20])
def test_a_header_line_may_run_to_the_bound_and_no_further(tmp_path, monkeypatch, block):
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", block)
    path = tmp_path / "inst.txt"
    line = b"n_data=1".ljust(costfn._TOKEN_MAX)
    path.write_bytes(line + b"\n0.5 0.25\n")
    assert load_instance(path).n_data == 1
    path.write_bytes(line + b" \n0.5 0.25\n")
    with pytest.raises(ConfigurationError, match="header line runs past"):
        load_instance(path)


def test_a_token_past_the_bound_is_refused_unjoined(tmp_path):
    # the token used to be joined whole, then parsed to inf and refused as not finite
    path = tmp_path / "inst.txt"
    path.write_bytes(b"n_data=1\n0.5 " + b"1" * (8 << 20) + b"\n")
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="a token runs past 65536 bytes"):
            load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the token held from the first chunk, and the second chunk
    assert peak < 3 * costfn._PARSE_BLOCK_BYTES


def test_a_token_held_across_reads_may_reach_the_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 1)  # every token is held across reads
    monkeypatch.setattr(costfn, "_TOKEN_MAX", 64)
    path = tmp_path / "inst.txt"
    path.write_bytes(b"n_data=1\n" + b"0.5".rjust(64, b"0") + b" 0.25\n")
    assert load_instance(path).costs.tolist() == [0.5, 0.25]
    path.write_bytes(b"n_data=1\n" + b"0.5".rjust(65, b"0") + b" 0.25\n")
    with pytest.raises(ConfigurationError, match="a token runs past 64 bytes"):
        load_instance(path)


def test_where_the_reads_fall_decides_a_token_between_the_bound_and_a_read(tmp_path,
                                                                           monkeypatch):
    # only the part of a token held from one read to the next is measured: a 100-byte
    # token past a 64-byte bound loads inside one 256-byte read, and is refused when 76
    # bytes of it are held from the first read to the second
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 256)
    monkeypatch.setattr(costfn, "_TOKEN_MAX", 64)
    path, token = tmp_path / "inst.txt", b"0.5".rjust(100, b"0")
    path.write_bytes(b"n_data=1\n" + token + b" 0.25\n")
    assert load_instance(path).costs.tolist() == [0.5, 0.25]
    path.write_bytes(b"n_data=1\n" + b" " * 180 + token + b" 0.25\n")
    with pytest.raises(ConfigurationError, match="a token runs past 64 bytes"):
        load_instance(path)


@pytest.mark.parametrize("body", [
    "0.5 0.25 1.0",            # one cost too few
    "0.5 0.25 1.0 2.0 3.0",    # one cost too many
    "",                        # no body at all
    "\n \n",                   # a blank body
    "0.5 1_0 1.0 2.0",         # float() took digit underscores
    "0.5 1\u00a00.25 2.0",     # str.split() took non-ASCII whitespace
    "0.5 0x10 1.0 2.0",
    "0.5,0.25,1.0,2.0",
], ids=["too_few", "too_many", "empty", "blank", "underscore", "nbsp", "hex", "commas"])
def test_malformed_text_body_exits_2(tmp_path, body):
    path = tmp_path / "inst.txt"
    path.write_bytes(f"n_data=2\n{body}\n".encode())
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


@pytest.mark.parametrize("header", [
    "n_data=0_2",              # int() took an underscore,
    "n_data=+2",               # a sign,
    "n_data= 2",               # a space after the `=`
    "n_data=\u0662",           # and an Arabic-Indic digit
    "n_data=" + "9" * 5000,    # past int()'s 4300-digit limit
    "n_data=",
    "n_data=2.0",
    "n_data=-2",
    "n_data=2\u00a0",          # a no-break space, where only spaces and tabs may trail
], ids=["underscore", "plus", "inner_space", "arabic_indic", "digit_limit", "empty", "float",
        "minus", "nbsp_after"])
def test_malformed_text_header_exits_2(tmp_path, header):
    path = tmp_path / "inst.txt"
    path.write_bytes(f"{header}\n0.5 0.25 1.0 2.0\n".encode())
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


def test_text_header_may_end_in_spaces_and_tabs(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"n_data=2 \t \n0.5 0.25 1.0 2.0\n")
    assert load_instance(path).n_data == 2


@pytest.mark.parametrize("token", ["nan", "1e999", "-inf"])
def test_non_finite_token_fails_the_finiteness_check(tmp_path, token):
    # these tokens parse; the instance's own check refuses them
    path = tmp_path / "inst.txt"
    path.write_text(f"n_data=1\n0.5 {token}\n")
    with pytest.raises(DomainError, match="finite"):
        load_instance(path)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


# ---------------------------------------------------------------------------
# the text reader's parts

def _padded_tokens(data):
    """The body as one line of tokens, each zero-padded to 31 bytes, after 21 blanks.

    An n_data=10 table then puts every nominal cut for 2, 3, 5 or 8 parts inside a token.
    """
    header, _, body = data.partition(b"\n")
    tokens = [token[:1] + token[1:].rjust(30, b"0") if token.startswith(b"-")
              else token.rjust(31, b"0") for token in body.split()]
    return header + b"\n" + b" " * 21 + b" ".join(tokens) + b"\n"


READ_LAYOUTS = {
    "lines": lambda data: data,
    "one_line": _one_line_body,
    "lone_cr": lambda data: data.replace(b"\n", b"\r"),
    "straddling": _padded_tokens,
    "blank_tail": lambda data: data + (b" " * 1022 + b"\r\n") * 40,  # most parts blank
}


def _split_reads(monkeypatch, cpus):
    """Split a text body of 2 KiB or more into `cpus` parts, read in 4 KiB chunks."""
    monkeypatch.setattr(costfn, "_READ_PART_MIN", 1 << 10)
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 1 << 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return _record_forks(monkeypatch)


def _nominal_cuts(data, cpus):
    start = data.index(b"\n") + 1
    return [start + (len(data) - start) * i // cpus for i in range(1, cpus)]


@pytest.mark.parametrize("cpus", [2, 3, 5, 8])
@pytest.mark.parametrize("layout", sorted(READ_LAYOUTS))
def test_text_read_in_parts_matches_one_process(tmp_path, monkeypatch, cpus, layout):
    costs = _random_costs(10, cpus)
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, costs), path)
    data = READ_LAYOUTS[layout](path.read_bytes())
    path.write_bytes(data)
    if layout == "straddling":  # no whitespace at or before a nominal cut: it is inside a token
        for at in _nominal_cuts(data, cpus):
            assert data[at - 1:at + 1].split() == [data[at - 1:at + 1]]
    started = _split_reads(monkeypatch, cpus)
    loaded = load_instance(path)
    assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64))
    assert len(started) == cpus - 1
    _assert_reaped(started)


def test_every_part_process_parses_in_chunks(tmp_path, monkeypatch):
    # tracemalloc in the caller cannot see a forked part, so each part records its own peak
    real = costfn._parse_text

    def traced(*args):
        tracemalloc.start()
        try:
            real(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (tmp_path / f"peak-{os.getpid()}").write_text(str(peak))

    costs = _random_costs(18, 18)
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(18, costs), path)
    path.write_bytes(_one_line_body(path.read_bytes()))
    assert path.stat().st_size >= 4 << 20
    started = _split_reads(monkeypatch, 4)
    monkeypatch.setattr(costfn, "_parse_text", traced)  # a forked child inherits the patch
    # 64 KiB chunks, so that the bound is not mostly the 30 KiB a parse takes at any size
    monkeypatch.setattr(costfn, "_PARSE_BLOCK_BYTES", 1 << 16)
    loaded = load_instance(path)
    assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64))
    assert len(started) == 3
    _assert_reaped(started)
    peaks = [int(p.read_text()) for p in tmp_path.glob("peak-*")]
    assert len(peaks) == 4
    # a chunk of text, its costs and the next chunk, about 2.4 chunks; a part is 1.2 MiB
    assert max(peaks) < 4 * costfn._PARSE_BLOCK_BYTES, peaks


def test_a_cut_that_finds_no_whitespace_is_dropped(tmp_path, monkeypatch):
    costs = _random_costs(10, 10)
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, costs), path)
    path.write_bytes(_padded_tokens(path.read_bytes()))
    started = _split_reads(monkeypatch, 8)
    monkeypatch.setattr(costfn, "_CUT_SEARCH_BYTES", 2)  # each nominal cut is inside a token
    assert np.array_equal(load_instance(path).costs.view(np.int64), costs.view(np.int64))
    assert started == []


@pytest.mark.parametrize("cpus", [2, 3, 5, 8])
def test_a_bad_token_in_the_last_part_exits_2_as_in_one_process(tmp_path, monkeypatch, capsys, cpus):
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, _random_costs(10, cpus)), path)
    data = path.read_bytes()
    at = data.index(b" ", len(data) - 40)
    path.write_bytes(data[:at] + b" 0.5x" + data[at:])
    started = _split_reads(monkeypatch, cpus)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    assert len(started) == cpus - 1
    _assert_reaped(started)
    split = capsys.readouterr().err
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    assert capsys.readouterr().err == split
    assert len(split.splitlines()) == 1 and "malformed instance file" in split
    assert len(started) == cpus - 1


@pytest.mark.parametrize("cpus", [2, 3, 5, 8])
def test_a_long_token_in_the_last_part_exits_2_as_in_one_process(tmp_path, monkeypatch, capsys,
                                                                cpus):
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, _random_costs(10, cpus)), path)
    path.write_bytes(path.read_bytes() + b"1" * (3 << 12) + b"\n")
    started = _split_reads(monkeypatch, cpus)
    monkeypatch.setattr(costfn, "_TOKEN_MAX", 1 << 12)  # one 4 KiB chunk
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    assert started
    _assert_reaped(started)
    split = capsys.readouterr().err
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    assert capsys.readouterr().err == split
    assert len(split.splitlines()) == 1 and "a token runs past 4096 bytes" in split


@pytest.mark.parametrize("cpus", [2, 3, 5, 8])
def test_a_body_past_its_count_in_a_later_part_exits_2(tmp_path, monkeypatch, cpus):
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, _random_costs(10, cpus)), path)
    path.write_bytes(path.read_bytes() + b"0.5\n")
    started = _split_reads(monkeypatch, cpus)
    with pytest.raises(ConfigurationError, match="more than 2\\*\\*10 costs"):
        load_instance(path)
    _assert_reaped(started)


@pytest.mark.parametrize("failure", ["child_exits_1", "child_killed"])
def test_a_failed_read_child_exits_2_with_one_line(tmp_path, monkeypatch, capsys, failure):
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, _random_costs(10, 3)), path)
    started = _split_reads(monkeypatch, 3)
    _fail_in_children(monkeypatch, "_parse_text",
                      _exit_1 if failure == "child_exits_1" else _write_stderr_and_kill_self)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("postopt verify: ")
    if failure == "child_killed":
        assert "signal 9" in err and "helper stderr line" in err
    else:
        assert "exited with status 1" in err
    assert len(started) == 2
    _assert_reaped(started)


def test_a_second_thread_keeps_the_read_in_one_process(tmp_path, monkeypatch):
    costs = _random_costs(10, 11)
    path = tmp_path / "inst.txt"
    save_instance(CostInstance(10, costs), path)
    started = _split_reads(monkeypatch, 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        loaded = load_instance(path)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64))
    assert started == []


def test_a_fifo_is_read_in_one_part(tmp_path, monkeypatch):
    costs = _random_costs(10, 12)
    source, fifo = tmp_path / "inst.txt", tmp_path / "fifo.txt"
    save_instance(CostInstance(10, costs), source)
    os.mkfifo(fifo)
    started = _split_reads(monkeypatch, 4)
    writer = subprocess.Popen(["sh", "-c", 'cat "$1" > "$2"', "sh", str(source), str(fifo)])
    try:
        loaded = load_instance(fifo)
    finally:
        writer.wait(timeout=30)
    assert writer.returncode == 0
    assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64))
    assert started == []


def test_a_lone_cr_fifo_is_read_with_its_header_line(tmp_path):
    # a lone-\r file is one line, so the header's 1 MiB read takes costs with it: here
    # 2**14 of them, past the token bound, which measures only a held token
    costs = _random_costs(14, 5)
    source, fifo = tmp_path / "inst.txt", tmp_path / "fifo.txt"
    save_instance(CostInstance(14, costs), source)
    source.write_bytes(source.read_bytes().replace(b"\n", b"\r"))
    assert source.stat().st_size > costfn._TOKEN_MAX
    os.mkfifo(fifo)
    writer = subprocess.Popen(["sh", "-c", 'cat "$1" > "$2"', "sh", str(source), str(fifo)])
    try:
        loaded = load_instance(fifo)
    finally:
        writer.wait(timeout=30)
    assert writer.returncode == 0
    assert np.array_equal(loaded.costs.view(np.int64), costs.view(np.int64))


# ---------------------------------------------------------------------------
# the .npz form

def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


GOOD_NPZ = {"costs": np.array([0.5, 0.25]), "n_data": np.int64(1), "provenance": "{}"}

BAD_NPZ = {
    "no_costs": {"costs": None},
    "no_n_data": {"n_data": None},
    "no_provenance": {"provenance": None},
    "costs_float32": {"costs": np.array([0.5, 0.25], dtype=np.float32)},
    "costs_strings": {"costs": np.array(["0.5", "0.25"])},
    "costs_2d": {"costs": np.array([[0.5, 0.25], [1.0, 2.0]]), "n_data": np.int64(2)},
    "costs_pickled": {"costs": np.array([0.5, 0.25], dtype=object)},
    "costs_too_few": {"costs": np.array([0.5])},
    "n_data_float": {"n_data": np.float64(1.0)},
    "n_data_bool": {"n_data": np.bool_(True)},
    "n_data_array": {"n_data": np.array([1])},
    "provenance_not_json": {"provenance": "{kind"},
    "provenance_not_string": {"provenance": np.int64(3)},
    "provenance_not_object": {"provenance": "[1, 2, 3]"},
}


@pytest.mark.parametrize("case", sorted(BAD_NPZ))
def test_malformed_npz_exits_2(tmp_path, case):
    members = {**GOOD_NPZ, **BAD_NPZ[case]}
    path = tmp_path / "inst.npz"
    np.savez(path, **{k: v for k, v in members.items() if v is not None})
    with pytest.raises(ConfigurationError if case != "costs_too_few" else DomainError):
        load_instance(path)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


# each refusal closes the file: numpy left a truncated zip archive open
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_npz_refuses_files_that_are_not_npz_archives(tmp_path):
    path = tmp_path / "inst.npz"
    for data in (b"", b"n_data=1\n0.5 0.25\n", b"PK\x03\x04 truncated",
                 _npy_bytes(np.array([0.5, 0.25]))):
        path.write_bytes(data)
        with pytest.raises(ConfigurationError):
            load_instance(path)
        assert main(["verify", str(path), "--c-tol", "1"]) == 2


@pytest.mark.parametrize("field, value", [
    (6, 0xff),  # version needed to extract: NotImplementedError
    (8, 0x01),  # flag bit 0, encrypted: RuntimeError
    (8, 0x40),  # flag bit 6, strong encryption: NotImplementedError
    (10, 0x63),  # compression method 99: NotImplementedError
])
def test_npz_with_a_zip_feature_it_lacks_exits_2(tmp_path, field, value):
    # one flipped byte in the central directory used to escape as a traceback, exit 1
    path = tmp_path / "inst.npz"
    np.savez(path, **GOOD_NPZ)
    data = bytearray(path.read_bytes())
    at = data.find(b"PK\x01\x02")
    while at >= 0:
        data[at + field] |= value
        at = data.find(b"PK\x01\x02", at + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigurationError):
        load_instance(path)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


def test_npz_shape_past_its_data_is_refused(tmp_path):
    # numpy allocates the declared shape before reading: 8 TiB, or a short read
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (1 << 40,)})
    path = tmp_path / "inst.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("costs.npy", header.getvalue() + bytes(16))
        archive.writestr("n_data.npy", _npy_bytes(np.int64(1)))
        archive.writestr("provenance.npy", _npy_bytes(np.array(json.dumps({}))))
    with pytest.raises(ConfigurationError):
        load_instance(path)
