import io
import json
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
    assert dist.dtype == np.int64
    assert dist.tobytes() == _hamming_distances_reference(n_data, center).tobytes()


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

@pytest.mark.parametrize("suffix", [".txt", ".json", ".npz"])
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


def test_json_loads_after_leading_blank_lines(tmp_path):
    inst = generate("uniform_random", {"n_data": 3}, seed=13)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    path.write_bytes(b"\n  \r\n\t" + path.read_bytes())
    loaded = load_instance(path)
    assert np.array_equal(loaded.costs, inst.costs)
    assert loaded.provenance == inst.provenance


def test_json_preserves_provenance(tmp_path):
    inst = generate("uniform_random", {"n_data": 4}, seed=13)
    for path in (tmp_path / "inst.json", tmp_path / "inst.npz"):
        save_instance(inst, path)
        assert load_instance(path).provenance == inst.provenance


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


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1 << n, max_size=1 << n)))
@example([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@example([2.2250738585072009e-308, -4.9e-324, 0.1, -0.0])
def test_every_form_round_trips_bit_exactly(tmp_path_factory, costs):
    inst = CostInstance(len(costs).bit_length() - 1, np.array(costs))
    directory = tmp_path_factory.mktemp("round_trip")
    for suffix in (".txt", ".json", ".npz"):
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
@example(13, 0)  # exactly one block of _SAVE_BLOCK costs
def test_text_writer_matches_the_line_writer(tmp_path_factory, n_data, seed):
    inst = CostInstance(n_data, _random_costs(n_data, seed))
    directory = tmp_path_factory.mktemp("text_writer")
    save_instance(inst, directory / "inst.txt")
    _save_text_reference(inst, directory / "reference.txt")
    assert (directory / "inst.txt").read_bytes() == (directory / "reference.txt").read_bytes()


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 14), st.integers(0, 2**32),
       st.dictionaries(st.text(max_size=5), st.integers() | st.floats() | st.text(max_size=5),
                       max_size=4))
@example(13, 0, {})
def test_json_writer_matches_json_dumps(tmp_path_factory, n_data, seed, provenance):
    inst = CostInstance(n_data, _random_costs(n_data, seed), provenance)
    path = tmp_path_factory.mktemp("json_writer") / "inst.json"
    save_instance(inst, path)
    payload = {"n_data": n_data, "costs": inst.costs.tolist(), "provenance": provenance}
    assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"


def test_json_save_holds_no_python_float_per_cost(tmp_path):
    inst = CostInstance(16, np.random.default_rng(16).uniform(size=1 << 16))
    tracemalloc.start()
    try:
        save_instance(inst, tmp_path / "inst.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of 2**16 floats alone takes 2 MiB; the costs themselves 0.5 MiB
    assert peak < 1.5 * 2**20


def test_a_json_provenance_that_does_not_serialize_writes_no_file(tmp_path):
    inst = CostInstance(1, np.array([0.5, 0.25]), {"params": np.arange(2)})
    with pytest.raises(TypeError):
        save_instance(inst, tmp_path / "inst.json")
    assert not (tmp_path / "inst.json").exists()


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


@pytest.mark.parametrize("token", ["nan", "1e999", "-inf"])
def test_non_finite_token_fails_the_finiteness_check(tmp_path, token):
    # these tokens parse; the instance's own check refuses them
    path = tmp_path / "inst.txt"
    path.write_text(f"n_data=1\n0.5 {token}\n")
    with pytest.raises(DomainError, match="finite"):
        load_instance(path)
    assert main(["verify", str(path), "--c-tol", "1"]) == 2


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


def test_npz_refuses_files_that_are_not_npz_archives(tmp_path):
    path = tmp_path / "inst.npz"
    for data in (b"", b"n_data=1\n0.5 0.25\n", b"PK\x03\x04 truncated",
                 _npy_bytes(np.array([0.5, 0.25]))):
        path.write_bytes(data)
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
