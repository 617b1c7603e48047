import tracemalloc

import numpy as np
import pytest

from postopt.costfn import (
    CostInstance,
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


def test_instance_validation():
    with pytest.raises(DomainError):
        CostInstance(2, np.array([1.0, 2.0, np.inf, 0.0]))
    with pytest.raises(DomainError):
        CostInstance(3, np.array([1.0, 2.0]))


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

@pytest.mark.parametrize("suffix", [".txt", ".json"])
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
    for variant in (crlf, text + "\n\n  \n", crlf + "\r\n\r\n"):
        path.write_bytes(variant.encode())
        loaded = load_instance(path)
        assert loaded.n_data == inst.n_data
        assert np.array_equal(loaded.costs, inst.costs)


def test_json_preserves_provenance(tmp_path):
    inst = generate("uniform_random", {"n_data": 4}, seed=13)
    path = tmp_path / "inst.json"
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
