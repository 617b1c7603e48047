import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from postopt.baselines import (
    _BLOCK,
    SearchResult,
    _grover_pair,
    amplitude_amplification_success,
    grover_simulate,
    hill_climb,
    optimal_iterations,
    random_search,
)
from postopt.cli import GROVER_T_MAX
from postopt.costfn import count_below, generate, hamming_distances
from postopt.errors import DomainError

DEMO = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


def demo():
    return generate("explicit", {"costs": DEMO})


def hamming_weight_instance(n):
    return generate("explicit", {"costs": hamming_distances(n, 0).astype(float)})


# ---------------------------------------------------------------------------
# random search

def test_random_search_geometric_mean():
    inst = demo()
    trials = [random_search(inst, 3.0, seed=s, max_trials=1000).trials_used
              for s in range(10_000)]
    p = 3 / 8
    mean, expected = np.mean(trials), 1 / p
    sigma_mean = math.sqrt((1 - p) / p**2) / math.sqrt(len(trials))
    assert abs(mean - expected) < 5 * sigma_mean


def test_random_search_trivial_threshold():
    inst = demo()
    result = random_search(inst, 100.0, seed=0)
    assert result.hit and result.trials_used == 1


def test_random_search_impossible_threshold():
    inst = demo()
    result = random_search(inst, 0.5, seed=0, max_trials=500)
    assert not result.hit
    assert result.trials_used == 500
    assert result.best_cost == 1.0  # still reports the best it saw


def test_random_search_result_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        inst = generate("uniform_random", {"n_data": 6}, seed=int(rng.integers(2**31)))
        c_tol = float(rng.uniform(0, 1))
        result = random_search(inst, c_tol, seed=int(rng.integers(2**31)), max_trials=200)
        assert result.best_cost == inst.costs[result.best_index]
        assert result.hit == (result.best_cost < c_tol)


# ---------------------------------------------------------------------------
# hill climbing

def test_hill_climb_monotone_landscape():
    inst = hamming_weight_instance(6)
    for seed in range(5):
        result = hill_climb(inst, 0.5, seed=seed, max_restarts=1)
        assert result.hit
        assert result.best_index == 0 and result.best_cost == 0.0
        # start + at most n_data evaluations per descent step, n_data steps
        assert result.trials_used <= 1 + inst.n_data * inst.n_data


def test_hill_climb_constant_landscape():
    inst = generate("explicit", {"costs": [4.0] * 16})
    result = hill_climb(inst, 1.0, seed=3, max_restarts=1)
    assert not result.hit
    assert result.trials_used == 1 + inst.n_data  # start plus one neighborhood scan
    assert result.best_cost == 4.0


def test_hill_climb_beats_random_search_on_structured_landscape():
    inst = generate("hamming_structured", {"n_data": 10, "lipschitz": 1.0, "n_centers": 3},
                    seed=2026)
    c_tol = 0.5  # global minimum is pinned at 0
    assert count_below(inst, c_tol) >= 1
    hc = [hill_climb(inst, c_tol, seed=s, max_restarts=200).trials_used for s in range(100)]
    rs = [random_search(inst, c_tol, seed=s, max_trials=20_000).trials_used for s in range(100)]
    assert np.mean(hc) < np.mean(rs)


def test_hill_climb_result_invariant():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = generate("hamming_structured", {"n_data": 7, "lipschitz": 1.0},
                        seed=int(rng.integers(2**31)))
        result = hill_climb(inst, 0.25, seed=int(rng.integers(2**31)), max_restarts=5)
        assert result.best_cost == inst.costs[result.best_index]
        assert result.hit == (result.best_cost < 0.25)


def test_hill_climb_refuses_no_restarts():
    with pytest.raises(DomainError):
        hill_climb(demo(), 3.0, seed=0, max_restarts=0)


def _hill_climb_reference(instance, c_tol, seed, max_restarts):
    """The restarts one after another, one neighbourhood scan per step."""
    rng = np.random.default_rng(seed)
    best_index, best_cost = -1, math.inf
    trials = 0
    bits = 1 << np.arange(instance.n_data)
    for _ in range(max_restarts):
        # the start is a one-state batch that any finite cost improves on
        batch, current_cost = np.array([rng.integers(0, instance.size)]), math.inf
        while True:
            costs = instance.costs[batch]
            hit = costs.min() < c_tol  # then stop at the first cost below c_tol
            seen = costs[: int(np.argmax(costs < c_tol)) + 1] if hit else costs
            trials += len(seen)
            step = int(seen.argmin())
            cost = float(seen[step])
            if cost < best_cost:
                best_index, best_cost = int(batch[step]), cost
            if hit:
                return SearchResult(trials, best_index, best_cost, True)
            if not cost < current_cost:
                break  # local minimum
            current_cost = cost
            batch = int(batch[step]) ^ bits
    return SearchResult(trials, best_index, best_cost, best_cost < c_tol)


@st.composite
def hill_climb_cases(draw):
    """(instance, c_tol, seed, max_restarts) over landscapes with ties and negative costs."""
    n_data = draw(st.integers(1, 10))
    size = 1 << n_data
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    landscape = draw(st.sampled_from(["uniform", "tied", "hamming", "negative"]))
    if landscape == "uniform":
        costs = rng.uniform(0.0, 1.0, size)
    elif landscape == "tied":
        costs = rng.integers(0, 4, size).astype(float)
    elif landscape == "hamming":
        costs = generate("hamming_structured", {"n_data": n_data, "n_centers": 3},
                         seed=int(rng.integers(2**31))).costs
    else:
        costs = rng.uniform(-5.0, 1.0, size)
    threshold = draw(st.sampled_from(["below_min", "at_cost", "low_quantile"]))
    if threshold == "below_min":
        c_tol = float(costs.min()) - 1.0
    elif threshold == "at_cost":
        c_tol = float(costs[draw(st.integers(0, size - 1))])
    else:
        c_tol = float(np.quantile(costs, draw(st.floats(0.0, 0.1))))
    inst = generate("explicit", {"costs": costs.tolist()})
    restarts = draw(st.integers(1, 64) | st.integers(_BLOCK - 1, _BLOCK + 64))  # blocks chain
    return inst, c_tol, draw(st.integers(0, 2**63 - 1)), restarts


@settings(max_examples=200, deadline=None, database=None)
@given(hill_climb_cases())
def test_hill_climb_matches_sequential_reference(case):
    assert hill_climb(*case) == _hill_climb_reference(*case)


def test_hill_climb_first_hit_past_the_first_block():
    # descent runs away from the one low-cost state: only a start at it or beside it sees it
    n = 16
    costs = hamming_distances(n, (1 << n) - 1).astype(float)
    costs[0] = -1.0
    inst = generate("explicit", {"costs": costs.tolist()})
    assert not _hill_climb_reference(inst, 0.0, 0, _BLOCK).hit
    result = hill_climb(inst, 0.0, seed=0, max_restarts=3 * _BLOCK)
    assert result.hit and result == _hill_climb_reference(inst, 0.0, 0, 3 * _BLOCK)


# ---------------------------------------------------------------------------
# amplitude amplification

def test_closed_form_zero_iterations_is_random_sampling():
    assert amplitude_amplification_success(3, 1, 0) == pytest.approx(0.125, abs=1e-15)


def test_closed_form_frozen_values():
    assert amplitude_amplification_success(3, 1, 2) == pytest.approx(0.9453125, abs=1e-12)
    assert amplitude_amplification_success(2, 1, 1) == pytest.approx(1.0, abs=1e-15)


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        amplitude_amplification_success(3, 0, 1)
    with pytest.raises(DomainError):
        amplitude_amplification_success(3, 9, 1)
    with pytest.raises(DomainError):
        amplitude_amplification_success(3, 1, -1)


def test_grover_simulate_matches_closed_form_frozen():
    inst = hamming_weight_instance(3)  # only index 0 has cost < 1: M = 1
    assert grover_simulate(inst, 1.0, 0) == pytest.approx(0.125, abs=1e-12)
    assert grover_simulate(inst, 1.0, 2) == pytest.approx(0.9453125, abs=1e-10)


def test_grover_simulate_matches_closed_form_random():
    rng = np.random.default_rng(404)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        inst = generate("uniform_random", {"n_data": n}, seed=int(rng.integers(2**31)))
        c_tol = float(np.quantile(inst.costs, rng.uniform(0.05, 0.95)))
        m = count_below(inst, c_tol)
        if m == 0:
            continue
        t = int(rng.integers(0, 51))
        assert grover_simulate(inst, c_tol, t) == pytest.approx(
            amplitude_amplification_success(n, m, t), abs=1e-10
        )


def marked_instance(n_data, m, seed):
    """An explicit instance where exactly m states, scattered at random, cost below m."""
    costs = np.random.default_rng(seed).permutation(1 << n_data).astype(float)
    return generate("explicit", {"costs": costs.tolist()}), float(m)


def assert_matches_dense_reference(inst, c_tol, t):
    m, n = count_below(inst, c_tol), inst.size
    dense = reference.grover_state(inst, c_tol, t)
    marked = inst.costs < c_tol
    assert abs(grover_simulate(inst, c_tol, t) - float((dense[marked] ** 2).sum())) <= 1e-12
    a, b = _grover_pair(n, m, t)
    assert np.all(np.abs(dense[marked] - a) <= 1e-12)
    assert np.all(np.abs(dense[~marked] - b) <= 1e-12)
    assert abs(m * a * a + (n - m) * b * b - 1.0) <= 1e-12


def test_grover_simulate_matches_dense_reference():
    rng = np.random.default_rng(505)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        size = 1 << n
        for m in (1, int(rng.integers(1, size + 1)), size):
            t_max = 4 * optimal_iterations(n, m) + 3
            for t in (0, int(rng.integers(0, t_max + 1)), t_max):
                assert_matches_dense_reference(*marked_instance(n, m, int(rng.integers(2**31))), t)


@st.composite
def grover_cases(draw):
    """(instance, c_tol, t) with n_data <= 12, 1 <= M <= N and t <= 4 * optimal + 3."""
    n_data = draw(st.integers(1, 12))
    m = draw(st.integers(1, 1 << n_data))
    t = draw(st.integers(0, 4 * optimal_iterations(n_data, m) + 3))
    inst, c_tol = marked_instance(n_data, m, draw(st.integers(0, 2**32 - 1)))
    return inst, c_tol, t


@settings(max_examples=200, deadline=None, database=None)
@given(grover_cases())
def test_grover_simulate_matches_dense_reference_property(case):
    assert_matches_dense_reference(*case)


def success_at_50_digits(n_data, m, t):
    with mpmath.workdps(50):
        theta = mpmath.asin(mpmath.sqrt(mpmath.mpf(m) / (1 << n_data)))
        return mpmath.sin((2 * t + 1) * theta) ** 2


@st.composite
def grover_counts(draw):
    """(n_data, M, t) with n_data <= 20, 1 <= M <= N and t up to the CLI's cap."""
    n_data = draw(st.integers(1, 20))
    return n_data, draw(st.integers(1, 1 << n_data)), draw(st.integers(0, GROVER_T_MAX))


@settings(max_examples=50, deadline=None, database=None)
@given(grover_counts())
@example((12, 4095, GROVER_T_MAX))  # the float sin^2 was off by 2e-8 here
@example((8, 3, GROVER_T_MAX))  # the stepped pair's norm drifted 1.1e-12 here
def test_both_grover_routes_match_50_digits_property(counts):
    n_data, m, t = counts
    exact = success_at_50_digits(n_data, m, t)
    a, _ = _grover_pair(1 << n_data, m, t)
    assert abs(m * a * a - exact) <= 1e-12
    assert abs(amplitude_amplification_success(n_data, m, t) - exact) <= 1e-12


def test_grover_state_norm_preserved():
    inst = hamming_weight_instance(5)
    for t in range(0, 30):
        assert abs(np.linalg.norm(reference.grover_state(inst, 1.0, t)) - 1.0) < 1e-10


def test_grover_simulate_domain_error():
    with pytest.raises(DomainError):
        grover_simulate(demo(), 0.5, 1)  # no state below the threshold


def test_optimal_iterations_beats_random_sampling():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, max(2, (1 << n) // 2)))  # keep M/N < 1/2
        t = optimal_iterations(n, m)
        assert amplitude_amplification_success(n, m, t) > m / (1 << n)
