import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import postopt.algorithm as algorithm
import postopt.encoding as encoding
import reference
from postopt.algorithm import (
    RunConfig,
    chain_decomposition,
    encoded_state,
    exact_analysis,
    run_repeat_until_success,
    sequential_vs_joint_check,
)
from postopt.cli import check_configuration
from postopt.costfn import CostInstance, generate
from postopt.encoding import AmplitudeEncoder, JunkPolicy, instance_amplitudes
from postopt.errors import ConfigurationError
from postopt.statevec import (
    ANCILLA,
    DATA,
    EPS_PROB,
    NORM_ATOL,
    joint_distribution,
    marginal_distribution,
    marginal_probability,
    postselect,
)

DEMO = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]

IDENTITY = AmplitudeEncoder.identity()
COSPOW1 = AmplitudeEncoder.cosine_power(1)


def demo():
    return generate("explicit", {"costs": DEMO})


def random_configurations(count, seed, n_max=8):
    """Small local sweep: (instance, config) pairs over kinds x encoders x junk."""
    rng = np.random.default_rng(seed)
    specs = ["identity", "oracle", "cospow:0.5", "cospow:1", "cospow:2", "cospow:8", "linear"]
    out = []
    for _ in range(count):
        n_data = int(rng.integers(1, n_max + 1))
        kind = ["uniform_random", "number_partition", "hamming_structured"][rng.integers(3)]
        if kind == "uniform_random":
            params = {"n_data": n_data}
        elif kind == "number_partition":
            params = {"weights": rng.uniform(0.5, 10.0, size=n_data).tolist()}
        else:
            params = {"n_data": n_data, "lipschitz": float(rng.uniform(0.5, 2.0)),
                      "n_centers": int(rng.integers(1, 4))}
        inst = generate(kind, params, seed=int(rng.integers(2**31)))
        c_tol = float(np.quantile(inst.costs, rng.choice([0.1, 0.25, 0.5, 0.9])))
        spec = specs[rng.integers(len(specs))]
        enc = AmplitudeEncoder.oracle_threshold(c_tol) if spec == "oracle" else AmplitudeEncoder.parse(spec)
        junk = JunkPolicy.SPREAD if rng.random() < 0.5 else JunkPolicy.CONCENTRATED
        out.append((inst, RunConfig(c_tol=c_tol, encoder=enc, junk=junk,
                                    n_anc=int(rng.integers(1, 4)))))
    return out


# ---------------------------------------------------------------------------
# exact analysis

def test_exact_analysis_identity_equality_case():
    ana = exact_analysis(demo(), RunConfig(c_tol=3.0, encoder=IDENTITY))
    assert ana.p_first == pytest.approx(1.0, abs=1e-12)
    assert ana.p_cond == pytest.approx(0.375, abs=1e-12)
    assert ana.p_joint == pytest.approx(0.375, abs=1e-12)
    assert (ana.m, ana.n, ana.bound) == (3, 8, 0.375)


def test_exact_analysis_oracle_equality_case():
    ana = exact_analysis(demo(), RunConfig(c_tol=3.0, encoder=AmplitudeEncoder.oracle_threshold(3.0)))
    assert ana.p_first == pytest.approx(0.375, abs=1e-12)
    assert ana.p_cond == pytest.approx(1.0, abs=1e-12)
    assert ana.p_joint == pytest.approx(0.375, abs=1e-12)


def test_exact_analysis_cosine_hand_case():
    inst = generate("explicit", {"costs": [1.0, 2.0]})
    ana = exact_analysis(inst, RunConfig(c_tol=1.5, encoder=COSPOW1))
    assert ana.p_first == pytest.approx(0.25, abs=1e-12)
    assert ana.p_cond == pytest.approx(1.0, abs=1e-12)
    assert ana.p_joint == pytest.approx(0.25, abs=1e-12)
    assert ana.bound == 0.5


def test_exact_analysis_undefined_conditional():
    # constant positive costs map to u = 1 everywhere: cosine amplitude 0, no acceptance
    inst = generate("explicit", {"costs": [2.0, 2.0, 2.0, 2.0]})
    ana = exact_analysis(inst, RunConfig(c_tol=1.0, encoder=COSPOW1))
    assert ana.p_first <= 1e-12
    assert ana.p_cond is None
    assert ana.p_joint == 0.0


# ---------------------------------------------------------------------------
# per-state products

def test_per_state_product_identity_is_exactly_one_over_n():
    inst = demo()
    config = RunConfig(c_tol=3.0, encoder=IDENTITY)
    # p_first * p(k | accept) = a_k^2 / N
    products = reference.columns(encoded_state(inst, config))[0]
    for k in range(inst.size):
        assert abs(products[k] - 1 / 8) <= 1e-12
    assert abs(exact_analysis(inst, config).max_per_state_product - 1 / 8) <= 1e-12


def test_per_state_product_oracle_zero_above_threshold():
    inst = demo()
    config = RunConfig(c_tol=3.0, encoder=AmplitudeEncoder.oracle_threshold(3.0))
    products = reference.columns(encoded_state(inst, config))[0]
    assert products[5] == 0.0  # cost 9 >= 3
    assert products[1] == pytest.approx(1 / 8, abs=1e-12)


def test_per_state_product_cosine_hand_case():
    inst = generate("explicit", {"costs": [1.0, 2.0]})
    config = RunConfig(c_tol=1.5, encoder=COSPOW1)
    assert reference.columns(encoded_state(inst, config))[0][0] == pytest.approx(0.25, abs=1e-12)
    assert exact_analysis(inst, config).max_per_state_product == pytest.approx(0.25, abs=1e-12)


def test_per_state_products_match_amplitude_oracle():
    # independent route: products must equal a_k^2 / N from the encoder formula
    for inst, config in random_configurations(25, seed=101):
        ana = exact_analysis(inst, config)
        direct = instance_amplitudes(config.encoder, inst) ** 2 / inst.size
        assert np.allclose(reference.columns(encoded_state(inst, config))[0], direct, atol=1e-12)
        assert abs(ana.max_per_state_product - direct.max()) <= 1e-12


# ---------------------------------------------------------------------------
# the bound: the headline property

def test_joint_probability_never_beats_m_over_n():
    for inst, config in random_configurations(60, seed=7):
        ana = exact_analysis(inst, config)
        assert ana.p_joint <= ana.bound + 1e-9
        assert ana.max_per_state_product <= 1 / ana.n + 1e-9
        if ana.p_cond is not None:
            assert abs(ana.p_joint - ana.p_first * ana.p_cond) <= 1e-12


def test_equality_witnesses():
    rng = np.random.default_rng(55)
    for _ in range(10):
        inst = generate("uniform_random", {"n_data": int(rng.integers(2, 9))},
                        seed=int(rng.integers(2**31)))
        c_tol = float(np.quantile(inst.costs, 0.4))
        for enc in (IDENTITY, AmplitudeEncoder.oracle_threshold(c_tol)):
            ana = exact_analysis(inst, RunConfig(c_tol=c_tol, encoder=enc))
            assert abs(ana.p_joint - ana.bound) <= 1e-12


@st.composite
def bound_cases(draw):
    """(instance, c_tol, encoder, n_anc) with n_data + n_anc <= 12."""
    n_data = draw(st.integers(1, 10))
    n_anc = draw(st.integers(1, 12 - n_data))
    kind = draw(st.sampled_from(["explicit", "uniform_random", "number_partition",
                                 "hamming_structured"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "explicit":
        # few distinct integer levels: ties, negative costs and c_tol == some cost
        levels = np.random.default_rng(seed).integers(-3, 4, size=1 << n_data)
        params = {"costs": levels.astype(float).tolist()}
    elif kind == "uniform_random":
        params = {"n_data": n_data, "low": -1.0, "high": 2.0}
    elif kind == "number_partition":
        params = {"weights": draw(st.lists(st.floats(0.01, 100.0), min_size=n_data,
                                           max_size=n_data))}
    else:
        params = {"n_data": n_data, "lipschitz": draw(st.floats(0.1, 3.0)),
                  "n_centers": draw(st.integers(1, 4))}
    inst = generate(kind, params, seed)
    around = st.floats(inst.costs.min() - 1.0, inst.costs.max() + 1.0)
    c_tol = draw(st.one_of(st.sampled_from(inst.costs.tolist()), around))
    encoder = draw(st.one_of(
        st.just(IDENTITY),
        st.just(AmplitudeEncoder.linear()),
        st.floats(1e-3, 64.0).map(AmplitudeEncoder.cosine_power),
        around.map(AmplitudeEncoder.oracle_threshold),
    ))
    return inst, c_tol, encoder, n_anc


@settings(max_examples=200, deadline=None, database=None)
@given(bound_cases())
def test_bound_and_junk_independence_hold_for_random_configurations(case):
    inst, c_tol, encoder, n_anc = case
    configs = [RunConfig(c_tol=c_tol, encoder=encoder, junk=junk, n_anc=n_anc)
               for junk in (JunkPolicy.CONCENTRATED, JunkPolicy.SPREAD)]
    concentrated, spread = (exact_analysis(inst, config) for config in configs)
    assert concentrated.p_joint <= concentrated.m / concentrated.n + 1e-9
    assert concentrated.max_per_state_product <= 1 / concentrated.n + 1e-9
    assert abs(concentrated.p_first - spread.p_first) <= 1e-12
    assert abs(concentrated.p_joint - spread.p_joint) <= 1e-12
    products = [reference.columns(encoded_state(inst, config))[0] for config in configs]
    assert np.abs(products[0] - products[1]).max() <= 1e-12
    assert abs(concentrated.max_per_state_product - spread.max_per_state_product) <= 1e-12
    # criterion 3: the oracle at c_tol reaches the ceiling, negative costs included
    oracle = RunConfig(c_tol=c_tol, encoder=AmplitudeEncoder.oracle_threshold(c_tol), n_anc=n_anc)
    tight = exact_analysis(inst, oracle)
    assert abs(tight.p_joint - tight.m / tight.n) <= 1e-12


# exact 0s and 1s, the smallest subnormal, one near the normal range's floor, and the rest
AMPLITUDES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.2e-308]), st.floats(0.0, 1.0))


@st.composite
def amplitude_cases(draw):
    """(a, low-cost mask, n_anc) with a in [0, 1]^N, n_data <= 8 and n_anc <= 3."""
    size = 1 << draw(st.integers(1, 8))
    a = draw(arrays(float, size, elements=AMPLITUDES))
    return a, draw(arrays(bool, size)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None, database=None)
@given(amplitude_cases(), st.sampled_from(list(JunkPolicy)))
def test_bound_holds_for_arbitrary_success_amplitudes(case, junk):
    # any a in [0, 1]^N, not just the four encoder families, through the production path
    a, low, n_anc = case
    n, m = a.size, int(low.sum())
    inst = generate("explicit", {"costs": np.where(low, 0.0, 1.0).tolist()})
    config = RunConfig(c_tol=0.5, encoder=IDENTITY, junk=junk, n_anc=n_anc)
    encoding._last_encoding = None
    with pytest.MonkeyPatch.context() as patch:
        # a copy, as instance_amplitudes returns a new array: encode builds in the one it gets
        patch.setattr(encoding, "instance_amplitudes", lambda encoder, instance: a.copy())
        ana = exact_analysis(inst, config)
    assert ana.p_joint <= m / n + 1e-9
    assert ana.max_per_state_product <= 1 / n + 1e-9
    if np.all(a[low] == 1.0):
        assert abs(ana.p_joint - m / n) <= 1e-12
    else:  # every low-cost state short of a = 1 costs the joint its deficit
        assert np.all(ana.p_joint <= m / n - (1.0 - a[low] ** 2) / n + 1e-12)


# ---------------------------------------------------------------------------
# chain decomposition

def test_chain_identity_encoder():
    chain = chain_decomposition(demo(), RunConfig(c_tol=3.0, encoder=IDENTITY))
    for value in (chain.direct, chain.via_ancilla, chain.via_cost):
        assert value == pytest.approx(0.375, abs=1e-12)
    assert chain.p_b_given_a == pytest.approx(1.0, abs=1e-12)


def test_chain_oracle_encoder():
    config = RunConfig(c_tol=3.0, encoder=AmplitudeEncoder.oracle_threshold(3.0))
    chain = chain_decomposition(demo(), config)
    for value in (chain.direct, chain.via_ancilla, chain.via_cost):
        assert value == pytest.approx(0.375, abs=1e-12)
    assert chain.p_b_given_a == pytest.approx(1.0, abs=1e-12)


def test_chain_cosine_hand_case():
    inst = generate("explicit", {"costs": [1.0, 2.0]})
    chain = chain_decomposition(inst, RunConfig(c_tol=1.5, encoder=COSPOW1))
    for value in (chain.direct, chain.via_ancilla, chain.via_cost):
        assert value == pytest.approx(0.25, abs=1e-12)
    # p(A) = M/N = 1/2 and p(B|A) = a_0^2 = 1/2: the bound with room to spare
    assert chain.p_b_given_a == pytest.approx(0.5, abs=1e-12)


def test_chain_routes_agree_when_defined():
    for inst, config in random_configurations(40, seed=13):
        chain = chain_decomposition(inst, config)
        for route in (chain.via_ancilla, chain.via_cost):
            if route is not None:
                assert abs(route - chain.direct) <= 1e-12


def test_chain_m_zero_reports_direct_only():
    inst = demo()
    chain = chain_decomposition(inst, RunConfig(c_tol=0.5, encoder=IDENTITY))  # M = 0
    assert chain.direct == 0.0
    assert chain.via_cost is None and chain.p_b_given_a is None
    assert chain.via_ancilla == pytest.approx(0.0, abs=1e-12)  # p(B) fine, A empty


def test_chain_p_first_zero_reports_direct_only():
    inst = generate("explicit", {"costs": [2.0, 2.0]})
    chain = chain_decomposition(inst, RunConfig(c_tol=3.0, encoder=COSPOW1))
    assert chain.via_ancilla is None
    assert chain.direct == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_data, spec, junk, n_anc", [
    (16, "cospow:2", JunkPolicy.SPREAD, 3),
    (17, "linear", JunkPolicy.CONCENTRATED, 1),
    (18, "oracle:5", JunkPolicy.SPREAD, 2),
])
def test_a_multi_block_record_matches_the_whole_column_arithmetic(n_data, spec, junk, n_anc):
    # every field, recomputed from whole accept and junk columns
    inst = generate("hamming_structured", {"n_data": n_data}, seed=n_data)
    c_tol = float(np.quantile(inst.costs, 0.3))
    config = RunConfig(c_tol=c_tol, encoder=AmplitudeEncoder.parse(spec), junk=junk, n_anc=n_anc)
    record = check_configuration(inst, config, "k", {})
    accept, junk_column = reference.born_columns(inst, config.encoder, junk, n_anc)
    low = inst.costs < c_tol
    rows = accept + (2**n_anc - 1 if junk == JunkPolicy.SPREAD else 1) * junk_column
    joint = accept[low].sum()
    want = {"p_first": accept.sum(), "p_cond": joint / accept.sum(), "p_joint": joint,
            "max_per_state_product": accept.max(), "chain_direct": joint,
            "chain_via_ancilla": joint, "chain_via_cost": joint,
            "p_b_given_a": joint / rows[low].sum(), "tv_distance": 0.0}
    assert inst.size > encoding.BLOCK and record["ok"]
    for name, value in want.items():
        assert abs(record[name] - value) <= 1e-12, name


def test_a_multi_block_record_builds_each_blocks_weights_twice(monkeypatch):
    # once when the encoded instance sums its columns, once in the walk the three
    # exact checks share
    built = []
    weights = encoding.EncodedInstance.weights

    def counted(self, block):
        built.append(block.start)
        return weights(self, block)

    monkeypatch.setattr(encoding.EncodedInstance, "weights", counted)
    inst = generate("uniform_random", {"n_data": 17}, seed=5)
    config = RunConfig(c_tol=0.3, encoder=AmplitudeEncoder.linear(), junk=JunkPolicy.SPREAD, n_anc=2)
    assert check_configuration(inst, config, "k", {})["ok"]
    starts = range(0, inst.size, encoding.BLOCK)
    assert len(starts) == 4 and sorted(built) == sorted([*starts, *starts])


def test_the_checks_keep_no_encoding_alive():
    inst = generate("uniform_random", {"n_data": 5}, seed=6)
    config = RunConfig(c_tol=0.4, encoder=AmplitudeEncoder.cosine_power(2))
    for check in (exact_analysis, chain_decomposition, sequential_vs_joint_check):
        check(inst, config)
    last = weakref.ref(encoded_state(inst, config))
    exact_analysis(inst, replace(config, n_anc=2))  # the next configuration
    gc.collect()
    assert last() is None


def test_each_check_returns_a_fresh_runs_bits_whatever_ran_before():
    # two c_tol values alternate on one encoded instance; each check runs first
    # (its memo entry is for the other c_tol) and after the other two
    inst = generate("hamming_structured", {"n_data": 16}, seed=3)
    configs = [RunConfig(c_tol=float(np.quantile(inst.costs, q)), encoder=AmplitudeEncoder.linear(),
                         junk=JunkPolicy.SPREAD, n_anc=2) for q in (0.2, 0.7)]
    checks = [exact_analysis, chain_decomposition, sequential_vs_joint_check]

    def fresh(check, config):
        encoding._last_encoding = algorithm._last_checks = None
        return repr(check(inst, config))

    want = {(check, config): fresh(check, config) for check in checks for config in configs}
    encoded = encoded_state(inst, configs[0])
    for first in range(len(checks)):
        for config in configs:
            for check in checks[first:] + checks[:first]:
                assert repr(check(inst, config)) == want[check, config], check.__name__
    assert encoded_state(inst, configs[1]) is encoded


# ---------------------------------------------------------------------------
# sequential vs joint

def test_sequential_vs_joint_examples():
    assert sequential_vs_joint_check(demo(), RunConfig(c_tol=3.0, encoder=IDENTITY)) <= 1e-10
    inst = generate("explicit", {"costs": [1.0, 2.0]})
    assert sequential_vs_joint_check(inst, RunConfig(c_tol=1.5, encoder=COSPOW1)) <= 1e-10


def test_sequential_vs_joint_random_sweep():
    for inst, config in random_configurations(40, seed=29):
        assert sequential_vs_joint_check(inst, config) <= 1e-10


# ---------------------------------------------------------------------------
# production vs the statevec reference primitives

def reference_quantities(inst, config):
    """Every exact quantity recomputed through explicit measurements on the dense state."""
    state = reference.encoded_state(inst, config)
    layout = state.layout
    low = inst.costs < config.c_tol
    joint = joint_distribution(state)
    ref = {"p_first": marginal_probability(state, ANCILLA, 0),
           "direct": float(joint[np.nonzero(low)[0] << layout.n_anc].sum()),
           "p_cond": None, "via_ancilla": None, "via_cost": None, "p_b_given_a": None,
           "products": joint[np.arange(layout.data_dim) << layout.n_anc]}
    if ref["p_first"] > EPS_PROB:
        _, cond = postselect(state, ANCILLA, 0)
        cond_data = marginal_distribution(cond, DATA)
        ref["p_cond"] = float(cond_data[low].sum())
        ref["products"] = ref["p_first"] * cond_data
        ref["via_ancilla"] = ref["p_cond"] * ref["p_first"]
    ref["p_joint"] = 0.0 if ref["p_cond"] is None else ref["via_ancilla"]
    if low.any():
        # p(A) p(B|A) = sum over low k of p(k) p(B | k), one post-selection per k
        p_a, terms = 0.0, []
        for k in np.nonzero(low)[0]:
            p_k = marginal_probability(state, DATA, int(k))
            p_a += p_k
            if p_k > EPS_PROB:
                _, cond_k = postselect(state, DATA, int(k))
                terms.append(p_k * marginal_probability(cond_k, ANCILLA, 0))
        ref["via_cost"] = float(sum(terms))
        ref["p_b_given_a"] = ref["via_cost"] / p_a

    rebuilt = np.zeros(layout.total_dim)
    for a in range(layout.anc_dim):
        p_a = marginal_probability(state, ANCILLA, a)
        if p_a > EPS_PROB:
            _, cond = postselect(state, ANCILLA, a)
            rebuilt[(np.arange(layout.data_dim) << layout.n_anc) | a] = (
                p_a * marginal_distribution(cond, DATA))
    assert rebuilt.min() >= 0.0 and abs(rebuilt.sum() - 1.0) <= NORM_ATOL
    ref["tv"] = reference.total_variation(joint, rebuilt)
    return ref


def assert_matches_reference(inst, config):
    """Every production field equals its `statevec` measurement within 1e-12."""
    ref = reference_quantities(inst, config)
    ana = exact_analysis(inst, config)
    chain = chain_decomposition(inst, config)

    assert abs(ana.p_first - ref["p_first"]) <= 1e-12
    assert abs(ana.p_joint - ref["p_joint"]) <= 1e-12
    products = reference.columns(encoded_state(inst, config))[0]
    assert np.allclose(products, ref["products"], rtol=0, atol=1e-12)
    assert abs(ana.max_per_state_product - ref["products"].max()) <= 1e-12
    assert abs(chain.direct - ref["direct"]) <= 1e-12
    for got, want in ((ana.p_cond, ref["p_cond"]), (chain.via_ancilla, ref["via_ancilla"]),
                      (chain.via_cost, ref["via_cost"]),
                      (chain.p_b_given_a, ref["p_b_given_a"])):
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-12
    assert abs(sequential_vs_joint_check(inst, config) - ref["tv"]) <= 1e-12


def test_born_grid_path_matches_statevec_reference():
    cases = random_configurations(40, seed=313)
    cases.append((demo(), RunConfig(c_tol=0.5, encoder=IDENTITY, n_anc=2)))  # M = 0
    cases.append((generate("explicit", {"costs": [2.0, 2.0]}),
                  RunConfig(c_tol=3.0, encoder=COSPOW1)))  # p_first = 0
    for inst, config in cases:
        assert inst.n_data + config.n_anc <= 12
        assert_matches_reference(inst, config)


@settings(max_examples=200, deadline=None, database=None)
@given(bound_cases(), st.sampled_from(list(JunkPolicy)))
def test_production_fields_equal_the_dense_reference_measurements(case, junk):
    inst, c_tol, encoder, n_anc = case
    assert_matches_reference(inst, RunConfig(c_tol=c_tol, encoder=encoder, junk=junk, n_anc=n_anc))


# ---------------------------------------------------------------------------
# sampled protocol

def test_rtus_oracle_every_accept_is_a_hit():
    config = RunConfig(c_tol=3.0, encoder=AmplitudeEncoder.oracle_threshold(3.0),
                       max_preparations=5000, seed=4)
    stats = run_repeat_until_success(demo(), config)
    assert stats.accepted_samples > 0
    assert stats.low_cost_hits == stats.accepted_samples


def test_rtus_identity_converges_to_m_over_n():
    budget = 100_000
    config = RunConfig(c_tol=3.0, encoder=IDENTITY, max_preparations=budget, seed=1234)
    stats = run_repeat_until_success(demo(), config)
    sigma = math.sqrt(0.375 * 0.625 / budget)
    assert abs(stats.p_joint_estimate - 0.375) < 5 * sigma


def test_rtus_no_acceptance_possible():
    inst = generate("explicit", {"costs": [2.0, 2.0]})
    config = RunConfig(c_tol=1.0, encoder=COSPOW1, max_preparations=1, seed=0)
    stats = run_repeat_until_success(inst, config)
    assert stats.accepted_samples == 0
    assert stats.low_cost_hits == 0
    assert stats.first_hit_preparation is None


def test_rtus_counts_and_determinism():
    for inst, config in random_configurations(10, seed=77, n_max=6):
        config = RunConfig(c_tol=config.c_tol, encoder=config.encoder, junk=config.junk,
                           n_anc=config.n_anc, max_preparations=2000, seed=99)
        a = run_repeat_until_success(inst, config)
        b = run_repeat_until_success(inst, config)
        assert a == b
        assert a.low_cost_hits <= a.accepted_samples <= a.preparations_used


def test_rtus_estimate_tracks_exact_p_joint():
    inst = generate("uniform_random", {"n_data": 6}, seed=3)
    c_tol = float(np.quantile(inst.costs, 0.5))
    config = RunConfig(c_tol=c_tol, encoder=COSPOW1, max_preparations=100_000, seed=8)
    stats = run_repeat_until_success(inst, config)
    p = exact_analysis(inst, config).p_joint
    sigma = math.sqrt(p * (1 - p) / config.max_preparations)
    assert abs(stats.p_joint_estimate - p) < 5 * sigma


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 1 << 10), size=st.integers(0, 5000), seed=st.integers(0, 2**63 - 1),
       zero_share=st.floats(0.0, 1.0))
def test_choice_table_draws_what_rng_choice_draws(n, size, seed, zero_share):
    rng = np.random.default_rng(seed)
    weights = rng.random(n)
    weights[rng.random(n) < zero_share] = 0.0  # exact zeros, up to all but one entry
    weights[rng.integers(n)] = 1.0
    p = weights / weights.sum()
    by_choice, by_table = np.random.default_rng(seed), np.random.default_rng(seed)
    want = by_choice.choice(n, size, p=p)
    got = algorithm._draw(encoding._choice_cdf(p), by_table, size)
    assert np.array_equal(got, want)
    assert by_table.random() == by_choice.random()  # the stream advanced alike


@pytest.mark.parametrize("p", [[0.5, -0.1, 0.6], [0.5, np.nan], [0.5, 0.4]],
                         ids=["negative", "nan", "short_of_one"])
def test_choice_table_keeps_the_checks_on_p(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), 1, p=p)
    with pytest.raises(ValueError):
        encoding._choice_cdf(np.array(p))


@settings(max_examples=200, deadline=None, database=None)
@given(bound_cases(), st.sampled_from(list(JunkPolicy)), st.integers(1, 5000),
       st.integers(0, 2**63 - 1))
def test_rtus_equals_rng_choice_on_the_dense_grid(case, junk, budget, seed):
    inst, c_tol, encoder, n_anc = case
    config = RunConfig(c_tol=c_tol, encoder=encoder, junk=junk, n_anc=n_anc,
                       max_preparations=budget, seed=seed)
    want = reference.run_repeat_until_success(inst, config)
    assert run_repeat_until_success(inst, config) == want
    # the tables themselves, bit for bit: an ulp off in `p` rarely moves a draw
    anc_p, data_p = reference.choice_p(inst, config)
    threshold, data_cdf = encoded_state(inst, config).sampling_tables
    assert threshold == encoding._choice_cdf(anc_p)[0]
    assert (data_cdf is None) == (data_p is None)
    assert data_p is None or np.array_equal(data_cdf, encoding._choice_cdf(data_p))


@pytest.mark.parametrize("junk", list(JunkPolicy))
def test_multi_block_sampling_tables_are_the_whole_column_tables(junk):
    # the column sums run across the blocks as numpy sums each whole column
    inst = generate("uniform_random", {"n_data": 17}, seed=4)
    config = RunConfig(c_tol=0.1, encoder=AmplitudeEncoder.cosine_power(8), junk=junk, n_anc=3)
    accept, junk_column = reference.born_columns(inst, config.encoder, junk, config.n_anc)
    anc = np.zeros(8)
    anc[0], anc[1:8 if junk == JunkPolicy.SPREAD else 2] = accept.sum(), junk_column.sum()
    threshold, data_cdf = encoded_state(inst, config).sampling_tables
    assert inst.size > 2 * encoding.BLOCK
    assert threshold == encoding._choice_cdf(anc / anc.sum())[0]
    assert np.array_equal(data_cdf, encoding._choice_cdf(accept / accept.sum()))


def test_rtus_interleaved_configurations_match_fresh_runs():
    # each call must draw from its own state's tables, never from the last call's
    inst = generate("uniform_random", {"n_data": 6}, seed=11)
    c_tol = float(np.quantile(inst.costs, 0.25))
    first = RunConfig(c_tol=c_tol, encoder=COSPOW1, max_preparations=3000, seed=5)
    configs = [first, replace(first, junk=JunkPolicy.SPREAD, n_anc=3), replace(first, n_anc=2),
               replace(first, encoder=AmplitudeEncoder.cosine_power(8))]

    def fresh(config):
        encoding._last_encoding = None
        return run_repeat_until_success(inst, config)

    want = [fresh(config) for config in configs]
    assert want[0] != want[-1]
    for _ in range(2):
        for config, expected in zip(configs, want):
            assert run_repeat_until_success(inst, config) == expected


def test_rtus_builds_no_data_table_when_nothing_can_accept(monkeypatch):
    builds = []
    original = encoding._choice_cdf
    monkeypatch.setattr(encoding, "_choice_cdf", lambda p: builds.append(p) or original(p))
    inst = generate("explicit", {"costs": [2.0, 2.0]})
    config = RunConfig(c_tol=1.0, encoder=AmplitudeEncoder.oracle_threshold(1.0), seed=3)
    assert run_repeat_until_success(inst, config).accepted_samples == 0
    assert len(builds) == 1


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(c_tol=1.0, encoder=IDENTITY, max_preparations=0)
    with pytest.raises(ConfigurationError):
        RunConfig(c_tol=1.0, encoder=IDENTITY, n_anc=0)
    for c_tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            RunConfig(c_tol=c_tol, encoder=IDENTITY)


# ---------------------------------------------------------------------------
# junk independence at the analysis level

def test_junk_policy_cannot_change_success_probabilities():
    for inst, config in random_configurations(20, seed=902):
        if config.n_anc < 2:
            config = RunConfig(c_tol=config.c_tol, encoder=config.encoder,
                               junk=config.junk, n_anc=2)
        results = []
        for junk in JunkPolicy:
            ana = exact_analysis(inst, RunConfig(c_tol=config.c_tol, encoder=config.encoder,
                                                 junk=junk, n_anc=config.n_anc))
            results.append((ana.p_first, ana.p_cond, ana.p_joint))
        (pf_a, pc_a, pj_a), (pf_b, pc_b, pj_b) = results
        assert abs(pf_a - pf_b) <= 1e-12
        assert abs(pj_a - pj_b) <= 1e-12
        if pc_a is not None and pc_b is not None:
            assert abs(pc_a - pc_b) <= 1e-12
        else:
            assert pc_a is None and pc_b is None


def test_encoded_state_layout():
    inst = demo()
    state = encoded_state(inst, RunConfig(c_tol=3.0, encoder=IDENTITY, n_anc=2))
    assert state.layout.n_data == 3 and state.layout.n_anc == 2


# ---------------------------------------------------------------------------
# metamorphic relations: transformations of the instance that must carry over

def record_of(inst, config):
    return check_configuration(inst, config, "k", {})


def probability_fields(record):
    """Every float field of a verify record but `c_tol`, a None kept as None."""
    return {name: value for name, value in record.items()
            if name != "c_tol" and (value is None or type(value) is float)}


@settings(max_examples=100, deadline=None, database=None)
@given(bound_cases(), st.sampled_from(list(JunkPolicy)), st.integers(0, 2**32 - 1))
def test_permuting_the_data_permutes_accept_and_keeps_the_probabilities(case, junk, seed):
    inst, c_tol, encoder, n_anc = case
    config = RunConfig(c_tol=c_tol, encoder=encoder, junk=junk, n_anc=n_anc)
    perm = np.random.default_rng(seed).permutation(inst.size)
    shuffled = CostInstance(inst.n_data, inst.costs[perm])
    accept = reference.columns(encoded_state(inst, config))[0][perm]
    assert reference.columns(encoded_state(shuffled, config))[0].tobytes() == accept.tobytes()
    before, after = exact_analysis(inst, config), exact_analysis(shuffled, config)
    assert before.m == after.m
    assert abs(before.p_first - after.p_first) <= 1e-12
    assert abs(before.p_joint - after.p_joint) <= 1e-12


@settings(max_examples=100, deadline=None, database=None)
@given(bound_cases(), st.sampled_from(list(JunkPolicy)), st.floats(1e-6, 1e6),
       st.one_of(st.just(AmplitudeEncoder.linear()),
                 st.floats(1e-3, 64.0).map(AmplitudeEncoder.cosine_power)))
def test_scaling_costs_and_c_tol_keeps_every_probability(case, junk, c, encoder):
    # cospow and linear read the costs only through (cost - low) / c_max
    inst, c_tol, _, n_anc = case
    before = record_of(inst, RunConfig(c_tol=c_tol, encoder=encoder, junk=junk, n_anc=n_anc))
    after = record_of(CostInstance(inst.n_data, inst.costs * c),
                      RunConfig(c_tol=c_tol * c, encoder=encoder, junk=junk, n_anc=n_anc))
    assume(before["m"] == after["m"])
    for name, value in probability_fields(before).items():
        other = after[name]
        assert (value is None) == (other is None), name
        assert value is None or abs(value - other) <= 1e-12, name


HALF_INTEGERS = st.integers(-20, 20).map(lambda k: k / 2)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), HALF_INTEGERS, HALF_INTEGERS,
       st.integers(-10**6, 10**6), st.integers(1, 3), st.sampled_from(list(JunkPolicy)))
def test_shifting_integer_costs_and_thresholds_keeps_every_oracle_field(n_data, seed, c_tol, tau,
                                                                        shift, n_anc, junk):
    # every value here is exact in float64, so the oracle sees the same comparisons
    costs = np.random.default_rng(seed).integers(-8, 9, size=1 << n_data).astype(float)
    records = []
    for k in (0, shift):
        record = record_of(CostInstance(n_data, costs + k),
                           RunConfig(c_tol=c_tol + k, encoder=AmplitudeEncoder.oracle_threshold(
                               tau + k), junk=junk, n_anc=n_anc))
        del record["c_tol"], record["encoder"]
        records.append(record)
    assert records[0] == records[1]
