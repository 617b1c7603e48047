import tracemalloc

import numpy as np
import pytest

import reference
from postopt.costfn import generate
from postopt.encoding import AmplitudeEncoder
from postopt.errors import CapacityError, DomainError, ImpossibleOutcomeError
from postopt.statevec import (
    ANCILLA,
    DATA,
    OutcomeDistribution,
    RegisterLayout,
    StateVector,
    joint_distribution,
    marginal_distribution,
    marginal_probability,
    postselect,
    uniform_superposition,
)

RT2 = np.sqrt(2.0)


def encoded_1_2() -> StateVector:
    """Costs [1, 2] under cospow:1: a = (cos(pi/4), 0), grid [[1/2, 1/2], [0, 1/sqrt(2)]]."""
    return reference.encode(generate("explicit", {"costs": [1.0, 2.0]}),
                            AmplitudeEncoder.cosine_power(1))


def random_state(layout: RegisterLayout, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# layout and state validation

def test_layout_validation():
    with pytest.raises(DomainError):
        RegisterLayout(0, 1)
    with pytest.raises(DomainError):
        RegisterLayout(3, 0)
    with pytest.raises(CapacityError):
        RegisterLayout(23, 2)
    RegisterLayout(23, 1)  # exactly at the cap is fine


def test_index_convention():
    state = random_state(RegisterLayout(3, 2), np.random.default_rng(1))
    # grid[k, a] must be the amplitude of composite (k << n_anc) | a
    assert state.grid()[5, 3] == state.amplitudes[(5 << 2) | 3]


def test_state_rejects_bad_norm_and_shape():
    layout = RegisterLayout(1, 1)
    with pytest.raises(DomainError):
        StateVector(layout, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        StateVector(layout, np.array([1.0, 0.0]))


@pytest.mark.parametrize("build", [
    lambda: StateVector(RegisterLayout(1, 1), np.array([np.nan, 0.0, 0.0, 0.0])),
    lambda: OutcomeDistribution(np.array([np.nan, 0.0])),
], ids=["state", "distribution"])
def test_nan_fails_the_norm_check(build):
    # abs(nan - 1) > tol is False, so a NaN norm must not slip through a ">" test
    with pytest.raises(DomainError):
        build()


def test_state_is_immutable():
    state = uniform_superposition(RegisterLayout(2, 1))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.3


def test_norm_check_conjugates_complex_amplitudes():
    # sum(a * a) without the conjugate would read sum(exp(2i theta)) / D, far from 1
    layout = RegisterLayout(4, 2)
    theta = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=layout.total_dim)
    StateVector(layout, np.exp(1j * theta) / np.sqrt(layout.total_dim))


@pytest.mark.parametrize("deviation, accepted", [
    (2e-10, False), (-2e-10, False), (5e-11, True), (-5e-11, True)])
def test_norm_check_tolerance(deviation, accepted):
    layout = RegisterLayout(3, 2)
    amps = random_state(layout, np.random.default_rng(9)).amplitudes * (1.0 + deviation)
    if accepted:
        StateVector(layout, amps)
    else:
        with pytest.raises(DomainError):
            StateVector(layout, amps)


# ---------------------------------------------------------------------------
# uniform superposition

def test_uniform_superposition_2_1():
    state = uniform_superposition(RegisterLayout(2, 1))
    expected = np.zeros(8, dtype=complex)
    expected[[0, 2, 4, 6]] = 0.5  # data 0..3 with ancilla 0
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_uniform_superposition_1_1():
    state = uniform_superposition(RegisterLayout(1, 1))
    assert np.allclose(state.amplitudes, [1 / RT2, 0, 1 / RT2, 0], atol=1e-15)


def test_uniform_superposition_norm_large():
    state = uniform_superposition(RegisterLayout(12, 2))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_state_dtype_follows_its_amplitudes():
    layout = RegisterLayout(2, 1)
    assert uniform_superposition(layout).amplitudes.dtype == np.float64
    assert StateVector(RegisterLayout(1, 1), [1, 0, 0, 0]).amplitudes.dtype == np.float64
    assert random_state(layout, np.random.default_rng(3)).amplitudes.dtype == np.complex128


@pytest.mark.parametrize("dtype", [float, complex])
def test_state_leaves_the_callers_array_as_it_was(dtype):
    a = np.array([1.0, 0, 0, 0], dtype=dtype)
    state = StateVector(RegisterLayout(1, 1), a)
    assert a.flags.writeable
    a[0], a[1] = 0.0, 1.0  # the caller may still write to its array ...
    assert np.array_equal(state.amplitudes, [1.0, 0, 0, 0])  # ... and the state does not change
    with pytest.raises(ValueError):
        state.amplitudes[1] = 0.5


@pytest.mark.parametrize("n_data,n_anc", [(2, 1), (3, 2), (4, 3)])
def test_real_state_measures_as_its_complex_cast(n_data, n_anc):
    layout = RegisterLayout(n_data, n_anc)
    amps = np.random.default_rng(n_data * 3 + n_anc).normal(size=layout.total_dim)
    real = StateVector(layout, amps / np.linalg.norm(amps))
    cplx = StateVector(layout, real.amplitudes.astype(complex))
    assert np.array_equal(joint_distribution(real).probs, joint_distribution(cplx).probs)
    for register in (DATA, ANCILLA):
        assert np.array_equal(marginal_distribution(real, register).probs,
                              marginal_distribution(cplx, register).probs)
        for outcome in range(layout.register_dim(register)):
            prob, cond = postselect(real, register, outcome)
            prob_c, cond_c = postselect(cplx, register, outcome)
            assert prob == prob_c == marginal_probability(cplx, register, outcome)
            assert cond.amplitudes.dtype == np.float64
            assert cond_c.amplitudes.dtype == np.complex128
            # complex division by prob multiplies by its reciprocal: an ulp apart at most
            np.testing.assert_allclose(cond.amplitudes, cond_c.amplitudes, rtol=1e-15, atol=0)


def test_uniform_superposition_is_shared_for_a_layout():
    state = uniform_superposition(RegisterLayout(3, 2))
    assert uniform_superposition(RegisterLayout(3, 2)) is state
    with pytest.raises(ValueError):
        state.amplitudes[1] = 0.5
    with pytest.raises(ValueError):
        state.grid()[1, 0] = 0.5
    with pytest.raises(ValueError):
        state.grid().base[0] = 0.5
    assert np.array_equal(uniform_superposition(RegisterLayout(3, 2)).grid()[:, 0],
                          np.full(8, 1 / np.sqrt(8)))


def test_uniform_superposition_holds_one_ancilla_row():
    # the product state N^(-1/2) sum_k |k>|0...0> is one row repeated, not a 2**23-entry grid
    uniform_superposition.cache_clear()
    tracemalloc.start()
    try:
        state = uniform_superposition(RegisterLayout(20, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert state.grid().shape == (1 << 20, 8) and state.grid().strides[0] == 0
    assert state.grid()[12345, 0] == 2.0**-10 and not state.grid()[12345, 1:].any()


def test_shared_row_state_measures_as_its_dense_copy():
    shared = uniform_superposition(RegisterLayout(3, 2))
    dense = StateVector(shared.layout, shared.amplitudes)
    assert dense.grid().strides[0] != 0
    assert shared.amplitudes.flags.c_contiguous and shared.amplitudes.base.readonly
    assert np.array_equal(joint_distribution(shared).probs, joint_distribution(dense).probs)
    for register in (DATA, ANCILLA):
        assert np.array_equal(marginal_distribution(shared, register).probs,
                              marginal_distribution(dense, register).probs)
    for register, outcome in ((ANCILLA, 0), (DATA, 5)):
        (prob, cond), (prob_d, cond_d) = (postselect(s, register, outcome) for s in (shared, dense))
        assert prob == prob_d and np.array_equal(cond.amplitudes, cond_d.amplitudes)


# ---------------------------------------------------------------------------
# marginals

def test_marginal_examples():
    state = uniform_superposition(RegisterLayout(2, 1))
    assert marginal_probability(state, ANCILLA, 0) == pytest.approx(1.0, abs=1e-12)
    assert marginal_probability(state, DATA, 3) == pytest.approx(0.25, abs=1e-12)


def test_marginal_of_encoded_state():
    # anc-0 mass = (1/2)(1/2) = 0.25
    assert marginal_probability(encoded_1_2(), ANCILLA, 0) == pytest.approx(0.25, abs=1e-12)


def test_marginal_out_of_range():
    state = uniform_superposition(RegisterLayout(2, 1))
    with pytest.raises(DomainError):
        marginal_probability(state, ANCILLA, 2)
    with pytest.raises(DomainError):
        marginal_probability(state, DATA, 4)
    with pytest.raises(DomainError):
        marginal_probability(state, "junk_register", 0)


# ---------------------------------------------------------------------------
# postselection

def test_postselect_certain_outcome():
    state = uniform_superposition(RegisterLayout(2, 1))
    prob, cond = postselect(state, ANCILLA, 0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cond.amplitudes, state.amplitudes, atol=1e-12)


def test_postselect_impossible_outcome():
    state = uniform_superposition(RegisterLayout(2, 1))
    with pytest.raises(ImpossibleOutcomeError):
        postselect(state, ANCILLA, 1)


def test_postselect_encoded_state():
    # hand computation: a(1) = cos(pi/4), a(2) = 0, so anc=0 leaves only data 0
    prob, cond = postselect(encoded_1_2(), ANCILLA, 0)
    assert prob == pytest.approx(0.25, abs=1e-12)
    assert marginal_probability(cond, DATA, 0) == pytest.approx(1.0, abs=1e-12)


def test_postselect_data_register():
    rng = np.random.default_rng(7)
    state = random_state(RegisterLayout(3, 2), rng)
    prob, cond = postselect(state, DATA, 5)
    assert prob == pytest.approx(marginal_probability(state, DATA, 5), abs=1e-14)
    assert abs(np.linalg.norm(cond.amplitudes) - 1.0) < 1e-10
    assert marginal_probability(cond, DATA, 5) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# joint distribution

def test_joint_uniform_1_1():
    dist = joint_distribution(uniform_superposition(RegisterLayout(1, 1)))
    assert dist[0] == pytest.approx(0.5, abs=1e-12)   # (data 0, anc 0)
    assert dist[2] == pytest.approx(0.5, abs=1e-12)   # (data 1, anc 0)
    assert dist[1] == dist[3] == 0.0


def test_joint_encoded_state():
    dist = joint_distribution(encoded_1_2())
    assert dist[0b00] == pytest.approx(0.25, abs=1e-12)  # (0, anc 0)
    assert dist[0b01] == pytest.approx(0.25, abs=1e-12)  # (0, junk)
    assert dist[0b11] == pytest.approx(0.50, abs=1e-12)  # (1, junk)


def test_joint_normalized_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_state(RegisterLayout(int(rng.integers(1, 6)), int(rng.integers(1, 4))), rng)
        dist = joint_distribution(state)
        assert dist.probs.min() >= 0.0
        assert abs(dist.probs.sum() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# invariants on random states

@pytest.mark.parametrize("n_data,n_anc", [(1, 1), (2, 1), (3, 2), (4, 3), (6, 2)])
def test_marginals_sum_to_one(n_data, n_anc):
    rng = np.random.default_rng(n_data * 10 + n_anc)
    state = random_state(RegisterLayout(n_data, n_anc), rng)
    total = sum(marginal_probability(state, ANCILLA, a) for a in range(1 << n_anc))
    assert abs(total - 1.0) < 1e-10
    total = sum(marginal_probability(state, DATA, d) for d in range(1 << n_data))
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("n_data,n_anc", [(2, 1), (3, 2), (5, 3)])
def test_chain_consistency(n_data, n_anc):
    # joint[(d, a)] = p(anc = a) * p(d | anc = a) wherever the conditional exists
    rng = np.random.default_rng(n_data * 100 + n_anc)
    layout = RegisterLayout(n_data, n_anc)
    state = random_state(layout, rng)
    joint = joint_distribution(state)
    for a in range(layout.anc_dim):
        p_a = marginal_probability(state, ANCILLA, a)
        if p_a <= 1e-12:
            continue
        _, cond = postselect(state, ANCILLA, a)
        for d in range(layout.data_dim):
            expected = p_a * marginal_probability(cond, DATA, d)
            assert abs(joint[(d << n_anc) | a] - expected) < 1e-10


@pytest.mark.parametrize("n_data,n_anc", [(2, 1), (3, 2), (4, 2)])
def test_sequential_equals_joint_distribution_level(n_data, n_anc):
    rng = np.random.default_rng(n_data * 7 + n_anc)
    layout = RegisterLayout(n_data, n_anc)
    state = random_state(layout, rng)
    rebuilt = np.zeros(layout.total_dim)
    for a in range(layout.anc_dim):
        p_a = marginal_probability(state, ANCILLA, a)
        if p_a <= 1e-12:
            continue
        _, cond = postselect(state, ANCILLA, a)
        for d in range(layout.data_dim):
            rebuilt[(d << n_anc) | a] = p_a * marginal_probability(cond, DATA, d)
    tv = reference.total_variation(joint_distribution(state), OutcomeDistribution(rebuilt))
    assert tv <= 1e-10


def test_postselect_preserves_norm_random():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        layout = RegisterLayout(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        state = random_state(layout, rng)
        a = int(rng.integers(layout.anc_dim))
        if marginal_probability(state, ANCILLA, a) <= 1e-12:
            continue
        _, cond = postselect(state, ANCILLA, a)
        assert abs(np.linalg.norm(cond.amplitudes) - 1.0) < 1e-10


def test_instances_and_states_compare_and_hash_by_identity():
    # == compared the arrays field by field, a ValueError, and hash() raised TypeError
    layout = RegisterLayout(2, 1)
    makers = (lambda: generate("explicit", {"costs": [1.0, 2.0, 3.0, 4.0]}),
              lambda: StateVector(layout, np.eye(layout.total_dim)[0]))
    for make in makers:
        first, second = make(), make()
        assert first == first and first != second
        assert len({first, second, first}) == 2


def test_outcome_distribution_validation():
    with pytest.raises(DomainError):
        OutcomeDistribution(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(DomainError):
        OutcomeDistribution(np.array([1.1, -0.1]))  # negative entry
    dist = OutcomeDistribution(np.array([0.25, 0.75]))
    flipped = OutcomeDistribution(np.array([0.75, 0.25]))
    assert reference.total_variation(dist, flipped) == pytest.approx(0.5)
