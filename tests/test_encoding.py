import numpy as np
import pytest

import postopt.encoding as encoding_module
from postopt.costfn import count_below, generate
from postopt.encoding import (
    AmplitudeEncoder,
    JunkPolicy,
    encode,
    instance_amplitudes,
    success_amplitude,
)
from postopt.errors import ConfigurationError, DomainError
from postopt.statevec import ANCILLA, DATA, RegisterLayout, StateVector, marginal_distribution, \
    marginal_probability, postselect, uniform_superposition

ENCODERS = [
    AmplitudeEncoder.identity(),
    AmplitudeEncoder.oracle_threshold(0.4),
    AmplitudeEncoder.cosine_power(0.5),
    AmplitudeEncoder.cosine_power(1),
    AmplitudeEncoder.cosine_power(8),
    AmplitudeEncoder.linear(),
]


def encoded(costs, encoder, junk=JunkPolicy.CONCENTRATED, n_anc=1):
    inst = generate("explicit", {"costs": costs})
    state = uniform_superposition(RegisterLayout(inst.n_data, n_anc))
    return encode(state, inst, encoder, junk), inst


# ---------------------------------------------------------------------------
# success amplitudes

def test_cosine_power_closed_form():
    a = success_amplitude(AmplitudeEncoder.cosine_power(1), cost=1.0, c_max=2.0)
    assert a == pytest.approx(0.7071067811865476, abs=1e-15)  # cos(pi/4)


def test_identity_always_one():
    enc = AmplitudeEncoder.identity()
    for cost in (0.0, 0.3, 2.0):
        assert success_amplitude(enc, cost, 2.0) == 1.0


@pytest.mark.parametrize("b", [0.5, 1, 2, 8])
def test_cosine_power_vanishes_at_max(b):
    assert success_amplitude(AmplitudeEncoder.cosine_power(b), 2.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_linear_and_oracle():
    assert success_amplitude(AmplitudeEncoder.linear(), 0.5, 2.0) == pytest.approx(0.75)
    oracle = AmplitudeEncoder.oracle_threshold(1.0)
    assert success_amplitude(oracle, 0.99, 2.0) == 1.0
    assert success_amplitude(oracle, 1.0, 2.0) == 0.0  # strict threshold


def test_amplitude_in_unit_interval():
    rng = np.random.default_rng(8)
    for enc in ENCODERS:
        for _ in range(50):
            c_max = float(rng.uniform(0.1, 10))
            a = success_amplitude(enc, float(rng.uniform(0, c_max)), c_max)
            assert 0.0 <= a <= 1.0


def test_cost_out_of_range():
    with pytest.raises(DomainError):
        success_amplitude(AmplitudeEncoder.linear(), 3.0, 2.0)
    with pytest.raises(DomainError):
        success_amplitude(AmplitudeEncoder.linear(), -0.5, 2.0)


def test_cosine_power_monotone_in_b():
    # larger exponent pushes every nonzero-cost amplitude toward 0
    for u in (0.1, 0.5, 0.9):
        amps = [success_amplitude(AmplitudeEncoder.cosine_power(b), u, 1.0)
                for b in (0.5, 1, 2, 4, 8, 32)]
        assert all(hi > lo for hi, lo in zip(amps, amps[1:]))
    assert success_amplitude(AmplitudeEncoder.cosine_power(64), 0.5, 1.0) < 1e-9


def test_zero_c_max_treated_as_raw():
    # all-zero instance: every encoder maps cost 0 to amplitude 1
    for enc in ENCODERS:
        assert success_amplitude(enc, 0.0, 0.0) == 1.0


def test_negative_costs_shift_with_threshold():
    inst = generate("explicit", {"costs": [-1.0, 1.0]})
    amps = instance_amplitudes(AmplitudeEncoder.oracle_threshold(0.0), inst)
    assert np.array_equal(amps, [1.0, 0.0])  # -1 < 0 still marked after the shift
    amps = instance_amplitudes(AmplitudeEncoder.cosine_power(1), inst)
    assert amps[0] == pytest.approx(1.0)  # shifted minimum sits at cost 0
    # shifting tau by 1 would round it onto the cost 1e-17 + 1; the oracle must read raw costs
    inst = generate("explicit", {"costs": [-1.0, 1e-17, 0.5, 0.7]})
    amps = instance_amplitudes(AmplitudeEncoder.oracle_threshold(2e-17), inst)
    assert np.array_equal(amps, (inst.costs < 2e-17).astype(float))


# ---------------------------------------------------------------------------
# spec strings

def test_encoder_spec_round_trip():
    for spec in ("identity", "oracle:0.4", "cospow:2", "cospow:0.5", "linear"):
        assert AmplitudeEncoder.parse(spec).spec() == spec


@pytest.mark.parametrize("bad", ["", "oracle", "cospow", "cospow:-1", "magic:3", "identity:1",
                                 "identity:", "linear:", "oracle:inf"])
def test_encoder_spec_rejects(bad):
    with pytest.raises((ConfigurationError, ValueError)):
        AmplitudeEncoder.parse(bad)


@pytest.mark.parametrize("args", [("cospow",), ("cospow", -1.0), ("oracle",), ("identity", 1.0)])
def test_encoder_constructor_rejects(args):
    # the type itself refuses a missing, extra or out-of-range parameter
    with pytest.raises(ConfigurationError):
        AmplitudeEncoder(*args)


# ---------------------------------------------------------------------------
# the encoding step

def test_encode_hand_computed_amplitudes():
    state, _ = encoded([1.0, 2.0], AmplitudeEncoder.cosine_power(1))
    expected = [0.5, 0.5, 0.0, 1 / np.sqrt(2)]  # |0,0>, |0,1>, |1,0>, |1,1>
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_encode_identity_is_noop():
    layout = RegisterLayout(3, 2)
    inst = generate("uniform_random", {"n_data": 3}, seed=2)
    state = uniform_superposition(layout)
    out = encode(state, inst, AmplitudeEncoder.identity(), JunkPolicy.SPREAD)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_encode_oracle_acceptance_is_m_over_n():
    for costs in ([3, 1, 4, 1, 5, 9, 2, 6], [-2.0, 0.0, 1.0, -1.5]):
        inst = generate("explicit", {"costs": costs})
        c_tol = 1.0
        state = uniform_superposition(RegisterLayout(inst.n_data, 1))
        out = encode(state, inst, AmplitudeEncoder.oracle_threshold(c_tol))
        expected = count_below(inst, c_tol) / inst.size
        assert marginal_probability(out, ANCILLA, 0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("junk", list(JunkPolicy))
@pytest.mark.parametrize("n_anc", [1, 2, 3])
def test_encode_is_isometry(junk, n_anc):
    rng = np.random.default_rng(n_anc)
    for enc in ENCODERS:
        inst = generate("uniform_random", {"n_data": 5}, seed=int(rng.integers(2**31)))
        state, _ = encoded(inst.costs.tolist(), enc, junk, n_anc)
        assert abs(state.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("enc", ENCODERS)
def test_acceptance_probability_is_mean_squared_amplitude(enc):
    inst = generate("uniform_random", {"n_data": 6}, seed=31)
    state = encode(uniform_superposition(RegisterLayout(6, 2)), inst, enc)
    expected = float(np.mean(instance_amplitudes(enc, inst) ** 2))
    assert marginal_probability(state, ANCILLA, 0) == pytest.approx(expected, abs=1e-10)


def test_postselected_distribution_proportional_to_amplitude_squared():
    inst = generate("uniform_random", {"n_data": 5}, seed=17)
    enc = AmplitudeEncoder.cosine_power(2)
    state = encode(uniform_superposition(RegisterLayout(5, 1)), inst, enc)
    _, cond = postselect(state, ANCILLA, 0)
    weights = instance_amplitudes(enc, inst) ** 2
    assert np.allclose(
        marginal_distribution(cond, DATA).probs, weights / weights.sum(), atol=1e-10
    )


def test_junk_policies_agree_on_acceptance():
    inst = generate("uniform_random", {"n_data": 4}, seed=23)
    enc = AmplitudeEncoder.linear()
    state_c = encode(uniform_superposition(RegisterLayout(4, 3)), inst, enc, JunkPolicy.CONCENTRATED)
    state_s = encode(uniform_superposition(RegisterLayout(4, 3)), inst, enc, JunkPolicy.SPREAD)
    p_c = marginal_probability(state_c, ANCILLA, 0)
    p_s = marginal_probability(state_s, ANCILLA, 0)
    assert abs(p_c - p_s) <= 1e-12


def test_encode_rejects_mismatched_layout():
    inst = generate("uniform_random", {"n_data": 3}, seed=1)
    with pytest.raises(ConfigurationError):
        encode(uniform_superposition(RegisterLayout(4, 1)), inst, AmplitudeEncoder.identity())


def test_encode_rejects_non_initial_state():
    inst = generate("explicit", {"costs": [1.0, 2.0]})
    state, _ = encoded([1.0, 2.0], AmplitudeEncoder.cosine_power(1))  # not |psi_0>
    with pytest.raises(ConfigurationError):
        encode(state, inst, AmplitudeEncoder.identity())


def test_encode_checks_its_input_with_the_uniform_state_cached():
    inst = generate("uniform_random", {"n_data": 3}, seed=4)
    layout = RegisterLayout(3, 2)
    uniform = uniform_superposition(layout)
    junk_only = np.zeros((layout.data_dim, layout.anc_dim), dtype=complex)
    junk_only[:, 1] = 1.0 / np.sqrt(layout.data_dim)
    with pytest.raises(ConfigurationError):
        encode(StateVector(layout, junk_only.reshape(-1)), inst, AmplitudeEncoder.identity())
    assert uniform_superposition(layout) is uniform  # the refusal ran against the cached state

    # within NORM_ATOL but not equal: accepted through the allclose fallback
    amps = uniform.amplitudes.copy()
    amps[0] += 1e-13
    perturbed = StateVector(layout, amps)
    assert not np.array_equal(perturbed.amplitudes, uniform.amplitudes)
    enc = AmplitudeEncoder.cosine_power(2)
    out = encode(perturbed, inst, enc, JunkPolicy.SPREAD)
    assert np.array_equal(out.amplitudes, encode(uniform, inst, enc, JunkPolicy.SPREAD).amplitudes)


@pytest.mark.parametrize("junk", list(JunkPolicy))
def test_encoded_state_is_real(junk):
    state, _ = encoded([0.1, 0.7, 0.3, 0.9], AmplitudeEncoder.cosine_power(2), junk, n_anc=2)
    assert state.amplitudes.dtype == np.float64


def test_encode_takes_the_shared_uniform_state_without_comparing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the shared uniform state was compared elementwise")

    inst = generate("uniform_random", {"n_data": 3}, seed=6)
    uniform = uniform_superposition(RegisterLayout(3, 2))
    monkeypatch.setattr(np, "array_equal", forbidden)
    monkeypatch.setattr(np, "allclose", forbidden)
    encode(uniform, inst, AmplitudeEncoder.linear(), JunkPolicy.SPREAD)


# ---------------------------------------------------------------------------
# the encode memo

def encode_args():
    """The uniform state of the (3, 2) layout and an n_data=3 instance."""
    return uniform_superposition(RegisterLayout(3, 2)), generate("uniform_random", {"n_data": 3},
                                                                  seed=4)


def test_encode_returns_the_last_result_for_the_same_arguments():
    state, inst = encode_args()
    enc = AmplitudeEncoder.cosine_power(2)
    first = encode(state, inst, enc, JunkPolicy.SPREAD)
    assert encode(state, inst, AmplitudeEncoder.parse("cospow:2"), JunkPolicy.SPREAD) is first


@pytest.mark.parametrize("change", ["instance", "encoder", "junk", "layout"])
def test_encode_builds_afresh_when_a_key_part_changes(change):
    state, inst = encode_args()
    enc, junk = AmplitudeEncoder.cosine_power(2), JunkPolicy.CONCENTRATED
    first = encode(state, inst, enc, junk)
    if change == "instance":  # equal costs, another object
        inst = generate("uniform_random", {"n_data": 3}, seed=4)
    elif change == "encoder":
        enc = AmplitudeEncoder.linear()
    elif change == "junk":
        junk = JunkPolicy.SPREAD
    else:
        state = uniform_superposition(RegisterLayout(3, 3))
    second = encode(state, inst, enc, junk)
    assert second is not first
    encoding_module._last_encoding = None
    assert np.array_equal(second.amplitudes, encode(state, inst, enc, junk).amplitudes)


@pytest.mark.parametrize("shared", ["uniform", "encoded", "costs"])
def test_shared_arrays_cannot_be_made_writable_again(shared):
    state, inst = encode_args()
    enc = AmplitudeEncoder.linear()
    arrays = {"uniform": state.amplitudes, "encoded": encode(state, inst, enc).amplitudes,
              "costs": inst.costs}
    x = arrays[shared]
    before = x.copy()
    with pytest.raises(ValueError):
        x.flags.writeable = True
    assert isinstance(x.base, memoryview) and x.base.readonly
    with pytest.raises((TypeError, NotImplementedError)):  # complex has no memoryview format
        x.base[1] = 5
    with pytest.raises(ValueError):
        np.asarray(x.base).flags.writeable = True
    assert np.array_equal(x, before)
    assert encode(state, inst, enc) is encode(state, inst, enc)  # still accepted, still shared
    encoding_module._last_encoding = None
    encode(uniform_superposition(RegisterLayout(3, 2)), inst, enc)
