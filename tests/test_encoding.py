import gc
import weakref

import numpy as np
import pytest

import postopt.encoding as encoding_module
import reference
from postopt.costfn import count_below, generate
from postopt.encoding import (
    AmplitudeEncoder,
    EncodedInstance,
    JunkPolicy,
    encode,
    instance_amplitudes,
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
    """The dense reference encoding of an explicit cost table, and the instance."""
    inst = generate("explicit", {"costs": costs})
    return reference.encode(inst, encoder, junk, n_anc), inst


def born_grid(state):
    """The production encoding's Born weights, in the dense grid's layout."""
    grid = np.zeros((state.layout.data_dim, state.layout.anc_dim))
    accept, junk = reference.columns(state)
    grid[:, 0] = accept
    grid[:, 1:1 + state.junk_repeats] = junk[:, None]
    return grid


# ---------------------------------------------------------------------------
# success amplitudes

def amplitudes(encoder, costs):
    return instance_amplitudes(encoder, generate("explicit", {"costs": costs}))


def test_cosine_power_closed_form():
    a = amplitudes(AmplitudeEncoder.cosine_power(1), [0.0, 1.0, 2.0, 2.0])[1]  # half-way up
    assert a == pytest.approx(0.7071067811865476, abs=1e-15)  # cos(pi/4)


def test_identity_always_one():
    assert np.array_equal(amplitudes(AmplitudeEncoder.identity(), [0.0, 0.3, 2.0, 2.0]),
                          np.ones(4))


@pytest.mark.parametrize("b", [0.5, 1, 2, 8])
def test_cosine_power_vanishes_at_max(b):
    a = amplitudes(AmplitudeEncoder.cosine_power(b), [0.0, 1.0, 0.5, 2.0])
    assert a[3] == pytest.approx(0.0, abs=1e-12)


def test_linear_and_oracle():
    assert amplitudes(AmplitudeEncoder.linear(), [0.0, 0.5, 1.0, 2.0])[1] == pytest.approx(0.75)
    oracle = amplitudes(AmplitudeEncoder.oracle_threshold(1.0), [0.0, 0.99, 1.0, 2.0])
    assert oracle[1] == 1.0
    assert oracle[2] == 0.0  # strict threshold


def test_amplitude_in_unit_interval():
    rng = np.random.default_rng(8)
    for enc in ENCODERS:
        for _ in range(50):
            n_data = int(rng.integers(1, 6))
            costs = rng.uniform(0, float(rng.uniform(0.1, 10)), size=1 << n_data)
            a = amplitudes(enc, costs)
            assert np.all((0.0 <= a) & (a <= 1.0))


def test_cosine_power_monotone_in_b():
    # larger exponent pushes every nonzero-cost amplitude toward 0
    costs = [0.0, 0.1, 0.5, 0.9, 1.0, 1.0, 1.0, 1.0]
    amps = np.array([amplitudes(AmplitudeEncoder.cosine_power(b), costs)[1:4]
                     for b in (0.5, 1, 2, 4, 8, 32)])
    assert np.all(amps[:-1] > amps[1:])
    assert amplitudes(AmplitudeEncoder.cosine_power(64), costs)[2] < 1e-9


def test_zero_c_max_treated_as_raw():
    # c_max = 0, raw or after the shift up from a negative minimum: cospow and
    # linear see u = 0, and every cost lies below the oracle's threshold
    for enc in ENCODERS:
        for cost in (0.0, -0.5):
            assert np.array_equal(amplitudes(enc, [cost] * 4), np.ones(4))


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


def test_a_span_past_the_float_range_is_refused_before_any_array_op():
    # costs - min overflowed to inf, and the Born weights then summed to nan
    inst = generate("explicit", {"costs": [-1e308, 1e308]})
    for enc in (AmplitudeEncoder.cosine_power(2), AmplitudeEncoder.linear()):
        with pytest.raises(ConfigurationError, match="span more than the float range"):
            instance_amplitudes(enc, inst)
    assert np.array_equal(amplitudes(AmplitudeEncoder.identity(), inst.costs), [1.0, 1.0])
    assert np.array_equal(amplitudes(AmplitudeEncoder.oracle_threshold(0.0), inst.costs),
                          [1.0, 0.0])
    # the widest span that still fits scales as before: the top cost reaches u = 1
    top = np.finfo(float).max
    assert np.array_equal(amplitudes(AmplitudeEncoder.linear(), [-top / 2, top / 2]), [1.0, 0.0])


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


@pytest.mark.parametrize("scale", [1.0 + 2e-10, 1.0 - 2e-10, np.nan])
def test_encoded_instance_refuses_weights_that_do_not_sum_to_one(scale, monkeypatch):
    # every row built from an amplitude in [0, 1] sums to about 1/N, so a total
    # below one is reached only through a block builder that scales its weights
    inst = generate("uniform_random", {"n_data": 4}, seed=5)
    out = encode(uniform_superposition(RegisterLayout(4, 3)), inst, AmplitudeEncoder.linear(),
                 JunkPolicy.SPREAD)
    EncodedInstance(out.layout, out.a, out.junk_repeats)
    weights = EncodedInstance.weights
    monkeypatch.setattr(EncodedInstance, "weights",
                        lambda self, block: tuple(w * scale for w in weights(self, block)))
    with pytest.raises(DomainError):
        EncodedInstance(out.layout, out.a, out.junk_repeats)


@pytest.mark.parametrize("junk", list(JunkPolicy))
@pytest.mark.parametrize("n_anc", [1, 2, 3])
def test_encode_weights_are_the_dense_reference_born_grid(junk, n_anc):
    inst = generate("uniform_random", {"n_data": 5}, seed=n_anc)
    for enc in ENCODERS:
        out = encode(uniform_superposition(RegisterLayout(5, n_anc)), inst, enc, junk)
        dense = reference.encode(inst, enc, junk, n_anc)
        assert np.array_equal(born_grid(out), np.square(dense.grid()))


def held_arrays(x) -> list:
    """Every array held in `x`, through tuples and lists."""
    if isinstance(x, np.ndarray):
        return [x]
    return [a for item in x for a in held_arrays(item)] if isinstance(x, (tuple, list)) else []


@pytest.mark.parametrize("junk", list(JunkPolicy))
def test_an_encoded_instance_holds_one_n_array(junk):
    # the amplitudes; the Born weights are built per block, and only the last block is kept
    inst = generate("uniform_random", {"n_data": 17}, seed=1)
    out = encode(uniform_superposition(RegisterLayout(17, 2)), inst, AmplitudeEncoder.linear(),
                 junk)
    for block in encoding_module.blocks(inst.size):
        out.weights(block)
    held = held_arrays(list(vars(out).values()))
    big = [x for x in held if x.size >= inst.size]
    assert len(big) == 1 and big[0] is out.a and out.a.size == inst.size
    assert sum(x.nbytes for x in held) <= 8 * inst.size + 2 * 8 * encoding_module.BLOCK


@pytest.mark.parametrize("n_data", [3, 15, 16, 18])
def test_columns_and_totals_are_the_whole_column_arithmetic(n_data):
    # built per block, every weight has the bits of the whole-column arithmetic, and
    # `totals` are numpy's sums of the whole columns
    inst = generate("hamming_structured", {"n_data": n_data}, seed=n_data)
    state = uniform_superposition(RegisterLayout(n_data, 3))
    for spec in ("cospow:2", "linear", "oracle:4"):
        enc = AmplitudeEncoder.parse(spec)
        accept, junk = reference.born_columns(inst, enc, JunkPolicy.SPREAD, 3)
        out = encode(state, inst, enc, JunkPolicy.SPREAD)
        got_accept, got_junk = reference.columns(out)
        assert np.array_equal(got_accept.view(np.uint64), accept.view(np.uint64)), spec
        assert np.array_equal(got_junk.view(np.uint64), junk.view(np.uint64)), spec
        assert out.totals == (float(accept.sum()), float(junk.sum())), spec


BIT_TABLES = {
    "signed": ("uniform_random", {"n_data": 10, "low": -1.0, "high": 2.0}),
    "hamming": ("hamming_structured", {"n_data": 9}),
    "constant_zero": ("explicit", {"costs": [0.0] * 8}),  # c_max = 0
    "constant_negative": ("explicit", {"costs": [-1.5] * 8}),  # c_max = 0 after the shift
}
BIT_ENCODERS = ["identity", "oracle:0.3", "cospow:0.5", "cospow:1", "cospow:2", "cospow:8",
                "cospow:3.7", "linear"]


@pytest.mark.parametrize("n_anc", [1, 3])
@pytest.mark.parametrize("junk", list(JunkPolicy))
@pytest.mark.parametrize("table", list(BIT_TABLES))
def test_in_place_encoding_is_bit_identical_to_the_out_of_place_reference(table, junk, n_anc):
    kind, params = BIT_TABLES[table]
    inst = generate(kind, params, seed=3)
    state = uniform_superposition(RegisterLayout(inst.n_data, n_anc))
    for spec in BIT_ENCODERS:
        enc = AmplitudeEncoder.parse(spec)
        want_accept, want_junk = reference.born_columns(inst, enc, junk, n_anc)
        pairs = [(instance_amplitudes(enc, inst), reference.instance_amplitudes(enc, inst))]
        out = encode(state, inst, enc, junk)
        pairs += zip(reference.columns(out), (want_accept, want_junk))
        for got, want in pairs:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), spec


def test_encode_identity_is_noop():
    inst = generate("uniform_random", {"n_data": 3}, seed=2)
    out = reference.encode(inst, AmplitudeEncoder.identity(), JunkPolicy.SPREAD, n_anc=2)
    assert np.allclose(out.amplitudes, uniform_superposition(out.layout).amplitudes, atol=1e-15)


def test_encode_oracle_acceptance_is_m_over_n():
    for costs in ([3, 1, 4, 1, 5, 9, 2, 6], [-2.0, 0.0, 1.0, -1.5]):
        inst = generate("explicit", {"costs": costs})
        c_tol = 1.0
        out = reference.encode(inst, AmplitudeEncoder.oracle_threshold(c_tol))
        expected = count_below(inst, c_tol) / inst.size
        assert marginal_probability(out, ANCILLA, 0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("junk", list(JunkPolicy))
@pytest.mark.parametrize("n_anc", [1, 2, 3])
def test_encode_is_isometry(junk, n_anc):
    rng = np.random.default_rng(n_anc)
    for enc in ENCODERS:
        inst = generate("uniform_random", {"n_data": 5}, seed=int(rng.integers(2**31)))
        state, _ = encoded(inst.costs.tolist(), enc, junk, n_anc)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


@pytest.mark.parametrize("enc", ENCODERS)
def test_acceptance_probability_is_mean_squared_amplitude(enc):
    inst = generate("uniform_random", {"n_data": 6}, seed=31)
    state = reference.encode(inst, enc, n_anc=2)
    expected = float(np.mean(instance_amplitudes(enc, inst) ** 2))
    assert marginal_probability(state, ANCILLA, 0) == pytest.approx(expected, abs=1e-10)


def test_postselected_distribution_proportional_to_amplitude_squared():
    inst = generate("uniform_random", {"n_data": 5}, seed=17)
    enc = AmplitudeEncoder.cosine_power(2)
    state = reference.encode(inst, enc)
    _, cond = postselect(state, ANCILLA, 0)
    weights = instance_amplitudes(enc, inst) ** 2
    assert np.allclose(
        marginal_distribution(cond, DATA).probs, weights / weights.sum(), atol=1e-10
    )


def test_junk_policies_agree_on_acceptance():
    inst = generate("uniform_random", {"n_data": 4}, seed=23)
    enc = AmplitudeEncoder.linear()
    state_c = reference.encode(inst, enc, JunkPolicy.CONCENTRATED, n_anc=3)
    state_s = reference.encode(inst, enc, JunkPolicy.SPREAD, n_anc=3)
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

    # within NORM_ATOL, and equal: refused all the same, as only the shared state passes
    amps = uniform.amplitudes.copy()
    amps[0] += 1e-13
    for other in (StateVector(layout, amps), StateVector(layout, uniform.amplitudes.copy())):
        with pytest.raises(ConfigurationError):
            encode(other, inst, AmplitudeEncoder.cosine_power(2), JunkPolicy.SPREAD)
    assert uniform_superposition(layout) is uniform


def test_encode_takes_a_uniform_state_built_before_another_layouts():
    # each layout keeps its own uniform state, so building a second layout's
    # does not turn the first into a state `encode` refuses
    state = uniform_superposition(RegisterLayout(3, 1))
    uniform_superposition(RegisterLayout(3, 2))
    inst = generate("uniform_random", {"n_data": 3}, seed=4)
    encoded = encode(state, inst, AmplitudeEncoder.identity())
    assert encoded.layout == RegisterLayout(3, 1)
    assert np.abs(reference.columns(encoded)[0] - 1 / 8).max() <= 1e-12  # identity: every state accepts


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
    assert np.array_equal(born_grid(second), born_grid(encode(state, inst, enc, junk)))


def test_encode_drops_the_last_result_before_it_builds_the_next(monkeypatch):
    # a cache that stores the new result before it evicts the old one, as
    # functools.lru_cache(maxsize=1) does, would hold two encodings at the peak
    inst = generate("uniform_random", {"n_data": 3}, seed=4)
    state = uniform_superposition(RegisterLayout(3, 1))
    out = encode(state, inst, AmplitudeEncoder.linear())
    last = weakref.ref(out)
    del out
    amplitudes = encoding_module.instance_amplitudes

    def spy(encoder, instance):
        gc.collect()
        assert last() is None, "the last encoding is still held"
        return amplitudes(encoder, instance)

    monkeypatch.setattr(encoding_module, "instance_amplitudes", spy)
    encode(uniform_superposition(RegisterLayout(3, 3)), inst, AmplitudeEncoder.linear())


@pytest.mark.parametrize("shared", ["uniform", "encoded", "junk", "amplitudes", "costs"])
def test_shared_arrays_cannot_be_made_writable_again(shared):
    # the encoded instance shares its amplitudes; its block weights are built per
    # call, and read-only all the same
    state, inst = encode_args()
    enc = AmplitudeEncoder.linear()
    out = encode(state, inst, enc)
    accept, junk = out.weights(next(encoding_module.blocks(inst.size)))
    arrays = {"uniform": state.amplitudes, "encoded": accept, "junk": junk,
              "amplitudes": out.a, "costs": inst.costs}
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
