"""Negative controls: encodings that `verify` must flag, and encodings it must pass.

Each case applies one monkeypatch and runs `verify` in-process, with the engine
memos reset, on a hamming_structured table whose one zero-cost state is the only
state below c_tol (M = 1).  `linear` gives that state a = 1, so p_joint sits on
the bound M/N.

The paper's premise is an encoding controlled by the data register and applied
to the uniform state.  A premise breaker builds a state outside it; a claim check
must flag it, so `verify` must exit 1.  Where it does not yet, the case is a
strict expected failure whose reason names the ROADMAP item meant to catch it.
A valid encoding keeps the premise, so the claim holds and `verify` must exit 0.
"""

import numpy as np
import pytest

import postopt.algorithm as algorithm
import postopt.encoding as encoding
import reference
from postopt.baselines import optimal_iterations
from postopt.cli import main
from postopt.costfn import count_below, generate, save_instance
from postopt.encoding import AmplitudeEncoder, EncodedInstance

SIZES = (4, 12, 20)
LINEAR_SPREAD = ["--encoder", "linear", "--junk", "spread", "--n-anc", "3"]

amplitudes = encoding.instance_amplitudes
weights = EncodedInstance.weights

BORN_SUM = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="exits 2: a Born sum off 1 is refused as bad input, not failed as a claim check "
           "(ROADMAP item 3)")
TOLERANCE = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="exits 0: p_joint exceeds M/N by about 2e-12 or 2e-11, inside the bound checks' "
           "1e-9 tolerance (ROADMAP item 7b)")


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """n_data -> (instance, path, c_tol) of a hamming table with M = 1."""
    out = {}
    for n_data in SIZES:
        inst = generate("hamming_structured", {"n_data": n_data, "lipschitz": 1.0,
                                               "n_centers": 3}, seed=1)
        path = tmp_path_factory.mktemp("controls") / f"hamming{n_data}.npz"
        save_instance(inst, path)
        c_tol = float(np.unique(inst.costs)[:2].mean())  # between the two lowest costs
        assert count_below(inst, c_tol) == 1
        out[n_data] = inst, str(path), c_tol
    return out


def verify(monkeypatch, table, flags, target, name, mutant) -> int:
    """The exit code of `verify` on `table` with `target.name` replaced by `mutant`."""
    _, path, c_tol = table
    monkeypatch.setattr(encoding, "_last_encoding", None)
    monkeypatch.setattr(algorithm, "_last_checks", None)
    monkeypatch.setattr(target, name, mutant)
    return main(["verify", path, "--c-tol", repr(c_tol), *flags])


# ---------------------------------------------------------------------------
# premise breakers: verify must exit 1

@pytest.mark.parametrize("delta", [1e-6, 1e-5])
@pytest.mark.parametrize("n_data", [pytest.param(4, marks=BORN_SUM),
                                    pytest.param(12, marks=BORN_SUM),
                                    pytest.param(20, marks=TOLERANCE)])
def test_scaled_amplitudes_fail_a_check(monkeypatch, tables, n_data, delta):
    # a = 1 on the zero-cost state becomes 1 + delta: its Born row sums past 1/N
    code = verify(monkeypatch, tables[n_data], LINEAR_SPREAD, encoding, "instance_amplitudes",
                  lambda *args: amplitudes(*args) * (1.0 + delta))
    assert code == 1


@BORN_SUM
def test_junk_weight_on_every_repeat_fails_a_check(monkeypatch, tables):
    # the junk_repeats division dropped: each of the 7 junk outcomes carries (1 - a^2)/N
    def mutant(self, block):
        accept, junk = weights(self, block)
        return accept, junk * self.junk_repeats

    assert verify(monkeypatch, tables[12], LINEAR_SPREAD, EncodedInstance, "weights", mutant) == 1


@BORN_SUM
def test_scaled_accept_column_fails_a_check(monkeypatch, tables):
    def mutant(self, block):
        accept, junk = weights(self, block)
        return accept * (1.0 + 1e-6), junk

    assert verify(monkeypatch, tables[12], LINEAR_SPREAD, EncodedInstance, "weights", mutant) == 1


def test_grover_amplified_data_distribution_fails_the_bound_checks(monkeypatch, tables):
    # the data distribution after t Grover steps, accepted whole with no junk weight:
    # p_joint = sin^2((2t + 1) theta), far above M/N
    inst, _, c_tol = tables[12]
    probs = reference.grover_state(inst, c_tol, optimal_iterations(inst.n_data, 1)) ** 2
    code = verify(monkeypatch, tables[12], ["--encoder", "identity"], EncodedInstance, "weights",
                  lambda self, block: (probs[block].copy(), np.zeros(probs[block].size)))
    assert code == 1


# ---------------------------------------------------------------------------
# valid encodings: verify must exit 0

VALID = {
    "power_0.999": (LINEAR_SPREAD, lambda *args: amplitudes(*args) ** 0.999),
    "cospow_exponent_1.001b": (  # the same span: cospow's shift and scale do not depend on b
        ["--encoder", "cospow:2", "--junk", "spread", "--n-anc", "3"],
        lambda encoder, *args: amplitudes(AmplitudeEncoder.cosine_power(1.001 * encoder.param),
                                          *args)),
    "swapped_columns_concentrated": (
        ["--encoder", "linear", "--junk", "concentrated", "--n-anc", "1"],
        lambda *args: np.sqrt(1.0 - amplitudes(*args) ** 2)),
}


@pytest.mark.parametrize("n_data", SIZES)
@pytest.mark.parametrize("case", VALID)
def test_a_valid_encoding_passes_every_check(monkeypatch, tables, case, n_data):
    flags, mutant = VALID[case]
    assert verify(monkeypatch, tables[n_data], flags, encoding, "instance_amplitudes", mutant) == 0


@pytest.mark.parametrize("n_data", SIZES)
def test_arbitrary_amplitudes_pass_every_check(monkeypatch, tables, n_data):
    # any a in [0, 1] is a data-controlled encoding, its end points included; a = 1 on
    # the zero-cost state puts p_joint on the bound
    inst = tables[n_data][0]
    rng = np.random.default_rng(n_data)
    a = rng.uniform(0.0, 1.0, inst.size)
    a[rng.random(inst.size) < 0.1] = 0.0
    a[rng.random(inst.size) < 0.1] = 1.0
    a[inst.costs == 0.0] = 1.0
    assert verify(monkeypatch, tables[n_data], LINEAR_SPREAD, encoding, "instance_amplitudes",
                  lambda encoder, instance, block, span: a[block].copy()) == 0
