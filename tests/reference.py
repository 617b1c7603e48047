"""Dense references the tests hold production to.

`instance_amplitudes` and `born_columns` are the out-of-place arithmetic of
`encoding.instance_amplitudes` and `encoding.encode`, one temporary per
operation; production builds the same bits in place, and `columns` joins
its block weights into whole columns to compare.  `encode` builds the
whole (2**n_data, 2**n_anc) amplitude grid of the encoded state, as a
`statevec.StateVector`, so that the `statevec` measurement functions can
measure it the long way.  The production path holds only the
Born weights of the distinct ancilla columns; the tests hold it to this.
`total_variation` compares two of those measured distributions, and
`grover_state` is the dense Grover loop that `baselines.grover_simulate`
runs on two amplitudes.
"""

from __future__ import annotations

import numpy as np

from postopt.algorithm import RunConfig, TrialStats
from postopt.costfn import CostInstance
from postopt.encoding import AmplitudeEncoder, EncodedInstance, JunkPolicy, blocks
from postopt.errors import DomainError
from postopt.statevec import OutcomeDistribution, RegisterLayout, StateVector


def instance_amplitudes(encoder: AmplitudeEncoder, instance: CostInstance) -> np.ndarray:
    """Success amplitude for every state, one new array per operation."""
    costs = instance.costs
    if encoder.family == "identity":
        return np.ones_like(costs)
    if encoder.family == "oracle":
        return (costs < encoder.param).astype(float)
    shifted = costs - min(0.0, costs.min())
    c_max = float(shifted.max())
    u = shifted / c_max if c_max > 0 else np.zeros_like(shifted)
    if encoder.family == "cospow":
        return np.where(u >= 1.0, 0.0, np.cos(np.pi * u / 2.0) ** encoder.param)
    return 1.0 - u


def born_columns(instance: CostInstance, encoder: AmplitudeEncoder, junk: JunkPolicy,
                 n_anc: int) -> tuple[np.ndarray, np.ndarray]:
    """The accept and junk columns of the encoded instance, one new array per operation."""
    layout = RegisterLayout(instance.n_data, n_anc)
    amps = instance_amplitudes(encoder, instance)
    root_n = np.sqrt(layout.data_dim)
    junk_column = np.sqrt(np.clip(1.0 - amps**2, 0.0, None)) / root_n
    if junk == JunkPolicy.SPREAD:
        junk_column /= np.sqrt(layout.anc_dim - 1)
    return np.square(amps / root_n), np.square(junk_column)


def columns(encoded: EncodedInstance) -> tuple[np.ndarray, np.ndarray]:
    """The whole accept and junk columns of a production encoding, its block weights joined."""
    parts = [encoded.weights(block) for block in blocks(encoded.a.size)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def encode(instance: CostInstance, encoder: AmplitudeEncoder,
           junk: JunkPolicy = JunkPolicy.CONCENTRATED, n_anc: int = 1) -> StateVector:
    """The encoded state: a_k/sqrt(N) on |k, 0...0>, the failure amplitude on junk outcomes."""
    layout = RegisterLayout(instance.n_data, n_anc)
    amps = instance_amplitudes(encoder, instance)
    fail = np.sqrt(np.clip(1.0 - amps**2, 0.0, None))
    root_n = np.sqrt(layout.data_dim)

    grid = np.zeros((layout.data_dim, layout.anc_dim))
    grid[:, 0] = amps / root_n
    if junk == JunkPolicy.CONCENTRATED:
        grid[:, 1] = fail / root_n
    else:
        grid[:, 1:] = (fail / root_n / np.sqrt(layout.anc_dim - 1))[:, None]
    return StateVector(layout, grid.reshape(-1))


def encoded_state(instance: CostInstance, config: RunConfig) -> StateVector:
    """The dense encoded state of one configuration."""
    return encode(instance, config.encoder, config.junk, config.n_anc)


def choice_p(instance: CostInstance, config: RunConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """The `p` of each draw: the grid's column sums, then its column 0, normalized.

    The second is None when column 0 has no weight.
    """
    probs = np.square(encoded_state(instance, config).grid())
    anc, accept = probs.sum(0), probs[:, 0]
    return anc / anc.sum(), accept / accept.sum() if accept.sum() > 0 else None


def run_repeat_until_success(instance: CostInstance, config: RunConfig) -> TrialStats:
    """The sampled protocol through `rng.choice` on the dense grid's Born weights."""
    anc_p, data_p = choice_p(instance, config)
    rng = np.random.default_rng(config.seed)
    budget = config.max_preparations
    accepted_at = np.nonzero(rng.choice(len(anc_p), budget, p=anc_p) == 0)[0]
    hits = np.zeros(0, dtype=bool)
    if accepted_at.size:
        hits = instance.costs[rng.choice(len(data_p), accepted_at.size, p=data_p)] < config.c_tol
    n_hits = int(hits.sum())
    first_hit = int(accepted_at[np.nonzero(hits)[0][0]]) + 1 if n_hits else None
    return TrialStats(budget, int(accepted_at.size), n_hits, n_hits / budget, first_hit)


def total_variation(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Half the L1 distance; 0 means statistically indistinguishable."""
    if len(p) != len(q):
        raise DomainError("distributions live on different outcome sets")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def grover_state(instance: CostInstance, c_tol: float, iterations: int) -> np.ndarray:
    """Amplitudes over the data register after `iterations` Grover steps.

    Each step phase-flips the states with cost < c_tol, then reflects about
    the mean (diffusion).  No ancilla: the oracle is ideal.  O(iterations * N).
    """
    marked = instance.costs < c_tol
    amps = np.full(instance.size, 1.0 / np.sqrt(instance.size))
    for _ in range(iterations):
        amps = np.where(marked, -amps, amps)
        amps = 2.0 * amps.mean() - amps
    return amps
