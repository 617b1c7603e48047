"""The prepare / encode / post-select / measure procedure and its bound checks.

`exact_analysis` computes, from the encoded state's exact amplitudes:

    p_first  probability the ancilla reads 0...0
    p_cond   probability the post-selected data sample has cost < c_tol
    p_joint  their product, the per-preparation success probability

and checks them against the ceiling M/N, where M counts states with cost
strictly below c_tol.  `chain_decomposition` evaluates p(A & B) three ways
(A = low-cost data outcome, B = ancilla 0...0), `sequential_vs_joint_check`
compares the two measurement orderings at the distribution level, and
`run_repeat_until_success` is the sampled protocol.

Every quantity is a sum over the encoded instance's Born weights, O(N) of
them whatever n_anc is: p_first is the ancilla-0 column sum, the
post-selected data distribution is that column renormalized, and the
register marginals are row and column sums.  The exact checks read those
columns and `costs < c_tol` in blocks of BLOCK entries with masked sums, so
their temporaries are O(BLOCK).  The `statevec` measurement functions compute
the same quantities the long way on the dense state; the tests hold this
module to them.

Sampling draws from numpy's PCG64 generator (``np.random.default_rng``), so
sampled outcomes are reproducible for a fixed seed.  The sampled protocol
draws through the encoded instance's ancilla CDF and post-selected data CDF
the very indices `Generator.choice` would draw with the same `p` and stream.

Tolerance ladder, used package-wide: 1e-12 for algebraic identities, 1e-9
for bound checks (float error accumulated over N terms), 5-sigma bands for
sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costfn import CostInstance, count_below
from .encoding import AmplitudeEncoder, EncodedInstance, JunkPolicy, encode
from .errors import ConfigurationError
from .statevec import EPS_PROB, RegisterLayout, uniform_superposition

ATOL_IDENTITY = 1e-12
ATOL_BOUND = 1e-9
BLOCK = 1 << 15  # entries per block of the exact checks: 256 KiB of float64, cache-sized


@dataclass(frozen=True)
class RunConfig:
    """Everything one run of the procedure depends on besides the instance."""

    c_tol: float
    encoder: AmplitudeEncoder
    junk: JunkPolicy = JunkPolicy.CONCENTRATED
    n_anc: int = 1
    max_preparations: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.c_tol):
            raise ConfigurationError(f"c_tol must be finite, got {self.c_tol}")
        if self.max_preparations < 1:
            raise ConfigurationError("max_preparations must be >= 1")
        if self.n_anc < 1:
            raise ConfigurationError("n_anc must be >= 1")
        if self.seed < 0:  # numpy's generators refuse it with a bare ValueError
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExactAnalysis:
    """Exact success probabilities of one configuration and their ceiling.

    `p_cond` is None when the ancilla never reads 0...0 (p_first below the
    impossible-outcome threshold); p_joint is then 0.
    `max_per_state_product` is the largest p_first * p(data = k | ancilla
    0...0) over every k; no encoder can push it above 1/N.
    """

    p_first: float
    p_cond: float | None
    p_joint: float
    m: int
    n: int
    bound: float
    max_per_state_product: float


@dataclass(frozen=True)
class ChainDecomposition:
    """p(A & B) computed three ways; A = cost < c_tol, B = ancilla 0...0.

    `via_ancilla` = p(A|B) p(B), `direct` = p(A & B) off the joint
    distribution, `via_cost` = p(B|A) p(A).  A conditional that is undefined
    (p(B) ~ 0 or M = 0) leaves its route and `p_b_given_a` as None; `direct`
    is always reported.
    """

    direct: float
    via_ancilla: float | None
    via_cost: float | None
    p_b_given_a: float | None


@dataclass(frozen=True)
class TrialStats:
    """Counts and estimates from a sampled repeat-until-success run."""

    preparations_used: int
    accepted_samples: int
    low_cost_hits: int
    p_joint_estimate: float
    first_hit_preparation: int | None


def encoded_state(instance: CostInstance, config: RunConfig) -> EncodedInstance:
    """Prepare |psi_0> and run the cost encoding for this configuration."""
    layout = RegisterLayout(instance.n_data, config.n_anc)
    return encode(uniform_superposition(layout), instance, config.encoder, config.junk)


def _blocks(size: int):
    """Consecutive slices of at most BLOCK entries that cover range(size)."""
    return (slice(start, start + BLOCK) for start in range(0, size, BLOCK))


def exact_analysis(instance: CostInstance, config: RunConfig) -> ExactAnalysis:
    """Success probabilities of one attempt, from the exact amplitudes."""
    accept = encoded_state(instance, config).accept
    n = instance.size
    m = count_below(instance, config.c_tol)

    p_first = float(accept.sum())
    if p_first <= EPS_PROB:
        # acceptance never happens; the conditional is undefined
        return ExactAnalysis(p_first, None, 0.0, m, n, m / n, float(accept.max()))

    p_cond = max_product = 0.0
    for block in _blocks(n):
        cond_data = accept[block] / p_first
        p_cond += float(cond_data.sum(where=instance.costs[block] < config.c_tol))
        max_product = max(max_product, float((p_first * cond_data).max()))
    return ExactAnalysis(p_first, p_cond, p_first * p_cond, m, n, m / n, max_product)


def chain_decomposition(instance: CostInstance, config: RunConfig) -> ChainDecomposition:
    """Evaluate the probability chain p(A|B)p(B) = p(A & B) = p(B|A)p(A).

    The via-cost route exposes p(B|A): since p(A) is exactly M/N on this
    state, p(A & B) = (M/N) * p(B|A) <= M/N, which is the entire reason the
    scheme cannot beat random search.
    """
    encoded = encoded_state(instance, config)
    accept = encoded.accept
    p_first = float(accept.sum())
    direct = p_a_given_b = p_a = joint_a_b = 0.0
    for block in _blocks(instance.size):
        low = instance.costs[block] < config.c_tol
        acc = accept[block]
        direct += float(acc.sum(where=low))
        if p_first > EPS_PROB:
            p_a_given_b += float((acc / p_first).sum(where=low))
        data_marg = acc + encoded.junk_repeats * encoded.junk_column[block]  # Born grid row sums
        p_a += float(data_marg.sum(where=low))
        cond_b_given_k = np.divide(acc, data_marg, out=np.zeros_like(data_marg),
                                   where=data_marg > EPS_PROB)
        joint_a_b += float((data_marg * cond_b_given_k).sum(where=low))

    via_ancilla = p_a_given_b * p_first if p_first > EPS_PROB else None
    via_cost = p_b_given_a = None
    if p_a > 0:  # exactly when M > 0: every row of the Born grid sums to about 1/N
        p_b_given_a = joint_a_b / p_a
        via_cost = p_b_given_a * p_a

    return ChainDecomposition(direct, via_ancilla, via_cost, p_b_given_a)


def sequential_vs_joint_check(instance: CostInstance, config: RunConfig) -> float:
    """Total variation distance between the two measurement orderings.

    Compares the distribution over (data, ancilla) outcomes from the joint
    Born rule with ancilla-marginal times post-selected data conditional,
    column by column over the distinct ancilla column shapes, the repeated
    junk column counting once per repeat.  The law of total probability says
    the distance is zero; the contract allows 1e-10 of float slack.
    """
    encoded = encoded_state(instance, config)
    distance = 0.0
    for column, repeats in ((encoded.accept, 1), (encoded.junk_column, encoded.junk_repeats)):
        p_a = float(column.sum())
        for block in _blocks(column.size):
            part = column[block]
            rebuilt = part / p_a * p_a if p_a > EPS_PROB else 0.0  # no weight, no conditional
            distance += repeats * float(np.abs(rebuilt - part).sum())
    return 0.5 * distance


def _draw(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` indices drawn through a `_choice_cdf` table, as `choice` with replacement does."""
    return cdf.searchsorted(rng.random(size), side="right")


def run_repeat_until_success(instance: CostInstance, config: RunConfig) -> TrialStats:
    """Sample the full protocol: prepare, encode, measure ancilla, retry on junk.

    Every preparation is an independent draw from the same encoded state, so
    the run consumes the whole `max_preparations` budget and counts every
    accepted sample and every low-cost hit along the way (back-to-back
    repeat-until-success episodes); `first_hit_preparation` records when the
    first episode would have stopped.  Deterministic for a fixed seed.

    Repeats on one encoded instance share its two sampling tables, built on
    the first repeat, and draw from them what `rng.choice` with the same `p`
    would draw: the ancilla outcomes, then the data outcomes of the accepted
    preparations.
    """
    anc_cdf, data_cdf = encoded_state(instance, config).sampling_tables
    rng = np.random.default_rng(config.seed)
    budget = config.max_preparations

    accepted_at = np.nonzero(_draw(anc_cdf, rng, budget) == 0)[0]

    hits = np.zeros(0, dtype=bool)
    if accepted_at.size:
        hits = instance.costs[_draw(data_cdf, rng, accepted_at.size)] < config.c_tol

    n_hits = int(hits.sum())
    first_hit = int(accepted_at[np.nonzero(hits)[0][0]]) + 1 if n_hits else None
    return TrialStats(
        preparations_used=budget,
        accepted_samples=int(accepted_at.size),
        low_cost_hits=n_hits,
        p_joint_estimate=n_hits / budget,
        first_hit_preparation=first_hit,
    )
