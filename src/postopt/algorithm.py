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

Every quantity is read off one array, the encoded state's Born grid
P[k, a] = |amp(k, a)|^2, squared as amp(k, a)^2 since the encoded amplitudes
are real (x * x and |x| * |x| round alike): p_first is the ancilla-0 column
sum, the post-selected data distribution is that column renormalized, and
the two register marginals are the row and column sums.  The measurement
functions in `statevec` (`postselect`, `marginal_*`, `joint_distribution`)
compute the same quantities the long way; the tests hold this module to
them.

Sampling draws from numpy's PCG64 generator (``np.random.default_rng``), a
published, seedable algorithm, so sampled outcomes are reproducible for a
fixed seed.

Tolerance ladder, used package-wide: 1e-12 for algebraic identities, 1e-9
for bound checks (float error accumulated over N terms), 5-sigma bands for
sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costfn import CostInstance, count_below
from .encoding import AmplitudeEncoder, JunkPolicy, encode
from .errors import ConfigurationError
from .statevec import EPS_PROB, RegisterLayout, StateVector, uniform_superposition

ATOL_IDENTITY = 1e-12
ATOL_BOUND = 1e-9
SIGMA_BAND = 5.0
ROW_BLOCK = 1 << 12  # Born grid rows squared at a time where the full grid is not kept


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


@dataclass(frozen=True)
class ExactAnalysis:
    """Exact success probabilities of one configuration and their ceiling.

    `p_cond` is None when the ancilla never reads 0...0 (p_first below the
    impossible-outcome threshold); p_joint is then 0.  `per_state_products`
    holds p_first * p(data = k | ancilla 0...0) for every k; no encoder can
    push any of them above 1/N.
    """

    p_first: float
    p_cond: float | None
    p_joint: float
    m: int
    n: int
    bound: float
    per_state_products: np.ndarray = field(repr=False)


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
    ci_low: float
    ci_high: float
    expected_preparations_per_hit: float
    first_hit_preparation: int | None


def encoded_state(instance: CostInstance, config: RunConfig) -> StateVector:
    """Prepare |psi_0> and run the cost encoding for this configuration."""
    layout = RegisterLayout(instance.n_data, config.n_anc)
    return encode(uniform_superposition(layout), instance, config.encoder, config.junk)


def _born_blocks(grid: np.ndarray):
    """(rows, P[rows]) over the Born grid, ROW_BLOCK rows at a time."""
    for start in range(0, len(grid), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        yield rows, np.square(grid[rows])


def exact_analysis(instance: CostInstance, config: RunConfig) -> ExactAnalysis:
    """Success probabilities of one attempt, from the exact amplitudes."""
    accept = np.square(encoded_state(instance, config).grid()[:, 0])  # Born column P[:, 0]
    n = instance.size
    m = count_below(instance, config.c_tol)
    low = instance.costs < config.c_tol

    p_first = float(accept.sum())
    if p_first <= EPS_PROB:
        # acceptance never happens; the conditional is undefined
        return ExactAnalysis(p_first, None, 0.0, m, n, m / n, accept)

    cond_data = accept / p_first
    p_cond = float(cond_data[low].sum())
    products = p_first * cond_data
    return ExactAnalysis(p_first, p_cond, p_first * p_cond, m, n, m / n, products)


def chain_decomposition(instance: CostInstance, config: RunConfig) -> ChainDecomposition:
    """Evaluate the probability chain p(A|B)p(B) = p(A & B) = p(B|A)p(A).

    The via-cost route exposes p(B|A): since p(A) is exactly M/N on this
    state, p(A & B) = (M/N) * p(B|A) <= M/N, which is the entire reason the
    scheme cannot beat random search.
    """
    grid = encoded_state(instance, config).grid()
    accept = np.square(grid[:, 0])
    low = instance.costs < config.c_tol
    direct = float(accept[low].sum())

    p_first = float(accept.sum())
    via_ancilla = None
    if p_first > EPS_PROB:
        p_a_given_b = float((accept / p_first)[low].sum())
        via_ancilla = p_a_given_b * p_first

    via_cost = None
    p_b_given_a = None
    if low.any():
        data_marg = np.empty(len(grid))  # row sums of the Born grid, a block at a time
        for rows, probs in _born_blocks(grid):
            probs.sum(1, out=data_marg[rows])
        p_a = float(data_marg[low].sum())
        cond_b_given_k = np.divide(accept, data_marg, out=np.zeros_like(data_marg),
                                   where=data_marg > EPS_PROB)
        p_b_given_a = float((data_marg[low] * cond_b_given_k[low]).sum()) / p_a
        via_cost = p_b_given_a * p_a

    return ChainDecomposition(direct, via_ancilla, via_cost, p_b_given_a)


def sequential_vs_joint_check(instance: CostInstance, config: RunConfig) -> float:
    """Total variation distance between the two measurement orderings.

    Builds the distribution over (data, ancilla) outcomes once from the joint
    Born rule and once as ancilla-marginal times post-selected data
    conditional, column by column over ancilla outcomes.  The law of total
    probability says the distance is zero; the contract allows 1e-10 of
    float slack.

    One full-size float buffer: it starts as the Born grid, is rebuilt in
    place, and the Born grid is squared again a block of rows at a time to
    subtract.  A dead column divides by inf and rebuilds to 0.
    """
    grid = encoded_state(instance, config).grid()
    rebuilt = np.square(grid)
    anc = rebuilt.sum(0)
    live = anc > EPS_PROB
    rebuilt /= np.where(live, anc, np.inf)
    rebuilt *= anc
    for rows, probs in _born_blocks(grid):
        rebuilt[rows] -= probs
    np.abs(rebuilt, out=rebuilt)
    return 0.5 * float(rebuilt.sum())


def wilson_interval(hits: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p_hat = hits / trials
    denom = 1.0 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_repeat_until_success(instance: CostInstance, config: RunConfig) -> TrialStats:
    """Sample the full protocol: prepare, encode, measure ancilla, retry on junk.

    Every preparation is an independent draw from the same encoded state, so
    the run consumes the whole `max_preparations` budget and counts every
    accepted sample and every low-cost hit along the way (back-to-back
    repeat-until-success episodes); `first_hit_preparation` records when the
    first episode would have stopped.  Deterministic for a fixed seed.
    """
    probs = np.square(encoded_state(instance, config).grid())
    data_dim, anc_dim = probs.shape
    rng = np.random.default_rng(config.seed)
    budget = config.max_preparations

    anc_probs = probs.sum(0)
    anc_draws = rng.choice(anc_dim, size=budget, p=anc_probs / anc_probs.sum())
    accepted_at = np.nonzero(anc_draws == 0)[0]

    hits = np.zeros(0, dtype=bool)
    if accepted_at.size:
        cond_data = probs[:, 0] / probs[:, 0].sum()
        data_draws = rng.choice(data_dim, size=accepted_at.size, p=cond_data)
        hits = instance.costs[data_draws] < config.c_tol

    n_hits = int(hits.sum())
    first_hit = int(accepted_at[np.nonzero(hits)[0][0]]) + 1 if n_hits else None
    ci_low, ci_high = wilson_interval(n_hits, budget)
    return TrialStats(
        preparations_used=budget,
        accepted_samples=int(accepted_at.size),
        low_cost_hits=n_hits,
        p_joint_estimate=n_hits / budget,
        ci_low=ci_low,
        ci_high=ci_high,
        expected_preparations_per_hit=budget / n_hits if n_hits else math.inf,
        first_hit_preparation=first_hit,
    )
