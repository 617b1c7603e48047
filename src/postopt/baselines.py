"""Comparison strategies: random search, hill climbing, amplitude amplification.

Random search is the benchmark the post-selection scheme provably cannot
beat; hill climbing shows what exploiting landscape structure buys, with the
restarts of a run descending in lockstep blocks that reproduce the one-by-one
loop the tests keep as its reference; the Grover baseline is the genuine
quantum speedup, simulated exactly with an ideal cost < c_tol oracle in its
two-dimensional marked/unmarked subspace (Brassard, Hoyer, Mosca & Tapp,
quant-ph/0005055), and the sin^2 closed form it is reported beside is a
Chebyshev polynomial of cos 2 theta, evaluated in stdlib decimal at a
precision that grows with the iteration count.  The tests hold that
simulation to a dense O(t * N) Grover loop kept beside them.

Trial counting is in cost-oracle calls for the classical strategies, so
their `trials_used` are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costfn import CostInstance, count_below
from .errors import ConfigurationError, DomainError

_BLOCK = 4096  # random draws, and so hill-climb walkers, come in blocks of this size


@dataclass(frozen=True)
class SearchResult:
    trials_used: int
    best_index: int
    best_cost: float
    hit: bool


def random_search(
    instance: CostInstance, c_tol: float, seed: int = 0, max_trials: int = 10_000
) -> SearchResult:
    """Draw uniform indices with replacement until cost < c_tol or budget ends.

    Trials to first hit is geometric with mean N/M.
    """
    if max_trials < 1:
        raise DomainError("max_trials must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    best_index, best_cost = -1, math.inf
    used = 0
    while used < max_trials:
        block = rng.integers(0, instance.size, size=min(_BLOCK, max_trials - used))
        block_costs = instance.costs[block]
        hit_pos = np.nonzero(block_costs < c_tol)[0]
        stop = int(hit_pos[0]) + 1 if hit_pos.size else len(block)
        seen = block_costs[:stop]
        local_best = int(np.argmin(seen))
        if seen[local_best] < best_cost:
            best_index, best_cost = int(block[local_best]), float(seen[local_best])
        used += stop
        if hit_pos.size:
            return SearchResult(used, best_index, best_cost, True)
    return SearchResult(used, best_index, best_cost, best_cost < c_tol)


def hill_climb(
    instance: CostInstance, c_tol: float, seed: int = 0, max_restarts: int = 100
) -> SearchResult:
    """Steepest single-bit-flip descent with random restarts.

    From each random start, move to the strictly improving Hamming-1 neighbor
    with the lowest cost (ties toward the lowest bit index) until a local
    minimum.  Every cost evaluation counts as a trial and is checked against
    c_tol, so the search stops the moment it has seen a low-cost state.

    The restarts run in blocks of up to _BLOCK walkers that descend in
    lockstep, one array step per descent level.  Composing the walkers in
    restart order up to the first one that hit gives the trials, best state
    and hit of running the restarts one after another: every walker's best
    is where it stopped, and the earliest restart and step win cost ties.
    """
    if max_restarts < 1:
        raise DomainError("max_restarts must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    costs = instance.costs
    bits = 1 << np.arange(instance.n_data)
    best_index, best_cost = -1, math.inf
    trials = 0
    for start in range(0, max_restarts, _BLOCK):
        size = min(_BLOCK, max_restarts - start)
        cur = rng.integers(0, instance.size, size=size)
        cur_cost = costs[cur]
        hit = cur_cost < c_tol
        used = np.ones(size, dtype=np.int64)  # the start is each walker's first trial
        walking = np.flatnonzero(~hit)
        while walking.size:
            batch = cur[walking, None] ^ bits
            batch_costs = costs[batch]
            below = batch_costs < c_tol
            first = below.argmax(axis=1)
            row = np.arange(walking.size)
            found = below[row, first]
            # a row that hits stops at its first cost below c_tol, which is also its argmin
            step = np.where(found, first, batch_costs.argmin(axis=1))
            used[walking] += np.where(found, first + 1, instance.n_data)
            step_cost = batch_costs[row, step]
            moves = found | (step_cost < cur_cost[walking])
            movers = walking[moves]
            cur[movers] = batch[row, step][moves]
            cur_cost[movers] = step_cost[moves]
            hit[walking[found]] = True
            walking = walking[moves & ~found]
        hits = np.flatnonzero(hit)
        stop = int(hits[0]) + 1 if hits.size else size
        trials += int(used[:stop].sum())
        k = int(np.argmin(cur_cost[:stop]))
        if cur_cost[k] < best_cost:
            best_index, best_cost = int(cur[k]), float(cur_cost[k])
        if hits.size:
            return SearchResult(trials, best_index, best_cost, True)
    return SearchResult(trials, best_index, best_cost, best_cost < c_tol)


def amplitude_amplification_success(n_data: int, m: int, iterations: int) -> float:
    """Closed-form success probability of Grover iterations: sin^2((2t+1) theta).

    theta = arcsin(sqrt(M/N)); t = 0 reduces to random sampling, M/N.  With
    c = cos(2 theta) = 1 - 2M/N, sin^2(k theta) = (1 - T_k(c)) / 2 for the
    Chebyshev polynomial T_k and k = 2t + 1.  T_k(c) is built in decimal
    arithmetic over the bits of k, from the pair (T_j, T_j+1) by
    T_2j = 2 T_j^2 - 1 and T_2j+1 = 2 T_j T_j+1 - c: O(log t) products and no
    transcendental function.  c is exact, as N is a power of two, and each
    doubling at most quadruples the error it is handed, so n_data + 30 digits
    plus one per bit of k leave the result within about 1e-30 at any t, and
    where it could lie halfway between two doubles the ladder runs exactly.  In
    doubles, theta's rounding error times 2t+1 reaches 1e-10 by t = 10^5.
    """
    n = 1 << n_data
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= M <= N, got M={m}, N={n}")
    if iterations < 0:
        raise DomainError("iterations must be >= 0")
    import decimal  # here, not at module top: only compare's Grover records use it

    k, x = 2 * iterations + 1, n - 2 * m
    bits = n_data + 1 - (x & -x).bit_length() if x else 0  # c = x / N = odd / 2**bits
    # For bits >= 1, T_j(c) has at most (bits - 1) j + 1 digits after the point, and a result
    # halfway between two doubles at most 1075: wherever one can occur, `exact` digits, at
    # most 2150, keep the ladder exact and the float correctly rounded.  For bits = 0, c and
    # every T_j(c) are integers.
    exact = (bits - 1) * (k + 1) + 2
    with decimal.localcontext() as context:
        context.prec = max(n_data + 30 + k.bit_length(), exact if exact <= 2150 else 0)
        c = decimal.Decimal(x) / n
        low, high = decimal.Decimal(1), c  # T_j, T_j+1 from j = 0
        for bit in bin(k)[2:]:
            if bit == "1":
                low, high = 2 * low * high - c, 2 * high * high - 1
            else:
                low, high = 2 * low * low - 1, 2 * low * high - c
        return float((1 - low) / 2)


def optimal_iterations(n_data: int, m: int) -> int:
    """Iteration count maximizing the closed form: round(pi/(4 theta) - 1/2)."""
    n = 1 << n_data
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= M <= N, got M={m}, N={n}")
    theta = math.asin(math.sqrt(m / n))
    return max(0, round(math.pi / (4 * theta) - 0.5))


def _grover_pair(size: int, m: int, iterations: int) -> tuple[float, float]:
    """The (marked, unmarked) amplitudes after `iterations` Grover steps on N = size.

    Each step's rounding moves the pair's norm m a^2 + (N - m) b^2 as well as
    its angle; by t = 10^7 the norm alone can be 1e-12 off.  The steps keep the
    norm exactly in exact arithmetic, so the pair is scaled back to norm 1 at
    the end, which leaves only the angle's drift.
    """
    a = b = 1.0 / math.sqrt(size)
    for _ in range(iterations):
        a = -a
        mean = (m * a + (size - m) * b) / size
        a, b = 2.0 * mean - a, 2.0 * mean - b
    norm = math.sqrt(m * a * a + (size - m) * b * b)
    return a / norm, b / norm


def grover_simulate(instance: CostInstance, c_tol: float, iterations: int) -> float:
    """Probability mass on the cost < c_tol states after exact Grover steps.

    The oracle flip and the diffusion both keep every marked state on one
    amplitude and every unmarked state on another, so the steps run on that
    pair: O(N) to count the M marked states, then O(1) per step.  This is
    the step arithmetic of the dense loop, not the sin^2 closed form.
    """
    if iterations < 0:
        raise DomainError("iterations must be >= 0")
    m = count_below(instance, c_tol)
    if m < 1:
        raise DomainError("Grover iteration needs at least one marked state")
    a, _ = _grover_pair(instance.size, m, iterations)
    return m * a * a
