"""Cost-to-amplitude encoders and the entangling step that writes the ancilla.

Starting from the uniform superposition with ancilla 0...0, `encode` places
amplitude a_k/sqrt(N) on |k, 0...0> where a_k in [0, 1] is the success
amplitude assigned to cost C(k), and routes the leftover sqrt(1 - a_k^2)/sqrt(N)
onto nonzero ancilla outcomes according to the junk policy.  The map is an
isometry on its domain, so the output is again normalized.

`encode` returns that state as an `EncodedInstance`, which keeps the N success
amplitudes a_k and builds the Born weights of its two distinct ancilla columns
anew for each block asked for; it keeps no block, and never builds its grid.

Encoder families, named by their specs (u = cost / c_max after the shift):

    identity     a = 1
    oracle:<t>   a = 1 if cost < t else 0
    cospow:<b>   a = cos(pi * u / 2) ** b
    linear       a = 1 - u

cospow and linear see costs shifted so the minimum is >= 0.  That is
well-defined when the shifted maximum is finite; `shifted_span` refuses an
instance whose costs span more than the float range.  The oracle compares
the raw costs with t, as `count_below` does.  None of the verified bounds
depend on the family choice.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .costfn import CostInstance
from .errors import ConfigurationError, DomainError
from .statevec import NORM_ATOL, RegisterLayout, StateVector, read_only_view, uniform_superposition

CHOICE_ATOL = math.sqrt(np.finfo(float).eps)  # how far from 1 Generator.choice lets p sum


class JunkPolicy(str, enum.Enum):
    """Where the failure amplitude sqrt(1 - a^2) goes on the ancilla."""

    CONCENTRATED = "concentrated"  # all of it on ancilla outcome 0...01
    SPREAD = "spread"              # uniform over every nonzero ancilla outcome


@dataclass(frozen=True)
class AmplitudeEncoder:
    """One member of the cost-to-success-amplitude family, named by its spec."""

    family: str
    param: float | None = None  # oracle threshold tau, or cospow exponent b

    def __post_init__(self) -> None:
        p = self.param
        if self.family in ("identity", "linear"):
            ok = p is None
        else:
            ok = (self.family in ("oracle", "cospow") and p is not None and math.isfinite(p)
                  and (self.family == "oracle" or p > 0))
        if not ok:
            raise ConfigurationError(f"bad encoder: family {self.family!r}, parameter {p!r}")

    @classmethod
    def identity(cls) -> "AmplitudeEncoder":
        return cls("identity")

    @classmethod
    def oracle_threshold(cls, tau: float) -> "AmplitudeEncoder":
        return cls("oracle", float(tau))

    @classmethod
    def cosine_power(cls, b: float) -> "AmplitudeEncoder":
        return cls("cospow", float(b))

    @classmethod
    def linear(cls) -> "AmplitudeEncoder":
        return cls("linear")

    @classmethod
    def parse(cls, spec: str) -> "AmplitudeEncoder":
        """Parse a CLI spec string: identity | oracle:<tau> | cospow:<b> | linear."""
        name, colon, arg = spec.partition(":")
        try:
            return cls(name, float(arg) if colon else None)
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse encoder spec {spec!r}") from exc

    def spec(self) -> str:
        return self.family if self.param is None else f"{self.family}:{self.param:g}"


def shifted_span(encoder: AmplitudeEncoder, instance: CostInstance) -> tuple[float, float] | None:
    """The shift and scale cospow and linear apply, u = (cost - low) / c_max; None
    for identity and the oracle, which scale nothing.

    low = min(0, min cost) and c_max = max cost - low, the largest shifted
    cost, as the shift keeps the order.  Both are Python floats, so a span
    past the float range is refused here, before any array overflows.
    """
    if encoder.family in ("identity", "oracle"):
        return None
    low, high = min(0.0, float(instance.costs.min())), float(instance.costs.max())
    c_max = high - low
    if not math.isfinite(c_max):
        raise ConfigurationError(f"costs from {low!r} to {high!r} span more than the float range; "
                                 "cospow and linear cannot scale them")
    return low, c_max


def instance_amplitudes(encoder: AmplitudeEncoder, instance: CostInstance) -> np.ndarray:
    """Success amplitude for every state of an instance.

    The oracle tests the raw costs.  cospow and linear scale the costs by
    their maximum, after shifting them up so the minimum is 0 when it is
    negative.  The result is a new array; `encode` builds in it.
    """
    costs = instance.costs
    if encoder.family == "identity":
        return np.ones_like(costs)
    if encoder.family == "oracle":
        return (costs < encoder.param).astype(float)
    low, c_max = shifted_span(encoder, instance)
    u = costs - low
    if c_max > 0:  # else every u is 0 already
        u /= c_max
    if encoder.family == "cospow":
        # force the endpoint: float cos(pi/2) ~ 6e-17, and fractional powers
        # would amplify that residue into a spurious success amplitude
        end = u >= 1.0
        u *= np.pi
        u /= 2.0
        np.cos(u, out=u)
        u **= encoder.param  # numpy's scalar-power fast path, as `u ** b` takes
        u[end] = 0.0
        return u
    return np.subtract(1.0, u, out=u)


BLOCK = 1 << 15  # rows per block of Born weights: 256 KiB of float64, cache-sized


def blocks(size: int):
    """Consecutive slices of at most BLOCK entries that cover range(size)."""
    return (slice(start, start + BLOCK) for start in range(0, size, BLOCK))


@dataclass(frozen=True, eq=False)
class EncodedInstance:
    """The encoded state, held as its success amplitudes `a`: the one N-array it keeps.

    Row k of the Born grid P[k, a] = amp(k, a)^2 holds accept_k = a_k^2/N on
    ancilla 0...0 and junk_k on each of `junk_repeats` junk outcomes, which
    share (1 - a_k^2)/N equally: outcome 0...01 alone for CONCENTRATED, all
    2**n_anc - 1 nonzero ones for SPREAD.  Every other entry is 0.  `weights`
    builds both columns for one block of rows.  `totals` are their sums as
    numpy's pairwise `sum` takes them of a whole power-of-two column.
    """

    layout: RegisterLayout
    a: np.ndarray = field(repr=False)
    junk_repeats: int
    totals: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", read_only_view(self.a))
        parts = [[w.sum() for w in self.weights(block)] for block in blocks(self.a.size)]
        while len(parts) > 1:  # the block sums, added in pairs as numpy halves the column
            parts = [[x + y for x, y in zip(*pair)] for pair in zip(parts[::2], parts[1::2])]
        object.__setattr__(self, "totals", tuple(float(s) for s in parts[0]))
        total = self.totals[0] + self.junk_repeats * self.totals[1]
        if not abs(total - 1.0) <= NORM_ATOL:  # NaN fails too
            raise DomainError(f"Born weights sum to {total}, not 1 within {NORM_ATOL}")

    def weights(self, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """The read-only accept and junk weights of the rows in `block`, built anew on each
        call, in place in one order whatever the block, so each has the same bits."""
        accept, root_n = self.a[block].copy(), np.sqrt(self.layout.data_dim)  # accept: a_k^2/N
        junk = np.square(accept)
        np.sqrt(np.clip(np.subtract(1.0, junk, out=junk), 0.0, None, out=junk), out=junk)
        junk /= root_n
        junk /= np.sqrt(self.junk_repeats)  # exact for one repeat
        np.square(junk, out=junk)
        np.square(np.divide(accept, root_n, out=accept), out=accept)
        accept.flags.writeable = junk.flags.writeable = False
        return read_only_view(accept), read_only_view(junk)

    @functools.cached_property
    def sampling_tables(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The ancilla CDF and the post-selected data CDF, built on first use.

        Their `p` vectors round as the dense grid's column sums, taken row by
        row as numpy sums an (N, 2) stack, and its renormalized column 0 do, so
        the draws equal `rng.choice` draws on that grid.  The data table is
        None when no draw can accept.
        """
        sums, data_p = np.zeros(2), np.empty(self.a.size)
        for block in blocks(self.a.size):
            accept, junk_column = self.weights(block)
            data_p[block] = accept
            sums = np.vstack([sums, np.stack([accept, junk_column], axis=1)]).sum(0)
        anc = np.zeros(self.layout.anc_dim)
        anc[0], anc[1:1 + self.junk_repeats] = sums
        accept_sum = self.totals[0]
        data_cdf = _choice_cdf(np.divide(data_p, accept_sum, out=data_p)) if accept_sum > 0 else None
        return _choice_cdf(anc / anc.sum()), data_cdf


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The table `Generator.choice(len(p), size, p=p)` draws from, after its checks on `p`.

    A caller that keeps it gets the same indices from the same stream by
    searching it with `rng.random(size)`, without rebuilding it per draw.
    """
    total = float(p.sum())
    if math.isnan(total) or (p < 0).any() or abs(total - 1.0) > CHOICE_ATOL:
        raise ValueError("probabilities must be non-negative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


# The last call's (state, instance, encoder, junk, result), as one tuple so a
# reader never pairs a new key with an old result.  It holds the state and the
# instance, so their ids cannot be reused while it stands.
_last_encoding: tuple | None = None


def encode(
    state: StateVector,
    instance: CostInstance,
    encoder: AmplitudeEncoder,
    junk: JunkPolicy = JunkPolicy.CONCENTRATED,
) -> EncodedInstance:
    """Entangle the ancilla with the cost of each data state.

    `state` must be the uniform superposition with ancilla 0...0 over the
    same data register as `instance`: the object that
    `uniform_superposition(state.layout)` returns, one per layout.  Any other
    state, however close, raises ConfigurationError.  Output amplitude on
    |k, 0...0> is a_k/sqrt(N); the failure weight goes to nonzero ancilla
    outcomes per the junk policy.

    The result of the last call is kept and returned again, the same object,
    while the call repeats: the same `state` and `instance` objects (`is`;
    both are immutable) and an equal encoder and junk policy.  Any other call
    drops it before it checks its input and builds a new one; `lru_cache` would
    hold the old result and its state until the new one is built, so it is not used.
    """
    global _last_encoding
    last = _last_encoding
    if (last is not None and last[0] is state and last[1] is instance
            and last[2] == encoder and last[3] == junk):
        return last[4]
    _last_encoding = last = None  # free the old result before building the next

    layout = state.layout
    if layout.n_data != instance.n_data:
        raise ConfigurationError(
            f"state has n_data={layout.n_data} but instance has n_data={instance.n_data}"
        )
    if state is not uniform_superposition(layout):
        raise ConfigurationError("encode expects the uniform superposition with ancilla 0...0")

    if junk == JunkPolicy.CONCENTRATED:
        repeats = 1
    elif junk == JunkPolicy.SPREAD:
        repeats = layout.anc_dim - 1
    else:
        raise ConfigurationError(f"unknown junk policy {junk!r}")
    a = instance_amplitudes(encoder, instance)
    a.flags.writeable = False  # handed over, not copied
    encoded = EncodedInstance(layout, a, repeats)
    _last_encoding = (state, instance, encoder, junk, encoded)
    return encoded
