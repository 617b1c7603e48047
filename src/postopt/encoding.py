"""Cost-to-amplitude encoders and the entangling step that writes the ancilla.

Starting from the uniform superposition with ancilla 0...0, `encode` places
amplitude a_k/sqrt(N) on |k, 0...0> where a_k in [0, 1] is the success
amplitude assigned to cost C(k), and routes the leftover sqrt(1 - a_k^2)/sqrt(N)
onto nonzero ancilla outcomes according to the junk policy.  The map is an
isometry on its domain, so the output is again normalized.

Encoder families (u = cost / c_max after the instance-level shift):

    identity             a = 1
    oracle_threshold(t)  a = 1 if cost < t else 0
    cosine_power(b)      a = cos(pi * u / 2) ** b
    linear               a = 1 - u

Costs are shifted so the minimum is >= 0 before encoding (thresholds shift
along with them), keeping every family well-defined for arbitrary finite
instances.  None of the verified bounds depend on the family choice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .costfn import CostInstance
from .errors import ConfigurationError, DomainError
from .statevec import NORM_ATOL, StateVector, uniform_superposition


class JunkPolicy(str, enum.Enum):
    """Where the failure amplitude sqrt(1 - a^2) goes on the ancilla."""

    CONCENTRATED = "concentrated"  # all of it on ancilla outcome 0...01
    SPREAD = "spread"              # uniform over every nonzero ancilla outcome


@dataclass(frozen=True)
class AmplitudeEncoder:
    """One member of the cost-to-success-amplitude family."""

    family: str
    tau: float | None = None  # oracle_threshold only
    b: float | None = None    # cosine_power only

    @classmethod
    def identity(cls) -> "AmplitudeEncoder":
        return cls("identity")

    @classmethod
    def oracle_threshold(cls, tau: float) -> "AmplitudeEncoder":
        if not math.isfinite(tau):
            raise ConfigurationError(f"oracle threshold must be finite, got {tau}")
        return cls("oracle_threshold", tau=float(tau))

    @classmethod
    def cosine_power(cls, b: float) -> "AmplitudeEncoder":
        if not (math.isfinite(b) and b > 0):
            raise ConfigurationError(f"cosine_power exponent must be positive and finite, got {b}")
        return cls("cosine_power", b=float(b))

    @classmethod
    def linear(cls) -> "AmplitudeEncoder":
        return cls("linear")

    @classmethod
    def parse(cls, spec: str) -> "AmplitudeEncoder":
        """Parse a CLI spec string: identity | oracle:<tau> | cospow:<b> | linear."""
        name, _, arg = spec.partition(":")
        if name == "identity" and not arg:
            return cls.identity()
        if name == "linear" and not arg:
            return cls.linear()
        if name in ("oracle", "cospow") and arg:
            try:
                value = float(arg)
            except ValueError as exc:
                raise ConfigurationError(f"cannot parse encoder spec {spec!r}") from exc
            return cls.oracle_threshold(value) if name == "oracle" else cls.cosine_power(value)
        raise ConfigurationError(f"cannot parse encoder spec {spec!r}")

    def spec(self) -> str:
        if self.family == "identity":
            return "identity"
        if self.family == "linear":
            return "linear"
        if self.family == "oracle_threshold":
            return f"oracle:{self.tau:g}"
        return f"cospow:{self.b:g}"


def success_amplitude(encoder: AmplitudeEncoder, cost: float, c_max: float) -> float:
    """Success amplitude a in [0, 1] for a single (already shifted) cost."""
    if not 0.0 <= cost <= c_max:
        raise DomainError(f"cost {cost} outside [0, {c_max}]")
    return float(_amplitudes(encoder, np.array([cost]), c_max)[0])


def _amplitudes(encoder: AmplitudeEncoder, costs: np.ndarray, c_max: float) -> np.ndarray:
    u = costs / c_max if c_max > 0 else np.zeros_like(costs)
    if encoder.family == "identity":
        return np.ones_like(costs)
    if encoder.family == "oracle_threshold":
        return (costs < encoder.tau).astype(float)
    if encoder.family == "cosine_power":
        # force the endpoint: float cos(pi/2) ~ 6e-17, and fractional powers
        # would amplify that residue into a spurious success amplitude
        return np.where(u >= 1.0, 0.0, np.cos(np.pi * u / 2.0) ** encoder.b)
    if encoder.family == "linear":
        return 1.0 - u
    raise ConfigurationError(f"unknown encoder family {encoder.family!r}")


def instance_amplitudes(encoder: AmplitudeEncoder, instance: CostInstance) -> np.ndarray:
    """Success amplitude for every state of an instance.

    Applies the instance-level shift: when the minimum cost is negative, all
    costs (and an oracle threshold, which is a cost) move up by the same
    amount, preserving every cost-vs-threshold comparison.
    """
    costs = instance.costs
    shift = -float(costs.min()) if costs.min() < 0 else 0.0
    shifted = costs + shift
    enc = encoder
    if encoder.family == "oracle_threshold" and shift:
        enc = AmplitudeEncoder.oracle_threshold(encoder.tau + shift)
    return _amplitudes(enc, shifted, float(shifted.max()))


def encode(
    state: StateVector,
    instance: CostInstance,
    encoder: AmplitudeEncoder,
    junk: JunkPolicy = JunkPolicy.CONCENTRATED,
) -> StateVector:
    """Entangle the ancilla with the cost of each data state.

    `state` must be the uniform superposition with ancilla 0...0 over the
    same data register as `instance`.  Output amplitude on |k, 0...0> is
    a_k/sqrt(N); the failure weight goes to nonzero ancilla outcomes per the
    junk policy.
    """
    layout = state.layout
    if layout.n_data != instance.n_data:
        raise ConfigurationError(
            f"state has n_data={layout.n_data} but instance has n_data={instance.n_data}"
        )
    expected = uniform_superposition(layout)
    if not np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL):
        raise ConfigurationError("encode expects the uniform superposition with ancilla 0...0")

    amps = instance_amplitudes(encoder, instance)
    fail = np.sqrt(np.clip(1.0 - amps**2, 0.0, None))
    root_n = np.sqrt(layout.data_dim)

    grid = np.zeros((layout.data_dim, layout.anc_dim), dtype=complex)
    grid[:, 0] = amps / root_n
    if junk == JunkPolicy.CONCENTRATED:
        grid[:, 1] = fail / root_n
    elif junk == JunkPolicy.SPREAD:
        grid[:, 1:] = (fail / root_n / np.sqrt(layout.anc_dim - 1))[:, None]
    else:
        raise ConfigurationError(f"unknown junk policy {junk!r}")
    return StateVector(layout, grid.reshape(-1))
