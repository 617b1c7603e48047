"""Cost-to-amplitude encoders and the entangling step that writes the ancilla.

Starting from the uniform superposition with ancilla 0...0, `encode` places
amplitude a_k/sqrt(N) on |k, 0...0> where a_k in [0, 1] is the success
amplitude assigned to cost C(k), and routes the leftover sqrt(1 - a_k^2)/sqrt(N)
onto nonzero ancilla outcomes according to the junk policy.  The map is an
isometry on its domain, so the output is again normalized.

Encoder families, named by their specs (u = cost / c_max after the shift):

    identity     a = 1
    oracle:<t>   a = 1 if cost < t else 0
    cospow:<b>   a = cos(pi * u / 2) ** b
    linear       a = 1 - u

cospow and linear see costs shifted so the minimum is >= 0, well-defined for
any finite instance; the oracle compares the raw costs with t, as
`count_below` does.  None of the verified bounds depend on the family choice.
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


def success_amplitude(encoder: AmplitudeEncoder, cost: float, c_max: float) -> float:
    """Success amplitude a in [0, 1] for a single (already shifted) cost."""
    if not 0.0 <= cost <= c_max:
        raise DomainError(f"cost {cost} outside [0, {c_max}]")
    costs = np.array([cost])
    return float(_amplitudes(encoder, costs, costs, c_max)[0])


def _amplitudes(encoder: AmplitudeEncoder, costs: np.ndarray, shifted: np.ndarray,
                c_max: float) -> np.ndarray:
    """The oracle tests the raw `costs`; cospow and linear scale `shifted` by c_max."""
    if encoder.family == "identity":
        return np.ones_like(costs)
    if encoder.family == "oracle":
        return (costs < encoder.param).astype(float)
    u = shifted / c_max if c_max > 0 else np.zeros_like(shifted)
    if encoder.family == "cospow":
        # force the endpoint: float cos(pi/2) ~ 6e-17, and fractional powers
        # would amplify that residue into a spurious success amplitude
        return np.where(u >= 1.0, 0.0, np.cos(np.pi * u / 2.0) ** encoder.param)
    return 1.0 - u


def instance_amplitudes(encoder: AmplitudeEncoder, instance: CostInstance) -> np.ndarray:
    """Success amplitude for every state of an instance.

    When the minimum cost is negative, cospow and linear scale the costs
    shifted up so the minimum is 0; the oracle compares the raw costs.
    """
    costs = instance.costs
    shifted = costs - min(0.0, costs.min())
    return _amplitudes(encoder, costs, shifted, float(shifted.max()))


# The last call's (state, instance, encoder, junk, result), as one tuple so a
# reader never pairs a new key with an old result.  It holds the state and the
# instance, so their ids cannot be reused while it stands.
_last_encoding: tuple | None = None


def encode(
    state: StateVector,
    instance: CostInstance,
    encoder: AmplitudeEncoder,
    junk: JunkPolicy = JunkPolicy.CONCENTRATED,
) -> StateVector:
    """Entangle the ancilla with the cost of each data state.

    `state` must be the uniform superposition with ancilla 0...0 over the
    same data register as `instance`: the object
    `uniform_superposition(state.layout)` returns passes at once; any other
    state's amplitudes must equal that state's exactly, or else within
    NORM_ATOL elementwise (`np.allclose`); anything else raises
    ConfigurationError.  Output amplitude on |k, 0...0> is a_k/sqrt(N); the
    failure weight goes to nonzero ancilla outcomes per the junk policy.  All
    of them are real, so the encoded state is a float64 grid.

    The result of the last call is kept and returned again, the same object,
    while the call repeats: the same `state` and `instance` objects (`is`;
    both are immutable) and an equal encoder and junk policy.  Any other call
    drops it before it checks its input and builds a new state.
    """
    global _last_encoding
    last = _last_encoding
    if (last is not None and last[0] is state and last[1] is instance
            and last[2] == encoder and last[3] == junk):
        return last[4]
    _last_encoding = last = None  # free the old state before building the next

    layout = state.layout
    if layout.n_data != instance.n_data:
        raise ConfigurationError(
            f"state has n_data={layout.n_data} but instance has n_data={instance.n_data}"
        )
    expected = uniform_superposition(layout)
    if state is not expected and not (
            np.array_equal(state.amplitudes, expected.amplitudes)
            or np.allclose(state.amplitudes, expected.amplitudes, atol=NORM_ATOL)):
        raise ConfigurationError("encode expects the uniform superposition with ancilla 0...0")

    amps = instance_amplitudes(encoder, instance)
    fail = np.sqrt(np.clip(1.0 - amps**2, 0.0, None))
    root_n = np.sqrt(layout.data_dim)

    grid = np.zeros((layout.data_dim, layout.anc_dim))
    grid[:, 0] = amps / root_n
    if junk == JunkPolicy.CONCENTRATED:
        grid[:, 1] = fail / root_n
    elif junk == JunkPolicy.SPREAD:
        grid[:, 1:] = (fail / root_n / np.sqrt(layout.anc_dim - 1))[:, None]
    else:
        raise ConfigurationError(f"unknown junk policy {junk!r}")
    encoded = StateVector(layout, grid.reshape(-1))
    _last_encoding = (state, instance, encoder, junk, encoded)
    return encoded
