"""Dense two-register states and the reference measurement primitives.

Basis-state indexing packs both registers into one integer::

    composite = (data_index << n_anc) | ancilla_index

so ``amplitudes.reshape(2**n_data, 2**n_anc)[k, a]`` is the amplitude of
|k, a>.  Post-selection on an ancilla outcome is then a strided slice.

The production path builds no dense state but the uniform one: `algorithm`
reads the O(N) Born weights that `encoding.encode` returns.  The measurement
functions here -- `marginal_*`, `postselect`, `joint_distribution` -- take
the long way through explicit conditional states and outcome distributions;
the tests compare `algorithm` against them on a dense encoded state.

A state's dtype follows its amplitudes: complex input is stored as
complex128, anything else as float64.  The uniform state has real
amplitudes, so it is a float64 grid, half the bytes of a complex one.

All operations are pure: they never mutate their inputs, and a constructor
copies a writable input array rather than freeze the caller's.  Amplitude
arrays are read-only views, so states can be shared across concurrent tasks.
The views guard against accidental writes only: ``x.base.obj`` still reaches
the owning array, which numpy lets a caller mark writable again.
`uniform_superposition` keeps the uniform state of the last layout, so
repeated calls share one object, and `encoding.encode` keeps that object as
the key of its last result.  It is the one dense state the production path
holds, at most 128 MiB at the 24-qubit cap; besides it, a verify holds the
cost table, the encoded instance's two Born columns and O(block) temporaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ImpossibleOutcomeError

# Tolerance ladder used across the package: algebraic identities at 1e-12,
# normalization checks at 1e-10, and an outcome with probability <= EPS_PROB
# is treated as impossible (its conditional state is numerically meaningless).
NORM_ATOL = 1e-10
EPS_PROB = 1e-12

DEFAULT_QUBIT_CAP = 24  # 2**24 real amplitudes = 128 MiB per state, the desk-scale limit

DATA = "data"
ANCILLA = "ancilla"


def read_only_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of the contiguous 1-D array `a`, or of a copy of it.

    A writable `a` is copied, so the caller's array stays as it was and its
    later writes never reach the view.  A read-only `a` is kept without a
    copy; `uniform_superposition` and `encode` hand over their grids so.  The
    view's base is a read-only memoryview, so neither setting the view's
    `flags.writeable` nor writing through `.base` succeeds.  This guards
    against accidental writes only: `.base.obj` is the array kept, which a
    caller can still mark writable again.
    """
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return np.frombuffer(memoryview(a).toreadonly(), a.dtype)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit counts for the (data, ancilla) register pair."""

    n_data: int
    n_anc: int

    def __post_init__(self) -> None:
        if self.n_data < 1 or self.n_anc < 1:
            raise DomainError(
                f"need n_data >= 1 and n_anc >= 1, got ({self.n_data}, {self.n_anc})"
            )
        if self.n_data + self.n_anc > DEFAULT_QUBIT_CAP:
            raise CapacityError(
                f"{self.n_data} + {self.n_anc} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}"
            )

    @property
    def data_dim(self) -> int:
        return 1 << self.n_data

    @property
    def anc_dim(self) -> int:
        return 1 << self.n_anc

    @property
    def total_dim(self) -> int:
        return 1 << (self.n_data + self.n_anc)

    def register_dim(self, register: str) -> int:
        if register == DATA:
            return self.data_dim
        if register == ANCILLA:
            return self.anc_dim
        raise DomainError(f"unknown register {register!r}")


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as `encode`'s memo keys it
class StateVector:
    """Normalized amplitudes over the composite (data, ancilla) basis.

    Stored as complex128 when the input is complex, float64 otherwise.  A
    read-only contiguous input of that dtype is kept without a copy; any
    other input is copied, and the caller's array is left as it was.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes)
        amps = np.ascontiguousarray(amps, dtype=complex if np.iscomplexobj(amps) else float)
        if amps.shape != (self.layout.total_dim,):
            raise DomainError(
                f"expected {self.layout.total_dim} amplitudes, got shape {amps.shape}"
            )
        # one pass with no BLAS call (vdot and vecdot wake a threaded BLAS); NaN stays NaN
        flat = amps.view(float)  # a complex state as its (re, im) pairs
        norm = np.sqrt(np.einsum("i,i->", flat, flat))
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise DomainError(f"state norm {norm} deviates from 1 by more than {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", read_only_view(amps))

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to (data_dim, anc_dim); row k, column a = |k, a>."""
        return self.amplitudes.reshape(self.layout.data_dim, self.layout.anc_dim)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability of each outcome of one register (or of the composite index)."""

    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.min(initial=0.0) < -1e-15:
            raise DomainError(f"negative probability {probs.min()}")
        total = probs.sum()
        if not abs(total - 1.0) <= NORM_ATOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, outcome: int) -> float:
        return float(self.probs[outcome])

    def __len__(self) -> int:
        return len(self.probs)


@functools.lru_cache(maxsize=1)
def uniform_superposition(layout: RegisterLayout) -> StateVector:
    """Equal-amplitude superposition 1/sqrt(N) over all data states, ancilla at 0.

    Every |k, 0...0> gets amplitude 1/sqrt(2**n_data); everything else is 0.
    The state of the last layout is kept, so repeated calls return one shared
    object.
    """
    grid = np.zeros((layout.data_dim, layout.anc_dim))
    grid[:, 0] = 1.0 / np.sqrt(layout.data_dim)
    grid.flags.writeable = False  # handed over, not copied
    return StateVector(layout, grid.reshape(-1))


def _check_outcome(layout: RegisterLayout, register: str, outcome: int) -> None:
    dim = layout.register_dim(register)
    if not 0 <= outcome < dim:
        raise DomainError(f"outcome {outcome} out of range for {register} register (dim {dim})")


def marginal_probability(state: StateVector, register: str, outcome: int) -> float:
    """Probability of measuring `outcome` on one register, other register summed out."""
    _check_outcome(state.layout, register, outcome)
    grid = state.grid()
    if register == DATA:
        sq = np.abs(grid[outcome, :]) ** 2
    else:
        sq = np.abs(grid[:, outcome]) ** 2
    return float(sq.sum())


def marginal_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Full outcome distribution of one register."""
    grid = np.abs(state.grid()) ** 2
    axis = 1 if register == DATA else 0
    if register not in (DATA, ANCILLA):
        raise DomainError(f"unknown register {register!r}")
    return OutcomeDistribution(grid.sum(axis=axis))


def postselect(
    state: StateVector, register: str, outcome: int, eps: float = EPS_PROB
) -> tuple[float, StateVector]:
    """Condition on one register reading `outcome`.

    Returns the probability of that outcome together with the renormalized
    conditional state (amplitudes inconsistent with the outcome zeroed).

    Raises:
        ImpossibleOutcomeError: outcome probability <= eps; the conditional
            state is undefined.
    """
    prob = marginal_probability(state, register, outcome)
    if prob <= eps:
        raise ImpossibleOutcomeError(
            f"{register}={outcome} has probability {prob} <= {eps}; cannot post-select"
        )
    grid = np.zeros((state.layout.data_dim, state.layout.anc_dim), dtype=state.amplitudes.dtype)
    if register == DATA:
        grid[outcome, :] = state.grid()[outcome, :]
    else:
        grid[:, outcome] = state.grid()[:, outcome]
    grid /= np.sqrt(prob)
    return prob, StateVector(state.layout, grid.reshape(-1))


def joint_distribution(state: StateVector) -> OutcomeDistribution:
    """Born-rule distribution over composite indices (data << n_anc) | anc."""
    return OutcomeDistribution(np.abs(state.amplitudes) ** 2)

