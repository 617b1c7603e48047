"""Dense two-register states and the reference measurement primitives.

Basis-state indexing packs both registers into one integer::

    composite = (data_index << n_anc) | ancilla_index

so ``amplitudes.reshape(2**n_data, 2**n_anc)[k, a]`` is the amplitude of
|k, a>.  Post-selection on an ancilla outcome is then a strided slice.

The production path builds no dense state but the uniform one: `algorithm`
walks the Born weights of the N success amplitudes that `encoding.encode`
keeps.  The measurement functions here -- `marginal_*`, `postselect`,
`joint_distribution` -- measure a dense encoded state the long way, and the
tests hold `algorithm` to them.  They return floats, new float arrays of
probabilities, or new states.

A state's dtype follows its amplitudes: complex input is stored as
complex128, anything else as float64.  No operation mutates its inputs.  A
state's amplitudes are a read-only view, and a constructor copies a writable
input array rather than freeze the caller's.  `uniform_superposition` keeps
one uniform state per layout, one ancilla row [1/sqrt(N), 0, ..., 0]
broadcast over the N data rows, and `encoding.encode` takes that object by
identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

# Tolerance ladder used across the package: algebraic identities at 1e-12,
# normalization checks at 1e-10, and an outcome with probability <= EPS_PROB
# is treated as impossible (its conditional state is numerically meaningless).
NORM_ATOL = 1e-10
EPS_PROB = 1e-12

DEFAULT_QUBIT_CAP = 24  # bounds the uniform row, the ancilla vector and the tests' dense reference

DATA = "data"
ANCILLA = "ancilla"


def read_only_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of the contiguous 1-D array `a`, or of a copy of it.

    A writable `a` is copied, so the caller's array stays as it was and its
    later writes never reach the view.  A read-only `a` is kept without a
    copy; `uniform_superposition` hands over its ancilla row so, and `encode`
    its success amplitudes `a`.  The view's base is a read-only memoryview, so
    neither setting the view's `flags.writeable` nor writing through `.base`
    succeeds.  This guards against accidental writes only: `.base.obj` is the
    array kept, which a caller can still mark writable again.
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

    Kept as a read-only (data_dim, anc_dim) grid, complex128 for complex input
    and float64 otherwise; a grid of one shared row (stride 0, as from
    `np.broadcast_to`) keeps and norms just that row.  A read-only contiguous
    input of that dtype is kept without a copy; any other input is copied.
    """

    layout: RegisterLayout
    _grid: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.layout.data_dim, self.layout.anc_dim)
        amps = np.asarray(self._grid)
        rows = shape[0] if amps.shape == shape and amps.strides[0] == 0 else 1
        amps = np.ascontiguousarray(amps[0] if rows > 1 else amps,
                                    dtype=complex if np.iscomplexobj(amps) else float)
        if amps.shape != (self.layout.total_dim // rows,):
            raise DomainError(f"expected {self.layout.total_dim} amplitudes, got shape {amps.shape}")
        # one pass with no BLAS call (vdot and vecdot wake a threaded BLAS); NaN stays NaN
        flat = amps.view(float)  # a complex state as its (re, im) pairs
        norm = np.sqrt(rows * np.einsum("i,i->", flat, flat))
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise DomainError(f"state norm {norm} deviates from 1 by more than {NORM_ATOL}")
        grid = np.broadcast_to(read_only_view(amps).reshape(-1, shape[1]), shape)
        object.__setattr__(self, "_grid", grid)

    @property
    def amplitudes(self) -> np.ndarray:
        """The read-only flat amplitudes; a fresh copy when the rows share one row."""
        flat = self._grid.reshape(-1)  # a view, or a copy of a stride-0 grid
        flat.flags.writeable = False
        return read_only_view(flat)

    def grid(self) -> np.ndarray:
        """Amplitudes as (data_dim, anc_dim); row k, column a = |k, a>."""
        return self._grid


@functools.lru_cache(maxsize=None)
def uniform_superposition(layout: RegisterLayout) -> StateVector:
    """Equal-amplitude superposition 1/sqrt(N) over all data states, ancilla at 0.

    Every |k, 0...0> gets amplitude 1/sqrt(2**n_data); everything else is 0.
    The grid is one ancilla row broadcast over the data rows.  Each layout's
    state is kept for the life of the process and shared by every call:
    8 * 2**n_anc bytes each, at most 60 layouts of 64 bytes in a CLI run,
    and under 256 MiB for all 276 layouts under the qubit cap.
    """
    row = np.zeros(layout.anc_dim)
    row[0] = 1.0 / np.sqrt(layout.data_dim)
    row.flags.writeable = False  # handed over, not copied
    return StateVector(layout, np.broadcast_to(row, (layout.data_dim, layout.anc_dim)))


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


def marginal_distribution(state: StateVector, register: str) -> np.ndarray:
    """Outcome probabilities of one register, the other summed out, as a new float array."""
    if register not in (DATA, ANCILLA):
        raise DomainError(f"unknown register {register!r}")
    return (np.abs(state.grid()) ** 2).sum(axis=1 if register == DATA else 0)


def postselect(state: StateVector, register: str, outcome: int) -> tuple[float, StateVector]:
    """Condition on one register reading `outcome`.

    Returns the probability of that outcome together with the renormalized
    conditional state (amplitudes inconsistent with the outcome zeroed).

    Raises:
        DomainError: outcome probability <= EPS_PROB; the conditional state is
            undefined.
    """
    prob = marginal_probability(state, register, outcome)
    if prob <= EPS_PROB:
        raise DomainError(
            f"{register}={outcome} has probability {prob} <= {EPS_PROB}; cannot post-select"
        )
    grid = np.zeros((state.layout.data_dim, state.layout.anc_dim), dtype=state.grid().dtype)
    if register == DATA:
        grid[outcome, :] = state.grid()[outcome, :]
    else:
        grid[:, outcome] = state.grid()[:, outcome]
    grid /= np.sqrt(prob)
    return prob, StateVector(state.layout, grid.reshape(-1))


def joint_distribution(state: StateVector) -> np.ndarray:
    """Born-rule probabilities over composite indices (data << n_anc) | anc, as a new array."""
    return np.abs(state.amplitudes) ** 2
