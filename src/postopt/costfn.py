"""Cost tables over bitstrings, brute-force oracles, and instance generators.

An instance is an explicit table of 2**n_data finite costs, so M-counting
and argmin are exact enumerations.  Generators are deterministic given
(kind, params, seed); provenance records all three.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ConfigurationError, DomainError
from .statevec import read_only_view

@dataclass(frozen=True)
class CostInstance:
    """Cost value for each of the N = 2**n_data bitstrings."""

    n_data: int
    costs: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        costs = np.ascontiguousarray(self.costs, dtype=float)
        if self.n_data < 1:
            raise DomainError(f"need n_data >= 1, got {self.n_data}")
        # bit lengths first: for a huge header, 1 << n_data is itself a huge integer
        if costs.size.bit_length() != self.n_data + 1 or costs.shape != (1 << self.n_data,):
            raise DomainError(
                f"expected 2**{self.n_data} costs for n_data={self.n_data}, "
                f"got shape {costs.shape}"
            )
        if not np.all(np.isfinite(costs)):
            raise DomainError("costs must all be finite")
        object.__setattr__(self, "costs", read_only_view(costs))

    @property
    def size(self) -> int:
        return 1 << self.n_data

    @property
    def c_max(self) -> float:
        return float(self.costs.max())


def count_below(instance: CostInstance, c_tol: float) -> int:
    """M = number of states with cost strictly below c_tol."""
    return int(np.count_nonzero(instance.costs < c_tol))


def min_cost(instance: CostInstance) -> tuple[int, float]:
    """Argmin index and minimum cost; ties broken toward the smallest index."""
    k = int(np.argmin(instance.costs))  # argmin returns the first occurrence
    return k, float(instance.costs[k])


def hamming_distances(n_data: int, center: int) -> np.ndarray:
    """Hamming distance from every index in [0, 2**n_data) to `center`."""
    idx = np.arange(1 << n_data, dtype=np.int64) ^ center
    dist = np.zeros(1 << n_data, dtype=np.int64)
    for j in range(n_data):
        dist += (idx >> j) & 1
    return dist


def generate(kind: str, params: dict, seed: int = 0) -> CostInstance:
    """Build a cost instance of the given kind.

    Kinds:
        explicit          params: {"costs": sequence of 2**n values}
        uniform_random    params: {"n_data": int, "low": float, "high": float}
        number_partition  params: {"weights": n_data positive reals};
                          cost(k) = |sum of +-w_i| where bit i of k set
                          means w_i enters with a minus sign
        hamming_structured params: {"n_data": int, "lipschitz": L,
                          "n_centers": int}; cost(k) = min over centers c of
                          offset_c + L * hamming(k, c), so every single-bit
                          flip changes the cost by at most L
    """
    rng = np.random.default_rng(seed)
    provenance = {"kind": kind, "seed": int(seed), "params": dict(params)}

    if kind == "explicit":
        costs = np.asarray(params["costs"], dtype=float)
        n_data = int(costs.size).bit_length() - 1
        if costs.size != 1 << n_data or costs.size < 2:
            raise ConfigurationError(
                f"explicit costs must number a power of two >= 2, got {costs.size}"
            )
        return CostInstance(n_data, costs, provenance)

    if kind == "uniform_random":
        n_data = int(params["n_data"])
        low = float(params.get("low", 0.0))
        high = float(params.get("high", 1.0))
        if n_data < 1 or not low < high:
            raise ConfigurationError(f"bad uniform_random params {params}")
        costs = rng.uniform(low, high, size=1 << n_data)
        return CostInstance(n_data, costs, provenance)

    if kind == "number_partition":
        weights = np.asarray(params["weights"], dtype=float)
        if weights.ndim != 1 or weights.size < 1 or np.any(weights <= 0):
            raise ConfigurationError("number_partition needs a list of positive weights")
        n_data = int(weights.size)
        idx = np.arange(1 << n_data, dtype=np.int64)
        signed = np.zeros(1 << n_data)
        for i, w in enumerate(weights):
            signs = 1.0 - 2.0 * ((idx >> i) & 1)  # bit set -> minus
            signed += signs * w
        return CostInstance(n_data, np.abs(signed), provenance)

    if kind == "hamming_structured":
        n_data = int(params["n_data"])
        lipschitz = float(params.get("lipschitz", 1.0))
        n_centers = int(params.get("n_centers", 3))
        if n_data < 1 or lipschitz <= 0 or n_centers < 1:
            raise ConfigurationError(f"bad hamming_structured params {params}")
        centers = rng.integers(0, 1 << n_data, size=n_centers)
        offsets = np.sort(rng.uniform(0.0, lipschitz * n_data / 2.0, size=n_centers))
        offsets[0] = 0.0  # pin the global minimum at the first center
        # min over L-Lipschitz cones is L-Lipschitz in Hamming distance
        cones = [off + lipschitz * hamming_distances(n_data, int(c))
                 for c, off in zip(centers, offsets)]
        return CostInstance(n_data, np.minimum.reduce(cones), provenance)

    raise ConfigurationError(f"unknown generator kind {kind!r}")


_PARSE_BLOCK_BYTES = 1 << 20  # whole lines of text parsed per np.fromstring call
_SAVE_BLOCK = 8192  # costs formatted per write; a multiple of the 8 per line


def save_instance(instance: CostInstance, path: str | Path) -> None:
    """Write an instance file; `.json` or `.npz` extension selects that form.

    Every format round-trips costs bit-exactly: text and JSON through repr,
    `.npz` as raw float64.
    """
    path = Path(path)
    if path.suffix == ".json":
        payload = {
            "n_data": instance.n_data,
            "costs": instance.costs.tolist(),
            "provenance": instance.provenance,
        }
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        return
    if path.suffix == ".npz":
        np.savez(path, costs=instance.costs, n_data=instance.n_data,
                 provenance=json.dumps(instance.provenance, sort_keys=True))
        return
    with path.open("w") as out:
        out.write(f"n_data={instance.n_data}\n")
        for start in range(0, instance.size, _SAVE_BLOCK):
            costs = instance.costs[start:start + _SAVE_BLOCK].tolist()
            out.writelines(" ".join(map(repr, costs[i:i + 8])) + "\n"
                           for i in range(0, len(costs), 8))


def load_instance(path: str | Path) -> CostInstance:
    """Read an instance file: `.npz` by its suffix, else JSON or text by content.

    The text body is parsed about 1 MiB of whole lines at a time, so a load
    holds the table and one block of text, never a Python object per cost.
    """
    if Path(path).suffix == ".npz":
        return _load_npz(path)
    with open(path, "rb") as f:
        line = f.readline()
        while line.isspace():  # blank lines before the header or the JSON object
            line = f.readline()
        line = line.lstrip()
        if not line.startswith(b"{"):
            return _load_text(path, line, f)
        data = line + f.read()
    try:
        payload = json.loads(data)
        n_data = payload["n_data"]
        # a JSON integer only, as the text form refuses n_data=2.0: int() would
        # truncate 2.7 to 2, and true is an int in Python
        if type(n_data) is not int:
            raise TypeError(f"n_data must be an integer, got {n_data!r}")
        costs = np.asarray(payload["costs"], dtype=float)
        costs.flags.writeable = False  # handed over, not copied
        return CostInstance(n_data, costs, dict(payload.get("provenance", {})))
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; a cost integer past float
    # range raises OverflowError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: malformed instance JSON ({exc})") from exc


def _load_text(path: str | Path, line: bytes, f: BinaryIO) -> CostInstance:
    """The text form, from its first non-blank line, left-stripped, and the rest of `f`."""
    # a lone \r also ends the header line, as a universal-newline read splits it
    header, _, rest = line.partition(b"\r")
    if not header.startswith(b"n_data="):
        raise ConfigurationError(f"{path}: expected 'n_data=<int>' header")
    parts = []
    try:
        n_data = int(header[len(b"n_data="):].decode())
        with warnings.catch_warnings():
            # numpy >= 2 raises ValueError at a bad token; numpy < 2 warns and stops there
            warnings.simplefilter("error", DeprecationWarning)
            block = rest + b"".join(f.readlines(_PARSE_BLOCK_BYTES))
            while block:
                if not block.isspace():  # fromstring reads blank-only text as [-1.0]
                    parts.append(np.fromstring(block, sep=" "))
                block = b"".join(f.readlines(_PARSE_BLOCK_BYTES))
    # UnicodeDecodeError is a ValueError
    except (ValueError, DeprecationWarning) as exc:
        raise ConfigurationError(f"{path}: malformed instance file ({exc})") from exc
    costs = np.concatenate(parts) if parts else np.empty(0)
    costs.flags.writeable = False  # handed over, not copied
    return CostInstance(n_data, costs, {"kind": "file", "path": str(path)})


def _load_npz(path: str | Path) -> CostInstance:
    """Read the `.npz` form: float64 `costs`, integer `n_data`, JSON `provenance`."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            costs, n_data, provenance = npz["costs"], npz["n_data"], npz["provenance"]
        if costs.dtype != np.float64 or costs.ndim != 1:
            raise TypeError(f"costs must be 1-D float64, got {costs.dtype} {costs.shape}")
        if n_data.shape != () or n_data.dtype.kind not in "iu":
            raise TypeError(f"n_data must be an integer scalar, got {n_data!r}")
        if provenance.shape != () or provenance.dtype.kind != "U":
            raise TypeError(f"provenance must be a JSON string, got {provenance!r}")
        provenance = dict(json.loads(provenance.item()))
    # np.load raises ValueError on pickled content; a .npy file has no __enter__; numpy
    # allocates the shape a member's header declares before it reads the data
    except (KeyError, TypeError, ValueError, AttributeError, EOFError, MemoryError,
            zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"{path}: malformed instance .npz ({exc})") from exc
    costs.flags.writeable = False  # handed over, not copied
    return CostInstance(int(n_data), costs, provenance)
