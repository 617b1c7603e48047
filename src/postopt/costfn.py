"""Cost tables over bitstrings, brute-force oracles, and instance generators.

An instance is an explicit table of 2**n_data finite costs, so M-counting
and argmin are exact enumerations.  Generators are deterministic given
(kind, params, seed); provenance records all three.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ConfigurationError, DomainError
from .statevec import read_only_view

CENTERS_MAX = 500  # hamming_structured makes one O(N) pass per center; 500 take about 3 s at n=20

@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as `encode`'s memo keys it
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
    """Hamming distance (int64) from each index in [0, 2**n_data) to `center`, by doubling."""
    dist = np.zeros(1 << n_data, dtype=np.int64)
    for j in range(n_data):  # the indices [half, 2*half) are [0, half) with bit j set
        half, bit = 1 << j, center >> j & 1
        np.add(dist[:half], 1 - bit, out=dist[half:2 * half])
        dist[:half] += bit
    return dist


def check_params(kind: str, params: dict) -> tuple:
    """The parameters of one generator kind, parsed and checked; n_data first.

    Returns (n_data,) for explicit, (n_data, weights) for number_partition,
    (n_data, low, high) for uniform_random and (n_data, lipschitz, n_centers)
    for hamming_structured.  It builds nothing the size of a cost table, so a
    caller can refuse a bad request before any work.
    """
    if kind == "explicit":
        size = len(params["costs"])
        n_data = size.bit_length() - 1
        if size < 2 or size != 1 << n_data:  # size 0 would shift by -1
            raise ConfigurationError(f"explicit costs must number a power of two >= 2, got {size}")
        return (n_data,)
    if kind == "number_partition":
        weights = np.asarray(params["weights"], dtype=float)
        if weights.ndim != 1 or weights.size < 1 or not np.all(weights > 0):  # NaN fails > 0
            raise ConfigurationError("number_partition needs a list of positive weights")
        largest = 0.0  # the all-plus entry, summed in the table's order; it bounds every entry
        for w in weights.tolist():
            largest += w
        if not math.isfinite(largest):
            raise ConfigurationError("number_partition weights must have a finite sum")
        return int(weights.size), weights
    if kind not in ("uniform_random", "hamming_structured"):
        raise ConfigurationError(f"unknown generator kind {kind!r}")
    n_data = int(params["n_data"])
    if kind == "uniform_random":
        low, high = float(params.get("low", 0.0)), float(params.get("high", 1.0))
        # rng.uniform overflows on an infinite range
        if n_data < 1 or not low < high or not math.isfinite(high - low):
            raise ConfigurationError(f"bad uniform_random params {params}")
        return n_data, low, high
    lipschitz = float(params.get("lipschitz", 1.0))
    n_centers = int(params.get("n_centers", 3))
    # the largest cone value, an offset below L*n/2 plus L times a distance of at most n,
    # must be finite
    if (n_data < 1 or not lipschitz > 0
            or not math.isfinite(lipschitz * n_data / 2.0 + lipschitz * n_data)
            or not 1 <= n_centers <= CENTERS_MAX):
        raise ConfigurationError(f"bad hamming_structured params {params}")
    return n_data, lipschitz, n_centers


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
    parsed = check_params(kind, params)
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    provenance = {"kind": kind, "seed": int(seed), "params": dict(params)}

    if kind == "explicit":
        return CostInstance(parsed[0], np.asarray(params["costs"], dtype=float), provenance)

    if kind == "uniform_random":
        n_data, low, high = parsed
        costs = rng.uniform(low, high, size=1 << n_data)
        return CostInstance(n_data, costs, provenance)

    if kind == "number_partition":
        n_data, weights = parsed
        # by doubling, the weights added in order i = 0..n-1; bit i set -> minus
        signed = np.zeros(1 << n_data)
        for i, w in enumerate(weights):
            np.subtract(signed[:1 << i], w, out=signed[1 << i:2 << i])
            signed[:1 << i] += w
        return CostInstance(n_data, np.abs(signed, out=signed), provenance)

    n_data, lipschitz, n_centers = parsed
    centers = rng.integers(0, 1 << n_data, size=n_centers)
    offsets = np.sort(rng.uniform(0.0, lipschitz * n_data / 2.0, size=n_centers))
    offsets[0] = 0.0  # pin the global minimum at the first center
    # min over L-Lipschitz cones is L-Lipschitz in Hamming distance
    costs = np.full(1 << n_data, np.inf)
    for c, off in zip(centers, offsets):
        np.minimum(costs, off + lipschitz * hamming_distances(n_data, int(c)), out=costs)
    return CostInstance(n_data, costs, provenance)


_PARSE_BLOCK_BYTES = 1 << 20  # bytes of text read per chunk, parsed by one np.fromstring call
_SAVE_BLOCK = 8192  # costs formatted per write; a multiple of the 8 per line


def save_instance(instance: CostInstance, path: str | Path) -> None:
    """Write an instance file; `.json` or `.npz` extension selects that form.

    Every format round-trips costs bit-exactly: text and JSON through repr,
    `.npz` as raw float64.  Text and JSON format a block of costs per `%` call.
    """
    path = Path(path)
    if path.suffix == ".npz":
        np.savez(path, costs=instance.costs, n_data=instance.n_data,
                 provenance=json.dumps(instance.provenance, sort_keys=True))
        return
    if path.suffix == ".json":  # the bytes of json.dumps(payload, sort_keys=True)
        provenance = json.dumps(instance.provenance, sort_keys=True)  # fails before the open
        head, costs = '{"costs": [%r' % float(instance.costs[0]), instance.costs[1:]
        per, unit = 1, ", %r"
        tail = f'], "n_data": {instance.n_data}, "provenance": {provenance}}}\n'
    else:  # 8 costs a line, or a table of 2 or 4 on one line
        head, costs, tail = f"n_data={instance.n_data}\n", instance.costs, ""
        per = min(8, instance.size)
        unit = " ".join(["%r"] * per) + "\n"
    with path.open("w") as out:
        out.write(head)
        for start in range(0, costs.size, _SAVE_BLOCK):
            block = costs[start:start + _SAVE_BLOCK].tolist()
            out.write(unit * (len(block) // per) % tuple(block))
        out.write(tail)


def load_instance(path: str | Path) -> CostInstance:
    """Read an instance file: `.npz` by its suffix, else JSON or text by content.

    The text body is parsed in chunks of about 1 MiB, whatever its line layout,
    so a load holds the table and a few chunks, never a Python object per cost.
    """
    if Path(path).suffix == ".npz":
        return _load_npz(path)
    with open(path, "rb") as f:
        line = f.readline(_PARSE_BLOCK_BYTES)  # a lone-\r file is one line
        while line.isspace():  # blank lines before the header or the JSON object
            line = f.readline(_PARSE_BLOCK_BYTES)
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
        costs = payload["costs"]
        if isinstance(costs, list) and bool in map(type, costs):  # float() reads true as 1.0
            raise TypeError("costs must be numbers, got a boolean")
        costs = np.asarray(costs, dtype=float)
        costs.flags.writeable = False  # handed over, not copied
        return CostInstance(n_data, costs, dict(payload.get("provenance", {})))
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; a cost integer past float
    # range raises OverflowError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: malformed instance JSON ({exc})") from exc


def _load_text(path: str | Path, head: bytes, f: BinaryIO) -> CostInstance:
    """The text form: `head`, from the first non-blank byte on, then the rest of `f`."""
    while b"\n" not in head and b"\r" not in head and (chunk := f.read(_PARSE_BLOCK_BYTES)):
        head += chunk  # the header line runs on past `head`
    # a lone \r also ends the header line, as a universal-newline read splits it
    header = head.partition(b"\n")[0].partition(b"\r")[0]
    if not header.startswith(b"n_data="):
        raise ConfigurationError(f"{path}: expected 'n_data=<int>' header")
    try:
        n_data = int(header[len(b"n_data="):].decode())
        parts, pending = [], head[len(header):]
        # each chunk is parsed through its last whitespace byte, as the token after it
        # may run on; at the end of the file, a blank chunk flushes that token
        while chunk := f.read(_PARSE_BLOCK_BYTES) or pending and b" ":
            cut = max(map(chunk.rfind, b" \t\n\r\v\f")) + 1  # what fromstring skips
            if not cut:
                pending += chunk
                continue
            block, pending = b"".join((pending, memoryview(chunk)[:cut])), chunk[cut:]
            del chunk  # one copy of the text at a time, so the heap is left compact
            if not block.isspace():  # fromstring reads blank text as [-1.0]
                # numpy >= 2 raises ValueError at a bad token
                parts.append(np.fromstring(block, sep=" "))
            del block
    # UnicodeDecodeError is a ValueError
    except ValueError as exc:
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
