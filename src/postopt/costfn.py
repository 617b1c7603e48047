"""Cost tables over bitstrings, brute-force oracles, and instance generators.

An instance is an explicit table of 2**n_data finite costs, so M-counting
and argmin are exact enumerations.  Generators are deterministic given
(kind, params, seed); provenance records all three.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import pickle
import re
import shutil
import signal
import stat
import tempfile
import threading
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

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
    """Hamming distance (uint8) from each index in [0, 2**n_data) to `center`, by popcount."""
    idx = np.arange(1 << n_data)
    idx ^= center
    return np.bitwise_count(idx)


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

    Each kind hands its fresh table to the instance read-only, so it is
    kept, not copied.  An explicit table is a copy of the caller's costs,
    so the instance never holds the caller's own array.
    """
    parsed = check_params(kind, params)
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    provenance = {"kind": kind, "seed": int(seed), "params": dict(params)}

    if kind == "explicit":
        return _handed_over(parsed[0], np.array(params["costs"], dtype=float), provenance)

    if kind == "uniform_random":
        n_data, low, high = parsed
        return _handed_over(n_data, rng.uniform(low, high, size=1 << n_data), provenance)

    if kind == "number_partition":
        n_data, weights = parsed
        # by doubling, the weights added in order i = 0..n-1; bit i set -> minus
        signed = np.zeros(1 << n_data)
        for i, w in enumerate(weights):
            np.subtract(signed[:1 << i], w, out=signed[1 << i:2 << i])
            signed[:1 << i] += w
        return _handed_over(n_data, np.abs(signed, out=signed), provenance)

    n_data, lipschitz, n_centers = parsed
    centers = rng.integers(0, 1 << n_data, size=n_centers)
    offsets = np.sort(rng.uniform(0.0, lipschitz * n_data / 2.0, size=n_centers))
    offsets[0] = 0.0  # pin the global minimum at the first center
    # min over L-Lipschitz cones is L-Lipschitz in Hamming distance
    costs = np.full(1 << n_data, np.inf)
    for c, off in zip(centers, offsets):
        cone = lipschitz * hamming_distances(n_data, int(c))
        cone += off
        np.minimum(costs, cone, out=costs)
        del cone  # freed before the next center's distances: two tables live, not three
    return _handed_over(n_data, costs, provenance)


def _handed_over(n_data: int, costs: np.ndarray, provenance: dict) -> CostInstance:
    """An instance that keeps the fresh table `costs`: marked read-only, it is not copied."""
    costs.flags.writeable = False
    return CostInstance(n_data, costs, provenance)


_PARSE_BLOCK_BYTES = 1 << 20  # bytes of text read per chunk, parsed by one np.fromstring call
_TOKEN_MAX = 1 << 16  # longest text header line, and most of a token held from one read to the next
BLOCK = 8192  # costs formatted per `%` call; a multiple of the 8 per line
# Fewest costs, and fewest body bytes, in a part of a split text write or read: on a
# 2-core host, a smaller part took longer to fork and collect than it saved
_PART_MIN, _READ_PART_MIN = 1 << 16, 1 << 21
_CUT_SEARCH_BYTES = 1 << 12  # bytes read at a nominal cut of a text body to find whitespace
_RAISED = 3  # exit status of a forked part whose work raised; its file holds the exception


def save_instance(instance: CostInstance, path: str | Path, out=None) -> None:
    """Write an instance file: `.npz` by its suffix, else text.

    Both forms round-trip costs bit-exactly: text through repr, `.npz` as raw
    float64.  Both are written through `replacing`, so a failed write leaves no
    partial file and an existing file intact; `out`, when given, is the file
    that a `replacing(path)` block already holds open.

    The text writer formats a block of costs per `%` call.  `_forked_parts`
    formats a table of 2 * _PART_MIN costs or more in parts split at line
    boundaries, one per usable CPU, with the bytes of one process.
    """
    with replacing(path) if out is None else contextlib.nullcontext(out) as out:
        if Path(path).suffix == ".npz":  # json.dumps may raise, and then no file is left
            np.savez(out, costs=instance.costs, n_data=instance.n_data,
                     provenance=json.dumps(instance.provenance, sort_keys=True))
        else:
            _write_text(instance, out)


@contextlib.contextmanager
def replacing(path: str | Path):
    """Yield a new binary file beside `path`; move it onto `path` once the block completes.

    Every file the program writes goes through here.  A block that raises leaves
    `path` as it was and no new file behind; a killed process can leave one, named
    `.postopt-*.tmp`.  The new file gets the mode that `open(path, "w")` would give,
    and a symlink at `path` is kept, its target replaced.  A target that exists but
    is no regular file, such as `/dev/null`, is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):  # a device or a FIFO; open fails on a directory
        with open(path, "wb") as out:
            yield out
        return
    target = os.path.realpath(path)  # through a symlink, so the link is kept
    part = os.path.join(os.path.dirname(target), f".postopt-{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open()
    except OSError as exc:  # name the path given, not the new file beside it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "wb") as out:
            if mode is not None:  # open(path, "w") keeps an existing file's mode
                os.fchmod(fd, stat.S_IMODE(mode))
            yield out
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def format_rows(costs: list, per: int) -> bytes:
    """The costs as lines of `per`, each cost its shortest repr, space-separated."""
    return ((" ".join(["%r"] * per) + "\n") * (len(costs) // per) % tuple(costs)).encode()


def _write_text(instance: CostInstance, out) -> None:
    """The header line, then 8 costs a line (a table of 2 or 4 on one line)."""
    per = min(8, instance.size)
    parts = _part_count(instance.size, _PART_MIN)
    bounds = [instance.size * i // parts // per * per for i in range(parts)] + [instance.size]
    out.write(b"n_data=%d\n" % instance.n_data)

    def rows(part: tuple[int, int], emit) -> None:
        for at in range(*part, BLOCK):
            emit(format_rows(instance.costs[at:min(at + BLOCK, part[1])].tolist(), per))

    with _forked_parts(rows, list(zip(bounds, bounds[1:])), out.write) as files:
        for file in files:
            shutil.copyfileobj(file, out, _PARSE_BLOCK_BYTES)


def _part_count(size: int, fewest: int) -> int:
    """One part per usable CPU, at least `fewest` of `size` each; one where forking is unsafe."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1  # a forked child would keep another thread's locks, held
    return max(1, min(len(os.sched_getaffinity(0)), size // fewest))


@contextlib.contextmanager
def _forked_parts(work, parts: list, emit):
    """Run `work(part, emit)` on each of `parts`: the first here, each other in a forked child.

    A child emits into an unnamed temporary file, so it never waits on this process.  This
    yields an iterator over those files, in order; each step waits for its child and raises
    its failure here: the exception its work raised, or `OSError` with its stderr.  Leaving
    the block kills every child still running, and reaps every child.
    """
    running, files = {}, []
    try:
        for part in parts[1:]:
            files.append((tempfile.TemporaryFile(), tempfile.TemporaryFile()))
            if not (pid := os.fork()):
                _run_child(work, part, *files[-1])
            running[pid] = files[-1]
        work(parts[0], emit)
        yield (_reaped(pid, running) for pid in list(running))
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out, err in files:
            out.close()
            err.close()


def _run_child(work, part, out, err) -> None:
    """Run `work` into `out`, stderr into `err`, and exit 0, or _RAISED with the exception
    pickled into `out`; never return into the call stack, which is the parent's."""
    try:
        os.dup2(err.fileno(), 2)
        work(part, out.write)
        out.flush()
        os._exit(0)
    except BaseException as exc:  # an interrupt too: any exception goes to the parent
        out.seek(0)
        out.truncate()
        pickle.dump(exc, out)
        out.flush()
        os._exit(_RAISED)
    finally:
        os._exit(1)  # the exception did not pickle


def _reaped(pid: int, running: dict):
    """Wait for the child `pid`; return its output file at offset 0, or raise its failure."""
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    out, err = running.pop(pid)
    out.seek(0)
    if status == _RAISED:
        raise pickle.load(out)  # written by this program's own child
    if status:
        err.seek(0)
        errors = err.read().decode(errors="replace").strip().splitlines()
        how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
        raise OSError(f"text table part process {how}: {' | '.join(errors) or 'no stderr'}")
    return out


def load_instance(path: str | Path, n_data_max: int | None = None) -> CostInstance:
    """Read an instance file: `.npz` by its suffix, else text.

    The text form is an `n_data=<ASCII digits>` line, then the costs in any line
    layout.  A header past `n_data_max`, in either form, is refused before any cost
    is read.  The body is parsed in chunks of about 1 MiB, never a Python object per
    cost; a regular file's body of 2 * _READ_PART_MIN bytes or more in parts cut at
    whitespace, one per usable CPU, by `_forked_parts`.  A body past 2**n_data costs is
    refused at the first chunk, or part, that passes it.  A header line past _TOKEN_MAX
    bytes is refused, and so is a token once more than _TOKEN_MAX bytes of it are held
    from one read to the next, so a load holds a few chunks in any line layout.  The
    parts give the costs and errors of one process but for a token past that bound and
    within one read, which loads or not by where the reads fall; no valid one is as long.
    """
    if Path(path).suffix == ".npz":
        return _load_npz(path, n_data_max)
    with open(path, "rb") as f:
        head = f.readline(_PARSE_BLOCK_BYTES)  # a lone-\r file is one line
        while head.isspace():  # blank lines before the header
            head = f.readline(_PARSE_BLOCK_BYTES)
        head = head.lstrip()
        while (b"\n" not in head and b"\r" not in head and len(head) <= _TOKEN_MAX
               and (chunk := f.read(_PARSE_BLOCK_BYTES))):
            head += chunk  # the header line runs on past the first read
        # a lone \r also ends the header line, as a universal-newline read splits it
        header = head.partition(b"\n")[0].partition(b"\r")[0]
        if len(header) > _TOKEN_MAX:
            raise ConfigurationError(f"{path}: header line runs past {_TOKEN_MAX} bytes")
        digits = header.removeprefix(b"n_data=").rstrip(b" \t")
        # ASCII digits only: int() would also take a sign, underscores, inner spaces
        # and non-ASCII digits
        if not header.startswith(b"n_data=") or not digits.isdigit():
            raise ConfigurationError(f"{path}: expected 'n_data=<int>' header")
        try:
            n_data = int(digits)
        except ValueError as exc:  # int() raises ValueError past 4300 digits
            raise ConfigurationError(f"{path}: malformed instance file ({exc})") from exc
        check_cap(n_data, n_data_max)
        fd, rest = f.fileno(), head[len(header):]  # the text read with the header line
        if stat.S_ISREG(os.fstat(fd).st_mode):  # read again, a byte range per part
            parts = _text_ranges(fd, f.tell() - len(rest), os.fstat(fd).st_size)
        else:  # a FIFO or a terminal: read on, in order, as one part, `rest` its first chunk
            parts = [None]

        def parse(part: tuple[int, int] | None, emit) -> None:
            # os.pread leaves the file offset, which a child shares with its parent, alone
            chunks = (itertools.chain([rest], iter(lambda: f.read(_PARSE_BLOCK_BYTES), b""))
                      if part is None else
                      (os.pread(fd, min(_PARSE_BLOCK_BYTES, part[1] - at), at)
                       for at in range(*part, _PARSE_BLOCK_BYTES)))
            _parse_text(chunks, path, n_data, emit)

        # every part's costs go to a file, then into the one table: this process's arrays,
        # held until the table was built, left up to 4 MiB of freed heap resident
        with tempfile.TemporaryFile() as first, _forked_parts(parse, parts, first.write) as rest:
            first.seek(0)
            outputs, count = [], 0
            for file in itertools.chain([first], rest):  # each part's count before its costs
                count += os.fstat(file.fileno()).st_size // 8
                if count > 1 << min(n_data, 62):
                    raise _too_many(path, n_data)
                outputs.append(file)
            costs, done = np.empty(count), 0
            for file in outputs:
                done += file.readinto(costs[done:]) // 8
    return _handed_over(n_data, costs, {"kind": "file", "path": str(path)})


def _text_ranges(fd: int, start: int, stop: int) -> list[tuple[int, int]]:
    """Bytes [start, stop) of `fd` as one range per part, each cut at the first whitespace
    byte past its nominal offset, so no token spans two; a cut that finds none is dropped."""
    parts, cuts = _part_count(stop - start, _READ_PART_MIN), {start, stop}
    for i in range(1, parts):
        at = start + (stop - start) * i // parts
        if found := re.search(rb"[ \t\n\r\v\f]", os.pread(fd, _CUT_SEARCH_BYTES, at)):
            cuts.add(at + found.start())
    bounds = sorted(cuts)
    return list(zip(bounds, bounds[1:])) or [(start, stop)]


def _parse_text(chunks, path, n_data: int, emit) -> None:
    """Parse the text `chunks` and emit the costs a chunk at a time; refuse a bad token,
    one of which more than _TOKEN_MAX bytes are held from one chunk to the next, and
    more than 2**n_data costs at the first chunk past them."""
    # no file holds 2**62 costs, so a huge header needs no bound built from it
    most, count, pending = 1 << min(n_data, 62), 0, b""
    # each chunk is parsed through its last whitespace byte, as the token after it may
    # run on; at the end of the text, a blank chunk flushes that token
    for chunk in itertools.chain(chunks, [b" "]):
        if len(pending) > _TOKEN_MAX:  # the start of one token, held from the reads before
            raise ConfigurationError(f"{path}: a token runs past {_TOKEN_MAX} bytes")
        cut = max(map(chunk.rfind, b" \t\n\r\v\f")) + 1  # what fromstring skips
        if not cut:
            pending += chunk
            continue
        block, pending = b"".join((pending, memoryview(chunk)[:cut])), chunk[cut:]
        del chunk  # one copy of the text at a time, so the heap is left compact
        if not block.isspace():  # fromstring reads blank text as [-1.0]
            try:  # numpy >= 2 raises ValueError at a bad token
                costs = np.fromstring(block, sep=" ")
            except ValueError as exc:
                raise ConfigurationError(f"{path}: malformed instance file ({exc})") from exc
            count += costs.size
            if count > most:
                raise _too_many(path, n_data)
            emit(costs)
        del block


def _too_many(path, n_data: int) -> ConfigurationError:
    return ConfigurationError(f"{path}: more than 2**{n_data} costs under 'n_data={n_data}'")


def check_cap(n_data: int, n_data_max: int | None) -> None:
    if n_data_max is not None and n_data > n_data_max:
        raise ConfigurationError(f"n_data={n_data} exceeds the table cap of {n_data_max}")


def _load_npz(path: str | Path, n_data_max: int | None) -> CostInstance:
    """Read the `.npz` form: integer `n_data`, then float64 `costs` unless `n_data` is
    past `n_data_max`, and JSON `provenance`."""
    try:
        # opened here, so it is closed whatever np.load does: it left a file that starts
        # like a zip archive but is none open when it raised
        with open(path, "rb") as file, np.load(file, allow_pickle=False) as npz:
            n_data = npz["n_data"]  # a member is read only when it is looked up
            if n_data.shape != () or n_data.dtype.kind not in "iu":
                raise TypeError(f"n_data must be an integer scalar, got {n_data!r}")
            n_data = int(n_data)
            check_cap(n_data, n_data_max)
            # the npy header alone: over 2**n_data costs are refused unread, fewer by CostInstance
            with npz.zip.open("costs.npy") as member:
                version = np.lib.format.read_magic(member)
                shape = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                         else np.lib.format.read_array_header_2_0)(member)[0]
            if math.prod(shape) > 1 << min(max(n_data, 1), 62):  # CostInstance refuses n_data < 1
                raise _too_many(path, n_data)
            costs, provenance = npz["costs"], npz["provenance"]
        if costs.dtype != np.float64 or costs.ndim != 1:
            raise TypeError(f"costs must be 1-D float64, got {costs.dtype} {costs.shape}")
        if provenance.shape != () or provenance.dtype.kind != "U":
            raise TypeError(f"provenance must be a JSON string, got {provenance!r}")
        provenance = dict(json.loads(provenance.item()))
    except ConfigurationError:  # the cap and count refusals, ValueErrors too, in the text's words
        raise
    # np.load raises ValueError on pickled content; a .npy file has no __enter__; numpy
    # allocates the shape a member's header declares before it reads the data, and a
    # caller with no cap may pass n_data=40 over 2**40 declared costs; zipfile raises
    # RuntimeError at an encrypted member, NotImplementedError at an unknown method
    except (KeyError, TypeError, ValueError, AttributeError, EOFError, MemoryError,
            RuntimeError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"{path}: malformed instance .npz ({exc})") from exc
    return _handed_over(n_data, costs, provenance)
