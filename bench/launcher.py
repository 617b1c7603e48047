"""Starts the benchmark's child processes one at a time and reports their use.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process that
forked and exec'd it: exec records the old address space's high-water mark
in the child's accounting.  run.py grows as it parses reports, so it
does not spawn children itself.  This process, started with ``-S -I`` and
importing only modules built into the interpreter, stays at a few MiB, below
the peak of any Python child.

Protocol, over stdin and stdout: each request is an 8-byte little-endian
length and a marshal-encoded tuple (argv, cwd, env, stdout path, stderr
path).  Each reply has the same framing and holds (exit code, wall seconds,
user+system CPU seconds, ru_maxrss in KiB).  The process exits at end of
input.
"""

import marshal
import os
import sys
import time


def read_frame(stream):
    header = stream.read(8)
    if len(header) < 8:
        return None
    return marshal.loads(stream.read(int.from_bytes(header, "little")))


def write_frame(stream, value) -> None:
    payload = marshal.dumps(value)
    stream.write(len(payload).to_bytes(8, "little") + payload)
    stream.flush()


def main() -> None:
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    while (request := read_frame(requests)) is not None:
        argv, cwd, env, stdout, stderr = request
        os.chdir(cwd)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout, create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr, create, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        write_frame(replies, (os.waitstatus_to_exitcode(status), wall,
                              usage.ru_utime + usage.ru_stime, usage.ru_maxrss))


if __name__ == "__main__":
    main()
