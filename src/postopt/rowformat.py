"""The text form's row formatter, and a helper process that runs it on raw float64 costs.

`costfn.save_instance` writes a large text table in parts, one per usable CPU:
it formats the first part itself and runs this file as a script, under
``python -S -I``, for each other part.  The script imports only the standard
library, so it starts in milliseconds.  It reads its part as native-order
float64 bytes on stdin and writes the rows on stdout; its one argument is the
number of costs per line.  Both sides call `format_rows`, so a row reads the
same whichever process formatted it.
"""

import sys

BLOCK = 8192  # costs formatted per `%` call; a multiple of the 8 per line


def format_rows(costs: list, per: int) -> bytes:
    """The costs as lines of `per`, each cost its shortest repr, space-separated."""
    return ((" ".join(["%r"] * per) + "\n") * (len(costs) // per) % tuple(costs)).encode()


def main() -> None:
    per = int(sys.argv[1])
    costs = memoryview(sys.stdin.buffer.read()).cast("d")
    for start in range(0, len(costs), BLOCK):
        sys.stdout.buffer.write(format_rows(costs[start:start + BLOCK].tolist(), per))
    sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
