"""Set-up stamp: a fresh interpreter that stops at the first library call.

    PYTHONPATH=src python3 perfbench/worker.py <cli argv ...>

Imports ``loewner_lab.cli``, lets ``main`` parse and validate the given
argv, and prints the ``time.monotonic()`` reading at the first library call
that would start real work.  The caller subtracts the moment it started this
interpreter.  Only the standard library is imported before the stamp, so it
covers what a user of the CLI waits for.
"""

import sys
import time


class _FirstCall(Exception):
    pass


def main(argv) -> None:
    import loewner_lab.cli as cli

    def stamp(*args, **kwargs):
        print(f"{time.monotonic():.9f}")
        raise _FirstCall

    entry = "run_campaign" if argv[0] == "campaign" else "hunt_counterexample"
    setattr(cli, entry, stamp)
    try:
        cli.main(list(argv))
    except _FirstCall:
        return
    raise SystemExit(f"setup: {argv[0]} returned before reaching {entry}")


if __name__ == "__main__":
    main(sys.argv[1:])
