"""Time one set-up of a workload in a fresh interpreter and print it.

    python3 perfbench/setup_probe.py axioms-nonstd|axioms-std|repl-mix

Set-up is what a user waits for before the first unit of work: importing
the package plus building the axiom catalog and the model, or, for the
REPL, everything up to its first read of a line.  Only modules that are
loaded before any user code runs are imported ahead of the clock.

Prints three times in seconds: the reference loop (``reference.py``)
just before the set-up, the set-up, and the reference loop just after it,
so the caller can adjust the set-up for how fast the host ran.
"""

import os
import sys
import time

from reference import reference

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


class _Eof:
    """Stdin that records when the REPL first asks for a line."""

    ready = None

    def readline(self):
        _Eof.ready = time.perf_counter()
        return ""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def main(workload: str) -> float:
    if workload == "repl-mix":
        stdio = sys.stdin, sys.stdout
        sys.stdin = sys.stdout = _Eof()
        try:
            start = time.perf_counter()
            from buchi2 import cli

            code = cli.main(["repl", "--model", "nonstd"])
        finally:
            sys.stdin, sys.stdout = stdio
        if code != 0 or _Eof.ready is None:
            raise SystemExit(f"repl exited with {code} before reading a line")
        return _Eof.ready - start
    start = time.perf_counter()
    from buchi2.axioms import build_axioms

    if workload == "axioms-nonstd":
        from buchi2.nonstandard import NonstandardModel as Model
    elif workload == "axioms-std":
        from buchi2.standard import StandardModel as Model
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    build_axioms(12)  # mix.SCHEMA_MAX; importing mix here would skew the clock
    Model()
    return time.perf_counter() - start


if __name__ == "__main__":
    before = reference()
    setup = main(sys.argv[1])
    print(repr(before), repr(setup), repr(reference()))
