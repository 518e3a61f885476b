"""Time the axioms that grow with the schema bound, at the largest bound.

    python3 tools/schema_probe.py [--schema-max 500]

For each of the models ``std``, ``nonstd`` and ``pairs``, in a fresh
interpreter of its own, so that its peak RSS is that run's alone, this
runs

    run_suite(Model(), cases=2, schema_max=N, ids=("A4", "A11", "A17"))

with the package from this checkout's ``src/``, and prints a line with the
model, the run's wall time and the interpreter's peak RSS (``ru_maxrss``),
then one line per ``Report`` (its ``repr``).  A4, A11 and A17 are the
schemata: their checks grow with N, and at ``axioms.MAX_SCHEMA`` (500)
nearly all of the time goes to compiling them.  To compare two checkouts,
run the probe in each on the same day; the ``Report`` lines must be
identical.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = {
    "std": ("buchi2.standard", "StandardModel"),
    "nonstd": ("buchi2.nonstandard", "NonstandardModel"),
    "pairs": ("buchi2.pairs", "PairsModel"),
}

RUN = """
import importlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from buchi2.axioms import run_suite
model = getattr(importlib.import_module(sys.argv[2]), sys.argv[3])()
start = time.perf_counter()
reports = run_suite(model, cases=2, schema_max=int(sys.argv[4]), ids=("A4", "A11", "A17"))
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss, "reports": [repr(r) for r in reports]}))
"""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time A4, A11 and A17 at a large schema bound.")
    parser.add_argument("--schema-max", type=int, default=500, help="the schema bound (default 500)")
    args = parser.parse_args(argv)
    for name, model in MODELS.items():
        done = subprocess.run(
            [sys.executable, "-c", RUN, str(ROOT / "src"), *model, str(args.schema_max)],
            capture_output=True, text=True,
        )
        if done.returncode:
            print(f"{name}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout)
        print(f"{name}  schema {args.schema_max}  {result['seconds']:.2f} s  {result['rss_mb']:.1f} MB")
        for line in result["reports"]:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
