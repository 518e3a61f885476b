"""Time the compiled axiom checks of this checkout against a git revision's.

    python3 tools/check_ab.py REV

Extracts REV with ``behaviour_diff.extract`` and imports its ``src/buchi2``
as a second package, ``buchi2_rev`` (the package imports itself by
relative imports only), beside this checkout's ``buchi2``.  In each tree it
compiles the schema-12 catalog for ``std`` and ``nonstd`` and samples the
same seeded envs, ENVS per axiom.  It then times the checks alone, with no
tracing proxy and the garbage collector off, over ROUNDS rounds; in each
round the two trees run each axiom's check in turn, and which tree goes
first alternates from axiom to axiom and from round to round, so that a
burst of load on a shared host skews both trees alike.  Per model it
prints each tree's median time per round, the median over rounds of the
ratio this checkout / REV, and how many rounds each tree was faster in.
Exits 1 if the two trees' checks answer differently on an env, so that
the timings compare the same work, and 2 if REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import tempfile
import time
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from behaviour_diff import extract  # noqa: E402

SCHEMA = 12
ENVS = 400
ROUNDS = 40
MODELS = {"std": ("standard", "StandardModel"), "nonstd": ("nonstandard", "NonstandardModel")}


def load(name: str, src: Path):
    """The package under src, imported as name."""
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def workload(package: str, model_name: str):
    """(check, envs) for each catalog axiom with obligations, compiled for a fresh model."""
    module, cls = MODELS[model_name]
    model = getattr(importlib.import_module(f"{package}.{module}"), cls)()
    axioms = importlib.import_module(f"{package}.axioms")
    compiled = importlib.import_module(f"{package}.compiled")
    And = importlib.import_module(f"{package}.formulas").And
    work = []
    for spec in axioms.build_axioms(SCHEMA):
        if not spec.obligations:
            continue
        matrix = reduce(And, (matrix for _, matrix in spec.obligations))
        rng = random.Random(f"0:{spec.id}")
        envs = [{var: model.sample(rng) for var in spec.sampled} for _ in range(ENVS)]
        work.append((compiled.compile_qf(matrix, model, spec.derived), envs))
    return work


def answers(work) -> list[bool]:
    return [check(dict(env)) for check, envs in work for env in envs]


def run(check, envs) -> float:
    """Seconds for one pass of a check over its envs."""
    start = time.perf_counter()
    for env in envs:
        check(env)
    return time.perf_counter() - start


def one_round(work: dict, k: int) -> dict:
    """Each side's seconds for one pass of every check; each call gets a fresh env."""
    axioms = [[(side, check, [dict(env) for env in envs]) for side, (check, envs) in zip(work, pair)]
              for pair in zip(*work.values())]
    seconds = dict.fromkeys(work, 0.0)
    gc.collect()
    gc.disable()
    try:
        for j, sides in enumerate(axioms):  # the two trees alternate per axiom and per round
            for side, check, envs in (sides if (k + j) % 2 == 0 else sides[::-1]):
                seconds[side] += run(check, envs)
    finally:
        gc.enable()
    return seconds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="A/B the compiled axiom checks against a git revision.")
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="check-ab-") as tmp:
        extract(rev, Path(tmp))
        load("buchi2_rev", Path(tmp) / "src" / "buchi2")
        sides = {rev: "buchi2_rev", "this checkout": "buchi2"}
        for model_name in MODELS:
            work = {side: workload(package, model_name) for side, package in sides.items()}
            if answers(work[rev]) != answers(work["this checkout"]):
                print(f"{model_name}: the two trees' checks answer differently", file=sys.stderr)
                return 1
            rounds = [one_round(work, k) for k in range(ROUNDS)]
            times = {side: [seconds[side] for seconds in rounds] for side in sides}
            old, new = (statistics.median(times[side]) for side in sides)
            pairs = list(zip(times[rev], times["this checkout"]))
            ratio = statistics.median(b / a for a, b in pairs)
            print(f"{model_name}: {rev} {old * 1e3:.2f} ms, this checkout {new * 1e3:.2f} ms, ratio {ratio:.3f}; "
                  f"faster in {sum(a < b for a, b in pairs)} rounds ({rev}) and {sum(b < a for a, b in pairs)} "
                  f"(this checkout) of {ROUNDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
