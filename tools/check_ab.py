"""Time the axiom checks and check_axiom requests of this checkout against a git revision's.

    python3 tools/check_ab.py REV

Extracts REV with ``behaviour_diff.extract`` and imports the two trees'
``src/buchi2`` the same way, as the packages ``buchi2_rev`` and
``buchi2_this`` (the package imports itself by relative imports only), so
that neither tree is favoured by how it was loaded.  Each tree builds its
models with its own ``cli.make_model``.  Per model, ``std`` and
``nonstd``, it times two things over ROUNDS rounds each, with no tracing
proxy and the garbage collector off:

- checks: each tree compiles the schema-12 catalog and samples the same
  seeded envs, ENVS per axiom, and runs the compiled checks alone on them;
- requests: each tree runs whole ``check_axiom`` requests on the same
  catalog, shaped as the benchmark's rounds: round k checks every axiom
  with seed k and a seeded CASES[0]..CASES[1] cases, so the harness loop
  and the sampler are timed too.

In each round the two trees take each axiom in turn, and which tree goes
first alternates from axiom to axiom and from round to round, so that a
burst of load on a shared host skews both trees alike.  Per model and
kind it prints each tree's median time per round, the median over rounds
of the ratio this checkout / REV, and how many rounds each tree was
faster in.  Exits 1 if the two trees' checks answer differently on an
env, or their requests return different Reports, so that the timings
compare the same work, and 2 if REV cannot be extracted.
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
from functools import partial, reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from behaviour_diff import extract  # noqa: E402

SCHEMA = 12
ENVS = 400
ROUNDS = 40
CASES = (50, 150)  # cases per check_axiom request, as in the benchmark
TIMED = ("std", "nonstd")  # the ``--model`` names of the models timed


def load(name: str, src: Path):
    """The package under src, imported as name."""
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def suite(package: str, model_name: str):
    """(axioms module, a fresh model, the schema-12 catalog) of the package."""
    model = importlib.import_module(f"{package}.cli").make_model(model_name)
    axioms = importlib.import_module(f"{package}.axioms")
    return axioms, model, axioms.build_axioms(SCHEMA)


def workload(package: str, model_name: str):
    """(check, envs) for each catalog axiom with obligations, compiled for a fresh model."""
    _, model, catalog = suite(package, model_name)
    compiled = importlib.import_module(f"{package}.compiled")
    And = importlib.import_module(f"{package}.formulas").And
    work = []
    for spec in catalog:
        if not spec.obligations:
            continue
        matrix = reduce(And, (matrix for _, matrix in spec.obligations))
        rng = random.Random(f"0:{spec.id}")
        envs = [{var: model.sample(rng) for var in spec.sampled} for _ in range(ENVS)]
        work.append((compiled.compile_qf(matrix, model, spec.derived), envs))
    return work


def answers(work) -> list[bool]:
    return [check(dict(env)) for check, envs in work for env in envs]


def run(check, envs) -> None:
    """One pass of a check over its envs."""
    for env in envs:
        check(env)


def check_jobs(work: dict) -> list[dict]:
    """Per axiom, each side's pass of its check; each call gets a fresh env."""
    return [{side: partial(run, check, [dict(env) for env in envs]) for side, (check, envs) in zip(work, pair)}
            for pair in zip(*work.values())]


def request_jobs(suites: dict, k: int) -> list[dict]:
    """Per axiom, each side's check_axiom request of round k, with its seed and seeded case count."""
    rng = random.Random(k)
    jobs = []
    for specs in zip(*(catalog for _, _, catalog in suites.values())):
        cases = rng.randint(*CASES)
        jobs.append({side: partial(axioms.check_axiom, spec, model, cases=cases, seed=k)
                     for (side, (axioms, model, _)), spec in zip(suites.items(), specs)})
    return jobs


def one_round(jobs: list[dict], k: int) -> tuple[dict, dict]:
    """Each side's seconds for one call of every job, and the repr of what each call returned."""
    seconds = {side: 0.0 for side in jobs[0]}
    results = {side: [] for side in jobs[0]}
    gc.collect()
    gc.disable()
    try:
        for j, sides in enumerate(jobs):  # the two trees alternate per axiom and per round
            for side in (list(sides) if (k + j) % 2 == 0 else list(sides)[::-1]):
                start = time.perf_counter()
                result = sides[side]()
                seconds[side] += time.perf_counter() - start
                results[side].append(repr(result))
    finally:
        gc.enable()
    return seconds, results


def summary(label: str, rev: str, rounds: list[dict]) -> str:
    """The median / ratio / rounds-won line of one model's timed rounds."""
    times = {side: [seconds[side] for seconds in rounds] for side in (rev, "this checkout")}
    old, new = (statistics.median(t) for t in times.values())
    pairs = list(zip(*times.values()))
    ratio = statistics.median(b / a for a, b in pairs)
    return (f"{label}: {rev} {old * 1e3:.2f} ms, this checkout {new * 1e3:.2f} ms, ratio {ratio:.3f}; "
            f"faster in {sum(a < b for a, b in pairs)} rounds ({rev}) and {sum(b < a for a, b in pairs)} "
            f"(this checkout) of {ROUNDS}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="A/B the axiom checks and requests against a git revision.")
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="check-ab-") as tmp:
        extract(rev, Path(tmp))
        sides = {rev: "buchi2_rev", "this checkout": "buchi2_this"}
        load("buchi2_rev", Path(tmp) / "src" / "buchi2")
        load("buchi2_this", ROOT / "src" / "buchi2")
        for model_name in TIMED:
            work = {side: workload(package, model_name) for side, package in sides.items()}
            if answers(work[rev]) != answers(work["this checkout"]):
                print(f"{model_name}: the two trees' checks answer differently", file=sys.stderr)
                return 1
            rounds = [one_round(check_jobs(work), k)[0] for k in range(ROUNDS)]
            print(summary(f"{model_name} checks", rev, rounds))
            suites = {side: suite(package, model_name) for side, package in sides.items()}
            one_round(request_jobs(suites, ROUNDS), 0)  # untimed: the first request of an axiom compiles its check
            rounds = []
            for k in range(ROUNDS):
                seconds, reports = one_round(request_jobs(suites, k), k)
                if reports[rev] != reports["this checkout"]:
                    print(f"{model_name}: the two trees' requests return different Reports", file=sys.stderr)
                    return 1
                rounds.append(seconds)
            print(summary(f"{model_name} requests", rev, rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
