"""Time the check_axiom requests and REPL sessions of this checkout against a git revision's.

    python3 tools/check_ab.py REV

Extracts REV with ``behaviour_diff.extract`` and imports the two trees'
``src/buchi2`` the same way, as the packages ``buchi2_rev`` and
``buchi2_this`` (the package imports itself by relative imports only), so
that neither tree is favoured by how it was loaded.  Each tree builds its
models with its own ``cli.make_model``.  Per model, ``std`` and
``nonstd``, it times requests over ROUNDS rounds, with no tracing proxy
and the garbage collector off: each tree runs whole ``check_axiom``
requests on the schema-12 catalog, shaped as the benchmark's rounds:
round k checks every axiom with seed k and a seeded CASES[0]..CASES[1]
cases, so the compiled case loop, the harness and the sampler are timed
together.

Then it times REPL requests: round k runs one whole
``cli.main(["repl", "--model", "nonstd"])`` session of each tree on
REPL_LINES lines of chunk k of the benchmark's seeded ``repl-mix`` lines
(``perfbench/mix.py``, which it only reads).

In each round the two trees take each axiom, or the session, in turn, and
which tree goes first alternates from axiom to axiom and from round to
round, so that a burst of load on a shared host skews both trees alike.
Per line it prints each tree's median time per round, the median over
rounds of the ratio this checkout / REV, and how many rounds each tree was
faster in.  After each model's line comes one more, on the same rounds, for
that model's slowest axiom alone (the one with the greatest median time of
REV's requests; A4 at schema 12): the requests that set the benchmark's
``latency_p99_us``.  Exits 1 if the two trees' requests return different
Reports or their REPL sessions print different replies, so that the
timings compare the same work, and 2 if REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import random
import runpy
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from behaviour_diff import extract  # noqa: E402

SCHEMA = 12
ROUNDS = 40
CASES = (50, 150)  # cases per check_axiom request, as in the benchmark
TIMED = ("std", "nonstd")  # the ``--model`` names of the models timed
REPL_LINES = 250  # lines per timed REPL session


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


def request_jobs(suites: dict, k: int) -> list[dict]:
    """Per axiom, each side's check_axiom request of round k, with its seed and seeded case count."""
    rng = random.Random(k)
    jobs = []
    for specs in zip(*(catalog for _, _, catalog in suites.values())):
        cases = rng.randint(*CASES)
        jobs.append({side: partial(axioms.check_axiom, spec, model, cases=cases, seed=k)
                     for (side, (axioms, model, _)), spec in zip(suites.items(), specs)})
    return jobs


def repl_session(cli, text: str) -> str:
    """What a ``repl --model nonstd`` session of the cli module prints, given text on stdin."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        cli.main(["repl", "--model", "nonstd"])
        return sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


def repl_jobs(sides: dict, repl_lines, k: int) -> list[dict]:
    """Each side's REPL session of round k: chunk k of the seeded repl-mix lines."""
    text = "".join(f"{line}\n" for line, _ in repl_lines(0, k, REPL_LINES))
    return [{side: partial(repl_session, importlib.import_module(f"{package}.cli"), text)
             for side, package in sides.items()}]


def one_round(jobs: list[dict], k: int) -> tuple[dict, dict]:
    """Each side's seconds for one call of each job, in order, and the repr of what each call returned."""
    seconds = {side: [] for side in jobs[0]}
    results = {side: [] for side in jobs[0]}
    gc.collect()
    gc.disable()
    try:
        for j, sides in enumerate(jobs):  # the two trees alternate per axiom and per round
            for side in (list(sides) if (k + j) % 2 == 0 else list(sides)[::-1]):
                start = time.perf_counter()
                result = sides[side]()
                seconds[side].append(time.perf_counter() - start)
                results[side].append(repr(result))
    finally:
        gc.enable()
    return seconds, results


def summary(label: str, rev: str, rounds: list[dict], jobs=slice(None)) -> str:
    """The median / ratio / rounds-won line of the given jobs of one model's timed rounds."""
    times = {side: [sum(seconds[side][jobs]) for seconds in rounds] for side in (rev, "this checkout")}
    old, new = (statistics.median(t) for t in times.values())
    pairs = list(zip(*times.values()))
    ratio = statistics.median(b / a for a, b in pairs)
    return (f"{label}: {rev} {old * 1e3:.2f} ms, this checkout {new * 1e3:.2f} ms, ratio {ratio:.3f}; "
            f"faster in {sum(a < b for a, b in pairs)} rounds ({rev}) and {sum(b < a for a, b in pairs)} "
            f"(this checkout) of {ROUNDS}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="A/B the axiom and REPL requests against a git revision.")
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="check-ab-") as tmp:
        extract(rev, Path(tmp))
        sides = {rev: "buchi2_rev", "this checkout": "buchi2_this"}
        load("buchi2_rev", Path(tmp) / "src" / "buchi2")
        load("buchi2_this", ROOT / "src" / "buchi2")
        for model_name in TIMED:
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
            slowest = max(range(len(rounds[0][rev])), key=lambda j: statistics.median(s[rev][j] for s in rounds))
            label = f"{model_name} slowest axiom {suites[rev][2][slowest].id} requests"
            print(summary(label, rev, rounds, slice(slowest, slowest + 1)))
        repl_lines = runpy.run_path(str(ROOT / "perfbench" / "mix.py"))["repl_lines"]
        one_round(repl_jobs(sides, repl_lines, ROUNDS), 0)  # untimed: the first session loads the model
        rounds = []
        for k in range(ROUNDS):
            seconds, replies = one_round(repl_jobs(sides, repl_lines, k), k)
            if replies[rev] != replies["this checkout"]:
                print("repl: the two trees' sessions print different replies", file=sys.stderr)
                return 1
            rounds.append(seconds)
        print(summary("repl requests", rev, rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
