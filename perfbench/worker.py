"""Run one benchmark workload in this (fresh) process and print its result.

    python3 perfbench/worker.py --workload axioms-nonstd --seed 0 --seconds 10 --trace 0

``run.py`` starts this in a subprocess per workload, so peak RSS and the
``t_residue`` cache belong to that workload alone.  The last line of
output is a JSON object: ``correct``, ``attempted``, ``failed``,
``metrics`` and ``info`` (diagnostics that are not metrics).

A run is a warm-up of fixed work (caches fill, lazy set-up finishes, peak
RSS is read), then units of work -- a round of axiom checks or a REPL
session -- until ``--seconds`` have passed.  The reference loop
(``reference.py``) runs between requests, so every request's time can be
adjusted for how fast the host ran around it; the end-to-end metrics are
host-adjusted, and the report prints the measured values beside them.
Between units, at even intervals, set-up is timed in fresh interpreters
(``setup_probe.py``).  The traced run instead does a fixed number of
units, alternately traced and untraced, so its counts repeat exactly for
a seed and the untraced units give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mix  # noqa: E402
from reference import REFERENCE_S, reference  # noqa: E402
from tracing import MODEL_OPS, Patches, Tracer, TracedModel  # noqa: E402

WORKLOADS = ("axioms-nonstd", "axioms-std", "repl-mix")
# Cases per check_axiom request, drawn per request: spreading each axiom's
# latency over a 3x range keeps the latency quantiles off the cliffs between
# cheap and expensive axioms, where a tiny shift would move them a lot.
AXIOM_CASES = (50, 150)
SESSION_LINES = 1000  # lines per REPL session
WARMUP_UNITS = {"axioms-nonstd": 3, "axioms-std": 30, "repl-mix": 4}
TRACE_UNITS = {"axioms-nonstd": 12, "axioms-std": 48, "repl-mix": 16}  # multiples of 4
SETUP_PROBES = 15  # fresh-process set-ups per timed run, spread evenly over it
# REPL lines between two runs of the reference loop (axiom requests get one
# each): about 2 ms of work against the loop's 0.5 ms.
REFERENCE_EVERY = 50


class Clock:
    """Times requests and, given the reference loop, the host around them.

    The loop runs before every ``every``-th request and after the last, so
    each group of ``every`` requests is bracketed by two of its times.
    """

    def __init__(self, reference=None, every: int = 1):
        self.reference = reference
        self.every = every
        self.times: list[float] = []  # seconds per request
        self.refs: list[float] = []  # reference-loop seconds
        self._start = 0.0

    def start(self) -> None:
        if self.reference is not None and len(self.times) % self.every == 0:
            self.refs.append(self.reference())
        self._start = perf_counter()

    def stop(self) -> None:
        self.times.append(perf_counter() - self._start)

    def finish(self) -> None:
        if self.reference is not None:
            self.refs.append(self.reference())

    def adjusted(self) -> list[float]:
        """Each request's time on a host that runs the loop in REFERENCE_S."""
        refs = self.refs
        return [t * 2 * REFERENCE_S / (refs[k // self.every] + refs[k // self.every + 1])
                for k, t in enumerate(self.times)]


def setup_probe(name: str) -> tuple[float, float]:
    """(measured, host-adjusted) set-up seconds in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=60, check=True,
    )
    before, setup, after = map(float, proc.stdout.split())
    return setup, setup * 2 * REFERENCE_S / (before + after)


class AxiomsWorkload:
    """Rounds of check_axiom requests, one per catalog axiom, in catalog order."""

    def __init__(self, model_name: str, seed: int, tracer: Tracer | None):
        import buchi2.axioms as axioms
        from buchi2.nonstandard import NonstandardModel
        from buchi2.standard import StandardModel

        self.axioms = axioms
        self.seed = seed
        self.tracer = tracer
        self.model = NonstandardModel() if model_name == "nonstd" else StandardModel()
        if tracer is None:
            self.catalog = axioms.build_axioms(mix.SCHEMA_MAX)
        else:
            self.patches = Patches([
                (axioms, "eval_qf", tracer.wrap("formulas.eval_qf", axioms.eval_qf)),
                (axioms, "parse_formula", tracer.wrap("formulas.parse_formula", axioms.parse_formula)),
            ])
            self.traced_model = TracedModel(self.model, tracer)
            self.patches.install()
            try:
                self.catalog = tracer.call("axioms.build_axioms", axioms.build_axioms, mix.SCHEMA_MAX)
            finally:
                self.patches.remove()
        self.problems = []
        if tuple(spec.id for spec in self.catalog) != mix.EXPECTED_AXIOM_IDS:
            self.problems.append(f"catalog ids {[s.id for s in self.catalog]}")

    def _traced_check(self, spec, model, **kwargs):
        return self.tracer.call(f"axioms.check_axiom.{spec.id}", self.axioms.check_axiom, spec, model, **kwargs)

    def prepare(self, index: int):
        """The index-th round: its suite seed and the cases of each request."""
        seed = mix.round_seed(self.seed, index)
        rng = random.Random(seed)
        return seed, [rng.randint(*AXIOM_CASES) for _ in self.catalog]

    def run(self, unit, clock: Clock, traced: bool = False):
        seed, sizes = unit
        model, check = self.model, self.axioms.check_axiom
        if traced:
            model, check = self.traced_model, self._traced_check
            self.patches.install()
        reports = []
        try:
            for spec, cases in zip(self.catalog, sizes):
                clock.start()
                try:
                    reports.append(check(spec, model, cases=cases, seed=seed))
                except Exception:
                    reports.append(traceback.format_exc())
                clock.stop()
            clock.finish()
        finally:
            if traced:
                self.patches.remove()
        failed = 0
        for want, cases, got in zip(mix.EXPECTED_AXIOM_IDS, sizes, reports):
            if isinstance(got, str) or (got.axiom_id, got.status, got.cases) != (want, "PASS", cases):
                failed += cases
                self.problems.append(f"seed {seed}: expected {want} PASS {cases}, got {got}")
        return sum(sizes), failed

    def run_unit(self, index: int, traced: bool = False):
        clock = Clock()
        return (*self.run(self.prepare(index), clock, traced), clock)


class Feed:
    """Stdin and stdout of the REPL: hands out lines, times every request.

    A request runs from handing out a line to the next read.
    """

    def __init__(self, lines: list[str], clock: Clock, tracer: Tracer | None):
        self._lines = lines
        self._next = 0
        self._written: list[str] = []
        self._marks: list[int] = []
        self._clock = clock
        self._tracer = tracer

    def readline(self) -> str:
        if self._next:
            self._clock.stop()
        self._marks.append(len(self._written))
        if self._tracer is not None and self._next:
            self._tracer.end()  # the previous request is answered
        if self._next == len(self._lines):
            self._clock.finish()
            return ""
        line = self._lines[self._next]
        self._next += 1
        if self._tracer is not None:
            self._tracer.begin("cli.request")
        self._clock.start()
        return line + "\n"

    def write(self, text: str) -> int:
        self._written.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def replies(self) -> list[str]:
        """What the REPL printed for each line, without the prompt."""
        m = self._marks
        return [
            "".join(self._written[a:b]).removesuffix("> ").removesuffix("\n")
            for a, b in zip(m, m[1:])
        ]


class ReplWorkload:
    """Sessions of ``buchi2 repl --model nonstd`` over seeded line streams."""

    def __init__(self, seed: int, tracer: Tracer | None):
        from buchi2 import cli

        self.cli = cli
        self.seed = seed
        self.tracer = tracer
        self.problems = []
        if tracer is not None:
            make_model = cli.make_model
            self.patches = Patches(
                [(cli, "make_model", lambda *a, **k: TracedModel(make_model(*a, **k), tracer))]
                + [
                    (cli, name, tracer.wrap(f"formulas.{name}", getattr(cli, name)))
                    for name in ("parse_term", "parse_formula", "eval_term", "eval_qf")
                ]
            )

    def prepare(self, index: int):
        """The index-th session: lines with their expected replies."""
        return index, mix.repl_lines(self.seed, index, SESSION_LINES)

    def run(self, unit, clock: Clock, traced: bool = False):
        index, lines = unit
        feed = Feed([text for text, _ in lines], clock, self.tracer if traced else None)
        if traced:
            self.patches.install()
        saved = sys.stdin, sys.stdout
        sys.stdin = sys.stdout = feed
        try:
            code = self.cli.main(["repl", "--model", "nonstd"])
        except Exception:
            code = traceback.format_exc()
        finally:
            sys.stdin, sys.stdout = saved
            if traced:
                self.patches.remove()
                self.tracer.unwind()
        replies = feed.replies()
        if code != 0 or len(replies) != len(lines):
            self.problems.append(f"session {index}: exit {code}, {len(replies)} replies to {len(lines)} lines")
            return len(lines), len(lines)
        failed = 0
        for (text, want), got in zip(lines, replies):
            if not mix.output_matches(want, got):
                failed += 1
                self.problems.append(f"session {index}: {text!r} -> {got!r}, expected {want!r}")
        return len(lines), failed

    def run_unit(self, index: int, traced: bool = False):
        clock = Clock()
        return (*self.run(self.prepare(index), clock, traced), clock)


def make_workload(name: str, seed: int, tracer: Tracer | None):
    if name == "repl-mix":
        return ReplWorkload(seed, tracer)
    return AxiomsWorkload(name.removeprefix("axioms-"), seed, tracer)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(name: str, seed: int, seconds: float) -> dict:
    workload = make_workload(name, seed, None)
    for index in range(WARMUP_UNITS[name]):
        workload.run_unit(index, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    every = REFERENCE_EVERY if name == "repl-mix" else 1
    setups = []  # (measured, adjusted) seconds
    rates = []  # per unit: (measured, adjusted) ops per second
    latencies, measured, refs = [], [], []
    attempted = failed = 0
    index = WARMUP_UNITS[name]
    start = perf_counter()
    while len(rates) < 2 or perf_counter() - start < seconds:
        if len(setups) < SETUP_PROBES and perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_probe(name))
        clock = Clock(reference, every)
        ops, bad = workload.run(workload.prepare(index), clock)
        adjusted = clock.adjusted()
        rates.append((ops / sum(clock.times), ops / sum(adjusted)))
        latencies += adjusted
        measured += clock.times
        refs += clock.refs
        attempted += ops
        failed += bad
        index += 1
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(name))

    def p99(values):
        return statistics.quantiles(values, n=100, method="inclusive")[98]

    def median(pairs, k):
        return statistics.median(pair[k] for pair in pairs)

    latency_p99 = p99(latencies)

    return {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(setups, 1), "s"),
            "ops_per_s": metric(median(rates, 1), "1/s"),
            "latency_p50_us": metric(statistics.median(latencies) * 1e6, "us"),
            "latency_p99_us": metric(latency_p99 * 1e6, "us"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
        "info": {
            "units": len(rates),
            "setup_samples": len(setups),
            "latency_samples": len(latencies),
            "beyond_p99": sum(1 for x in latencies if x > latency_p99),
            "measured": {
                "setup_s": median(setups, 0),
                "ops_per_s": median(rates, 0),
                "latency_p50_us": statistics.median(measured) * 1e6,
                "latency_p99_us": p99(measured) * 1e6,
            },
            "error_rate": failed / attempted,
            "reference_ms": {
                "median": statistics.median(refs) * 1e3, "min": min(refs) * 1e3,
                "max": max(refs) * 1e3, "n": len(refs),
            },
            "problems": workload.problems[:20],
        },
    }


def traced_run(name: str, seed: int) -> dict:
    import buchi2.nonstandard as nonstandard

    tracer = Tracer()
    workload = make_workload(name, seed, tracer)
    for index in range(WARMUP_UNITS[name]):
        workload.run_unit(index, False)
    totals = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [ops, seconds]
    attempted = failed = 0
    for i in range(TRACE_UNITS[name]):
        traced = i % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
        ops, bad, clock = workload.run_unit(WARMUP_UNITS[name] + i, traced)
        totals[traced][0] += ops
        totals[traced][1] += sum(clock.times)
        attempted += ops
        failed += bad

    m = {}
    for model_name, layer in (("nonstd", "nonstandard"), ("std", "standard")):
        for op in MODEL_OPS:
            calls, _, busy, _ = tracer.stat(f"{layer}.{op}")
            m[f"{layer}.{op}.calls"] = metric(calls, "count")
            m[f"{layer}.{op}.busy_s"] = metric(busy, "s")
        if model_name == "nonstd":
            info = nonstandard.t_residue.cache_info()
            lookups = info.hits + info.misses
            m["nonstandard.t_residue.hit_ratio"] = metric(info.hits / lookups if lookups else 0.0, "ratio")
            m["nonstandard.t_residue.misses"] = metric(info.misses, "count")
            m["nonstandard.t_residue.currsize"] = metric(info.currsize, "count")
    for fn in ("eval_qf", "eval_term"):
        calls, _, _, self_s = tracer.stat(f"formulas.{fn}")
        m[f"formulas.{fn}.calls"] = metric(calls, "count")
        m[f"formulas.{fn}.self_s"] = metric(self_s, "s")
    for fn in ("parse_term", "parse_formula"):
        calls, bad, busy, _ = tracer.stat(f"formulas.{fn}")
        m[f"formulas.{fn}.calls"] = metric(calls, "count")
        m[f"formulas.{fn}.failed"] = metric(bad, "count")
        m[f"formulas.{fn}.busy_s"] = metric(busy, "s")
    requests, _, _, cli_self = tracer.stat("cli.request")
    # Parse attempts the REPL's element -> term -> formula cascade made;
    # only the REPL parses lines, so this is zero on the axiom workloads.
    attempts = 0
    if requests:
        attempts = sum(
            tracer.stat(s)[0]
            for s in ("nonstandard.parse", "standard.parse", "formulas.parse_term", "formulas.parse_formula")
        )
    m["cli.requests"] = metric(requests, "count")
    m["cli.parse_attempts"] = metric(attempts, "count")
    m["cli.dispatch.useful_ratio"] = metric(requests / attempts if attempts else 0.0, "ratio")
    m["cli.self_s"] = metric(cli_self, "s")
    axioms_self = 0.0
    for axiom_id in mix.EXPECTED_AXIOM_IDS:
        _, _, busy, self_s = tracer.stat(f"axioms.check_axiom.{axiom_id}")
        m[f"axioms.check_axiom.{axiom_id}.busy_s"] = metric(busy, "s")
        axioms_self += self_s
    m["axioms.self_s"] = metric(axioms_self, "s")
    m["axioms.build_axioms.busy_s"] = metric(tracer.stat("axioms.build_axioms")[2], "s")
    traced_per_op = totals[True][1] / totals[True][0]
    untraced_per_op = totals[False][1] / totals[False][0]
    m["trace.overhead_ratio"] = metric(traced_per_op / untraced_per_op, "ratio")

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{name}-seed{seed}.tsv"
    kept = tracer.write_spans(spans_path)
    return {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
        "info": {
            "units": TRACE_UNITS[name],
            "error_rate": failed / attempted,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_kept": kept,
            "spans_dropped": tracer.dropped,
            "problems": workload.problems[:20],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
