"""Benchmark of the buchi2 package: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload axioms-nonstd --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in a fresh worker process (``worker.py``).
``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The human-readable
report comes first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output was wrong, 2 when the package is missing, 3 when a worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S  # noqa: E402

WORKLOADS = ("axioms-nonstd", "axioms-std", "repl-mix")


class WorkerError(RuntimeError):
    pass


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh worker process; return its result."""
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    timeout = seconds + 120
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    info = result["info"]
    print(f"== {workload}  seed {seed}  trace {trace}  {info['units']} units")
    notes, measured = {}, info.get("measured", {})
    if not trace:
        notes = {
            "setup_s": f"median of {info['setup_samples']} fresh-process set-ups",
            "ops_per_s": f"median over {info['units']} units",
            "latency_p50_us": f"n={info['latency_samples']}",
            "latency_p99_us": f"n={info['latency_samples']}, {info['beyond_p99']} beyond",
            "peak_rss_mb": "ru_maxrss after the fixed warm-up",
        }
        print(f"  {'':40s} {'host-adjusted':>16s} {'':6s} {'measured':>16s}")
    for name, m in result["metrics"].items():
        raw = f"{measured[name]:>16.6g}" if name in measured else f"{'':16s}"
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} {raw}  {notes.get(name, '')}")
    print(f"  {'error_rate':40s} {info['error_rate']:>16.6g} ratio  "
          f"{result['failed']} failed of {result['attempted']} attempted")
    if "reference_ms" in info:
        ref = info["reference_ms"]
        print(f"  host reference loop: median {ref['median']:.4f} ms "
              f"(min {ref['min']:.4f}, max {ref['max']:.4f}, n={ref['n']}); "
              f"host-adjusted times are scaled to {REFERENCE_S * 1e3:.4f} ms")
    if "spans_file" in info:
        print(f"  spans: {info['spans_kept']} kept in {info['spans_file']}, {info['spans_dropped']} dropped")
    for problem in info["problems"]:
        print(f"  MISMATCH {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "buchi2" / "__init__.py").is_file():
        print(f"no buchi2 package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            report(workload, args.seed, args.trace, results[workload])
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 3
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
