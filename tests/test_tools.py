"""The measuring tools under ``tools/``, run as scripts."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from buchi2.axioms import run_suite
from buchi2.nonstandard import NonstandardModel
from buchi2.pairs import PairsModel
from buchi2.standard import StandardModel

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "tools" / "schema_probe.py"


def test_schema_probe_prints_each_models_reports():
    done = subprocess.run(
        [sys.executable, str(PROBE), "--schema-max", "12"], capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    heads = [line.split() for line in lines if not line.startswith("  ")]
    assert [(h[0], h[1:3], h[4], h[6]) for h in heads] == [
        (model, ["schema", "12"], "s", "MB") for model in ("std", "nonstd", "pairs")
    ]
    expected = [
        repr(r) for model in (StandardModel(), NonstandardModel(), PairsModel())
        for r in run_suite(model, cases=2, schema_max=12, ids=("A4", "A11", "A17"))
    ]
    assert [line.strip() for line in lines if line.startswith("  ")] == expected


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git history of this checkout")
def test_check_ab_times_each_models_checks_against_a_revision():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_ab.py"), "HEAD"], capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    number = r"[0-9.]+"
    labels = ["std requests", "nonstd requests", "repl requests"]
    for label, text in zip(labels, done.stdout.splitlines(), strict=True):
        match = re.fullmatch(
            rf"{label}: HEAD {number} ms, this checkout {number} ms, ratio {number}; "
            r"faster in (\d+) rounds \(HEAD\) and (\d+) \(this checkout\) of 40", text,
        )
        assert match and int(match[1]) + int(match[2]) <= 40, text


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git history of this checkout")
def test_loop_sources_compares_each_case_loop_with_a_revision():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loop_sources.py"), "HEAD"], capture_output=True, text=True, timeout=300,
    )
    first, *lines = done.stdout.splitlines()
    match = re.fullmatch(r"(\d+) of 360 case-loop sources differ", first)
    assert match, done.stdout
    differing = int(match[1])  # 0 unless this checkout's emitter differs from HEAD's
    assert (done.returncode, done.stderr) == (1 if differing else 0, "")
    labels = ("nonstd", "nonstd(den_bound=7, offset_bound=3)", "std", "std(offset_bound=7)", "pairs",
              "pairs(den_bound=7, offset_bound=3)")
    counts, keys = lines[:len(labels)], lines[len(labels):]
    per_label = [re.fullmatch(rf"{re.escape(label)}: (\d+) of 60 differ", line) for label, line in zip(labels, counts)]
    assert all(per_label), done.stdout
    assert sum(int(m[1]) for m in per_label) == differing
    assert len(keys) == min(differing, 20)
    names = "|".join(map(re.escape, labels))
    assert all(re.fullmatch(rf"  schema (3|12|50), ({names}), [AV]\d+", k) for k in keys)
