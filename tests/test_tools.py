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
