"""The measuring tools under ``tools/``, run as scripts."""

import subprocess
import sys
from pathlib import Path

from buchi2.axioms import run_suite
from buchi2.nonstandard import NonstandardModel
from buchi2.pairs import PairsModel
from buchi2.standard import StandardModel

PROBE = Path(__file__).resolve().parents[1] / "tools" / "schema_probe.py"


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
