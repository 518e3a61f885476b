"""Compare the observable behaviour of this checkout with a git revision.

    python3 tools/behaviour_diff.py REV

Extracts REV with ``git archive`` into a temporary directory, so neither
``.git`` nor the working tree changes, copies this checkout's
``tools/behaviour.py`` and the fault models it imports,
``tests/fault_models.py``, into that tree, so that both sides print the
same readings, and runs it on both trees side by side.  Prints ``N of M lines
differ``, where M is the longer output's line count, and then the first 20
differing pairs: the line number, REV's line and this checkout's line.
Exits 0 only when N is 0, 1 when lines differ, and 2 when a side fails
to run.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN = 20


def extract(rev: str, into: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        print(f"could not extract {rev!r}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare tools/behaviour.py output with a git revision's.")
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="behaviour-diff-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        tree.mkdir()
        extract(rev, tree)
        for copied in ("tools/behaviour.py", "tests/fault_models.py"):
            (tree / copied).parent.mkdir(exist_ok=True)
            shutil.copy(ROOT / copied, tree / copied)
        sides = {rev: tree, "this checkout": ROOT}
        outputs = {name: tmp / f"{i}.txt" for i, name in enumerate(sides)}
        runs = {}
        for name, root in sides.items():
            with open(outputs[name], "w") as out:
                runs[name] = subprocess.Popen(
                    [sys.executable, str(root / "tools" / "behaviour.py")], cwd=root, stdout=out,
                )
        failed = [name for name, run in runs.items() if run.wait()]
        if failed:
            print(f"tools/behaviour.py failed on {', '.join(failed)}", file=sys.stderr)
            return 2
        with open(outputs[rev]) as old, open(outputs["this checkout"]) as new:
            total, differing, shown = 0, 0, []
            for total, (old_line, new_line) in enumerate(zip_longest(old, new), 1):
                if old_line != new_line:
                    differing += 1
                    if len(shown) < SHOWN:
                        shown.append((total, old_line, new_line))
    print(f"{differing} of {total} lines differ")
    for number, old_line, new_line in shown:
        print(f"line {number}")
        print(f"  {rev}: {(old_line or '(none)').rstrip()}")
        print(f"  this checkout: {(new_line or '(none)').rstrip()}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
