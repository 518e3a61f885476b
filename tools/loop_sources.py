"""Compare the case-loop sources of this checkout with a git revision's.

    python3 tools/loop_sources.py REV

Extracts REV with ``behaviour_diff.extract`` and imports the two trees'
``src/buchi2`` with ``check_ab.load``, as the packages ``buchi2_rev`` and
``buchi2_this``.  Each tree builds every catalog spec at the schema bounds
SCHEMAS and, on each of the MODELS (``cli.make_model`` arguments), writes
the spec's case loop with its own ``compiled._generate``: the conjunction
of the obligations, over the sampled and derived variables, as
``check_axiom`` compiles it.  Only the sources are compared, not the
values their globals hold.  A loop reads the model's bounds when it runs,
and they are not written into its source, so ``nonstd(den_bound=7,
offset_bound=3)`` writes what ``nonstd`` writes.  Prints ``N of M
case-loop sources differ``, where M counts the (schema, model, axiom id)
keys of either tree, then one ``LABEL: N of M differ`` line per model
label, and then the first 20 differing keys.  Exits 0 only when N is 0,
1 when sources differ, and 2 when REV cannot be extracted or a tree fails
to write a loop.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import traceback
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from behaviour_diff import extract  # noqa: E402
from check_ab import load  # noqa: E402

SCHEMAS = (3, 12, 50)
MODELS = {
    "nonstd": ("nonstd",), "nonstd(den_bound=7, offset_bound=3)": ("nonstd", 7, 3), "std": ("std",),
    "std(offset_bound=7)": ("std", 1000, 7), "pairs": ("pairs",), "pairs(den_bound=7, offset_bound=3)": ("pairs", 7, 3),
}
SHOWN = 20


def sources(package: str) -> dict[tuple, str]:
    """(schema, model label, axiom id) -> the source of that case loop, as the package writes it."""
    axioms, cli, compiled, formulas = (importlib.import_module(f"{package}.{m}")
                                       for m in ("axioms", "cli", "compiled", "formulas"))
    loops = {}
    for schema in SCHEMAS:
        catalog = axioms.build_axioms(schema)
        for label, args in MODELS.items():
            model = cli.make_model(*args)
            for spec in catalog:
                f = reduce(formulas.And, (matrix for _, matrix in spec.obligations))
                loops[schema, label, spec.id] = compiled._generate(f, model, spec.derived, spec.sampled)[0]
    return loops


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the catalog's case-loop sources with a git revision's.")
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="loop-sources-") as tmp:
        extract(rev, Path(tmp))
        sides = {rev: ("buchi2_rev", Path(tmp)), "this checkout": ("buchi2_this", ROOT)}
        loops = {}
        for side, (package, root) in sides.items():
            try:
                load(package, root / "src" / "buchi2")
                loops[side] = sources(package)
            except Exception:
                traceback.print_exc()
                print(f"{side} could not write its case loops", file=sys.stderr)
                return 2
    old, new = loops[rev], loops["this checkout"]
    keys = [*old, *(key for key in new if key not in old)]
    differing = [key for key in keys if old.get(key) != new.get(key)]
    print(f"{len(differing)} of {len(keys)} case-loop sources differ")
    for label in MODELS:
        print(f"{label}: {sum(key[1] == label for key in differing)} of {sum(key[1] == label for key in keys)} differ")
    for schema, label, axiom_id in differing[:SHOWN]:
        print(f"  schema {schema}, {label}, {axiom_id}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
