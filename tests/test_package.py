"""The package surface: what ``buchi2`` exports and what each entry point loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import buchi2

SRC = str(Path(buchi2.__file__).parents[1])

# Each module and the names ``buchi2`` exports from it.
EXPORTS = {
    "axioms": {"AxiomSpec", "Report", "build_axioms", "check_axiom", "run_suite"},
    "compiled": {"compile_qf"},
    "formulas": {
        "Formula", "Term", "eval_qf", "eval_term", "format_formula", "format_term",
        "parse_formula", "parse_term",
    },
    "nonstandard": {
        "C", "Element", "Model", "NegativeResultError", "NonstandardModel",
        "NotDivisibleError", "ONE", "Ordering", "ParseError", "ZERO", "add",
        "compare", "density_witnesses", "divide", "format_element",
        "is_hypernumber", "is_power_of_two", "is_standard",
        "next_power_of_two_above", "nu2", "parse_element", "pow2_cycle_mod",
        "natural", "residue_mod", "scalar_mul", "sub", "t_residue", "v2",
    },
    "pairs": {
        "DivisibleByThree", "FiniteTwoDivisibility", "PairElement", "PairsModel",
        "Verdict", "p_add", "p_compare", "parse_pair", "refute_power2_candidate",
        "validate_verdict",
    },
    "standard": {"StandardModel", "embed", "std_v2"},
}


def fresh(code: str) -> str:
    """What ``code`` prints in a new interpreter that finds this package, with stdin at EOF."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


LOADED = """
import sys
loaded = sorted(m for m in sys.modules if m.startswith("buchi2."))
print((loaded, "dataclasses" in sys.modules, "fractions" in sys.modules))
"""


def loaded_after(code: str) -> tuple:
    """The ``buchi2`` submodules loaded after ``code``, and whether dataclasses and fractions are."""
    return ast.literal_eval(fresh(code + LOADED).splitlines()[-1])


def test_each_entry_point_loads_only_what_it_runs():
    repl = ["buchi2.cli", "buchi2.formulas", "buchi2.nonstandard"]
    assert loaded_after("import buchi2") == ([], False, False)
    assert loaded_after("import buchi2.cli") == (repl, False, True)
    assert loaded_after("from buchi2.cli import main; main(['repl', '--model', 'nonstd'])") == (repl, False, True)
    std = sorted(repl + ["buchi2.standard"])
    assert loaded_after("from buchi2.cli import main; main(['repl', '--model', 'std'])") == (std, False, True)
    axioms = "from buchi2.cli import main; main(['axioms', '--model', 'std', '--axioms', 'A1', '--cases', '1'])"
    assert loaded_after(axioms) == (sorted(repl + ["buchi2.axioms", "buchi2.compiled", "buchi2.standard"]), False, True)
    pairs = repl + ["buchi2.pairs"]
    assert loaded_after("from buchi2.cli import main; main(['refute', '(5/7, 6)'])") == (pairs, False, True)
    assert loaded_after("from buchi2.cli import main; main(['repl', '--model', 'pairs'])") == (pairs, False, True)


CONTRACT = """
import importlib, sys
import buchi2

exports = {exports!r}
assert not [m for m in sys.modules if m.startswith("buchi2.")]
for module in ("axioms", "formulas", "nonstandard", "pairs", "standard"):
    assert getattr(buchi2, module) is importlib.import_module("buchi2." + module), module
for module, names in exports.items():
    for name in names:
        assert getattr(buchi2, name) is getattr(importlib.import_module("buchi2." + module), name), name
try:
    buchi2.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
star = {{}}
exec("from buchi2 import *", star)
print(sorted(buchi2.__all__) == sorted(set(buchi2.__all__)), sorted(set(star) - {{"__builtins__"}}))
"""


def test_the_package_exports_each_name_from_its_module():
    names = set().union(*EXPORTS.values())
    assert len(names) == 55 and set(buchi2.__all__) == names
    out = fresh(CONTRACT.format(exports=EXPORTS))
    assert out == f"True {sorted(names)}\n"
