"""An explicit countable non-standard model of Büchi arithmetic BA2.

Exact arithmetic on model elements (``nonstandard``), the standard-model
oracle (``standard``), the componentwise-pairs model and its power-of-two
impossibility refutation (``pairs``), a first-order formula language with
parser and evaluator (``formulas``), its compiler (``compiled``), and an
axiom-checking harness (``axioms``).  The ``buchi2`` console script fronts
all of it.

Importing the package loads none of them: a module loads when one of its
names, or the module itself, is first read from the package (PEP 562).
"""

from importlib import import_module

# Each module and the names the package exports from it.
_EXPORTS = {
    "axioms": "AxiomSpec Report build_axioms check_axiom run_suite",
    "compiled": "",  # its one entry, compile_run, is the axiom harness's
    "formulas": "Formula Term eval_qf eval_term format_formula format_term parse_formula parse_term",
    "nonstandard": """C Element Model NegativeResultError NonstandardModel NotDivisibleError ONE
        Ordering ParseError ZERO add compare density_witnesses divide format_element is_hypernumber
        is_power_of_two is_standard next_power_of_two_above nu2 parse_element pow2_cycle_mod natural
        residue_mod scalar_mul sub t_residue v2""",
    "pairs": """DivisibleByThree FiniteTwoDivisibility PairElement PairsModel Verdict p_add p_compare
        parse_pair refute_power2_candidate validate_verdict""",
    "standard": "StandardModel embed std_v2",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:  # ``from buchi2 import cli`` falls back to importing it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
