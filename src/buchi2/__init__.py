"""An explicit countable non-standard model of Büchi arithmetic BA2.

Exact arithmetic on model elements (``nonstandard``), the standard-model
oracle (``standard``), the componentwise-pairs model and its power-of-two
impossibility refutation (``pairs``), a first-order formula language with
parser and evaluator (``formulas``), and an axiom-checking harness
(``axioms``).  The ``buchi2`` console script fronts all of it.
"""

from .axioms import (
    AxiomSpec,
    Report,
    build_axioms,
    check_axiom,
    run_suite,
)
from .formulas import (
    Formula,
    Term,
    eval_qf,
    eval_term,
    format_formula,
    format_term,
    parse_formula,
    parse_term,
)
from .nonstandard import (
    C,
    Element,
    Model,
    NegativeResultError,
    NonstandardModel,
    NotDivisibleError,
    ONE,
    Ordering,
    ParseError,
    ZERO,
    add,
    compare,
    density_witnesses,
    divide,
    format_element,
    is_hypernumber,
    is_power_of_two,
    is_standard,
    next_power_of_two_above,
    nu2,
    parse_element,
    pow2_cycle_mod,
    residue_mod,
    natural,
    scalar_mul,
    sub,
    t_residue,
    v2,
)
from .pairs import (
    DivisibleByThree,
    FiniteTwoDivisibility,
    PairElement,
    PairsModel,
    Verdict,
    p_add,
    p_compare,
    parse_pair,
    refute_power2_candidate,
    validate_verdict,
)
from .standard import StandardModel, embed, std_v2

__all__ = [
    "AxiomSpec", "Report", "build_axioms", "check_axiom", "run_suite",
    "Formula", "Term", "eval_qf", "eval_term", "format_formula",
    "format_term", "parse_formula", "parse_term",
    "C", "Element", "Model", "NegativeResultError", "NonstandardModel",
    "NotDivisibleError", "ONE", "Ordering", "ParseError", "ZERO", "add",
    "compare", "density_witnesses", "divide", "format_element",
    "is_hypernumber", "is_power_of_two", "is_standard",
    "next_power_of_two_above", "nu2", "parse_element", "pow2_cycle_mod",
    "natural", "residue_mod", "scalar_mul", "sub", "t_residue", "v2",
    "DivisibleByThree", "FiniteTwoDivisibility", "PairElement",
    "PairsModel", "Verdict", "p_add", "p_compare", "parse_pair",
    "refute_power2_candidate", "validate_verdict",
    "StandardModel", "embed", "std_v2",
]
