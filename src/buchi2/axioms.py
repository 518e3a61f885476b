"""Axiom catalog and the sampled/witnessed checking harness.

Each catalog entry pairs the axiom's first-order statement with a
quantifier-free checking matrix over sampled and derived variables:

- universally quantified variables are instantiated with corner cases and
  seeded random samples from the target model;
- existential quantifiers are discharged by registered witness functions
  (difference for order, predecessor, halving, congruence quotients, the
  next power of two); the witness value is never trusted, the matrix is
  re-evaluated on it;
- schema axioms iterate their numeric parameter up to a configured bound.

A sampled check can only falsify an axiom, not prove it; the point of the
harness is falsification power at a chosen scale.  Checks are
deterministic for a fixed seed: every axiom draws from its own stream
seeded by ``"<seed>:<axiom id>"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional

from .formulas import (
    And, CongMod, Eq, Formula, Implies, Numeral, Or, Sum, Variable, eval_qf, nsum, parse_formula,
)
from .nonstandard import (
    Model,
    NegativeResultError,
    NotDivisibleError,
    Ordering,
    ParseError,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

UNIVERSAL_SAMPLED = "UNIVERSAL_SAMPLED"
EXISTENTIAL_WITNESSED = "EXISTENTIAL_WITNESSED"
SCHEMA = "SCHEMA"


# -- witness functions -------------------------------------------------------
#
# Signature: fn(model, env, param) -> element.  Where no genuine witness
# exists the functions return a dummy (zero) that leaves the matrix's
# guarding antecedent false.

def _w_difference(model: Model, env, param=None):
    x, y = env["x"], env["y"]
    if model.compare(x, y) is Ordering.LESS:
        return model.sub(y, x)
    return model.numeral(0)


def _w_predecessor(model: Model, env, param=None):
    x = env["x"]
    zero = model.numeral(0)
    if model.compare(x, zero) is Ordering.EQUAL:
        return zero
    return model.sub(x, model.numeral(1))


def _w_congruence_quotient(model: Model, env, param):
    x, y = env["x"], env["y"]
    if model.residue_mod(x, param) != model.residue_mod(y, param):
        return model.numeral(0)
    if model.compare(x, y) is Ordering.LESS:
        x, y = y, x
    return model.divide(model.sub(x, y), param)


def _w_halve(model: Model, env, param=None):
    x = env["x"]
    if model.residue_mod(x, 2) != 0:
        return model.numeral(0)
    return model.divide(x, 2)


def _w_next_power_of_two(model: Model, env, param=None):
    return model.next_power_of_two(env["x"])


def _w_power_gap_probe(model: Model, env, param=None):
    # A point in the open interval (x, 2x) when x is a power of two > 1;
    # otherwise just x, which leaves the interval guard false.
    x = env["x"]
    if model.compare(x, model.numeral(1)) is not Ordering.GREATER:
        return x
    if model.compare(model.v2(x), x) is not Ordering.EQUAL:
        return x
    return model.add(x, model.divide(x, 2))


WITNESSES: dict[str, Callable] = {
    "difference": _w_difference,
    "predecessor": _w_predecessor,
    "congruence_quotient": _w_congruence_quotient,
    "halve": _w_halve,
    "next_power_of_two": _w_next_power_of_two,
    "power_gap_probe": _w_power_gap_probe,
}


@dataclass(frozen=True)
class AxiomSpec:
    """One checkable axiom.

    ``text`` is the axiom's own statement; ``matrix`` (or ``schema_matrix``
    per parameter) is the quantifier-free obligation actually evaluated,
    over ``sampled`` variables drawn from the model and ``derived``
    variables computed by witness functions.
    """

    id: str
    text: str
    strategy: str
    sampled: tuple[str, ...]
    derived: tuple[tuple[str, str, Optional[int]], ...] = ()
    matrix: Optional[Formula] = None
    schema_params: tuple[int, ...] = ()
    schema_matrix: Optional[Callable[[int], Formula]] = None
    needs_v2: bool = False


@dataclass(frozen=True)
class Report:
    """Outcome of checking one axiom against one model.

    A FAIL report carries an assignment (variable -> printed element) that
    makes the checking matrix false on re-evaluation, plus the schema
    parameter if one was involved.  A witness-computation error is
    reported in ``error`` with the triggering assignment.
    """

    axiom_id: str
    status: str
    cases: int
    seed: int
    counterexample: tuple[tuple[str, str], ...] = ()
    param: Optional[int] = None
    error: str = ""


# The residue-cases and congruence matrices grow with the schema bound, so
# they are built from nodes: as text they would nest deeper than the
# parser's MAX_DEPTH allows once the bound reaches a few dozen.

@lru_cache(maxsize=None)
def _residue_cases_matrix(n: int) -> Formula:
    # x == 0 mod n | x == 1 mod n | ... | x == n-1 mod n
    return reduce(Or, (CongMod(n, Variable("x"), Numeral(j)) for j in range(n)))


@lru_cache(maxsize=None)
def _odd_indivisibility_matrix(n: int) -> Formula:
    return parse_formula(f"(V2(x) = x & ~ x = 0) -> ~ x == 0 mod {n}")


def _congruence_matrix(schema_max: int) -> Formula:
    # (x == y mod n -> (x = wn + ... + wn + y | y = wn + ... + wn + x))
    # & (u + ... + u + y == y mod n), n summands each, for n = 2..schema_max
    x, y, u = Variable("x"), Variable("y"), Variable("u")
    parts = []
    for n in range(2, schema_max + 1):
        w = nsum(Variable(f"w{n}"), n)
        parts.append(And(
            Implies(CongMod(n, x, y), Or(Eq(x, Sum(w, y)), Eq(y, Sum(w, x)))),
            CongMod(n, Sum(nsum(u, n), y), y),
        ))
    return reduce(And, parts)


def build_axioms(schema_max: int = 12) -> tuple[AxiomSpec, ...]:
    """The full catalog: A1..A17 plus the V2-induction block V12..V14."""
    if schema_max < 3:
        raise ValueError(f"schema bound must be at least 3, got {schema_max}")
    odd_params = tuple(n for n in range(3, schema_max + 1) if n % 2)

    a12 = dict(
        text="forall x. ((V2(x) = 0 -> x = 0) & (x = 0 -> V2(x) = 0))",
        strategy=UNIVERSAL_SAMPLED,
        sampled=("x",),
        matrix=parse_formula("(V2(x) = 0 -> x = 0) & (x = 0 -> V2(x) = 0)"),
        needs_v2=True,
    )
    # "is odd" is decided by the mod-2 residue rather than a search for the
    # halving witness; the equivalence is itself under test via A4 and A14.
    a13 = dict(
        text="forall x. (~ (exists t. t + t = x) -> V2(x) = 1)",
        strategy=UNIVERSAL_SAMPLED,
        sampled=("x",),
        matrix=parse_formula("~ x == 0 mod 2 -> V2(x) = 1"),
        needs_v2=True,
    )
    a14 = dict(
        text="forall x. forall t. (t + t = x -> V2(x) = V2(t) + V2(t))",
        strategy=EXISTENTIAL_WITNESSED,
        sampled=("x",),
        derived=(("h", "halve", None),),
        matrix=parse_formula("h + h = x -> V2(x) = V2(h) + V2(h)"),
        needs_v2=True,
    )

    specs = [
        AxiomSpec(
            id="A1",
            text="forall x. ((x = 0 -> forall y. x + y = y) & ((forall y. x + y = y) -> x = 0))",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "y"),
            matrix=parse_formula("(x = 0 -> x + y = y) & (x + y = y -> x = 0)"),
        ),
        AxiomSpec(
            id="A2",
            text=(
                "forall x. forall y. ((x < y -> exists z. (x + z = y & ~ z = 0))"
                " & ((exists z. (x + z = y & ~ z = 0)) -> x < y))"
            ),
            strategy=EXISTENTIAL_WITNESSED,
            sampled=("x", "y", "u"),
            derived=(("z", "difference", None),),
            matrix=parse_formula("(x < y -> (x + z = y & ~ z = 0)) & (~ u = 0 -> x < x + u)"),
        ),
        AxiomSpec(
            id="A3",
            text=(
                "forall x. ((x = 1 -> (0 < x & ~ exists z. (0 < z & z < x)))"
                " & ((0 < x & ~ exists z. (0 < z & z < x)) -> x = 1))"
            ),
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "z"),
            matrix=parse_formula("(x = 1 -> (0 < x & ~ (0 < z & z < x))) & ((0 < x & ~ x = 1) -> (0 < 1 & 1 < x))"),
        ),
        AxiomSpec(
            id="A4",
            text=(
                "forall x. forall y. ((x == y mod 2 -> exists u. (x = u + u + y | y = u + u + x))"
                " & ((exists u. (x = u + u + y | y = u + u + x)) -> x == y mod 2))"
            ),
            strategy=EXISTENTIAL_WITNESSED,
            sampled=("x", "y", "u"),
            derived=tuple((f"w{n}", "congruence_quotient", n) for n in range(2, schema_max + 1)),
            matrix=_congruence_matrix(schema_max),
        ),
        AxiomSpec(
            id="A5",
            text="forall x. ~ x + 1 = 0",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x",),
            matrix=parse_formula("~ x + 1 = 0"),
        ),
        AxiomSpec(
            id="A6",
            text="forall x. forall y. forall z. (x + z = y + z -> x = y)",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "y", "z"),
            matrix=parse_formula("x + z = y + z -> x = y"),
        ),
        AxiomSpec(
            id="A7",
            text="forall x. forall y. forall z. (x + y) + z = x + (y + z)",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "y", "z"),
            matrix=parse_formula("(x + y) + z = x + (y + z)"),
        ),
        AxiomSpec(
            id="A8",
            text="forall x. (x = 0 | exists y. x = y + 1)",
            strategy=EXISTENTIAL_WITNESSED,
            sampled=("x",),
            derived=(("p", "predecessor", None),),
            matrix=parse_formula("x = 0 | x = p + 1"),
        ),
        AxiomSpec(
            id="A9",
            text="forall x. forall y. x + y = y + x",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "y"),
            matrix=parse_formula("x + y = y + x"),
        ),
        AxiomSpec(
            id="A10",
            text="forall x. forall y. (x < y | x = y | y < x)",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "y"),
            matrix=parse_formula("x < y | x = y | y < x"),
        ),
        AxiomSpec(
            id="A11",
            text="forall x. (x == 0 mod 2 | x == 1 mod 2)",
            strategy=SCHEMA,
            sampled=("x",),
            schema_params=tuple(range(2, schema_max + 1)),
            schema_matrix=_residue_cases_matrix,
        ),
        AxiomSpec(id="A12", **a12),
        AxiomSpec(id="A13", **a13),
        AxiomSpec(id="A14", **a14),
        AxiomSpec(
            id="A15",
            text="forall x. exists y. (y > x & V2(y) = y)",
            strategy=EXISTENTIAL_WITNESSED,
            sampled=("x",),
            derived=(("w", "next_power_of_two", None),),
            matrix=parse_formula("x < w & V2(w) = w"),
            needs_v2=True,
        ),
        AxiomSpec(
            id="A16",
            text="forall x. (V2(x) = x -> forall y. ((x < y & y < x + x) -> V2(y) < y))",
            strategy=UNIVERSAL_SAMPLED,
            sampled=("x", "y"),
            derived=(("m", "power_gap_probe", None),),
            matrix=parse_formula(
                "((V2(x) = x & ~ x = 0) & x < y & y < x + x -> V2(y) < y)"
                " & ((V2(x) = x & ~ x = 0) & x < m & m < x + x -> V2(m) < m)"
            ),
            needs_v2=True,
        ),
        AxiomSpec(
            id="A17",
            text="forall x. ((V2(x) = x & ~ x = 0) -> ~ x == 0 mod 3)",
            strategy=SCHEMA,
            sampled=("x",),
            schema_params=odd_params,
            schema_matrix=_odd_indivisibility_matrix,
            needs_v2=True,
        ),
        AxiomSpec(id="V12", **a12),
        AxiomSpec(id="V13", **a13),
        AxiomSpec(id="V14", **a14),
    ]
    return tuple(specs)


def _sample_env(axiom: AxiomSpec, model: Model, rng, corners, case_index: int) -> dict:
    if case_index < len(corners):
        return {
            var: corners[(case_index + j) % len(corners)]
            for j, var in enumerate(axiom.sampled)
        }
    return {var: model.sample(rng) for var in axiom.sampled}


def _format_env(model: Model, env: dict) -> tuple[tuple[str, str], ...]:
    return tuple((name, model.format(value)) for name, value in sorted(env.items()))


def check_axiom(axiom: AxiomSpec, model: Model, *, cases: int = 1000, seed: int = 0) -> Report:
    """Check one axiom against one model; deterministic for a fixed seed."""
    if axiom.needs_v2 and not model.has_v2:
        return Report(axiom.id, SKIPPED, 0, seed)
    rng = random.Random(f"{seed}:{axiom.id}")
    corners = model.corner_elements()
    if axiom.strategy == SCHEMA:
        obligations = [(n, axiom.schema_matrix(n)) for n in axiom.schema_params]
    else:
        obligations = [(None, axiom.matrix)]
    for i in range(cases):
        env = _sample_env(axiom, model, rng, corners, i)
        try:
            for var, witness_id, param in axiom.derived:
                env[var] = WITNESSES[witness_id](model, env, param)
            for n, matrix in obligations:
                if not eval_qf(matrix, env, model):
                    assert not eval_qf(matrix, env, model)  # counterexample re-evaluates
                    return Report(
                        axiom.id, FAIL, i + 1, seed,
                        counterexample=_format_env(model, env), param=n,
                    )
        except (NegativeResultError, NotDivisibleError, ValueError) as exc:
            return Report(
                axiom.id, FAIL, i + 1, seed,
                counterexample=_format_env(model, env), error=str(exc),
            )
    return Report(axiom.id, PASS, cases, seed)


def run_suite(
    model: Model,
    *,
    seed: int = 0,
    cases: int = 1000,
    schema_max: int = 12,
    ids: Optional[tuple[str, ...]] = None,
) -> list[Report]:
    """Check every catalog axiom (or the given ids) against the model.

    Unknown ids raise ParseError, a ValueError.
    """
    catalog = build_axioms(schema_max)
    if ids is not None:
        known = {spec.id for spec in catalog}
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise ParseError(f"unknown axiom ids: {', '.join(unknown)}")
        catalog = tuple(spec for spec in catalog if spec.id in set(ids))
    return [check_axiom(spec, model, cases=cases, seed=seed) for spec in catalog]
