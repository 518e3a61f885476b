"""Axiom catalog and the sampled/witnessed checking harness.

Each catalog entry pairs the axiom's first-order statement with a
quantifier-free checking matrix over sampled and derived variables:

- universally quantified variables take the model's corner elements, one
  case per corner, then seeded random samples from the target model;
- existential quantifiers are discharged by witness functions (difference
  for order, predecessor, halving, congruence quotients, the next power of
  two); the witness value is never trusted, the matrix is re-evaluated on
  it;
- schema axioms carry one matrix per value of their numeric parameter, up
  to a configured bound.

An axiom's obligations are compiled (``compiled.compile_run``) as one
check, their conjunction, inside a generated case loop, a Python function
in which a schema's obligations share their slots and the sampled
variables are locals, drawn inline for ``Model``'s own sampler;
it is kept in the spec's private ``_compiled`` slot for the last two
model objects, looked up by identity.  A witness is a slot of the check,
computed when a matrix first reads it.  The loop builds an env only for
the case that fails.  A false check computes the witnesses it did not
read, so the report lists every derived variable; the interpreter
(``eval_qf``) then runs the obligations in order and reports the first
false one, with its parameter.

A sampled check can only falsify an axiom, not prove it; the point of the
harness is falsification power at a chosen scale.  Checks are
deterministic for a fixed seed: every axiom draws from its own stream
seeded by ``"<seed>:<axiom id>"``.
"""

from __future__ import annotations

import random
from functools import cache, reduce
from threading import Lock
from typing import Collection, Iterable, Optional

from .compiled import _check_derived, compile_run
from .formulas import (
    And, CongMod, Eq, Formula, Implies, Not, Numeral, Or, Sum, V2App, Variable,
    eval_qf, mentions, nsum, parse_formula,
)
from .nonstandard import EQUAL, GREATER, LESS, Model, ParseError, _Frozen

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

# The A4 conjunction and A11 disjunction chains are about as deep as the
# schema bound, and so are A4's sums.  The compiled checks run the chains
# and sums without recursion, but compiling them and eval_qf, which
# confirms every FAIL, both take one stack frame per sum link: far past
# this bound a sum would overflow Python's recursion limit.
MAX_SCHEMA = 500


# -- witness functions -------------------------------------------------------
#
# Signature: fn(model, param, *values) -> element, where values are the
# slot values of the reads its derived variable declares (see compile_run).
# In a case loop on (p, q, w) triples, model is nonstandard.TRIPLE_VIEW and
# the elements are triples, so these call only the model's members.
# Where no genuine witness exists the functions return a dummy (zero, or x)
# that leaves the matrix's guarding antecedent false.

def _w_difference(model: Model, param, x, y, zero):
    return model.sub(y, x) if model.compare(x, y) is LESS else zero


def _w_predecessor(model: Model, param, x, zero, one):
    return zero if model.compare(x, zero) is EQUAL else model.sub(x, one)


def _w_congruence_quotient(model: Model, param, x, y, x_residue, y_residue, zero):
    if x_residue != y_residue:
        return zero
    if model.compare(x, y) is LESS:
        x, y = y, x
    return model.divide(model.sub(x, y), param)


def _w_halve(model: Model, param, x, x_residue, zero):
    return zero if x_residue != 0 else model.divide(x, 2)


def _w_next_power_of_two(model: Model, param, x):
    return model.next_power_of_two(x)


def _w_power_gap_probe(model: Model, param, x, one, v2_x):
    # A point in the open interval (x, 2x) when x is a power of two > 1;
    # otherwise just x, which leaves the interval guard false.
    if model.compare(x, one) is not GREATER:
        return x
    if model.compare(v2_x, x) is not EQUAL:
        return x
    return model.add(x, model.divide(x, 2))


class AxiomSpec(_Frozen):
    """One checkable axiom, a frozen value (``nonstandard._Frozen``).

    ``text`` is the axiom's own statement.  ``obligations`` are the
    quantifier-free matrices actually evaluated, each paired with its
    schema parameter (``None`` outside schemata); a case passes when every
    one holds.  They range over ``sampled`` variables drawn from the model
    and the ``derived`` variables: each ``(name, witness, param, reads)``
    binds ``name`` to ``witness(model, param, *values of reads)`` when a
    matrix first reads it (``compile_run``'s ``derived``).  A derived
    ``name`` that is sampled, derived twice or read by its own or an
    earlier witness raises ValueError here.  ``_compiled``, a
    private slot that copies start empty, maps the ``id`` of the last two
    models checked to that model (held, so the ``id`` stays its own), the
    check of all the obligations and the lock that ``check_axiom`` holds
    while it runs the check, so that threads run it one at a time.
    """

    __slots__ = ("id", "text", "sampled", "obligations", "derived", "_compiled")

    def __init__(self, id: str, text: str, sampled: tuple[str, ...],
                 obligations: tuple[tuple[Optional[int], Formula], ...], derived: tuple[tuple, ...] = ()):
        _check_derived(sampled, derived)
        self._fill(id, text, sampled, obligations, derived, {})


class Report(_Frozen):
    """Outcome of checking one axiom against one model, a frozen value.

    A FAIL report carries an assignment (variable -> printed element) that
    makes the checking matrix false on re-evaluation, plus the schema
    parameter if one was involved.  A witness-computation error is
    reported in ``error`` with the sampled variables and the derived
    variables computed before it.
    """

    __slots__ = ("axiom_id", "status", "cases", "seed", "counterexample", "param", "error")

    def __init__(self, axiom_id: str, status: str, cases: int, seed: int, counterexample=(), param=None, error=""):
        self._fill(axiom_id, status, cases, seed, counterexample, param, error)


def _one(text: str) -> tuple[tuple[None, Formula]]:
    """The obligations of an axiom that is not a schema: its one matrix."""
    return ((None, parse_formula(text)),)


# The schema matrices are built from nodes.  The residue-cases and
# congruence matrices grow with the schema bound, and as text they would
# nest deeper than the parser's MAX_DEPTH allows once the bound reaches a
# few dozen.  The odd-indivisibility matrices are built the same way, so
# the catalog parses the same fixed set of texts whatever the bound.  The
# builders share their nodes: one Variable per name and one Numeral per
# value across all matrices, and each n-fold sum of u extends the last.

_X, _Y, _U = Variable("x"), Variable("y"), Variable("u")
_numeral = cache(Numeral)  # called with values below MAX_SCHEMA only


def _residue_cases_matrix(n: int) -> Formula:
    # x == 0 mod n | x == 1 mod n | ... | x == n-1 mod n
    return reduce(Or, (CongMod(n, _X, _numeral(j)) for j in range(n)))


def _odd_indivisibility_matrix(n: int) -> Formula:
    # (V2(x) = x & ~ x = 0) -> ~ x == 0 mod n
    x, zero = _X, _numeral(0)
    return Implies(And(Eq(V2App(x), x), Not(Eq(x, zero))), Not(CongMod(n, x, zero)))


def _congruence_matrix(schema_max: int) -> Formula:
    # (x == y mod n -> (x = wn + ... + wn + y | y = wn + ... + wn + x))
    # & (u + ... + u + y == y mod n), n summands each, for n = 2..schema_max
    x, y, u = _X, _Y, _U
    parts = []
    u_sum = u
    for n in range(2, schema_max + 1):
        w = nsum(Variable(f"w{n}"), n)
        u_sum = Sum(u_sum, u)
        parts.append(And(
            Implies(CongMod(n, x, y), Or(Eq(x, Sum(w, y)), Eq(y, Sum(w, x)))),
            CongMod(n, Sum(u_sum, y), y),
        ))
    return reduce(And, parts)


def build_axioms(schema_max: int = 12, ids: Optional[Collection[str]] = None) -> tuple[AxiomSpec, ...]:
    """The full catalog: A1..A17 plus the V2-induction block V12..V14.

    With ``ids``, only the specs with those ids, in catalog order; ids not
    in the catalog are ignored.  A schema's obligations, which grow with
    ``schema_max``, are built only for the specs returned.  A ``schema_max``
    that is not an int, or ``ids`` given as one str, raises TypeError.
    """
    _check_ints(schema_max=schema_max)
    if isinstance(ids, str):  # a str is a collection of one-letter ids, and "" is in every str
        raise TypeError(f"ids must be a collection of axiom ids, not a str, got {ids!r}")
    if schema_max < 3:
        raise ValueError(f"schema bound must be at least 3, got {schema_max}")
    if schema_max > MAX_SCHEMA:
        raise ValueError(f"schema bound must be at most {MAX_SCHEMA}, got {schema_max}")
    wanted = None if ids is None else set(ids)

    def schema(axiom_id, build):
        return build() if wanted is None or axiom_id in wanted else ()

    specs = [
        AxiomSpec(
            id="A1",
            text="forall x. ((x = 0 -> forall y. x + y = y) & ((forall y. x + y = y) -> x = 0))",
            sampled=("x", "y"),
            obligations=_one("(x = 0 -> x + y = y) & (x + y = y -> x = 0)"),
        ),
        AxiomSpec(
            id="A2",
            text=(
                "forall x. forall y. ((x < y -> exists z. (x + z = y & ~ z = 0))"
                " & ((exists z. (x + z = y & ~ z = 0)) -> x < y))"
            ),
            sampled=("x", "y", "u"),
            obligations=_one("(x < y -> (x + z = y & ~ z = 0)) & (~ u = 0 -> x < x + u)"),
            derived=(("z", _w_difference, None, (_X, _Y, _numeral(0))),),
        ),
        AxiomSpec(
            id="A3",
            text=(
                "forall x. ((x = 1 -> (0 < x & ~ exists z. (0 < z & z < x)))"
                " & ((0 < x & ~ exists z. (0 < z & z < x)) -> x = 1))"
            ),
            sampled=("x", "z"),
            obligations=_one("(x = 1 -> (0 < x & ~ (0 < z & z < x))) & ((0 < x & ~ x = 1) -> (0 < 1 & 1 < x))"),
        ),
        AxiomSpec(
            id="A4",
            text=(
                "forall x. forall y. ((x == y mod 2 -> exists u. (x = u + u + y | y = u + u + x))"
                " & ((exists u. (x = u + u + y | y = u + u + x)) -> x == y mod 2))"
            ),
            sampled=("x", "y", "u"),
            obligations=schema("A4", lambda: ((None, _congruence_matrix(schema_max)),)),
            derived=tuple((f"w{n}", _w_congruence_quotient, n, (_X, _Y, (_X, n), (_Y, n), _numeral(0)))
                          for n in range(2, schema_max + 1)),
        ),
        AxiomSpec(
            id="A5",
            text="forall x. ~ x + 1 = 0",
            sampled=("x",),
            obligations=_one("~ x + 1 = 0"),
        ),
        AxiomSpec(
            id="A6",
            text="forall x. forall y. forall z. (x + z = y + z -> x = y)",
            sampled=("x", "y", "z"),
            obligations=_one("x + z = y + z -> x = y"),
        ),
        AxiomSpec(
            id="A7",
            text="forall x. forall y. forall z. (x + y) + z = x + (y + z)",
            sampled=("x", "y", "z"),
            obligations=_one("(x + y) + z = x + (y + z)"),
        ),
        AxiomSpec(
            id="A8",
            text="forall x. (x = 0 | exists y. x = y + 1)",
            sampled=("x",),
            obligations=_one("x = 0 | x = p + 1"),
            derived=(("p", _w_predecessor, None, (_X, _numeral(0), _numeral(1))),),
        ),
        AxiomSpec(
            id="A9",
            text="forall x. forall y. x + y = y + x",
            sampled=("x", "y"),
            obligations=_one("x + y = y + x"),
        ),
        AxiomSpec(
            id="A10",
            text="forall x. forall y. (x < y | x = y | y < x)",
            sampled=("x", "y"),
            obligations=_one("x < y | x = y | y < x"),
        ),
        AxiomSpec(
            id="A11",
            text="forall x. (x == 0 mod 2 | x == 1 mod 2)",
            sampled=("x",),
            obligations=schema("A11", lambda: tuple(
                (n, _residue_cases_matrix(n)) for n in range(2, schema_max + 1)
            )),
        ),
        AxiomSpec(
            id="A12",
            text="forall x. ((V2(x) = 0 -> x = 0) & (x = 0 -> V2(x) = 0))",
            sampled=("x",),
            obligations=_one("(V2(x) = 0 -> x = 0) & (x = 0 -> V2(x) = 0)"),
        ),
        # "is odd" is decided by the mod-2 residue rather than a search for the
        # halving witness; the equivalence is itself under test via A4 and A14.
        AxiomSpec(
            id="A13",
            text="forall x. (~ (exists t. t + t = x) -> V2(x) = 1)",
            sampled=("x",),
            obligations=_one("~ x == 0 mod 2 -> V2(x) = 1"),
        ),
        AxiomSpec(
            id="A14",
            text="forall x. forall t. (t + t = x -> V2(x) = V2(t) + V2(t))",
            sampled=("x",),
            obligations=_one("h + h = x -> V2(x) = V2(h) + V2(h)"),
            derived=(("h", _w_halve, None, (_X, (_X, 2), _numeral(0))),),
        ),
        AxiomSpec(
            id="A15",
            text="forall x. exists y. (y > x & V2(y) = y)",
            sampled=("x",),
            obligations=_one("x < w & V2(w) = w"),
            derived=(("w", _w_next_power_of_two, None, (_X,)),),
        ),
        AxiomSpec(
            id="A16",
            text="forall x. (V2(x) = x -> forall y. ((x < y & y < x + x) -> V2(y) < y))",
            sampled=("x", "y"),
            obligations=_one(
                "((V2(x) = x & ~ x = 0) & x < y & y < x + x -> V2(y) < y)"
                " & ((V2(x) = x & ~ x = 0) & x < m & m < x + x -> V2(m) < m)"
            ),
            derived=(("m", _w_power_gap_probe, None, (_X, _numeral(1), V2App(_X))),),
        ),
        AxiomSpec(
            id="A17",
            text="forall x. ((V2(x) = x & ~ x = 0) -> ~ x == 0 mod 3)",
            sampled=("x",),
            obligations=schema("A17", lambda: tuple(
                (n, _odd_indivisibility_matrix(n)) for n in range(3, schema_max + 1, 2)
            )),
        ),
    ]
    # The V2-induction block restates A12..A14 under its own ids.
    specs += [AxiomSpec("V" + s.id[1:], s.text, s.sampled, s.obligations, s.derived) for s in specs[11:14]]
    return tuple(spec for spec in specs if wanted is None or spec.id in wanted)


def _format_env(model: Model, env: dict) -> tuple[tuple[str, str], ...]:
    return tuple((name, model.format(value)) for name, value in sorted(env.items()))


def _check_ints(**values) -> None:
    for name, value in values.items():
        if value.__class__ is bool or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")


# Guards every spec's ``_compiled`` bookkeeping; each entry has a lock of its own for its loop.
_CACHE = Lock()


def check_axiom(axiom: AxiomSpec, model: Model, *, cases: int = 1000, seed: int = 0) -> Report:
    """Check one axiom against one model; deterministic for a fixed seed.

    ``cases`` and ``seed`` must be ints (else TypeError) and ``cases``
    positive; a case whose check raises a ValueError, also in a witness the
    check reads, fails the axiom.  A false check reports the first
    obligation ``eval_qf`` finds false, or raises AssertionError if there is
    none.
    """
    _check_ints(cases=cases, seed=seed)
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases}")
    if not model.has_v2 and any(mentions(matrix, V2App) for _, matrix in axiom.obligations):
        return Report(axiom.id, SKIPPED, 0, seed)
    if not axiom.obligations:
        return Report(axiom.id, PASS, cases, seed)
    with _CACHE:
        entry = axiom._compiled.pop(id(model), None)
    if entry is None:
        matrices = (matrix for _, matrix in axiom.obligations)  # in catalog order
        entry = model, compile_run(reduce(And, matrices), model, axiom.sampled, axiom.derived), Lock()
    with _CACHE:
        axiom._compiled[id(model)] = entry
        if len(axiom._compiled) > 2:  # keep the two most recently checked models
            del axiom._compiled[next(iter(axiom._compiled))]
    _, run, lock = entry
    with lock:  # a loop keeps state across calls, so it runs one call at a time
        failed = run(random.Random(f"{seed}:{axiom.id}"), cases, model.corner_elements())
    if failed is None:
        return Report(axiom.id, PASS, cases, seed)
    case, env, error = failed  # env holds the sampled variables and the derived ones computed
    try:
        if error is None:
            for n, matrix in axiom.obligations:  # the interpreter must confirm a false check
                if not eval_qf(matrix, env, model):
                    return Report(axiom.id, FAIL, case, seed, counterexample=_format_env(model, env), param=n)
            raise AssertionError(f"{axiom.id}: the compiled check and eval_qf disagree")
    except ValueError as exc:
        error = exc
    return Report(axiom.id, FAIL, case, seed, counterexample=_format_env(model, env), error=str(error))


def run_suite(
    model: Model,
    *,
    seed: int = 0,
    cases: int = 1000,
    schema_max: int = 12,
    ids: Optional[Iterable[str]] = None,
) -> list[Report]:
    """Check every catalog axiom (or the given ids, in catalog order) against the model.

    Schema matrices are built for the requested ids only.  Empty or
    unknown ids raise ParseError, a ValueError, after the schema bound's
    own errors; a ``seed``, ``cases`` or ``schema_max`` that is not an int,
    or ``ids`` given as one str, raises TypeError first.  ``ids`` may be
    any iterable, read once.
    """
    _check_ints(cases=cases, seed=seed)
    if ids is not None and not isinstance(ids, str):  # an iterator would be empty at the second read
        ids = tuple(ids)
    catalog = build_axioms(schema_max, ids)
    if ids is not None:
        if "" in ids:
            raise ParseError("empty axiom id")
        known = {spec.id for spec in catalog}
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise ParseError(f"unknown axiom ids: {', '.join(unknown)}")
    return [check_axiom(spec, model, cases=cases, seed=seed) for spec in catalog]
