"""Parser, printer and evaluation of the formula language."""

import os
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import buchi2

from buchi2.axioms import MAX_SCHEMA
from buchi2.formulas import (
    MAX_DEPTH,
    And,
    CongMod,
    Eq,
    Exists,
    ForAll,
    Implies,
    Lt,
    Not,
    Numeral,
    Or,
    Sum,
    UnboundVariableError,
    V2App,
    Variable,
    _Parser,
    compile_qf,
    eval_qf,
    eval_term,
    format_formula,
    format_term,
    free_variables,
    is_formula_text,
    mentions,
    nsum,
    parse_formula,
    parse_term,
)
from buchi2.nonstandard import Element, NonstandardModel, ParseError
from buchi2.pairs import PairsModel
from buchi2.standard import StandardModel

NONSTD = NonstandardModel()
STD = StandardModel()
PAIRS = PairsModel()


# -- parsing -------------------------------------------------------------------

def test_parse_axiom15_shape():
    f = parse_formula("forall x. exists y. (y > x & V2(y) = y)")
    assert f == ForAll(
        "x",
        Exists(
            "y",
            And(Lt(Variable("x"), Variable("y")), Eq(V2App(Variable("y")), Variable("y"))),
        ),
    )


def test_parse_simple_equation():
    assert parse_formula("x + 0 = x") == Eq(Sum(Variable("x"), Numeral(0)), Variable("x"))


def test_parse_residue_schema_instance():
    f = parse_formula("forall x. (x == 0 mod 3 | x == 1 mod 3 | x == 2 mod 3)")
    x = Variable("x")
    assert f == ForAll(
        "x",
        Or(Or(CongMod(3, x, Numeral(0)), CongMod(3, x, Numeral(1))), CongMod(3, x, Numeral(2))),
    )


def test_parse_precedence():
    f = parse_formula("~ a = 0 & b = 0 | c = 0 -> d = 0")
    a, b, c, d = (Eq(Variable(v), Numeral(0)) for v in "abcd")
    assert f == Implies(Or(And(Not(a), b), c), d)


def test_parse_implication_right_associative():
    f = parse_formula("a = 0 -> b = 0 -> c = 0")
    a, b, c = (Eq(Variable(v), Numeral(0)) for v in "abc")
    assert f == Implies(a, Implies(b, c))


def test_parse_term_parentheses():
    f = parse_formula("(x + y) + z = x + (y + z)")
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    assert f == Eq(Sum(Sum(x, y), z), Sum(x, Sum(y, z)))


def test_gt_is_sugar_for_lt():
    assert parse_formula("x > y") == Lt(Variable("y"), Variable("x"))


def test_quantifier_scope_extends_maximally_right():
    f = parse_formula("x = 0 | exists y. x = y + 1")
    assert f == Or(
        Eq(Variable("x"), Numeral(0)),
        Exists("y", Eq(Variable("x"), Sum(Variable("y"), Numeral(1)))),
    )
    g = parse_formula("x = 0 -> forall y. x + y = y & y = y")
    assert isinstance(g, Implies) and isinstance(g.right, ForAll)
    assert isinstance(g.right.body, And)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x",
        "x +",
        "x <",
        "x = forall",
        "forall. x = 0",
        "forall x x = 0",
        "x == y mod 1",
        "x == y mod",
        "V2 x = 1",
        "(x = 0",
        "x = 0)",
        "x = 0 & & y = 0",
        "x # y",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


@pytest.mark.parametrize(
    "parse, make",
    [
        (parse_term, lambda n: "V2(" * n + "1" + ")" * n),
        (parse_term, lambda n: "(" * n + "1" + ")" * n),
        (parse_formula, lambda n: "forall x. " * n + "x = x"),
        (parse_formula, lambda n: " -> ".join(["0 = 0"] * (n + 1))),
        (parse_formula, lambda n: " | ".join(["0 = 0"] * (n + 1))),
        (parse_formula, lambda n: "~ (" * (n // 2) + "0 = 0" + ")" * (n // 2)),
        # chains nested as first operands: few open parentheses, a deep tree
        (parse_term, lambda n: "(" * (n // 4) + "1" + (" + 1" * 4 + ")") * (n // 4) + " + 1" * (n % 4)),
    ],
)
def test_nesting_limit(parse, make):
    parse(make(MAX_DEPTH))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse(make(MAX_DEPTH + 2))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("x = 0 & y # 1")
    assert err.value.position == 10


def test_scanner_reads_unicode_spaces_and_digits():
    assert parse_formula("1\u3000=\x1c1\x85") == Eq(Numeral(1), Numeral(1))
    assert eval_qf(parse_formula("\u0661\u0662 = 12"), {}, NONSTD) is True
    with pytest.raises(ParseError, match=r"^unexpected character '/' \(at position 5\)$"):
        parse_formula("1 =\u3000\u3000/")


def test_keywords_are_not_variables():
    with pytest.raises(ParseError):
        parse_term("mod + 1")
    with pytest.raises(ParseError):
        parse_formula("forall mod. mod = 0")


def test_bound_variables_parse_as_written():
    f = parse_formula("x < y & (forall x. x = x)")
    assert f == And(
        Lt(Variable("x"), Variable("y")),
        ForAll("x", Eq(Variable("x"), Variable("x"))),
    )
    assert free_variables(f) == {"x", "y"}


@pytest.mark.parametrize("text", [
    "(" * 99 + "1 = 1" + ")" * 99,
    "(x + 1) = y & ((x = 1))",
], ids=["99 parentheses", "term and formula groups"])
def test_parse_reads_each_token_once(monkeypatch, text):
    calls = 0
    next_token = _Parser.next

    def counted(self):
        nonlocal calls
        calls += 1
        return next_token(self)

    monkeypatch.setattr(_Parser, "next", counted)
    parse_formula(text)
    assert calls == len(_Parser(text).tokens) - 1  # `end` is only peeked


# -- printing ------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "x + 0 = x",
        "forall x. exists y. x < y & V2(y) = y",
        "(a = 0 | b = 0) & c = 0",
        "a = 0 | b = 0 & c = 0",
        "~ (a = 0 -> b = 0)",
        "x == y mod 12",
        "(x + y) + z = x + (y + z)",
        "x + (y + z) = 0",
        "(forall x. x = x) -> 0 = 0",
    ],
)
def test_print_parse_round_trip_examples(text):
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


_names = st.sampled_from(["x", "y", "z", "u", "v"])


def terms(max_depth=3, v2=True):
    base = st.one_of(_names.map(Variable), st.integers(0, 9).map(Numeral))
    def extend(inner):
        sums = st.tuples(inner, inner).map(lambda p: Sum(*p))
        return st.one_of(sums, inner.map(V2App)) if v2 else sums
    return st.recursive(base, extend, max_leaves=6)


def formulas(v2=True, quantified=True):
    atoms = st.one_of(
        st.tuples(terms(v2=v2), terms(v2=v2)).map(lambda p: Eq(*p)),
        st.tuples(terms(v2=v2), terms(v2=v2)).map(lambda p: Lt(*p)),
        st.tuples(st.integers(2, 12), terms(v2=v2), terms(v2=v2)).map(lambda p: CongMod(*p)),
    )
    def extend(inner):
        connectives = [
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
        ]
        if quantified:
            connectives += [
                st.tuples(_names, inner).map(lambda p: ForAll(*p)),
                st.tuples(_names, inner).map(lambda p: Exists(*p)),
            ]
        return st.one_of(connectives)
    return st.recursive(atoms, extend, max_leaves=8)


@given(formulas())
def test_print_parse_round_trip(f):
    # bound and free names come from one pool, so shadowing is covered:
    # the parser keeps every name as written
    assert parse_formula(format_formula(f)) == f


@given(terms())
def test_term_round_trip(t):
    assert parse_term(format_term(t)) == t


@given(formulas())
def test_formula_text_is_formula_text(f):
    assert is_formula_text(format_formula(f))


@given(terms())
def test_term_text_is_not_formula_text(t):
    assert not is_formula_text(format_term(t))


def opens_formula_group(text):
    return 0 in _Parser("(" + text + ")").formula_groups


@given(st.one_of(formulas().map(format_formula), terms().map(format_term)))
def test_group_rule_matches_formula_text(text):
    assert opens_formula_group(text) == is_formula_text(text)


@pytest.mark.parametrize("token", [
    "+", "=", "<", ">", "~", "&", "|", ".", "->", "==", "mod", "forall", "exists", "V2", "x", "0",
])
def test_group_rule_matches_formula_text_on_each_token(token):
    # formatted formulas have several formula-only symbols, which hides a
    # missing one from the test above
    assert opens_formula_group(token) == is_formula_text(token)


# -- helpers ---------------------------------------------------------------------

def test_nsum():
    u = Variable("u")
    assert nsum(u, 0) == Numeral(0)
    assert nsum(u, 1) == u
    assert nsum(u, 3) == Sum(Sum(u, u), u)


def test_mentions():
    assert mentions(parse_formula("V2(x) = x"), V2App)
    assert mentions(parse_formula("forall x. (x = 0 -> V2(x) + 1 = 1)"), V2App)
    assert not mentions(parse_formula("forall x. x + 0 = x"), V2App)
    assert mentions(parse_term("1 + V2(2)"), V2App)
    assert not mentions(parse_term("x + 1"), V2App)
    assert mentions(parse_formula("x = 1 & x < 2 + V2(1)"), V2App)
    assert mentions(parse_formula("x = 0 | ~ exists y. x = y"), (ForAll, Exists))
    assert not mentions(parse_formula("~ (x = 0 & V2(x) = 1)"), (ForAll, Exists))
    assert not mentions(parse_term("V2(x + 1)"), (ForAll, Exists))
    assert mentions(parse_term("1 + V2(x + 1)"), Variable)


# -- evaluation -------------------------------------------------------------------

def test_eval_term_examples():
    env = {"x": Element(F(0), 12)}
    assert eval_term(parse_term("V2(x)"), env, NONSTD) == Element(F(0), 4)
    env = {"x": Element(F(1, 3), 5), "y": Element(F(1, 3), -2)}
    assert eval_term(parse_term("x + y"), env, NONSTD) == Element(F(2, 3), 3)
    assert eval_term(parse_term("5"), {}, NONSTD) == Element(F(0), 5)


def test_eval_term_unbound():
    with pytest.raises(ValueError):
        eval_term(parse_term("x + 1"), {}, NONSTD)


def test_eval_qf_examples():
    assert eval_qf(parse_formula("V2(x) = 1"), {"x": Element(F(0), 5)}, NONSTD)
    assert eval_qf(parse_formula("x == 0 mod 3"), {"x": Element(F(2, 5), 3)}, NONSTD)
    assert not eval_qf(parse_formula("x < x"), {"x": Element(F(1, 2), 9)}, NONSTD)


def test_eval_qf_rejects_quantifiers():
    with pytest.raises(ValueError):
        eval_qf(parse_formula("forall x. x = x"), {}, NONSTD)


def test_eval_is_model_generic():
    f = parse_formula("V2(x + x) = V2(x) + V2(x)")
    assert eval_qf(f, {"x": 12}, STD)
    assert eval_qf(f, {"x": Element(F(5, 6), -2)}, NONSTD)


@given(st.integers(0, 10**4), st.integers(0, 10**4), st.integers(2, 12))
def test_congruence_matches_existential_semantics_on_oracle(a, b, n):
    # x == y mod n must agree with "some u solves x = nu + y or y = nu + x"
    residue_equal = eval_qf(CongMod(n, Variable("x"), Variable("y")), {"x": a, "y": b}, STD)
    exists_u = any(a == n * u + b or b == n * u + a for u in range(0, max(a, b) // n + 1))
    assert residue_equal == exists_u


def test_congruence_existential_semantics_exhaustive_small():
    cong = {n: CongMod(n, Variable("x"), Variable("y")) for n in (2, 3, 5, 12)}
    for n, f in cong.items():
        for a in range(60):
            for b in range(60):
                exists_u = any(
                    a == n * u + b or b == n * u + a for u in range(max(a, b) // n + 1)
                )
                assert eval_qf(f, {"x": a, "y": b}, STD) == exists_u


# -- compiled evaluation ------------------------------------------------------------

class LoggedModel(StandardModel):
    """Standard arithmetic that logs each operation before it runs.

    Some adds and residues fail, with a message that names the operands, so
    which operation fails first shows in the error.
    """

    def __init__(self):
        super().__init__()
        self.log = []

    def numeral(self, n):
        self.log.append(("numeral", n))
        return n

    def add(self, x, y):
        self.log.append(("add", x, y))
        if (x + y) % 11 == 10:
            raise ArithmeticError(f"add({x}, {y})")
        return x + y

    def compare(self, x, y):
        self.log.append(("compare", x, y))
        return super().compare(x, y)

    def residue_mod(self, x, n):
        self.log.append(("residue_mod", x, n))
        if x % 13 == 12:
            raise ValueError(f"residue_mod({x}, {n})")
        return x % n

    def v2(self, x):
        self.log.append(("v2", x))
        return super().v2(x)


def outcome(evaluate):
    """The value, or the type and message of the exception raised."""
    try:
        return evaluate()
    except Exception as exc:
        return type(exc), str(exc)


def environments(model):
    # subsets of the names, so unbound variables occur too
    values = st.one_of(
        st.sampled_from(model.corner_elements()),
        st.integers(0, 2**32).map(lambda seed: model.sample(random.Random(seed))),
    )
    return st.lists(st.dictionaries(_names, values), min_size=1, max_size=4)


@pytest.mark.parametrize("model", [NONSTD, STD, PAIRS], ids=["nonstd", "std", "pairs"])
def test_compiled_matches_interpreter(model):
    @given(formulas(v2=model.has_v2, quantified=False), environments(model))
    def compiled_matches(f, envs):
        check = compile_qf(f, model)  # one check over several calls: kept values are reused
        for env in envs:
            assert outcome(lambda: check(env)) == outcome(lambda: eval_qf(f, env, model))
    compiled_matches()


@given(formulas(quantified=False), environments(STD))
def test_compiled_runs_the_interpreters_operations_in_order(f, envs):
    # The compiled check skips repeated operations, so the two logs must
    # agree on the first run of each; a failed operation is logged too.
    compiled, interpreted = LoggedModel(), LoggedModel()
    check = compile_qf(f, compiled)
    for env in envs:
        assert outcome(lambda: check(env)) == outcome(lambda: eval_qf(f, env, interpreted))
    assert list(dict.fromkeys(compiled.log)) == list(dict.fromkeys(interpreted.log))


@given(formulas(), environments(STD))
def test_compiled_quantifiers_raise_where_the_interpreter_does(f, envs):
    check = compile_qf(f, STD)
    for env in envs:
        assert outcome(lambda: check(env)) == outcome(lambda: eval_qf(f, env, STD))


def test_compiled_errors_are_the_interpreters():
    env = {"x": 3}
    for f in (parse_formula("x = 1 -> forall y. y = y"), Eq(Variable("x"), "x"), Not(Variable("x"))):
        assert outcome(lambda: compile_qf(f, STD)(env)) == outcome(lambda: eval_qf(f, env, STD))
    assert compile_qf(parse_formula("x = 2 & forall y. y = y"), STD)(env) is False
    assert outcome(lambda: compile_qf(parse_formula("y + z = x"), STD)(env)) == (
        UnboundVariableError, "unbound variable 'y'",
    )


def test_compiled_chains_loop_and_sums_recurse_as_eval_qf():
    # a disjunction far deeper than MAX_DEPTH runs as a loop; a sum recurses
    # once per link, as in eval_qf, and the catalog's longest sums fit
    x, n = Variable("x"), 3000
    total = Eq(nsum(x, MAX_SCHEMA), Numeral(MAX_SCHEMA))
    for value in (1, 2):
        assert compile_qf(total, STD)({"x": value}) is eval_qf(total, {"x": value}, STD)
    f = Or(total, Lt(x, x))
    for _ in range(n):
        f = Or(f, Lt(x, x))
    check = compile_qf(f, STD)
    assert check({"x": 1}) is True
    assert check({"x": 2}) is False



def test_importing_the_cli_does_not_load_the_compiler():
    # formulas.compile_qf loads it on first use, which keeps start-up short
    env = {**os.environ, "PYTHONPATH": str(Path(buchi2.__file__).parents[1])}
    code = "import sys, buchi2.cli; print('buchi2.compiled' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.stdout, done.stderr) == ("False\n", "")
