"""Parser, printer, renaming and evaluation of the formula language."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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
    V2App,
    Variable,
    eval_qf,
    eval_term,
    format_formula,
    format_term,
    free_variables,
    nsum,
    parse_formula,
    parse_term,
    standardize_bound,
    uses_v2,
)
from buchi2.nonstandard import Element, NonstandardModel, ParseError
from buchi2.standard import StandardModel

NONSTD = NonstandardModel()
STD = StandardModel()


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


def test_keywords_are_not_variables():
    with pytest.raises(ParseError):
        parse_term("mod + 1")
    with pytest.raises(ParseError):
        parse_formula("forall mod. mod = 0")


def test_bound_variables_renamed_apart_from_free():
    f = parse_formula("x < y & (forall x. x = x)")
    assert f == And(
        Lt(Variable("x"), Variable("y")),
        ForAll("x_1", Eq(Variable("x_1"), Variable("x_1"))),
    )
    assert free_variables(f) == {"x", "y"}


def test_standardize_is_idempotent():
    f = parse_formula("x < y & (forall x. (exists y. x = y))")
    assert standardize_bound(f) == f


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


def terms(max_depth=3):
    base = st.one_of(_names.map(Variable), st.integers(0, 9).map(Numeral))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Sum(*p)),
            inner.map(V2App),
        ),
        max_leaves=6,
    )


def formulas():
    atoms = st.one_of(
        st.tuples(terms(), terms()).map(lambda p: Eq(*p)),
        st.tuples(terms(), terms()).map(lambda p: Lt(*p)),
        st.tuples(st.integers(2, 12), terms(), terms()).map(lambda p: CongMod(*p)),
    )
    def extend(inner):
        return st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
            st.tuples(st.sampled_from(["q", "r"]), inner).map(lambda p: ForAll(*p)),
            st.tuples(st.sampled_from(["q", "r"]), inner).map(lambda p: Exists(*p)),
        )
    return st.recursive(atoms, extend, max_leaves=8)


@given(formulas())
def test_print_parse_round_trip(f):
    # bound names q, r never collide with the free names x..v, so the
    # standardizing pass in parse_formula is the identity here
    assert parse_formula(format_formula(f)) == f


@given(terms())
def test_term_round_trip(t):
    assert parse_term(format_term(t)) == t


# -- helpers ---------------------------------------------------------------------

def test_nsum():
    u = Variable("u")
    assert nsum(u, 0) == Numeral(0)
    assert nsum(u, 1) == u
    assert nsum(u, 3) == Sum(Sum(u, u), u)


def test_uses_v2():
    assert uses_v2(parse_formula("V2(x) = x"))
    assert uses_v2(parse_formula("forall x. (x = 0 -> V2(x) + 1 = 1)"))
    assert not uses_v2(parse_formula("forall x. x + 0 = x"))
    assert uses_v2(parse_term("1 + V2(2)"))
    assert not uses_v2(parse_term("x + 1"))


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
