"""Parser, printer and evaluation of the formula language."""

import copy
import dataclasses
import pickle
import random
import re
import sys
from functools import reduce
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import buchi2.formulas as formulas_module

from buchi2.axioms import MAX_SCHEMA, AxiomSpec, Report, build_axioms
from buchi2.compiled import NESTING, _generate, compile_run
from buchi2.formulas import (
    MAX_DEPTH,
    And,
    CongMod,
    Eq,
    Exists,
    ForAll,
    Implies,
    Lt,
    NestingError,
    Not,
    Numeral,
    Or,
    Sum,
    UnboundVariableError,
    V2App,
    Variable,
    eval_qf,
    eval_term,
    format_formula,
    format_term,
    free_variables,
    identifiers,
    is_formula_text,
    mentions,
    nsum,
    parse_formula,
    parse_term,
)
from buchi2.nonstandard import Element, NonstandardModel, ParseError
from buchi2.pairs import DivisibleByThree, FiniteTwoDivisibility, PairElement, PairsModel
from buchi2.standard import StandardModel
from case_loops import answer, one_case
from reference_parser import Parser, reference_parse, reference_scan

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


class Reads(list):
    """A token list that records the index of each read."""

    def __init__(self, tokens, reads):
        super().__init__(tokens)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def recording_reads(monkeypatch):
    """The list to which every parse from now on appends the index of each token it reads."""
    reads, scan = [], formulas_module._scan
    monkeypatch.setattr(formulas_module, "_scan", lambda text: Reads(scan(text), reads))
    return reads


@pytest.mark.parametrize("text", [
    "(" * 99 + "1 = 1" + ")" * 99,
    "(x + 1) = y & ((x = 1))",
], ids=["99 parentheses", "term and formula groups"])
def test_parse_reads_each_token_once(monkeypatch, text):
    # The parser never backtracks: each rule call starts at or after the
    # token where the call before it started.  The looks that decide the
    # groups read ahead, but no token twice over all the looks of a line.
    starts, looked = [], []
    reads = recording_reads(monkeypatch)

    def recording(rule):
        def call(tokens, i, depth):
            starts.append(i)
            return rule(tokens, i, depth)
        return call

    def look(tokens, i, opens_formula=formulas_module._opens_formula):
        mark = len(reads)
        out = opens_formula(tokens, i)
        looked.extend(reads[mark:])
        return out

    for name in ("_formula", "_unary", "_term", "_factor"):
        monkeypatch.setattr(formulas_module, name, recording(getattr(formulas_module, name)))
    monkeypatch.setattr(formulas_module, "_opens_formula", look)
    parse_formula(text)
    assert starts == sorted(starts)
    assert looked and len(looked) == len(set(looked))


def reference_tokens(text):
    return [value for value, _ in reference_scan(text)[0]]


def scan_answer(call, text):
    """What call(text) returns, or the type, message and position of its ParseError."""
    try:
        return call(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def reference_answer(parse, text):
    """What parse answers when it scans with reference_scan and reads
    positions from it, in place of the single findall and the second scan."""
    def positions(text):
        return [start for _, start in reference_scan(text)[0]]

    with mock.patch.object(formulas_module, "_scan", reference_tokens), \
            mock.patch.object(formulas_module, "_positions", positions):
        return scan_answer(parse, text)


_SCAN_PIECES = (
    "(", ")", "+", "=", "<", ">", "~", "&", "|", "->", "==", ".", "mod", "forall", "exists", "V2",
    "x", "y1", "_", "0", "12", " ", "-", "-->", "*", "/", "²", "é", "١٢",
    "　", "\x1c", "\x85", "\t", "\x0b", "\xa0", "\u2028", "\x7f", "7" * 4301,
)
_DEEP = ("", "(" * (MAX_DEPTH + 1), "V2(" * (MAX_DEPTH + 1), "~ " * (MAX_DEPTH + 1), "1" + " + 1" * MAX_DEPTH)
scan_texts = st.builds(
    str.__add__, st.sampled_from(_DEEP), st.lists(st.sampled_from(_SCAN_PIECES), max_size=16).map("".join)
)


@given(scan_texts)
def test_scan_matches_the_reference_loop(text):
    assert scan_answer(formulas_module._scan, text) == scan_answer(reference_tokens, text)


def test_scan_matches_the_reference_loop_on_each_piece_in_a_group():
    for piece in _SCAN_PIECES:
        for text in (piece, f"({piece}", f"((x {piece}) + 1", f"{piece}(1 = 1)", f"(x{piece}(y)", f"(x) {piece}"):
            assert scan_answer(formulas_module._scan, text) == scan_answer(reference_tokens, text)


def test_str_isspace_agrees_with_the_regex_whitespace_class():
    # _scan accepts a gap between tokens when str.isspace() holds for it,
    # and the reference scan when every character of it is a regex \s.
    space = re.compile(r"\s")
    assert [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() != bool(space.match(c))] == []


@given(scan_texts)
def test_parse_errors_match_the_reference_scan(text):
    for parse in (parse_formula, parse_term):
        assert scan_answer(parse, text) == reference_answer(parse, text)


def parse_answers(text):
    """What parse_formula and parse_term answer on text."""
    return [scan_answer(parse, text) for parse in (parse_formula, parse_term)]


def reference_parse_answers(text):
    """What the reference parser answers on text, as parse_formula and as parse_term."""
    return [scan_answer(lambda text: reference_parse(text, rule), text) for rule in (Parser.formula, Parser.term)]


@pytest.mark.parametrize("text, error", [
    ("x - y", "unexpected character '-' (at position 2)"),
    ("x --> y", "unexpected character '-' (at position 2)"),
    ("x -> y = 1 * 2", "unexpected character '*' (at position 11)"),
    ("x² = 1", "unexpected character '²' (at position 1)"),
    ("é = 1", "unexpected character 'é' (at position 0)"),
    ("1 = 1 &", "expected a term, found 'end of input' (at position 7)"),
    ("(1 = 1", "expected ')', found 'end of input' (at position 6)"),
    ("١٢ = 1 == 2 mod 3", "trailing input '==' (at position 7)"),
    ("1　< 2 )", "trailing input ')' (at position 6)"),
    ("x == 1 mod 1", "congruence modulus must be >= 2, got 1 (at position 11)"),
    ("x == 1 mod y", "expected 'nat', found 'y' (at position 11)"),
    ("forall 1. x = 1", "expected 'ident', found '1' (at position 7)"),
    ("x == 1 mud 2", "expected 'mod' (at position 7)"),
])
def test_parse_error_examples(text, error):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == error
    assert parse_answers(text) == reference_parse_answers(text)


# -- tree nodes ----------------------------------------------------------------

_x, _y = Variable("x"), Variable("y")
NODES = (
    _x, Numeral(3), Sum(_x, Numeral(1)), V2App(_y), Eq(_x, _y), Lt(_y, _x), CongMod(3, _x, _y),
    Not(Eq(_x, _y)), And(Eq(_x, _y), Lt(_x, _y)), Or(Lt(_x, _y), Eq(_y, _x)),
    Implies(Eq(_x, _y), Eq(_y, _x)), ForAll("x", Eq(_x, _x)), Exists("y", Lt(_x, _y)),
)


# The nodes and the other values on their frozen base: a spec, a report and the two verdicts.
FROZEN = (
    *NODES, build_axioms(ids=("A8",))[0], Report("A17", "FAIL", 4, 0, counterexample=(("x", "3"),), param=3),
    FiniteTwoDivisibility(1, (PairElement(F(2, 3), 2), PairElement(F(1, 3), 1))),
    DivisibleByThree(PairElement(F(1, 3), 0)),
)


def test_the_node_list_has_every_node_class():
    assert sorted(type(node).__name__ for node in NODES) == sorted((
        "Variable", "Numeral", "Sum", "V2App", "Eq", "Lt", "CongMod", "Not", "And", "Or", "Implies",
        "ForAll", "Exists",
    ))


@pytest.mark.parametrize("node", FROZEN, ids=lambda node: type(node).__name__)
def test_nodes_are_frozen_slotted_and_picklable(node):
    for name in (*type(node).__match_args__, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, _x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert not hasattr(node, "__dict__")
    for copied in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert type(copied) is type(node)
        assert copied == node and hash(copied) == hash(node) and repr(copied) == repr(node)


def test_node_fields_in_order():
    assert {type(node).__name__: type(node).__match_args__ for node in NODES} == {
        "Variable": ("name",), "Numeral": ("value",), "Sum": ("left", "right"), "V2App": ("arg",),
        "Eq": ("left", "right"), "Lt": ("left", "right"), "CongMod": ("modulus", "left", "right"),
        "Not": ("body",), "And": ("left", "right"), "Or": ("left", "right"), "Implies": ("left", "right"),
        "ForAll": ("var", "body"), "Exists": ("var", "body"),
    }


@pytest.mark.parametrize("node", FROZEN, ids=lambda node: type(node).__name__)
def test_nodes_compare_and_hash_by_their_fields(node):
    values = tuple(getattr(node, name) for name in type(node).__match_args__)
    assert hash(node) == hash(values)
    assert node == type(node)(*values) and not node != type(node)(*values)
    assert node != "x" and not node == "x"
    assert node.__eq__(values) is NotImplemented


def test_nodes_destructure_with_match():
    match parse_formula("x + 1 == y mod 4"):
        case CongMod(n, Sum(Variable(a), Numeral(k)), right):
            assert (n, a, k, right) == (4, "x", 1, _y)
        case _:
            pytest.fail("CongMod did not match")
    match Sum(_x, _y):
        case Sum(left=left, right=Variable(name=name)):
            assert (left, name) == (_x, "y")
        case _:
            pytest.fail("Sum did not match")


def test_nested_node_repr():
    assert repr(parse_formula("forall x. ~ (V2(x) + 1 < 2 | x == y mod 3)")) == (
        "ForAll(var='x', body=Not(body=Or(left=Lt(left=Sum(left=V2App(arg=Variable(name='x')), "
        "right=Numeral(value=1)), right=Numeral(value=2)), right=CongMod(modulus=3, "
        "left=Variable(name='x'), right=Variable(name='y')))))"
    )
    # repr takes about two frames per level, so a 400-link sum prints at the
    # default recursion limit.
    assert repr(nsum(_x, 400)).count("Sum(") == 399


def test_node_checks():
    with pytest.raises(ValueError, match=r"^numerals are naturals, got -1$"):
        Numeral(-1)
    with pytest.raises(ValueError, match=r"^congruence modulus must be >= 2, got 1$"):
        CongMod(1, _x, _y)


def test_nodes_of_different_classes_differ():
    assert Sum(_x, _y) != Eq(_x, _y) != Lt(_x, _y) != And(_x, _y)
    assert ForAll("x", Eq(_x, _x)) != Exists("x", Eq(_x, _x))
    assert repr(CongMod(3, _x, _y)) == "CongMod(modulus=3, left=Variable(name='x'), right=Variable(name='y'))"


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


@given(st.one_of(scan_texts, formulas().map(format_formula), terms().map(format_term)))
def test_parse_matches_the_reference_parser(text):
    assert parse_answers(text) == reference_parse_answers(text)


@pytest.mark.parametrize("text", [
    "(" * 10000 + "1 = 1",
    "(" * 99 + "1" + " + 1" * 2999 + " = 1" + ")" * 99,
    "(" * 100 + "1" + " + 1" * 2999 + " =",
], ids=["10000 open groups", "99 formula groups around a long sum", "100 groups decided by the last token"])
def test_parse_reads_a_line_in_linear_time(monkeypatch, text):
    # The looks that decide the groups never read a token twice, and the
    # rules read each token a few times, so a parse reads a few times as
    # many tokens as the line has, however deep its groups nest.
    expected = reference_parse_answers(text)
    assert all(answer[0] is NestingError for answer in expected)
    count = len(formulas_module._scan(text))
    reads = recording_reads(monkeypatch)
    assert parse_answers(text) == expected
    assert len(reads) <= 4 * count


@given(formulas())
def test_formula_text_is_formula_text(f):
    assert is_formula_text(format_formula(f))


@given(terms())
def test_term_text_is_not_formula_text(t):
    assert not is_formula_text(format_term(t))


def opens_formula_group(text):
    """Whether the on-demand rule reads "(" + text + ")" as a formula group,
    which must be how reference_scan marks it."""
    text = "(" + text + ")"
    answer = formulas_module._opens_formula(formulas_module._scan(text), 0)
    assert answer == (0 in reference_scan(text)[1])
    return answer


@given(scan_texts)
def test_group_rule_decides_each_group_as_the_eager_marking(text):
    try:
        scanned, groups = reference_scan(text)
    except ParseError:
        return
    tokens = [value for value, _ in scanned]
    opens = [i for i, value in enumerate(tokens) if value == "("]
    for i in opens:  # a look from each group, on a token list of its own
        assert formulas_module._opens_formula(list(tokens), i) == (i in groups)

    def decision(value):  # the decided '(' equal "(", so they are told apart by identity
        formula_group, term_group = formulas_module._FORMULA_GROUP, formulas_module._TERM_GROUP
        return True if value is formula_group else False if value is term_group else None

    # as the parser looks, from each undecided group in turn on one list:
    # every group a look passes is decided as the eager marking decides it
    for i in opens:
        if decision(tokens[i]) is None:
            assert formulas_module._opens_formula(tokens, i) == (i in groups)
    assert [decision(tokens[i]) for i in opens] == [i in groups for i in opens]


@given(st.one_of(formulas().map(format_formula), terms().map(format_term)))
def test_group_rule_matches_formula_text(text):
    assert opens_formula_group(text) == is_formula_text(text)


@pytest.mark.parametrize("token", [
    "+", "=", "<", ">", "~", "&", "|", ".", "->", "==", "mod", "forall", "exists", "V2", "x", "0",
    "12forall", "0exists+.", "forall٣", "x1forall", "x٣forall",
])
def test_group_rule_matches_formula_text_on_each_token(token):
    # formatted formulas have several formula-only symbols, which hides a
    # missing one from the test above; the rule is about tokens, so a
    # quantifier glued to a number is a token, and one inside a name is not
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


def identifier_answers(text):
    """(quantified?, unbound names, any V2?) as the CLI reads them from text."""
    names = identifiers(text)
    if "forall" in names or "exists" in names:
        return True, None, None
    return False, names - {"mod", "V2"}, "V2" in names


def tree_answers(tree):
    """The same three answers, walked from the parsed tree."""
    if mentions(tree, (ForAll, Exists)):
        return True, None, None
    return False, free_variables(tree), mentions(tree, V2App)


@given(st.one_of(formulas().map(format_formula), terms().map(format_term)))
def test_identifiers_answer_as_the_tree_walks(text):
    tree = parse_formula(text) if is_formula_text(text) else parse_term(text)
    assert identifier_answers(text) == tree_answers(tree)


@pytest.mark.parametrize("text, answers", [
    ("x9 + _y = V2(z_1)", (False, {"_y", "x9", "z_1"}, True)),
    ("x == y mod 3 & forall z. z = w", (True, None, None)),
    ("x == 12 mod 3 -> 2 + x = y", (False, {"x", "y"}, False)),
    ("V2(1) + 1", (False, set(), True)),
    ("~ exists y. 0 < y", (True, None, None)),
])
def test_identifiers_answer_as_the_tree_walks_examples(text, answers):
    tree = parse_formula(text) if is_formula_text(text) else parse_term(text)
    assert identifier_answers(text) == tree_answers(tree) == answers


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


def constant_terms():
    # numerals, sums of constants and V2 of constants, with sums k + ... + k
    # of 3 to 6 links, which compile to a loop, and nests V2(V2(...k))
    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(lambda p: Sum(*p)),
            inner.map(V2App),
            st.tuples(inner, st.integers(3, 6)).map(lambda p: nsum(*p)),
            st.tuples(inner, st.integers(2, 3)).map(lambda p: reduce(lambda t, _: V2App(t), range(p[1]), p[0])),
        )
    return st.recursive(st.integers(0, 15).map(Numeral), extend, max_leaves=3)


@st.composite
def residue_chains(draw, v2=True, spoiled=False):
    """t == k0 mod n | t == k1 mod n | ..., bracketed at random, each k
    variable-free.  A spoiled chain has one operand that breaks the pattern:
    a variable k, a second modulus, a second left term or no congruence."""
    n, t = draw(st.integers(2, 7)), draw(terms(v2=v2))
    operands = [CongMod(n, t, k) for k in draw(st.lists(constant_terms(), min_size=2, max_size=8))]
    if spoiled:
        i = draw(st.integers(0, len(operands) - 1))
        k = operands[i].right
        operands[i] = draw(st.sampled_from([
            CongMod(n, t, Sum(k, Variable("y"))),
            CongMod(n + 1, t, k),
            CongMod(n, Sum(t, Numeral(1)), k),
            Eq(t, k),
        ]))

    def bracket(parts):
        if len(parts) == 1:
            return parts[0]
        i = draw(st.integers(1, len(parts) - 1))
        return Or(bracket(parts[:i]), bracket(parts[i:]))
    return bracket(operands)


def qf_formulas(v2=True):
    # the generic formulas, and disjunctions that compile to a residue lookup or nearly do
    return st.one_of(
        formulas(v2=v2, quantified=False),
        residue_chains(v2),
        residue_chains(v2, spoiled=True),
    )


@pytest.mark.parametrize("model", [NONSTD, STD, PAIRS], ids=["nonstd", "std", "pairs"])
def test_compiled_matches_interpreter(model):
    @given(qf_formulas(v2=model.has_v2), environments(model))
    def compiled_matches(f, envs):
        runs = {}  # one loop per set of names over several calls: kept values are reused
        for env in envs:
            assert outcome(lambda: one_case(f, model, env, runs=runs)) == outcome(lambda: eval_qf(f, env, model))
    compiled_matches()


@given(qf_formulas(), environments(STD))
def test_compiled_runs_the_interpreters_operations_in_order(f, envs):
    # The compiled check skips repeated operations, so the two logs must
    # agree on the first run of each; a failed operation is logged too.
    compiled, interpreted, runs = LoggedModel(), LoggedModel(), {}
    for env in envs:
        assert outcome(lambda: one_case(f, compiled, env, runs=runs)) == outcome(lambda: eval_qf(f, env, interpreted))
    assert list(dict.fromkeys(compiled.log)) == list(dict.fromkeys(interpreted.log))


@given(formulas(), environments(STD))
def test_compiled_quantifiers_raise_where_the_interpreter_does(f, envs):
    runs = {}
    for env in envs:
        assert outcome(lambda: one_case(f, STD, env, runs=runs)) == outcome(lambda: eval_qf(f, env, STD))


def test_compiled_errors_are_the_interpreters():
    env = {"x": 3}
    for f in (parse_formula("x = 1 -> forall y. y = y"), Eq(Variable("x"), "x"), Not(Variable("x"))):
        assert outcome(lambda: one_case(f, STD, env)) == outcome(lambda: eval_qf(f, env, STD))
    assert one_case(parse_formula("x = 2 & forall y. y = y"), STD, env) is False
    assert outcome(lambda: one_case(parse_formula("y + z = x"), STD, env)) == (
        UnboundVariableError, "unbound variable 'y'",
    )
    # without V2, V2 fails before its operand is computed, as in eval_term
    f = parse_formula("V2(y) = x")
    assert outcome(lambda: one_case(f, PAIRS, env)) == outcome(lambda: eval_qf(f, env, PAIRS)) == (
        AttributeError, "'PairsModel' object has no attribute 'v2'",
    )


def test_a_variable_the_loop_does_not_sample_raises_where_it_is_read():
    # y is neither sampled nor derived: as in eval_qf, a case raises its
    # UnboundVariableError only where the formula reads y, and the loop
    # returns that error with the case that raised it
    f = parse_formula("x = 1 & y = 2")
    run = compile_run(f, STD, ("x",))
    for x, expected in ((0, False), (1, (UnboundVariableError, "unbound variable 'y'"))):
        assert outcome(lambda: answer(run, (x,))) == outcome(lambda: eval_qf(f, {"x": x}, STD)) == expected
    case, env, error = run(random.Random(0), 1, (1,))
    assert (case, env, type(error)) == (1, {"x": 1}, UnboundVariableError)


@pytest.mark.parametrize("model", [STD, PAIRS], ids=["std", "pairs"])
def test_compiled_operators_fail_where_the_models_calls_do(model):
    # where a case loop writes Python operators in place of the model's calls,
    # they answer and raise as the calls do, also on values no model holds
    # (constants included, and the constants a residue lookup computes)
    texts = (
        "x = y", "x < y", "~ x = y", "~ x < y", "x + y = y", "x + 1 < y", "x == y mod 3", "x + y == 1 mod 4",
        "1 + 1 + 1 = x", "2 + 3 == x mod 4", "x == 1 + 1 mod 3 | x == V2(4) mod 3 | x == 0 mod 3",
    )
    values = (None, "a", 1.5, -3, True, (1, 2), model.numeral(2))
    for f in map(parse_formula, texts):
        run = compile_run(f, model, ("x", "y"))
        for x in values:
            for y in values:
                env = {"x": x, "y": y}
                assert outcome(lambda: answer(run, (x, y))) == outcome(lambda: eval_qf(f, env, model)), (f, env)


def test_compiled_chains_loop_and_sums_recurse_as_eval_qf():
    # a disjunction far deeper than MAX_DEPTH runs as a loop; a sum recurses
    # once per link, as in eval_qf, and the catalog's longest sums fit
    x, n = Variable("x"), 3000
    total = Eq(nsum(x, MAX_SCHEMA), Numeral(MAX_SCHEMA))
    for value in (1, 2):
        assert one_case(total, STD, {"x": value}) is eval_qf(total, {"x": value}, STD)
    f = Or(total, Lt(x, x))
    for _ in range(n):
        f = Or(f, Lt(x, x))
    run = compile_run(f, STD, ("x",))
    assert answer(run, (1,)) is True
    assert answer(run, (2,)) is False


def test_a_compilation_reads_each_model_operation_once():
    # the loop's code and its variable-free slots share one binding of each
    # operation, the sampler included; v2 is read only when a case computes a V2
    reads = {}

    class Counted(StandardModel):
        def __getattribute__(self, name):
            reads[name] = reads.get(name, 0) + 1
            return super().__getattribute__(name)

    f = parse_formula("x + 1 < y & (x == 2 mod 3 | 2 + 3 == y mod 4) & V2(x) = V2(4)")
    run = compile_run(f, Counted(), ("x", "y"))
    assert {name: reads.get(name, 0) for name in ("numeral", "add", "compare", "residue_mod", "sample", "v2")} == {
        "numeral": 1, "add": 1, "compare": 1, "residue_mod": 1, "sample": 1, "v2": 0,
    }
    assert answer(run, (4, 9)) is eval_qf(f, {"x": 4, "y": 9}, STD) is True


@pytest.mark.parametrize("spoiled", [False, True])
def test_only_a_pure_residue_chain_compiles_to_a_lookup(spoiled):
    # the loop of a pure chain calls the lookup, one of a spoiled chain does not
    @given(residue_chains(spoiled=spoiled))
    def compiles_to_a_lookup(f):
        run = compile_run(f, STD, tuple(sorted(free_variables(f))))
        assert ("lookup" in run.__code__.co_names) is not spoiled
    compiles_to_a_lookup()


# Variable names that mean something to the generated code or to Python, and names that are source text.
AWKWARD_NAMES = [
    "env", "vals", "kept", "add", "compare", "residue_mod", "numeral", "model", "constant", "lookup",
    "run", "rng", "cases", "corners", "draw", "sample", "k", "i", "e", "len", "range",
    "check", "r", "s0", "s1", "f2", "c0", "c3", "h0", "_", "None", "True", "lambda", "import", "def",
    "__builtins__", "__import__", "x\nimport os", "x'] = 1; import os; ['", "x\nraise SystemExit(7)",
    "\\", '"""', "#", "\x00", "(", "é",
]


def test_names_and_numerals_never_become_source():
    huge = 10 ** 4299  # 4,300 digits, as many as int() reads from text; the source never holds them
    x = [Variable(name) for name in AWKWARD_NAMES]
    parts = [Eq(Sum(x[i], Numeral(huge)), Sum(x[i - 1], Numeral(i))) for i in range(len(x))]
    parts += [CongMod(huge + 2, x[i], V2App(x[i - 2])) for i in range(len(x))]
    f = reduce(Or, [Lt(Numeral(huge), x[0]), *parts])
    # a derived variable with an awkward name, bound by the loop; half the names sampled, half unbound
    derived = (("w\nimport sys", lambda model, param, a: model.add(a, a), None, (x[1],)),)
    g = And(Lt(Variable("w\nimport sys"), Numeral(huge)), f)
    for formula in (f, g):
        source, _ = _generate(formula, STD, derived, AWKWARD_NAMES[::2])
        assert "import" not in source and "SystemExit" not in source and str(huge)[:20] not in source
    rng, runs_f, runs_g = random.Random(0), {}, {}  # one loop per set of names: kept values are reused
    for k in range(100):
        env = {name: rng.choice([0, 1, 2, huge, huge + 1]) for name in AWKWARD_NAMES if rng.random() < 0.97}
        assert outcome(lambda: one_case(f, STD, env, runs=runs_f)) == outcome(lambda: eval_qf(f, env, STD))
        result = outcome(lambda: one_case(g, STD, env, derived, runs_g))  # which reads the derived variable first
        if x[1].name in env:
            assert result == outcome(lambda: eval_qf(g, {**env, "w\nimport sys": 2 * env[x[1].name]}, STD))
        else:
            assert result == (UnboundVariableError, f"unbound variable {x[1].name!r}")
    env = {name: 1 for name in AWKWARD_NAMES}
    del env["x\nraise SystemExit(7)"]
    assert outcome(lambda: one_case(f, STD, env)) == (
        UnboundVariableError, "unbound variable 'x\\nraise SystemExit(7)'")


def deepest(text):
    """How deep, and the tree of, the deepest text(k) that parses, for text(k) nested k levels."""
    k = 1
    while True:
        try:
            parse_formula(text(k + 1))
        except ParseError:
            return k, parse_formula(text(k))
        k += 1


@pytest.mark.parametrize("text", [
    lambda k: "~ " * k + "x = 0",
    lambda k: "x = y -> " * k + "x = 0",
    lambda k: "(" * k + "x = 0" + ")" * k,
    lambda k: "V2(" * k + "x" + ")" * k + " = 0",
    lambda k: "x + (" * k + "y" + ")" * k + " = 0",
    lambda k: "".join("x = 0 & (" if i % 2 else "y = 1 | (" for i in range(k)) + "x = y" + ")" * k,
], ids=["not", "implies", "parentheses", "V2", "sum", "and-or"])
@pytest.mark.parametrize("model", [NONSTD, STD, PAIRS], ids=["nonstd", "std", "pairs"])
def test_formulas_nested_to_max_depth_compile(model, text):
    depth, f = deepest(text)
    assert depth == MAX_DEPTH
    run = compile_run(f, model, ("x", "y"))
    corners = model.corner_elements()
    for x, y in zip(corners, corners[1:] + corners[:1]):
        env = {"x": x, "y": y}
        assert outcome(lambda: answer(run, (x, y))) == outcome(lambda: eval_qf(f, env, model))


def test_a_sum_a_helper_computes_is_read_again_after_it():
    # Past NESTING levels the deepest operand runs in a helper function.
    # The sum it computes is a local of the loop, so x + y = 8 after the
    # helper reads it rather than adding again.
    x, y = Variable("x"), Variable("y")
    g = Eq(Sum(x, y), Numeral(7))
    for level in range(NESTING):
        g = And(Eq(y, Numeral(1)), g) if level % 2 else Or(Eq(x, Numeral(0)), g)
    f = Or(g, Eq(Sum(x, y), Numeral(8)))
    assert "def h0" in _generate(f, STD, (), ("x", "y"))[0]
    model = LoggedModel()
    run = compile_run(f, model, ("x", "y"))
    for env in ({"x": a, "y": b} for a in range(8) for b in range(3)):
        model.log.clear()
        assert answer(run, (env["x"], env["y"])) is eval_qf(f, env, STD)
        assert sum(entry[0] == "add" for entry in model.log) <= 1, env


def test_helpers_of_an_unboxed_loop_share_its_scalar_slots():
    # An unboxed loop holds an element slot as the locals p<i>, q<i> and w<i>;
    # a helper past NESTING levels names all three nonlocal, so a sum, a V2 or
    # a residue that the helper computes is read again after it, and a sum
    # computed before the helper is read inside it.
    x, y = Variable("x"), Variable("y")
    s = Sum(x, y)
    g = Or(Lt(V2App(s), x), CongMod(3, s, y))
    for level in range(NESTING + 2):
        g = And(Lt(y, Sum(s, x)), g) if level % 2 else Or(Eq(x, y), g)
    f = Or(Eq(Sum(s, s), y), Or(g, Or(CongMod(5, s, x), Eq(V2App(s), Sum(y, y)))))
    source = _generate(f, NONSTD, (), ("x", "y"))[0]
    assert "def h0" in source and "nonlocal p0, q0, w0, p1, q1, w1, p2, q2, w2" in source
    run = compile_run(f, NONSTD, ("x", "y"))
    values = NONSTD.corners + tuple(NONSTD.sample(random.Random(k)) for k in range(20))
    for a in values:
        for b in values[::3]:
            assert answer(run, (a, b)) is eval_qf(f, {"x": a, "y": b}, NONSTD), (a, b)


def faulty(model, operation, bad):
    """model, except that one operation raises on the numeral bad: numeral on
    bad itself, residue_mod and v2 on the element bad, add on the sum bad."""
    class Faulty(type(model)):
        def fails(self, name, x):
            if operation == name and x == super().numeral(bad):
                raise ArithmeticError(f"{name} fails on {bad}")
            return x

        def numeral(self, n):
            if operation == "numeral" and n == bad:
                raise ArithmeticError(f"numeral fails on {bad}")
            return super().numeral(n)

        def add(self, x, y):
            return self.fails("add", super().add(x, y))

        def residue_mod(self, x, n):
            return super().residue_mod(self.fails("residue_mod", x), n)

        if model.has_v2:
            def v2(self, x):
                return super().v2(self.fails("v2", x))
    return Faulty()


# each chain's constant k_j is computed by the faulty operation, which fails for j = 3 only
FAULTY_CONSTANTS = {"numeral": Numeral, "residue_mod": Numeral, "add": lambda j: Sum(Numeral(0), Numeral(j)),
                    "v2": lambda j: V2App(Numeral(j))}


@pytest.mark.parametrize("model, operation", [
    pytest.param(model, operation, id=f"{name}-{operation}")
    for name, model in (("nonstd", NONSTD), ("std", STD), ("pairs", PAIRS))
    for operation in FAULTY_CONSTANTS if operation != "v2" or model.has_v2
])
def test_a_faulty_constant_raises_where_the_chain_reaches_it(model, operation):
    faulty_model = faulty(model, operation, 3)
    f = reduce(Or, (CongMod(5, Variable("x"), FAULTY_CONSTANTS[operation](j)) for j in range(5)))
    run = compile_run(f, faulty_model, ("x",))  # one loop over several calls: the lookup keeps its residues
    for j in (4, 1, 3, 0, 2, 4, 1):  # x == j mod 5, never x = 3 itself
        env = {"x": faulty_model.numeral(j + 5)}
        expected = True if j < 3 else (ArithmeticError, f"{operation} fails on 3")
        assert outcome(lambda: answer(run, env.values())) == outcome(lambda: eval_qf(f, env, faulty_model)) == expected

    @given(residue_chains(model.has_v2), st.integers(0, 15), environments(model))
    def raises_as_the_interpreter(f, bad, envs):
        faulty_model, runs = faulty(model, operation, bad), {}  # a loop keeps its residues after a failed call
        for env in envs:
            expected = outcome(lambda: eval_qf(f, env, faulty_model))
            assert outcome(lambda: one_case(f, faulty_model, env, runs=runs)) == expected
    raises_as_the_interpreter()


@pytest.mark.parametrize("model", [NONSTD, STD, PAIRS], ids=["nonstd", "std", "pairs"])
def test_a_constant_sum_that_fails_keeps_no_partial_sum(model):
    # 1 + 1 + 1 + 1 is a loop whose third addition fails; the case loop must
    # raise on every call, not take the sum so far as its value on the next
    faulty_model = faulty(model, "add", 4)
    f = parse_formula("x = 1 + 1 + 1 + 1")
    run = compile_run(f, faulty_model, ("x",))
    env = {"x": faulty_model.numeral(3)}
    for _ in range(3):
        assert outcome(lambda: answer(run, env.values())) == outcome(lambda: eval_qf(f, env, faulty_model)) == (
            ArithmeticError, "add fails on 4")
