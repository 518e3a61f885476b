"""First-order formulas over {0, 1, +, =, <, congruence-mod-n, V2}.

Grammar (whitespace-insensitive)::

    formula  := ('forall' | 'exists') IDENT '.' formula | implication
    implication := disjunction ('->' implication)?          # right-assoc
    disjunction := conjunction ('|' conjunction)*
    conjunction := negation ('&' negation)*
    negation := '~' negation | formula' | primary           # formula' = quantified
    primary  := atom | '(' formula ')'
    atom     := term '=' term | term '<' term | term '>' term
              | term '==' term 'mod' NAT                    # NAT >= 2
    term     := factor ('+' factor)*
    factor   := 'V2' '(' term ')' | NAT | IDENT | '(' term ')'

A formula always contains a comparison, and a term never contains any of
the symbols ``= < > ~ & |`` or a ``forall`` or ``exists`` token: text with
one of them can only be a formula, other text only a term
(``is_formula_text``).  The rule is about tokens, so ``12forall``, which
scans to ``12`` and ``forall``, can only be a formula, and ``x1forall``,
one name, can only be a term.  The same rule picks the ``primary`` branch
without backtracking: a ``(`` whose group, up to its matching ``)`` or the
end of input, contains one of these opens ``'(' formula ')'``, and any
other ``(`` starts an atom.  A line that parses is scanned once, by one
``split`` whose tokens are strings, and read by four rule functions, one
per binding level (top-down operator precedence, Pratt 1973, written as
recursive descent), that never backtrack.  A ``(`` is decided where the
parser meets one in formula position, by a look ahead to its ``)`` or
its first formula-only token that decides every ``(`` it passes, so no
token is looked at twice; only an error scans the line again, for its
position.  A numeral longer than ``int()`` reads from text
(``sys.get_int_max_str_digits()``) is a parse error.  Tree nodes are
frozen as elements are (``nonstandard._Frozen``): they compare and hash
by their fields, pickle and support ``match``.  The rules have checked
every field they set, so they build nodes through the slots' own setters
and run no ``__init__``, as ``nonstandard._element`` builds kernel results;
the classes' checked constructors serve every other caller.

A quantifier binds as much as possible to its right, so in
``x = 0 | exists y. x = y + 1`` the existential's scope is the rest of the
line; parenthesize it to bound the scope.  ``t1 > t2`` is sugar for
``t2 < t1``.

Text may nest at most ``MAX_DEPTH`` levels, counted two ways.  The tree
may be at most that deep, where each ``+``, ``&``, ``|``, ``->``, ``V2``,
``~`` and quantifier node is one level above its deepest operand, so a
chain of n operands takes n - 1 levels.  And at most that many
parentheses, ``V2(``, ``~``, quantifiers and ``->`` may be open at once.
Deeper text raises NestingError, a ParseError, which keeps the parser and
every recursive walker over the tree well inside Python's default
recursion limit.

Evaluation is generic over ``Model`` (see ``nonstandard``); congruences
are decided by residues, not by searching for the divisibility witness.
``eval_qf`` interprets a quantifier-free formula, walking the tree on every
call; it is the reference, and the CLI uses it, since it evaluates each
line once.  ``compiled.compile_run`` turns a formula into a case loop for
one model that gives the same value, or raises the same error, on every
assignment of the sampled variables; the axiom harness, which checks each
matrix on many assignments, runs it, so the CLI loads it only for
``axioms``.
``mentions`` says whether a tree has a node of a given kind, such as a
quantifier or ``V2``.  ``identifiers`` gives the names in a line's text,
from which the CLI reads, without walking the tree, whether a line that
parsed is quantified, which variables it leaves unbound and whether it
uses ``V2``.
"""

from __future__ import annotations

import re
from typing import Mapping

from .nonstandard import EQUAL, LESS, Model, ParseError, _Frozen, too_many_digits


class Term(_Frozen):
    __slots__ = ()


class Formula(_Frozen):
    __slots__ = ()


class _Binary(_Frozen):
    """The slots and ``__init__`` of Sum, Eq, Lt, And, Or and Implies."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)


class _Quantifier(_Frozen):
    """The slots and ``__init__`` of ForAll and Exists."""

    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        _set_var(self, var)
        _set_body(self, body)


class Variable(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


class Numeral(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError(f"numerals are naturals, got {value}")
        _set_value(self, value)


class Sum(Term, _Binary):
    __slots__ = ()


class V2App(Term):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _set_arg(self, arg)


class Eq(Formula, _Binary):
    __slots__ = ()


class Lt(Formula, _Binary):
    __slots__ = ()


class CongMod(Formula):
    __slots__ = ("modulus", "left", "right")

    def __init__(self, modulus: int, left: Term, right: Term):
        if modulus < 2:
            raise ValueError(f"congruence modulus must be >= 2, got {modulus}")
        _set_modulus(self, modulus)
        _set_congruent_left(self, left)
        _set_congruent_right(self, right)


class Not(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        _set_negated(self, body)


class And(Formula, _Binary):
    __slots__ = ()


class Or(Formula, _Binary):
    __slots__ = ()


class Implies(Formula, _Binary):
    __slots__ = ()


class ForAll(Formula, _Quantifier):
    __slots__ = ()


class Exists(Formula, _Quantifier):
    __slots__ = ()


# The slots' own setters.
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_var, _set_body = _Quantifier.var.__set__, _Quantifier.body.__set__
_set_name, _set_value, _set_arg = Variable.name.__set__, Numeral.value.__set__, V2App.arg.__set__
_set_negated = Not.body.__set__
_set_modulus, _set_congruent_left, _set_congruent_right = (getattr(CongMod, n).__set__ for n in CongMod.__slots__)
_new = object.__new__


def _binary(cls, left, right):
    # The parser's constructor of a Sum, Eq, Lt, And, Or or Implies; like the
    # other nodes its rules build, through the slots' setters, it runs no __init__.
    node = _new(cls)
    _set_left(node, left)
    _set_right(node, right)
    return node


def nsum(t: Term, n: int) -> Term:
    """The n-fold sum t + t + ... + t; Numeral(0) for n = 0."""
    if n < 0:
        raise ValueError(f"need a natural repetition count, got {n}")
    if n == 0:
        return Numeral(0)
    out = t
    for _ in range(n - 1):
        out = Sum(out, t)
    return out


QUANTIFIERS = frozenset(("forall", "exists"))
KEYWORDS = QUANTIFIERS | {"mod", "V2"}

MAX_DEPTH = 100


class NestingError(ParseError):
    """Text nested deeper than MAX_DEPTH levels."""


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# Every token: a symbol, a natural or a name.  A natural passes
# str.isdecimal, a name str.isidentifier; no two kinds share a value.
_WORD = rf"->|==|[()+=<>~&|.]|\d+|{_IDENT}"
# Splitting by the captured token leaves the gaps between tokens at the even
# indices and the tokens at the odd ones.
_SPLIT_RE = re.compile(f"({_WORD})")
# The reference scan, which also matches a character that starts no token.
_TOKEN_RE = re.compile(rf"{_WORD}|(?P<bad>\S)")
# No other kind of token contains a character that can start an identifier,
# so on text that scans without error this finds exactly the ident tokens.
_IDENT_RE = re.compile(_IDENT)
# No term contains these symbols or quantifier tokens, and every formula
# contains a comparison, so they decide whether text is a formula or a term,
# and whether a parenthesized group holds a formula or a term.
_FORMULA_SYMBOL_RE = re.compile(r"[=<>~&|]")
_FORMULA_ONLY_TOKENS = frozenset(("=", "<", ">", "~", "&", "|", "==", "->")) | QUANTIFIERS


def is_formula_text(text: str) -> bool:
    """Whether text can only be a formula; any other text can only be a term.

    On text that scans, this is the rule by which ``_opens_formula`` decides a group.
    """
    if _FORMULA_SYMBOL_RE.search(text):
        return True
    return ("forall" in text or "exists" in text) and not QUANTIFIERS.isdisjoint(identifiers(text))


def identifiers(text: str) -> set[str]:
    """The names of the identifier tokens of text.

    On text that parses, a ``forall`` or ``exists`` name is a quantifier,
    ``V2`` a ``V2App``, ``mod`` the keyword of a congruence, and every other
    name a ``Variable``; with no quantifier, these are the free variables.
    """
    return set(_IDENT_RE.findall(text))


def _positions(text: str) -> list[int]:
    """Where each token of text starts, then len(text) for the ``end`` token.

    This is the reference scan; it raises the ParseError of the first
    character that starts no token.
    """
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append(m.start())
    out.append(len(text))
    return out


def _scan(text: str) -> list[str]:
    """The tokens of text, ending in the empty ``end`` token.

    A line that parses is scanned once, by one ``split``; only an error
    scans it again, in ``_positions``, for its position.  The gaps between
    the tokens must be whitespace, which is skipped: any other character
    starts no token and is an error.
    """
    parts = _SPLIT_RE.split(text)
    gaps = "".join(parts[::2])
    if gaps and not gaps.isspace():
        _positions(text)  # raises at the first character that starts no token
    tokens = parts[1::2]
    tokens.append("")
    return tokens


class _Open(str):
    """A decided '(' in a token list; it equals '(' in every other test and message."""


_FORMULA_GROUP, _TERM_GROUP = _Open("("), _Open("(")


def _opens_formula(tokens: list[str], i: int) -> bool:
    """Whether the undecided '(' at tokens[i] opens a formula group.

    Its group, up to its matching ')' or the end of input, is a formula
    group when it has a formula-only token (``is_formula_text``).  The look
    reads ahead to the first of these, deciding every '(' it passes in the
    token list: one still open there opens a formula group, any other a
    term group.  The parser looks only from an undecided '(', so no token
    is read by two looks.
    """
    opened = [i]
    for j in range(i + 1, len(tokens)):
        value = tokens[j]
        if value == "(":
            opened.append(j)
        elif value == ")":
            tokens[opened.pop()] = _TERM_GROUP
            if not opened:
                return False
        elif value in _FORMULA_ONLY_TOKENS:
            for j in opened:
                tokens[j] = _FORMULA_GROUP
            return True
    for j in opened:  # left open to the end of input
        tokens[j] = _TERM_GROUP
    return False


# Each rule takes (tokens, i, depth) and returns (node, next i, height):
# ``depth`` counts the parentheses, V2(, ~, quantifiers and -> open at
# tokens[i], ``height`` is the node's number of levels (see the module
# docstring).  An error raises _At with its token's index.
class _At(Exception):
    """(token index, error factory, *message): ``_parse_whole`` raises the error at its position."""


_NESTED = f"nested deeper than {MAX_DEPTH} levels"


def _expected(want: str, tokens: list[str], i: int) -> _At:
    return _At(i, ParseError, f"expected {want}, found {tokens[i] or 'end of input'!r}")


def _formula(tokens: list[str], i: int, depth: int):
    """'|' chains of '&' chains of ``_unary``, then '->' and a formula (right-associative)."""
    disjunction = None  # the '|' chain so far and its height
    while True:
        out, i, height = _unary(tokens, i, depth)
        while tokens[i] == "&":
            right, i, h = _unary(tokens, i + 1, depth)
            height = (height if height > h else h) + 1
            if height > MAX_DEPTH:
                raise _At(i, NestingError, _NESTED)
            out = _binary(And, out, right)
        if disjunction:
            left, h = disjunction
            height = (height if height > h else h) + 1
            if height > MAX_DEPTH:
                raise _At(i, NestingError, _NESTED)
            out = _binary(Or, left, out)
        if tokens[i] != "|":
            break
        disjunction = out, height
        i += 1
    if tokens[i] == "->":
        i += 1
        if depth >= MAX_DEPTH:
            raise _At(i, NestingError, _NESTED)
        right, i, h = _formula(tokens, i, depth + 1)
        height = (height if height > h else h) + 1
        if height > MAX_DEPTH:
            raise _At(i, NestingError, _NESTED)
        out = _binary(Implies, out, right)
    return out, i, height


def _unary(tokens: list[str], i: int, depth: int):
    """'~' and its operand, a quantified formula, a formula group or an atom."""
    value = tokens[i]
    if value == "(":
        if depth >= MAX_DEPTH:  # either reading of the group opens a level here
            raise _At(i, NestingError, _NESTED)
        if value is _FORMULA_GROUP or value is not _TERM_GROUP and _opens_formula(tokens, i):
            body, i, height = _formula(tokens, i + 1, depth + 1)
            if tokens[i] != ")":
                raise _expected("')'", tokens, i)
            return body, i + 1, height
    elif value == "~" or value == "forall" or value == "exists":
        if depth >= MAX_DEPTH:
            raise _At(i, NestingError, _NESTED)
        if value == "~":
            body, i, height = _unary(tokens, i + 1, depth + 1)
            node = _new(Not)
            _set_negated(node, body)
        else:  # the quantifier's scope is the rest of the formula
            var = tokens[i + 1]
            if not var.isidentifier():
                raise _expected("'ident'", tokens, i + 1)
            if var in KEYWORDS:
                raise _At(i + 1, ParseError, f"{var!r} cannot be a variable name")
            if tokens[i + 2] != ".":
                raise _expected("'.'", tokens, i + 2)
            body, i, height = _formula(tokens, i + 3, depth + 1)
            node = _new(ForAll if value == "forall" else Exists)
            _set_var(node, var)
            _set_body(node, body)
        if height >= MAX_DEPTH:
            raise _At(i, NestingError, _NESTED)
        return node, i, height + 1
    left, i, height = _term(tokens, i, depth)
    value = tokens[i]
    if value != "=" and value != "<" and value != ">" and value != "==":
        raise _expected("a comparison", tokens, i)
    right, i, h = _term(tokens, i + 1, depth)
    if h > height:
        height = h
    if value == "=":
        return _binary(Eq, left, right), i, height
    if value == "<":
        return _binary(Lt, left, right), i, height
    if value == ">":
        return _binary(Lt, right, left), i, height
    if not tokens[i].isidentifier():
        raise _expected("'ident'", tokens, i)
    if tokens[i] != "mod":
        raise _At(i, ParseError, "expected 'mod'")
    nat = tokens[i + 1]
    if not nat.isdecimal():
        raise _expected("'nat'", tokens, i + 1)
    try:
        n = int(nat)
    except ValueError:  # more digits than int() reads from text
        raise _At(i + 1, too_many_digits) from None
    if n < 2:
        raise _At(i + 1, ParseError, f"congruence modulus must be >= 2, got {n}")
    node = _new(CongMod)
    _set_modulus(node, n)
    _set_congruent_left(node, left)
    _set_congruent_right(node, right)
    return node, i + 2, height


def _term(tokens: list[str], i: int, depth: int):
    """``_factor``s joined by '+', left-associative."""
    out, i, height = _factor(tokens, i, depth)
    while tokens[i] == "+":
        right, i, h = _factor(tokens, i + 1, depth)
        height = (height if height > h else h) + 1
        if height > MAX_DEPTH:
            raise _At(i, NestingError, _NESTED)
        out = _binary(Sum, out, right)
    return out, i, height


def _factor(tokens: list[str], i: int, depth: int):
    """A numeral, a variable, 'V2' '(' term ')' or '(' term ')'."""
    value = tokens[i]
    if value.isdecimal():  # a natural, so Numeral's check holds
        node = _new(Numeral)
        try:
            _set_value(node, int(value))
        except ValueError:  # more digits than int() reads from text
            raise _At(i, too_many_digits) from None
        return node, i + 1, 0
    if value.isidentifier() and value != "V2":
        if value in KEYWORDS:
            raise _At(i, ParseError, f"{value!r} cannot be a variable name")
        node = _new(Variable)
        _set_name(node, value)
        return node, i + 1, 0
    if value != "(" and value != "V2":
        raise _expected("a term", tokens, i)
    if depth >= MAX_DEPTH:
        raise _At(i, NestingError, _NESTED)
    if value == "V2":
        i += 1
        if tokens[i] != "(":
            raise _expected("'('", tokens, i)
    inner, i, height = _term(tokens, i + 1, depth + 1)
    if tokens[i] != ")":
        raise _expected("')'", tokens, i)
    if value == "(":
        return inner, i + 1, height
    if height >= MAX_DEPTH:
        raise _At(i + 1, NestingError, _NESTED)
    node = _new(V2App)
    _set_arg(node, inner)
    return node, i + 1, height + 1


def _parse_whole(text: str, rule):
    tokens = _scan(text)
    try:
        out, i, _ = rule(tokens, 0, 0)
        if tokens[i]:
            raise _At(i, ParseError, f"trailing input {tokens[i]!r}")
    except _At as at:
        i, error, *message = at.args
        raise error(*message, _positions(text)[i]) from None
    return out


def parse_term(text: str) -> Term:
    return _parse_whole(text, _term)


def parse_formula(text: str) -> Formula:
    return _parse_whole(text, _formula)


def free_variables(f: Formula | Term) -> frozenset[str]:
    if isinstance(f, Variable):
        return frozenset((f.name,))
    if isinstance(f, Numeral):
        return frozenset()
    if isinstance(f, (_Binary, CongMod)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, V2App):
        return free_variables(f.arg)
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (ForAll, Exists)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula or term: {f!r}")


# -- printing ---------------------------------------------------------------

def format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Numeral):
        return str(t.value)
    if isinstance(t, V2App):
        return f"V2({format_term(t.arg)})"
    if isinstance(t, Sum):
        right = format_term(t.right)
        if isinstance(t.right, Sum):
            right = f"({right})"
        return f"{format_term(t.left)} + {right}"
    raise TypeError(f"not a term: {t!r}")


# Binding strength; quantifiers bind loosest and always get parenthesized
# when they appear under a connective.
_LEVELS = {Implies: 1, Or: 2, And: 3, Not: 4}


def _format(f: Formula, parent: int) -> str:
    if isinstance(f, Eq):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, Lt):
        return f"{format_term(f.left)} < {format_term(f.right)}"
    if isinstance(f, CongMod):
        return f"{format_term(f.left)} == {format_term(f.right)} mod {f.modulus}"
    if isinstance(f, (ForAll, Exists)):
        kw = "forall" if isinstance(f, ForAll) else "exists"
        out = f"{kw} {f.var}. {_format(f.body, 0)}"
        return f"({out})" if parent > 0 else out
    if isinstance(f, Not):
        return f"~ {_format(f.body, 4)}"
    level = _LEVELS[type(f)]
    if isinstance(f, Implies):
        out = f"{_format(f.left, level + 1)} -> {_format(f.right, level)}"
    else:
        op = "|" if isinstance(f, Or) else "&"
        out = f"{_format(f.left, level)} {op} {_format(f.right, level + 1)}"
    return f"({out})" if parent > level else out


def format_formula(f: Formula) -> str:
    """Canonical text; parse_formula round-trips on every formula."""
    return _format(f, 0)


# -- evaluation -------------------------------------------------------------

class UnboundVariableError(ValueError):
    pass


def eval_term(t: Term, env: Mapping[str, object], model: Model):
    """Value of a term under an assignment, in the given model."""
    if isinstance(t, Variable):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Numeral):
        return model.numeral(t.value)
    if isinstance(t, Sum):
        return model.add(eval_term(t.left, env, model), eval_term(t.right, env, model))
    if isinstance(t, V2App):
        return model.v2(eval_term(t.arg, env, model))
    raise TypeError(f"not a term: {t!r}")


def eval_qf(f: Formula, env: Mapping[str, object], model: Model) -> bool:
    """Classical truth value of a quantifier-free formula, exactly."""
    if isinstance(f, Eq):
        return model.compare(eval_term(f.left, env, model), eval_term(f.right, env, model)) is EQUAL
    if isinstance(f, Lt):
        return model.compare(eval_term(f.left, env, model), eval_term(f.right, env, model)) is LESS
    if isinstance(f, CongMod):
        left = model.residue_mod(eval_term(f.left, env, model), f.modulus)
        right = model.residue_mod(eval_term(f.right, env, model), f.modulus)
        return left == right
    if isinstance(f, Not):
        return not eval_qf(f.body, env, model)
    if isinstance(f, And):
        return eval_qf(f.left, env, model) and eval_qf(f.right, env, model)
    if isinstance(f, Or):
        return eval_qf(f.left, env, model) or eval_qf(f.right, env, model)
    if isinstance(f, Implies):
        return (not eval_qf(f.left, env, model)) or eval_qf(f.right, env, model)
    if isinstance(f, (ForAll, Exists)):
        raise ValueError("quantifier in quantifier-free evaluation")
    raise TypeError(f"not a formula: {f!r}")


def mentions(f: Formula | Term, kinds: type | tuple[type, ...]) -> bool:
    """Whether the term or formula f has a node of the given type or types."""
    if isinstance(f, kinds):
        return True
    for child in f._values(f):
        if isinstance(child, (Term, Formula)) and mentions(child, kinds):
            return True
    return False
