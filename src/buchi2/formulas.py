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
``split`` whose tokens are strings, and a line with a ``(`` has its
groups marked in one pass over them; only an error scans the line again,
for its position.  A numeral longer than ``int()`` reads from text
(``sys.get_int_max_str_digits()``) is a parse error.  Tree nodes are
frozen as elements are (``nonstandard._Frozen``): they compare and hash
by their fields, pickle and support ``match``.

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
line once.  ``compiled.compile_qf`` turns a formula into a check for one
model that gives the same value, or raises the same error, on every
assignment; the axiom harness, which checks each matrix on many
assignments, uses it, so the CLI loads it only for ``axioms``.
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

    On text that scans, this is the rule by which ``_scan`` marks a group.
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


def _scan(text: str) -> tuple[list[str], set[int]]:
    """The tokens of text, ending in the empty ``end`` token, and its formula groups.

    A line that parses is scanned once, by one ``split``; only an error
    scans it again, in ``_positions``, for its position.  The gaps between
    the tokens must be whitespace, which is skipped: any other character
    starts no token and is an error.  The formula groups are the indices of
    the '(' that open one.
    A group runs to its matching ')', or to the end of input if it is left
    open, and is a formula group when it contains a formula-only token, the
    rule of ``is_formula_text``; any other group can only hold a term.
    """
    parts = _SPLIT_RE.split(text)
    gaps = "".join(parts[::2])
    if gaps and not gaps.isspace():
        _positions(text)  # raises at the first character that starts no token
    tokens = parts[1::2]
    groups: set[int] = set()
    if "(" in text:
        open_groups: list[int] = []
        for i, value in enumerate(tokens):
            if value == "(":
                open_groups.append(i)
            elif value == ")" and open_groups:
                open_groups.pop()
            elif value in _FORMULA_ONLY_TOKENS:
                # The marked open groups are the outermost ones, so marking
                # stops at the first marked group and each is marked once.
                for j in reversed(open_groups):
                    if j in groups:
                        break
                    groups.add(j)
    tokens.append("")
    return tokens, groups


class _Parser:
    # ``depth`` counts the parentheses, V2(, ~, quantifiers and -> open at
    # the current token, which bounds the parser's own recursion;
    # ``height`` is the number of levels of the node parsed last, which
    # bounds the recursion of every walker over the tree.

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.formula_groups = _scan(text)
        self.i = 0
        self.depth = 0
        self.height = 0

    # The methods read ``self.tokens[self.i]`` directly and step ``i`` by
    # one.  An error scans the text again for its token's position.

    def expect(self, want: str, kind=None) -> str:
        """Step over the next token: the symbol want, or a token that kind accepts."""
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if not (kind(tok) if kind else tok == want):
            raise ParseError(f"expected {want!r}, found {tok or 'end of input'!r}", _positions(self.text)[i])
        return tok

    def descend(self, i: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingError(f"nested deeper than {MAX_DEPTH} levels", _positions(self.text)[i])

    def grow(self, height: int) -> None:
        if height > MAX_DEPTH:
            raise NestingError(f"nested deeper than {MAX_DEPTH} levels", _positions(self.text)[self.i])
        self.height = height

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        i = self.i
        value = self.tokens[i]
        if value == "forall" or value == "exists":
            self.i = i + 1
            self.descend(i)
            var = self.expect("ident", str.isidentifier)
            if var in KEYWORDS:
                raise ParseError(f"{var!r} cannot be a variable name", _positions(self.text)[i + 1])
            self.expect(".")
            body = self.formula()
            self.depth -= 1
            self.grow(self.height + 1)
            return (ForAll if value == "forall" else Exists)(var, body)
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.tokens[self.i] == "->":
            self.i += 1
            height = self.height
            self.descend(self.i)
            right = self.implication()
            self.depth -= 1
            self.grow(max(height, self.height) + 1)
            return Implies(left, right)
        return left

    def chain(self, operand, sym: str, node):
        """Left-associative operands joined by sym; n operands take n - 1 levels."""
        out = operand()
        tokens = self.tokens
        while tokens[self.i] == sym:
            self.i += 1
            height = self.height
            out = node(out, operand())
            self.grow(max(height, self.height) + 1)
        return out

    def disjunction(self) -> Formula:
        return self.chain(self.conjunction, "|", Or)

    def conjunction(self) -> Formula:
        return self.chain(self.negation, "&", And)

    def negation(self) -> Formula:
        i = self.i
        value = self.tokens[i]
        if value == "~":
            self.i = i + 1
            self.descend(i)
            body = self.negation()
            self.depth -= 1
            self.grow(self.height + 1)
            return Not(body)
        if value == "forall" or value == "exists":
            return self.formula()  # quantifier absorbs the rest of this branch
        return self.primary()

    def primary(self) -> Formula:
        i = self.i
        if i not in self.formula_groups:
            return self.atom()
        self.i = i + 1
        self.descend(i)
        body = self.formula()
        self.expect(")")
        self.depth -= 1
        return body

    def atom(self) -> Formula:
        left = self.term()
        height = self.height
        i = self.i
        value = self.tokens[i]
        self.i = i + 1
        if value == "=":
            out = Eq(left, self.term())
        elif value == "<":
            out = Lt(left, self.term())
        elif value == ">":
            out = Lt(self.term(), left)
        elif value == "==":
            right = self.term()
            if self.expect("ident", str.isidentifier) != "mod":
                raise ParseError("expected 'mod'", _positions(self.text)[self.i - 1])
            nat = self.expect("nat", str.isdecimal)
            try:
                n = int(nat)
            except ValueError:  # more digits than int() reads from text
                raise too_many_digits(_positions(self.text)[self.i - 1]) from None
            if n < 2:
                raise ParseError(f"congruence modulus must be >= 2, got {n}", _positions(self.text)[self.i - 1])
            out = CongMod(n, left, right)
        else:
            raise ParseError(f"expected a comparison, found {value or 'end of input'!r}", _positions(self.text)[i])
        self.height = max(height, self.height)
        return out

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        return self.chain(self.factor, "+", Sum)

    def factor(self) -> Term:
        i = self.i
        value = self.tokens[i]
        self.i = i + 1
        if value.isdecimal():
            self.height = 0
            try:
                return Numeral(int(value))
            except ValueError:  # more digits than int() reads from text
                raise too_many_digits(_positions(self.text)[i]) from None
        if value.isidentifier():
            if value == "V2":
                self.descend(i)
                self.expect("(")
                arg = self.term()
                self.expect(")")
                self.depth -= 1
                self.grow(self.height + 1)
                return V2App(arg)
            if value in KEYWORDS:
                raise ParseError(f"{value!r} cannot be a variable name", _positions(self.text)[i])
            self.height = 0
            return Variable(value)
        if value == "(":
            self.descend(i)
            inner = self.term()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", _positions(self.text)[i])


def _parse_whole(text: str, rule):
    parser = _Parser(text)
    out = rule(parser)
    value = parser.tokens[parser.i]
    if value:
        raise ParseError(f"trailing input {value!r}", _positions(text)[parser.i])
    return out


def parse_term(text: str) -> Term:
    return _parse_whole(text, _Parser.term)


def parse_formula(text: str) -> Formula:
    return _parse_whole(text, _Parser.formula)


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
