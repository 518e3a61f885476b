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
``= < > ~ & |``, ``forall`` or ``exists``: text with one of them can only
be a formula, other text only a term (``is_formula_text``).  The same rule
picks the ``primary`` branch without backtracking: a ``(`` whose group, up
to its matching ``)`` or the end of input, contains one of these opens
``'(' formula ')'``, and any other ``(`` starts an atom.  A line is scanned
once: the pass that splits it into tokens also marks these groups.

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
line once.  ``compile_qf`` (module ``compiled``) turns a formula into a
check for one model that gives the same value, or raises the same error,
on every assignment; the axiom harness, which checks each matrix on many
assignments, uses it.  ``mentions`` says whether a tree has a node of a
given kind, such as a quantifier or ``V2``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .nonstandard import Model, Ordering, ParseError


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Variable(Term):
    name: str


@dataclass(frozen=True)
class Numeral(Term):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"numerals are naturals, got {self.value}")


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class V2App(Term):
    arg: Term


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class CongMod(Formula):
    modulus: int
    left: Term
    right: Term

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"congruence modulus must be >= 2, got {self.modulus}")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


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


_KEYWORDS = {"forall", "exists", "mod", "V2"}

MAX_DEPTH = 100


class NestingError(ParseError):
    """Text nested deeper than MAX_DEPTH levels."""


_TOKEN_RE = re.compile(
    r"(?P<arrow>->)|(?P<eqeq>==)|(?P<sym>[()+=<>~&|.])"
    r"|(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S)"
)
# No term contains these, and every formula contains a comparison, so
# they decide from the raw text whether parse_formula or parse_term applies,
# and from the tokens whether a parenthesized group holds a formula or a term.
_FORMULA_ONLY_RE = re.compile(r"[=<>~&|]|\b(?:forall|exists)\b")
_FORMULA_ONLY_TOKENS = frozenset(("=", "<", ">", "~", "&", "|", "==", "->", "forall", "exists"))


def is_formula_text(text: str) -> bool:
    """Whether text can only be a formula; any other text can only be a term."""
    return _FORMULA_ONLY_RE.search(text) is not None


def _scan(text: str) -> tuple[list[tuple[str, str, int]], set[int]]:
    """The tokens of text, ending in an ``end`` token, and its formula groups.

    Whitespace matches no alternative of ``_TOKEN_RE`` and is skipped.  The
    formula groups are the indices of the '(' that open one.  A group runs
    to its matching ')', or to the end of input if it is left open, and is
    a formula group when it contains a formula-only token, the rule of
    ``is_formula_text``; any other group can only hold a term.
    """
    tokens: list[tuple[str, str, int]] = []
    groups: set[int] = set()
    open_groups: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if value == "(":  # each value has one kind
            open_groups.append(len(tokens))
        elif value == ")" and open_groups:
            open_groups.pop()
        elif value in _FORMULA_ONLY_TOKENS:
            # The marked open groups are the outermost ones, so marking
            # stops at the first marked group and each is marked once.
            for j in reversed(open_groups):
                if j in groups:
                    break
                groups.add(j)
        tokens.append((kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens, groups


class _Parser:
    # ``depth`` counts the parentheses, V2(, ~, quantifiers and -> open at
    # the current token, which bounds the parser's own recursion;
    # ``height`` is the number of levels of the node parsed last, which
    # bounds the recursion of every walker over the tree.

    def __init__(self, text: str):
        self.tokens, self.formula_groups = _scan(text)
        self.i = 0
        self.depth = 0
        self.height = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def at_sym(self, value: str) -> bool:
        kind, tok, _ = self.peek()
        return kind == "sym" and tok == value

    def eat_sym(self, value: str) -> bool:
        if self.at_sym(value):
            self.next()
            return True
        return False

    def descend(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingError(f"nested deeper than {MAX_DEPTH} levels", pos)

    def grow(self, height: int) -> None:
        if height > MAX_DEPTH:
            raise NestingError(f"nested deeper than {MAX_DEPTH} levels", self.peek()[2])
        self.height = height

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "ident" and value in ("forall", "exists"):
            self.descend(self.next()[2])
            var = self.expect("ident")
            if var[1] in _KEYWORDS:
                raise ParseError(f"{var[1]!r} cannot be a variable name", var[2])
            self.expect("sym", ".")
            body = self.formula()
            self.depth -= 1
            self.grow(self.height + 1)
            return (ForAll if value == "forall" else Exists)(var[1], body)
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.next()
            height = self.height
            self.descend(self.peek()[2])
            right = self.implication()
            self.depth -= 1
            self.grow(max(height, self.height) + 1)
            return Implies(left, right)
        return left

    def chain(self, operand, sym: str, node):
        """Left-associative operands joined by sym; n operands take n - 1 levels."""
        out = operand()
        while self.eat_sym(sym):
            height = self.height
            out = node(out, operand())
            self.grow(max(height, self.height) + 1)
        return out

    def disjunction(self) -> Formula:
        return self.chain(self.conjunction, "|", Or)

    def conjunction(self) -> Formula:
        return self.chain(self.negation, "&", And)

    def negation(self) -> Formula:
        if self.at_sym("~"):
            self.descend(self.next()[2])
            body = self.negation()
            self.depth -= 1
            self.grow(self.height + 1)
            return Not(body)
        kind, value, _ = self.peek()
        if kind == "ident" and value in ("forall", "exists"):
            return self.formula()  # quantifier absorbs the rest of this branch
        return self.primary()

    def primary(self) -> Formula:
        if self.i not in self.formula_groups:
            return self.atom()
        self.descend(self.next()[2])
        body = self.formula()
        self.expect("sym", ")")
        self.depth -= 1
        return body

    def atom(self) -> Formula:
        left = self.term()
        height = self.height
        kind, value, pos = self.next()
        if kind == "eqeq":
            right = self.term()
            mod_kw = self.expect("ident")
            if mod_kw[1] != "mod":
                raise ParseError("expected 'mod'", mod_kw[2])
            nat = self.expect("nat")
            n = int(nat[1])
            if n < 2:
                raise ParseError(f"congruence modulus must be >= 2, got {n}", nat[2])
            out = CongMod(n, left, right)
        elif kind == "sym" and value == "=":
            out = Eq(left, self.term())
        elif kind == "sym" and value == "<":
            out = Lt(left, self.term())
        elif kind == "sym" and value == ">":
            out = Lt(self.term(), left)
        else:
            raise ParseError(f"expected a comparison, found {value or 'end of input'!r}", pos)
        self.height = max(height, self.height)
        return out

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        return self.chain(self.factor, "+", Sum)

    def factor(self) -> Term:
        kind, value, pos = self.next()
        if kind == "ident" and value == "V2":
            self.descend(pos)
            self.expect("sym", "(")
            arg = self.term()
            self.expect("sym", ")")
            self.depth -= 1
            self.grow(self.height + 1)
            return V2App(arg)
        if kind == "nat":
            self.height = 0
            return Numeral(int(value))
        if kind == "ident":
            if value in _KEYWORDS:
                raise ParseError(f"{value!r} cannot be a variable name", pos)
            self.height = 0
            return Variable(value)
        if kind == "sym" and value == "(":
            self.descend(pos)
            inner = self.term()
            self.expect("sym", ")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)


def _parse_whole(text: str, rule):
    parser = _Parser(text)
    out = rule(parser)
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
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
    if isinstance(f, (Sum, Eq, Lt, CongMod, And, Or, Implies)):
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
        return model.compare(eval_term(f.left, env, model), eval_term(f.right, env, model)) is Ordering.EQUAL
    if isinstance(f, Lt):
        return model.compare(eval_term(f.left, env, model), eval_term(f.right, env, model)) is Ordering.LESS
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


def compile_qf(f: Formula, model: Model):
    """check(env) -> bool, equal to ``eval_qf(f, env, model)`` for every env.

    The compiler lives in ``compiled``, loaded on the first call, so that
    importing this module, as the CLI and the REPL do, does not load it.
    """
    from .compiled import compile_qf

    return compile_qf(f, model)


def mentions(f: Formula | Term, kinds: type | tuple[type, ...]) -> bool:
    """Whether the term or formula f has a node of the given type or types."""
    if isinstance(f, kinds):
        return True
    if isinstance(f, (Sum, Eq, Lt, CongMod, And, Or, Implies)):
        return mentions(f.left, kinds) or mentions(f.right, kinds)
    if isinstance(f, V2App):
        return mentions(f.arg, kinds)
    if isinstance(f, (Not, ForAll, Exists)):
        return mentions(f.body, kinds)
    return False
