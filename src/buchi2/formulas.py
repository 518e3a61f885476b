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

A quantifier binds as much as possible to its right, so in
``x = 0 | exists y. x = y + 1`` the existential's scope is the rest of the
line; parenthesize it to bound the scope.  ``t1 > t2`` is sugar for
``t2 < t1``.  After parsing, bound variables that collide with free
variables are renamed apart (leftmost-innermost).

Text may nest at most ``MAX_DEPTH`` levels, counted two ways.  The tree
may be at most that deep, where each ``+``, ``&``, ``|``, ``->``, ``V2``,
``~`` and quantifier node is one level above its deepest operand, so a
chain of n operands takes n - 1 levels.  And at most that many
parentheses, ``V2(``, ``~``, quantifiers and ``->`` may be open at once.
Deeper text raises ParseError, which keeps the parser and every recursive
walker over the tree well inside Python's default recursion limit.

Evaluation is generic over ``Model`` (see ``nonstandard``); congruences
are decided by residues, not by searching for the divisibility witness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<eqeq>==)|(?P<sym>[()+=<>~&|.])"
    r"|(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    # ``depth`` counts the parentheses, V2(, ~, quantifiers and -> open at
    # the current token, which bounds the parser's own recursion;
    # ``height`` is the number of levels of the node parsed last, which
    # bounds the recursion of every walker over the tree.

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
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
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", pos)

    def grow(self, height: int) -> None:
        if height > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", self.peek()[2])
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

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.eat_sym("|"):
            height = self.height
            out = Or(out, self.conjunction())
            self.grow(max(height, self.height) + 1)
        return out

    def conjunction(self) -> Formula:
        out = self.negation()
        while self.eat_sym("&"):
            height = self.height
            out = And(out, self.negation())
            self.grow(max(height, self.height) + 1)
        return out

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
        # An atom may itself start with a parenthesized term, so try the
        # atom reading first and fall back to a parenthesized formula.
        mark, depth = self.i, self.depth
        try:
            return self.atom()
        except ParseError as atom_error:
            self.i, self.depth = mark, depth
            if self.at_sym("("):
                self.descend(self.next()[2])
                body = self.formula()
                self.expect("sym", ")")
                self.depth -= 1
                return body
            raise atom_error

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
        out = self.factor()
        while self.eat_sym("+"):
            height = self.height
            out = Sum(out, self.factor())
            self.grow(max(height, self.height) + 1)
        return out

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


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    t = parser.term()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return t


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return standardize_bound(f)


def free_variables(f: Formula | Term) -> frozenset[str]:
    if isinstance(f, Variable):
        return frozenset((f.name,))
    if isinstance(f, Numeral):
        return frozenset()
    if isinstance(f, Sum):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, V2App):
        return free_variables(f.arg)
    if isinstance(f, (Eq, Lt)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, CongMod):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (ForAll, Exists)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula or term: {f!r}")


def _rename_free(f, old: str, new: str):
    """Substitute the variable old by new at its free occurrences."""
    if isinstance(f, Variable):
        return Variable(new) if f.name == old else f
    if isinstance(f, Numeral):
        return f
    if isinstance(f, Sum):
        return Sum(_rename_free(f.left, old, new), _rename_free(f.right, old, new))
    if isinstance(f, V2App):
        return V2App(_rename_free(f.arg, old, new))
    if isinstance(f, Eq):
        return Eq(_rename_free(f.left, old, new), _rename_free(f.right, old, new))
    if isinstance(f, Lt):
        return Lt(_rename_free(f.left, old, new), _rename_free(f.right, old, new))
    if isinstance(f, CongMod):
        return CongMod(f.modulus, _rename_free(f.left, old, new), _rename_free(f.right, old, new))
    if isinstance(f, Not):
        return Not(_rename_free(f.body, old, new))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_rename_free(f.left, old, new), _rename_free(f.right, old, new))
    if isinstance(f, (ForAll, Exists)):
        if f.var == old:
            return f
        return type(f)(f.var, _rename_free(f.body, old, new))
    raise TypeError(f"not a formula or term: {f!r}")


def standardize_bound(f: Formula) -> Formula:
    """Rename bound variables apart from the formula's free variables.

    Renames leftmost-innermost to the first fresh name of the form
    ``<var>_<i>``; idempotent on already-standardized formulas.
    """
    free = free_variables(f)
    used = set(free)

    def fresh(base: str) -> str:
        i = 1
        while f"{base}_{i}" in used or f"{base}_{i}" in free:
            i += 1
        name = f"{base}_{i}"
        used.add(name)
        return name

    def walk(g):
        if isinstance(g, (Eq, Lt, CongMod)):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (ForAll, Exists)):
            body = walk(g.body)
            if g.var in free:
                new = fresh(g.var)
                return type(g)(new, _rename_free(body, g.var, new))
            used.add(g.var)
            return type(g)(g.var, body)
        return g

    return walk(f)


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
    """Canonical text; parse_formula round-trips on standardized formulas."""
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


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas, preorder."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (ForAll, Exists)):
        yield from subformulas(f.body)


def uses_v2(f: Formula | Term) -> bool:
    """Whether the term or formula f mentions the valuation function."""
    if isinstance(f, V2App):
        return True
    if isinstance(f, (Sum, Eq, Lt, CongMod, And, Or, Implies)):
        return uses_v2(f.left) or uses_v2(f.right)
    if isinstance(f, (Not, ForAll, Exists)):
        return uses_v2(f.body)
    return False
