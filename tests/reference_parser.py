"""The reference parser: the slower recursive descent that ``formulas`` replaced.

It scans with one loop over ``_TOKEN_RE.finditer`` that keeps each token's
position and marks every formula group of the line eagerly, then parses
with one method per grammar level, each reading and stepping ``self.i``.
``buchi2.formulas`` parses with four flat rule functions and decides a
group only where it meets one; the tests require the two to return the
same tree, or raise the same error at the same position, on every text.
"""

from buchi2.formulas import (
    KEYWORDS,
    MAX_DEPTH,
    _TOKEN_RE,
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
    V2App,
    Variable,
)
from buchi2.nonstandard import ParseError, too_many_digits

FORMULA_ONLY = {"=", "<", ">", "~", "&", "|", "==", "->", "forall", "exists"}


def reference_scan(text):
    """[(token, position)] ending in ("", len(text)), and the indices of the '(' that open formula groups."""
    tokens, groups, open_groups = [], set(), []
    for m in _TOKEN_RE.finditer(text):
        value = m.group()
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start())
        if value == "(":
            open_groups.append(len(tokens))
        elif value == ")" and open_groups:
            open_groups.pop()
        elif value in FORMULA_ONLY:
            for j in reversed(open_groups):
                if j in groups:
                    break
                groups.add(j)
        tokens.append((value, m.start()))
    tokens.append(("", len(text)))
    return tokens, groups


class Parser:
    # ``depth`` counts the parentheses, V2(, ~, quantifiers and -> open at
    # the current token; ``height`` is the number of levels of the node
    # parsed last.

    def __init__(self, text: str):
        scanned, self.formula_groups = reference_scan(text)
        self.tokens = [value for value, _ in scanned]
        self.positions = [position for _, position in scanned]
        self.i = 0
        self.depth = 0
        self.height = 0

    def expect(self, want: str, kind=None) -> str:
        """Step over the next token: the symbol want, or a token that kind accepts."""
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if not (kind(tok) if kind else tok == want):
            raise ParseError(f"expected {want!r}, found {tok or 'end of input'!r}", self.positions[i])
        return tok

    def descend(self, i: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingError(f"nested deeper than {MAX_DEPTH} levels", self.positions[i])

    def grow(self, height: int) -> None:
        if height > MAX_DEPTH:
            raise NestingError(f"nested deeper than {MAX_DEPTH} levels", self.positions[self.i])
        self.height = height

    # -- formulas ----------------------------------------------------------

    def formula(self):
        i = self.i
        value = self.tokens[i]
        if value == "forall" or value == "exists":
            self.i = i + 1
            self.descend(i)
            var = self.expect("ident", str.isidentifier)
            if var in KEYWORDS:
                raise ParseError(f"{var!r} cannot be a variable name", self.positions[i + 1])
            self.expect(".")
            body = self.formula()
            self.depth -= 1
            self.grow(self.height + 1)
            return (ForAll if value == "forall" else Exists)(var, body)
        return self.implication()

    def implication(self):
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
        while self.tokens[self.i] == sym:
            self.i += 1
            height = self.height
            out = node(out, operand())
            self.grow(max(height, self.height) + 1)
        return out

    def disjunction(self):
        return self.chain(self.conjunction, "|", Or)

    def conjunction(self):
        return self.chain(self.negation, "&", And)

    def negation(self):
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

    def primary(self):
        i = self.i
        if i not in self.formula_groups:
            return self.atom()
        self.i = i + 1
        self.descend(i)
        body = self.formula()
        self.expect(")")
        self.depth -= 1
        return body

    def atom(self):
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
                raise ParseError("expected 'mod'", self.positions[self.i - 1])
            nat = self.expect("nat", str.isdecimal)
            try:
                n = int(nat)
            except ValueError:  # more digits than int() reads from text
                raise too_many_digits(self.positions[self.i - 1]) from None
            if n < 2:
                raise ParseError(f"congruence modulus must be >= 2, got {n}", self.positions[self.i - 1])
            out = CongMod(n, left, right)
        else:
            raise ParseError(f"expected a comparison, found {value or 'end of input'!r}", self.positions[i])
        self.height = max(height, self.height)
        return out

    # -- terms -------------------------------------------------------------

    def term(self):
        return self.chain(self.factor, "+", Sum)

    def factor(self):
        i = self.i
        value = self.tokens[i]
        self.i = i + 1
        if value.isdecimal():
            self.height = 0
            try:
                return Numeral(int(value))
            except ValueError:  # more digits than int() reads from text
                raise too_many_digits(self.positions[i]) from None
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
                raise ParseError(f"{value!r} cannot be a variable name", self.positions[i])
            self.height = 0
            return Variable(value)
        if value == "(":
            self.descend(i)
            inner = self.term()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", self.positions[i])


def reference_parse(text: str, rule):
    """The tree that rule (``Parser.formula`` or ``Parser.term``) reads from the whole text."""
    parser = Parser(text)
    out = rule(parser)
    value = parser.tokens[parser.i]
    if value:
        raise ParseError(f"trailing input {value!r}", parser.positions[parser.i])
    return out
