"""The componentwise-pairs non-standard model of Presburger arithmetic.

Elements are pairs (g, n) with g a non-negative rational and n an integer
(n natural when g = 0); addition is componentwise.  The structure
satisfies all of Presburger arithmetic but admits no V2: every candidate
non-standard power of two is refuted by one of two finite computations,
and ``refute_power2_candidate`` produces the witnessing one.
``PairsModel`` serves the pairs as a ``Model`` with ``has_v2`` false.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, total_ordering

from .nonstandard import (
    GALAXY_PROLOGUE,
    Model,
    NegativeResultError,
    NotDivisibleError,
    ParseError,
    Template,
    _Frozen,
    compare as p_compare,
    too_many_digits,
)


@total_ordering
class PairElement(_Frozen):
    """A pair (g, n), ``_Frozen``, with g kept as a Fraction; ``<`` is lexicographic."""

    __slots__ = ("g", "n")

    def __init__(self, g: Fraction | int, n: int):
        if n.__class__ is not int and (n.__class__ is bool or not isinstance(n, int)):
            raise TypeError(f"second coordinate must be an int, got {n!r}")
        if g.__class__ is not Fraction and not isinstance(g, Fraction):
            if g.__class__ is bool or not isinstance(g, int):
                raise TypeError(f"first coordinate must be an int or a Fraction, got {g!r}")
            g = Fraction(g)
        if g.numerator <= 0:
            if g.numerator < 0:
                raise ValueError(f"first coordinate must be non-negative, got {g}")
            if n < 0:
                raise ValueError(f"standard pairs are non-negative, got {n}")
        _set_g(self, g)
        _set_n(self, n)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.g, self.n) < (other.g, other.n)

    def __str__(self) -> str:
        return format_pair(self)


# The slots' own setters; they bypass the frozen __setattr__.
_set_g, _set_n = PairElement.__dict__["g"].__set__, PairElement.__dict__["n"].__set__


def p_add(x: PairElement, y: PairElement) -> PairElement:
    return PairElement(x.g + y.g, x.n + y.n)


def p_sub(x: PairElement, y: PairElement) -> PairElement:
    if x < y:
        raise NegativeResultError(f"{format_pair(x)} < {format_pair(y)}")
    return PairElement(x.g - y.g, x.n - y.n)


def p_divide(x: PairElement, n: int) -> PairElement:
    """The unique y with n*y = x; exists iff n divides the integer coordinate."""
    if n < 1:
        raise ValueError(f"divisor must be positive, got {n}")
    if x.n % n:
        raise NotDivisibleError(f"{format_pair(x)} is not divisible by {n}")
    return PairElement(x.g / n, x.n // n)


def p_residue_mod(x: PairElement, n: int) -> int:
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return x.n % n


class FiniteTwoDivisibility(_Frozen):
    """The candidate halves only max_steps times before going odd.

    ``chain`` lists the successive exact halves, starting at the candidate
    and ending at a pair with odd integer coordinate.  A power of two that
    is non-standard would have to keep halving forever.
    """

    __slots__ = ("max_steps", "chain")

    def __init__(self, max_steps: int, chain: tuple[PairElement, ...]):
        self._fill(max_steps, chain)


class DivisibleByThree(_Frozen):
    """The candidate is three times ``quotient``; powers of two never are."""

    __slots__ = ("quotient",)

    def __init__(self, quotient: PairElement):
        self._fill(quotient)


Verdict = FiniteTwoDivisibility | DivisibleByThree


def refute_power2_candidate(x: PairElement) -> Verdict:
    """Why the non-standard pair x cannot be a non-standard power of two.

    If the integer coordinate is nonzero the pair is divisible by two only
    finitely often (the halving chain is returned); if it is zero the pair
    is exactly divisible by three (the quotient is returned).  Either way
    no consistent V2 value exists for x.
    """
    if x.g.numerator == 0:
        raise ValueError(f"{format_pair(x)} is standard; not a candidate")
    n = x.n
    if n != 0:
        # g = a/b in lowest terms, so its half (a/2)/b or a/(2b) is too.
        a, b = x.g.numerator, x.g.denominator
        chain = [x]
        while n % 2 == 0:
            if a % 2 == 0:
                a //= 2
            else:
                b *= 2
            n //= 2
            chain.append(PairElement(Fraction(a, b), n))
        return FiniteTwoDivisibility(max_steps=len(chain) - 1, chain=tuple(chain))
    return DivisibleByThree(quotient=PairElement(x.g / 3, 0))


def _is_multiple(k: int, whole: PairElement, part: PairElement) -> bool:
    # whole == k * part, by cross-multiplication to avoid Fraction churn
    g, h = whole.g, part.g
    return whole.n == k * part.n and g.numerator * h.denominator == k * h.numerator * g.denominator


def validate_verdict(x: PairElement, verdict: Verdict) -> bool:
    """Re-check a verdict's witness from scratch."""
    if isinstance(verdict, FiniteTwoDivisibility):
        chain = verdict.chain
        if not chain or len(chain) != verdict.max_steps + 1 or chain[0] != x:
            return False
        for whole, half in zip(chain, chain[1:]):
            if not _is_multiple(2, whole, half):
                return False
        return chain[-1].n % 2 != 0
    return verdict.quotient.n == 0 and _is_multiple(3, x, verdict.quotient)


_PAIR_RE = re.compile(r"\((\d+)(?:/(\d+))?,(-?\d+)\)")


def parse_pair(text: str) -> PairElement:
    """Parse a pair literal such as ``(5/7, 6)`` or ``(2, 0)``."""
    m = _PAIR_RE.fullmatch("".join(text.split()))
    if not m:
        raise ParseError(f"not a pair literal: {text!r}")
    num, den, n = m.groups()
    try:
        num, den, n = int(num), int(den or 1), int(n)
    except ValueError:  # more digits than int() reads from text
        raise too_many_digits() from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return PairElement(Fraction(num, den), n)
    except ValueError as exc:
        raise ParseError(f"literal denotes no pair element: {text!r} ({exc})") from exc


def format_pair(x: PairElement) -> str:
    return f"({x.g}, {x.n})"


class PairsModel(Model):
    """The pairs model; it has no V2, and its draw is a template, which a case loop writes inline."""

    name = "pairs"
    has_v2 = False
    corners = (
        PairElement(0, 0), PairElement(0, 1), PairElement(0, 2),
        PairElement(1, 0), PairElement(1, -3), PairElement(Fraction(1, 2), -3),
        PairElement(2, 5), PairElement(Fraction(1, 3), 7), PairElement(Fraction(5, 7), 6),
        PairElement(2, 0),
    )
    numeral = staticmethod(partial(PairElement, Fraction(0)))
    add = staticmethod(p_add)
    sub = staticmethod(p_sub)
    divide = staticmethod(p_divide)
    residue_mod = staticmethod(p_residue_mod)
    format = staticmethod(format_pair)
    parse = staticmethod(parse_pair)

    # (rng) -> a random pair: the draws of rng.randrange and rng.randint, in the same order
    sample = Template(
        "sample", "self, rng", "x", prologue=GALAXY_PROLOGUE, lines="""
if random() < 0.3:
 offset = draw(bits)
 while offset >= bound: offset = draw(bits)
 x = PairElement(Fraction(0), offset)
else:
 num = draw(den_bits)
 while num >= den_bound: num = draw(den_bits)
 den = draw(den_bits)
 while den >= den_bound: den = draw(den_bits)
 offset = draw(offset_bits)
 while offset >= offsets: offset = draw(offset_bits)
 x = PairElement(Fraction(num + 1, den + 1), offset - offset_bound)
""",
        PairElement=PairElement, Fraction=Fraction,
    ).function
