"""The componentwise-pairs non-standard model of Presburger arithmetic.

Elements are pairs (g, n) with g a non-negative rational and n an integer
(n natural when g = 0); addition is componentwise.  The structure
satisfies all of Presburger arithmetic but admits no V2: every candidate
non-standard power of two is refuted by one of two finite computations,
and ``refute_power2_candidate`` produces the witnessing one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .nonstandard import (
    NegativeResultError,
    NotDivisibleError,
    ParseError,
    compare as p_compare,
)


@dataclass(frozen=True, order=True, slots=True)
class PairElement:
    """A pair (g, n); field order makes dataclass ordering lexicographic."""

    g: Fraction
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError(f"second coordinate must be an int, got {self.n!r}")
        if not isinstance(self.g, Fraction):
            if not isinstance(self.g, int):
                raise TypeError(f"first coordinate must be an int or a Fraction, got {self.g!r}")
            object.__setattr__(self, "g", Fraction(self.g))
        num = self.g.numerator
        if num < 0:
            raise ValueError(f"first coordinate must be non-negative, got {self.g}")
        if num == 0 and self.n < 0:
            raise ValueError(f"standard pairs are non-negative, got {self.n}")

    def __str__(self) -> str:
        return format_pair(self)


def p_add(x: PairElement, y: PairElement) -> PairElement:
    return PairElement(x.g + y.g, x.n + y.n)


def p_sub(x: PairElement, y: PairElement) -> PairElement:
    if x < y:
        raise NegativeResultError(f"{format_pair(x)} < {format_pair(y)}")
    return PairElement(x.g - y.g, x.n - y.n)


def p_scalar_mul(n: int, x: PairElement) -> PairElement:
    if n < 0:
        raise ValueError(f"scalar must be a natural number, got {n}")
    return PairElement(n * x.g, n * x.n)


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


@dataclass(frozen=True)
class FiniteTwoDivisibility:
    """The candidate halves only max_steps times before going odd.

    ``chain`` lists the successive exact halves, starting at the candidate
    and ending at a pair with odd integer coordinate.  A power of two that
    is non-standard would have to keep halving forever.
    """

    max_steps: int
    chain: tuple[PairElement, ...]


@dataclass(frozen=True)
class DivisibleByThree:
    """The candidate is three times ``quotient``; powers of two never are."""

    quotient: PairElement


Verdict = FiniteTwoDivisibility | DivisibleByThree


def refute_power2_candidate(x: PairElement) -> Verdict:
    """Why the non-standard pair x cannot be a non-standard power of two.

    If the integer coordinate is nonzero the pair is divisible by two only
    finitely often (the halving chain is returned); if it is zero the pair
    is exactly divisible by three (the quotient is returned).  Either way
    no consistent V2 value exists for x.
    """
    if x.g.numerator == 0:
        raise ValueError("standard pairs are not candidates")
    if x.n != 0:
        chain = [x]
        last = x
        while last.n % 2 == 0:
            last = PairElement(last.g / 2, last.n // 2)
            chain.append(last)
        return FiniteTwoDivisibility(max_steps=len(chain) - 1, chain=tuple(chain))
    return DivisibleByThree(quotient=PairElement(x.g / 3, 0))


def _is_multiple(k: int, whole: PairElement, part: PairElement) -> bool:
    # whole == k * part, by cross-multiplication to avoid Fraction churn
    return (
        whole.n == k * part.n
        and whole.g.numerator * part.g.denominator
        == k * part.g.numerator * whole.g.denominator
    )


def validate_verdict(x: PairElement, verdict: Verdict) -> bool:
    """Re-check a verdict's witness from scratch."""
    if isinstance(verdict, FiniteTwoDivisibility):
        chain = verdict.chain
        if len(chain) != verdict.max_steps + 1 or chain[0] != x:
            return False
        for whole, half in zip(chain, chain[1:]):
            if not _is_multiple(2, whole, half):
                return False
        return chain[-1].n % 2 != 0
    return verdict.quotient.n == 0 and _is_multiple(3, x, verdict.quotient)


_PAIR_RE = re.compile(r"^\((\d+(?:/\d+)?),(-?\d+)\)$")


def parse_pair(text: str) -> PairElement:
    """Parse a pair literal such as ``(5/7, 6)`` or ``(2, 0)``."""
    compact = "".join(text.split())
    m = _PAIR_RE.match(compact)
    if not m:
        raise ParseError(f"not a pair literal: {text!r}")
    raw_g = m.group(1)
    if "/" in raw_g:
        num, den = raw_g.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        g = Fraction(int(num), int(den))
    else:
        g = Fraction(int(raw_g))
    try:
        return PairElement(g, int(m.group(2)))
    except ValueError as exc:
        raise ParseError(f"literal denotes no pair element: {text!r} ({exc})") from exc


def format_pair(x: PairElement) -> str:
    return f"({x.g}, {x.n})"


_CORNERS = (
    PairElement(0, 0), PairElement(0, 1), PairElement(0, 2),
    PairElement(1, 0), PairElement(1, -3), PairElement(Fraction(1, 2), -3),
    PairElement(2, 5), PairElement(Fraction(1, 3), 7), PairElement(Fraction(5, 7), 6),
    PairElement(2, 0),
)


class PairsModel:
    """The pairs model as a Model; it has no V2."""

    name = "pairs"
    has_v2 = False
    numeral = staticmethod(partial(PairElement, Fraction(0)))
    add = staticmethod(p_add)
    sub = staticmethod(p_sub)
    divide = staticmethod(p_divide)
    compare = staticmethod(p_compare)
    residue_mod = staticmethod(p_residue_mod)
    format = staticmethod(format_pair)
    parse = staticmethod(parse_pair)

    def __init__(self, den_bound: int = 1000, offset_bound: int = 10**6):
        if den_bound < 1 or offset_bound < 1:
            raise ValueError("sampling bounds must be positive")
        self.den_bound = den_bound
        self.offset_bound = offset_bound

    def corner_elements(self) -> tuple[PairElement, ...]:
        return _CORNERS

    def sample(self, rng) -> PairElement:
        if rng.random() < 0.3:
            return PairElement(Fraction(0), rng.randrange(self.offset_bound + 1))
        num = rng.randrange(1, self.den_bound + 1)
        den = rng.randrange(1, self.den_bound + 1)
        return PairElement(Fraction(num, den), rng.randint(-self.offset_bound, self.offset_bound))
