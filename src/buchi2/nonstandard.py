"""Exact arithmetic in a countable non-standard model of Büchi arithmetic BA2.

The model extends the natural numbers by a single non-standard power of
two, written ``c``, chosen so that c is divisible by every standard power
of two and leaves remainder 1 modulo every odd standard number.  The
carrier consists of the standard naturals together with all elements of
the form

    base(p/q) + d        (p/q a positive rational in lowest terms, d an integer)

where ``base(p/q) = p * (c - t(q)) / q`` and ``t(q)`` is the canonical
residue of c modulo q.  Because c is congruent to t(q) modulo q, base(p/q)
is a genuine element; it serves as the canonical representative of the
galaxy "p/q times c".  Galaxies add and compare as rationals, offsets as
integers, so the order type is N + Z*Q and the monoid of galaxies is
isomorphic to the non-negative rationals.

Everything here is immutable and pure; values can be shared freely across
threads or processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Protocol


class NegativeResultError(ArithmeticError):
    """Subtraction would leave the model; there are no negative elements."""


class NotDivisibleError(ArithmeticError):
    """Exact division by a natural number has no witness in the model."""


class ParseError(ValueError):
    """Malformed literal or formula text, with the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = 0 if position is None else position


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Model(Protocol):
    """One structure for the signature {0, 1, +, <, congruence mod n, V2}.

    The evaluator, the axiom harness and the CLI see every model through
    this interface: ``NonstandardModel`` below, ``StandardModel`` and
    ``PairsModel``.  Operations are pure.  ``v2`` and ``next_power_of_two``
    exist iff ``has_v2``.
    """

    name: str
    has_v2: bool

    def numeral(self, n: int): ...
    def add(self, x, y): ...
    def sub(self, x, y): ...  # the z with y + z = x; NegativeResultError if x < y
    def divide(self, x, n: int): ...  # the y with n-fold y = x, else NotDivisibleError
    def compare(self, x, y) -> Ordering: ...
    def residue_mod(self, x, n: int) -> int: ...  # the j in [0, n) with x == j mod n
    def v2(self, x): ...  # the largest power of two dividing x; v2(0) = 0
    def next_power_of_two(self, x): ...  # a power of two strictly greater than x
    def corner_elements(self) -> tuple: ...  # tried first by every sampled check
    def sample(self, rng): ...  # a random element drawn from a random.Random
    def format(self, x) -> str: ...
    def parse(self, text: str): ...  # inverse of format; ParseError on bad text


@lru_cache(maxsize=None)
def t_residue(q: int) -> int:
    """Canonical residue of c modulo q, for q >= 1.

    Writing q = 2^e * m with m odd, this is the unique t in [0, q) with
    t == 0 (mod 2^e) and t == 1 (mod m), obtained by the Chinese Remainder
    Theorem.  In particular t(q) = 0 for powers of two and t(q) = 1 for
    odd q.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    e = (q & -q).bit_length() - 1
    m = q >> e
    if m == 1:
        return 0
    return (1 << e) * pow(pow(2, e, m), -1, m)


def nu2(m: int) -> int:
    """2-adic valuation: the largest e with 2^e dividing the nonzero m."""
    if m == 0:
        raise ValueError("2-adic valuation is undefined at 0")
    m = abs(m)
    return (m & -m).bit_length() - 1


@dataclass(frozen=True, order=True, slots=True)
class Element:
    """A model element base(galaxy) + offset.

    ``galaxy`` is a non-negative rational (0 for standard numbers), kept in
    lowest terms by Fraction; ``offset`` is an arbitrary integer, except
    that elements of the standard galaxy must have offset >= 0.  Field
    order deliberately makes dataclass ordering the model order: galaxies
    compare as rationals, ties break on offsets.
    """

    galaxy: Fraction
    offset: int

    def __post_init__(self):
        if not isinstance(self.galaxy, Fraction):
            object.__setattr__(self, "galaxy", Fraction(self.galaxy))
        num = self.galaxy.numerator
        if num < 0:
            raise ValueError(f"galaxy must be non-negative, got {self.galaxy}")
        if num == 0 and self.offset < 0:
            raise ValueError(f"standard numbers are non-negative, got offset {self.offset}")

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __str__(self) -> str:
        return format_element(self)


ZERO = Element(Fraction(0), 0)
ONE = Element(Fraction(0), 1)
C = Element(Fraction(1), 0)


def natural(n: int) -> Element:
    """Embed a natural number as the standard element n."""
    return Element(Fraction(0), n)


def _t_part(r: Fraction) -> Fraction:
    # The standard correction in base(r) = r*c - _t_part(r); equals p*t(q)/q.
    return Fraction(r.numerator * t_residue(r.denominator), r.denominator)


def _exact_int(f: Fraction) -> int:
    # Carries between canonical base points are integers whenever t_residue
    # is CRT-coherent; a non-integer here is an internal bug, not bad input.
    if f.denominator != 1:
        raise AssertionError(f"base-point carry is not an integer: {f}")
    return f.numerator


def _carry(r1: Fraction, r2: Fraction) -> int:
    # base(r1) + base(r2) - base(r1 + r2), evaluated without touching c:
    # the c-terms cancel, leaving a difference of t-parts.
    return _exact_int(_t_part(r1 + r2) - _t_part(r1) - _t_part(r2))


def _split_carry(r: Fraction, n: int) -> int:
    # base(r) - n * base(r/n); the integer absorbed when cutting r into n parts.
    return _exact_int(n * _t_part(r / n) - _t_part(r))


def add(x: Element, y: Element) -> Element:
    """Model addition: galaxies add as rationals, offsets carry-correct."""
    return Element(x.galaxy + y.galaxy, x.offset + y.offset + _carry(x.galaxy, y.galaxy))


def sub(x: Element, y: Element) -> Element:
    """The unique z with y + z = x; raises NegativeResultError if x < y."""
    if x < y:
        raise NegativeResultError(f"{format_element(x)} < {format_element(y)}")
    g = x.galaxy - y.galaxy
    return Element(g, x.offset - y.offset - _carry(y.galaxy, g))


def compare(x, y) -> Ordering:
    """The order of x and y as their type's ``<`` gives it.

    For Elements that is the model order: galaxies as rationals, then
    offsets as integers.  Every model binds this one function.
    """
    if x == y:
        return Ordering.EQUAL
    return Ordering.LESS if x < y else Ordering.GREATER


def scalar_mul(n: int, x: Element) -> Element:
    """n-fold sum of x with itself; scalar_mul(0, x) is 0."""
    if n < 0:
        raise ValueError(f"scalar must be a natural number, got {n}")
    g = n * x.galaxy
    shift = _exact_int(_t_part(g) - n * _t_part(x.galaxy))
    return Element(g, n * x.offset + shift)


def divide(x: Element, n: int) -> Element:
    """The unique y with scalar_mul(n, y) = x, when it exists.

    Raises NotDivisibleError when no such element exists; positive n only.
    """
    if n < 1:
        raise ValueError(f"divisor must be positive, got {n}")
    num = x.offset + _split_carry(x.galaxy, n)
    if num % n:
        raise NotDivisibleError(f"{format_element(x)} is not divisible by {n}")
    return Element(x.galaxy / n, num // n)


def residue_mod(x: Element, n: int) -> int:
    """The unique j in [0, n) such that x - j is divisible by n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return (x.offset + _split_carry(x.galaxy, n)) % n


def v2(x: Element) -> Element:
    """The largest power of two dividing x, with v2(0) = 0.

    Writing x = (p*c + w)/q with w = q*offset - p*t(q), the valuation of x
    is the valuation of the numerator: if w = 0 the element is a
    binary-rational multiple of c and its v2 is the non-standard power
    2^(nu2(p) - nu2(q)) * c; otherwise v2 is the standard 2^(nu2(w) - nu2(q)).
    nu2(w) >= nu2(q) always, since t(q) carries the full 2-part of q.
    """
    p, q, d = x.galaxy.numerator, x.galaxy.denominator, x.offset
    if p == 0:
        return ZERO if d == 0 else Element(Fraction(0), 1 << nu2(d))
    w = q * d - p * t_residue(q)
    if w == 0:
        return Element(Fraction(2) ** (nu2(p) - nu2(q)), 0)
    return Element(Fraction(0), 1 << (nu2(w) - nu2(q)))


def is_standard(x: Element) -> bool:
    return x.galaxy == 0


def is_hypernumber(x: Element) -> bool:
    """True iff x is divisible by every standard power of two.

    These are exactly the binary-rational multiples of c: galaxy p/2^e
    with offset such that the standard part w vanishes.
    """
    p, q = x.galaxy.numerator, x.galaxy.denominator
    return p != 0 and q * x.offset == p * t_residue(q)


def is_power_of_two(x: Element) -> bool:
    return x != ZERO and v2(x) == x


def next_power_of_two_above(x: Element) -> Element:
    """A power of two strictly greater than x (the least such, for determinism).

    For standard x this is the least standard 2^m > offset; otherwise the
    hypernumber 2^k * c with the least k such that 2^k >= galaxy + 1, which
    lands in a strictly larger galaxy and so beats every offset.
    """
    if x.galaxy == 0:
        return Element(Fraction(0), 1 << x.offset.bit_length())
    top = x.galaxy + 1
    k = (-(-top.numerator // top.denominator) - 1).bit_length()
    return Element(Fraction(2) ** k, 0)


def density_witnesses(x: Element, y: Element) -> tuple[Element, Element, Element]:
    """Galaxy-level density and unboundedness witnesses for galaxy(x) < galaxy(y).

    Returns (below, mid, above) picked in galaxies galaxy(x)/2,
    (galaxy(x)+galaxy(y))/2 and 2*galaxy(y); the strict galaxy inequalities
    make below < x < mid < y < above regardless of offsets.
    """
    if is_standard(x) or is_standard(y):
        raise ValueError("density witnesses need non-standard endpoints")
    if not x.galaxy < y.galaxy:
        raise ValueError("need galaxy(x) < galaxy(y)")
    below = Element(x.galaxy / 2, 0)
    mid = Element((x.galaxy + y.galaxy) / 2, 0)
    above = Element(2 * y.galaxy, 0)
    return below, mid, above


def pow2_cycle_mod(n: int) -> list[int]:
    """Residues of 1, 2, 4, ... modulo odd n >= 3, up to the period.

    The period is the multiplicative order of 2 modulo n and divides
    Euler's totient of n.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd modulus >= 3, got {n}")
    cycle = [1]
    r = 2 % n
    while r != 1:
        cycle.append(r)
        r = 2 * r % n
    return cycle


# Element literals: INT | RAT_COEF "c" (sign NAT)?  with empty RAT_COEF = 1,
# plus the sugar "c/NAT" for coefficients 1/n.  Whitespace is ignored.
_STANDARD_RE = re.compile(r"^(\d+)$")
_COEF_RE = re.compile(r"^(?:(\d+)(?:/(\d+))?)?c(?:([+-])(\d+))?$")
_SUGAR_RE = re.compile(r"^c/(\d+)(?:([+-])(\d+))?$")


def parse_element(text: str) -> Element:
    """Parse an element literal such as ``7``, ``c``, ``2c+5``, ``3/5c-2``, ``c/4+1``."""
    compact = "".join(text.split())
    if m := _STANDARD_RE.match(compact):
        return Element(Fraction(0), int(m.group(1)))
    if m := _SUGAR_RE.match(compact):
        num, den = 1, int(m.group(1))
        sign, off = m.group(2), m.group(3)
    elif m := _COEF_RE.match(compact):
        num = int(m.group(1)) if m.group(1) is not None else 1
        den = int(m.group(2)) if m.group(2) is not None else 1
        sign, off = m.group(3), m.group(4)
    else:
        raise ParseError(f"not an element literal: {text!r}")
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    offset = 0 if off is None else (int(off) if sign == "+" else -int(off))
    try:
        return Element(Fraction(num, den), offset)
    except ValueError as exc:
        raise ParseError(f"literal denotes no model element: {text!r} ({exc})") from exc


def format_element(x: Element) -> str:
    """Canonical literal; inverse of parse_element on its own output."""
    if x.galaxy == 0:
        return str(x.offset)
    p, q = x.galaxy.numerator, x.galaxy.denominator
    if q == 1:
        coef = "c" if p == 1 else f"{p}c"
    else:
        coef = f"{p}/{q}c"
    if x.offset == 0:
        return coef
    return f"{coef}{'+' if x.offset > 0 else '-'}{abs(x.offset)}"


class NonstandardModel:
    """The constructed model as a Model."""

    name = "nonstd"
    has_v2 = True
    numeral = staticmethod(natural)
    add = staticmethod(add)
    sub = staticmethod(sub)
    divide = staticmethod(divide)
    compare = staticmethod(compare)
    residue_mod = staticmethod(residue_mod)
    v2 = staticmethod(v2)
    next_power_of_two = staticmethod(next_power_of_two_above)
    format = staticmethod(format_element)
    parse = staticmethod(parse_element)

    def __init__(self, den_bound: int = 1000, offset_bound: int = 10**6):
        if den_bound < 1 or offset_bound < 1:
            raise ValueError("sampling bounds must be positive")
        self.den_bound = den_bound
        self.offset_bound = offset_bound

    def corner_elements(self) -> tuple[Element, ...]:
        F = Fraction
        return (
            ZERO, ONE, natural(2), natural(3), natural(8), natural(12),
            C, Element(F(2), 0), Element(F(4), 0), Element(F(1, 2), 0),
            Element(F(1, 4), 0), Element(F(3, 2), 0), Element(F(3), 0),
            Element(F(1, 3), 0), Element(F(1, 3), 5), Element(F(1, 3), -5),
            Element(F(2, 3), 4), Element(F(2, 5), 3), Element(F(5, 6), -2),
            Element(F(1), -7),
        )

    def sample(self, rng) -> Element:
        roll = rng.random()
        if roll < 0.25:
            return Element(Fraction(0), rng.randrange(self.offset_bound + 1))
        if roll < 0.40:
            # hypernumbers: binary-rational multiples of c
            num = rng.randrange(1, self.den_bound + 1)
            return Element(Fraction(num, 1 << rng.randrange(11)), 0)
        num = rng.randrange(1, self.den_bound + 1)
        den = rng.randrange(1, self.den_bound + 1)
        return Element(Fraction(num, den), rng.randint(-self.offset_bound, self.offset_bound))
