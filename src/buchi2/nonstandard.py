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

Every element is also a fraction with c as its indeterminate:

    base(p/q) + d = (p*c + w) / q,    w = q*d - p*t(q),

and an ``Element`` stores the three ints p, q and w, under the invariant
that q divides w + p*t(q).  In this numerator form ``+``, ``-`` and ``<``
are plain fraction arithmetic, with no carries between base points: a sum
cross-multiplies the numerators and divides p, q and w by g = gcd(p, q),
and g divides w because it divides q and p*t(q).  The invariant survives
the reduction because t is CRT-coherent: t(q) == t(q/g) (mod q/g).

t(q) is needed only where the model meets the standard numbers.  Modulo n,
with L = q*n/gcd(p, n), the element is the integer (p*t(L) + w)/q plus
n times the element (p/gcd(p, n) * (c - t(L)))/L, so its residue is that
integer's.  It is divisible by n exactly when n divides that integer, and
then the quotient is (p/gcd(p, n) * c + w/gcd(p, n))/L.  The offset
d = (w + p*t(q))/q is computed only where it is read: to print, to pickle
and through ``Element.offset``.

Kernel results are valid by construction and are built by the unchecked
``_element``; ``Element(galaxy, offset)`` is the checked constructor for
everything else.

Everything here is immutable and pure; values can be shared freely across
threads or processes.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd
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


# Bounded: residues look up t(q*n/gcd(p, n)), an unbounded set of keys.
@lru_cache(maxsize=1 << 16)
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


@total_ordering
class Element:
    """A model element base(p/q) + offset, stored as (p*c + w)/q in the three ints p, q, w.

    ``Element(galaxy, offset)`` checks its arguments: ``galaxy`` is a
    non-negative Fraction or int (0 for standard numbers) and ``offset`` an
    int, which must be >= 0 in the standard galaxy; other types raise
    TypeError.  The galaxy is kept as p/q in lowest terms with q >= 1, and
    ``galaxy`` gives it back as a Fraction; w = q*offset - p*t(q), so a
    standard element stores its value in w, and ``offset`` gives back
    (w + p*t(q)) / q.
    Kernel results that are valid by construction skip the checks through
    ``_element``.  Elements are immutable; ``<`` is the model order
    (galaxies as rationals, ties broken on w, which orders the offsets
    within a galaxy), and ``==`` compares the three ints.
    """

    __slots__ = ("p", "q", "w")

    def __init__(self, galaxy: Fraction | int, offset: int):
        if not isinstance(offset, int):
            raise TypeError(f"offset must be an int, got {offset!r}")
        if not isinstance(galaxy, Fraction):
            if not isinstance(galaxy, int):
                raise TypeError(f"galaxy must be an int or a Fraction, got {galaxy!r}")
            galaxy = Fraction(galaxy)
        p, q = galaxy.numerator, galaxy.denominator
        if p < 0:
            raise ValueError(f"galaxy must be non-negative, got {galaxy}")
        if p == 0 and offset < 0:
            raise ValueError(f"standard numbers are non-negative, got offset {offset}")
        _set_p(self, p)
        _set_q(self, q)
        _set_w(self, q * offset - p * t_residue(q) if p else offset)

    @property
    def galaxy(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def offset(self) -> int:
        p, q = self.p, self.q
        return (self.w + p * t_residue(q)) // q if p else self.w

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Element, (self.galaxy, self.offset)

    def __repr__(self) -> str:
        return f"Element(galaxy={self.galaxy!r}, offset={self.offset!r})"

    def __str__(self) -> str:
        return format_element(self)

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.w))

    def __eq__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.w == other.w

    def __lt__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        a, b = self.p * other.q, other.p * self.q
        return a < b or a == b and self.w < other.w

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)


# The slots' own setters; they bypass Element.__setattr__.
_set_p, _set_q, _set_w = (getattr(Element, name).__set__ for name in Element.__slots__)
_new = object.__new__


def _element(p: int, q: int, w: int) -> Element:
    # The trusted constructor: the caller guarantees q >= 1, gcd(p, q) = 1,
    # p >= 0, q dividing w + p*t(q), and w >= 0 if p = 0.
    x = _new(Element)
    _set_p(x, p)
    _set_q(x, q)
    _set_w(x, w)
    return x


ZERO = _element(0, 1, 0)
ONE = _element(0, 1, 1)
C = _element(1, 1, 0)


def natural(n: int) -> Element:
    """Embed a natural number as the standard element n."""
    if n < 0:
        raise ValueError(f"standard numbers are non-negative, got offset {n}")
    return _element(0, 1, n)


def add(x: Element, y: Element) -> Element:
    """Model addition: (p1*c + w1)/q1 + (p2*c + w2)/q2 as fractions."""
    p1, q1, p2, q2 = x.p, x.q, y.p, y.q
    if not p2:
        return _element(p1, q1, x.w + q1 * y.w)
    if not p1:
        return _element(p2, q2, y.w + q2 * x.w)
    if q1 == q2:
        p, q, w = p1 + p2, q1, x.w + y.w
    else:
        p, q, w = p1 * q2 + p2 * q1, q1 * q2, x.w * q2 + y.w * q1
    g = gcd(p, q)
    return _element(p // g, q // g, w // g)


def sub(x: Element, y: Element) -> Element:
    """The unique z with y + z = x; raises NegativeResultError if x < y."""
    p1, q1, p2, q2 = x.p, x.q, y.p, y.q
    a, b = p1 * q2, p2 * q1
    if a < b or a == b and x.w < y.w:
        raise NegativeResultError(f"{format_element(x)} < {format_element(y)}")
    if a == b:
        return _element(0, 1, (x.w - y.w) // q1)
    if not p2:
        return _element(p1, q1, x.w - q1 * y.w)
    p, q, w = a - b, q1 * q2, x.w * q2 - y.w * q1
    g = gcd(p, q)
    return _element(p // g, q // g, w // g)


def compare(x, y) -> Ordering:
    """The order of x and y as their type's ``<`` gives it.

    The standard and pairs models bind this function; the non-standard
    model binds the kernel ``compare_elements``, which gives the same
    answer on Elements.
    """
    if x == y:
        return Ordering.EQUAL
    return Ordering.LESS if x < y else Ordering.GREATER


def compare_elements(x: Element, y: Element) -> Ordering:
    """The model order of two Elements: galaxies as rationals, then w."""
    a, b = x.p * y.q, y.p * x.q
    if a == b:
        a, b = x.w, y.w
        if a == b:
            return Ordering.EQUAL
    return Ordering.LESS if a < b else Ordering.GREATER


def scalar_mul(n: int, x: Element) -> Element:
    """n-fold sum of x with itself; scalar_mul(0, x) is 0."""
    if n < 0:
        raise ValueError(f"scalar must be a natural number, got {n}")
    p, q = n * x.p, x.q
    g = gcd(p, q)
    return _element(p // g, q // g, n * x.w // g)


def divide(x: Element, n: int) -> Element:
    """The unique y with scalar_mul(n, y) = x, when it exists.

    Raises NotDivisibleError when no such element exists; positive n only.
    """
    if n < 1:
        raise ValueError(f"divisor must be positive, got {n}")
    p, q, w = x.p, x.q, x.w
    g = gcd(p, n)
    L = q * n // g
    if ((p * t_residue(L) + w) // q if p else w) % n:
        raise NotDivisibleError(f"{format_element(x)} is not divisible by {n}")
    return _element(p // g, L, w // g)


def residue_mod(x: Element, n: int) -> int:
    """The unique j in [0, n) such that x - j is divisible by n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    p = x.p
    if not p:
        return x.w % n
    q = x.q
    return (p * t_residue(q * n // gcd(p, n)) + x.w) // q % n


def v2(x: Element) -> Element:
    """The largest power of two dividing x, with v2(0) = 0.

    With x = (p*c + w)/q, the valuation of x is the valuation of the
    numerator: if w = 0 the element is a binary-rational multiple of c and
    its v2 is the non-standard power 2^(nu2(p) - nu2(q)) * c; otherwise v2
    is the standard 2^(nu2(w) - nu2(q)).  nu2(w) >= nu2(q) always, since
    t(q) carries the full 2-part of q.  If w = 0, q is a power of two
    (t(q) is 1 modulo q's odd part, which would divide p), so with
    ``m & -m`` = 2^nu2(m) that galaxy is (p & -p)/q.
    """
    p, q, w = x.p, x.q, x.w
    if w == 0 and p:
        return _element(p & -p, q, 0)
    return _element(0, 1, (w & -w) // (q & -q))


def is_standard(x: Element) -> bool:
    return x.p == 0


def is_hypernumber(x: Element) -> bool:
    """True iff x is divisible by every standard power of two.

    These are exactly the binary-rational multiples of c, the elements
    with w = 0: galaxy p/2^e and offset 0, as t(2^e) = 0.
    """
    return x.p != 0 and x.w == 0


def is_power_of_two(x: Element) -> bool:
    return x != ZERO and v2(x) == x


def next_power_of_two_above(x: Element) -> Element:
    """A power of two strictly greater than x, chosen deterministically.

    For standard x this is the least one, the standard 2^m > offset with
    the least m.  Otherwise it is the hypernumber 2^k * c with the least
    integer k such that 2^k >= galaxy + 1, that is 2^k > ceil(galaxy): it
    lies in a strictly larger galaxy, so it beats every offset.  That need
    not be the least power of two above x: c - 7 gives 2c, though c is
    above it, and c/3 and c/2 - 1 give 2c, though c/2 is above them.
    """
    if x.p == 0:
        return _element(0, 1, 1 << x.w.bit_length())
    return _element(1 << (-(-x.p // x.q)).bit_length(), 1, 0)


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
    p, q = x.p, x.q
    if p == 0:
        return str(x.w)
    if q == 1:
        coef = "c" if p == 1 else f"{p}c"
    else:
        coef = f"{p}/{q}c"
    d = x.offset
    if d == 0:
        return coef
    return f"{coef}{'+' if d > 0 else '-'}{abs(d)}"


_CORNERS = (
    ZERO, ONE, natural(2), natural(3), natural(8), natural(12),
    C, Element(2, 0), Element(4, 0), Element(Fraction(1, 2), 0),
    Element(Fraction(1, 4), 0), Element(Fraction(3, 2), 0), Element(3, 0),
    Element(Fraction(1, 3), 0), Element(Fraction(1, 3), 5), Element(Fraction(1, 3), -5),
    Element(Fraction(2, 3), 4), Element(Fraction(2, 5), 3), Element(Fraction(5, 6), -2),
    Element(1, -7),
)


def _below(getrandbits, n: int) -> int:
    # rng.randrange(n) for n >= 1, drawn as CPython's Random draws it.
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class NonstandardModel:
    """The constructed model as a Model."""

    name = "nonstd"
    has_v2 = True
    numeral = staticmethod(natural)
    add = staticmethod(add)
    sub = staticmethod(sub)
    divide = staticmethod(divide)
    compare = staticmethod(compare_elements)
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
        return _CORNERS

    def sample(self, rng) -> Element:
        # The draws of rng.randrange and rng.randint, in the same order.
        bits = rng.getrandbits
        roll = rng.random()
        if roll < 0.25:
            return _element(0, 1, _below(bits, self.offset_bound + 1))
        den_bound = self.den_bound
        num = 1 + _below(bits, den_bound)
        if roll < 0.40:
            # hypernumbers: binary-rational multiples of c, where w = 0
            den = 1 << _below(bits, 11)
            g = gcd(num, den)
            return _element(num // g, den // g, 0)
        den = 1 + _below(bits, den_bound)
        offset_bound = self.offset_bound
        offset = _below(bits, 2 * offset_bound + 1) - offset_bound
        g = gcd(num, den)
        p, q = num // g, den // g
        return _element(p, q, q * offset - p * t_residue(q))
