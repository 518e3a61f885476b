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
and through ``Element.offset``.  ``t_residue`` caches t(q) only for q
below 2^16 (``T_BOUND``), so its cache is bounded in bytes; a larger q,
such as the L of a residue of a long sum, is computed on each call, and
the residue and division lines pick the cached or the exact form inline.

Kernel results are valid by construction and are built by the unchecked
``_element``; ``Element(galaxy, offset)`` is the checked constructor for
everything else.  The arithmetic of ``add``, ``sub``, ``divide``,
``compare``, ``residue_mod``, ``next_power_of_two_above``, ``v2`` and
``sample`` is written once, on (p, q, w) int triples (``TRIPLES``): the
Element functions unbox their arguments and box a result with
``_element``, and an error's message boxes and formats its operands only
when it is raised; ``natural`` boxes ``_natural`` in the same way.
The triple forms of ``add``, ``compare``, ``residue_mod``, ``v2`` and
``sample`` are built from ``Template``s, source over scalar operands that
a compiled case loop also writes inline.  ``keeps_kernel(model)`` says
whether a model keeps every kernel form.  If it does, a compiled case loop
computes on triples, passing its witnesses ``TRIPLE_VIEW``, a model whose
members are the triple forms; and the CLI evaluates a REPL or ``eval``
line on ``TRIPLE_VIEW``, boxing only the value it prints.

Every bad value raises a ValueError: a ParseError for malformed text,
NegativeResultError or NotDivisibleError (also ArithmeticErrors) where
``-`` or exact division has no result, a plain ValueError otherwise.  A
wrong type raises TypeError.

``Model`` is the base class of the three models the package serves: it
declares their members once and holds the sampling bounds.
``NonstandardModel`` makes the functions here a ``Model``.

Values here are immutable and the functions pure: they can be shared
across threads or processes.  A compiled case loop keeps state across
calls, so one thread at a time may run it (``compiled.compile_run``).
"""

from __future__ import annotations

import operator
import re
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from math import gcd
from operator import attrgetter
from types import SimpleNamespace
from collections.abc import Callable


class NegativeResultError(ArithmeticError, ValueError):
    """Subtraction would leave the model (no negative elements); a ValueError too."""


class NotDivisibleError(ArithmeticError, ValueError):
    """Exact division by a natural number has no witness in the model; a ValueError too."""


class ParseError(ValueError):
    """Malformed literal or formula text, with the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = 0 if position is None else position


def too_many_digits(position: int | None = None) -> ParseError:
    """The error for a numeral of more digits than int() reads from text.

    That limit is ``sys.get_int_max_str_digits()``, 4300 by default.
    """
    return ParseError(f"numeral exceeds the limit of {sys.get_int_max_str_digits()} digits", position)


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


# A module global reads about ten times faster than an Enum class attribute.
LESS, EQUAL, GREATER = Ordering


def t_exact(q: int) -> int:
    """t(q), computed on each call: ``t_residue`` without its cache.

    With q = 2^e * m and m odd, t = 2^e * k with k the inverse of 2^e
    modulo m.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    e = (q & -q).bit_length() - 1
    m = q >> e
    if m == 1:
        return 0
    return (1 << e) * pow(pow(2, e, m), -1, m)


# Bounded in bytes, by the key: residues look up t(q*n/gcd(p, n)), an
# unbounded set of keys, but only those below T_BOUND are cached, so the
# cache holds at most T_BOUND - 1 small ints and never evicts.  Larger keys
# are computed on each call.  The residue, division and draw lines pick
# t_cached or t_exact inline, with no call to t_residue.
T_BOUND = 1 << 16
t_cached = lru_cache(maxsize=None)(t_exact)


def t_residue(q: int) -> int:
    """Canonical residue of c modulo q, for q >= 1.

    Writing q = 2^e * m with m odd, this is the unique t in [0, q) with
    t == 0 (mod 2^e) and t == 1 (mod m), obtained by the Chinese Remainder
    Theorem.  In particular t(q) = 0 for powers of two and t(q) = 1 for
    odd q.  It is cached for q below ``T_BOUND`` (2^16) and computed on
    each call above; ``cache_info`` and ``cache_clear`` are the cache's, so
    they count only the lookups of keys below the bound.
    """
    return t_cached(q) if q < T_BOUND else t_exact(q)


t_residue.cache_info, t_residue.cache_clear = t_cached.cache_info, t_cached.cache_clear


def nu2(m: int) -> int:
    """2-adic valuation: the largest e with 2^e dividing the nonzero m."""
    if m == 0:
        raise ValueError("2-adic valuation is undefined at 0")
    m = abs(m)
    return (m & -m).bit_length() - 1


class _Frozen:
    """A frozen value: an element, pair, tree node, axiom spec, report or verdict.

    Its fields are the slots along the MRO, outermost first, but for private
    ``_name`` slots, listed as ``__match_args__``.  ``_values`` reads them as
    the tuple that ``==``, ``hash``, ``repr``, ``pickle`` and ``copy`` use, so
    unpickling runs the class's checked ``__init__``, which sets the fields
    through the slots' own setters or ``_fill``.  Setting or deleting an
    attribute raises ``FrozenInstanceError``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = tuple(n for base in reversed(cls.__mro__) for n in vars(base).get("__slots__", ()) if n[0] != "_")
        cls.__match_args__ = names
        if len(names) == 1:
            get = attrgetter(*names)
            cls._values = staticmethod(lambda value: (get(value),))
        elif names:
            cls._values = staticmethod(attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = []  # a loop, not a generator, so a deep tree costs no extra frame per level
        for name, value in zip(self.__match_args__, self._values(self)):
            fields.append(f"{name}={value!r}")
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # imported only to be raised
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def _fill(self, *values):  # the constructors off the hot paths set their class's slots in order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


@total_ordering
class Element(_Frozen):
    """A model element base(p/q) + offset, stored as (p*c + w)/q in the three ints p, q, w.

    ``Element(galaxy, offset)`` checks its arguments: ``galaxy`` is a
    non-negative Fraction or int (0 for standard numbers) and ``offset`` an
    int, which must be >= 0 in the standard galaxy; other types, bools
    included, raise TypeError.  The galaxy is kept as p/q in lowest terms
    with q >= 1, and ``galaxy`` gives it back as a Fraction;
    w = q*offset - p*t(q), so a standard element stores its value in w, and
    ``offset`` gives back (w + p*t(q)) / q.
    Kernel results that are valid by construction skip the checks through
    ``_element``.  Elements are ``_Frozen`` (``==`` and ``hash`` read the
    three ints; ``repr`` and pickle use galaxy and offset); ``<`` is the
    model order (galaxies as rationals, ties on w, which orders offsets).
    """

    __slots__ = ("p", "q", "w")

    def __init__(self, galaxy: Fraction | int, offset: int):
        if offset.__class__ is not int and (offset.__class__ is bool or not isinstance(offset, int)):
            raise TypeError(f"offset must be an int, got {offset!r}")
        if not isinstance(galaxy, Fraction):
            if galaxy.__class__ is bool or not isinstance(galaxy, int):
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

    def __reduce__(self):
        return Element, (self.galaxy, self.offset)

    def __repr__(self) -> str:
        return f"Element(galaxy={self.galaxy!r}, offset={self.offset!r})"

    def __str__(self) -> str:
        return format_element(self)

    def __lt__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        return compare_elements(self, other) is LESS

    def __add__(self, other: "Element") -> "Element":
        if other.__class__ is not Element:
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        if other.__class__ is not Element:
            return NotImplemented
        return sub(self, other)


# The slots' own setters; they bypass the frozen __setattr__.
_set_p, _set_q, _set_w = (getattr(Element, name).__set__ for name in Element.__slots__)
_new = object.__new__


class Template:
    """An operation declared once, as Python source over scalar operands.

    ``function``, named ``name``, takes ``operands``, comma-separated: three
    names, such as ``p1 q1 w1``, are a (p, q, w) triple that it unpacks
    (the parameter ``x``, ``y`` or ``z`` by position).  It runs
    ``prologue``, such as a sampler's reads of ``rng`` and the bounds of
    ``self``, then ``lines``, which leave the result in the locals named by
    ``results``, and returns ``returns``, by default those locals.  The
    source reads ``names`` as globals, and no builtins.

    ``inline(results, *operands)``: the lines with the results' and then the
    operands' names replaced, in order, by a case loop's own
    (``compiled.compile_run``).  So the lines hold no string literal, stay
    right when the results are the first operand's names (``s = s + b``;
    a residue, which is never an operand, may be assigned early),
    and use no other local that the loop uses: ``r``, ``i``, ``k``, ``e``,
    ``env``, ``corners``, ``_``, a letter and digits (``s<i>``, ``p<i>``,
    ``q<i>``, ``w<i>``, the globals), or a sampler prologue's locals.  A
    loop runs a sampler's prologue once per call and its lines per draw;
    ``_sample``'s lines only assign their result, which a loop writes as
    ``p<i>, q<i>, w<i>`` or ``s<i>``.
    """

    def __init__(self, name: str, operands: str, results: str, lines: str, prologue: str = "",
                 returns: str | None = None, **names):
        self.names = names
        groups = [group.split() for group in operands.split(",")]
        self.operands = [scalar for group in groups for scalar in group]
        self.results = results.split()
        self.prologue, self.lines = (text.strip("\n").split("\n") if text.strip() else [] for text in (prologue, lines))
        params = [group[0] if len(group) == 1 else "xyz"[k] for k, group in enumerate(groups)]
        unpack = [f"{', '.join(group)} = {param}" for param, group in zip(params, groups) if len(group) > 1]
        namespace = {"__builtins__": {}, "__name__": __name__, **names}
        exec("\n".join([f"def {name}({', '.join(params)}):",
                        *(" " + line for line in (*self.prologue, *unpack, *self.lines)),
                        f" return {returns or ', '.join(self.results)}"]), namespace)
        self.function = namespace[name]
        self.function.template = self

    @cached_property
    def _formats(self) -> list[str]:  # the lines with the results' and operands' names as format fields, in order
        fields = {scalar: f"{{{k}}}" for k, scalar in enumerate([*self.results, *self.operands])}
        return [re.sub(_NAME, lambda m: fields.get(m[0], m[0]), line.replace("{", "{{").replace("}", "}}"))
                for line in self.lines]

    def inline(self, results, *operands) -> list[str]:
        """The lines, on the given names of the results and the operands' scalars (by default their own)."""
        return [line.format(*results, *(operands or self.operands)) for line in self._formats]


_NAME = r"(?<![\w.])[^\W\d]\w*"  # a name that is not an attribute; compiled on first use


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
    """Embed a natural number as the standard element n; n is an int, not a bool."""
    return _element(*_natural(n))


def _natural(n: int) -> tuple:
    if n.__class__ is not int and (n.__class__ is bool or not isinstance(n, int)):
        raise TypeError(f"standard numbers are ints, got {n!r}")
    if n < 0:
        raise ValueError(f"standard numbers are non-negative, got offset {n}")
    return 0, 1, n


def add(x: Element, y: Element) -> Element:
    """Model addition: (p1*c + w1)/q1 + (p2*c + w2)/q2 as fractions."""
    return _element(*_add((x.p, x.q, x.w), (y.p, y.q, y.w)))


_add = Template("_add", "p1 q1 w1, p2 q2 w2", "p q w", """
if not p2:
 p, q, w = p1, q1, w1 + q1 * w2
elif not p1:
 p, q, w = p2, q2, w2 + q2 * w1
else:
 if q1 == q2:
  p, q, w = p1 + p2, q1, w1 + w2
 else:
  p, q, w = p1 * q2 + p2 * q1, q1 * q2, w1 * q2 + w2 * q1
 g = gcd(p, q)
 if g != 1: p, q, w = p // g, q // g, w // g
""", gcd=gcd).function


def sub(x: Element, y: Element) -> Element:
    """The unique z with y + z = x; raises NegativeResultError if x < y."""
    return _element(*_sub((x.p, x.q, x.w), (y.p, y.q, y.w)))


def _sub(x: tuple, y: tuple) -> tuple:
    p1, q1, w1 = x
    p2, q2, w2 = y
    a, b = p1 * q2, p2 * q1
    if a < b or a == b and w1 < w2:
        raise NegativeResultError(f"{format_element(_element(*x))} < {format_element(_element(*y))}")
    if a == b:
        return 0, 1, (w1 - w2) // q1
    if not p2:
        return p1, q1, w1 - q1 * w2
    p, q, w = a - b, q1 * q2, w1 * q2 - w2 * q1
    g = gcd(p, q)
    return p // g, q // g, w // g


def compare(x, y) -> Ordering:
    """The order of x and y as their type's ``<`` gives it.

    ``Model``'s default ``compare``; the non-standard model binds the
    kernel ``compare_elements`` instead, which gives the same answer on
    Elements.
    """
    if x == y:
        return EQUAL
    return LESS if x < y else GREATER


def remainder(x, n: int):
    """x mod n as its type's ``%`` gives it, for a modulus n >= 1.

    ``Model``'s default ``residue_mod``; the non-standard and pairs models
    bind their own.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return x % n


def compare_elements(x: Element, y: Element) -> Ordering:
    """The model order of two Elements: galaxies as rationals, then w."""
    return _compare((x.p, x.q, x.w), (y.p, y.q, y.w))


# x < y exactly when a < b, which a loop writes after these lines.
_compare = Template("_compare", "p1 q1 w1, p2 q2 w2", "a b", """
a, b = p1 * q2, p2 * q1
if a == b: a, b = w1, w2
""", returns="LESS if a < b else GREATER if a > b else EQUAL", EQUAL=EQUAL, LESS=LESS, GREATER=GREATER).function


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
    return _element(*_divide((x.p, x.q, x.w), n))


def _divide(x: tuple, n: int) -> tuple:
    if n < 1:
        raise ValueError(f"divisor must be positive, got {n}")
    p, q, w = x
    g = gcd(p, n)
    L = q * n // g
    if ((p * (t_cached(L) if L < T_BOUND else t_exact(L)) + w) // q if p else w) % n:
        raise NotDivisibleError(f"{format_element(_element(*x))} is not divisible by {n}")
    return p // g, L, w // g


def residue_mod(x: Element, n: int) -> int:
    """The unique j in [0, n) such that x - j is divisible by n."""
    return _residue_mod((x.p, x.q, x.w), n)


_residue_mod = Template("_residue_mod", "p q w, n", "j", """
if not p: j = w % n
else:
 j = q * n // gcd(p, n)
 j = (p * (t_cached(j) if j < T_BOUND else t_exact(j)) + w) // q % n
""", prologue='if n < 1: raise ValueError(f"modulus must be positive, got {n}")',
    ValueError=ValueError, gcd=gcd, t_cached=t_cached, t_exact=t_exact, T_BOUND=T_BOUND).function


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
    return _element(*_v2((x.p, x.q, x.w)))


_v2 = Template("_v2", "p1 q1 w1", "p q w", """
if w1 == 0 and p1: p, q, w = p1 & -p1, q1, 0
else: p, q, w = 0, 1, (w1 & -w1) // (q1 & -q1)
""").function


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
    return _element(*_next_power_of_two((x.p, x.q, x.w)))


def _next_power_of_two(x: tuple) -> tuple:
    p, q, w = x
    if not p:
        return 0, 1, 1 << w.bit_length()
    return 1 << (-(-p // q)).bit_length(), 1, 0


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


# Element literals: NAT | COEF "c" (sign NAT)?  with COEF = NAT ("/" NAT)?,
# or empty for 1, plus the sugar "c/NAT" for coefficients 1/n.  Whitespace
# is ignored.
_LITERAL_RE = re.compile(
    r"(?P<standard>\d+)"
    r"|(?:c/(?P<sugar>\d+)|(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?c)(?:(?P<sign>[+-])(?P<off>\d+))?"
)


def parse_element(text: str) -> Element:
    """Parse an element literal such as ``7``, ``c``, ``2c+5``, ``3/5c-2``, ``c/4+1``."""
    m = _LITERAL_RE.fullmatch("".join(text.split()))
    if m is None:
        raise ParseError(f"not an element literal: {text!r}")
    standard, sugar, num, den, sign, off = m.groups()
    try:
        if standard is not None:
            return _element(0, 1, int(standard))
        num, den = int(num or 1), int(sugar or den or 1)  # c/n has no num and no den
        offset = 0 if off is None else (int(off) if sign == "+" else -int(off))
    except ValueError:  # more digits than int() reads from text
        raise too_many_digits() from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    if num == 0:
        try:
            return natural(offset)
        except ValueError as exc:
            raise ParseError(f"literal denotes no model element: {text!r} ({exc})") from exc
    g = gcd(num, den)
    p, q = num // g, den // g
    return _element(p, q, q * offset - p * t_residue(q))


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


class Model:
    """One structure for the signature {0, 1, +, <, congruence mod n, V2}.

    The evaluator, the axiom harness and the CLI see every model through
    these members: ``NonstandardModel`` below, ``StandardModel`` and
    ``PairsModel`` subclass it and declare only what differs.  Operations
    are pure.  ``v2`` and ``next_power_of_two`` exist iff ``has_v2``.
    The harness and the evaluator take any object with these members; it
    need not subclass ``Model`` or be hashable.

    ``Model(den_bound, offset_bound)`` keeps the sampling bounds, which
    ``sample``, or a loop that draws inline, reads when it runs; each is an
    int >= 1 (not a bool), else TypeError or ValueError.  A model that
    draws no galaxies ignores ``den_bound``.

    The defaults ``add``, ``compare``, ``residue_mod`` and ``sample`` are
    Python's ``+``, ``==`` then ``<``, ``%`` and ``randrange`` on ints; a
    compiled case loop writes them inline (``compiled.compile_run``).
    ``sample`` is built from a ``Template``, and a loop writes the draw of
    any sampler so built inline, after the template's prologue; an override
    of ``sample`` is called once per draw.
    """

    name: str
    has_v2 = True
    corners: tuple  # tried first by every sampled check
    numeral: Callable  # (n) -> the standard element n
    add = staticmethod(operator.add)  # (x, y) -> x + y
    sub: Callable  # (x, y) -> the z with y + z = x; NegativeResultError if x < y
    divide: Callable  # (x, n) -> the y with n-fold y = x, else NotDivisibleError
    compare = staticmethod(compare)  # (x, y) -> Ordering
    residue_mod = staticmethod(remainder)  # (x, n) -> the j in [0, n) with x == j mod n
    v2: Callable  # (x) -> the largest power of two dividing x; v2(0) = 0
    next_power_of_two: Callable  # (x) -> a power of two strictly greater than x
    format: Callable  # (x) -> str
    parse: Callable  # (text) -> the element; the inverse of format, ParseError on bad text

    def __init__(self, den_bound: int = 1000, offset_bound: int = 10**6):
        for bound in (den_bound, offset_bound):
            if bound.__class__ is bool or not isinstance(bound, int):
                raise TypeError(f"sampling bounds must be ints, got {bound!r}")
        if den_bound < 1 or offset_bound < 1:
            raise ValueError("sampling bounds must be positive")
        self.den_bound = den_bound
        self.offset_bound = offset_bound

    # (rng) -> a random element; here the int rng.randrange(offset_bound + 1), as CPython draws it
    sample = Template(
        "sample", "self, rng", "x", "x = draw(bits)\nwhile x >= bound: x = draw(bits)",
        prologue="draw = rng.getrandbits\nbound = self.offset_bound + 1\nbits = bound.bit_length()",
    ).function

    def corner_elements(self) -> tuple:  # a method, so that a wrapping proxy can forward it
        return self.corners


class NonstandardModel(Model):
    """The constructed model."""

    name = "nonstd"
    corners = (
        ZERO, ONE, natural(2), natural(3), natural(8), natural(12),
        C, Element(2, 0), Element(4, 0), Element(Fraction(1, 2), 0),
        Element(Fraction(1, 4), 0), Element(Fraction(3, 2), 0), Element(3, 0),
        Element(Fraction(1, 3), 0), Element(Fraction(1, 3), 5), Element(Fraction(1, 3), -5),
        Element(Fraction(2, 3), 4), Element(Fraction(2, 5), 3), Element(Fraction(5, 6), -2),
        Element(1, -7),
    )
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

    def sample(self, rng) -> Element:
        return _element(*_sample(self, rng))


# The bounds of a draw of a standard number in [0, offset_bound], or of a
# galaxy num/den in [1, den_bound] with an offset in [-offset_bound,
# offset_bound]: the prologue of _sample and of pairs.PairsModel.sample.
GALAXY_PROLOGUE = """
draw, random, den_bound, offset_bound = rng.getrandbits, rng.random, self.den_bound, self.offset_bound
bound, offsets = offset_bound + 1, 2 * offset_bound + 1
bits, den_bits, offset_bits = bound.bit_length(), den_bound.bit_length(), offsets.bit_length()
"""

# The draws of rng.randrange and rng.randint, in the same order: a quarter
# standard, then a galaxy num/den, 15% hypernumbers (binary-rational
# multiples of c, where w = 0) and the rest with an offset in
# [-offset_bound, offset_bound].  The hypernumber's den is 2**randrange(11).
_sample = Template(
    "_sample", "self, rng", "x", prologue=GALAXY_PROLOGUE, lines="""
roll = random()
if roll < 0.25:
 offset = draw(bits)
 while offset >= bound: offset = draw(bits)
 x = 0, 1, offset
else:
 num = draw(den_bits)
 while num >= den_bound: num = draw(den_bits)
 num += 1
 if roll < 0.40:
  den = draw(4)
  while den >= 11: den = draw(4)
  den = 1 << den
  g = gcd(num, den)
  x = num // g, den // g, 0
 else:
  den = draw(den_bits)
  while den >= den_bound: den = draw(den_bits)
  den += 1
  offset = draw(offset_bits)
  while offset >= offsets: offset = draw(offset_bits)
  g = gcd(num, den)
  num, den = num // g, den // g
  x = num, den, den * (offset - offset_bound) - num * (t_cached(den) if den < T_BOUND else t_exact(den))
""",
    gcd=gcd, t_cached=t_cached, t_exact=t_exact, T_BOUND=T_BOUND,
).function


# Model member -> (the kernel's own form, its form on triples): a case loop
# whose model keeps every own form holds triples (compile_run).
# v2 is last, so a loop reads it only from a model that keeps the others.
TRIPLES = {
    "numeral": (natural, _natural), "add": (add, _add), "sub": (sub, _sub), "divide": (divide, _divide),
    "compare": (compare_elements, _compare), "residue_mod": (residue_mod, _residue_mod),
    "next_power_of_two": (next_power_of_two_above, _next_power_of_two), "sample": (NonstandardModel.sample, _sample),
    "v2": (v2, _v2),
}

# The model that a loop on triples passes to its witnesses and its constants,
# and that the CLI evaluates terms and formulas on: every member of TRIPLES
# but sample, in its form on triples.
TRIPLE_VIEW = SimpleNamespace(**{op: raw for op, (_, raw) in TRIPLES.items() if op != "sample"})


def keeps_kernel(model, read=()) -> bool:
    """Whether the model keeps every kernel form of ``TRIPLES``, so may compute on triples.

    Each member is read from the model itself, so one that a subclass
    overrides, that is assigned to the instance or that a proxy wraps is
    not the kernel's.  A bound method counts by its ``__func__``.  ``read``
    maps the name of a member that the caller has already read to its
    value, which is used rather than read again.  ``v2`` is read last, only
    from a model that keeps the others.
    """
    for op, (own, _) in TRIPLES.items():
        member = read[op] if op in read else getattr(model, op, None)
        if getattr(member, "__func__", member) is not own:
            return False
    return True
