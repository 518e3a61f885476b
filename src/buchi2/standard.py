"""The standard model (N; =, +, V2) on Python integers, used as an oracle.

Elements are plain non-negative ints; every operation is exact.  The
``Model`` subclass at the bottom serves them like the non-standard model,
so the two can be cross-checked case for case.  It keeps ``Model``'s
``add``, ``compare``, ``residue_mod`` and ``sample``, which a compiled
case loop writes inline (``compiled.compile_run``): ``sample`` is built
from a ``Template``, whose prologue and draw lines the loop writes.
"""

from __future__ import annotations

from .nonstandard import (
    Model,
    NegativeResultError,
    NotDivisibleError,
    ParseError,
    natural,
    too_many_digits,
)


def std_v2(x: int) -> int:
    """Largest power of two dividing x, with std_v2(0) = 0.

    ``x & -x`` isolates the lowest set bit, i.e. 2 to the number of
    trailing zeros of the binary representation.
    """
    if x < 0:
        raise ValueError(f"natural number expected, got {x}")
    return x & -x


embed = natural  # the standard element x of the non-standard model


class StandardModel(Model):
    """(N; =, +, V2); it draws no galaxies, so it ignores ``den_bound``."""

    name = "std"
    corners = (0, 1, 2, 3, 4, 7, 8, 12, 15, 64, 96, 1024)
    v2 = staticmethod(std_v2)
    format = staticmethod(str)

    def numeral(self, n: int) -> int:
        return n

    def sub(self, x: int, y: int) -> int:
        if x < y:
            raise NegativeResultError(f"{x} < {y}")
        return x - y

    def divide(self, x: int, n: int) -> int:
        if n < 1:
            raise ValueError(f"divisor must be positive, got {n}")
        if x % n:
            raise NotDivisibleError(f"{x} is not divisible by {n}")
        return x // n

    def next_power_of_two(self, x: int) -> int:
        return 1 << x.bit_length()

    def parse(self, text: str) -> int:
        text = text.strip()
        if not text.isdecimal():  # isdigit() also passes digits int() rejects, such as "²"
            raise ParseError(f"not a natural number literal: {text!r}")
        try:
            return int(text)
        except ValueError:  # more digits than int() reads from text
            raise too_many_digits() from None
