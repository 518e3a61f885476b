"""The standard model (N; =, +, V2) on Python integers, used as an oracle.

Elements are plain non-negative ints; every operation is exact.  The
``Model`` subclass at the bottom serves them like the non-standard model,
so the two can be cross-checked case for case.  It binds ``operator.add``
and keeps ``Model``'s generic ``compare`` and ``remainder``, so a compiled
check writes ``+``, ``==``, ``<`` and ``%`` in place of those calls on the
slots that read a variable; its constants call them (``compiled.compile_run``).
"""

from __future__ import annotations

import operator

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
    add = staticmethod(operator.add)
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

    def sample(self, rng) -> int:
        # The draws of rng.randrange(self.offset_bound + 1), inlined.  The
        # case loops of compiled.compile_run write these same draws.
        n = self.offset_bound + 1
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return r

    def parse(self, text: str) -> int:
        text = text.strip()
        if not text.isdecimal():  # isdigit() also passes digits int() rejects, such as "²"
            raise ParseError(f"not a natural number literal: {text!r}")
        try:
            return int(text)
        except ValueError:  # more digits than int() reads from text
            raise too_many_digits() from None
