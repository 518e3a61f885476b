"""The standard model (N; =, +, V2) on Python integers, used as an oracle.

Elements are plain non-negative ints; every operation is exact.  The class
at the bottom makes them a ``Model``, like the non-standard model, so the
two can be cross-checked case for case.
"""

from __future__ import annotations

import operator

from .nonstandard import (
    NegativeResultError,
    NotDivisibleError,
    ParseError,
    compare,
    natural,
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


class StandardModel:
    """(N; =, +, V2) as a Model."""

    name = "std"
    has_v2 = True
    add = staticmethod(operator.add)
    compare = staticmethod(compare)
    v2 = staticmethod(std_v2)
    format = staticmethod(str)

    def __init__(self, offset_bound: int = 10**6):
        if offset_bound < 1:
            raise ValueError("sampling bound must be positive")
        self.offset_bound = offset_bound

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

    def residue_mod(self, x: int, n: int) -> int:
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        return x % n

    def next_power_of_two(self, x: int) -> int:
        return 1 << x.bit_length()

    def corner_elements(self) -> tuple[int, ...]:
        return (0, 1, 2, 3, 4, 7, 8, 12, 15, 64, 96, 1024)

    def sample(self, rng) -> int:
        return rng.randrange(self.offset_bound + 1)

    def parse(self, text: str) -> int:
        text = text.strip()
        if not text.isdecimal():  # isdigit() also passes digits int() rejects, such as "²"
            raise ParseError(f"not a natural number literal: {text!r}")
        return int(text)
