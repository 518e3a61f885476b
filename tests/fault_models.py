"""Models with a deliberately broken kernel operation, on which the axiom suite reports FAIL.

Shared by the harness and CLI tests and by ``tools/behaviour.py``.
"""

from buchi2 import nonstandard
from buchi2.nonstandard import Element, NonstandardModel


class ConstantV2Model(NonstandardModel):
    """v2 deliberately broken: always 3."""

    def v2(self, x):
        return self.numeral(3)


class IdentityV2Model(NonstandardModel):
    """v2 deliberately broken: identity, so everything looks like a power of two."""

    def v2(self, x):
        return x


class CarrylessAddModel(NonstandardModel):
    """add deliberately broken: drops the base-point carry."""

    def add(self, x, y):
        return Element(x.galaxy + y.galaxy, x.offset + y.offset)


class OffByOneAddModel(NonstandardModel):
    """add deliberately broken: one too many when both denominators are divisible by 3."""

    def add(self, x, y):
        z = nonstandard.add(x, y)
        return nonstandard.add(z, nonstandard.ONE) if x.q % 3 == 0 and y.q % 3 == 0 else z


class OffByOneResidueModel(NonstandardModel):
    """residue_mod deliberately broken: one too many modulo 5 when 7 divides the denominator."""

    def residue_mod(self, x, n):
        return (nonstandard.residue_mod(x, n) + (n == 5 and x.q % 7 == 0)) % n
