"""Models with a deliberately broken V2, shared by the harness and CLI tests."""

from buchi2.nonstandard import NonstandardModel


class ConstantV2Model(NonstandardModel):
    """v2 deliberately broken: always 3."""

    def v2(self, x):
        return self.numeral(3)


class IdentityV2Model(NonstandardModel):
    """v2 deliberately broken: identity, so everything looks like a power of two."""

    def v2(self, x):
        return x
