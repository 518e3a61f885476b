"""Componentwise pairs model and the power-of-two refutation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from buchi2.nonstandard import NegativeResultError, NotDivisibleError, Ordering, ParseError
from buchi2.pairs import (
    DivisibleByThree,
    FiniteTwoDivisibility,
    PairElement,
    PairsModel,
    format_pair,
    p_add,
    p_compare,
    p_divide,
    p_residue_mod,
    p_scalar_mul,
    p_sub,
    parse_pair,
    refute_power2_candidate,
    validate_verdict,
)


def pe(num, den=1, n=0):
    return PairElement(F(num, den), n)


@st.composite
def pair_elements(draw):
    g = draw(st.fractions(min_value=0, max_value=50, max_denominator=50))
    n = draw(st.integers(min_value=-(10**4), max_value=10**4))
    return PairElement(g, abs(n) if g == 0 else n)


def test_carrier():
    with pytest.raises(ValueError):
        PairElement(F(0), -1)
    with pytest.raises(ValueError):
        PairElement(F(-1, 2), 0)
    for g, n in [(F(1, 3), 1.5), (0.5, 1), ("1/2", 0)]:
        with pytest.raises(TypeError):
            PairElement(g, n)
    assert pe(1, 2, -3).n == -3


def test_add_examples():
    assert p_add(pe(0, 1, 3), pe(0, 1, 4)) == pe(0, 1, 7)
    assert p_add(pe(1, 2, -3), pe(1, 2, 3)) == pe(1, 1, 0)
    assert p_add(pe(2, 1, 5), pe(0, 1, 1)) == pe(2, 1, 6)


def test_compare_examples():
    assert p_compare(pe(0, 1, 10**6), pe(1, 100, -(10**6))) is Ordering.LESS
    assert p_compare(pe(1, 1, 2), pe(1, 1, 2)) is Ordering.EQUAL
    assert p_compare(pe(3, 1, -1), pe(2, 1, 9)) is Ordering.GREATER


@given(pair_elements(), pair_elements())
def test_add_commutes_and_sub_inverts(x, y):
    assert p_add(x, y) == p_add(y, x)
    lo, hi = (x, y) if x < y else (y, x)
    assert p_add(p_sub(hi, lo), lo) == hi
    if x != y:
        with pytest.raises(NegativeResultError):
            p_sub(lo, hi)


@given(pair_elements(), st.integers(min_value=1, max_value=12))
def test_divide_and_residue(x, n):
    r = p_residue_mod(x, n)
    assert 0 <= r < n
    if r == 0:
        assert p_scalar_mul(n, p_divide(x, n)) == x
    else:
        with pytest.raises(NotDivisibleError):
            p_divide(x, n)


def test_refutation_examples():
    v = refute_power2_candidate(pe(5, 7, 6))
    assert isinstance(v, FiniteTwoDivisibility)
    assert v.max_steps == 1
    assert v.chain == (pe(5, 7, 6), pe(5, 14, 3))

    v = refute_power2_candidate(pe(2, 1, 0))
    assert isinstance(v, DivisibleByThree)
    assert v.quotient == pe(2, 3, 0)

    v = refute_power2_candidate(pe(1, 3, 1))
    assert isinstance(v, FiniteTwoDivisibility)
    assert v.max_steps == 0

    with pytest.raises(ValueError):
        refute_power2_candidate(pe(0, 1, 4))


@given(pair_elements())
def test_refutation_verdicts_validate(x):
    if x.g == 0:
        return
    assert validate_verdict(x, refute_power2_candidate(x))


def test_validate_rejects_wrong_witnesses():
    x = pe(5, 7, 6)
    good = refute_power2_candidate(x)
    assert not validate_verdict(pe(5, 7, 4), good)
    assert not validate_verdict(x, FiniteTwoDivisibility(0, (x,)))
    assert not validate_verdict(x, DivisibleByThree(pe(5, 21, 2)))
    y = pe(2, 1, 0)
    assert not validate_verdict(y, DivisibleByThree(pe(1, 3, 0)))


def test_pair_literals():
    assert parse_pair("(5/7, 6)") == pe(5, 7, 6)
    assert parse_pair("(2,0)") == pe(2, 1, 0)
    assert parse_pair("( 1/2 , -3 )") == pe(1, 2, -3)
    assert format_pair(pe(5, 7, 6)) == "(5/7, 6)"
    assert format_pair(pe(2, 1, 0)) == "(2, 0)"
    for bad in ("", "5/7,6", "(5/7 6)", "(1/0, 2)", "(-1, 2)", "(0, -2)", "c+1"):
        with pytest.raises(ParseError):
            parse_pair(bad)


@given(pair_elements())
def test_pair_literal_round_trip(x):
    assert parse_pair(format_pair(x)) == x


def test_model_adapter_has_no_v2():
    model = PairsModel()
    assert not model.has_v2
    assert not hasattr(model, "v2")
    assert model.residue_mod(pe(5, 7, 6), 4) == 2
