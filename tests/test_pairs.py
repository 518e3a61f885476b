"""Componentwise pairs model and the power-of-two refutation."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from buchi2.axioms import AxiomSpec, Report
from buchi2.nonstandard import Element, NegativeResultError, NotDivisibleError, Ordering, ParseError
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
    for g, n in [(F(1, 3), 1.5), (0.5, 1), ("1/2", 0), (0, True), (True, 0)]:
        with pytest.raises(TypeError):
            PairElement(g, n)
    assert pe(1, 2, -3).n == -3
    with pytest.raises(TypeError):
        pe(1, 2, 3) < 1


# The other values on the same frozen base: axiom specs, reports and the verdicts.
REPORT = Report("A16", "FAIL", 4, 0, counterexample=(("x", "3"), ("y", "8")), error="3 is not divisible by 2")
SPEC = AxiomSpec(id="E", text="forall x. x = x", sampled=("x",), obligations=())
HALVES = FiniteTwoDivisibility(max_steps=1, chain=(pe(1, 1, 2), pe(1, 2, 1)))
THIRD = DivisibleByThree(quotient=pe(1, 3, 0))


@pytest.mark.parametrize("x, name", [
    (Element(F(1, 3), 5), "p"), (Element(F(1, 3), 5), "foo"), (pe(1, 3, 5), "g"), (pe(1, 3, 5), "foo"),
    (REPORT, "status"), (REPORT, "foo"), (SPEC, "obligations"), (SPEC, "_compiled"),
    (HALVES, "chain"), (HALVES, "foo"), (THIRD, "quotient"), (THIRD, "foo"),
], ids=[
    "Element-field", "Element-other", "PairElement-field", "PairElement-other",
    "Report-field", "Report-other", "AxiomSpec-field", "AxiomSpec-cache",
    "FiniteTwoDivisibility-field", "FiniteTwoDivisibility-other", "DivisibleByThree-field", "DivisibleByThree-other",
])
def test_elements_are_frozen(x, name):
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$") as err:
        setattr(x, name, 1)
    assert err.type is FrozenInstanceError
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$") as err:
        delattr(x, name)
    assert err.type is FrozenInstanceError
    fields = {
        Element: ("p", "q", "w"), PairElement: ("g", "n"),
        Report: ("axiom_id", "status", "cases", "seed", "counterexample", "param", "error"),
        AxiomSpec: ("id", "text", "sampled", "obligations", "derived"),
        FiniteTwoDivisibility: ("max_steps", "chain"), DivisibleByThree: ("quotient",),
    }[type(x)]
    values = tuple(getattr(x, field) for field in fields)
    assert type(x).__match_args__ == fields
    assert not hasattr(x, "__dict__") and hash(x) == hash(values)
    match x:
        case Element(p, q, w):
            assert (p, q, w) == values
        case PairElement(g, n):
            assert (g, n) == values
        case Report(axiom_id, status, cases, seed, counterexample, param, error):
            assert (axiom_id, status, cases, seed, counterexample, param, error) == values
            assert repr(x) == (  # the form a frozen dataclass prints
                "Report(axiom_id='A16', status='FAIL', cases=4, seed=0, counterexample=(('x', '3'), ('y', '8')),"
                " param=None, error='3 is not divisible by 2')"
            )
        case AxiomSpec(axiom_id, text, sampled, obligations, derived):
            assert (axiom_id, text, sampled, obligations, derived) == values
        case FiniteTwoDivisibility(max_steps, chain):
            assert (max_steps, chain) == values
        case DivisibleByThree(quotient):
            assert (quotient,) == values
        case _:
            pytest.fail(f"no case matched {x!r}")


def test_pickle_and_copy():
    for x in PairsModel().corner_elements():
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x) and type(y.g) is F


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
        assert reduce(p_add, [p_divide(x, n)] * n) == x  # the n-fold sum
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

    with pytest.raises(ValueError, match=r"^\(0, 4\) is standard; not a candidate$"):
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
    assert not validate_verdict(x, FiniteTwoDivisibility(max_steps=-1, chain=()))
    assert not validate_verdict(x, DivisibleByThree(pe(5, 21, 2)))
    y = pe(2, 1, 0)
    assert not validate_verdict(y, DivisibleByThree(pe(1, 3, 0)))


def test_pair_literals():
    assert parse_pair("(5/7, 6)") == pe(5, 7, 6)
    assert parse_pair("(2,0)") == pe(2, 1, 0)
    assert parse_pair("( 1/2 , -3 )") == pe(1, 2, -3)
    assert format_pair(pe(5, 7, 6)) == "(5/7, 6)"
    assert format_pair(pe(2, 1, 0)) == "(2, 0)"
    for bad, message in (
        ("", "not a pair literal: ''"),
        ("5/7,6", "not a pair literal: '5/7,6'"),
        ("(5/7 6)", "not a pair literal: '(5/7 6)'"),
        ("(1/0, 2)", "zero denominator in '(1/0, 2)'"),
        ("(-1, 2)", "not a pair literal: '(-1, 2)'"),
        ("(0, -2)", "literal denotes no pair element: '(0, -2)' (standard pairs are non-negative, got -2)"),
        ("c+1", "not a pair literal: 'c+1'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_pair(bad)
        assert str(exc.value) == message


@given(pair_elements())
def test_pair_literal_round_trip(x):
    assert parse_pair(format_pair(x)) == x


def test_model_adapter_has_no_v2():
    model = PairsModel()
    assert not model.has_v2
    assert not hasattr(model, "v2")
    assert model.residue_mod(pe(5, 7, 6), 4) == 2


def ref_sample(model, rng):
    # The sampler as written with randrange and randint.
    if rng.random() < 0.3:
        return PairElement(F(0), rng.randrange(model.offset_bound + 1))
    num, den = rng.randrange(1, model.den_bound + 1), rng.randrange(1, model.den_bound + 1)
    return PairElement(F(num, den), rng.randint(-model.offset_bound, model.offset_bound))


@pytest.mark.parametrize("den_bound, offset_bound", [(1000, 10**6), (1, 1), (7, 10**40)])
def test_sampler_draws_as_randrange_does(den_bound, offset_bound):
    model = PairsModel(den_bound=den_bound, offset_bound=offset_bound)
    for seed in range(50):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            assert model.sample(rng) == ref_sample(model, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
