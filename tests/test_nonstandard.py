"""Core arithmetic: frozen oracle values and algebraic laws."""

import copy
import pickle
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

import buchi2
from buchi2 import nonstandard
from buchi2.nonstandard import (
    C,
    Element,
    NegativeResultError,
    NonstandardModel,
    NotDivisibleError,
    ONE,
    Ordering,
    ParseError,
    ZERO,
    add,
    compare,
    compare_elements,
    density_witnesses,
    divide,
    format_element,
    is_hypernumber,
    is_power_of_two,
    is_standard,
    natural,
    next_power_of_two_above,
    nu2,
    parse_element,
    pow2_cycle_mod,
    residue_mod,
    scalar_mul,
    sub,
    t_residue,
    v2,
)
from buchi2.pairs import PairElement


def el(num, den=1, offset=0):
    return Element(F(num, den), offset)


# -- strategies ---------------------------------------------------------------

offsets = st.integers(min_value=-(10**6), max_value=10**6)


@st.composite
def elements(draw, max_denominator=60):
    g = draw(st.fractions(min_value=0, max_value=60, max_denominator=max_denominator))
    d = draw(offsets)
    return Element(g, abs(d) if g == 0 else d)


@st.composite
def nonzero_elements(draw):
    x = draw(elements())
    return x if x != ZERO else ONE


@st.composite
def hypernumbers(draw):
    num = draw(st.integers(min_value=1, max_value=500))
    e = draw(st.integers(min_value=0, max_value=10))
    return Element(F(num, 1 << e), 0)


# -- t_residue ---------------------------------------------------------------

def t_oracle(q):
    # brute-force scan for the defining congruences
    e = 0
    m = q
    while m % 2 == 0:
        e += 1
        m //= 2
    for j in range(q):
        if j % (1 << e) == 0 and j % m == 1 % m:
            return j
    raise AssertionError(q)


def test_t_residue_examples():
    assert t_residue(1) == 0
    assert t_residue(3) == 1
    assert t_residue(4) == 0
    assert t_residue(6) == 4


def test_t_residue_matches_brute_force():
    for q in range(1, 600):
        assert t_residue(q) == t_oracle(q)


def test_t_residue_coherent_under_divisors():
    for q in range(1, 300):
        for qp in range(1, q + 1):
            if q % qp == 0:
                assert t_residue(q) % qp == t_residue(qp)


def test_t_residue_rejects_nonpositive():
    with pytest.raises(ValueError):
        t_residue(0)


def test_t_residue_cache_is_bounded():
    maxsize = t_residue.cache_info().maxsize
    assert maxsize is not None
    try:
        for q in range(1, maxsize + 1000):
            t_residue(q)
        assert t_residue.cache_info().currsize <= maxsize
    finally:
        t_residue.cache_clear()


# -- nu2 ----------------------------------------------------------------------

def test_nu2():
    assert nu2(12) == 2
    assert nu2(-1) == 0
    assert nu2(2**40) == 40
    with pytest.raises(ValueError):
        nu2(0)


# -- element construction and literals ---------------------------------------

def test_carrier_invariants():
    with pytest.raises(ValueError, match="standard numbers are non-negative"):
        Element(F(0), -1)
    with pytest.raises(ValueError, match="standard numbers are non-negative"):
        Element(0, -1)
    with pytest.raises(ValueError, match="standard numbers are non-negative"):
        natural(-1)
    with pytest.raises(ValueError, match="galaxy must be non-negative"):
        Element(F(-1, 3), 0)
    with pytest.raises(ValueError, match="galaxy must be non-negative"):
        Element(-2, 5)
    for galaxy, offset in [(F(1, 3), 1.5), (0.5, 0), ("1/2", 0), (1, F(2)), (0, True), (True, 0)]:
        with pytest.raises(TypeError):
            Element(galaxy, offset)
    for n in [1.5, True, F(2), "3"]:
        with pytest.raises(TypeError):
            natural(n)
    assert el(1, 3, -5).offset == -5  # negative offsets fine off the standard galaxy


def test_the_triple_numeral_checks_as_natural_does():
    # natural boxes _natural's triple, so the two raise and answer alike
    def answer(embed, n):
        try:
            return embed(n)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    for n in (True, -1, 1.0, "1"):
        assert answer(nonstandard._natural, n) == answer(natural, n) != answer(natural, 1)
    for n in (0, 1, 10**40):
        assert nonstandard._natural(n) == (0, 1, n) == Element._values(natural(n))


def test_element_stores_its_galaxy_in_lowest_terms():
    x = Element(2, 5)  # an int galaxy
    assert (x.p, x.q, x.offset) == (2, 1, 5) and x == el(2, 1, 5)
    assert type(x.galaxy) is F and x.galaxy == 2
    assert (el(6, 4, -1).p, el(6, 4, -1).q) == (3, 2)
    assert (ZERO.p, ZERO.q) == (0, 1)
    with pytest.raises(AttributeError):
        x.p = 3
    with pytest.raises(AttributeError):
        x.galaxy = F(1)
    with pytest.raises(AttributeError):
        del x.offset


def test_repr_pickle_and_copy():
    assert repr(divide(el(2, 5, 3), 3)) == "Element(galaxy=Fraction(2, 15), offset=1)"
    assert repr(ZERO) == "Element(galaxy=Fraction(0, 1), offset=0)"
    assert str(divide(el(2, 5, 3), 3)) == "2/15c+1" and str(ZERO) == "0"
    for x in (ZERO, C, el(5, 6, -2), divide(el(2, 5, 3), 3), v2(el(1, 4))):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_failed_operations_raise_value_errors():
    for error in (NegativeResultError, NotDivisibleError):
        assert issubclass(error, ValueError) and issubclass(error, ArithmeticError)


def test_elements_compare_only_with_elements():
    assert natural(3) != 3 and not natural(3) == (0, 1, 3)
    for operate in (lambda: natural(3) < 4, lambda: natural(3) + 4, lambda: natural(3) - 4,
                    lambda: C + PairElement(1, 0)):
        with pytest.raises(TypeError):
            operate()


@pytest.mark.parametrize(
    "text,value",
    [
        ("7", el(0, 1, 7)),
        ("c", C),
        ("2c+5", el(2, 1, 5)),
        ("3/5c-2", el(3, 5, -2)),
        ("c/4+1", el(1, 4, 1)),
        ("1/3c+1", el(1, 3, 1)),
        ("0c+3", natural(3)),
        (" 2c + 5 ", el(2, 1, 5)),
        ("6/4c", el(3, 2)),
    ],
)
def test_parse_element(text, value):
    assert parse_element(text) == value


REJECTED_LITERALS = {
    "": "not an element literal: ''",
    "-5": "not an element literal: '-5'",
    "c/0": "zero denominator in 'c/0'",
    "3/0c": "zero denominator in '3/0c'",
    "0c-2": "literal denotes no model element: '0c-2' (standard numbers are non-negative, got offset -2)",
    "2cc": "not an element literal: '2cc'",
    "c+": "not an element literal: 'c+'",
    "x": "not an element literal: 'x'",
    "(1,2)": "not an element literal: '(1,2)'",
    "3/5c/4": "not an element literal: '3/5c/4'",
    "7+3": "not an element literal: '7+3'",
    "c/4c": "not an element literal: 'c/4c'",
    "0/0c": "zero denominator in '0/0c'",
}


@pytest.mark.parametrize("bad", list(REJECTED_LITERALS))
def test_parse_element_rejects(bad):
    with pytest.raises(ParseError) as exc:
        parse_element(bad)
    assert str(exc.value) == REJECTED_LITERALS[bad]


@given(elements())
def test_literal_round_trip(x):
    assert parse_element(format_element(x)) == x


# -- add / sub / compare -------------------------------------------------------

def test_add_examples():
    assert add(natural(4), natural(38)) == natural(42)
    assert add(el(1, 3, 5), el(1, 3, -2)) == el(2, 3, 3)
    assert add(el(1, 3), el(2, 3)) == el(1, 1, -1)
    assert el(1, 3, 5) + el(1, 3, -2) == el(2, 3, 3)


def test_sub_examples():
    assert sub(C, ONE) == el(1, 1, -1)
    assert sub(el(2, 3, 3), el(1, 3, -2)) == el(1, 3, 5)
    with pytest.raises(NegativeResultError):
        sub(ONE, natural(2))
    assert el(2, 3, 3) - el(1, 3, -2) == el(1, 3, 5)
    with pytest.raises(NegativeResultError, match="^1 < 2$"):
        ONE - natural(2)


def test_ordering_members_are_module_globals():
    # compare and its callers read the members as globals, not through the class.
    assert nonstandard.LESS is Ordering.LESS
    assert nonstandard.EQUAL is Ordering.EQUAL
    assert nonstandard.GREATER is Ordering.GREATER
    assert tuple(Ordering) == (nonstandard.LESS, nonstandard.EQUAL, nonstandard.GREATER)
    assert not {"LESS", "EQUAL", "GREATER"} & set(buchi2.__all__)


def test_compare_examples():
    assert compare(natural(10**9), el(1, 1000, -(10**9))) is Ordering.LESS
    assert compare(el(1, 2, 100), el(1, 1, -100)) is Ordering.LESS
    assert compare(el(1, 3, 4), el(1, 3, 4)) is Ordering.EQUAL


# value_pair is an independent linear-form oracle: an element denotes
# galaxy * c + (offset - galaxy-part correction), and addition must act
# componentwise on that exact rational form.
def value_pair(x):
    correction = F(x.galaxy.numerator * t_residue(x.galaxy.denominator), x.galaxy.denominator)
    return (x.galaxy, x.offset - correction)


@given(elements(), elements())
def test_add_matches_linear_form(x, y):
    cx, dx = value_pair(x)
    cy, dy = value_pair(y)
    assert value_pair(add(x, y)) == (cx + cy, dx + dy)


@given(elements(), elements())
def test_add_commutes(x, y):
    assert add(x, y) == add(y, x)


@given(elements(), elements(), elements())
def test_add_associates(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))


@given(elements(), elements(), elements())
def test_add_cancels_and_is_monotone(x, y, z):
    assert (add(x, z) == add(y, z)) == (x == y)
    if x < y:
        assert add(x, z) < add(y, z)


@given(elements(), elements())
def test_sub_round_trip(x, y):
    lo, hi = (x, y) if x < y else (y, x)
    assert add(sub(hi, lo), lo) == hi


@given(elements(), elements())
def test_galaxy_addition_is_homomorphic(x, y):
    assert add(x, y).galaxy == x.galaxy + y.galaxy


# -- scalar_mul / divide / residue_mod ----------------------------------------

def test_scalar_mul_examples():
    assert scalar_mul(3, el(1, 3)) == el(1, 1, -1)
    assert scalar_mul(2, natural(21)) == natural(42)
    assert scalar_mul(1, el(2, 5, 3)) == el(2, 5, 3)
    assert scalar_mul(0, el(2, 5, 3)) == ZERO
    with pytest.raises(ValueError, match="^scalar must be a natural number, got -1$"):
        scalar_mul(-1, C)


def test_divide_examples():
    assert divide(el(2, 5, 3), 3) == el(2, 15, 1)
    assert divide(natural(10), 5) == natural(2)
    with pytest.raises(NotDivisibleError):
        divide(C, 3)
    with pytest.raises(ValueError, match="^divisor must be positive, got 0$"):
        divide(C, 0)


def test_residue_examples():
    assert residue_mod(el(2, 5, 3), 3) == 0
    assert residue_mod(natural(14), 5) == 4
    assert residue_mod(C, 3) == 1


@given(elements(), st.integers(min_value=1, max_value=20))
def test_scalar_mul_is_iterated_add(x, n):
    acc = ZERO
    for _ in range(n):
        acc = add(acc, x)
    assert scalar_mul(n, x) == acc


@given(elements(), st.integers(min_value=1, max_value=16))
def test_divide_inverts_scalar_mul(x, n):
    assert divide(scalar_mul(n, x), n) == x


@given(elements(), st.integers(min_value=1, max_value=12))
def test_residue_is_the_unique_divisible_shift(x, n):
    r = residue_mod(x, n)
    hits = []
    for j in range(n):
        try:
            shifted = sub(x, natural(j))
        except NegativeResultError:
            continue
        try:
            y = divide(shifted, n)
        except NotDivisibleError:
            continue
        hits.append(j)
        assert scalar_mul(n, y) == shifted
    assert hits == [r]


# -- the int representation against the Fraction reference ---------------------
# Reference order: tuples (Fraction(p, q), offset).  Kernel results skip the
# checks of the public constructor, so each must be a well-formed element
# equal to its rebuilt copy.

def ref_key(x):
    return (F(x.p, x.q), x.offset)


def assert_well_formed(x):
    assert type(x) is Element and all(type(v) is int for v in (x.p, x.q, x.w, x.offset))
    assert x.q >= 1 and x.p >= 0 and gcd(x.p, x.q) == 1
    assert x.p > 0 or x.offset >= 0
    assert x.w == x.q * x.offset - x.p * t_residue(x.q)
    assert x == Element(F(x.p, x.q), x.offset)


def assert_order_matches_reference(x, y):
    kx, ky = ref_key(x), ref_key(y)
    assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)
    assert (x == y, x != y) == (kx == ky, kx != ky)
    assert compare(x, y) is compare_elements(x, y) is Ordering((kx > ky) - (kx < ky))
    if x == y:
        assert hash(x) == hash(y)


def assert_representation_matches_reference(x, y):
    for a, b in ((x, y), (y, x), (x, x), (x, Element(x.galaxy, x.offset)), (x, add(x, ZERO))):
        assert_order_matches_reference(a, b)
    lo, hi = sorted((x, y))
    results = [x, y, add(x, y), sub(hi, lo), v2(x), next_power_of_two_above(x)]
    for n in range(1, 8):
        try:
            results.append(divide(x, n))
        except NotDivisibleError:
            pass
    for z in results:
        assert_well_formed(z)


# -- the integer kernel against the Fraction formulas --------------------------
# Reference: the offset form base(p/q) + offset, with each carry between base
# points as a difference of the Fraction t-parts p*t(q)/q of its galaxies,
# whose c-terms cancel.  The kernel computes on numerators (p*c + w)/q and
# forms no carries; both must give the same elements.

def ref_t_part(r):
    return F(r.numerator * t_residue(r.denominator), r.denominator)


def ref_int(f):
    assert f.denominator == 1, f"carry is not an integer: {f}"
    return f.numerator


def ref_carry(r1, r2):
    return ref_int(ref_t_part(r1 + r2) - ref_t_part(r1) - ref_t_part(r2))


def ref_split_carry(r, n):
    return ref_int(n * ref_t_part(r / n) - ref_t_part(r))


def ref_scalar_shift(n, r):
    return ref_int(ref_t_part(n * r) - n * ref_t_part(r))


def assert_kernel_matches_reference(x, y, moduli):
    assert_representation_matches_reference(x, y)
    gx, gy = x.galaxy, y.galaxy
    results = [(add(x, y), Element(gx + gy, x.offset + y.offset + ref_carry(gx, gy)))]
    lo, hi = sorted((x, y))
    g = hi.galaxy - lo.galaxy
    results.append((sub(hi, lo), Element(g, hi.offset - lo.offset - ref_carry(lo.galaxy, g))))
    for n in moduli:
        results.append((scalar_mul(n, x), Element(n * gx, n * x.offset + ref_scalar_shift(n, gx))))
        num = x.offset + ref_split_carry(gx, n)
        assert residue_mod(x, n) == num % n
        if num % n:
            with pytest.raises(NotDivisibleError):
                divide(x, n)
        else:
            results.append((divide(x, n), Element(gx / n, num // n)))
    for z, want in results:
        assert_well_formed(z)
        assert z == want


@given(elements(max_denominator=10**6), elements(max_denominator=10**6), st.integers(1, 24))
def test_kernel_matches_fraction_reference(x, y, n):
    assert_kernel_matches_reference(x, y, [n])


def test_kernel_matches_fraction_reference_on_sampled_elements():
    model = NonstandardModel()
    rng = random.Random(0)
    xs = list(model.corner_elements()) + [model.sample(rng) for _ in range(3000)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert_kernel_matches_reference(x, y, range(1, 25))


def test_kernel_compare_matches_generic_compare():
    model = NonstandardModel()
    rng = random.Random(1)
    xs = list(model.corner_elements()) + [model.sample(rng) for _ in range(300)]
    xs += [add(x, natural(1)) for x in xs[::7]]  # same galaxy, nearby offsets
    assert model.compare is compare_elements
    for x in xs:
        for y in xs:
            assert compare_elements(x, y) is compare(x, y)


# -- an oracle without t(q): c := 2^N ------------------------------------------
#
# In the model c is a power of two whose exponent every standard number
# divides.  Take a standard N instead.  If N is at least the 2-exponent of
# every modulus Q in play and a multiple of the order of 2 modulo each Q's
# odd part, then 2^N == t(Q) (mod Q), so h(x) = (p*2^N + w)/q is a natural
# number.  If also |w*q'| < 2^N for the case's elements, h commutes with +,
# -, the order, residue_mod, divide and v2, and maps next_power_of_two to a
# power of two above h(x).  h never computes t(q).  The moduli in play are
# the operands' q and, for residue_mod and divide, q*n: every result's q
# divides one of them, and so does residue_mod's L = q*n/gcd(p, n).
# Denominators have odd parts that divide 2^60 - 1, so with n <= 12 the
# order of 2 modulo any odd part in play divides 540, 300, 420 or 660, and
# N stays far below the cap; a case above it is counted, not checked.

FACTORS_2_60 = ((3, 2), (5, 2), (7, 1), (11, 1), (13, 1), (31, 1), (41, 1), (61, 1), (151, 1), (331, 1), (1321, 1))
ODD_PARTS = [1]
for prime, power in FACTORS_2_60:
    ODD_PARTS = [d * prime**k for d in ODD_PARTS for k in range(power + 1)]
ORACLE_CAP = 1 << 13  # the largest N checked


def order_of_two(m: int) -> int:
    """The least k >= 1 with 2^k == 1 (mod m), for odd m."""
    k, r = 1, 2 % m
    while r != 1 % m:
        k, r = k + 1, 2 * r % m
    return k


def oracle_exponent(moduli, bits: int) -> int:
    """The least N >= bits that is at least every modulus's 2-exponent and a
    multiple of the order of 2 modulo every modulus's odd part."""
    step = 1
    for modulus in moduli:
        order = order_of_two(modulus >> nu2(modulus))
        step = step * order // gcd(step, order)
    least = max(bits, *map(nu2, moduli))
    return -(-least // step) * step


def height(n_exponent: int, x: tuple) -> int:
    """h(x) = (p*2^N + w)/q, which must be a natural number."""
    p, q, w = x
    value, rest = divmod((p << n_exponent) + w, q)
    assert rest == 0 and value >= 0, (x, n_exponent)
    return value


def check_triple_forms_on_powers_of_two(x: tuple, y: tuple, n: int) -> bool:
    """Check every triple form on x, y and n against h; False if N is over the cap."""
    (p1, q1, w1), (p2, q2, w2) = x, y
    big = ((abs(w1) + abs(w2) + 1) * q1 * q2).bit_length() + 1
    exponent = oracle_exponent((q1, q2, q1 * n, q2 * n), big)
    if exponent > ORACLE_CAP:
        return False
    h = lambda z: height(exponent, z)  # noqa: E731
    hx, hy = h(x), h(y)
    assert h(nonstandard._add(x, y)) == hx + hy
    if hx < hy:
        with pytest.raises(NegativeResultError):
            nonstandard._sub(x, y)
    else:
        assert h(nonstandard._sub(x, y)) == hx - hy
    assert nonstandard._compare(x, y) is Ordering((hx > hy) - (hx < hy))
    assert nonstandard._residue_mod(x, n) == hx % n
    if hx % n:
        with pytest.raises(NotDivisibleError):
            nonstandard._divide(x, n)
    else:
        assert h(nonstandard._divide(x, n)) == hx // n
    assert h(nonstandard._v2(x)) == hx & -hx
    above = h(nonstandard._next_power_of_two(x))
    assert above > hx and above & (above - 1) == 0
    if not p1:  # for a standard x, the least power of two above
        assert above == 1 << hx.bit_length()
    return True


@st.composite
def oracle_elements(draw):
    q = draw(st.sampled_from(ODD_PARTS)) << draw(st.integers(0, 12))
    p = draw(st.integers(0, 4 * q))
    d = draw(st.one_of(st.just(0), st.integers(-(10**30), 10**30)))
    return Element(F(p, q), abs(d) if p == 0 else d)


def oracle_cases():
    element = st.one_of(st.sampled_from(NonstandardModel.corners), oracle_elements()).map(Element._values)
    return st.tuples(element, element, st.integers(1, 12))


@given(st.lists(oracle_cases(), min_size=1, max_size=10))
def test_triple_forms_commute_with_c_as_a_power_of_two(cases):
    checked = sum(check_triple_forms_on_powers_of_two(*case) for case in cases)
    assert checked == len(cases), f"{len(cases) - checked} of {len(cases)} cases need N > {ORACLE_CAP}"


def test_triple_forms_commute_with_c_as_a_power_of_two_on_the_corners():
    corners = [Element._values(x) for x in NonstandardModel.corners]
    cases = [(x, y, n) for x in corners for y in corners for n in range(1, 13)]
    checked = sum(check_triple_forms_on_powers_of_two(*case) for case in cases)
    assert checked == len(cases), f"{len(cases) - checked} of {len(cases)} cases need N > {ORACLE_CAP}"


# -- v2 -------------------------------------------------------------------------

def test_v2_examples():
    assert v2(natural(12)) == natural(4)
    assert v2(el(2, 1)) == el(2, 1)
    assert v2(el(3, 1)) == C
    assert v2(el(1, 2)) == el(1, 2)
    assert v2(el(1, 3, 1)) == natural(2)
    assert v2(el(1, 6)) == natural(2)
    assert v2(ZERO) == ZERO


@given(nonzero_elements())
def test_v2_returns_a_power_of_two(x):
    assert is_power_of_two(v2(x))


@given(nonzero_elements())
def test_v2_matches_bounded_divisibility(x):
    val = v2(x)
    if val.galaxy != 0:
        # hypernumber: divisible by every standard power of two (bounded probe)
        for m in (1, 2, 17, 64):
            divide(x, 1 << m)
        a = x.galaxy / val.galaxy
        assert a.denominator == 1 and a.numerator % 2 == 1
        assert scalar_mul(a.numerator, val) == x
    else:
        m = nu2(val.offset)
        assert divide(x, 1 << m) is not None
        with pytest.raises(NotDivisibleError):
            divide(x, 1 << (m + 1))


@given(nonzero_elements())
def test_v2_doubles_under_doubling(x):
    assert v2(add(x, x)) == scalar_mul(2, v2(x))


@given(nonzero_elements(), st.integers(min_value=0, max_value=8))
def test_v2_ignores_odd_scalars(x, m):
    assert v2(scalar_mul(2 * m + 1, x)) == v2(x)


# -- hypernumbers ---------------------------------------------------------------

def test_hypernumber_examples():
    assert is_hypernumber(C)
    assert not is_hypernumber(el(1, 3))
    assert not is_hypernumber(natural(1024))


@given(hypernumbers(), st.integers(min_value=1, max_value=100))
def test_hypernumber_is_unique_in_galaxy(h, t):
    assert is_hypernumber(h)
    shifted = add(h, natural(t))
    assert not is_hypernumber(shifted)
    assert v2(shifted) == v2(natural(t))


@given(elements())
def test_hypernumber_iff_all_powers_divide(x):
    all_divide = True
    for m in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        try:
            divide(x, 1 << m)
        except NotDivisibleError:
            all_divide = False
            break
    assert is_hypernumber(x) == (all_divide and x != ZERO and not is_standard(x))


# -- order-related witnesses -----------------------------------------------------

def test_is_standard():
    assert is_standard(natural(7))
    assert not is_standard(C)
    assert not is_standard(el(1, 3, -5))


def test_is_power_of_two_examples():
    assert is_power_of_two(natural(8))
    assert is_power_of_two(el(1, 4))
    assert not is_power_of_two(el(3, 1))
    assert not is_power_of_two(ZERO)


def test_next_power_of_two_examples():
    assert next_power_of_two_above(natural(5)) == natural(8)
    assert next_power_of_two_above(C) == el(2, 1)
    assert next_power_of_two_above(el(7, 2, 123)) == el(8, 1)
    assert next_power_of_two_above(ZERO) == natural(1)
    assert next_power_of_two_above(natural(8)) == natural(16)
    # not the least power above a non-standard x: c and c/2 lie between
    assert next_power_of_two_above(el(1, 1, -7)) == el(2, 1)
    assert next_power_of_two_above(el(1, 3)) == el(2, 1)
    assert next_power_of_two_above(el(1, 2, -1)) == el(2, 1)
    assert is_power_of_two(el(1, 2)) and el(1, 3) < el(1, 2, -1) < el(1, 2) < C


@given(elements())
def test_next_power_of_two_is_above_and_a_power(x):
    y = next_power_of_two_above(x)
    assert is_power_of_two(y)
    assert x < y


def test_density_witness_examples():
    below, mid, above = density_witnesses(el(1, 3), el(1, 2))
    assert mid.galaxy == F(5, 12)
    below, mid, above = density_witnesses(C, el(2, 1))
    assert below.galaxy == F(1, 2)
    assert above.galaxy == F(4)
    _, mid, _ = density_witnesses(C, el(3, 1))
    assert mid.galaxy == F(2)


@given(elements(), elements())
def test_density_witnesses_are_strictly_interleaved(x, y):
    if is_standard(x) or is_standard(y) or not x.galaxy < y.galaxy:
        with pytest.raises(ValueError):
            density_witnesses(x, y)
        return
    below, mid, above = density_witnesses(x, y)
    assert below < x < mid < y < above


def test_pow2_cycle_examples():
    assert pow2_cycle_mod(3) == [1, 2]
    assert pow2_cycle_mod(7) == [1, 2, 4]
    assert pow2_cycle_mod(5) == [1, 2, 4, 3]
    for bad in (1, 2, 8):
        with pytest.raises(ValueError):
            pow2_cycle_mod(bad)


def totient(n):
    return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)


@pytest.mark.parametrize("n", range(3, 200, 2))
def test_pow2_cycle_length_divides_totient(n):
    cycle = pow2_cycle_mod(n)
    assert len(set(cycle)) == len(cycle)
    assert totient(n) % len(cycle) == 0
    # and it is genuinely the period
    assert pow(2, len(cycle), n) == 1


# -- model adapter ----------------------------------------------------------------

def ref_sample(model, rng):
    # The sampler as written with randrange and randint, through the checked constructor.
    roll = rng.random()
    if roll < 0.25:
        return Element(0, rng.randrange(model.offset_bound + 1))
    if roll < 0.40:
        num, den, offset = rng.randrange(1, model.den_bound + 1), 1 << rng.randrange(11), 0
    else:
        num, den = rng.randrange(1, model.den_bound + 1), rng.randrange(1, model.den_bound + 1)
        offset = rng.randint(-model.offset_bound, model.offset_bound)
    return Element(F(num, den), offset)


@pytest.mark.parametrize("den_bound, offset_bound", [
    (1000, 10**6), (1, 1), (7, 10**40), (2**10 - 1, 2**20 - 1), (2**10, 2**20)])
def test_sampler_draws_as_randrange_does(den_bound, offset_bound):
    model = NonstandardModel(den_bound=den_bound, offset_bound=offset_bound)
    for seed in range(50):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            x = model.sample(rng)
            assert x == ref_sample(model, ref_rng)
            assert_well_formed(x)
        assert rng.getstate() == ref_rng.getstate()


def test_sampler_respects_bounds_and_is_deterministic():
    import random

    model = NonstandardModel(den_bound=50, offset_bound=999)
    xs = [model.sample(random.Random(7)) for _ in range(3)]
    assert xs[0] == xs[1] == xs[2]
    rng = random.Random(1)
    for _ in range(500):
        x = model.sample(rng)
        assert x.galaxy.denominator <= 50 * 1024  # galaxy bound times hypernumber 2-part
        assert abs(x.offset) <= 999
