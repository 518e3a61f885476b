"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  All arithmetic is
exact, so every comparison is bit-exact (tolerance 0); the stated runtime
ceilings are asserted as part of the criteria.  They bound the process's
CPU time (``time.process_time``), which other jobs on a shared host do
not inflate as they do wall-clock time.
"""

import random
import time
from fractions import Fraction as F
from math import gcd

from buchi2.axioms import PASS, SKIPPED, run_suite
from buchi2.nonstandard import (
    Element,
    NonstandardModel,
    NotDivisibleError,
    ZERO,
    add,
    compare,
    divide,
    is_hypernumber,
    is_power_of_two,
    natural,
    nu2,
    residue_mod,
    scalar_mul,
    t_residue,
    v2,
)
from buchi2.pairs import PairElement, PairsModel, refute_power2_candidate, validate_verdict
from buchi2.standard import StandardModel, embed, std_v2


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_v2_closed_form_for_nonnegative_two_exponent():
    # galaxy a*2^k/b with a, b odd and coprime, k >= 0: the valuation of the
    # element with offset d must equal the standard valuation of b*d - a*2^k.
    rng = random.Random(1)
    start = time.process_time()
    for _ in range(10_000):
        a = rng.randrange(1, 1000, 2)
        b = rng.randrange(3, 1000, 2)
        while gcd(a, b) != 1:
            b = rng.randrange(3, 1000, 2)
        k = rng.randrange(0, 21)
        d = rng.randint(-(10**6), 10**6)
        got = v2(Element(F(a * 2**k, b), d))
        want = embed(std_v2(abs(b * d - a * 2**k)))
        assert got == want, (a, b, k, d, got, want)
    elapsed = time.process_time() - start
    verdict(1, "closed-form valuation, k >= 0", elapsed <= 10.0, f"10000 samples, {elapsed:.1f}s <= 10s")


def test_criterion_2_worked_division_example():
    x = Element(F(2, 5), 3)
    ok = divide(x, 3) == Element(F(2, 15), 1) and residue_mod(x, 3) == 0
    verdict(2, "worked division example", ok, "divide((2/5,3),3)=(2/15,1), residue 0")


def test_criterion_3_axiom_suite_on_all_three_models():
    start = time.process_time()
    nonstd = run_suite(NonstandardModel(), seed=0, cases=1000, schema_max=12)
    std = run_suite(StandardModel(), seed=0, cases=1000, schema_max=12)
    pairs = run_suite(PairsModel(), seed=0, cases=1000, schema_max=12)
    elapsed = time.process_time() - start

    ok_nonstd = len(nonstd) == 20 and all(r.status == PASS for r in nonstd)
    ok_std = all(r.status == PASS for r in std)
    by_id = {r.axiom_id: r.status for r in pairs}
    ok_pairs = all(by_id[f"A{i}"] == PASS for i in range(1, 12)) and all(
        status in (PASS, SKIPPED) for status in by_id.values()
    )
    ok = ok_nonstd and ok_std and ok_pairs and elapsed <= 60.0
    verdict(
        3, "axiom suite (nonstd/std/pairs)", ok,
        f"nonstd 20 PASS: {ok_nonstd}, std PASS: {ok_std}, pairs PrA PASS: {ok_pairs}, {elapsed:.1f}s <= 60s",
    )


def test_criterion_4_embedding_agrees_with_standard_oracle():
    rng = random.Random(4)
    for _ in range(100_000):
        a = rng.randrange(10**6 + 1)
        b = rng.randrange(10**6 + 1)
        n = rng.randrange(1, 13)
        ea, eb = embed(a), embed(b)
        assert add(ea, eb) == embed(a + b)
        assert compare(ea, eb).value == (a > b) - (a < b)
        assert v2(ea) == embed(std_v2(a))
        assert residue_mod(ea, n) == a % n
    verdict(4, "embedding matches the oracle", True, "100000 samples, add/compare/v2/residue")


def test_criterion_5_impossibility_theorem_exhaustive():
    start = time.process_time()
    checked = 0
    for a in range(1, 51):
        for b in range(1, 51):
            g = F(a, b)
            for n in range(-100, 101):
                x = PairElement(g, n)
                assert validate_verdict(x, refute_power2_candidate(x)), x
                checked += 1
    elapsed = time.process_time() - start
    ok = checked == 50 * 50 * 201 and elapsed <= 5.0
    verdict(5, "pairs-model impossibility", ok, f"{checked} candidates, {elapsed:.1f}s <= 5s")


def _sample_elements(rng, count):
    model = NonstandardModel()
    corners = model.corner_elements()
    for i in range(count):
        yield corners[i] if i < len(corners) else model.sample(rng)


def test_criterion_6_hypernumber_characterization():
    rng = random.Random(6)
    for x in _sample_elements(rng, 10_000):
        bounded = x != ZERO
        if bounded:
            for m in range(1, 65):
                try:
                    divide(x, 1 << m)
                except NotDivisibleError:
                    bounded = False
                    break
        assert is_hypernumber(x) == bounded, x

    # uniqueness: shifting a hypernumber by a standard amount exposes it
    hypers = [Element(F(num, 1 << e), 0) for num in range(1, 101, 7) for e in range(0, 8)]
    assert all(is_hypernumber(h) for h in hypers)
    for h in hypers:
        for t in range(1, 101):
            assert v2(add(h, natural(t))) == v2(natural(t)), (h, t)
    verdict(6, "hypernumber characterization", True, "10000 samples + uniqueness over t <= 100")


def test_criterion_7_galaxy_monoid_isomorphism():
    rng = random.Random(7)
    model = NonstandardModel()
    for _ in range(10_000):
        x, y = model.sample(rng), model.sample(rng)
        assert add(x, y).galaxy == x.galaxy + y.galaxy

    # carry integrality, recomputed here from t_residue alone
    for _ in range(10_000):
        r1 = F(rng.randrange(0, 10**4 + 1), rng.randrange(1, 10**4 + 1))
        r2 = F(rng.randrange(0, 10**4 + 1), rng.randrange(1, 10**4 + 1))
        parts = [r1 + r2, r1, r2]
        carry = sum(
            sign * F(r.numerator * t_residue(r.denominator), r.denominator)
            for sign, r in zip((1, -1, -1), parts)
        )
        assert carry.denominator == 1, (r1, r2, carry)
    verdict(7, "galaxy monoid homomorphism", True, "10000 pairs + carry integrality")


def test_criterion_8_v2_maximality():
    rng = random.Random(8)
    checked = 0
    for x in _sample_elements(rng, 10_500):
        if x == ZERO:
            continue
        val = v2(x)
        assert is_power_of_two(val), (x, val)
        if val.galaxy == 0:
            m = nu2(val.offset)
            divide(x, 1 << m)  # must succeed
            try:
                divide(x, 1 << (m + 1))
                raise AssertionError(f"2*v2 divides {x}")
            except NotDivisibleError:
                pass
        else:
            # hypernumber valuation: x is an odd multiple of it
            ratio = x.galaxy / val.galaxy
            assert ratio.denominator == 1 and ratio.numerator % 2 == 1, (x, val)
            assert scalar_mul(ratio.numerator, val) == x
        checked += 1
    assert checked >= 10_000
    verdict(8, "valuation maximality", True, f"{checked} nonzero samples")
