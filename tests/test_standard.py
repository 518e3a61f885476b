"""The standard model as an oracle, and the embedding homomorphism."""

import random

import pytest
from hypothesis import given, strategies as st

from buchi2.nonstandard import Ordering, add, compare, residue_mod, v2
from buchi2.standard import StandardModel, embed, std_v2

naturals = st.integers(min_value=0, max_value=10**6)


def test_std_v2_examples():
    assert std_v2(0) == 0
    assert std_v2(12) == 4
    assert std_v2(2**20) == 2**20
    with pytest.raises(ValueError):
        std_v2(-4)


@given(naturals)
def test_std_v2_matches_inductive_definition(x):
    # the halving recursion that pins V2 down on naturals
    def by_recursion(n):
        if n == 0:
            return 0
        if n % 2 == 1:
            return 1
        return 2 * by_recursion(n // 2)

    assert std_v2(x) == by_recursion(x)


def test_embed_examples():
    assert embed(0).galaxy == 0 and embed(0).offset == 0
    assert embed(10**9).offset == 10**9
    with pytest.raises(ValueError):
        embed(-1)


@given(naturals, naturals)
def test_embedding_is_a_homomorphism(a, b):
    assert embed(a + b) == add(embed(a), embed(b))
    assert embed(std_v2(a)) == v2(embed(a))
    want = Ordering.LESS if a < b else Ordering.GREATER if a > b else Ordering.EQUAL
    assert compare(embed(a), embed(b)) is want


@given(naturals, st.integers(min_value=1, max_value=50))
def test_embedding_preserves_residues(a, n):
    assert residue_mod(embed(a), n) == a % n


def test_model_adapter_basics():
    model = StandardModel(offset_bound=99)
    assert model.parse("17") == 17
    assert model.format(17) == "17"
    assert model.next_power_of_two(0) == 1
    assert model.next_power_of_two(8) == 16
    assert model.divide(12, 4) == 3
    xs = {model.sample(random.Random(3)) for _ in range(3)}
    assert len(xs) == 1  # deterministic under a fixed seed


@pytest.mark.parametrize("offset_bound", [1, 2, 99, 10**6, 2**64, 10**40])
def test_sampler_draws_as_randrange_does(offset_bound):
    model = StandardModel(offset_bound=offset_bound)
    for seed in range(50):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            assert model.sample(rng) == ref_rng.randrange(offset_bound + 1)
        assert rng.getstate() == ref_rng.getstate()
