"""Seeded inputs for the benchmark workloads and their independent reference.

Nothing here imports ``buchi2``: the expected outputs are computed with
Python ints (``x & -x`` for V2, ``%`` for congruences) and ``Fraction``
lowest terms for element literals, straight from the documented semantics,
so a defect in the package cannot hide itself by also being in the oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Hand-written expected verdict of the axiom suite at schema_max=12: every
# catalog id, in catalog order, passes every requested case.
EXPECTED_AXIOM_IDS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11",
    "A12", "A13", "A14", "A15", "A16", "A17", "V12", "V13", "V14",
)
SCHEMA_MAX = 12

# Output prefix the REPL prints for a line that does not parse.
PARSE_ERROR = "parse error:"


def round_seed(seed: int, index: int) -> int:
    """Suite seed of the index-th round of a run seeded with ``seed``."""
    return seed * 1_000_003 + index


# -- reference semantics -------------------------------------------------------

def ref_v2(x: int) -> int:
    """Largest power of two dividing x, with V2(0) = 0."""
    return x & -x


def ref_literal(galaxy: Fraction, offset: int) -> str:
    """Canonical text of the element base(galaxy) + offset."""
    if galaxy == 0:
        return str(offset)
    p, q = galaxy.numerator, galaxy.denominator
    coef = "c" if (p, q) == (1, 1) else (f"{p}c" if q == 1 else f"{p}/{q}c")
    if offset == 0:
        return coef
    return f"{coef}+{offset}" if offset > 0 else f"{coef}-{-offset}"


# -- the repl-mix line generator ------------------------------------------------
#
# Every generator returns (text, value) with the value computed by the
# reference, so the expected output never depends on the code under test.

def _numeral(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.5:
        n = rng.randrange(1000)
    elif roll < 0.85:
        n = rng.randrange(10**5, 10**7)
    else:
        n = rng.randrange(10**29, 10**31)
    if rng.random() < 0.3:
        n <<= rng.randrange(1, 24)  # give V2 something to find
    return n


def _factor(rng: random.Random, depth: int) -> tuple[str, int]:
    roll = rng.random()
    if depth < 2 and roll < 0.2:
        text, value = _term(rng, depth + 1)
        return f"V2({text})", ref_v2(value)
    if depth < 2 and roll < 0.25:
        text, value = _term(rng, depth + 1)
        return f"({text})", value
    n = _numeral(rng)
    return str(n), n


def _term(rng: random.Random, depth: int = 0) -> tuple[str, int]:
    parts = [_factor(rng, depth) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
    return " + ".join(t for t, _ in parts), sum(v for _, v in parts)


def _atom(rng: random.Random) -> tuple[str, bool]:
    kind = rng.randrange(5)
    if kind == 0:
        n = _numeral(rng)
        right = ref_v2(n) if rng.random() < 0.5 else ref_v2(n) * 2
        return f"V2({n}) = {right}", ref_v2(n) == right
    if kind == 1:
        lt, lv = _term(rng)
        right = lv if rng.random() < 0.5 else lv + 1
        return f"{lt} = {right}", lv == right
    if kind in (2, 3):
        (lt, lv), (rt, rv) = _term(rng), _term(rng)
        op = "<" if kind == 2 else ">"
        return f"{lt} {op} {rt}", (lv < rv) if kind == 2 else (lv > rv)
    n = rng.randrange(2, 13) if rng.random() < 0.8 else rng.randrange(10**6, 10**6 + 1000)
    lt, lv = _term(rng)
    right = lv % n + n * rng.randrange(1000)
    if rng.random() < 0.5:
        right += 1
    return f"{lt} == {right} mod {n}", lv % n == right % n


# Binding strength of the connectives; atoms bind tightest.
_ATOM, _NOT, _AND, _OR, _IMPLIES = 5, 4, 3, 2, 1


def _formula(rng: random.Random, atoms: int) -> tuple[str, bool, int]:
    """A random formula over ``atoms`` atoms: (text, truth, binding level)."""
    if atoms == 1:
        text, value = _atom(rng)
        out = (text, value, _ATOM)
    else:
        split = rng.randrange(1, atoms)
        left, right = _formula(rng, split), _formula(rng, atoms - split)
        level = rng.choice((_AND, _OR, _IMPLIES))
        # & and | associate left, -> associates right: the side that would
        # re-associate needs parentheses at equal level.
        lmin, rmin = (level + 1, level) if level == _IMPLIES else (level, level + 1)
        lt = left[0] if left[2] >= lmin else f"({left[0]})"
        rt = right[0] if right[2] >= rmin else f"({right[0]})"
        sym, truth = {
            _AND: ("&", left[1] and right[1]),
            _OR: ("|", left[1] or right[1]),
            _IMPLIES: ("->", (not left[1]) or right[1]),
        }[level]
        out = (f"{lt} {sym} {rt}", truth, level)
    if rng.random() < 0.15:
        body = out[0] if out[2] >= _NOT else f"({out[0]})"
        out = (f"~ {body}", not out[1], _NOT)
    if rng.random() < 0.1:
        out = (f"({out[0]})", out[1], _ATOM)
    return out


def _literal(rng: random.Random) -> tuple[str, str]:
    roll = rng.random()
    if roll < 0.15:
        n = _numeral(rng)
        return str(n), str(n)
    k = rng.choice((1, 1, 1, 2, 3, 4))  # unreduced numerator/denominator
    p, q = rng.randrange(1, 1001), rng.randrange(1, 1001)
    if roll < 0.25:
        q = 1
    elif roll < 0.35:
        p = 1
    offset = rng.randint(-10**6, 10**6) if rng.random() < 0.9 else rng.randint(-10**30, 10**30)
    if rng.random() < 0.1:
        offset = 0
    tail = "" if offset == 0 else (f"+{offset}" if offset > 0 else f"-{-offset}")
    if p == 1 and k == 1 and q > 1:
        text = f"c/{q}{tail}"
    elif q == 1 and k == 1:
        text = f"{'' if p == 1 else p}c{tail}"
    else:
        text = f"{k * p}/{k * q}c{tail}"
    return text, ref_literal(Fraction(p, q), offset)


def _malformed(rng: random.Random) -> str:
    """A line that no reading of the grammar accepts."""
    kind = rng.randrange(8)
    if kind == 0:
        return f"{_term(rng)[0]} +"
    if kind == 1:
        return f"& {_formula(rng, rng.randrange(1, 3))[0]}"
    if kind == 2:
        return f"{_numeral(rng)} * {_numeral(rng)}"
    if kind == 3:
        return f"({_formula(rng, rng.randrange(1, 3))[0]}"
    if kind == 4:
        return f"{_term(rng)[0]} == {_numeral(rng)} mod {rng.randrange(2)}"
    if kind == 5:
        return rng.choice(("V2()", f"V2({_numeral(rng)}", f"V2 {_numeral(rng)}"))
    if kind == 6:
        return f"{rng.randrange(1, 100)}/c+{rng.randrange(10**6)}"
    return f"{_atom(rng)[0]})"


def repl_lines(seed: int, chunk: int, n: int) -> list[tuple[str, str]]:
    """Lines ``chunk`` of the repl-mix stream, each with its expected output.

    Mix: 40% closed quantifier-free formulas, 25% closed terms, 31%
    element literals, 4% malformed lines (expected output: a line starting
    with ``parse error:``).
    """
    rng = random.Random(f"repl-mix:{seed}:{chunk}")
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.40:
            text, truth, _ = _formula(rng, rng.choice((1, 1, 2, 2, 3)))
            out.append((text, "true" if truth else "false"))
        elif roll < 0.65:
            text, value = _term(rng)
            out.append((text, str(value)))
        elif roll < 0.96:
            out.append(_literal(rng))
        else:
            out.append((_malformed(rng), PARSE_ERROR))
    return out


def output_matches(expected: str, actual: str) -> bool:
    if expected == PARSE_ERROR:
        return actual.startswith(PARSE_ERROR)
    return actual == expected
