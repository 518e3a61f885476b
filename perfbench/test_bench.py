"""Self-tests of the benchmark: generator, reference and tracing proxy.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mix  # noqa: E402
import worker  # noqa: E402
from tracing import MODEL_OPS, Patches, Tracer, TracedModel  # noqa: E402

from buchi2.nonstandard import NegativeResultError, NonstandardModel, NotDivisibleError  # noqa: E402
from buchi2.standard import StandardModel  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert mix.repl_lines(7, 3, 500) == mix.repl_lines(7, 3, 500)
    assert mix.repl_lines(7, 3, 500) != mix.repl_lines(8, 3, 500)
    assert mix.repl_lines(7, 3, 500) != mix.repl_lines(7, 4, 500)
    seeds = {mix.round_seed(s, i) for s in range(5) for i in range(1000)}
    assert len(seeds) == 5000


def test_reference_hand_table():
    assert mix.ref_v2(12) == 4  # "V2(12) = 4" -> true
    assert mix.ref_v2(0) == 0
    assert mix.ref_literal(Fraction(2), 5) == "2c+5"  # "2c+5"
    assert mix.ref_literal(Fraction(1, 4), 1) == "1/4c+1"  # "c/4+1"
    assert mix.ref_literal(Fraction(10, 4), -3) == "5/2c-3"  # "10/4c-3"
    assert mix.ref_literal(Fraction(1), 0) == "c"
    assert mix.ref_literal(Fraction(0), 7) == "7"


_LITERAL = re.compile(r"^(?:(\d+)(?:/(\d+))?)?c(?:/(\d+))?(?:([+-])(\d+))?$")


def test_generated_lines_match_their_expected_outputs():
    kinds = set()
    for text, want in mix.repl_lines(3, 0, 3000):
        if want == mix.PARSE_ERROR:
            kinds.add("malformed")
        elif want in ("true", "false"):
            kinds.add("formula")
        elif m := _LITERAL.match(text):
            num, den, sugar, sign, off = m.groups()
            galaxy = Fraction(int(num or 1), int(den or sugar or 1))
            offset = 0 if off is None else int(sign + off)
            assert mix.ref_literal(galaxy, offset) == want, text
            kinds.add("literal")
        else:
            # Terms are sums of numerals, parentheses and V2 -- Python syntax.
            assert str(eval(text, {"__builtins__": {}, "V2": mix.ref_v2})) == want, text
            kinds.add("term")
    assert kinds == {"malformed", "formula", "literal", "term"}


@pytest.mark.parametrize("model", [NonstandardModel(), StandardModel()], ids=["nonstd", "std"])
def test_proxy_passes_values_through(model):
    tracer = Tracer()
    traced = TracedModel(model, tracer)
    assert (traced.name, traced.has_v2) == (model.name, model.has_v2)
    assert traced.corner_elements() == model.corner_elements()
    rng_a, rng_b, rng_y = random.Random(5), random.Random(5), random.Random(6)
    for _ in range(200):
        x, y = model.sample(rng_a), model.sample(rng_y)
        assert traced.sample(rng_b) == x
        for op, args in [
            ("add", (x, y)), ("compare", (x, y)), ("residue_mod", (x, 6)), ("v2", (x,)),
            ("next_power_of_two", (x,)), ("numeral", (17,)), ("format", (x,)),
            ("parse", (model.format(x),)), ("sub", (x, y)), ("divide", (x, 3)),
        ]:
            try:
                want = getattr(model, op)(*args)
            except (NegativeResultError, NotDivisibleError) as exc:
                with pytest.raises(type(exc)):
                    getattr(traced, op)(*args)
            else:
                assert getattr(traced, op)(*args) == want
    layer = "nonstandard" if model.name == "nonstd" else "standard"
    assert tracer.stat(f"{layer}.sample")[0] == 200
    assert all(tracer.stat(f"{layer}.{op}")[0] == 200 for op in MODEL_OPS if op != "sample")
    assert tracer.stat(f"{layer}.sub")[1] > 0  # raised calls are counted as failed


def test_self_time_excludes_child_spans_and_patches_restore():
    tracer = Tracer()
    module = type(sys)("fake")
    module.inner = lambda: sum(range(10_000))
    patches = Patches([(module, "inner", tracer.wrap("inner", module.inner))])
    original = module.inner
    patches.install()
    assert tracer.call("outer", lambda: module.inner() + module.inner()) == 2 * sum(range(10_000))
    patches.remove()
    assert module.inner is original
    calls, failed, busy, self_s = tracer.stat("outer")
    assert (calls, failed) == (1, 0)
    assert tracer.stat("inner")[0] == 2
    assert self_s == pytest.approx(busy - tracer.stat("inner")[2])


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_one_unit_of_each_workload_is_correct_traced_or_not(name):
    workload = worker.make_workload(name, 0, Tracer())
    for traced in (False, True):
        ops, failed, clock = workload.run_unit(0, traced)
        assert ops > 0 and failed == 0, workload.problems
        assert len(clock.times) == (20 if name.startswith("axioms") else worker.SESSION_LINES)
        assert all(t > 0 for t in clock.times)


def test_clock_scales_each_group_by_the_reference_times_around_it():
    refs = iter([1.0, 3.0, 2.0])
    clock = worker.Clock(lambda: next(refs) * worker.REFERENCE_S, every=2)
    for _ in range(3):
        clock.start()
        clock.stop()
    clock.finish()
    clock.times = [2.0, 4.0, 6.0]
    assert clock.adjusted() == pytest.approx([1.0, 2.0, 2.4])
