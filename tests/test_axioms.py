"""Axiom catalog shape and harness behavior, including falsification power."""

import builtins
import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import pytest

import buchi2

from buchi2 import axioms, compiled, nonstandard
from buchi2.axioms import (
    FAIL,
    MAX_SCHEMA,
    PASS,
    SKIPPED,
    AxiomSpec,
    Report,
    build_axioms,
    check_axiom,
    run_suite,
)
from buchi2.axioms import _congruence_matrix, _odd_indivisibility_matrix, _one, _residue_cases_matrix
from buchi2.compiled import _generate, compile_run
from buchi2.formulas import And, Not, Numeral, V2App, Variable, eval_qf, mentions, parse_formula
from buchi2.nonstandard import Model, NegativeResultError, NonstandardModel, NotDivisibleError, Ordering
from buchi2.pairs import PairsModel
from buchi2.standard import StandardModel

from case_loops import answer, one_case
from fault_models import (
    CarrylessAddModel,
    ConstantV2Model,
    IdentityV2Model,
    OffByOneAddModel,
    OffByOneResidueModel,
)

NONSTD = NonstandardModel()
STD = StandardModel()
PAIRS = PairsModel()


def by_id(axiom_id, schema_max=12):
    return next(spec for spec in build_axioms(schema_max) if spec.id == axiom_id)


# -- catalog shape ----------------------------------------------------------------

def test_catalog_has_twenty_entries_in_order():
    ids = [spec.id for spec in build_axioms()]
    assert ids == [f"A{i}" for i in range(1, 18)] + ["V12", "V13", "V14"]
    assert len(set(ids)) == 20


def test_v_block_mirrors_a_block():
    for k in (12, 13, 14):
        a, v = by_id(f"A{k}"), by_id(f"V{k}")
        assert a.text == v.text
        assert a.obligations == v.obligations
        assert a.derived == v.derived


def test_axiom_texts_parse_and_round_trip():
    from buchi2.formulas import format_formula

    for spec in build_axioms():
        f = parse_formula(spec.text)
        assert parse_formula(format_formula(f)) == f


def params(axiom_id, schema_max=12):
    return tuple(n for n, _ in by_id(axiom_id, schema_max).obligations)


def test_strategies():
    for axiom_id in ("A1", "A2", "A4", "A15"):
        assert params(axiom_id) == (None,)
    x, y, zero, one = Variable("x"), Variable("y"), Numeral(0), Numeral(1)
    assert by_id("A1").derived == ()
    assert by_id("A15").derived == (("w", axioms._w_next_power_of_two, None, (x,)),)
    assert by_id("A2").derived == (("z", axioms._w_difference, None, (x, y, zero)),)
    assert by_id("A8").derived == (("p", axioms._w_predecessor, None, (x, zero, one)),)
    assert by_id("A14").derived == (("h", axioms._w_halve, None, (x, (x, 2), zero)),)
    assert by_id("A16").derived == (("m", axioms._w_power_gap_probe, None, (x, one, V2App(x))),)
    assert by_id("A4").derived == tuple(
        (f"w{n}", axioms._w_congruence_quotient, n, (x, y, (x, n), (y, n), zero)) for n in range(2, 13)
    )


def test_schema_parameters():
    assert params("A11") == tuple(range(2, 13))
    assert params("A17") == (3, 5, 7, 9, 11)
    assert params("A11", schema_max=5) == (2, 3, 4, 5)


def test_schema_matrices_match_their_text():
    for n in (2, 3, 12):
        assert _residue_cases_matrix(n) == parse_formula(" | ".join(f"x == {j} mod {n}" for j in range(n)))
        assert _odd_indivisibility_matrix(n) == parse_formula(f"(V2(x) = x & ~ x = 0) -> ~ x == 0 mod {n}")
    parts = []
    for n in range(2, 13):
        w, u = " + ".join([f"w{n}"] * n), " + ".join(["u"] * n)
        parts.append(f"(x == y mod {n} -> (x = {w} + y | y = {w} + x)) & ({u} + y == y mod {n})")
    assert _congruence_matrix(12) == parse_formula(" & ".join(f"({p})" for p in parts))


def test_schema_bound_is_not_capped_by_the_parser():
    # nor by the compiler: the schemata's checks compile at the largest bound
    for model in (STD, NONSTD):
        reports = run_suite(model, cases=2, schema_max=MAX_SCHEMA, ids=("A4", "A11", "A17"))
        assert [r.status for r in reports] == [PASS] * 3


def test_schema_max_too_small_rejected():
    with pytest.raises(ValueError):
        build_axioms(2)


# -- the model interface ------------------------------------------------------------

@pytest.mark.parametrize("model_class", [NonstandardModel, StandardModel, PairsModel])
def test_models_provide_the_interface(model_class):
    members = {name for name in [*Model.__annotations__, *vars(Model)] if not name.startswith("_")}
    assert len(members) == 15 and "corners" in members
    model = model_class()
    assert isinstance(model, Model)
    for name in members - {"v2", "next_power_of_two"}:
        assert hasattr(model, name), name
    for name in ("v2", "next_power_of_two"):
        assert hasattr(model, name) == model.has_v2, name
    assert model.corner_elements() is model_class().corner_elements()  # built once
    with pytest.raises(NegativeResultError):
        model.sub(model.numeral(1), model.numeral(2))
    with pytest.raises(ValueError, match="must be positive"):
        model_class(offset_bound=0)


@pytest.mark.parametrize("model_class", [NonstandardModel, StandardModel, PairsModel])
@pytest.mark.parametrize("bounds", [{"offset_bound": 1.5}, {"den_bound": True}, {"offset_bound": False},
                                    {"den_bound": "10"}])
def test_sampling_bounds_must_be_ints(model_class, bounds):
    with pytest.raises(TypeError, match="^sampling bounds must be ints, got "):
        model_class(**bounds)


# -- passing runs -------------------------------------------------------------------

@pytest.mark.parametrize("model", [NONSTD, STD], ids=["nonstd", "std"])
def test_full_suite_passes(model):
    reports = run_suite(model, seed=0, cases=80)
    assert all(r.status == PASS for r in reports)
    assert all(r.cases == 80 for r in reports)


def test_pairs_suite_passes_pra_and_skips_v2():
    reports = {r.axiom_id: r for r in run_suite(PAIRS, seed=0, cases=80)}
    for i in range(1, 12):
        assert reports[f"A{i}"].status == PASS
    for axiom_id in ("A12", "A13", "A14", "A15", "A16", "A17", "V12", "V13", "V14"):
        assert reports[axiom_id].status == SKIPPED
        assert reports[axiom_id].cases == 0


def test_reports_are_deterministic():
    first = run_suite(NONSTD, seed=42, cases=50)
    second = run_suite(NONSTD, seed=42, cases=50)
    assert first == second


def test_run_suite_filters_and_validates_ids():
    reports = run_suite(NONSTD, seed=0, cases=30, ids=("A15",))
    assert [r.axiom_id for r in reports] == ["A15"]
    with pytest.raises(ValueError):
        run_suite(NONSTD, ids=("A15", "B9"))


def test_run_suite_builds_only_the_requested_specs(monkeypatch):
    def unwanted(*args):
        raise AssertionError("built a schema matrix that was not requested")

    for name in ("_congruence_matrix", "_residue_cases_matrix", "_odd_indivisibility_matrix"):
        monkeypatch.setattr(axioms, name, unwanted)
    reports = run_suite(NONSTD, cases=5, schema_max=MAX_SCHEMA, ids=("V13", "A15", "A1", "A15"))
    assert [(r.axiom_id, r.status) for r in reports] == [("A1", PASS), ("A15", PASS), ("V13", PASS)]
    with pytest.raises(ValueError, match="^schema bound must be at most 500, got 501$"):
        run_suite(NONSTD, schema_max=MAX_SCHEMA + 1, ids=("", "B9"))
    with pytest.raises(ValueError, match="^empty axiom id$"):
        run_suite(NONSTD, ids=("B9", ""))
    with pytest.raises(ValueError, match="^unknown axiom ids: B9, V15$"):
        run_suite(NONSTD, ids=("A15", "B9", "V15"))


@pytest.mark.parametrize("cases", [0, -5])
def test_cases_must_be_positive(cases):
    message = f"^cases must be positive, got {cases}$"
    with pytest.raises(ValueError, match=message):
        check_axiom(by_id("A1"), STD, cases=cases)
    with pytest.raises(ValueError, match=message):
        run_suite(STD, cases=cases, ids=("A1",))
    with pytest.raises(ValueError, match=message):  # before a model without V2 skips it
        run_suite(PAIRS, cases=cases, ids=("V12",))


@pytest.mark.parametrize("name, value", [
    ("cases", True), ("cases", 5.0), ("cases", "5"), ("seed", False), ("seed", 1.5), ("seed", None), ("seed", "x"),
])
def test_cases_and_seed_must_be_ints(name, value):
    message = f"^{name} must be an int, got {re.escape(repr(value))}$"
    spec = by_id("A1")
    with pytest.raises(TypeError, match=message):
        check_axiom(spec, STD, **{name: value})
    assert spec._compiled == {}  # raised before anything is compiled
    with pytest.raises(TypeError, match=message):
        run_suite(STD, ids=(), **{name: value})
    with pytest.raises(TypeError, match=message):  # before a model without V2 skips it
        run_suite(PAIRS, ids=("V12",), **{name: value})


@pytest.mark.parametrize("value", [12.0, True, "12", None])
def test_schema_max_must_be_an_int(value):
    # checked before the bound's ValueErrors, which would compare a bool or
    # a float as a number
    message = f"^schema_max must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        build_axioms(value)
    with pytest.raises(TypeError, match=message):
        run_suite(STD, schema_max=value, ids=("A1",))


@pytest.mark.parametrize("ids", ["A11", ""])
def test_ids_must_not_be_a_str(ids):
    # a str is a collection of its letters, and "" is in every str
    message = f"^ids must be a collection of axiom ids, not a str, got {re.escape(repr(ids))}$"
    with pytest.raises(TypeError, match=message):
        build_axioms(ids=ids)
    with pytest.raises(TypeError, match=message):
        run_suite(STD, ids=ids)


def test_run_suite_reads_an_iterator_of_ids_once():
    # the ids are checked after the specs are built, so an iterator read
    # twice would be empty at the check and pass an unknown or empty id
    reports = run_suite(STD, cases=5, ids=iter(["A1", "A15"]))
    assert [(r.axiom_id, r.status) for r in reports] == [("A1", PASS), ("A15", PASS)]
    with pytest.raises(ValueError, match="^unknown axiom ids: ZZ$"):
        run_suite(STD, ids=iter(["A1", "ZZ"]))
    with pytest.raises(ValueError, match="^empty axiom id$"):
        run_suite(STD, ids=iter(["A1", ""]))


def test_build_axioms_filters_by_id_in_catalog_order():
    assert build_axioms(ids=()) == ()
    picked = build_axioms(ids=("A17", "V12", "A4", "B9"))
    assert [spec.id for spec in picked] == ["A4", "A17", "V12"]
    full = {spec.id: spec for spec in build_axioms()}
    assert all(spec == full[spec.id] for spec in picked)


# -- falsification power ---------------------------------------------------------------

def _reeval(report, model, spec):
    env = {name: model.parse(text) for name, text in report.counterexample}
    return eval_qf(dict(spec.obligations)[report.param], env, model)


def test_broken_v2_is_caught_with_counterexample():
    model = ConstantV2Model()
    spec = by_id("A12")
    report = check_axiom(spec, model, cases=200, seed=0)
    assert report.status == FAIL
    assert report.counterexample
    assert _reeval(report, model, spec) is False


def test_identity_v2_fails_odd_divisibility_schema():
    model = IdentityV2Model()
    spec = by_id("A17")
    report = check_axiom(spec, model, cases=200, seed=0)
    assert report.status == FAIL
    assert report.param in dict(spec.obligations)
    assert _reeval(report, model, spec) is False


def test_carryless_add_is_caught():
    model = CarrylessAddModel()
    statuses = {r.axiom_id: r.status for r in run_suite(model, seed=0, cases=200)}
    assert FAIL in statuses.values()


# The FAIL reports of the default-sized suite on each faulty model, pinned so
# that a refactor of the harness cannot change a verdict, a counterexample, a
# schema parameter or an error message unnoticed.
PINNED_FAILS = {
    ConstantV2Model: [
        Report("A12", FAIL, 1, 0, counterexample=(("x", "0"),)),
        Report("A13", FAIL, 2, 0, counterexample=(("x", "1"),)),
        Report("A14", FAIL, 1, 0, counterexample=(("h", "0"), ("x", "0"))),
        Report("A15", FAIL, 1, 0, counterexample=(("w", "1"), ("x", "0"))),
        Report("A16", FAIL, 4, 0, counterexample=(("x", "3"), ("y", "8")), error="3 is not divisible by 2"),
        Report("A17", FAIL, 4, 0, counterexample=(("x", "3"),), param=3),
        Report("V12", FAIL, 1, 0, counterexample=(("x", "0"),)),
        Report("V13", FAIL, 2, 0, counterexample=(("x", "1"),)),
        Report("V14", FAIL, 1, 0, counterexample=(("h", "0"), ("x", "0"))),
    ],
    IdentityV2Model: [
        Report("A13", FAIL, 4, 0, counterexample=(("x", "3"),)),
        Report("A16", FAIL, 3, 0, counterexample=(("m", "3"), ("x", "2"), ("y", "3"))),
        Report("A17", FAIL, 4, 0, counterexample=(("x", "3"),), param=3),
        Report("V13", FAIL, 4, 0, counterexample=(("x", "3"),)),
    ],
    CarrylessAddModel: [
        Report("A2", FAIL, 18, 0, counterexample=(
            ("u", "c-7"), ("x", "2/5c+3"), ("y", "5/6c-2"), ("z", "13/30c-1"),
        )),
        Report("A4", FAIL, 6, 0, counterexample=(
            ("u", "2c"), ("w10", "0"), ("w11", "1/11c-1"), ("w12", "0"), ("w2", "1/2c-6"),
            ("w3", "0"), ("w4", "1/4c-3"), ("w5", "0"), ("w6", "0"), ("w7", "0"), ("w8", "0"),
            ("w9", "0"), ("x", "12"), ("y", "c"),
        )),
    ],
}


@pytest.mark.parametrize("model_class", list(PINNED_FAILS), ids=lambda c: c.__name__)
def test_fail_reports_are_pinned(model_class):
    reports = run_suite(model_class(), seed=0, cases=300)
    assert [r for r in reports if r.status == FAIL] == PINNED_FAILS[model_class]


# The axioms each seeded fault fails in the default-sized suite.
SEEDED_FAULT_FAILS = {OffByOneAddModel: ["A2", "A4", "A7"], OffByOneResidueModel: ["A4"]}


@pytest.mark.parametrize("model_class", list(SEEDED_FAULT_FAILS), ids=lambda c: c.__name__)
def test_seeded_kernel_fault_is_caught(model_class):
    reports = run_suite(model_class(), seed=0, cases=300)
    assert [r.axiom_id for r in reports if r.status == FAIL] == SEEDED_FAULT_FAILS[model_class]


def test_a_fault_in_the_add_template_fails_where_the_default_suite_computes():
    # NonstandardModel's loop is unboxed: past compiled.SCALAR_SLOTS slots it
    # calls the triple forms, and below it writes the kernel's add inline, from
    # nonstandard._add's template, so that is where a fault must be put to
    # reach A2 and the smaller A4s of the default suite.  This one is
    # OffByOneAddModel's: the sum's w gains its q when both denominators are
    # divisible by 3, tested before the lines, which may overwrite the first
    # operand.
    template = nonstandard._add.template
    mutated = nonstandard.Template(
        "_add", "p1 q1 w1, p2 q2 w2", "p q w",
        "\n".join(["three = q1 % 3 == 0 and q2 % 3 == 0", *template.lines, "if three: w = w + q"]),
        **template.names,
    )

    def first_failure(spec, model, source_has=None):
        f = reduce(And, (matrix for _, matrix in spec.obligations))
        source, names = _generate(f, model, spec.derived, spec.sampled)
        if source_has is not None:  # unboxed, on the template in place
            assert names["model"] is nonstandard.TRIPLE_VIEW and source_has in source
        return compile_run(f, model, spec.sampled, spec.derived)(random.Random(0), 400, model.corners)

    try:
        for spec in (by_id("A2"), by_id("A4", schema_max=5)):
            boxed = first_failure(spec, OffByOneAddModel())
            assert boxed is not None and boxed[2] is None
            assert first_failure(spec, NonstandardModel(), "g = gcd(") is None
            nonstandard._add.template = mutated
            assert first_failure(spec, NonstandardModel(), "if three: ") == boxed
            nonstandard._add.template = template
    finally:
        nonstandard._add.template = template
        compiled._code.cache_clear()


def test_an_unboxed_loop_past_the_slot_bound_holds_tuples():
    # Up to compiled.SCALAR_SLOTS slots an element slot is three int locals;
    # past it, a slot is one (p, q, w) tuple and the loop calls the triple
    # forms, so that compiling a long loop, such as A4 at schema 12, stays
    # small.  Both answer as the interpreter does.
    for schema_max, scalar in ((6, True), (12, False)):
        spec = by_id("A4", schema_max)
        f = reduce(And, (matrix for _, matrix in spec.obligations))
        source, names = _generate(f, NONSTD, spec.derived, spec.sampled)
        assert names["model"] is nonstandard.TRIPLE_VIEW
        assert ("p0, q0, w0 = corners[i]" in source, "s3 = residue_mod(s0, c0)" in source) == (scalar, not scalar)
        assert check_axiom(spec, NonstandardModel(), cases=300, seed=1) == reference_check(spec, NONSTD, 300, 1)


# A compiled case loop whose first case is always false: every FAIL it
# reports must be refused by the interpreter, also when asserts are stripped.
UNCONFIRMED_FAIL = """
from buchi2 import axioms
from buchi2.standard import StandardModel
def compile_run(f, model, sampled, derived):
    return lambda rng, cases, corners: (1, dict(zip(sampled, corners)), None)
axioms.compile_run = compile_run
try:
    axioms.run_suite(StandardModel(), cases=3, ids=("A9",))
except AssertionError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["asserts", "optimized"])
def test_an_unconfirmed_fail_raises(flags):
    env = {**os.environ, "PYTHONPATH": str(Path(buchi2.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, *flags, "-c", UNCONFIRMED_FAIL], env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "A9: the compiled check and eval_qf disagree\n", "",
    )


def test_fail_reports_count_cases_up_to_failure():
    model = ConstantV2Model()
    report = check_axiom(by_id("A12"), model, cases=200, seed=0)
    assert 1 <= report.cases <= 200


# -- compiled obligations ----------------------------------------------------------------

def outcome(evaluate):
    try:
        return evaluate()
    except Exception as exc:
        return type(exc), str(exc)


# -- the eager reference harness ------------------------------------------------------
#
# The witnesses as the harness computed them before they became slots of the
# compiled checks: each by its own model calls, from the sampled variables,
# before any matrix runs.  The reference harness then interprets every
# matrix with eval_qf.

def _ref_difference(model, env, param):
    x, y = env["x"], env["y"]
    if model.compare(x, y) is Ordering.LESS:
        return model.sub(y, x)
    return model.numeral(0)


def _ref_predecessor(model, env, param):
    x = env["x"]
    zero = model.numeral(0)
    if model.compare(x, zero) is Ordering.EQUAL:
        return zero
    return model.sub(x, model.numeral(1))


def _ref_congruence_quotient(model, env, param):
    x, y = env["x"], env["y"]
    if model.residue_mod(x, param) != model.residue_mod(y, param):
        return model.numeral(0)
    if model.compare(x, y) is Ordering.LESS:
        x, y = y, x
    return model.divide(model.sub(x, y), param)


def _ref_halve(model, env, param):
    x = env["x"]
    if model.residue_mod(x, 2) != 0:
        return model.numeral(0)
    return model.divide(x, 2)


def _ref_next_power_of_two(model, env, param):
    return model.next_power_of_two(env["x"])


def _ref_power_gap_probe(model, env, param):
    x = env["x"]
    if model.compare(x, model.numeral(1)) is not Ordering.GREATER:
        return x
    if model.compare(model.v2(x), x) is not Ordering.EQUAL:
        return x
    return model.add(x, model.divide(x, 2))


REFERENCE_WITNESSES = {
    axioms._w_difference: _ref_difference,
    axioms._w_predecessor: _ref_predecessor,
    axioms._w_congruence_quotient: _ref_congruence_quotient,
    axioms._w_halve: _ref_halve,
    axioms._w_next_power_of_two: _ref_next_power_of_two,
    axioms._w_power_gap_probe: _ref_power_gap_probe,
}


def bind_reference_witnesses(spec, model, env):
    for name, witness, param, _ in spec.derived:
        env[name] = REFERENCE_WITNESSES[witness](model, env, param)


def sample_env(spec, model, rng, corners, case_index):
    """The env of one case: corner cases first, rotated per case, then seeded samples."""
    if case_index < len(corners):
        return {
            var: corners[(case_index + j) % len(corners)]
            for j, var in enumerate(spec.sampled)
        }
    return {var: model.sample(rng) for var in spec.sampled}


def reference_check(spec, model, cases, seed):
    """check_axiom with eager witnesses and interpreted matrices."""
    if not model.has_v2 and any(mentions(matrix, V2App) for _, matrix in spec.obligations):
        return Report(spec.id, SKIPPED, 0, seed)
    rng = random.Random(f"{seed}:{spec.id}")
    corners = model.corner_elements()
    for i in range(cases):
        env = sample_env(spec, model, rng, corners, i)
        try:
            bind_reference_witnesses(spec, model, env)
            for n, matrix in spec.obligations:
                if not eval_qf(matrix, env, model):
                    return Report(spec.id, FAIL, i + 1, seed, counterexample=axioms._format_env(model, env), param=n)
        except ValueError as exc:
            return Report(spec.id, FAIL, i + 1, seed, counterexample=axioms._format_env(model, env), error=str(exc))
    return Report(spec.id, PASS, cases, seed)


class CountingModel(NonstandardModel):
    """The non-standard model, counting calls of the operations a matrix or a witness uses."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def numeral(self, n):
        self.calls["numeral"] += 1
        return super().numeral(n)

    def add(self, x, y):
        self.calls["add"] += 1
        return super().add(x, y)

    def residue_mod(self, x, n):
        self.calls["residue_mod"] += 1
        return super().residue_mod(x, n)

    def sub(self, x, y):
        self.calls["sub"] += 1
        return super().sub(x, y)

    def divide(self, x, n):
        self.calls["divide"] += 1
        return super().divide(x, n)

    def v2(self, x):
        self.calls["v2"] += 1
        return super().v2(x)


class FifteenFirstModel(IdentityV2Model):
    """Identity V2, with 15 tried first: a power of two to the model, divisible by 3 and 5."""

    def corner_elements(self):
        return (self.numeral(15), *super().corner_elements())


class SampleCountingModel(StandardModel):
    """The standard model with a sample of its own, which counts its calls."""

    def __init__(self):
        super().__init__()
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return super().sample(rng)


class NonstandardSampleCountingModel(NonstandardModel):
    """The non-standard model with a sample of its own, which counts its calls."""

    def __init__(self):
        super().__init__()
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return super().sample(rng)


class ForwardingModel:
    """A proxy that forwards every member to a standard model and counts its own sample calls."""

    def __init__(self):
        self._model = StandardModel()
        self.draws = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def sample(self, rng):
        self.draws += 1
        return self._model.sample(rng)


CHECKED_MODELS = [NONSTD, STD, PAIRS, ConstantV2Model(), IdentityV2Model(), CarrylessAddModel()]


@pytest.mark.parametrize("model", CHECKED_MODELS, ids=lambda m: type(m).__name__)
def test_compiled_obligations_match_the_interpreter(model):
    # A false or failed case returns the derived variables it computed, and
    # a false case all of them, with the reference witnesses' values; where
    # a reference witness raises, a case either does not demand it or
    # raises the same error.
    corners = model.corner_elements()
    for spec in build_axioms():
        obligations = [m for _, m in spec.obligations]
        if not model.has_v2 and any(mentions(m, V2App) for m in obligations):
            continue  # SKIPPED by the harness
        runs = [compile_run(m, model, spec.sampled, spec.derived) for m in obligations]
        for seed in range(10):
            rng = random.Random(f"{seed}:{spec.id}")
            for case in range(len(corners) + 5):
                env = sample_env(spec, model, rng, corners, case)
                expected = dict(env)
                error = outcome(lambda: bind_reference_witnesses(spec, model, expected))
                for matrix, run in zip(obligations, runs):
                    failed = outcome(lambda: run(random.Random(0), 1, tuple(env.values())))
                    if failed is None:
                        result, got = True, env
                    elif isinstance(failed[1], dict):  # (case, env, error or None)
                        _, got, e = failed
                        result = False if e is None else (type(e), str(e))
                    else:  # an error the loop does not catch
                        result, got = failed, env
                    if error is None:
                        assert result == outcome(lambda: eval_qf(matrix, expected, model))
                        assert got.items() <= expected.items()
                        assert result is not False or got == expected
                    else:
                        assert result in (True, error)


FAULTY_MODELS = (*PINNED_FAILS, *SEEDED_FAULT_FAILS, FifteenFirstModel)


@pytest.mark.parametrize(
    "model_class",
    [NonstandardModel, StandardModel, PairsModel, CountingModel, SampleCountingModel, ForwardingModel,
     *FAULTY_MODELS],
    ids=lambda c: c.__name__,
)
def test_reports_match_the_interpreting_harness(model_class):
    # A run of k = len(corners) cases, or one either side of it, ends where
    # the corner cases give way to seeded samples.
    statuses = set()
    k = len(model_class().corner_elements())
    for schema_max in (3, 12):
        catalog = build_axioms(schema_max)
        for seed in range(5):
            for cases in (1, k - 1, k, k + 1, 60):
                expected = [reference_check(spec, model_class(), cases, seed) for spec in catalog]
                assert run_suite(model_class(), seed=seed, cases=cases, schema_max=schema_max) == expected
                statuses |= {r.status for r in expected}
    assert (FAIL in statuses) is (model_class in FAULTY_MODELS)


def test_residue_cases_share_the_residue_and_keep_the_constants():
    model = CountingModel()
    run = compile_run(dict(by_id("A11").obligations)[12], model, ("x",))
    assert answer(run, (model.numeral(11),))  # the last disjunct: every residue computed
    model.calls.clear()
    assert answer(run, (model.parse("1/3c+2"),))
    assert model.calls == {"residue_mod": 1}


def test_a_lookup_constant_that_the_check_also_reads_is_computed_once():
    # (1) The lookup computes 1, then 2, where x's residue is found; y = 1
    # then reads the 1 the lookup kept.  (2) The lookup computes 1 + 1, from
    # one numeral 1, and finds x's residue; y = 1 + 1 then reads that sum,
    # and its operands are not computed again.  A second call computes no
    # numeral.
    for text, y, numerals in (("(x == 1 mod 3 | x == 2 mod 3) & y = 1", 1, 2),
                              ("(x == 1 + 1 mod 3 | x == 0 mod 3) & y = 1 + 1", 2, 1)):
        model = CountingModel()
        run = compile_run(parse_formula(text), model, ("x", "y"))
        values = (model.numeral(2), model.numeral(y))
        for count in (numerals, 0):
            model.calls.clear()
            assert answer(run, values)
            assert model.calls["numeral"] == count, text


def test_each_numeral_is_computed_once_over_many_checks():
    model = CountingModel()
    (_, a3), = by_id("A3").obligations  # the numerals 0 and 1, each written 4 times
    run = compile_run(a3, model, ("x", "z"))
    corners = model.corner_elements()
    for k in range(10):
        answer(run, (corners[k], corners[k + 1]))
    assert model.calls["numeral"] == 2


def test_a_constant_sum_is_computed_once_over_many_checks():
    model = CountingModel()
    run = compile_run(parse_formula("x = 1 + 1 + 1"), model, ("x",))
    for x in model.corner_elements()[:5]:
        answer(run, (x,))
    assert model.calls["add"] == 2


@pytest.mark.parametrize("axiom_id, adds", [("A7", 4), ("A9", 2)])
def test_sums_are_not_rewritten(axiom_id, adds):
    # (x + y) + z and x + (y + z), x + y and y + x: different sums, each computed
    model = CountingModel()
    (_, matrix), = by_id(axiom_id).obligations
    run = compile_run(matrix, model, ("x", "y", "z"))
    for x in model.corner_elements()[:5]:
        model.calls.clear()
        assert answer(run, (x, model.parse("c-3"), model.parse("2/7c")))
        assert model.calls["add"] == adds


def test_congruence_schema_add_count():
    # x = 12, y = 0: x == y mod n holds for n = 2, 3, 4, 6, 12, and each of
    # those n adds n - 1 times for wn + ... + wn and once more for + y.  Every
    # n then needs u + ... + u + y: compiled, the n - 1 summand prefix is
    # shared with the previous n, so that is 2 adds; interpreted, it is n.
    spec = by_id("A4")
    (_, matrix), = spec.obligations
    model = CountingModel()
    env = {"x": model.numeral(12), "y": model.numeral(0), "u": model.parse("c+1")}
    run = compile_run(matrix, model, tuple(env), spec.derived)
    for _ in range(2):
        model.calls.clear()
        assert answer(run, env.values())
        assert model.calls["add"] == (2 + 3 + 4 + 6 + 12) + 2 * 11 == 49
    bind_reference_witnesses(spec, model, env)
    model.calls.clear()
    assert eval_qf(matrix, env, model)
    assert model.calls["add"] == (2 + 3 + 4 + 6 + 12) + sum(range(2, 13)) == 104


# -- one check per axiom ------------------------------------------------------------

@pytest.mark.parametrize("axiom_id, calls", [
    # one V2(x) a case and one 0 for all five n
    ("A17", {"v2": 100, "numeral": 1, "residue_mod": 45}),
    # one numeral j for all n > j
    ("A11", {"numeral": 12, "residue_mod": 1177}),
])
def test_a_schemas_obligations_share_their_slots(axiom_id, calls):
    model = CountingModel()
    assert check_axiom(by_id(axiom_id), model, cases=100, seed=0).status == PASS
    assert model.calls == calls


def test_a_false_check_reports_the_first_false_obligation():
    model, spec = FifteenFirstModel(), by_id("A17")
    env = {"x": model.numeral(15)}
    assert [n for n, m in spec.obligations if not eval_qf(m, env, model)] == [3, 5]
    report = check_axiom(spec, model, cases=10, seed=0)
    assert report == Report("A17", FAIL, 1, 0, counterexample=(("x", "15"),), param=3)


def test_a_spec_without_obligations_passes():
    spec = AxiomSpec(id="E", text="forall x. x = x", sampled=("x",), obligations=())
    for model in (NONSTD, STD, PAIRS):
        assert check_axiom(spec, model, cases=7) == Report("E", PASS, 7, 0)


def test_a_compilation_leaves_no_reference_cycle():
    # With the collector off, a dropped case loop must be freed by its
    # reference counts alone, also once it has run; A11's and L's residue
    # lookups keep their constants in per-loop state.
    specs = (by_id("A4"), by_id("A11"),
             AxiomSpec("L", "", sampled=("x", "y"), obligations=_one("(x == 1 + 1 mod 3 | x == 0 mod 3) & y = 1 + 1")))
    corners = NONSTD.corner_elements()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in specs:
            matrix = reduce(And, (m for _, m in spec.obligations))
            gc.collect()
            compile_run(matrix, NONSTD, spec.sampled, spec.derived)(random.Random(0), 30, corners)
            assert gc.collect() == 0, spec.id
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("model", [NONSTD, StandardModel()], ids=["nonstd", "std"])
def test_residue_cases_compile_to_fewer_objects_than_disjuncts(model):
    # Each obligation x == 0 mod n | ... | x == n-1 mod n is one lookup
    # node; only the numerals 0..199 are slots, shared by every n.
    spec = by_id("A11", 200)
    matrix = reduce(And, (m for _, m in spec.obligations))
    disjuncts = sum(n for n, _ in spec.obligations)
    assert disjuncts == 20_099
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = len(gc.get_objects())
        run = compile_run(matrix, model, spec.sampled, spec.derived)
        gc.collect()
        created = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert answer(run, (model.numeral(7),))
    assert created < disjuncts


def test_the_code_of_a4_grows_linearly_with_the_schema():
    # each w_n + ... + w_n is a loop, so a schema's code does not grow with its square
    def lines(schema_max):
        spec = by_id("A4", schema_max)
        (_, matrix), = spec.obligations
        return len(_generate(matrix, STD, spec.derived, spec.sampled)[0].splitlines())
    assert lines(24) < 2.5 * lines(12)
    assert lines(48) < 2.5 * lines(24)


def test_a_constant_residue_is_one_line_where_it_is_demanded():
    # Each A17 obligation compares x's residue with 0's: the code that
    # demands 0 mod n does not also test for, or compute, the numeral 0.
    # The case loop, from its first line on, has 6,296 characters; the
    # whole source had 8,287 when each demand did.
    spec = by_id("A17", 50)
    matrix = reduce(And, (m for _, m in spec.obligations))
    source = _generate(matrix, STD, spec.derived, spec.sampled)[0]
    assert len(source[source.index(" for i in range(cases):"):]) <= 6_296


# -- compiled checks are kept per model object ---------------------------------------

@dataclass
class DataclassModel(StandardModel):
    """The standard model as a dataclass with ``==``: its instances are unhashable."""

    offset_bound: int = 10**6


def test_run_suite_takes_an_unhashable_model():
    model = DataclassModel()
    with pytest.raises(TypeError):
        hash(model)
    assert {r.status for r in run_suite(model, cases=20)} == {PASS}


@dataclass(frozen=True)
class FrozenCountingModel(StandardModel):
    """Equal instances hash alike; each counts its own numeral calls."""

    offset_bound: int = 10**6
    calls: Counter = field(default_factory=Counter, compare=False)

    def numeral(self, n):
        self.calls["numeral"] += 1
        return n


def test_equal_models_get_their_own_checks():
    spec, a, b = by_id("A3"), FrozenCountingModel(), FrozenCountingModel()
    assert a == b and hash(a) == hash(b) and a is not b
    for model in (a, b):
        assert check_axiom(spec, model, cases=10).status == PASS
    assert a.calls == b.calls == {"numeral": 2}  # 0 and 1, once each


def test_a_spec_compiles_once_per_model(monkeypatch):
    compiled = Counter()

    def counted(f, model, sampled, derived):
        compiled[id(model)] += 1
        return compile_run(f, model, sampled, derived)

    monkeypatch.setattr(axioms, "compile_run", counted)
    spec, a, b, c = by_id("A11"), StandardModel(), StandardModel(), StandardModel()
    for model in (a, b, a, b, a):
        assert check_axiom(spec, model, cases=10).status == PASS
    assert compiled == {id(a): 1, id(b): 1}  # one check for all the schema parameters
    for model in (c, a, b):  # c takes b's place, the less recently checked
        assert check_axiom(spec, model, cases=10).status == PASS
    assert compiled == {id(a): 1, id(b): 2, id(c): 1}
    assert list(spec._compiled) == [id(a), id(b)]


def test_compiled_checks_are_kept_for_the_last_two_models():
    # A process that checks one spec against many model objects keeps two
    # entries; at schema 3 so that 2,000 compilations stay quick.
    spec = by_id("A4", schema_max=3)
    tracemalloc.start()
    try:
        for k in range(2000):
            assert check_axiom(spec, NonstandardModel(), cases=1).status == PASS
            if k == 99:
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(spec._compiled) <= 2
    assert grown < 100_000  # about 9 KB per kept entry when every entry is kept


@pytest.fixture
def compiles(monkeypatch):
    """The source of each compilation of a check from here on, in order."""
    sources = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename == "<compile_run>":
            sources.append(source)
        return real(source, filename, *args, **kwargs)

    compiled._code.cache_clear()
    monkeypatch.setattr(builtins, "compile", counting)
    return sources


def test_a_check_compiles_once_for_every_model(compiles):
    # The source depends on the model only through the operations written as
    # Python operators, so one spec checked against fresh models is compiled
    # once per set of those: nonstd instances share one code object, and
    # std, pairs and nonstd each have their own; each model keeps its check.
    spec = by_id("A4", schema_max=3)
    checks = []
    for model in (NonstandardModel(), StandardModel(), PairsModel()) * 2:
        assert check_axiom(spec, model, cases=1).status == PASS
        checks.append(spec._compiled[id(model)][1])
    assert len(compiles) == len(set(compiles)) == 3
    firsts, seconds = checks[:3], checks[3:]
    assert all(a.__code__ is b.__code__ and a.__globals__ is not b.__globals__ for a, b in zip(firsts, seconds))
    assert len({id(check.__code__) for check in firsts}) == 3


def test_the_code_cache_holds_the_catalog_for_every_model(compiles):
    # Each spec keeps the checks of its last two models, so cycling three
    # models generates every source again; none compiles again.
    catalog = build_axioms(12)
    for model in (NonstandardModel(), StandardModel(), PairsModel()) * 2:
        for spec in catalog:
            check_axiom(spec, model, cases=1)
    assert len(compiles) == len(set(compiles))


def test_a_checked_spec_pickles_and_copies_with_an_empty_cache():
    spec = by_id("A8")
    assert check_axiom(spec, STD, cases=5).status == PASS
    for copied in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert copied == spec and hash(copied) == hash(spec) and repr(copied) == repr(spec)
        assert copied._compiled == {} and copied._compiled is not spec._compiled
        assert check_axiom(copied, STD, cases=5) == check_axiom(spec, STD, cases=5)
    assert len(spec._compiled) == 1


def in_threads(n, call):
    """call() in n threads that start together: each one's result, or the exception it raised."""
    barrier, results = threading.Barrier(n, timeout=10), [None] * n

    def work(j):
        barrier.wait()
        try:
            results[j] = call()
        except Exception as exc:
            results[j] = exc

    threads = [threading.Thread(target=work, args=(j,)) for j in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_check_axiom_may_be_called_from_several_threads():
    # Four threads check one spec on one model at once, so they share the
    # loop the spec keeps for it.  A11's residue lookup keeps its state
    # across calls; with a 1 us switch interval, calls that ran one loop at
    # once lost residues (AssertionError) or popped an empty list (IndexError).
    interval = sys.getswitchinterval()
    try:
        for spec, trials in zip(build_axioms(40, ids=("A4", "A11")), (3, 50)):
            for model_class in (StandardModel, NonstandardModel):
                expected = check_axiom(copy.copy(spec), model_class(), cases=20)
                sys.setswitchinterval(1e-6)
                for _ in range(trials):
                    shared, model = copy.copy(spec), model_class()  # a copy starts with no loop
                    check_axiom(shared, model, cases=1)  # compiled here: the threads share its loop
                    reports = in_threads(4, lambda: check_axiom(shared, model, cases=20))
                    assert reports == [expected] * 4, (spec.id, model.name)
                sys.setswitchinterval(interval)
    finally:
        sys.setswitchinterval(interval)


# -- the case loop ----------------------------------------------------------------------

@pytest.mark.parametrize("offset_bound", [1, 2, 3, 2**20 - 1, 2**20, 10**6, 10**23])
def test_inline_draws_are_the_standard_models_draws(offset_bound):
    # Each edge of the rejection loop, and a draw wider than 64 bits; a
    # second model with another bound shares the code but not the bound.
    false, true = parse_formula("~ (x = x & y = y)"), parse_formula("x = x")
    runs = []
    for bound in (offset_bound, 2 * offset_bound):
        model = StandardModel(offset_bound=bound)
        run = compile_run(false, model, ("x", "y"))
        inline, called = random.Random(bound), random.Random(bound)
        drawn = []
        for _ in range(100):  # a false first case returns what it drew
            case, env, error = run(inline, 1, ())
            assert (case, error) == (1, None)
            assert env == {"x": model.sample(called), "y": model.sample(called)}
            assert inline.getstate() == called.getstate()
            drawn += env.values()
        assert max(drawn) <= bound
        if bound < 5:
            assert set(drawn) == set(range(bound + 1))
        assert compile_run(true, model, ("x", "y"))(inline, 300, ()) is None
        for _ in range(600):
            model.sample(called)
        assert inline.getstate() == called.getstate()
        runs.append(run)
    first, second = runs
    assert first.__code__ is second.__code__ and first.__globals__ is not second.__globals__


@pytest.mark.parametrize("model_class", [SampleCountingModel, ForwardingModel, NonstandardSampleCountingModel],
                         ids=lambda c: c.__name__)
def test_a_sample_of_its_own_is_called_once_per_draw(model_class):
    # Its loop calls it for each draw; a non-standard one gets a loop on Elements.
    spec, model = by_id("A7"), model_class()
    plain = NonstandardModel() if isinstance(model, NonstandardModel) else StandardModel()
    run = compile_run(reduce(And, (matrix for _, matrix in spec.obligations)), model, spec.sampled)
    assert "sample" in run.__code__.co_names and not on_triples(run)
    cases = len(model.corner_elements()) + 50
    assert check_axiom(spec, model, cases=cases) == check_axiom(spec, plain, cases=cases)
    assert model.draws == 3 * 50


def test_a_repeated_sampled_name_is_drawn_each_time():
    # The last draw, or rotated corner, of a repeated name is its value.
    spec = AxiomSpec("R", "forall x. forall y. ~ x = y", sampled=("x", "y", "x"), obligations=_one("~ x = y"))
    model = StandardModel(offset_bound=3)
    report = check_axiom(spec, model, cases=100)
    assert report.status == FAIL and report.cases > len(model.corner_elements())
    assert report == reference_check(spec, model, 100, 0)


class BoxedModel(NonstandardModel):
    """The non-standard model with a sample of its own, so that its case loops hold Elements."""

    def sample(self, rng):
        return super().sample(rng)


def on_triples(run):
    """Whether a case loop holds its slots as (p, q, w) triples."""
    return "triples" in run.__code__.co_names


DRAW_EDGES = [(den_bound, offset_bound) for den_bound in (1, 2**10 - 1, 2**10)
              for offset_bound in (1, 2**20 - 1, 2**20, 10**23)]
DRAW_BOUNDS = pytest.mark.parametrize("bounds", [(), (7, 3), *DRAW_EDGES], ids=[
    "default bounds", "den_bound 7, offset_bound 3", *(f"den_bound {d}, offset_bound {o}" for d, o in DRAW_EDGES)])


def draws_as_sample(models, runs, seeds):
    """Check that each loop's false first case draws x and y as its model's sample does; the draws."""
    drawn = []
    for seed in seeds:
        for model, run in zip(models, runs):
            inline, called = random.Random(seed), random.Random(seed)
            case, env, error = run(inline, 1, ())
            assert (case, error) == (1, None)
            assert env == {"x": model.sample(called), "y": model.sample(called)}
            assert inline.getstate() == called.getstate()
            drawn += env.values()
    return drawn


def inline_loops(model, other):
    """x < x's loops on two models of a class, drawn inline: one code, two sets of globals."""
    runs = [compile_run(parse_formula("x < x"), m, ("x", "y")) for m in (model, other)]
    assert all("sample" not in run.__code__.co_names for run in runs)  # a called sampler fails here
    first, second = runs
    assert first.__code__ is second.__code__ and first.__globals__ is not second.__globals__
    return runs


def swap_bounds(model, other):
    (model.den_bound, model.offset_bound), (other.den_bound, other.offset_bound) = (
        (other.den_bound, other.offset_bound), (model.den_bound, model.offset_bound))


@DRAW_BOUNDS
def test_a_loop_on_triples_draws_what_sample_draws(bounds):
    # x < x is false, so a first case returns the two elements it drew.
    # Small bounds draw the standard and the hypernumber branches' bounds
    # too; the edges are each rejection loop's bit-length edges, and 10**23
    # draws offsets wider than 64 bits.  A second model with other bounds
    # shares the loop's code but not its globals; once the two swap their
    # bounds, each loop draws with its model's new ones.
    model = NonstandardModel(*bounds)
    other = NonstandardModel(model.den_bound + 1, 2 * model.offset_bound)
    runs = inline_loops(model, other)
    assert all(map(on_triples, runs))
    drawn = draws_as_sample((model, other), runs, range(2000))
    branches = Counter("standard" if not x.p else "hypernumber" if not x.w else "galaxy" for x in drawn)
    assert len(branches) == 3 and min(branches.values()) > 400
    swap_bounds(model, other)
    draws_as_sample((model, other), runs, range(200))


@DRAW_BOUNDS
def test_a_pairs_loop_draws_what_sample_draws(bounds):
    # As on triples: the pairs model's loop draws its pairs inline.
    model = PairsModel(*bounds)
    other = PairsModel(model.den_bound + 1, 2 * model.offset_bound)
    runs = inline_loops(model, other)
    drawn = draws_as_sample((model, other), runs, range(2000))
    branches = Counter("standard" if not x.g else "galaxy" for x in drawn)
    assert len(branches) == 2 and min(branches.values()) > 400
    swap_bounds(model, other)
    draws_as_sample((model, other), runs, range(200))


@pytest.mark.parametrize("model_class", [NonstandardModel, StandardModel, PairsModel], ids=lambda c: c.name)
def test_a_checked_model_is_checked_with_the_bounds_it_has_now(model_class):
    # x = y, neither 0, is false only on a repeated draw, which bounds of 1
    # make likely.  A spec keeps its loop per model object, so the loop
    # compiled under the default bounds must read the new ones when it
    # runs, as sample does; so must a loop that compile_run wrote before.
    text = "(x = 0 | y = 0) | ~ x = y"
    spec = AxiomSpec("B", f"forall x. forall y. {text}", sampled=("x", "y"), obligations=_one(text))
    model = model_class()
    run = compile_run(parse_formula("x < x"), model, ("x", "y"))
    assert check_axiom(spec, model, cases=100).status == PASS
    model.offset_bound = model.den_bound = 1
    report = check_axiom(spec, model, cases=100)
    assert report == check_axiom(spec, model_class(1, 1), cases=100) and report.status == FAIL
    draws_as_sample((model,), (run,), range(200))


@pytest.mark.parametrize("negated", [False, True], ids=["check", "negated check"])
def test_a_loop_on_triples_returns_what_a_loop_on_elements_returns(negated):
    # The negated check fails on nearly every case, so each case returns
    # its sampled and derived variables, boxed, and any witness error.
    unboxed, boxed = NonstandardModel(), BoxedModel()
    corners = unboxed.corner_elements()

    def result(failed):
        return failed if failed is None else (*failed[:2], type(failed[2]), str(failed[2]))

    for spec in build_axioms(12):
        f = reduce(And, (matrix for _, matrix in spec.obligations))
        f = Not(f) if negated else f
        runs = [compile_run(f, model, spec.sampled, spec.derived) for model in (unboxed, boxed)]
        assert [on_triples(run) for run in runs] == [True, False]
        for seed in range(5):
            rngs = [random.Random(seed) for _ in runs]
            if not negated:
                assert result(runs[0](rngs[0], 300, corners)) == result(runs[1](rngs[1], 300, corners)), spec.id
                continue
            for j in range(len(corners)):  # case 1 starts at each corner, then draws
                rotated = corners[j:] + corners[:j]
                assert result(runs[0](rngs[0], 1, rotated)) == result(runs[1](rngs[1], 1, rotated)), spec.id
            for _ in range(30):
                assert result(runs[0](rngs[0], 1, ())) == result(runs[1](rngs[1], 1, ())), spec.id
            assert rngs[0].getstate() == rngs[1].getstate()


@pytest.mark.parametrize("corner", [0, None, "c", BoxedModel.corners[6].galaxy])
def test_a_loop_on_triples_takes_only_elements_as_corners(corner):
    # It unboxes its corners on entry: one that is not an Element raises
    # before the first case, though the formula never reads it.
    run = compile_run(parse_formula("x = x"), NONSTD, ("x",))
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(TypeError, match="must be Elements"):
        run(rng, 1, (NONSTD.corners[6], corner))
    assert rng.getstate() == state
    assert compile_run(parse_formula("x = x"), BoxedModel(), ("x",))(rng, 1, (NONSTD.corners[6], corner)) is None


def own(op):
    """A NonstandardModel subclass with op of its own: the kernel's, counting its calls."""
    kernel = getattr(NonstandardModel, op)

    def counted(self, *args):
        self.calls += 1
        return kernel(*args)

    return type(f"Own_{op}", (NonstandardModel,), {op: counted, "calls": 0})


@pytest.mark.parametrize("op, ids", [
    ("sub", ("A2", "A8")), ("divide", ("A4", "A14")), ("next_power_of_two", ("A15",)),
])
def test_a_model_that_overrides_an_operation_of_a_witness_gets_a_loop_on_elements(op, ids):
    # The catalog witnesses call op: in a loop on triples they would call the
    # kernel's triple form, not the override.
    model = own(op)()
    for spec in build_axioms(12, ids):
        f = reduce(And, (matrix for _, matrix in spec.obligations))
        assert not on_triples(compile_run(f, model, spec.sampled, spec.derived)), spec.id
        calls = model.calls
        assert check_axiom(spec, model, cases=300) == check_axiom(spec, NonstandardModel(), cases=300), spec.id
        assert model.calls > calls, spec.id


def _w_backwards(model, param, x, y):
    return model.sub(y, x)


def _w_third(model, param, x):
    return model.divide(x, param)


@pytest.mark.parametrize("matrix, derived, error", [
    ("d = d", (("d", _w_backwards, None, (Variable("x"), Variable("y"))),), "1/2c < 4c"),
    ("x = V2(x) | d = d", (("d", _w_third, 3, (Variable("x"),)),), "1/3c+5 is not divisible by 3"),
], ids=["sub below zero", "divide with no quotient"])
def test_a_witness_error_on_triples_is_the_error_on_elements(matrix, derived, error):
    # No catalog witness raises on the kernel, so these reach the raise
    # paths of the triple forms from a loop: first on the corners, then on
    # drawn elements.
    spec = AxiomSpec("E", f"forall x. forall y. exists d. {matrix}", sampled=("x", "y"), obligations=_one(matrix),
                     derived=derived)
    unboxed, boxed = NonstandardModel(), BoxedModel()
    report = check_axiom(spec, unboxed, cases=100)
    assert report.status == FAIL and report.error == error
    assert report == check_axiom(spec, boxed, cases=100)
    runs = [compile_run(parse_formula(matrix), model, spec.sampled, derived) for model in (unboxed, boxed)]
    assert [on_triples(run) for run in runs] == [True, False]
    errors = Counter()
    for seed in range(300):
        results = [run(random.Random(seed), 1, ()) for run in runs]
        results = [failed and (*failed[:2], type(failed[2]), str(failed[2])) for failed in results]
        assert results[0] == results[1]
        errors[results[0] and results[0][2]] += 1
    assert errors[NegativeResultError] + errors[NotDivisibleError] > 50


class BareModel(Model):
    """A model on ints that declares only what a case loop's source reads and ``Model`` has no default for."""

    name = "bare"
    corners = StandardModel.corners

    def numeral(self, n):
        return n


# Each operation's inline form in a case loop's source, and its call.
INLINE_AND_CALL = {
    "add": (r"s\d+ \+ s\d+", r"\badd\("),
    "compare": (r"s\d+ < s\d+", r"\bcompare\("),
    "residue_mod": (r"s\d+ % c\d+", r"\bresidue_mod\("),
    "sample": (r"draw\(bits\)", r"\bsample\(rng\)"),
}


def catalog_sources(model):
    return [
        _generate(reduce(And, (matrix for _, matrix in spec.obligations)), model, spec.derived, spec.sampled)[0]
        for spec in build_axioms(12) if spec.obligations
    ]


def test_a_model_that_keeps_models_operations_runs_the_standard_models_code():
    # The loop inlines Model's own operations, not the standard model's:
    # a model that keeps them all compiles to the standard model's code.
    for bare, std in zip(catalog_sources(BareModel()), catalog_sources(STD), strict=True):
        assert compiled._code(bare) is compiled._code(std)


@pytest.mark.parametrize("op", list(INLINE_AND_CALL))
def test_a_model_that_overrides_one_operation_calls_it_and_inlines_the_rest(op):
    class Overriding(BareModel):
        calls = 0

    def counted(self, *args):  # Model's own operation, counted
        self.calls += 1
        return getattr(super(Overriding, self), op)(*args)

    setattr(Overriding, op, counted)
    source = "\n".join(catalog_sources(Overriding()))
    for name, (inline, call) in INLINE_AND_CALL.items():
        written, unwritten = (call, inline) if name == op else (inline, call)
        assert re.search(written, source) and not re.search(unwritten, source), name
    model, f = Overriding(), parse_formula("x + y = y + x & (x < x + y | y = 0) & x + y == y + x mod 3")
    cases = len(model.corners) + 20
    assert compile_run(f, model, ("x", "y"))(random.Random(0), cases, model.corners) is None
    assert model.calls == 2 * 20 if op == "sample" else model.calls > 0


def _same(model, param, x):
    return x


def _zero_only(model, param, x):
    if x != 0:
        raise ValueError(f"{x} is not zero")
    return x


@pytest.mark.parametrize("matrix", ["(x = 0 -> a = x) & b = x", "b + a = x + x"])
def test_a_failed_case_reports_only_the_witnesses_it_computed(matrix):
    # Case 1 (x = 0) computes a and b; case 2 (x = 1) raises in b and does
    # not compute a: it does not read a, or would read it after b.  So a is
    # not in its counterexample.
    x = Variable("x")
    spec = AxiomSpec(
        "W", f"forall x. exists a. exists b. ({matrix})", sampled=("x",), obligations=_one(matrix),
        derived=(("a", _same, None, (x,)), ("b", _zero_only, None, (x,))),
    )
    report = check_axiom(spec, STD, cases=5)
    assert report == Report("W", FAIL, 2, 0, counterexample=(("x", "1"),), error="1 is not zero")


X = Variable("x")


@pytest.mark.parametrize("sampled, derived", [
    (("x", "w"), (("w", _same, None, (X,)),)),
    (("x",), (("w", _same, None, (X,)), ("w", _same, None, (X,)))),
    (("x",), (("v", _same, None, (Variable("w"),)), ("w", _same, None, (X,)))),
    (("x",), (("w", _same, None, ((Variable("w"), 2),)),)),
], ids=["sampled", "derived twice", "read by an earlier witness", "read by its own witness"])
def test_a_derived_name_that_is_already_a_variable_raises(sampled, derived):
    # Its slot would be the other variable's, so its witness would never run.
    # A spec is refused when it is built, not at its first check on a model,
    # so also where a model without V2 would skip every check of it.
    message = "^derived variable 'w' is sampled, derived twice or read before it is derived$"
    with pytest.raises(ValueError, match=message):
        compile_run(parse_formula("w = x + 1"), STD, sampled, derived)
    for matrix in ("w = x + 1", "V2(w) = x"):
        with pytest.raises(ValueError, match=message):
            AxiomSpec("W", f"forall x. exists w. {matrix}", sampled=sampled, obligations=_one(matrix), derived=derived)


# -- witnesses are computed on demand --------------------------------------------------

def _never_called(model, param, *values):
    raise AssertionError("a witness behind a false antecedent was computed")


def test_a_witness_behind_a_false_antecedent_is_never_called():
    derived = (("w", _never_called, None, (Variable("x"),)),)
    assert one_case(parse_formula("x = 0 -> x = w + x"), STD, {"x": 5}, derived) is True
    # A4 on two elements that agree modulo no n in 2..12: no witness runs.
    spec = by_id("A4")
    (_, matrix), = spec.obligations
    derived = tuple((name, _never_called, n, reads) for name, _, n, reads in spec.derived)
    assert one_case(matrix, STD, {"x": 0, "y": 1, "u": 7}, derived) is True


def test_a_demanded_witness_error_is_the_reference_witness_error():
    model, spec = ConstantV2Model(), by_id("A16")  # v2(3) = 3: m = 3 + 3/2 is demanded
    (_, matrix), = spec.obligations
    env = {"x": model.numeral(3), "y": model.numeral(8)}
    error = outcome(lambda: bind_reference_witnesses(spec, model, dict(env)))
    assert error == (NotDivisibleError, "3 is not divisible by 2")
    case, bound, e = compile_run(matrix, model, tuple(env), spec.derived)(random.Random(0), 1, tuple(env.values()))
    assert (case, bound, (type(e), str(e))) == (1, env, error)


def test_a_false_check_computes_the_witnesses_it_did_not_demand_in_order():
    computed = []

    def halve(model, param, x):
        computed.append("a")
        return model.divide(x, 2)

    def double(model, param, x):
        computed.append("b")
        return model.add(x, x)

    x = Variable("x")
    derived = (("a", halve, None, (x,)), ("b", double, None, (x,)))
    run = compile_run(parse_formula("x = 1 & b = x + x"), STD, ("x",), derived)
    for value, failed, order in [
        (1, None, ["b"]),  # a true case: a is not demanded
        (4, (1, {"x": 4, "a": 2, "b": 8}, None), ["a", "b"]),  # a false case computes both, in order
        (3, (1, {"x": 3}, (NotDivisibleError, "3 is not divisible by 2")), ["a"]),
    ]:
        computed.clear()
        result = run(random.Random(0), 1, (value,))
        if result is not None:
            case, env, error = result
            result = case, env, error and (type(error), str(error))
        assert result == failed
        assert computed == order


def test_congruence_witnesses_read_the_matrix_residues():
    # Per n and case the matrix takes the residues of x, y and u + ... + u + y.
    # Computed up front, the witnesses take x's and y's again: 55 residues a
    # case.  As slots they run only where x == y mod n and read the matrix's
    # own: 33.  Their zero is a kept numeral; sums, differences and
    # quotients are as many as up front.
    spec = by_id("A4")
    (_, matrix), = spec.obligations
    lazy, eager = CountingModel(), CountingModel()
    assert check_axiom(spec, lazy, cases=2000, seed=0).status == PASS
    run = compile_run(matrix, eager, (*spec.sampled, *(name for name, *_ in spec.derived)))  # witnesses sampled
    rng, corners = random.Random(f"0:{spec.id}"), eager.corner_elements()
    for i in range(2000):
        env = sample_env(spec, eager, rng, corners, i)
        bind_reference_witnesses(spec, eager, env)
        assert answer(run, env.values())
    assert (lazy.calls["residue_mod"], eager.calls["residue_mod"]) == (33 * 2000, 55 * 2000)
    assert lazy.calls["numeral"] == 1 < eager.calls["numeral"]
    for op in ("add", "sub", "divide"):
        assert lazy.calls[op] == eager.calls[op] > 0, op
