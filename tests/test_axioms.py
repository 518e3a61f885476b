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
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import pytest

import buchi2

from buchi2 import axioms, compiled
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
from buchi2.formulas import And, Numeral, V2App, Variable, eval_qf, mentions, parse_formula
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
    # 8,287 characters when each demand did.
    spec = by_id("A17", 50)
    matrix = reduce(And, (m for _, m in spec.obligations))
    assert len(_generate(matrix, STD, spec.derived, spec.sampled)[0]) <= 6_760


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


@pytest.mark.parametrize("model_class", [SampleCountingModel, ForwardingModel], ids=lambda c: c.__name__)
def test_a_sample_of_its_own_is_called_once_per_draw(model_class):
    spec, model = by_id("A7"), model_class()
    cases = len(model.corner_elements()) + 50
    assert check_axiom(spec, model, cases=cases) == check_axiom(spec, StandardModel(), cases=cases)
    assert model.draws == 3 * 50


def test_a_repeated_sampled_name_is_drawn_each_time():
    # The last draw, or rotated corner, of a repeated name is its value.
    spec = AxiomSpec("R", "forall x. forall y. ~ x = y", sampled=("x", "y", "x"), obligations=_one("~ x = y"))
    model = StandardModel(offset_bound=3)
    report = check_axiom(spec, model, cases=100)
    assert report.status == FAIL and report.cases > len(model.corner_elements())
    assert report == reference_check(spec, model, 100, 0)


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
