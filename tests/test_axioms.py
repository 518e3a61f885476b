"""Axiom catalog shape and harness behavior, including falsification power."""

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import buchi2

from buchi2 import axioms, nonstandard
from buchi2.axioms import (
    FAIL,
    MAX_SCHEMA,
    PASS,
    SKIPPED,
    Report,
    build_axioms,
    check_axiom,
    run_suite,
)
from buchi2.axioms import _congruence_matrix, _odd_indivisibility_matrix, _residue_cases_matrix
from buchi2.formulas import V2App, compile_qf, eval_qf, mentions, parse_formula
from buchi2.nonstandard import Element, Model, NonstandardModel
from buchi2.pairs import PairsModel
from buchi2.standard import StandardModel

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
    assert by_id("A1").derived == ()
    assert by_id("A15").derived == (("w", axioms._w_next_power_of_two, None),)
    assert by_id("A2").derived[0][1] is axioms._w_difference
    assert by_id("A8").derived[0][1] is axioms._w_predecessor
    assert by_id("A4").derived == tuple((f"w{n}", axioms._w_congruence_quotient, n) for n in range(2, 13))


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
    reports = run_suite(STD, cases=2, schema_max=MAX_SCHEMA, ids=("A4", "A11", "A17"))
    assert [r.status for r in reports] == [PASS] * 3


def test_schema_max_too_small_rejected():
    with pytest.raises(ValueError):
        build_axioms(2)


# -- the model interface ------------------------------------------------------------

@pytest.mark.parametrize("model_class", [NonstandardModel, StandardModel, PairsModel])
def test_models_provide_the_interface(model_class):
    members = {name for name in [*Model.__annotations__, *vars(Model)] if not name.startswith("_")}
    assert len(members) == 14
    model = model_class()
    for name in members - {"v2", "next_power_of_two"}:
        assert hasattr(model, name), name
    for name in ("v2", "next_power_of_two"):
        assert hasattr(model, name) == model.has_v2, name
    assert model.corner_elements() is model_class().corner_elements()  # built once


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


def test_build_axioms_filters_by_id_in_catalog_order():
    assert build_axioms(ids=()) == ()
    picked = build_axioms(ids=("A17", "V12", "A4", "B9"))
    assert [spec.id for spec in picked] == ["A4", "A17", "V12"]
    full = {spec.id: spec for spec in build_axioms()}
    assert all(spec == full[spec.id] for spec in picked)


# -- falsification power ---------------------------------------------------------------

class ConstantV2Model(NonstandardModel):
    """v2 deliberately broken: always 3."""

    def v2(self, x):
        return self.numeral(3)


class IdentityV2Model(NonstandardModel):
    """v2 deliberately broken: identity, so everything looks like a power of two."""

    def v2(self, x):
        return x


class CarrylessAddModel(NonstandardModel):
    """add deliberately broken: drops the base-point carry."""

    def add(self, x, y):
        return Element(x.galaxy + y.galaxy, x.offset + y.offset)


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


class OffByOneAddModel(NonstandardModel):
    """add deliberately broken: one too many when both denominators are divisible by 3."""

    def add(self, x, y):
        z = nonstandard.add(x, y)
        return nonstandard.add(z, nonstandard.ONE) if x.q % 3 == 0 and y.q % 3 == 0 else z


class OffByOneResidueModel(NonstandardModel):
    """residue_mod deliberately broken: one too many modulo 5 when 7 divides the denominator."""

    def residue_mod(self, x, n):
        return (nonstandard.residue_mod(x, n) + (n == 5 and x.q % 7 == 0)) % n


# The axioms each seeded fault fails in the default-sized suite.
SEEDED_FAULT_FAILS = {OffByOneAddModel: ["A2", "A4", "A7"], OffByOneResidueModel: ["A4"]}


@pytest.mark.parametrize("model_class", list(SEEDED_FAULT_FAILS), ids=lambda c: c.__name__)
def test_seeded_kernel_fault_is_caught(model_class):
    reports = run_suite(model_class(), seed=0, cases=300)
    assert [r.axiom_id for r in reports if r.status == FAIL] == SEEDED_FAULT_FAILS[model_class]


# A compiled check that is always false: every FAIL it reports must be
# refused by the interpreter, also when asserts are stripped.
UNCONFIRMED_FAIL = """
from buchi2 import axioms
from buchi2.standard import StandardModel
axioms.compile_qf = lambda f, model: lambda env: False
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


CHECKED_MODELS = [NONSTD, STD, PAIRS, ConstantV2Model(), IdentityV2Model(), CarrylessAddModel()]


@pytest.mark.parametrize("model", CHECKED_MODELS, ids=lambda m: type(m).__name__)
def test_compiled_obligations_match_the_interpreter(model):
    corners = model.corner_elements()
    for spec in build_axioms():
        obligations = [m for _, m in spec.obligations]
        if not model.has_v2 and any(mentions(m, V2App) for m in obligations):
            continue  # SKIPPED by the harness
        checks = [compile_qf(m, model) for m in obligations]
        for seed in range(10):
            rng = random.Random(f"{seed}:{spec.id}")
            for case in range(len(corners) + 5):
                env = axioms._sample_env(spec, model, rng, corners, case)
                try:
                    for var, witness, param in spec.derived:
                        env[var] = witness(model, env, param)
                except (ArithmeticError, ValueError):
                    continue  # a witness error, reported before any matrix runs
                for matrix, check in zip(obligations, checks):
                    assert outcome(lambda: check(env)) == outcome(lambda: eval_qf(matrix, env, model))


@pytest.mark.parametrize("model_class", list(PINNED_FAILS), ids=lambda c: c.__name__)
def test_reports_match_the_interpreting_harness(monkeypatch, model_class):
    def suites():
        return [
            run_suite(model_class(), seed=seed, cases=60, schema_max=schema_max)
            for seed in range(5) for schema_max in (3, 12)
        ]

    compiled = suites()
    monkeypatch.setattr(axioms, "compile_qf", lambda f, model: lambda env: eval_qf(f, env, model))
    assert suites() == compiled
    assert FAIL in {r.status for reports in compiled for r in reports}


class CountingModel(NonstandardModel):
    """The non-standard model, counting calls of the operations a matrix uses."""

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


def test_residue_cases_share_the_residue_and_keep_the_constants():
    model = CountingModel()
    check = compile_qf(dict(by_id("A11").obligations)[12], model)
    assert check({"x": model.numeral(11)})  # the last disjunct: every residue computed
    model.calls.clear()
    assert check({"x": model.parse("1/3c+2")})
    assert model.calls == {"residue_mod": 1}


def test_each_numeral_is_computed_once_over_many_checks():
    model = CountingModel()
    (_, a3), = by_id("A3").obligations  # the numerals 0 and 1, each written 4 times
    check = compile_qf(a3, model)
    corners = model.corner_elements()
    for k in range(10):
        check({"x": corners[k], "z": corners[k + 1]})
    assert model.calls["numeral"] == 2


def test_a_constant_sum_is_computed_once_over_many_checks():
    model = CountingModel()
    check = compile_qf(parse_formula("x = 1 + 1 + 1"), model)
    for x in model.corner_elements()[:5]:
        check({"x": x})
    assert model.calls["add"] == 2


@pytest.mark.parametrize("axiom_id, adds", [("A7", 4), ("A9", 2)])
def test_sums_are_not_rewritten(axiom_id, adds):
    # (x + y) + z and x + (y + z), x + y and y + x: different sums, each computed
    model = CountingModel()
    (_, matrix), = by_id(axiom_id).obligations
    check = compile_qf(matrix, model)
    for x in model.corner_elements()[:5]:
        model.calls.clear()
        assert check({"x": x, "y": model.parse("c-3"), "z": model.parse("2/7c")})
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
    for var, witness, param in spec.derived:
        env[var] = witness(model, env, param)
    check = compile_qf(matrix, model)
    for _ in range(2):
        model.calls.clear()
        assert check(env)
        assert model.calls["add"] == (2 + 3 + 4 + 6 + 12) + 2 * 11 == 49
    model.calls.clear()
    assert eval_qf(matrix, env, model)
    assert model.calls["add"] == (2 + 3 + 4 + 6 + 12) + sum(range(2, 13)) == 104


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

    def counted(f, model):
        compiled[id(model)] += 1
        return compile_qf(f, model)

    monkeypatch.setattr(axioms, "compile_qf", counted)
    spec, a, b = by_id("A11"), StandardModel(), StandardModel()
    for model in (a, b, a):
        assert check_axiom(spec, model, cases=10).status == PASS
    assert compiled == {id(a): 11, id(b): 11}  # one check per schema parameter
