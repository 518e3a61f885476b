"""Axiom catalog shape and harness behavior, including falsification power."""

import pytest

from buchi2.axioms import (
    EXISTENTIAL_WITNESSED,
    FAIL,
    PASS,
    SCHEMA,
    SKIPPED,
    UNIVERSAL_SAMPLED,
    WITNESSES,
    build_axioms,
    check_axiom,
    run_suite,
)
from buchi2.axioms import _congruence_matrix, _residue_cases_matrix
from buchi2.formulas import eval_qf, parse_formula, uses_v2
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
        assert a.matrix == v.matrix
        assert a.strategy == v.strategy


def test_axiom_texts_parse_and_round_trip():
    from buchi2.formulas import format_formula

    for spec in build_axioms():
        f = parse_formula(spec.text)
        assert parse_formula(format_formula(f)) == f


def test_strategies():
    assert by_id("A1").strategy == UNIVERSAL_SAMPLED
    assert by_id("A2").strategy == EXISTENTIAL_WITNESSED
    assert by_id("A4").strategy == EXISTENTIAL_WITNESSED
    assert by_id("A11").strategy == SCHEMA
    assert by_id("A15").strategy == EXISTENTIAL_WITNESSED
    assert by_id("A17").strategy == SCHEMA
    assert by_id("A15").derived[0][1] == "next_power_of_two"
    assert by_id("A2").derived[0][1] == "difference"
    assert by_id("A8").derived[0][1] == "predecessor"
    assert {d[1] for d in by_id("A4").derived} == {"congruence_quotient"}


def test_schema_parameters():
    assert by_id("A11").schema_params == tuple(range(2, 13))
    assert by_id("A17").schema_params == (3, 5, 7, 9, 11)
    assert by_id("A11", schema_max=5).schema_params == (2, 3, 4, 5)


def test_needs_v2_flags_match_matrices():
    for spec in build_axioms():
        if spec.matrix is not None:
            assert spec.needs_v2 == uses_v2(spec.matrix)
        else:
            assert spec.needs_v2 == uses_v2(spec.schema_matrix(spec.schema_params[0]))


def test_every_derived_witness_is_registered():
    for spec in build_axioms():
        for _, witness_id, _ in spec.derived:
            assert witness_id in WITNESSES


def test_schema_matrices_match_their_text():
    for n in (2, 3, 12):
        assert _residue_cases_matrix(n) == parse_formula(" | ".join(f"x == {j} mod {n}" for j in range(n)))
    parts = []
    for n in range(2, 13):
        w, u = " + ".join([f"w{n}"] * n), " + ".join(["u"] * n)
        parts.append(f"(x == y mod {n} -> (x = {w} + y | y = {w} + x)) & ({u} + y == y mod {n})")
    assert _congruence_matrix(12) == parse_formula(" & ".join(f"({p})" for p in parts))


def test_schema_bound_is_not_capped_by_the_parser():
    reports = run_suite(STD, cases=2, schema_max=150, ids=("A4", "A11", "A17"))
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
    matrix = spec.matrix if spec.matrix is not None else spec.schema_matrix(report.param)
    return eval_qf(matrix, env, model)


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
    assert report.param in spec.schema_params
    assert _reeval(report, model, spec) is False


def test_carryless_add_is_caught():
    model = CarrylessAddModel()
    statuses = {r.axiom_id: r.status for r in run_suite(model, seed=0, cases=200)}
    assert FAIL in statuses.values()


def test_fail_reports_count_cases_up_to_failure():
    model = ConstantV2Model()
    report = check_axiom(by_id("A12"), model, cases=200, seed=0)
    assert 1 <= report.cases <= 200
