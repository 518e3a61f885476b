"""Command-line surface: outputs, exit codes, determinism."""

import pytest

from buchi2.cli import main
from buchi2.formulas import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def repl_replies(capsys, monkeypatch, *lines):
    feed = iter([*lines, ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl"]) == 0
    return capsys.readouterr().out.splitlines()[1:]  # after the banner


def test_eval_element_ops(capsys):
    assert run(capsys, "v2", "1/3c+1") == (0, "2\n", "")
    assert run(capsys, "add", "c", "c") == (0, "2c\n", "")
    assert run(capsys, "cmp", "c/2", "c") == (0, "LESS\n", "")
    assert run(capsys, "div", "2/5c+3", "3") == (0, "2/15c+1\n", "")
    assert run(capsys, "mod", "2/5c+3", "3") == (0, "0\n", "")
    assert run(capsys, "cmp", "2c+5", "2c-5") == (0, "GREATER\n", "")


def test_eval_expressions(capsys):
    assert run(capsys, "eval", "2c+5") == (0, "2c+5\n", "")
    assert run(capsys, "eval", "1 + 1 + 1") == (0, "3\n", "")
    assert run(capsys, "eval", "V2(12) = 4") == (0, "true\n", "")
    assert run(capsys, "eval", "V2(12) < 4") == (0, "false\n", "")
    assert run(capsys, "eval", "12", "--model", "std") == (0, "12\n", "")


def test_std_model_ops(capsys):
    assert run(capsys, "v2", "48", "--model", "std") == (0, "16\n", "")
    assert run(capsys, "add", "20", "22", "--model", "std") == (0, "42\n", "")


def test_pairs_model_ops(capsys):
    assert run(capsys, "add", "(1/2,-3)", "(1/2, 3)", "--model", "pairs") == (0, "(1, 0)\n", "")
    code, out, err = run(capsys, "v2", "(1/2, 3)", "--model", "pairs")
    assert code == 3 and "no V2" in err
    code, _, err = run(capsys, "eval", "V2(4) = 4", "--model", "pairs")
    assert code == 3 and "no V2" in err
    assert run(capsys, "mod", "(5/7, 6)", "4", "--model", "pairs") == (0, "2\n", "")


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "add", "c", "2cc")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "eval", "x <")
    assert code == 2


def test_evaluation_errors_exit_3(capsys):
    code, _, err = run(capsys, "div", "c", "3")
    assert code == 3 and "not divisible" in err
    code, _, err = run(capsys, "eval", "forall x. x = x")
    assert code == 3
    code, _, err = run(capsys, "eval", "x + 1")
    assert code == 3 and "unbound" in err
    code, _, err = run(capsys, "mod", "c", "0")
    assert code == 3


def test_axioms_tsv_format_and_exit(capsys):
    code, out, _ = run(capsys, "axioms", "--cases", "40", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 20
    for line in lines:
        axiom_id, status, cases, seed = line.split("\t")
        assert status == "PASS"
        assert cases == "40"
        assert seed == "7"


def test_axioms_filter(capsys):
    code, out, _ = run(capsys, "axioms", "--axioms", "A15", "--cases", "25")
    assert code == 0
    assert out == "A15\tPASS\t25\t0\n"
    code, _, err = run(capsys, "axioms", "--axioms", "A15,B2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--cases", "0"], 3, "error: suite bounds must be positive\n"),
        (["--den-bound", "0"], 3, "error: suite bounds must be positive\n"),
        (["--offset-bound", "0", "--model", "std"], 3, "error: suite bounds must be positive\n"),
        (["--schema-max", "2"], 3, "error: schema bound must be at least 3, got 2\n"),
        (["--schema-max", "2", "--axioms", "B9"], 3, "error: schema bound must be at least 3, got 2\n"),
        (["--axioms", "B9"], 2, "parse error: unknown axiom ids: B9\n"),
    ],
)
def test_axioms_argument_validation(capsys, argv, code, err):
    assert run(capsys, "axioms", *argv) == (code, "", err)


def test_axioms_pairs_skips_v2_block(capsys):
    code, out, _ = run(capsys, "axioms", "--cases", "30", "--model", "pairs")
    assert code == 0
    statuses = dict(line.split("\t")[:2] for line in out.strip().split("\n"))
    assert statuses["A4"] == "PASS"
    assert statuses["A15"] == "SKIPPED"
    assert statuses["V14"] == "SKIPPED"


def test_axioms_output_is_byte_identical_across_runs(capsys):
    first = run(capsys, "axioms", "--cases", "60", "--seed", "3")
    second = run(capsys, "axioms", "--cases", "60", "--seed", "3")
    assert first == second


def test_refute(capsys):
    code, out, _ = run(capsys, "refute", "(5/7, 6)")
    assert code == 0
    assert out == "FINITE_TWO_DIVISIBILITY steps=1 chain=(5/7, 6) -> (5/14, 3)\n"
    code, out, _ = run(capsys, "refute", "(2,0)")
    assert code == 0
    assert out == "DIVISIBLE_BY_THREE quotient=(2/3, 0)\n"
    code, _, err = run(capsys, "refute", "(0,4)")
    assert code == 3 and "standard" in err
    code, _, err = run(capsys, "refute", "nonsense")
    assert code == 2


def test_repl(capsys, monkeypatch):
    lines = iter(["c + 1", "", "V2(8) = 8", "2cc", "div", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c+1" in out
    assert "true" in out
    assert "parse error" in out or "error" in out


def test_repl_eof_exits_cleanly(capsys, monkeypatch):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert main(["repl"]) == 0


def test_failing_axiom_reports_counterexample(capsys, monkeypatch):
    # force a broken model into the suite to see the FAIL wire format
    import buchi2.cli as cli
    from buchi2.nonstandard import NonstandardModel

    class Broken(NonstandardModel):
        def v2(self, x):
            return self.numeral(3)

    monkeypatch.setattr(cli, "make_model", lambda name, *a, **k: Broken())
    code, out, _ = run(capsys, "axioms", "--axioms", "A12", "--cases", "50")
    assert code == 1
    line = out.strip()
    fields = line.split("\t")
    assert fields[0] == "A12" and fields[1] == "FAIL"
    assert len(fields) == 5 and "x=" in fields[4]


# Each shape nested `levels` deep, with the answer it evaluates to.
NESTED = {
    "sum": (lambda levels: " + ".join(["1"] * (levels + 1)), lambda levels: str(levels + 1)),
    "conjunction": (lambda levels: " & ".join(["1 = 1"] * (levels + 1)), lambda levels: "true"),
    "negation": (lambda levels: "~ " * levels + "1 = 1", lambda levels: "false" if levels % 2 else "true"),
    "parentheses": (lambda levels: "(" * levels + "1 = 1" + ")" * levels, lambda levels: "true"),
}


@pytest.mark.parametrize("shape, levels", [
    ("sum", MAX_DEPTH + 1), ("sum", 2999),
    ("conjunction", MAX_DEPTH + 1), ("conjunction", 2999),
    ("negation", MAX_DEPTH + 1), ("negation", 3000),
    ("parentheses", MAX_DEPTH + 1), ("parentheses", 300),
])
def test_nesting_past_the_limit_is_a_parse_error(capsys, monkeypatch, shape, levels):
    text = NESTED[shape][0](levels)
    code, out, err = run(capsys, "eval", text)
    assert (code, out) == (2, "") and err.startswith("parse error: nested deeper than")
    replies = repl_replies(capsys, monkeypatch, text, "1 + 1")
    assert replies[0].startswith("parse error: nested deeper than")
    assert replies[1:] == ["2"]


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deepest_accepted_nesting_evaluates(capsys, shape):
    make, answer = NESTED[shape]
    assert run(capsys, "eval", make(MAX_DEPTH)) == (0, answer(MAX_DEPTH) + "\n", "")


def test_oversized_numeral_is_an_evaluation_error(capsys, monkeypatch):
    digits = "1" * 5000
    code, out, err = run(capsys, "eval", digits)
    assert (code, out) == (3, "") and err.startswith("error: Exceeds the limit (4300 digits)")
    replies = repl_replies(capsys, monkeypatch, digits, "1 + 1")
    assert replies[0].startswith("error: Exceeds the limit (4300 digits)")
    assert replies[1:] == ["2"]
