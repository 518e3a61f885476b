"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import buchi2.cli as cli
from buchi2 import nonstandard
from buchi2.cli import main
from buchi2.formulas import MAX_DEPTH, format_formula, format_term
from buchi2.nonstandard import Element, NonstandardModel, ParseError

from fault_models import ConstantV2Model, IdentityV2Model
from test_formulas import formulas, scan_texts, terms


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


@pytest.mark.parametrize("name", ["nonstd", "std", "pairs"])  # the choices in HELP_USAGE below
def test_make_model_builds_each_model_choice(name):
    assert cli.build_parser().parse_args(["repl", "--model", name]).model == name
    model = cli.make_model(name, 7, 9)
    assert (model.name, model.den_bound, model.offset_bound) == (name, 7, 9)


def test_the_suite_bounds_default_to_the_models():
    args = cli.build_parser().parse_args(["axioms"])
    for name in cli.MODELS:
        model = cli.make_model(name)
        assert (args.den_bound, args.offset_bound) == (model.den_bound, model.offset_bound) == (1000, 10**6)


def test_make_model_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="^unknown model 'x'$"):
        cli.make_model("x")


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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


HELP_USAGE = {
    (): "usage: buchi2 [-h] {eval,add,cmp,v2,mod,div,axioms,refute,repl} ...",
    ("eval",): "usage: buchi2 eval [-h] [--model {nonstd,std,pairs}] expr",
    ("add",): "usage: buchi2 add [-h] [--model {nonstd,std,pairs}] left right",
    ("cmp",): "usage: buchi2 cmp [-h] [--model {nonstd,std,pairs}] left right",
    ("v2",): "usage: buchi2 v2 [-h] [--model {nonstd,std,pairs}] value",
    ("mod",): "usage: buchi2 mod [-h] [--model {nonstd,std,pairs}] value n",
    ("div",): "usage: buchi2 div [-h] [--model {nonstd,std,pairs}] value n",
    ("axioms",): (
        "usage: buchi2 axioms [-h] [--seed SEED] [--cases CASES]\n"
        "                     [--den-bound DEN_BOUND] [--offset-bound OFFSET_BOUND]\n"
        "                     [--schema-max SCHEMA_MAX] [--axioms AXIOMS]\n"
        "                     [--model {nonstd,std,pairs}]"
    ),
    ("refute",): "usage: buchi2 refute [-h] pair",
    ("repl",): "usage: buchi2 repl [-h] [--model {nonstd,std,pairs}]",
}


@pytest.mark.parametrize("command", list(HELP_USAGE), ids=lambda c: " ".join(c) or "buchi2")
def test_help_usage_lines(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.split("\n\n")[0] == HELP_USAGE[command]


def test_v2_without_v2_refuses_before_reading_its_operand(capsys):
    assert run(capsys, "v2", "zz", "--model", "pairs") == (3, "", "error: model 'pairs' has no V2\n")


@pytest.mark.parametrize("command", ["mod", "div"])
def test_non_integer_n_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "c", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "add", "c", "2cc")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "eval", "x <")
    assert code == 2


@pytest.mark.parametrize("model, twelve", [("nonstd", "12"), ("std", "12"), ("pairs", "(0, 12)")])
def test_non_decimal_digits_are_parse_errors(capsys, model, twelve):
    # "²" is a digit to str.isdigit() but not to int(); fullwidth "１２" is decimal
    assert run(capsys, "eval", "²", "--model", model) == (
        2, "", "parse error: unexpected character '²' (at position 0)\n",
    )
    assert run(capsys, "eval", "１２", "--model", model) == (0, twelve + "\n", "")


def test_evaluation_errors_come_in_order(capsys):
    # quantifier before unbound variables, unbound variables before V2
    assert run(capsys, "eval", "forall x. x = y") == (
        3, "", "error: cannot decide quantified formulas; use the axioms harness\n",
    )
    assert run(capsys, "eval", "V2(x) = 1", "--model", "pairs") == (3, "", "error: unbound variables: x\n")
    assert run(capsys, "eval", "V2(1) = 1", "--model", "pairs") == (3, "", "error: model 'pairs' has no V2\n")


def test_evaluation_errors_exit_3(capsys):
    code, _, err = run(capsys, "div", "c", "3")
    assert code == 3 and "not divisible" in err
    code, _, err = run(capsys, "eval", "forall x. x = x")
    assert code == 3
    code, _, err = run(capsys, "eval", "x + 1")
    assert code == 3 and "unbound" in err
    code, _, err = run(capsys, "mod", "c", "0")
    assert code == 3


@pytest.mark.parametrize("model, value", [("nonstd", "6"), ("std", "6"), ("pairs", "(1, 6)")])
@pytest.mark.parametrize("command, n, err", [
    ("div", "0", "error: divisor must be positive, got 0\n"),
    ("div", "-2", "error: divisor must be positive, got -2\n"),
    ("mod", "0", "error: modulus must be positive, got 0\n"),
    ("mod", "-3", "error: modulus must be positive, got -3\n"),
])
def test_nonpositive_divisor_or_modulus_exits_3(capsys, model, value, command, n, err):
    assert run(capsys, command, value, n, "--model", model) == (3, "", err)


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
        (["--axioms", ""], 2, "parse error: empty axiom id\n"),
        (["--axioms", "A1,,A2"], 2, "parse error: empty axiom id\n"),
        (["--axioms", "A15,"], 2, "parse error: empty axiom id\n"),
        (["--schema-max", "501"], 3, "error: schema bound must be at most 500, got 501\n"),
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
    assert run(capsys, "refute", "(0,4)") == (3, "", "error: (0, 4) is standard; not a candidate\n")
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
    monkeypatch.setattr(cli, "make_model", lambda name, *a, **k: ConstantV2Model())
    code, out, _ = run(capsys, "axioms", "--axioms", "A12", "--cases", "50")
    assert code == 1
    line = out.strip()
    fields = line.split("\t")
    assert fields[0] == "A12" and fields[1] == "FAIL"
    assert len(fields) == 5 and "x=" in fields[4]


@pytest.mark.parametrize("model_class, axiom, line", [
    (IdentityV2Model, "A17", "A17\tFAIL\t4\t0\tn=3;x=3\n"),  # a schema parameter
    (ConstantV2Model, "A16", "A16\tFAIL\t4\t0\terror=3 is not divisible by 2;x=3;y=8\n"),  # a witness raised
])
def test_fail_line_names_the_parameter_or_the_error(capsys, monkeypatch, model_class, axiom, line):
    monkeypatch.setattr(cli, "make_model", lambda name, *a, **k: model_class())
    assert run(capsys, "axioms", "--axioms", axiom, "--cases", "300") == (1, line, "")


class ClosedPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("model_class, code", [(ConstantV2Model, 1), (NonstandardModel, 0)])
def test_a_closed_stdout_keeps_the_axioms_exit_code(capsys, monkeypatch, model_class, code):
    monkeypatch.setattr(cli, "make_model", lambda name, *a, **k: model_class())
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["axioms", "--cases", "20"]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_closes_the_repl_stops_it_quietly(tmp_path, unbuffered):
    # far more replies than a pipe holds, so the REPL writes after the reader has gone
    lines = tmp_path / "lines"
    lines.write_text("12345678901234567890\n" * 20000)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with lines.open() as stdin:
        proc = subprocess.Popen([sys.executable, "-m", "buchi2.cli", "repl"], env=env, stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"model nonstd; enter an expression, :q to quit\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (0, b"")


# A REPL session in a fresh interpreter whose stdin records the memory that
# tracemalloc finds held after gc.collect() each time the REPL asks for a
# line whose number is an argument; the figures are the last line printed.
HELD_MEMORY_SESSION = """
import gc, sys, tracemalloc
from buchi2 import cli

class Reader:
    def __init__(self, marks):
        self.marks, self.asked, self.held = marks, 0, []

    def readline(self):
        if self.asked in self.marks:
            gc.collect()
            self.held.append(tracemalloc.get_traced_memory()[0])
        self.asked += 1
        return stdin.readline()

stdin, sys.stdin = sys.stdin, Reader([int(mark) for mark in sys.argv[1:]])
tracemalloc.start()
code = cli.main(["repl", "--model", "nonstd"])
print(code, *sys.stdin.held)
"""


def test_a_long_repl_session_holds_no_more_memory_as_it_goes(tmp_path):
    # 800 literals 1/Qc, each Q a distinct 13,000-bit number, odd and even by
    # turns, among numerals and nesting at their limits, formulas and parse
    # errors (None: a parse error)
    rng = random.Random(16)
    deepest, too_deep = NESTED["parentheses"][0](MAX_DEPTH), NESTED["sum"][0](MAX_DEPTH + 1)
    lines, replies = [], []
    for k in range(800):
        q = rng.getrandbits(13_000) | 1 << 12_999
        q = q | 1 if k % 2 else q & -2
        lines.append(f"1/{q}c")
        replies.append(f"1/{q}c")
        if k % 10 == 0:
            lines += [f"1/{q}c + ", "9" * 4300, "9" * 4301, f"{'9' * 4300} < {'9' * 4300} + 1", deepest, too_deep]
            replies += [None, "9" * 4300, None, "true", "true", None]
    marks = (len(lines) // 4, len(lines))
    (tmp_path / "lines").write_text("".join(f"{line}\n" for line in lines))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with (tmp_path / "lines").open() as stdin:
        done = subprocess.run([sys.executable, "-c", HELD_MEMORY_SESSION, *map(str, marks)], env=env, stdin=stdin,
                              capture_output=True, text=True, timeout=300)
    assert done.stderr == ""
    out = done.stdout.splitlines()
    code, quarter, end = map(int, out[-1].split())
    answers = [line.removeprefix("> ") for line in out[1:-2]]
    assert code == 0 and len(answers) == len(lines)
    for answer, want in zip(answers, replies):
        assert answer == want if want else answer.startswith("parse error: ")
    assert end - quarter <= 256 * 1024, f"held {quarter} bytes after a quarter of the lines, {end} after all"


def first_operand_chain(levels):
    # Sums nested as first operands, 50 per parenthesis: the tree is
    # `levels` deep, and the formula reading fails before it gets that deep.
    groups, rest = divmod(levels, 50)
    return "(" * groups + "1" + (" + 1" * 50 + ")") * groups + " + 1" * rest


# Each shape nested `levels` deep, with the answer it evaluates to.
NESTED = {
    "sum": (lambda levels: " + ".join(["1"] * (levels + 1)), lambda levels: str(levels + 1)),
    "chain": (first_operand_chain, lambda levels: str(levels + 1)),
    "conjunction": (lambda levels: " & ".join(["1 = 1"] * (levels + 1)), lambda levels: "true"),
    "negation": (lambda levels: "~ " * levels + "1 = 1", lambda levels: "false" if levels % 2 else "true"),
    "parentheses": (lambda levels: "(" * levels + "1 = 1" + ")" * levels, lambda levels: "true"),
}


@pytest.mark.parametrize("shape, levels", [
    ("sum", MAX_DEPTH + 1), ("sum", 2999),
    ("chain", MAX_DEPTH + 1), ("chain", 50 * 50),
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


def test_oversized_numeral_is_a_parse_error(capsys, monkeypatch):
    digits = "1" * 5000
    answer = "parse error: numeral exceeds the limit of 4300 digits (at position 0)"
    assert run(capsys, "eval", digits) == (2, "", answer + "\n")
    assert repl_replies(capsys, monkeypatch, digits, "1 + 1") == [answer, "2"]
    # a result too long to print is still an evaluation error
    code, out, err = run(capsys, "eval", "9" * 4300 + " + 1")
    assert (code, out) == (3, "") and err.startswith("error: Exceeds the limit (4300 digits)")


_LONG = "7" * 4301


@pytest.mark.parametrize("model", ["nonstd", "std", "pairs"])
@pytest.mark.parametrize("text, position", [
    (_LONG, 0),
    (f"1 + {_LONG}", 4),
    (f"V2({_LONG}) = 1", 3),
    (f"x == 1 mod {_LONG}", 11),
    (f"1 = 1 & ({_LONG} < 2)", 9),
], ids=["numeral", "sum", "V2", "modulus", "group"])
def test_oversized_numeral_in_a_term_or_formula(capsys, monkeypatch, model, text, position):
    answer = f"parse error: numeral exceeds the limit of 4300 digits (at position {position})"
    assert run(capsys, "eval", text, "--model", model) == (2, "", answer + "\n")
    feed = iter([text, "1 < 2", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl", "--model", model]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [answer, "true"]


@pytest.mark.parametrize("argv", [
    ["add", f"2c+{_LONG}", "1", "--model", "nonstd"],
    ["cmp", "c", f"{_LONG}/3c", "--model", "nonstd"],
    ["v2", f"c/{_LONG}", "--model", "nonstd"],
    ["add", _LONG, "1", "--model", "std"],
    ["add", f"({_LONG}, 1)", "(1, 1)", "--model", "pairs"],
    ["mod", f"(1/{_LONG}, 1)", "3", "--model", "pairs"],
    ["refute", f"(1, -{_LONG})"],
], ids=["nonstd offset", "nonstd numerator", "nonstd sugar", "std", "pairs numerator", "pairs denominator",
        "refute"])
def test_oversized_numeral_in_an_element_literal(capsys, argv):
    assert run(capsys, *argv) == (2, "", "parse error: numeral exceeds the limit of 4300 digits\n")


def test_the_numeral_limit_is_the_interpreters(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        answer = "parse error: numeral exceeds the limit of 640 digits"
        assert run(capsys, "eval", "1 + " + "1" * 641) == (2, "", answer + " (at position 4)\n")
        assert run(capsys, "add", "1" * 641, "1", "--model", "std") == (2, "", answer + "\n")
        assert run(capsys, "eval", "1 + " + "9" * 640, "--model", "std")[0] == 3
    finally:
        sys.set_int_max_str_digits(limit)


def test_too_deep_sum_inside_a_formula_is_a_nesting_error(capsys, monkeypatch):
    # "(1)" holds no formula-only symbol, so the parser reads it as the
    # start of an atom, whose sum is the part that goes too deep.
    text = "1 = 1 & (1)" + " + 1" * 101 + " = 5"
    answer = "parse error: nested deeper than 100 levels (at position 416)"
    assert run(capsys, "eval", text) == (2, "", answer + "\n")
    assert repl_replies(capsys, monkeypatch, text, "1 + 1") == [answer, "2"]


@pytest.mark.parametrize("line, readings, answer", [
    ("2c+5", (1, 0, 0), "2c+5"),
    ("1 + V2(12)", (1, 1, 0), "5"),
    ("V2(12) = 4", (0, 0, 1), "true"),
    ("forall x. x = x", (0, 0, 1), "error"),
    ("(514) +", (1, 1, 0), "parse error"),
    ("x <", (0, 0, 1), "parse error"),
])
def test_each_line_is_read_once(monkeypatch, line, readings, answer):
    # calls of model.parse, parse_term and parse_formula
    model = NonstandardModel()
    calls = {"parse": 0, "parse_term": 0, "parse_formula": 0}
    for owner, name in ((model, "parse"), (cli, "parse_term"), (cli, "parse_formula")):
        def counted(text, parse=getattr(owner, name), name=name):
            calls[name] += 1
            return parse(text)
        monkeypatch.setattr(owner, name, counted)
    try:
        out = cli._evaluate_expression(line, model)
    except ParseError:
        out = "parse error"
    except ValueError:
        out = "error"
    assert (out, tuple(calls.values())) == (answer, readings)


@pytest.mark.parametrize("argv, err", [
    (["(514) +"], "parse error: expected a term, found 'end of input' (at position 7)\n"),
    (["748c+6036", "--model", "std"], "parse error: trailing input 'c' (at position 3)\n"),
])
def test_a_line_without_formula_symbols_answers_the_term_error(capsys, argv, err):
    assert run(capsys, "eval", *argv) == (2, "", err)


@pytest.mark.parametrize("text, err", [
    ("(91 + 280) == 9082113 mod 0", "parse error: congruence modulus must be >= 2, got 0 (at position 26)\n"),
    ("(91 + 280) == 9082113 mod 1", "parse error: congruence modulus must be >= 2, got 1 (at position 26)\n"),
    ("1 == 1 foo 3", "parse error: expected 'mod' (at position 7)\n"),
])
def test_a_term_group_answers_the_atom_error(capsys, text, err):
    assert run(capsys, "eval", text) == (2, "", err)


# -- lines on the kernel's triples ----------------------------------------------

def outcome(argv, lines=()):
    """main(argv)'s exit code, stdout and stderr, with lines as its stdin."""
    feed = iter([*lines, ":q"])
    with mock.patch("builtins.input", lambda prompt="": next(feed)), \
            contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class OwnAddModel(NonstandardModel):
    """The non-standard model with an add of its own, so that the CLI evaluates on its Elements."""

    def add(self, x, y):
        return nonstandard.add(x, y)


_NAMES_RE = re.compile(r"\b[xyzuv]\b")  # the strategies' variable names


def closed(text, numerals):
    """text with each of the strategies' variables replaced by its numeral."""
    return _NAMES_RE.sub(lambda m: str(numerals[m.group()]), text)


closed_texts = st.builds(
    closed,
    st.one_of(formulas(quantified=False).map(format_formula), terms().map(format_term)),
    st.fixed_dictionaries({name: st.integers(0, 2**70) for name in "xyzuv"}),
)


def reply(text, model):
    try:
        return cli._evaluate_expression(text, model)
    except ValueError as exc:
        return type(exc), str(exc)


@given(closed_texts)
def test_a_line_on_triples_answers_as_a_line_on_elements(text):
    assert cli._view(NonstandardModel()) is nonstandard.TRIPLE_VIEW
    model = OwnAddModel()
    assert cli._view(model) is model
    assert reply(text, NonstandardModel()) == reply(text, model)


@settings(max_examples=20)
@given(st.lists(st.one_of(closed_texts, st.sampled_from(["2c+5", "c/3 - 1", "0c+3", "3/5c-2", "1 +", "x < 1"])),
                max_size=20))
def test_a_session_on_triples_builds_at_most_one_element_per_line(lines):
    # an Element literal's line builds its Element, a term's line its value's
    built = []

    def new(cls, *args, new=nonstandard._new):
        if cls is Element:
            built.append(cls)
        return new(cls, *args)

    with mock.patch.object(nonstandard, "_new", new), \
            mock.patch.object(Element, "__init__", side_effect=AssertionError("a checked Element")):
        code, out, err = outcome(["repl"], lines)
    assert (code, err, len(out.splitlines())) == (0, "", 1 + len(lines))
    assert len(built) <= len(lines)


# -- the contract of every line and argument ------------------------------------

def is_value(line, model):
    """Whether a reply line is a value: a truth value or an element in its canonical form."""
    if line in ("true", "false"):
        return True
    try:
        return model.format(model.parse(line)) == line
    except ValueError:
        return False


model_names = st.sampled_from(sorted(cli.MODELS))
any_texts = st.one_of(
    scan_texts, formulas().map(format_formula), terms().map(format_term), closed_texts, st.text(max_size=30),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(any_texts, model_names)
def test_every_eval_argument_gets_a_documented_answer(text, name):
    code, out, err = outcome(["eval", text, "--model", name])
    if code == 0:
        assert err == "" and out.endswith("\n") and is_value(out[:-1], cli.make_model(name))
    elif err.startswith("usage: buchi2 eval"):  # argparse read the text as an option
        assert (code, out) == (2, "") and "buchi2 eval: error:" in err
    else:  # a failed eval answers on stderr, in one line
        assert out == "" and err.endswith("\n") and "\n" not in err[:-1]
        assert err.startswith({2: "parse error: ", 3: "error: "}[code])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(any_texts.filter(lambda text: "\n" not in text and "\r" not in text), max_size=8), model_names)
def test_every_repl_line_gets_a_documented_answer(lines, name):
    code, out, err = outcome(["repl", "--model", name], lines)
    banner, *replies = out.removesuffix("\n").split("\n")
    assert (code, err, banner) == (0, "", f"model {name}; enter an expression, :q to quit")
    model = cli.make_model(name)
    assert all(line.startswith(("parse error: ", "error: ")) or is_value(line, model) for line in replies)


# The stdout line of each one-shot subcommand that answered: its value.
ORDERINGS = ("LESS", "EQUAL", "GREATER")
REPORT_LINE = re.compile(r"(A\d+|V\d+)\t(PASS|FAIL|SKIPPED)\t\d+\t-?\d+(\t.*)?")
VERDICT_LINE = re.compile(r"FINITE_TWO_DIVISIBILITY steps=\d+ chain=.+|DIVISIBLE_BY_THREE quotient=.+")
fractions_ = st.tuples(st.integers(0, 40), st.integers(0, 12))
element_texts = st.one_of(
    any_texts, st.sampled_from(["2c+5", "c/3 - 1", "0", "7", "c", "3/5c-2", "(1/2, 3)", "(0, 4)", "-1", "--", ""]),
    st.integers(0, 10**30).map(str),
    st.tuples(fractions_, st.integers(-10**6, 10**6)).map(lambda t: f"{t[0][0]}/{t[0][1]}c{t[1]:+d}"),
    st.tuples(fractions_, st.integers(-10**6, 10**6)).map(lambda t: f"({t[0][0]}/{t[0][1]}, {t[1]})"),
)
int_texts = st.one_of(st.integers(-3, 10**20).map(str), st.sampled_from(["0", "1", "12", "1.5", "x", ""]))
model_options = st.one_of(st.just([]), model_names.map(lambda name: ["--model", name]))
one_shot_argvs = st.one_of(
    st.tuples(st.sampled_from(["add", "cmp"]), element_texts, element_texts).map(list),
    st.tuples(st.just("v2"), element_texts).map(list),
    st.tuples(st.sampled_from(["mod", "div"]), element_texts, int_texts).map(list),
)
axioms_argvs = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--cases", "--seed", "--den-bound", "--offset-bound"]),
              st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["x", "1e3"]))),
    st.tuples(st.just("--schema-max"), st.sampled_from(["-1", "0", "2", "3", "5", "501", "ten"])),
    st.tuples(st.just("--axioms"), st.sampled_from(["A1", "A15,V12", ",A1", "A1,", "B9", "a1", "A4,A11,A17"])),
), max_size=4).map(lambda options: ["axioms", *(part for option in options for part in option)])
refute_argvs = st.one_of(element_texts, st.sampled_from(["(5/7, 6)", "(1, 0)", "(0,4)", "(1/0,1)", "(2, -3)"])).map(
    lambda pair: ["refute", pair])


def answered_value(argv, line) -> bool:
    """Whether a stdout line of a one-shot argv is a value of its subcommand."""
    command = argv[0]
    if command == "axioms":
        return REPORT_LINE.fullmatch(line) is not None
    if command == "refute":
        return VERDICT_LINE.fullmatch(line) is not None
    if command == "cmp":
        return line in ORDERINGS
    if command == "mod":
        return line.isdecimal()
    model = argv[argv.index("--model") + 1] if "--model" in argv else "nonstd"
    return is_value(line, cli.make_model(model))


def assert_documented_answer(argv):
    code, out, err = outcome(argv)
    assert code in (0, 1, 2, 3)
    if err.startswith("usage: "):  # argparse refused the arguments, in the subcommand's parser or the main one
        assert (code, out) == (2, "") and re.search(rf"^buchi2( {argv[0]})?: error: ", err, re.M)
    elif err:  # a failed one-shot command answers on stderr, in one line
        assert out == "" and err.endswith("\n") and "\n" not in err[:-1]
        assert err.startswith({2: "parse error: ", 3: "error: "}[code])
    else:  # exit 1 only where an axiom failed
        assert code == (1 if "\tFAIL\t" in out else 0) and out.endswith("\n")
        assert all(answered_value(argv, line) for line in out[:-1].split("\n")), out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(one_shot_argvs, model_options)
def test_every_model_command_argument_gets_a_documented_answer(argv, options):
    assert_documented_answer([*argv, *options])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(axioms_argvs, model_options)
def test_every_axioms_argument_gets_a_documented_answer(argv, options):
    if "--cases" not in argv:  # keep each run short
        argv += ["--cases", "3"]
    assert_documented_answer([*argv, *options])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(refute_argvs)
def test_every_refute_argument_gets_a_documented_answer(argv):
    assert_documented_answer(argv)


@pytest.mark.parametrize("argv, code, err", [
    (["mod", "c", "0"], 3, "error: modulus must be positive, got 0\n"),
    (["div", "2c", "-2"], 3, "error: divisor must be positive, got -2\n"),
    (["axioms", "--schema-max", "501"], 3, "error: schema bound must be at most 500, got 501\n"),
    (["axioms", "--axioms", ",A1"], 2, "parse error: empty axiom id\n"),
    (["refute", "(1/0,1)"], 2, "parse error: zero denominator in '(1/0,1)'\n"),
])
def test_one_shot_errors_answer_in_their_documented_form(argv, code, err):
    assert outcome(argv) == (code, "", err)
