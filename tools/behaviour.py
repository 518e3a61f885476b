"""Print the observable behaviour of this checkout, one line per reading.

    python3 tools/behaviour.py > behaviour.txt

Run it on two checkouts and diff the outputs: an empty diff means the two
give the same parse trees, REPL replies, axiom reports and command
outputs on these inputs.  ``tools/behaviour_diff.py REV`` does that for a
git revision and this checkout.
It takes no options; the output is 268,254 lines, about 33 MB, and takes
about 16 s on a shared 2-vCPU Xeon with Python 3.11.

The inputs are 60,000 lines: the 30,000 ``repl-mix`` benchmark lines
(``perfbench/mix.py``, seeds 0-2, chunks 0-9 of 1000 lines) and 30,000
seeded fuzzed token strings, half of them mix lines with one or two tokens
changed and half random token sequences.  Their vocabulary has tokens,
literals, characters that start no token (a lone ``-``, ``*``, ``²``, the
control character U+007F), a Unicode number, and whitespace other than the
space: a tab, U+0085 (next line), U+00A0 (no-break space) and U+3000
(ideographic space).  The readings are

    tree<TAB>line<TAB>parse tree, or the parse error
    repl MODEL<TAB>line<TAB>what ``buchi2 repl --model MODEL`` prints
    report MODEL SEED<TAB>one ``Report`` of ``run_suite``
    fault CLASS SEED<TAB>one ``Report`` of ``run_suite`` on a fault model
    kernel MODEL<TAB>x<TAB>y<TAB>x + y, x - y, compare(x, y)<TAB>unary readings of x<TAB>of y
    refute<TAB>pair<TAB>what ``buchi2 refute PAIR`` prints
    command MODEL<TAB>argv<TAB>exit code<TAB>stdout<TAB>stderr of one ``cli.main`` call
    help<TAB>argv<TAB>exit code<TAB>stdout<TAB>stderr of one ``--help`` screen

for the models ``nonstd``, ``std`` and ``pairs`` and the suite seeds 0-2
with the default bounds.  Lines are printed with ``repr``, so every reading
stays on one output line.

The fault readings are the same reports on the test suite's models with a
deliberately broken kernel, which make the suite report ``FAIL``:
``ConstantV2Model``, ``IdentityV2Model``, ``CarrylessAddModel``,
``OffByOneAddModel`` and ``OffByOneResidueModel``, all from
``tests/fault_models.py``.

The kernel readings go through the ``Model`` interface of ``nonstd``,
``std`` and ``pairs``, on every pair of corner elements and on 2,000
seeded pairs of ``sample``s; on ``std`` that reads ``Model``'s own ``add``
and ``sample``, which the case loops write inline.  The unary readings are
``residue_mod`` for n = 2-24, ``divide`` for n = 2-7, and ``v2`` and
``next_power_of_two`` where the model has them.  Every element is printed formatted, on ``nonstd`` also
with its ``repr``; a failed ``sub`` or ``divide`` prints its error.

The refute readings are the verdict lines for the pairs ``(a/b, n)`` with
a and b in 1-20 and n in -20..20, in that order.

The command readings call ``cli.main`` with ``--model MODEL``: ``add``
and ``cmp`` on every pair of literals, ``eval`` and ``v2`` on each
literal, and ``mod`` and ``div`` on each literal with n in ``-1 0 1 2 3 7
x``.  The literals are the model's formatted corner elements and a fixed
list of malformed ones.  An exit through ``SystemExit``, as argparse
exits, prints its code.  The help readings are the ``--help`` screens of
``buchi2`` and of each subcommand, at 80 columns: the tool sets
``COLUMNS`` itself.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import mix  # noqa: E402
from buchi2 import cli  # noqa: E402
from buchi2.axioms import run_suite  # noqa: E402
from buchi2.formulas import is_formula_text, parse_formula, parse_term  # noqa: E402
from fault_models import (  # noqa: E402
    CarrylessAddModel, ConstantV2Model, IdentityV2Model, OffByOneAddModel, OffByOneResidueModel,
)

MODELS = ("nonstd", "std", "pairs")
SEEDS = (0, 1, 2)
FAULT_MODELS = (ConstantV2Model, IdentityV2Model, CarrylessAddModel, OffByOneAddModel, OffByOneResidueModel)
CHUNKS = 10
CHUNK_LINES = 1000
FUZZED = 30_000
KERNEL_MODELS = ("nonstd", "std", "pairs")
KERNEL_SAMPLES = 2000
REFUTE_COEFFICIENTS = range(1, 21)
REFUTE_OFFSETS = range(-20, 21)
MALFORMED = ("", "2cc", "x", "(1,2)", "c/0", "0c-2", "-5", "(1/0, 2)", "(0, -2)", "12forall")
DIVISORS = ("-1", "0", "1", "2", "3", "7", "x")
SUBCOMMANDS = ("eval", "add", "cmp", "v2", "mod", "div", "axioms", "refute", "repl")

_PIECE_RE = re.compile(r"->|==|[()+=<>~&|.]|\d+|[A-Za-z_]\w*|\S")
VOCABULARY = (
    "(", ")", "+", "=", "<", ">", "~", "&", "|", "->", "==", ".", "mod",
    "forall", "exists", "V2", "x", "y", "c", "0", "1", "2", "12", "2c+5", "3/5c",
    "-", "*", "\u00b2", "\u0661\u0662", "\u3000", "\t", "\x85", "\xa0", "\x7f",
)


def mix_lines() -> list[str]:
    return [
        text
        for seed in SEEDS
        for chunk in range(CHUNKS)
        for text, _ in mix.repl_lines(seed, chunk, CHUNK_LINES)
    ]


def fuzzed_lines(sources: list[str]) -> list[str]:
    rng = random.Random("behaviour:fuzz")
    out = []
    for k in range(FUZZED):
        if k % 2 == 0:
            pieces = _PIECE_RE.findall(rng.choice(sources))
            for _ in range(rng.randint(1, 2)):
                at = rng.randrange(len(pieces) + 1)
                edit = rng.randrange(3)
                if edit == 0 and at < len(pieces):
                    del pieces[at]
                elif edit == 1 and at < len(pieces):
                    pieces[at] = rng.choice(VOCABULARY)
                else:
                    pieces.insert(at, rng.choice(VOCABULARY))
        else:
            pieces = [rng.choice(VOCABULARY) for _ in range(rng.randint(1, 15))]
        sep = " " if rng.random() < 0.8 else ""
        text = sep.join(pieces)
        out.append(text if text.strip() else "(")  # the REPL skips blank lines
    return out


def tree(text: str) -> str:
    try:
        return repr(parse_formula(text) if is_formula_text(text) else parse_term(text))
    except ValueError as exc:  # ParseError and its NestingError included
        return f"{type(exc).__name__}: {exc}"


def repl_replies(model: str, lines: list[str]) -> list[str]:
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO("".join(line + "\n" for line in lines))
    try:
        with redirect_stdout(out):
            code = cli.main(["repl", "--model", model])
    finally:
        sys.stdin = stdin
    # a banner, then each reply after its prompt, then the prompt at EOF
    printed = out.getvalue().split("\n")[1:-2]
    if code != 0 or len(printed) != len(lines):
        raise SystemExit(f"repl --model {model}: exit {code}, {len(printed)} replies to {len(lines)} lines")
    return [reply.removeprefix("> ") for reply in printed]


def attempt(reading) -> str:
    try:
        return reading()
    except ArithmeticError as exc:  # NegativeResultError, NotDivisibleError
        return f"{type(exc).__name__}: {exc}"


def kernel_readings(name: str) -> list[str]:
    model = cli.make_model(name)
    corners = model.corner_elements()
    rng = random.Random("behaviour:kernel")
    pairs = [(x, y) for x in corners for y in corners]
    pairs += [(model.sample(rng), model.sample(rng)) for _ in range(KERNEL_SAMPLES)]
    show = (lambda v: f"{model.format(v)} {v!r}") if name == "nonstd" else model.format

    def unary(z) -> str:
        readings = [str(model.residue_mod(z, n)) for n in range(2, 25)]
        readings += [attempt(lambda n=n: show(model.divide(z, n))) for n in range(2, 8)]
        if model.has_v2:
            readings += [show(model.v2(z)), show(model.next_power_of_two(z))]
        return " | ".join(readings)

    return [
        "\t".join((
            show(x), show(y),
            " | ".join((show(model.add(x, y)), attempt(lambda: show(model.sub(x, y))), model.compare(x, y).name)),
            unary(x), unary(y),
        ))
        for x, y in pairs
    ]


def refute_readings() -> list[str]:
    pairs = [f"({a}/{b}, {n})" for a in REFUTE_COEFFICIENTS for b in REFUTE_COEFFICIENTS for n in REFUTE_OFFSETS]
    out = io.StringIO()
    with redirect_stdout(out):
        for pair in pairs:
            cli.cmd_refute(argparse.Namespace(pair=pair))
    return [f"{pair}\t{verdict}" for pair, verdict in zip(pairs, out.getvalue().splitlines(), strict=True)]


def run_main(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{argv!r}\t{code}\t{out.getvalue()!r}\t{err.getvalue()!r}"


def command_readings(name: str) -> list[str]:
    model = cli.make_model(name)
    literals = [model.format(x) for x in model.corner_elements()] + list(MALFORMED)
    argvs = [[command, x, y] for command in ("add", "cmp") for x in literals for y in literals]
    argvs += [[command, x] for command in ("eval", "v2") for x in literals]
    argvs += [[command, x, n] for command in ("mod", "div") for x in literals for n in DIVISORS]
    return [run_main([*argv, "--model", name]) for argv in argvs]


def help_readings() -> list[str]:
    os.environ["COLUMNS"] = "80"
    return [run_main(argv) for argv in (["--help"], *([command, "--help"] for command in SUBCOMMANDS))]


def main() -> None:
    lines = mix_lines()
    lines += fuzzed_lines(lines)
    write = sys.stdout.write
    for text in lines:
        write(f"tree\t{text!r}\t{tree(text)}\n")
    for model in MODELS:
        for text, reply in zip(lines, repl_replies(model, lines)):
            write(f"repl {model}\t{text!r}\t{reply}\n")
    for model in MODELS:
        for seed in SEEDS:
            for report in run_suite(cli.make_model(model), seed=seed):
                write(f"report {model} {seed}\t{report!r}\n")
    for model_class in FAULT_MODELS:
        for seed in SEEDS:
            for report in run_suite(model_class(), seed=seed):
                write(f"fault {model_class.__name__} {seed}\t{report!r}\n")
    for model in KERNEL_MODELS:
        for reading in kernel_readings(model):
            write(f"kernel {model}\t{reading}\n")
    for reading in refute_readings():
        write(f"refute\t{reading}\n")
    for model in MODELS:
        for reading in command_readings(model):
            write(f"command {model}\t{reading}\n")
    for reading in help_readings():
        write(f"help\t{reading}\n")


if __name__ == "__main__":
    main()
