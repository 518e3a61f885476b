"""Command-line front end.

Subcommands: ``eval``, ``add``, ``cmp``, ``v2``, ``mod``, ``div`` evaluate
element expressions; ``axioms`` runs the checking suite and prints one TSV
line per axiom; ``refute`` prints the impossibility verdict for a pair;
``repl`` loops ``eval`` over stdin lines.  The six element subcommands are
the rows of one table, ``_MODEL_COMMANDS``, and share one handler, which
makes the model, reads the operands and prints the row's answer.  Every
subcommand but ``refute`` takes ``--model``.  ``build_parser`` builds the
argument parser once per process.

The ``--model`` choices are the keys of one table, ``MODELS``, which
names the class of each; ``make_model`` builds the chosen one.

Each handler imports what it runs.  The element subcommands, ``eval`` and
``repl`` load ``formulas`` and ``nonstandard``, and ``standard`` or
``pairs`` for ``--model std`` or ``pairs``; ``axioms`` also loads
``axioms`` and ``compiled``; ``refute`` loads ``pairs``.

``eval`` and ``repl`` evaluate terms and formulas on
``nonstandard.TRIPLE_VIEW``, the kernel's forms on (p, q, w) int triples,
when the model keeps every kernel form (``nonstandard.keeps_kernel``, the
predicate that also picks the axiom harness's unboxed case loop), and box
only a term's value, for ``model.format``; on any other model, such as
one that overrides or wraps an operation, they evaluate on the model
itself.  The REPL asks once per session and ``eval`` once per call.  The
REPL calls ``parse_formula``, ``parse_term``, ``eval_qf`` and
``eval_term`` through this module's globals.

Exit codes: 0 success / all axioms pass, 1 some axiom fails, 2 parse
error (a ``ParseError``), 3 evaluation error (any other ``ValueError``,
which every failed model operation raises).  Output is byte-identical
for identical arguments and seeds.  A reader that closes stdout early
stops the run quietly, with the exit code the full run would give.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .formulas import (
    KEYWORDS,
    QUANTIFIERS,
    Term,
    eval_qf,
    eval_term,
    identifiers,
    is_formula_text,
    parse_formula,
    parse_term,
)
from .nonstandard import TRIPLE_VIEW, Model, ParseError, _element, keeps_kernel

# Each ``--model`` choice and the class, exported by the package, that serves it.
MODELS = {"nonstd": "NonstandardModel", "std": "StandardModel", "pairs": "PairsModel"}


def make_model(name: str, *bounds: int) -> Model:
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    # Through this package's lazy exports, so only the chosen model's module loads.
    return getattr(sys.modules[__package__], MODELS[name])(*bounds)


def _view(model: Model):
    """What ``_evaluate_expression`` evaluates terms and formulas on.

    ``nonstandard.TRIPLE_VIEW`` for a model that keeps every kernel form
    (``nonstandard.keeps_kernel``), so that a line computes on (p, q, w)
    triples and boxes only its value; else the model itself.
    """
    return TRIPLE_VIEW if keeps_kernel(model) else model


def _evaluate_expression(text: str, model: Model, view=None) -> str:
    """Element literal, closed term, or closed quantifier-free formula.

    Terms and formulas are evaluated on ``view``, ``_view(model)`` if not given.
    """
    if is_formula_text(text):  # no element literal has a formula-only symbol
        expr = parse_formula(text)
    else:
        try:
            return model.format(model.parse(text))
        except ParseError:
            pass
        expr = parse_term(text)
    # The text parsed, so its names say what the tree holds (``identifiers``).
    names = identifiers(text)
    if not QUANTIFIERS.isdisjoint(names):
        raise ValueError("cannot decide quantified formulas; use the axioms harness")
    unbound = names - KEYWORDS
    if unbound:
        raise ValueError(f"unbound variables: {', '.join(sorted(unbound))}")
    if not model.has_v2 and "V2" in names:
        raise ValueError(f"model {model.name!r} has no V2")
    if view is None:
        view = _view(model)
    if isinstance(expr, Term):
        value = eval_term(expr, {}, view)
        return model.format(value if view is model else _element(*value))
    return "true" if eval_qf(expr, {}, view) else "false"


def _report_line(report) -> str:
    from .axioms import FAIL

    head = f"{report.axiom_id}\t{report.status}\t{report.cases}\t{report.seed}"
    if report.status != FAIL:
        return head
    parts = []
    if report.param is not None:
        parts.append(f"n={report.param}")
    if report.error:
        parts.append(f"error={report.error}")
    parts.extend(f"{name}={value}" for name, value in report.counterexample)
    return f"{head}\t{';'.join(parts)}"


def _format_verdict(verdict) -> str:
    from .pairs import FiniteTwoDivisibility

    if isinstance(verdict, FiniteTwoDivisibility):
        chain = " -> ".join(str(p) for p in verdict.chain)
        return f"FINITE_TWO_DIVISIBILITY steps={verdict.max_steps} chain={chain}"
    return f"DIVISIBLE_BY_THREE quotient={verdict.quotient}"


def _v2(model: Model, value: str) -> str:
    if not model.has_v2:  # refuse before reading the operand
        raise ValueError(f"model {model.name!r} has no V2")
    return model.format(model.v2(model.parse(value)))


# The subcommands that answer from one model: name, help, operands (``n``
# is an int), and the answer for the model and the operands.
_MODEL_COMMANDS = (
    ("eval", "evaluate an element literal, term, or closed formula", ("expr",),
     lambda model, expr: _evaluate_expression(expr, model)),
    ("add", "add two elements", ("left", "right"),
     lambda model, x, y: model.format(model.add(model.parse(x), model.parse(y)))),
    ("cmp", "compare two elements", ("left", "right"),
     lambda model, x, y: model.compare(model.parse(x), model.parse(y)).name),
    ("v2", "largest power of two dividing an element", ("value",), _v2),
    ("mod", "residue of an element modulo n", ("value", "n"),
     lambda model, x, n: model.residue_mod(model.parse(x), n)),
    ("div", "exact division of an element by n", ("value", "n"),
     lambda model, x, n: model.format(model.divide(model.parse(x), n))),
)


def cmd_model(args) -> int:
    model = make_model(args.model)  # looked up per call, as callers replace it
    print(args.answer(model, *(getattr(args, name) for name in args.operands)))
    return 0


def cmd_axioms(args) -> int:
    from .axioms import FAIL, run_suite

    if min(args.cases, args.den_bound, args.offset_bound, args.schema_max) < 1:
        raise ValueError("suite bounds must be positive")
    model = make_model(args.model, args.den_bound, args.offset_bound)
    reports = run_suite(
        model,
        seed=args.seed,
        cases=args.cases,
        schema_max=args.schema_max,
        ids=None if args.axioms is None else tuple(args.axioms.split(",")),
    )
    args.code = 1 if any(r.status == FAIL for r in reports) else 0  # also if stdout closes
    for report in reports:
        print(_report_line(report))
    return args.code


def cmd_refute(args) -> int:
    from .pairs import parse_pair, refute_power2_candidate

    print(_format_verdict(refute_power2_candidate(parse_pair(args.pair))))
    return 0


def cmd_repl(args) -> int:
    model = make_model(args.model)
    view = _view(model)  # once per session: the model's members are not replaced while it runs
    print(f"model {model.name}; enter an expression, :q to quit")
    while True:
        try:
            line = input("> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line in (":q", ":quit", ":exit"):
            return 0
        try:
            reply = _evaluate_expression(line, model, view)
        except ParseError as exc:
            reply = f"parse error: {exc}"
        except ValueError as exc:
            reply = f"error: {exc}"
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()  # input() ignores a closed stdout; this flush stops the loop


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="buchi2",
        description="Exact arithmetic and axiom checks for a non-standard model of BA2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, operands, answer in _MODEL_COMMANDS:
        p = sub.add_parser(name, help=summary)
        for operand in operands:
            p.add_argument(operand, type=int if operand == "n" else None)
        p.set_defaults(fn=cmd_model, operands=operands, answer=answer)

    p = sub.add_parser("axioms", help="run the axiom suite, one TSV line per axiom")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=1000)
    for option, default in zip(("--den-bound", "--offset-bound"), Model.__init__.__defaults__):
        p.add_argument(option, type=int, default=default)
    p.add_argument("--schema-max", type=int, default=12)
    p.add_argument("--axioms", default=None, help="comma-separated axiom ids, e.g. A15,V12")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("refute", help="refute a pairs-model power-of-two candidate")
    p.add_argument("pair", help="pair literal, e.g. '(5/7, 6)'")
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("repl", help="read-eval-print loop over eval expressions")
    p.set_defaults(fn=cmd_repl)

    for name, p in sub.choices.items():
        if name != "refute":  # a refute candidate is always a pair
            p.add_argument("--model", choices=MODELS, default="nonstd")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        print(end="", flush=True)  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop, with the full run's code
        if sys.stdout is sys.__stdout__:  # so that the flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return getattr(args, "code", 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
