"""Command-line front end.

Subcommands: ``eval``, ``add``, ``cmp``, ``v2``, ``mod``, ``div`` evaluate
element expressions; ``axioms`` runs the checking suite and prints one TSV
line per axiom; ``refute`` prints the impossibility verdict for a pair;
``repl`` loops ``eval`` over stdin lines.

Exit codes: 0 success / all axioms pass, 1 some axiom fails, 2 parse
error, 3 evaluation error.  Output is byte-identical for identical
arguments and seeds.
"""

from __future__ import annotations

import argparse
import sys

from .axioms import FAIL, Report, run_suite
from .formulas import (
    ForAll,
    Exists,
    Term,
    V2App,
    eval_qf,
    eval_term,
    free_variables,
    is_formula_text,
    mentions,
    parse_formula,
    parse_term,
)
from .nonstandard import (
    Model,
    NegativeResultError,
    NotDivisibleError,
    NonstandardModel,
    ParseError,
)
from .pairs import PairsModel, FiniteTwoDivisibility, refute_power2_candidate
from .standard import StandardModel


class EvaluationError(Exception):
    """Wrapper for anything that should exit with code 3."""


def make_model(name: str, den_bound: int = 1000, offset_bound: int = 10**6) -> Model:
    if name == "nonstd":
        return NonstandardModel(den_bound=den_bound, offset_bound=offset_bound)
    if name == "std":
        return StandardModel(offset_bound=offset_bound)
    if name == "pairs":
        return PairsModel(den_bound=den_bound, offset_bound=offset_bound)
    raise ValueError(f"unknown model {name!r}")


def _evaluate_expression(text: str, model: Model) -> str:
    """Element literal, closed term, or closed quantifier-free formula."""
    if is_formula_text(text):  # no element literal has a formula-only symbol
        expr = parse_formula(text)
    else:
        try:
            return model.format(model.parse(text))
        except ParseError:
            pass
        expr = parse_term(text)
    if mentions(expr, (ForAll, Exists)):
        raise EvaluationError("cannot decide quantified formulas; use the axioms harness")
    unbound = free_variables(expr)
    if unbound:
        raise EvaluationError(f"unbound variables: {', '.join(sorted(unbound))}")
    if not model.has_v2 and mentions(expr, V2App):
        raise EvaluationError(f"model {model.name!r} has no V2")
    if isinstance(expr, Term):
        return model.format(eval_term(expr, {}, model))
    return "true" if eval_qf(expr, {}, model) else "false"


def _report_line(report: Report) -> str:
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
    if isinstance(verdict, FiniteTwoDivisibility):
        chain = " -> ".join(str(p) for p in verdict.chain)
        return f"FINITE_TWO_DIVISIBILITY steps={verdict.max_steps} chain={chain}"
    return f"DIVISIBLE_BY_THREE quotient={verdict.quotient}"


def cmd_eval(args) -> int:
    model = make_model(args.model)
    print(_evaluate_expression(args.expr, model))
    return 0


def cmd_add(args) -> int:
    model = make_model(args.model)
    print(model.format(model.add(model.parse(args.left), model.parse(args.right))))
    return 0


def cmd_cmp(args) -> int:
    model = make_model(args.model)
    print(model.compare(model.parse(args.left), model.parse(args.right)).name)
    return 0


def cmd_v2(args) -> int:
    model = make_model(args.model)
    if not model.has_v2:
        raise EvaluationError(f"model {model.name!r} has no V2")
    print(model.format(model.v2(model.parse(args.value))))
    return 0


def cmd_mod(args) -> int:
    model = make_model(args.model)
    print(model.residue_mod(model.parse(args.value), args.n))
    return 0


def cmd_div(args) -> int:
    model = make_model(args.model)
    print(model.format(model.divide(model.parse(args.value), args.n)))
    return 0


def cmd_axioms(args) -> int:
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
    for report in reports:
        print(_report_line(report))
    return 1 if any(r.status == FAIL for r in reports) else 0


def cmd_refute(args) -> int:
    model = PairsModel()
    pair = model.parse(args.pair)
    if pair.g == 0:
        raise EvaluationError(f"{model.format(pair)} is standard; not a candidate")
    print(_format_verdict(refute_power2_candidate(pair)))
    return 0


def cmd_repl(args) -> int:
    model = make_model(args.model)
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
            print(_evaluate_expression(line, model))
        except ParseError as exc:
            print(f"parse error: {exc}")
        except (EvaluationError, NegativeResultError, NotDivisibleError, ValueError) as exc:
            print(f"error: {exc}")


def _add_model_flag(parser) -> None:
    parser.add_argument("--model", choices=("nonstd", "std", "pairs"), default="nonstd")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchi2",
        description="Exact arithmetic and axiom checks for a non-standard model of BA2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an element literal, term, or closed formula")
    p.add_argument("expr")
    _add_model_flag(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("add", help="add two elements")
    p.add_argument("left")
    p.add_argument("right")
    _add_model_flag(p)
    p.set_defaults(fn=cmd_add)

    p = sub.add_parser("cmp", help="compare two elements")
    p.add_argument("left")
    p.add_argument("right")
    _add_model_flag(p)
    p.set_defaults(fn=cmd_cmp)

    p = sub.add_parser("v2", help="largest power of two dividing an element")
    p.add_argument("value")
    _add_model_flag(p)
    p.set_defaults(fn=cmd_v2)

    p = sub.add_parser("mod", help="residue of an element modulo n")
    p.add_argument("value")
    p.add_argument("n", type=int)
    _add_model_flag(p)
    p.set_defaults(fn=cmd_mod)

    p = sub.add_parser("div", help="exact division of an element by n")
    p.add_argument("value")
    p.add_argument("n", type=int)
    _add_model_flag(p)
    p.set_defaults(fn=cmd_div)

    p = sub.add_parser("axioms", help="run the axiom suite, one TSV line per axiom")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--den-bound", type=int, default=1000)
    p.add_argument("--offset-bound", type=int, default=10**6)
    p.add_argument("--schema-max", type=int, default=12)
    p.add_argument("--axioms", default=None, help="comma-separated axiom ids, e.g. A15,V12")
    _add_model_flag(p)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("refute", help="refute a pairs-model power-of-two candidate")
    p.add_argument("pair", help="pair literal, e.g. '(5/7, 6)'")
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("repl", help="read-eval-print loop over eval expressions")
    _add_model_flag(p)
    p.set_defaults(fn=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, NegativeResultError, NotDivisibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
