"""Compiled evaluation of quantifier-free formulas (``formulas.compile_qf``).

This is hash-consing (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006) restricted to structural identity: no law of the
model is assumed, so no sum is re-associated or commuted.  The axiom
harness uses it; ``formulas.eval_qf`` stays the reference.
"""

from __future__ import annotations

from typing import Mapping

from .formulas import (
    And, CongMod, Eq, Exists, ForAll, Formula, Implies, Lt, Not, Numeral, Or, Sum,
    UnboundVariableError, V2App, Variable,
)
from .nonstandard import Model, Ordering

# A compiled formula is a DAG of functions fn(env, vals), one per distinct
# subterm ("slot") and one per formula node.  ``vals`` holds this call's
# slot values, None until first demanded; each reader checks it before
# calling the slot's function, which stores its value there.  The function
# of a variable-free slot also stores it in ``kept``, the list each call
# copies ``vals`` from; model operations are pure, so two calls that both
# store a kept value store the same one.  Every function takes its values
# as default arguments, so there are no closure cells and no reference
# cycles.

def _variable_slot(i, name, kept):
    def slot(env, vals, i=i, name=name):
        try:
            v = vals[i] = env[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
        return v
    return slot


def _numeral_slot(i, value, numeral, kept):
    def slot(env, vals, i=i, value=value, numeral=numeral, kept=kept):
        v = vals[i] = kept[i] = numeral(value)
        return v
    return slot


def _v2_slot(i, a, fa, model, kept):
    # model.v2 is looked up per call: on a model without V2 the error comes
    # where eval_term raises it, not at compile time.
    def slot(env, vals, i=i, a=a, fa=fa, model=model, kept=kept):
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        v = vals[i] = model.v2(x)
        if kept is not None:
            kept[i] = v
        return v
    return slot


def _residue_slot(i, a, fa, n, residue_mod, kept):
    def slot(env, vals, i=i, a=a, fa=fa, n=n, residue_mod=residue_mod, kept=kept):
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        v = vals[i] = residue_mod(x, n)
        if kept is not None:
            kept[i] = v
        return v
    return slot


def _sum_slot(i, a, fa, b, fb, walk, add, kept):
    # walk: fa is a sum slot of the same kind (kept or not) as this one
    def slot(env, vals, i=i, a=a, fa=fa, b=b, fb=fb, walk=walk, add=add, kept=kept):
        x = vals[a]
        if x is None:
            x = _spine(fa, env, vals) if walk else fa(env, vals)
        y = vals[b]
        if y is None:
            y = fb(env, vals)
        v = vals[i] = add(x, y)
        if kept is not None:
            kept[i] = v
        return v
    return slot


def _spine(fn, env, vals):
    """Value of the sum slot fn, with its left spine computed bottom-up.

    Each sum slot's function carries its operands as its defaults.  The
    walk down stops at the first computed slot or at a left operand that
    is not walked; the way back up adds the right operands.  That is the
    order of eval_term, without a stack frame per sum.
    """
    spine = []
    while True:
        args = fn.__defaults__  # (i, a, fa, b, fb, walk, add, kept)
        spine.append(args)
        x = vals[args[1]]
        if x is not None:
            break
        if not args[5]:
            x = args[2](env, vals)
            break
        fn = args[2]
    for i, _, _, b, fb, _, add, kept in reversed(spine):
        y = vals[b]
        if y is None:
            y = fb(env, vals)
        x = vals[i] = add(x, y)
        if kept is not None:
            kept[i] = x
    return x


def _raising(error, message):
    def fail(env, vals, error=error, message=message):
        raise error(message)
    return fail


def _comparison(a, fa, b, fb, compare, want):
    def atom(env, vals, a=a, fa=fa, b=b, fb=fb, compare=compare, want=want):
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        y = vals[b]
        if y is None:
            y = fb(env, vals)
        return compare(x, y) is want
    return atom


def _congruence(a, fa, b, fb):
    # a and b are the residue slots of the two sides
    def atom(env, vals, a=a, fa=fa, b=b, fb=fb):
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        y = vals[b]
        if y is None:
            y = fb(env, vals)
        return x == y
    return atom


def _negation(body):
    def neg(env, vals, body=body):
        return not body(env, vals)
    return neg


def _implication(left, right):
    def imp(env, vals, left=left, right=right):
        return (not left(env, vals)) or right(env, vals)
    return imp


def _conjunction(parts):
    def conj(env, vals, parts=parts):
        for part in parts:
            if not part(env, vals):
                return False
        return True
    return conj


def _disjunction(parts):
    def disj(env, vals, parts=parts):
        for part in parts:
            if part(env, vals):
                return True
        return False
    return disj


def compile_qf(f: Formula, model: Model):
    """check(env) -> bool, equal to ``eval_qf(f, env, model)`` for every env.

    Each distinct subterm is one slot, keyed by its kind and its operands'
    slots, and is computed at most once per call, when first demanded, so
    short-circuiting and the interpreter's first error (type and message)
    are kept.  A variable-free slot keeps its value across calls.  Sharing
    is structural only: ``x + y`` and ``y + x``, or ``(x + y) + z`` and
    ``x + (y + z)``, are different slots.  ``And``/``Or`` chains run as
    loops and the left spines of sums are walked iteratively, so neither
    compiling nor checking recurses once per chain link.  The model's
    ``numeral``, ``add``, ``compare`` and ``residue_mod`` are looked up once,
    here.
    """
    numeral, add, compare, residue_mod = model.numeral, model.add, model.compare, model.residue_mod
    slots: dict[tuple, int] = {}  # (kind, operand slots or value) -> slot
    fns: list = []  # slot -> its function
    const: list[bool] = []  # slot -> whether it is variable-free
    kept: list = []  # slot -> its kept value, None until computed
    sums: set[int] = set()  # the sum slots

    def slot(key, is_const, factory, *args) -> int:
        # a factory takes the slot, its operands, and kept or, for a slot
        # with variables, None
        i = slots.get(key)
        if i is None:
            i = slots[key] = len(fns)
            const.append(is_const)
            kept.append(None)
            fns.append(factory(i, *args, kept if is_const else None))
        return i

    def term(t) -> int:
        rights = []
        while isinstance(t, Sum):
            rights.append(t.right)
            t = t.left
        if isinstance(t, Variable):
            a = slot(("var", t.name), False, _variable_slot, t.name)
        elif isinstance(t, Numeral):
            a = slot(("num", t.value), True, _numeral_slot, t.value, numeral)
        elif isinstance(t, V2App):
            arg = term(t.arg)
            a = slot(("v2", arg), const[arg], _v2_slot, arg, fns[arg], model)
        else:
            a = slot(("bad", len(fns)), False, lambda i, kept: _raising(TypeError, f"not a term: {t!r}"))
        for right in reversed(rights):
            b = term(right)
            is_const = const[a] and const[b]
            walk = a in sums and const[a] == is_const
            a = slot(("+", a, b), is_const, _sum_slot, a, fns[a], b, fns[b], walk, add)
            sums.add(a)
        return a

    def residue(t, n: int) -> int:
        a = term(t)
        return slot(("mod", a, n), const[a], _residue_slot, a, fns[a], n, residue_mod)

    def formula(g):
        if isinstance(g, (Eq, Lt)):
            a, b = term(g.left), term(g.right)
            want = Ordering.EQUAL if isinstance(g, Eq) else Ordering.LESS
            return _comparison(a, fns[a], b, fns[b], compare, want)
        if isinstance(g, CongMod):
            a, b = residue(g.left, g.modulus), residue(g.right, g.modulus)
            return _congruence(a, fns[a], b, fns[b])
        if isinstance(g, Not):
            return _negation(formula(g.body))
        if isinstance(g, (And, Or)):
            chain, parts, stack = type(g), [], [g]
            while stack:  # the operands, left to right, of the whole chain
                h = stack.pop()
                if type(h) is chain:
                    stack += (h.right, h.left)
                else:
                    parts.append(formula(h))
            return (_conjunction if isinstance(g, And) else _disjunction)(tuple(parts))
        if isinstance(g, Implies):
            return _implication(formula(g.left), formula(g.right))
        if isinstance(g, (ForAll, Exists)):
            return _raising(ValueError, "quantifier in quantifier-free evaluation")
        return _raising(TypeError, f"not a formula: {g!r}")

    root = formula(f)

    def check(env: Mapping[str, object], root=root, kept=kept) -> bool:
        return root(env, kept.copy())
    return check
