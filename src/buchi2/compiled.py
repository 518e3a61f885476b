"""Compiled evaluation of quantifier-free formulas (``compile_qf``).

This is hash-consing (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006) restricted to structural identity: no law of the
model is assumed, so no sum is re-associated or commuted.  The axiom
harness uses it; ``formulas.eval_qf`` stays the reference.
"""

from __future__ import annotations

import operator
from typing import MutableMapping

from .formulas import (
    And, CongMod, Eq, Exists, ForAll, Formula, Implies, Lt, Not, Numeral, Or, Sum,
    UnboundVariableError, V2App, Variable,
)
from .nonstandard import Model, Ordering

# A compiled formula is a DAG of functions fn(env, vals), one per distinct
# subterm ("slot") and one per formula node.  ``vals`` holds this call's
# slot values, None until first demanded; each reader checks it before
# calling the slot's function, which stores its value there, so a slot
# calls its operands' functions where eval_term would recurse into them.
# The function of a variable-free slot also stores its value in ``kept``,
# the list each call copies ``vals`` from; model operations are pure, so
# two calls that both store a kept value store the same one.  Every
# function takes its values as default arguments, so there are no closure
# cells and no reference cycles.  A derived variable's slot is keyed like
# the variable it binds; it calls its witness on its operand slots' values
# and stores the result in env too, so the caller sees what a call derived.
# A disjunction of congruences of one term against variable-free terms is
# one lookup node instead of one atom per disjunct (see _residue_lookup).

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
    # model.v2 is looked up per call, before the operand is computed: on a
    # model without V2 the error comes where eval_term raises it, not at
    # compile time nor from the operand.
    def slot(env, vals, i=i, a=a, fa=fa, model=model, kept=kept):
        v2 = model.v2
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        v = vals[i] = v2(x)
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


def _sum_slot(i, a, fa, b, fb, add, kept):
    def slot(env, vals, i=i, a=a, fa=fa, b=b, fb=fb, add=add, kept=kept):
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        y = vals[b]
        if y is None:
            y = fb(env, vals)
        v = vals[i] = add(x, y)
        if kept is not None:
            kept[i] = v
        return v
    return slot


def _derived_slot(i, name, witness, param, model, reads, kept):
    def slot(env, vals, i=i, name=name, witness=witness, param=param, model=model, reads=reads):
        args = []
        for a, fa in reads:
            x = vals[a]
            if x is None:
                x = fa(env, vals)
            args.append(x)
        v = vals[i] = env[name] = witness(model, param, *args)
        return v
    return slot


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


def _residue_lookup(a, fa, n, residue_mod, pending):
    # t == k0 mod n | t == k1 mod n | ..., with a the slot of t's residue and
    # every k variable-free.  pending holds the k slots not read yet, flat
    # and last first: [..., fn of k1, k1, fn of k0, k0].  A k's residue
    # moves from there to known only once computed, and both are kept
    # across calls, like kept values; so known always holds the residues of
    # a prefix of the chain, a hit in it is where eval_qf's scan stops, and
    # a k whose residue raises raises again when a later call reaches it.
    known = set()

    def lookup(env, vals, a=a, fa=fa, n=n, residue_mod=residue_mod, pending=pending, known=known):
        x = vals[a]
        if x is None:
            x = fa(env, vals)
        if x in known:
            return True
        while pending:
            y = vals[pending[-1]]
            if y is None:
                y = pending[-2](env, vals)
            y = residue_mod(y, n)
            del pending[-2:]
            known.add(y)
            if x == y:
                return True
        return False
    return lookup


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


def compile_qf(f: Formula, model: Model, derived=()):
    """check(env) -> bool, equal to ``eval_qf(f, env, model)`` for every env.

    Each distinct subterm is one slot, keyed by its kind and its operands'
    slots, and is computed at most once per call, when first demanded, so
    short-circuiting and the interpreter's first error (type and message)
    are kept.  A variable-free slot keeps its value across calls.  Sharing
    is structural only: ``x + y`` and ``y + x``, or ``(x + y) + z`` and
    ``x + (y + z)``, are different slots.  ``And``/``Or`` chains run as
    loops; terms are compiled and checked recursively, one stack frame per
    term node as in ``eval_qf``, so sums as long as the catalog's
    (``axioms.MAX_SCHEMA`` links) fit the default recursion limit.  A
    congruence compares the two sides' residue slots.  An ``Or`` chain of
    congruences ``t == k mod n`` with one modulus, one term ``t`` and every
    ``k`` variable-free, such as A11's residue cases, is one node instead:
    it looks ``t``'s residue up in the set of the ``k`` residues computed
    so far, which it keeps across calls, and computes the next ones, in
    chain order, only on a miss; so one check must not run in two threads
    at once.  The model's ``numeral``, ``add``, ``compare`` and
    ``residue_mod`` are looked up once, here.

    Each ``(name, witness, param, reads)`` of ``derived`` binds ``name``
    in env to ``witness(model, param, *values)``, the values of ``reads``:
    terms (sampled or earlier derived variables), and ``(term, n)`` for a
    term's residue mod n, sharing f's own slots.  It is computed when f
    first demands ``name``; a false check then computes the rest, in
    order, so env holds them all.  A witness's error propagates.  The
    equality with ``eval_qf`` is for the env that the check leaves.
    """
    numeral, add, compare, residue_mod = model.numeral, model.add, model.compare, model.residue_mod
    slots: dict[tuple, int] = {}  # (kind, operand slots or value) -> slot
    fns: list = []  # slot -> its function
    const: list[bool] = []  # slot -> whether it is variable-free
    kept: list = []  # slot -> its kept value, None until computed

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
        if isinstance(t, Sum):
            a, b = term(t.left), term(t.right)
            return slot(("+", a, b), const[a] and const[b], _sum_slot, a, fns[a], b, fns[b], add)
        if isinstance(t, Variable):
            return slot(("var", t.name), False, _variable_slot, t.name)
        if isinstance(t, Numeral):
            return slot(("num", t.value), True, _numeral_slot, t.value, numeral)
        if isinstance(t, V2App):
            a = term(t.arg)
            return slot(("v2", a), const[a], _v2_slot, a, fns[a], model)
        return slot(("bad", len(fns)), False, lambda i, kept: _raising(TypeError, f"not a term: {t!r}"))

    def residue(t, n: int) -> int:
        a = term(t)
        return slot(("mod", a, n), const[a], _residue_slot, a, fns[a], n, residue_mod)

    def lookup(operands):
        # the _residue_lookup node of a chain of congruences, or None
        if not all(isinstance(h, CongMod) for h in operands):
            return None
        n = operands[0].modulus
        if any(h.modulus != n for h in operands):
            return None
        a = term(operands[0].left)
        if any(term(h.left) != a for h in operands):
            return None
        ks = [term(h.right) for h in operands]
        if not all(const[k] for k in ks):
            return None
        pending = [v for k in reversed(ks) for v in (fns[k], k)]
        a = residue(operands[0].left, n)
        return _residue_lookup(a, fns[a], n, residue_mod, pending)

    def formula(g):
        if isinstance(g, (Eq, Lt)):
            a, b = term(g.left), term(g.right)
            want = Ordering.EQUAL if isinstance(g, Eq) else Ordering.LESS
            return _comparison(a, fns[a], b, fns[b], compare, want)
        if isinstance(g, CongMod):
            a, b = residue(g.left, g.modulus), residue(g.right, g.modulus)
            return _comparison(a, fns[a], b, fns[b], operator.eq, True)
        if isinstance(g, Not):
            return _negation(formula(g.body))
        if isinstance(g, (And, Or)):
            chain, operands, stack = type(g), [], [g]
            while stack:  # the operands, left to right, of the whole chain
                h = stack.pop()
                if type(h) is chain:
                    stack += (h.right, h.left)
                else:
                    operands.append(h)
            if isinstance(g, And):
                return _conjunction(tuple(formula(h) for h in operands))
            return lookup(operands) or _disjunction(tuple(formula(h) for h in operands))
        if isinstance(g, Implies):
            return _implication(formula(g.left), formula(g.right))
        if isinstance(g, (ForAll, Exists)):
            return _raising(ValueError, "quantifier in quantifier-free evaluation")
        return _raising(TypeError, f"not a formula: {g!r}")

    def derive(name, witness, param, reads) -> int:
        operands = [residue(*r) if isinstance(r, tuple) else term(r) for r in reads]
        return slot(("var", name), False, _derived_slot, name, witness, param, model,
                    tuple((a, fns[a]) for a in operands))

    witnesses = tuple((i, fns[i]) for i in [derive(*d) for d in derived])
    root = formula(f)
    del slot, term, residue, lookup, formula, derive  # empty their cells, which form reference cycles

    def check(env: MutableMapping[str, object], root=root, kept=kept, witnesses=witnesses) -> bool:
        vals = kept.copy()
        if root(env, vals):
            return True
        for i, fn in witnesses:
            if vals[i] is None:
                fn(env, vals)
        return False
    return check
