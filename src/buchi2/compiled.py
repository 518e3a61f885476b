"""Compiled evaluation of quantifier-free formulas (``compile_qf``).

This is hash-consing (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006) restricted to structural identity: no law of the
model is assumed, so no sum is re-associated or commuted.  Each formula is
compiled to the source of one Python function, generated code rather than
a tree of closures (Feeley and Lapalme, "Using closures for code
generation", 1987).  The axiom harness uses it; ``formulas.eval_qf`` stays
the reference.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial

from .formulas import (
    And, CongMod, Eq, Exists, ForAll, Implies, Lt, Not, Numeral, Or, Sum, UnboundVariableError, V2App, Variable,
    eval_term,
)
from .nonstandard import EQUAL, LESS, compare, remainder

# The generated function keeps each distinct subterm ("slot") i in a local
# s<i>, computed where a formula first demands it.  Code runs in the order
# it is written, so the emitter knows at each demand which slots are
# assigned on every path there (no test), on none (no test), or on some: a
# test "if s<i> is None:", for which s<i> starts as None.  Such tests run
# flat, operands first, because a slot with a value implies its operands
# have one.  A variable-free slot starts as its value in ``kept``, None
# until a call computes it, so it is always tested, and its one assignment
# stores through, "s<i> = kept[i] = ...", which keeps the value across
# calls (a loop stores only its final value).  Each connective leaves its
# truth in the local r, and the operands of a chain are flat "if r:"
# tests, so only a nested right operand indents its code; past NESTING
# levels of indentation an operand moves to a helper function, which keeps
# Python's limit on nesting (100) out of reach.  Formula text never becomes source: names, numerals,
# moduli and model callables are values of generated global names, in a
# namespace that holds no builtins and, once compiled, not the check
# itself, so no reference cycle is left.
NESTING = 40


def _lookup(model, residue_mod, kept, terms, x, n, pending, known):
    # t == k0 mod n | t == k1 mod n | ..., where x is t's residue, on a miss
    # in known.  pending holds the k slots not read yet, last first; a k
    # with no kept value yet is computed by eval_term, the reference, and
    # kept.  A k's residue moves to known only once computed, and both are
    # kept across calls, so known always holds the residues of a prefix of
    # the chain, a hit in it is where eval_qf's scan stops, and a k whose
    # value or residue raises raises again when a later call reaches it.
    while pending:
        k = pending[-1]
        v = kept[k]
        if v is None:
            v = kept[k] = eval_term(terms[k], {}, model)
        y = residue_mod(v, n)
        pending.pop()
        known.add(y)
        if x == y:
            return True
    return False


class _Emitter:
    """Builds the slots and formula nodes of one check, then writes its source."""

    def __init__(self, model):
        self.slots: dict[tuple, int] = {}  # its op, or a variable's for a derived one -> slot
        self.ops: list[tuple] = []  # slot -> (kind, operand slots or values)
        self.const: list[bool] = []  # slot -> whether it is variable-free
        self.readers: list[int] = []  # slot -> how many slots, atoms and witnesses read it
        self.names = {  # generated name -> its value: the generated code's globals
            "__builtins__": {}, "model": model, "numeral": model.numeral, "add": model.add,
            "compare": model.compare, "residue_mod": model.residue_mod,
        }
        # Where the model binds one of these functions, its calls are written
        # as the Python operations the function runs, in the same order.
        self.plus = self.names["add"] is operator.add
        self.order = self.names["compare"] is compare
        self.mod = self.names["residue_mod"] is remainder
        self.named: dict[int, str] = {}  # id of a value -> its name
        self.lines: list[str] = []  # the function being written
        self.depth = 1  # indentation of the next line
        self.known: set[int] = set()  # slots assigned on every path to here
        self.log: list[int] = []  # the order they joined known, to leave branches
        self.seen: set[int] = set()  # slots assigned on some path to here
        self.unset: set[int] = set()  # tested slots: those not variable-free start as None
        self.assigned: set[int] = set()  # slots the function being written assigns
        self.helpers: list[str] = []  # the source of each helper function
        self.terms: dict[int, object] = {}  # slot -> its term, for the constants of residue lookups

    # -- slots and formula nodes --------------------------------------------

    def name(self, value) -> str:
        n = self.named.get(id(value))
        if n is None:
            n = self.named[id(value)] = f"c{len(self.named)}"
            self.names[n] = value
        return n

    def read(self, i: int) -> int:
        self.readers[i] += 1
        return i

    def slot(self, op, is_const, reads=(), key=None) -> int:
        key = op if key is None else key
        i = self.slots.get(key)
        if i is None:
            i = self.slots[key] = len(self.ops)
            self.ops.append(op)
            self.const.append(is_const)
            self.readers.append(0)
            for a in reads:
                self.read(a)
        return i

    def term(self, t) -> int:
        if isinstance(t, Sum):
            a, b = self.term(t.left), self.term(t.right)
            return self.slot(("+", a, b), self.const[a] and self.const[b], (a, b))
        if isinstance(t, Variable):
            return self.slot(("var", t.name, None), False)
        if isinstance(t, Numeral):
            return self.slot(("num", t.value, None), True)
        if isinstance(t, V2App):
            a = self.term(t.arg)
            return self.slot(("v2", a, None), self.const[a], (a,))
        return self.slot(("bad", f"not a term: {t!r}", None), False)

    def residue(self, t, n: int) -> int:
        a = self.term(t)
        return self.slot(("mod", a, n), self.const[a], (a,))

    def derive(self, name, witness, param, reads) -> int:
        operands = tuple(self.residue(*r) if isinstance(r, tuple) else self.term(r) for r in reads)
        return self.slot(("derived", (name, witness, param), operands), False, operands, key=("var", name, None))

    def lookup(self, operands):
        # the lookup node of a chain of congruences of one term against
        # variable-free terms, with one modulus, or None
        if not all(isinstance(h, CongMod) for h in operands):
            return None
        n = operands[0].modulus
        if any(h.modulus != n for h in operands):
            return None
        a = self.term(operands[0].left)
        if any(self.term(h.left) != a for h in operands):
            return None
        ks = [self.term(h.right) for h in operands]
        if not all(self.const[k] for k in ks):
            return None
        self.terms.update(zip(ks, (h.right for h in operands)))
        return ("lookup", self.read(self.residue(operands[0].left, n)), n, ks)

    def formula(self, g):
        if isinstance(g, (Eq, Lt)):
            a, b = self.read(self.term(g.left)), self.read(self.term(g.right))
            return ("cmp", a, b, EQUAL if isinstance(g, Eq) else LESS)
        if isinstance(g, CongMod):
            a, b = self.read(self.residue(g.left, g.modulus)), self.read(self.residue(g.right, g.modulus))
            return ("cong", a, b)
        if isinstance(g, Not):
            return ("not", self.formula(g.body))
        if isinstance(g, (And, Or)):
            chain, operands, stack = type(g), [], [g]
            while stack:  # the operands, left to right, of the whole chain
                h = stack.pop()
                if type(h) is chain:
                    stack += (h.right, h.left)
                else:
                    operands.append(h)
            if isinstance(g, And):
                return ("and", [self.formula(h) for h in operands])
            return self.lookup(operands) or ("or", [self.formula(h) for h in operands])
        if isinstance(g, Implies):
            return ("imp", self.formula(g.left), self.formula(g.right))
        if isinstance(g, (ForAll, Exists)):
            return ("raise", ValueError, "quantifier in quantifier-free evaluation")
        return ("raise", TypeError, f"not a formula: {g!r}")

    # -- source ---------------------------------------------------------------

    def line(self, text: str, guard=None) -> None:
        self.lines.append(" " * self.depth + (text if guard is None else f"if s{guard} is None: {text}"))

    def block(self, texts, guard) -> None:
        if guard is not None:
            self.line(f"if s{guard} is None:")
        self.depth += guard is not None
        for text in texts:
            self.line(text)
        self.depth -= guard is not None

    def assign(self, i: int) -> None:
        self.known.add(i)
        self.log.append(i)
        self.seen.add(i)
        self.assigned.add(i)

    def leave(self, mark: int) -> None:
        # forget what the code since mark assigned: it ran on some paths only
        self.known.difference_update(self.log[mark:])
        del self.log[mark:]

    def demand(self, i: int) -> str:
        """Write code after which s<i> holds slot i's value; return "s<i>"."""
        if i in self.known:
            return f"s{i}"
        kind, a, b = self.ops[i]
        guard = i if self.const[i] or i in self.seen else None
        if guard is not None:
            self.unset.add(i)
        store = f"s{i} = kept[{i}]" if self.const[i] else f"s{i}"
        if i in self.terms:  # a lookup may have kept its value since the check read kept
            self.line(f"s{i} = kept[{i}]", guard)
        if kind == "var":
            self.block([f"try: s{i} = env[{self.name(a)}]",
                        f"except {self.name(KeyError)}: raise {self.name(UnboundVariableError)}"
                        f"({self.name(f'unbound variable {a!r}')}) from None"], guard)
        elif kind == "num":
            self.line(f"{store} = numeral({self.name(a)})", guard)
        elif kind == "v2":  # model.v2 is looked up before the operand is computed
            self.line(f"f{i} = model.v2", guard)
            self.line(f"{store} = f{i}({self.demand(a)})", guard)
        elif kind == "mod":
            x, n = self.demand(a), self.name(b)
            templated = self.mod and type(b) is int and b >= 1  # remainder's test of n, made once here
            self.line(f"{store} = {x} % {n}" if templated else f"{store} = residue_mod({x}, {n})", guard)
        elif kind == "+":
            # a left-nested sum whose inner links only their outer link reads,
            # such as w + w + ... + w, is a loop over the same additions
            links = 1
            while self.ops[a][0] == "+" and self.ops[a][2] == b and self.readers[a] == 1:
                a, links = self.ops[a][1], links + 1
            self.demand(a)
            self.demand(b)
            plus = "{} + {}" if self.plus else "add({}, {})"
            first, more = plus.format(f"s{a}", f"s{b}"), plus.format(f"s{i}", f"s{b}")
            if links == 1:
                self.line(f"{store} = {first}", guard)
            else:
                loop = [f"s{i} = {first}", f"for _ in {self.name(range(links - 1))}: s{i} = {more}"]
                if self.const[i]:
                    loop.append(f"kept[{i}] = s{i}")
                self.block(loop, guard)
        elif kind == "derived":
            name, witness, param = a
            args = "".join(f", {self.demand(r)}" for r in b)
            self.line(f"s{i} = env[{self.name(name)}] = {self.name(witness)}(model, {self.name(param)}{args})",
                      guard)
        else:  # "bad"
            self.line(f"raise {self.name(TypeError)}({self.name(a)})")
            return f"s{i}"
        self.assign(i)
        return f"s{i}"

    def emit(self, node, negated=False) -> None:
        """Write code after which r holds the node's truth value, or its negation."""
        kind, no = node[0], "not " if negated else ""
        if kind == "cmp":
            _, a, b, want = node
            x, y = self.demand(a), self.demand(b)
            if not self.order:
                self.line(f"r = {no}compare({x}, {y}) is {self.name(want)}")
            elif want is EQUAL:  # compare tests == and, if that is false, <
                self.line(f"r = {no}({x} == {y} or {x} < {y} and False)")
            else:
                self.line(f"r = {no}(not {x} == {y} and {x} < {y})")
        elif kind == "cong":
            _, a, b = node
            self.line(f"r = {no}{self.demand(a)} == {self.demand(b)}")
        elif kind == "not":
            self.emit(node[1], not negated)
        elif kind == "imp":  # r = not left; if that is false, r = right
            self.emit(node[1], True)
            mark = len(self.log)
            self.line("if not r:")
            self.nested(node[2])
            self.leave(mark)
            if negated:
                self.line("r = not r")
        else:
            if kind in ("and", "or"):
                first, *rest = node[1]
                self.emit(first)
                mark = len(self.log)  # a later operand runs only if those before it did
                for part in rest:
                    self.line("if r:" if kind == "and" else "if not r:")
                    self.nested(part)
                self.leave(mark)
            elif kind == "lookup":
                _, a, n, ks = node
                known = self.name(set())
                pending = self.name(ks[::-1])
                self.demand(a)
                self.line(f"r = s{a} in {known}")
                self.line(f"if not r: r = lookup(s{a}, {self.name(n)}, {pending}, {known})")
            else:  # "raise"
                self.line(f"raise {self.name(node[1])}({self.name(node[2])})")
            if negated:
                self.line("r = not r")

    def nested(self, node) -> None:
        self.depth += 1
        if self.depth < NESTING:
            self.emit(node)
        else:  # the node's code starts again at the left margin of a helper
            lines, depth, assigned = self.lines, self.depth, self.assigned
            self.lines, self.depth, self.assigned = [], 2, set()
            self.emit(node)
            h = f"h{len(self.helpers)}"
            nonlocal_ = ["  nonlocal " + ", ".join(f"s{i}" for i in sorted(self.assigned))] if self.assigned else []
            self.helpers.append("\n".join([f" def {h}():", *nonlocal_, *self.lines, "  return r"]))
            self.lines, self.depth, self.assigned = lines, depth, assigned
            self.line(f"r = {h}()")
        self.depth -= 1

    def source(self, root, witnesses) -> str:
        kept = [None] * len(self.ops)  # slot -> its value once computed, for variable-free slots
        self.names.update(kept=kept, lookup=partial(_lookup, self.names["model"], self.names["residue_mod"], kept,
                                                    self.terms))
        self.emit(root)
        self.line("if r: return True")
        for i in witnesses:  # a false check computes the witnesses it did not read, in order
            self.demand(i)
        self.line("return False")
        # a helper's slots are its check's locals, so the check assigns them all
        consts = sorted(i for i in self.seen if self.const[i])
        unset = (self.seen if self.helpers else self.unset).difference(consts)
        start = [" " + " = ".join(f"s{i}" for i in sorted(unset)) + " = None"] if unset else []
        start += [f" s{i} = kept[{i}]" for i in consts]
        return "\n".join(["def check(env):", *self.helpers, *start, *self.lines, ""])


def _generate(f, model, derived=()):
    """The source of f's check and the globals it runs with."""
    emitter = _Emitter(model)
    witnesses = [emitter.derive(*d) for d in derived]
    root = emitter.formula(f)
    return emitter.source(root, witnesses), emitter.names


# The source names every model value by a global, so it depends on the model
# only through the operations written as Python operators: each distinct
# source is compiled once, for every model that writes it.  The bound holds
# the catalog's 20 checks at one schema bound for all three models (46
# distinct sources), and then some.
@lru_cache(maxsize=64)
def _code(source: str):
    return compile(source, "<compile_qf>", "exec")


def compile_qf(f, model, derived=()):
    """check(env) -> bool, equal to ``eval_qf(f, env, model)`` for every env.

    The check is one generated Python function with globals of its own.
    Python's compiler compiles each distinct source text once, for every
    model that writes that text: compile a formula once and check it many
    times.
    Each distinct subterm is one slot, keyed by its kind and its operands'
    slots, and is computed at most once per call, when first demanded, so
    short-circuiting and the interpreter's first error (type and message)
    are kept, and so is the order of the model's operations.  A
    variable-free slot is computed by the same generated code, at most
    once over all calls, and keeps its value across them.  Sharing is
    structural only: ``x + y`` and ``y + x``, or ``(x + y) + z`` and
    ``x + (y + z)``, are different slots.  A chain of ``And`` or ``Or`` is
    a flat run of tests, and a sum ``t + t + ... + t`` whose inner links
    nothing else reads is a loop, so a check's code grows with its formula;
    nesting, however deep, is cut into helper functions.  A congruence
    compares the two sides' residue slots.  An ``Or`` chain of congruences
    ``t == k mod n`` with one modulus, one term ``t`` and every ``k``
    variable-free, such as A11's residue cases, is one node instead: it
    looks ``t``'s residue up in the set of the ``k`` residues computed so
    far, which it keeps across calls, and computes the next ones, in chain
    order, only on a miss; so one check must not run in two threads at
    once.  A ``k`` that has no kept value yet is computed there by
    ``eval_term``, which reads the model's operations on that miss.
    Otherwise the model's ``numeral``, ``add``, ``compare`` and
    ``residue_mod`` are looked up once, here; ``v2`` whenever a call
    computes a V2, before its operand, as ``eval_term`` does.  Where the
    model binds ``operator.add``, the generic ``nonstandard.compare`` or
    ``nonstandard.remainder``, as the standard model does, the check writes
    ``a + b``, ``==`` then ``<``, or ``a % n`` (for an int n >= 1) in place
    of the call, variable-free slots included: the Python operations the
    function runs, in its order, so values and errors are the call's.  The
    residue lookup and the witnesses still call the model.

    Each ``(name, witness, param, reads)`` of ``derived`` binds ``name``
    in env to ``witness(model, param, *values)``, the values of ``reads``:
    terms (sampled or earlier derived variables), and ``(term, n)`` for a
    term's residue mod n, sharing f's own slots.  It is computed when f
    first demands ``name``; a false check then computes the rest, in
    order, so env holds them all.  A witness's error propagates.  The
    equality with ``eval_qf`` is for the env that the check leaves.
    """
    source, names = _generate(f, model, derived)
    exec(_code(source), names)
    return names.pop("check")  # the check's globals must not hold it: no reference cycle
