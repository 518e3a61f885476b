"""Compiled evaluation of quantifier-free formulas (``compile_run``).

This is hash-consing (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006) restricted to structural identity: no law of the
model is assumed, so no sum is re-associated or commuted.  Each formula is
compiled to the source of one Python function, the axiom harness's case
loop over sampled variables: generated code rather than a tree of closures
(Feeley and Lapalme, "Using closures for code generation", 1987).
``formulas.eval_qf`` stays the reference.
"""

from __future__ import annotations

import operator
import sys
from functools import lru_cache, partial

from .formulas import (
    And, CongMod, Eq, Exists, ForAll, Implies, Lt, Not, Numeral, Or, Sum, UnboundVariableError, V2App, Variable,
)
from .nonstandard import EQUAL, LESS, compare, remainder

# The generated case loop keeps each distinct subterm ("slot") i in a local
# s<i>, computed where a formula first demands it.  Code runs in the order
# it is written, so the emitter knows at each demand which slots are
# assigned on every path there (no test), on none (no test), or on some: a
# test "if s<i> is None:", for which s<i> starts as None.  Such tests run
# flat, operands first, because a slot with a value implies its operands
# have one.  A variable-free slot starts as its value in ``kept``, which
# ``_constant`` computes and keeps across calls, so its demand is always
# the one line "if s<i> is None: s<i> = constant(i)".  Each connective
# leaves its truth in the local r, and the operands of a chain are flat
# "if r:" tests, so only a nested right operand indents its code; past
# NESTING levels of indentation an operand moves to a helper function,
# which keeps Python's limit on nesting (100) out of reach.  Formula text
# never becomes source: names, numerals, moduli and model callables are
# values of generated global names, in a namespace that holds no builtins
# and, once compiled, not the loop itself, so no reference cycle is left.
NESTING = 40


def _constant(model, numeral, add, residue_mod, ops, kept, i):
    # variable-free slot i's value: kept, or computed in eval_term's order and kept unless it raises
    v = kept[i]
    if v is None:
        kind, a, b = ops[i]
        here = model, numeral, add, residue_mod, ops, kept
        if kind == "num":
            v = numeral(a)
        elif kind == "v2":  # model.v2 is looked up before the operand is computed, as in eval_term
            v = model.v2(_constant(*here, a))
        elif kind == "+":
            v = add(_constant(*here, a), _constant(*here, b))
        else:  # "mod"
            v = residue_mod(_constant(*here, a), b)
        kept[i] = v
    return v


def _lookup(constant, residue_mod, x, n, pending, known):
    # t == k0 mod n | t == k1 mod n | ..., where x is t's residue, on a miss
    # in known.  pending holds the k slots not read yet, last first.  A k's
    # residue moves to known only once computed, so known holds the residues
    # of a prefix of the chain, a hit in it is where eval_qf's scan stops,
    # and a k that raises raises again when a later call reaches it.
    while pending:
        k = pending[-1]
        y = residue_mod(constant(k), n)
        pending.pop()
        known.add(y)
        if x == y:
            return True
    return False


class _Emitter:
    """Builds the slots and formula nodes of one check, then writes its case loop's source."""

    def __init__(self, model, sampled):
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
        self.depth = 3  # indentation of the next line: the loop's try block
        self.known: set[int] = set()  # slots assigned on every path to here
        self.log: list[int] = []  # the order they joined known, to leave branches
        self.seen: set[int] = set()  # slots assigned on some path to here
        self.unset: set[int] = set()  # tested slots: those not variable-free start as None
        self.assigned: set[int] = set()  # slots the function being written assigns
        self.helpers: list[str] = []  # the source of each helper function
        # The case loop's prologue assigns the sampled variables: their slots
        # are known throughout.
        self.sampled = [self.term(Variable(v)) for v in sampled]  # in draw order, a repeated name repeated
        self.given = dict(zip(self.sampled, sampled))  # the sampled variables' slots -> their names
        for i in self.given:
            self.assign(i)
        sample = self.names["sample"] = model.sample
        standard = sys.modules.get(f"{__package__}.standard")  # unless imported, no model samples as it does
        if standard and getattr(sample, "__func__", None) is standard.StandardModel.sample:  # drawn inline
            n = sample.__self__.offset_bound + 1
            self.names.update(bound=n, bits=n.bit_length())
        self.names.update(len=len, range=range)

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
        n = getattr(operands[0], "modulus", None)
        if not all(isinstance(h, CongMod) and h.modulus == n for h in operands):
            return None
        a = self.term(operands[0].left)
        if any(self.term(h.left) != a for h in operands):
            return None
        ks = [self.term(h.right) for h in operands]
        if not all(self.const[k] for k in ks):
            return None
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
        guard = i if i in self.seen else None
        if guard is not None:
            self.unset.add(i)
        if kind == "var":  # neither sampled nor derived
            self.line(f"raise {self.name(UnboundVariableError)}({self.name(f'unbound variable {a!r}')})")
            return f"s{i}"
        if kind == "bad":  # not a term
            self.line(f"raise {self.name(TypeError)}({self.name(a)})")
            return f"s{i}"
        if self.const[i]:  # s<i> starts as its kept value, None until computed
            self.line(f"s{i} = constant({i})", i)
        elif kind == "v2":  # model.v2 is looked up before the operand is computed
            self.line(f"f{i} = model.v2", guard)
            self.line(f"s{i} = f{i}({self.demand(a)})", guard)
        elif kind == "mod":
            x, n = self.demand(a), self.name(b)
            templated = self.mod and type(b) is int and b >= 1  # remainder's test of n, made once here
            self.line(f"s{i} = {x} % {n}" if templated else f"s{i} = residue_mod({x}, {n})", guard)
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
                self.line(f"s{i} = {first}", guard)
            else:
                self.block([f"s{i} = {first}", f"for _ in {self.name(range(links - 1))}: s{i} = {more}"], guard)
        else:  # "derived"
            _, witness, param = a
            args = "".join(f", {self.demand(r)}" for r in b)
            self.line(f"s{i} = {self.name(witness)}(model, {self.name(param)}{args})", guard)
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
        ops = {i: op for i, op in enumerate(self.ops) if self.const[i]}  # all that _constant reads
        constant = partial(_constant, *map(self.names.get, ("model", "numeral", "add", "residue_mod")), ops, kept)
        self.names.update(kept=kept, constant=constant, lookup=partial(_lookup, constant, self.names["residue_mod"]))
        self.emit(root)
        self.line("if r: continue")
        for i in witnesses:  # a false check computes the witnesses it did not read, in order
            self.demand(i)
        # a helper's slots are its loop's locals, so the loop assigns them all
        reads = [f" s{i} = kept[{i}]" for i in sorted(self.seen) if self.const[i]]
        unset = {i for i in (self.seen if self.helpers else self.unset) if not self.const[i]}
        # a failed case returns its number, the sampled variables and the
        # derived ones it computed, and its error
        derived = {i: self.ops[i][1][0] for i in witnesses}
        unset = sorted(unset.union(derived).difference(self.given))
        pairs = [f"{self.name(v)}: s{i}" for i, v in (*self.given.items(), *derived.items())]
        self.line(f"return i + 1, {{{', '.join(pairs)}}}, None")
        draw = ["s{0} = draw(bits)", "while s{0} >= bound: s{0} = draw(bits)"] if "bits" in self.names else \
            ["s{0} = sample(rng)"]
        rotate = [f"   s{i} = corners[(i + {j}) % k]" if j else f"   s{i} = corners[i]"
                  for j, i in enumerate(self.sampled)]
        draws = ["   " + d.format(i) for i in self.sampled for d in draw]
        return "\n".join([
            "def run(rng, cases, corners):", *self.helpers, *reads,
            " k = len(corners)", " draw = rng.getrandbits", " for i in range(cases):",
            *(["  if i < k:", *rotate, "  else:", *draws] if self.sampled else []),
            *(["  " + " = ".join(f"s{i}" for i in unset) + " = None"] if unset else []),
            "  try:", *self.lines, f"  except {self.name(ValueError)} as e:",
            f"   env = {{{', '.join(pairs[:len(self.given)])}}}",
            *(f"   if s{i} is not None: env[{self.name(v)}] = s{i}" for i, v in derived.items()),
            "   return i + 1, env, e", "",
        ])


def _generate(f, model, derived, sampled):
    """The source of f's case loop over the sampled variables, and the globals it runs with."""
    emitter = _Emitter(model, sampled)
    witnesses = [emitter.derive(*d) for d in derived]
    root = emitter.formula(f)
    return emitter.source(root, witnesses), emitter.names


# The source names every model value by a global, so it depends on the model
# only through the operations written as Python operators and the inline
# draws: each distinct source is compiled once, for every model that writes
# it.  The bound holds the catalog's 20 case loops at one schema bound for
# all three models (44 distinct sources), and then some.
@lru_cache(maxsize=64)
def _code(source: str):
    return compile(source, "<compile_run>", "exec")


def compile_run(f, model, sampled, derived=()):
    """run(rng, cases, corners), the axiom harness's case loop for f.

    Case i assigns the ``sampled`` variables, as locals, the corners
    rotated by i while i < len(corners), then one ``model.sample(rng)``
    each, written inline where that is ``StandardModel.sample``, and runs
    f on them as ``eval_qf`` does.  ``run`` returns None, or for the first
    case that is false or raises a ValueError, such as the
    UnboundVariableError of a variable neither sampled nor derived: its
    number from 1, an env of the sampled variables and the derived ones it
    computed (on a false case, all of them), and the error or None.

    Each distinct subterm is one slot, computed at most once per case, when
    first demanded, so the interpreter's short-circuits, first error (type
    and message) and order of model operations are kept.  Sharing is
    structural only: ``x + y`` and ``y + x`` are different slots.  A
    variable-free slot is computed at most once over all calls.  An ``Or``
    chain of congruences ``t == k mod n`` with one modulus, one term ``t``
    and every ``k`` variable-free, such as A11's residue cases, looks
    ``t``'s residue up in the set of the ``k`` residues computed so far,
    kept across calls, and computes the next ones, in chain order, only on
    a miss; so one loop must not run in two threads at once.  The model's
    ``numeral``, ``add``, ``compare``, ``residue_mod`` and ``sample`` are
    looked up once, here; ``v2`` whenever a case computes a V2, before its
    operand, as ``eval_term`` does.  Where the model binds
    ``operator.add``, the generic ``nonstandard.compare`` or
    ``nonstandard.remainder``, as the standard model does, the loop writes
    ``a + b``, ``==`` then ``<``, or ``a % n`` (for an int n >= 1) on the
    slots that read a variable: the Python operations the call runs, in
    its order, so values and errors are the call's.

    Each ``(name, witness, param, reads)`` of ``derived`` binds ``name`` to
    ``witness(model, param, *values)``, the values of ``reads``: terms
    (sampled or earlier derived variables), and ``(term, n)`` for a term's
    residue mod n, sharing f's own slots.  It is computed when f first
    demands ``name``; a false case then computes the rest, in order.
    """
    source, names = _generate(f, model, derived, sampled)
    exec(_code(source), names)
    return names.pop("run")  # the loop's globals must not hold it: no reference cycle
