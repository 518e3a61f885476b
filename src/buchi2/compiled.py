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

from functools import lru_cache, partial

from .formulas import (
    And, CongMod, Eq, Exists, ForAll, Implies, Lt, Not, Numeral, Or, Sum, UnboundVariableError, V2App, Variable,
    free_variables,
)
from .nonstandard import EQUAL, LESS, TRIPLE_VIEW, TRIPLES, Element, Model, _element, keeps_kernel

# The generated case loop keeps each distinct subterm ("slot") i in a local
# s<i>, computed where a formula first demands it; a variable neither
# sampled nor derived, or a non-term, is a slot that raises its error where
# it is demanded.  Code runs in the order it is written, so the emitter
# knows at each demand which slots are assigned on every path there (no
# test), on none (no test), or on some: a test "if s<i> is None:", for
# which s<i> starts as None.  Such tests run flat, operands first, because
# a slot with a value implies its operands have one.  A variable-free slot
# starts as its value in ``kept``, which ``_constant`` computes and keeps
# across calls, so its demand is always the one line "if s<i> is None:
# s<i> = constant(i)".  Each connective leaves its truth in the local r,
# and the operands of a chain are flat "if r:" tests, so only a nested
# right operand indents its code; a -> b is the chain ~a | b, as eval_qf
# reads it.  Past NESTING levels of indentation an operand moves to a
# helper function, which keeps Python's limit on nesting (100) out of
# reach.  Formula text never becomes source: names, numerals, moduli and
# model callables are values of generated global names, in a namespace
# that holds no builtins and, once compiled, not the loop itself, so no
# reference cycle is left.  A loop on the non-standard kernel's own
# operations (``nonstandard.TRIPLES``) is unboxed, and its global ``model`` is
# ``nonstandard.TRIPLE_VIEW``.  Up to SCALAR_SLOTS slots an element slot is the
# int locals p<i>, q<i> and w<i> (a test reads p<i>), and +, <, V2 and mod n
# are the lines of the kernel's templates (``nonstandard.Template``) on them; a
# longer loop holds (p, q, w) tuples and calls the triple forms.  A draw that
# would call a sampler built from a template is that template's lines, after
# its prologue, run once per call on ``self``.
NESTING = 40
# Scalar source is some four times as long, and compiling takes about 120
# bytes a character: A4's loop at schema 12 (158 slots) would peak at 4.5 MB,
# not 1.4, and raise a run's peak memory by a fifth.
SCALAR_SLOTS = 64


def _constant(model, numeral, add, residue_mod, ops, kept, i):
    # variable-free slot i's value: kept, or computed in eval_term's order and
    # kept unless it raises; model.v2 computes a V2
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


def _triples(corners):  # an unboxed loop's corners, unboxed once per call
    if any(x.__class__ is not Element for x in corners):
        raise TypeError(f"the corners of a loop on (p, q, w) triples must be Elements, got {corners!r}")
    return tuple(map(Element._values, corners))


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


def _check_derived(sampled, derived) -> None:
    """Raise ValueError for a derived variable that is sampled, derived twice
    or read by its own or an earlier witness: its slot would be that
    variable's, so its witness would never run."""
    named = set(sampled)
    for name, _, _, reads in derived:
        named.update(*(free_variables(r[0] if isinstance(r, tuple) else r) for r in reads))
        if name in named:
            raise ValueError(f"derived variable {name!r} is sampled, derived twice or read before it is derived")
        named.add(name)


class _Emitter:
    """Builds the slots and formula nodes of one check, then writes its case loop's source."""

    def __init__(self, model, sampled):
        self.slots: dict[tuple, int] = {}  # its op, or a variable's for a derived one -> slot
        self.ops: list[tuple] = []  # slot -> (kind, operand slots or values)
        self.const: list[bool] = []  # slot -> whether it is variable-free
        self.readers: list[int] = []  # slot -> how many slots, atoms and witnesses read it
        self.walked: dict[int, int] = {}  # id of a term node -> its slot; the caller holds the formula
        self.names = {  # generated name -> its value: the generated code's globals
            "__builtins__": {}, "model": model, "numeral": model.numeral, "add": model.add,
            "compare": model.compare, "residue_mod": model.residue_mod,
        }
        # Where the model keeps Model's add, compare, residue_mod or sample,
        # its calls are written as the Python operations they run, in order.
        self.plus = self.names["add"] is Model.add
        self.order = self.names["compare"] is Model.compare
        self.mod = self.names["residue_mod"] is Model.residue_mod
        self.named: dict[int, str] = {}  # id of a value -> its name
        self.lines: list[str] = []  # the function being written
        self.depth = 3  # indentation of the next line: the loop's try block
        self.known: set[int] = set()  # slots assigned on every path to here
        self.log: list[int] = []  # the order they joined known, to leave branches
        self.seen: set[int] = set()  # slots assigned on some path to here
        self.unset: set[int] = set()  # tested slots: those not variable-free start as None
        self.helpers: list[str] = []  # the source of each helper function
        # The case loop's prologue assigns the sampled variables: their slots
        # are known throughout.
        self.sampled = [self.slot(("var", v, None), False) for v in sampled]  # in draw order, a repeated name repeated
        self.given = dict(zip(self.sampled, sampled))  # the sampled variables' slots -> their names
        for i in self.given:
            self.assign(i)
        sample = self.names["sample"] = model.sample
        self.triples = keeps_kernel(model, self.names)  # then the loop is unboxed
        # The operations written inline, from their templates: in an unboxed loop
        # the kernel's, read here, so that a template swapped in is seen; else a
        # draw that would call a sampler built from a template.
        if self.triples:
            self.names.update(vars(TRIPLE_VIEW), model=TRIPLE_VIEW, element=_element, triples=_triples)
            self.templates = {op: TRIPLES[op][1].template for op in ("add", "compare", "residue_mod", "v2", "sample")}
        else:
            template = getattr(getattr(sample, "__func__", None), "template", None)
            self.templates = {} if template is None else {"sample": template}
        for template in self.templates.values():
            self.names.update(template.names)
        if "sample" in self.templates:  # its prologue reads the sampler's model
            self.names["self"] = sample.__self__
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
        # a shared subtree, such as A4's w + ... + w, is walked once; the memo is
        # inline, as a wrapper would take two stack frames per sum link
        i = self.walked.get(id(t))
        if i is not None:
            return i
        if isinstance(t, Sum):
            a, b = self.term(t.left), self.term(t.right)
            i = self.slot(("+", a, b), self.const[a] and self.const[b], (a, b))
        elif isinstance(t, Variable):  # a new one is unbound: sampled and derived slots are made first
            op = ("raise", UnboundVariableError, f"unbound variable {t.name!r}")
            i = self.slot(op, False, key=("var", t.name, None))
        elif isinstance(t, Numeral):
            i = self.slot(("num", t.value, None), True)
        elif isinstance(t, V2App):
            a = self.term(t.arg)
            i = self.slot(("v2", a, None), self.const[a], (a,))
        else:
            i = self.slot(("raise", TypeError, f"not a term: {t!r}"), False)
        self.walked[id(t)] = i
        return i

    def residue(self, t, n: int) -> int:
        a = self.term(t)
        return self.slot(("mod", a, n), self.const[a], (a,))

    def derive(self, name, witness, param, reads) -> int:  # compile_run's _check_derived makes name's slot new
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
        if isinstance(g, Implies):  # ~left | right, as eval_qf reads it
            return ("or", [("not", self.formula(g.left)), self.formula(g.right)])
        if isinstance(g, (ForAll, Exists)):
            return ("raise", ValueError, "quantifier in quantifier-free evaluation")
        return ("raise", TypeError, f"not a formula: {g!r}")

    # -- source ---------------------------------------------------------------

    def scalars(self, i: int) -> tuple:
        """The locals that hold slot i: p<i>, q<i> and w<i> for an element in a scalar loop, else s<i>."""
        return (f"p{i}", f"q{i}", f"w{i}") if self.scalar and self.ops[i][0] != "mod" else (f"s{i}",)

    def target(self, i: int) -> str:
        return ", ".join(self.scalars(i))

    def packed(self, i: int) -> str:
        """Slot i as one value: an element's triple is packed, for a call."""
        names = self.scalars(i)
        return f"({', '.join(names)})" if len(names) > 1 else names[0]

    def inline(self, op: str, i: int, *operands) -> list[str]:
        """The lines of op's template that leave slot i's value on the operand slots'."""
        return self.templates[op].inline(self.scalars(i), *(n for a in operands for n in self.scalars(a)))

    def flag(self, i: int) -> str:
        """The local that a test of slot i reads: None until the slot is computed."""
        return self.scalars(i)[0]

    def sum_of(self, a: int, b: int) -> str:  # s<a> + s<b> in a loop on Python values
        return f"s{a} + s{b}" if self.plus else f"add(s{a}, s{b})"

    def line(self, text: str, guard=None) -> None:
        self.lines.append(" " * self.depth + (text if guard is None else f"if {self.flag(guard)} is None: {text}"))

    def block(self, texts, guard) -> None:
        if len(texts) == 1:
            return self.line(texts[0], guard)
        if guard is not None:
            self.line(f"if {self.flag(guard)} is None:")
        self.depth += guard is not None
        for text in texts:
            self.line(text)
        self.depth -= guard is not None

    def assign(self, i: int) -> None:
        self.known.add(i)
        self.log.append(i)
        self.seen.add(i)

    def leave(self, mark: int) -> None:
        # forget what the code since mark assigned: it ran on some paths only
        self.known.difference_update(self.log[mark:])
        del self.log[mark:]

    def demand(self, i: int) -> str:
        """Write code after which slot i's locals hold its value; return it packed."""
        if i in self.known:
            return self.packed(i)
        kind, a, b = self.ops[i]
        guard = i if i in self.seen else None
        if guard is not None:
            self.unset.add(i)
        if kind == "raise":  # a variable neither sampled nor derived, or not a term
            self.line(f"raise {self.name(a)}({self.name(b)})")
            return self.packed(i)
        if self.const[i]:  # its locals start as its kept value, None until computed
            self.line(f"{self.target(i)} = constant({i})", i)
        elif kind == "v2" and self.scalar:
            self.demand(a)
            self.block(self.inline("v2", i, a), guard)
        elif kind == "v2" and self.triples:
            self.line(f"s{i} = v2({self.demand(a)})", guard)
        elif kind == "v2":  # model.v2 is looked up before the operand is computed
            self.line(f"f{i} = model.v2", guard)
            self.line(f"s{i} = f{i}({self.demand(a)})", guard)
        elif kind == "mod":
            x, n = self.demand(a), self.name(b)
            templated = type(b) is int and b >= 1  # the modulus test of remainder and _residue_mod, made once here
            if templated and self.scalar:
                self.block(self.templates["residue_mod"].inline(self.scalars(i), *self.scalars(a), n), guard)
            else:
                templated = templated and self.mod
                self.line(f"s{i} = {x} % {n}" if templated else f"s{i} = residue_mod({x}, {n})", guard)
        elif kind == "+":
            # a left-nested sum whose inner links only their outer link reads,
            # such as w + w + ... + w, is a loop over the same additions
            links = 1
            while self.ops[a][0] == "+" and self.ops[a][2] == b and self.readers[a] == 1:
                a, links = self.ops[a][1], links + 1
            self.demand(a)
            self.demand(b)
            if links == 1:
                self.block(self.inline("add", i, a, b) if self.scalar else [f"s{i} = {self.sum_of(a, b)}"], guard)
            elif self.scalar:  # the template's lines once, on s<i> = s<i> + s<b>, which they keep right
                loop = f"for _ in {self.name(range(links))}:"
                more = self.inline("add", i, i, b)
                self.block([f"{self.target(i)} = {self.target(a)}", loop, *(" " + t for t in more)], guard)
            else:
                loop = f"for _ in {self.name(range(links - 1))}:"
                self.block([f"s{i} = {self.sum_of(a, b)}", f"{loop} s{i} = {self.sum_of(i, b)}"], guard)
        else:  # "derived"
            _, witness, param = a
            for r in b:
                self.demand(r)
            args = "".join(f", {self.packed(r)}" for r in b)
            self.line(f"{self.target(i)} = {self.name(witness)}(model, {self.name(param)}{args})", guard)
        self.assign(i)
        return self.packed(i)

    def value(self, i: int) -> str:
        """Variable slot i's value in a failing case's env: a triple leaves the loop as an Element."""
        if self.triples:
            return f"element({self.target(i)})" if self.scalar else f"element(*s{i})"
        return f"s{i}"

    def emit(self, node, negated=False) -> None:
        """Write code after which r holds the node's truth value, or its negation."""
        kind, no = node[0], "not " if negated else ""
        if kind == "cmp":
            _, a, b, want = node
            x, y = self.demand(a), self.demand(b)
            if self.scalar and want is EQUAL:  # equal triples are equal elements: (p, q, w) is canonical
                same = " and ".join(f"{u} == {v}" for u, v in zip(self.scalars(a), self.scalars(b)))
                self.line(f"r = not ({same})" if negated else f"r = {same}")
            elif self.triples and want is EQUAL:
                self.line(f"r = {no}{x} == {y}")
            elif self.scalar:  # x < y exactly when the template leaves u < v
                compare = self.templates["compare"]
                for text in compare.inline(compare.results, *self.scalars(a), *self.scalars(b)):
                    self.line(text)
                u, v = compare.results
                self.line(f"r = {no}{u} < {v}")
            elif not self.order:
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
            lines, depth = self.lines, self.depth
            self.lines, self.depth = [], 2
            self.emit(node)
            h = f"h{len(self.helpers)}"  # the loop assigns every slot seen as locals: h names them all nonlocal
            nonlocal_ = ["  nonlocal " + ", ".join(self.target(i) for i in sorted(self.seen))] if self.seen else []
            self.helpers.append("\n".join([f" def {h}():", *nonlocal_, *self.lines, "  return r"]))
            self.lines, self.depth = lines, depth
            self.line(f"r = {h}()")
        self.depth -= 1

    def source(self, root, witnesses) -> str:
        self.scalar = self.triples and len(self.ops) <= SCALAR_SLOTS
        kept = [None] * len(self.ops)  # slot -> its value once computed, for variable-free slots
        ops = {i: op for i, op in enumerate(self.ops) if self.const[i]}  # all that _constant reads
        constant = partial(_constant, *map(self.names.get, ("model", "numeral", "add", "residue_mod")), ops, kept)
        self.names.update(kept=kept, constant=constant, lookup=partial(_lookup, constant, self.names["residue_mod"]))
        self.emit(root)
        self.line("if r: continue")
        for i in witnesses:  # a false check computes the witnesses it did not read, in order
            self.demand(i)
        # a helper's slots are its loop's locals, so the loop assigns them all; a
        # tested slot's first local starts as None, and a kept element's as its value
        reads = [f" {self.target(i)} = kept[{i}]" + (" or (None, None, None)" if len(self.scalars(i)) > 1 else "")
                 for i in sorted(self.seen) if self.const[i]]
        unset = {i for i in (self.seen if self.helpers else self.unset) if not self.const[i]}
        # a failed case returns its number, the sampled variables and the
        # derived ones it computed, and its error
        derived = {i: self.ops[i][1][0] for i in witnesses}
        unset = sorted(unset.union(derived).difference(self.given))
        pairs = [f"{self.name(v)}: {self.value(i)}" for i, v in (*self.given.items(), *derived.items())]
        self.line(f"return i + 1, {{{', '.join(pairs)}}}, None")
        template = self.templates.get("sample")
        rotate = [f"   {self.target(i)} = corners[(i + {j}) % k]" if j else f"   {self.target(i)} = corners[i]"
                  for j, i in enumerate(self.sampled)]
        draws = ["   " + d for i in self.sampled
                 for d in (template.inline([self.target(i)]) if template else [f"{self.target(i)} = sample(rng)"])]
        locals_ = (n for i in unset for n in (self.scalars(i) if self.helpers else [self.flag(i)]))
        return "\n".join([
            "def run(rng, cases, corners):", *self.helpers, *reads,
            *([" corners = triples(corners)"] if self.triples else []),
            " k = len(corners)", *(" " + line for line in (template.prologue if template else ())),
            " for i in range(cases):",
            *(["  if i < k:", *rotate, "  else:", *draws] if self.sampled else []),
            *(["  " + " = ".join(locals_) + " = None"] if unset else []),
            "  try:", *self.lines, f"  except {self.name(ValueError)} as e:",
            f"   env = {{{', '.join(pairs[:len(self.given)])}}}",
            *(f"   if {self.flag(i)} is not None: env[{self.name(v)}] = {self.value(i)}" for i, v in derived.items()),
            "   return i + 1, env, e", "",
        ])


def _generate(f, model, derived, sampled):
    """The source of f's case loop over the sampled variables, and the globals it runs with."""
    emitter = _Emitter(model, sampled)
    witnesses = [emitter.derive(*d) for d in derived]
    root = emitter.formula(f)
    return emitter.source(root, witnesses), emitter.names


# The source names every model value by a global, so it depends on the model
# only through the operations written as Python operators or template lines
# and the inline draws: each distinct source is compiled once, for every
# model that writes it.  The bound holds the catalog's 20 case loops at one
# schema bound for all three models (44 distinct sources), and then some.
@lru_cache(maxsize=64)
def _code(source: str):
    return compile(source, "<compile_run>", "exec")


def compile_run(f, model, sampled, derived=()):
    """run(rng, cases, corners), the axiom harness's case loop for f.

    Case i assigns the ``sampled`` variables, as locals, the corners
    rotated by i while i < len(corners), then one ``model.sample(rng)``
    each, and runs f on them as ``eval_qf`` does.  Where that draw would
    call a sampler built from a ``nonstandard.Template``, such as
    ``Model.sample``, the loop runs the template's prologue, which reads the
    bounds, once per call and writes its lines for each draw: the same
    ``rng`` calls in the same order.  An override of ``sample`` is called.

    ``run`` returns None, or for the first case that is false or raises a
    ValueError, such as the UnboundVariableError of a variable neither
    sampled nor derived: its number from 1, an env of the sampled
    variables and the derived ones it computed (on a false case, all of
    them), and the error or None.  Such a variable, or a non-term, raises
    only where f demands it, and ``a -> b`` runs as ``~a | b``, as in
    ``eval_qf``.

    Each distinct subterm is one slot, computed at most once per case, when
    first demanded, so the interpreter's short-circuits, first error (type
    and message) and order of model operations are kept.  Sharing is
    structural only: ``x + y`` and ``y + x`` are different slots.  A
    variable-free slot is computed at most once over all calls.  An ``Or``
    chain of congruences ``t == k mod n`` with one modulus, one term ``t``
    and every ``k`` variable-free, such as A11's residue cases, looks
    ``t``'s residue up in the set of the ``k`` residues computed so far,
    kept across calls, and computes the next ones, in chain order, only on
    a miss; so one loop must not run in two threads at once: ``run`` is not
    re-entrant.  The model's ``numeral``, ``add``, ``compare``,
    ``residue_mod`` and ``sample`` are looked up once, here; ``v2``
    whenever a case computes a V2, before its operand, as ``eval_term``
    does, but in an unboxed loop.  Where the model keeps ``Model``'s
    ``add``, ``compare`` or ``residue_mod``, the loop writes ``a + b``,
    ``==`` then ``<``, or ``a % n`` (for an int n >= 1) on the slots that
    read a variable: the Python operations the call runs, in its order, so
    values and errors are the call's.

    Where the model keeps all of the non-standard kernel's own ``numeral``,
    ``add``, ``sub``, ``divide``, ``compare``, ``residue_mod``,
    ``next_power_of_two``, ``sample`` and ``v2`` (``nonstandard.TRIPLES``;
    the test is ``nonstandard.keeps_kernel``, which also decides whether
    the CLI evaluates a line on triples), the loop is unboxed.  With at most
    ``SCALAR_SLOTS`` distinct subterms it holds each element as three int
    locals, its (p, q, w), and writes ``+``, ``<``, ``V2`` and ``mod n``
    (for an int n >= 1, tested here) as the lines of the templates the
    kernel builds those triple forms from, read here; ``=`` compares the
    ints, which are canonical; it packs a triple only for a witness, a
    kept constant or an env.  A longer loop, such as A4's at schema 12,
    holds triples and calls the triple forms, looked up once here, as its
    source would take some four times the memory to compile.  Both draw
    inline, from the template of the triple sampler that
    ``NonstandardModel.sample`` boxes.  It unboxes the corners when called,
    so one that is not an ``Element`` raises TypeError before the first
    case, and returns its values in an env as Elements.  A subclass or
    proxy that overrides any of the nine gets a loop on its own values.

    Each ``(name, witness, param, reads)`` of ``derived`` binds ``name`` to
    ``witness(model, param, *values)``, the values of ``reads``: terms
    (sampled or earlier derived variables), and ``(term, n)`` for a term's
    residue mod n, sharing f's own slots.  In an unboxed loop ``model`` is
    ``nonstandard.TRIPLE_VIEW``, whose members are the triple forms, the
    values of terms are triples, and the witness must return a triple; a
    witness that needs Elements needs a model that overrides ``sample``.
    It is computed when f first demands ``name``; a false case then
    computes the rest, in order.  A ``name`` that is sampled, derived twice
    or read by its own or an earlier witness raises ValueError.
    """
    _check_derived(sampled, derived)
    source, names = _generate(f, model, derived, sampled)
    exec(_code(source), names)
    return names.pop("run")  # the loop's globals must not hold it: no reference cycle
