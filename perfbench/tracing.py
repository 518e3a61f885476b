"""Spans and counters recorded from outside the package, at layer boundaries.

The layers are the modules of ``buchi2``.  Calls into the model layers
(``nonstandard``, ``standard``) are timed by ``TracedModel``, a proxy for
the duck-typed model interface; calls into ``formulas`` and ``axioms`` are
timed by wrappers that ``Patches`` installs in the namespaces of the
modules that call them, so the package itself is unchanged.

For every span name the tracer keeps the number of calls, the number that
raised, the busy time and the self time (busy time minus the time of the
spans it caused).  The first ``SPAN_CAP`` spans are also kept whole, in
flat arrays, and written out when the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter

# The shared model interface (see buchi2.nonstandard.NonstandardModel) minus
# the untimed ``corner_elements``, which is a constant table.
MODEL_OPS = (
    "add", "sub", "compare", "divide", "residue_mod", "v2",
    "next_power_of_two", "numeral", "sample", "parse", "format",
)
MODEL_LAYERS = {"nonstd": "nonstandard", "std": "standard"}
SPAN_CAP = 200_000  # spans kept whole; about 9 MB


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, failed, busy_s, self_s]
        self._stack: list[list] = []  # open spans: [span_id, start, child_s, name]
        self._next_id = 0
        self.dropped = 0
        self._names: dict[str, int] = {}
        self._span_id = array("l")
        self._span_name = array("l")
        self._span_parent = array("l")
        self._span_request = array("l")
        self._span_start = array("d")
        self._span_end = array("d")

    def begin(self, name: str) -> None:
        """Open a span; the innermost open span is its cause."""
        self._stack.append([self._next_id, perf_counter(), 0.0, name])
        self._next_id += 1

    def end(self, ok: bool = True) -> None:
        """Close the innermost open span."""
        end = perf_counter()
        span_id, start, child_s, name = self._stack.pop()
        busy = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += not ok
        stat[2] += busy
        stat[3] += busy - child_s
        if self._stack:
            self._stack[-1][2] += busy
        if span_id >= SPAN_CAP:
            self.dropped += 1
            return
        self._span_id.append(span_id)
        self._span_name.append(self._names.setdefault(name, len(self._names)))
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_request.append(self._stack[0][0] if self._stack else span_id)
        self._span_start.append(start)
        self._span_end.append(end)

    def unwind(self) -> None:
        """Close, as failed, spans left open by an exception."""
        while self._stack:
            self.end(ok=False)

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.end(ok)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0, 0.0, 0.0])

    def write_spans(self, path) -> int:
        """Write the kept spans as TSV (times in ns from the first span)."""
        names = {i: n for n, i in self._names.items()}
        origin = self._span_start[0] if self._span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for i in range(len(self._span_id)):
                out.write(
                    f"{self._span_id[i]}\t{self._span_parent[i]}\t{self._span_request[i]}\t"
                    f"{names[self._span_name[i]]}\t"
                    f"{round((self._span_start[i] - origin) * 1e9)}\t"
                    f"{round((self._span_end[i] - origin) * 1e9)}\n"
                )
        return len(self._span_id)


class TracedModel:
    """Timing proxy for a model: same interface, same values."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self.name = model.name
        self.has_v2 = model.has_v2
        layer = MODEL_LAYERS[model.name]
        for op in MODEL_OPS:
            setattr(self, op, tracer.wrap(f"{layer}.{op}", getattr(model, op)))

    def corner_elements(self):
        return self._model.corner_elements()


class Patches:
    """Module attributes swapped for replacements while installed."""

    def __init__(self, replacements):
        # replacements: (module, attribute, replacement)
        self._items = [(m, a, getattr(m, a), r) for m, a, r in replacements]

    def install(self) -> None:
        for module, attr, _, replacement in self._items:
            setattr(module, attr, replacement)

    def remove(self) -> None:
        for module, attr, original, _ in self._items:
            setattr(module, attr, original)
