"""Spans around displab's layers, installed from outside the library.

A layer is a module of the package.  ``Tracer.install`` replaces each public
function and public method of a layer module with a wrapper that records a
span (name, parent, start, end), and rebinds the wrapper in every displab
module that imported the original, so calls between layers are seen
wherever they come from.  Spans stay in memory and are written out once, at
exit.

Some layer functions are too small and too hot to carry a span, because a
span per call would cost more than the call itself; their time stays in
their caller's span.  For the algebra layer that is everything except
``Polynomial.gcd``, which is timed, and ``RationalFunction`` construction,
which is counted.  A function that re-enters itself (the subset recursions)
gets one span for the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "graph", "families", "counting", "companion", "algebra",
          "ode", "orthogonality", "nonstrict", "extremal")

# bitmask helpers called once per subset state
UNTRACED = {"graph": {"full_mask", "mask_from", "iter_mask", "mask_size",
                      "check_mask_limit"}}

# every per-layer metric the benchmark reports, besides trace.overhead_frac
PER_LAYER = (
    "cli.self_s", "graph.self_s", "families.self_s",
    "counting.self_s", "counting.calls", "counting.tables", "counting.states",
    "companion.self_s", "companion.count_calls",
    "algebra.gcd_calls", "algebra.gcd_s", "algebra.rf_new",
    "ode.self_s", "ode.ab_reduction_s", "ode.verify_s",
    "orthogonality.self_s",
    "nonstrict.self_s", "nonstrict.tables", "nonstrict.states",
    "extremal.self_s", "extremal.digraphs",
)

CO_GENERATOR = 0x20

# memo tables whose instances and final memo sizes the trace reports
MEMO_TABLES = {"counting": "CounterTable", "nonstrict": "NonStrictCounter"}


class Tracer:
    """Span recorder for one process.

    ``spans`` holds ``[name, parent_index, start_ns, end_ns]`` records in
    start order; the parent index is -1 for a root span.  ``counters`` holds
    the counts taken at the layer boundaries.
    """

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        # memo tables created and not yet harvested, as (layer, table)
        self.live_tables: list[tuple[str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        live = self.live_tables

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] is name:
                return fn(*args, **kwargs)
            record = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            mark = len(live)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if len(live) > mark:
                    self.harvest(mark)

        functools.update_wrapper(traced, fn)
        return traced

    def harvest(self, mark: int = 0) -> None:
        """Add the final memo sizes of tables created since `mark`.

        Called when the span that created them ends: no layer function
        hands a memo table back to its caller, so it is complete by then.
        """
        for layer, table in self.live_tables[mark:]:
            self.counters[f"{layer}.states"] += len(table.memo)
        del self.live_tables[mark:]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the already imported displab package."""
        modules = {layer: importlib.import_module(f"displab.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            if layer == "algebra":
                self._install_algebra(module)
                continue
            skip = UNTRACED.get(layer, set())
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(f"{layer}.{attr}", obj)
                elif callable(obj) and not _is_generator(obj):
                    self._rebind(obj, self.wrap(f"{layer}.{attr}", obj))
        for layer, cls_name in MEMO_TABLES.items():
            self._count_instances(layer, getattr(modules[layer], cls_name))

    def _wrap_methods(self, prefix: str, cls) -> None:
        memo_table = cls.__name__ in MEMO_TABLES.values()
        for attr, member in list(vars(cls).items()):
            if (not attr.startswith("_")
                    and isinstance(member, types.FunctionType)
                    and not _is_generator(member)):
                wrap = self._wrap_recursion if memo_table else self.wrap
                setattr(cls, attr, wrap(f"{prefix}.{attr}", member))

    def _wrap_recursion(self, name: str, fn):
        """Span for a memo table's recursive method.  While the outermost
        call runs, the plain method is bound on the instance, so the
        recursion inside it (one call per subset state) skips the wrapper
        and costs what it costs untraced."""
        traced = self.wrap(name, fn)
        attr = fn.__name__

        def method(obj, *args, **kwargs):
            if attr in obj.__dict__:
                return fn(obj, *args, **kwargs)
            obj.__dict__[attr] = fn.__get__(obj)
            try:
                return traced(obj, *args, **kwargs)
            finally:
                del obj.__dict__[attr]

        functools.update_wrapper(method, fn)
        return method

    def _install_algebra(self, module) -> None:
        poly = module.Polynomial
        poly.gcd = self.wrap("algebra.gcd", poly.gcd)
        rf = module.RationalFunction
        init = rf.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["algebra.rf_new"] += 1
            init(obj, *args, **kwargs)

        rf.__init__ = counted_init

    def _count_instances(self, layer: str, cls) -> None:
        init = cls.__init__
        counters, live = self.counters, self.live_tables

        def registered_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counters[f"{layer}.tables"] += 1
            live.append((layer, obj))

        cls.__init__ = registered_init

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "displab"
                                      or name.startswith("displab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        self.harvest()
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)},
                      fh)


def _is_generator(fn) -> bool:
    """A span around a generator function would time only its creation."""
    code = getattr(fn, "__code__", None)
    return code is not None and bool(code.co_flags & CO_GENERATOR)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[int]:
    """Self time of every span: its duration minus the part of its interval
    that the union of its child spans covers."""
    children: dict[int, list[int]] = {}
    for idx, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (_, _, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for s, e in sorted((spans[c][2], spans[c][3])
                           for c in children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def has_ancestor(spans: list, idx: int, layer: str) -> bool:
    parent = spans[idx][1]
    while parent >= 0:
        if layer_of(spans[parent][0]) == layer:
            return True
        parent = spans[parent][1]
    return False


def job_metrics(trace: dict) -> Counter:
    """Per-layer metrics of one traced process (times in seconds)."""
    spans = trace["spans"]
    out: Counter = Counter()
    for idx, own in enumerate(self_times(spans)):
        name, _, start, end = spans[idx]
        layer = layer_of(name)
        if layer != "algebra":
            out[f"{layer}.self_s"] += own / 1e9
        if name == "algebra.gcd":
            out["algebra.gcd_calls"] += 1
            out["algebra.gcd_s"] += (end - start) / 1e9
        elif name == "ode.ab_reduction":
            out["ode.ab_reduction_s"] += (end - start) / 1e9
        elif name in ("ode.verify_ode", "ode.verify_ode_on_series"):
            out["ode.verify_s"] += (end - start) / 1e9
        elif name == "counting.count":
            out["counting.calls"] += 1
            if has_ancestor(spans, idx, "companion"):
                out["companion.count_calls"] += 1
            if has_ancestor(spans, idx, "extremal"):
                out["extremal.digraphs"] += 1
    out.update(trace["counters"])
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return out
