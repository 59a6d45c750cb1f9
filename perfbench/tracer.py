"""Span and counter recording around colift's public functions, installed
from the benchmark's side by patching module attributes, and removed again
after each traced op.  Nothing under src/ is changed.

Functions that run once or a few times per op get a span each: name,
start, end, parent span and op id.  Functions that run thousands of times
per op (ring arithmetic, entry-wise hom application, matrix columns) get an
aggregated counter per op instead: calls and, where it matters, seconds.
Private helpers (names starting with "_") are never wrapped.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("rings", "homs", "dense", "matrices", "lifting", "skolem",
          "cohomology", "cli")

# Public functions called too often for a span each: counted and timed.
HOT = {
    "rings.add", "rings.mul", "rings.renormalize", "rings.is_unit",
    "rings.render", "rings.parse_element", "rings.element_to_json",
    "rings.element_from_json", "rings.descriptor_to_json",
    "rings.descriptor_from_json", "rings.bezout",
    "homs.hom_apply", "homs.hom_section",
    "dense.identity", "dense.mat_mul", "dense.mat_vec", "dense.mat_eq",
    "dense.mat_neg", "dense.determinant",
    "matrices.column", "matrices.invert", "matrices.matrix_to_json",
    "matrices.matrix_from_json",
    "skolem.conjugate_unit", "skolem.central_scalar",
    "cohomology.coh_dim", "cohomology.euler_characteristic",
    "cohomology.parse_condition",
}


class Recorder:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, op)
        self.stack = []
        self.op = None
        self.counts = defaultdict(float)   # (op, key) -> value
        self.max_block = 0                 # largest block given to adjugate_inverse
        self._seen_blocks = set()
        self._patches = []

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._seen_blocks = set()

    def end_op(self):
        self.op = None
        self.stack.clear()

    def add(self, key, value=1.0):
        if self.op is not None:
            self.counts[(self.op, key)] += value

    # -- wrappers ----------------------------------------------------------------

    def span_wrapper(self, name, fn, observe=None):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else None
            rec.spans.append(None)
            rec.stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.spans[sid] = (sid, name, t0, t1, parent, rec.op)
                rec.add(name + ".calls")
                rec.add(name + ".s", t1 - t0)
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def counter_wrapper(self, name, fn, timed=True, observe=None):
        rec = self
        calls, secs = name + ".calls", name + ".s"
        counts = self.counts

        if not timed:
            def wrapper(*args, **kwargs):
                if rec.op is not None:
                    counts[(rec.op, calls)] += 1
                return fn(*args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args, None)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            counts[(rec.op, secs)] += time.perf_counter() - t0
            counts[(rec.op, calls)] += 1
            return out
        return wrapper

    # -- observers for derived per-layer counts ------------------------------------

    def _observe_hom_apply(self, args, _out):
        if args[1].is_zero():
            self.add("homs.hom_apply.zero_calls")

    def _observe_adjugate(self, args, _out):
        a = args[0]
        key = tuple(tuple(v.payload for v in row) for row in a)
        if key in self._seen_blocks:
            self.add("dense.adjugate_inverse.repeat_calls")
        self._seen_blocks.add(key)
        self.max_block = max(self.max_block, len(a))

    def _observe_verify(self, _args, report):
        for c in report.checks:
            self.add(f"lifting.check.{c.name}.s", c.seconds)

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, colift):
        """Wrap every public function of every layer module, rebinding each
        module-level alias of it, plus the hot methods named below."""
        modules = [getattr(colift, name) for name in LAYERS]
        observers = {"homs.hom_apply": self._observe_hom_apply,
                     "dense.adjugate_inverse": self._observe_adjugate,
                     "lifting.verify_certificate": self._observe_verify}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                observe = observers.get(name)
                if name in HOT:
                    wrapped = self.counter_wrapper(name, fn, observe=observe)
                else:
                    wrapped = self.span_wrapper(name, fn, observe=observe)
                for other in modules:
                    for alias, val in list(vars(other).items()):
                        if val is fn:
                            self._set(other, alias, wrapped)

        rings, matrices = colift.rings, colift.matrices
        elem = rings.RingElement
        self._set(elem, "__init__", self.counter_wrapper(
            "rings.element_new", elem.__init__, timed=False))
        for attr, name in (("__add__", "rings.add_op"), ("__radd__", "rings.add_op"),
                           ("__mul__", "rings.mul_op"), ("__rmul__", "rings.mul_op")):
            self._set(elem, attr, self.counter_wrapper(
                name, elem.__dict__[attr], timed=False))
        self._set(matrices.Elementary, "__init__", self.counter_wrapper(
            "matrices.Elementary.init", matrices.Elementary.__init__))
        for cls in (matrices.Elementary, matrices.ProductMatrix):
            self._set(cls, "column", self.counter_wrapper(
                f"matrices.column.{cls.__name__}", cls.__dict__["column"]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------------

    def total(self, op_ids, key):
        """Sum of a per-op count over the given ops."""
        return sum(self.counts.get((op, key), 0.0) for op in op_ids)

    def self_seconds(self, op_ids, root_name):
        """Mean self time of the root span over the given ops: its duration
        minus the part of it covered by its direct children."""
        wanted = set(op_ids)
        roots = {}
        child_time = defaultdict(float)
        for sid, name, t0, t1, parent, op in self.spans:
            if op not in wanted:
                continue
            if parent is None and name == root_name:
                roots[sid] = t1 - t0
            elif parent is not None:
                child_time[parent] += t1 - t0
        if not roots:
            return 0.0
        return sum(d - child_time[s] for s, d in roots.items()) / len(roots)

    def write(self, path, ops):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops,
                       "spans": [{"id": s, "name": n, "start": a, "end": b,
                                  "parent": p, "op": o}
                                 for s, n, a, b, p, o in self.spans],
                       "counters": [{"op": op, "name": key, "value": v}
                                    for (op, key), v in sorted(self.counts.items())]},
                      fh)
