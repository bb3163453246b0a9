"""Span recorder for the traced benchmark run.

The traced run wraps public functions of the package under the name its
caller looks up: `fiverank.splitting.splitting_profile` is the binding
`frobenius_order_in_L` calls, so wrapping it there sees every call from
that module, while `fiverank.exact.splitting_profile` would see none.
Metric names use the module that defines the function, so the span
`exact.splitting_profile` belongs to the `exact` layer.

Spans (name, start, end, parent) are kept in flat in-memory arrays while
the run goes on and written out once when it ends.  Functions called
tens of thousands of times per operation (form composition) are counted
instead of spanned, which keeps the tracer's own cost and memory small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

# (module whose global the caller reads, attribute path, span name)
SPAN_POINTS = (
    ("fiverank.splitting", "verify_instance", "splitting.verify_instance"),
    ("fiverank.splitting", "splitting_pattern", "splitting.splitting_pattern"),
    ("fiverank.splitting", "frobenius_order_in_L", "splitting.frobenius_order_in_L"),
    ("fiverank.classgroup", "frobenius_order_in_L", "splitting.frobenius_order_in_L"),
    ("fiverank.splitting", "prime_split_in_K", "splitting.prime_split_in_K"),
    ("fiverank.classgroup", "prime_split_in_K", "splitting.prime_split_in_K"),
    ("fiverank.splitting", "check_z", "sieve.check_z"),
    ("fiverank.sieve", "check_z", "sieve.check_z"),
    ("fiverank.sieve", "admissible_z", "sieve.admissible_z"),
    ("fiverank.family", "Specialization.radicand", "family.radicand"),
    ("fiverank.splitting", "splitting_profile", "exact.splitting_profile"),
    ("fiverank.exact", "Poly.primitive_integer", "exact.Poly.primitive_integer"),
    ("fiverank.splitting", "jacobi", "exact.jacobi"),
    ("fiverank.sieve", "valuation", "exact.valuation"),
    ("fiverank.curves", "valuation", "exact.valuation"),
    ("fiverank.classgroup", "squarefree_part", "exact.squarefree_part"),
    ("fiverank.splitting", "preimage_quintic", "isogeny.preimage_quintic"),
    ("fiverank.classgroup", "preimage_quintic", "isogeny.preimage_quintic"),
    ("fiverank.family", "five_division_kernel", "isogeny.five_division_kernel"),
    ("fiverank.classgroup", "five_division_kernel", "isogeny.five_division_kernel"),
    ("fiverank.curves", "minimal_model", "curves.minimal_model"),
    ("fiverank.isogeny", "minimal_model", "curves.minimal_model"),
    ("fiverank.sieve", "minimal_model", "curves.minimal_model"),
    ("fiverank.classgroup", "small_instance_oracle", "classgroup.small_instance_oracle"),
    ("fiverank.classgroup", "class_number", "classgroup.class_number"),
    ("fiverank.classgroup", "enumerate_reduced", "classgroup.enumerate_reduced"),
    ("fiverank.classgroup", "group_structure", "classgroup.group_structure"),
)

# called once per form and power step: counted, not spanned
COUNT_POINTS = (
    ("fiverank.classgroup", "compose", "classgroup.compose"),
    ("fiverank.classgroup", "form_pow", "classgroup.form_pow"),
)


class Recorder:
    """Spans as parallel arrays; index i is span i, parent -1 is a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(i)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms.

        Self time is a span's duration minus the durations of its direct
        children; a single thread nests spans, so children never overlap.
        Inclusive time counts only the outermost span of each name, so a
        recursive call is not counted twice.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_ms"] += (dur[i] - child[i]) / 1e6
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                row["ms"] += dur[i] / 1e6
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})["calls"] += calls
        return out

    def durations_ms(self, name: str) -> list[float]:
        """Duration of every span with this name, in recording order."""
        nid = self._ids.get(name)
        return [(self.end[i] - self.start[i]) / 1e6
                for i in range(len(self.start)) if self.name_id[i] == nid]

    def write(self, path) -> None:
        """One line per span: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _span_wrapper(rec: Recorder, fn, name: str):
    nid = rec.name_index(name)
    if inspect.isgeneratorfunction(fn):
        # a generator does its work on each resume, so each step is a span
        @functools.wraps(fn)
        def stepper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = rec.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.close(i)
                    yield item
            finally:
                it.close()
        return stepper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _count_wrapper(rec: Recorder, fn, name: str):
    rec.counts.setdefault(name, 0)
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def traced(rec: Recorder):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for points, make in ((SPAN_POINTS, _span_wrapper),
                             (COUNT_POINTS, _count_wrapper)):
            for module, path, name in points:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(rec, original, name))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
