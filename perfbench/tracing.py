"""Outside-in tracer for the dhpbound benchmark.

The tracer wraps the package's public functions from the benchmark's own
files and rebinds each wrapper wherever callers look the function up. A
module that does ``from .modmath import factorize`` holds its own binding,
so wrapping ``modmath.factorize`` alone would miss the calls ``reduction``
and ``cli`` make; SPANS lists every binding that has to be replaced.

A span records its name, its parent span, the item being run and its start
and end; self time is a span's duration minus the time of its children. The
group law runs hundreds of thousands of times per large-order reduction, so
``add``, ``encode`` and ``scalar_mul`` are only counted, per enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from collections import defaultdict

from dhpbound import bounds, cli, groups, modmath, oracle, reduction

# span name -> (modules whose binding is replaced, attribute name)
SPANS = {
    "reduction.reduce_dlog": ((reduction,), "reduce_dlog"),
    "reduction.find_generator": ((reduction,), "find_generator"),
    "reduction.phase1": ((reduction,), "phase1_find_j"),
    "reduction.phase2": ((reduction,), "phase2_find_t"),
    "implicit.pow": ((reduction,), "implicit_pow"),
    "implicit.scalar": ((reduction,), "implicit_scalar"),
    "modmath.factorize": ((modmath, reduction, cli), "factorize"),
    "modmath.is_prime": ((modmath, groups, cli), "is_prime"),
    "modmath.divisors_in_range": ((modmath, bounds), "divisors_in_range"),
    "bounds.load_database": ((bounds,), "load_database"),
    "bounds.table_rows": ((bounds,), "table_rows"),
    "bounds.suggest_divisor": ((bounds,), "suggest_divisor"),
    "cli.main": ((cli,), "main"),
}

# counted group-law methods: (class defining the method, attribute) -> counter name
COUNTED = {
    (groups.CyclicGroup, "add"): "groups.add",
    (groups.CyclicGroup, "encode"): "groups.encode",
    (groups.CyclicGroup, "scalar_mul"): "groups.scalar_mul",
    (groups.ZpAdditiveGroup, "scalar_mul"): "groups.scalar_mul",
    (groups.MultSubgroup, "scalar_mul"): "groups.scalar_mul",
}

# counts read off return values, so the ledger's parts show per layer
RESULT_COUNTS = {
    "modmath.factorize": lambda f: {"modmath.factorize.complete": int(f.complete)},
    "reduction.phase1": lambda r: {"reduction.phase1.giant_steps": r[1]},  # u1 probes
    "reduction.phase2": lambda r: {"reduction.phase2.giant_steps": r[1] + 1},  # u2 = 0 probes too
    "reduction.reduce_dlog": lambda tr: {"reduction.table_entries": tr.ledger.bsgs_table_entries},
}

SAMPLED = {"oracle.dh"}  # spans whose every duration is kept, for a median

REDUCTION_EXPECTED = frozenset({
    "reduction.reduce_dlog", "reduction.find_generator", "reduction.phase1",
    "reduction.phase2", "implicit.pow", "implicit.scalar", "oracle.dh",
    "oracle.first_dh", "modmath.factorize", "groups.add", "groups.encode",
    "groups.scalar_mul",
})
ANALYTIC_EXPECTED = frozenset({
    "cli.main", "bounds.load_database", "bounds.table_rows", "bounds.suggest_divisor",
    "modmath.factorize", "modmath.divisors_in_range", "modmath.is_prime",
})

SPAN_RECORD_LIMIT = 20_000


class Tracer:
    """Span and counter store for one traced run; kept in memory until the run ends."""

    def __init__(self):
        self.item = None  # id of the item being run, set by the caller
        self._stack = []  # open spans: [name, span id, start, child seconds]
        self._ids = itertools.count(1)
        self.fired: set[str] = set()  # every span or counter name seen, resets included
        self.records: list[tuple] = []  # (span id, parent id, item, name, start, end)
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, seconds, self seconds]
        self.counts = defaultdict(int)
        self.by_span = defaultdict(int)  # (counter, enclosing span) -> calls
        self.samples = defaultdict(list)

    def _note_fired(self) -> None:
        self.fired.update(self.spans)
        self.fired.update(name for name, _ in self.by_span)

    def reset(self) -> None:
        """Drop the aggregates, so set-up work is kept apart from item work."""
        self._note_fired()
        for store in (self.spans, self.counts, self.by_span, self.samples):
            store.clear()

    def span(self, name, fn):
        """Wrap fn in a span; name may be a function of the call's arguments."""
        stack, spans, records, clock = self._stack, self.spans, self.records, time.perf_counter
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            frame = [span_name, next(self._ids), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                agg = spans[span_name]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if span_name in SAMPLED:
                    self.samples[span_name].append(duration)
                if len(records) < SPAN_RECORD_LIMIT:
                    records.append((frame[1], parent, self.item, span_name, frame[2], end))
            hook = RESULT_COUNTS.get(span_name)
            if hook is not None:
                for key, value in hook(result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call is counted under its innermost enclosing span."""
        stack, by_span = self._stack, self.by_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            by_span[name, stack[-1][0] if stack else "-"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapper for the duration of the block, then restore the originals."""
        saved = []

        def rebind(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            for name, (owners, attr) in SPANS.items():
                original = getattr(owners[0], attr)
                for owner in owners:
                    if getattr(owner, attr) is not original:
                        raise RuntimeError(f"{owner.__name__}.{attr} is not the function the tracer wraps")
                wrapper = self.span(name, original)
                for owner in owners:
                    rebind(owner, attr, wrapper)
            # the first dh on a handle builds the simulator's solver: a set-up cost
            dh_name = lambda handle, *_: "oracle.first_dh" if handle.call_count == 0 else "oracle.dh"
            rebind(oracle.OracleHandle, "dh", self.span(dh_name, oracle.OracleHandle.dh))
            for (cls, attr), name in COUNTED.items():
                rebind(cls, attr, self.counter(name, cls.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._note_fired()

    def export(self) -> dict:
        """JSON-ready aggregates, for a traced worker process to hand back."""
        self._note_fired()
        return {
            "spans": dict(self.spans),
            "counts": dict(self.counts),
            "by_span": [[name, parent, n] for (name, parent), n in self.by_span.items()],
            "samples": dict(self.samples),
            "records": self.records,
            "fired": sorted(self.fired),
        }

    def merge(self, exported: dict) -> None:
        """Add a worker's exported aggregates into this tracer."""
        for name, (calls, seconds, self_seconds) in exported["spans"].items():
            agg = self.spans[name]
            agg[0] += calls
            agg[1] += seconds
            agg[2] += self_seconds
        for key, value in exported["counts"].items():
            self.counts[key] += value
        for name, parent, n in exported["by_span"]:
            self.by_span[name, parent] += n
        for name, values in exported["samples"].items():
            self.samples[name].extend(values)
        # renumber the worker's span ids past this tracer's own
        offset = next(self._ids)
        room = max(SPAN_RECORD_LIMIT - len(self.records), 0)
        for span_id, parent, item, name, start, end in exported["records"][:room]:
            self.records.append((span_id + offset, parent and parent + offset, item, name, start, end))
        self._ids = itertools.count(offset + 1 + max((r[0] for r in exported["records"]), default=0))
        self.fired.update(exported["fired"])

    def calls_in(self, counter: str, parent: str | None = None) -> int:
        """Calls of a counted method, in one enclosing span or in all of them."""
        return sum(n for (name, p), n in self.by_span.items()
                   if name == counter and (parent is None or p == parent))
