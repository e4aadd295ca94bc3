"""Span tracing installed from outside the program.

:class:`Tracer` replaces public class methods and module functions of the
``repro`` package with timing wrappers while it is installed, and puts the
originals back when it is removed, so an untraced run executes the
program's own code objects.  Each wrapper records one span — id, name,
start, end, parent span, query id, phase — on a thread-local stack.  Work
handed to other threads (the query server's pools, scatter rounds) carries
its parent span and query id along, so a served query's spans share one
id across threads.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover (the union of
the children's intervals, so parallel scatter tasks are not counted
twice).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

#: two-way algorithm classes -> layer span names
TWO_WAY_LAYERS = {
    "HiveRankJoin": "baselines.hive",
    "PigRankJoin": "baselines.pig",
    "DRJNRankJoin": "baselines.drjn",
    "IJLMRRankJoin": "core.ijlmr",
    "ISLRankJoin": "core.isl",
    "BFHMRankJoin": "core.bfhm",
}
#: n-way strategy classes -> layer span names
MULTIWAY_LAYERS = {
    "MultiWayISLRankJoin": "core.multiway.isl",
    "MultiWayHRJNRankJoin": "core.multiway.hrjn",
    "BFHMCascadeRankJoin": "core.multiway.bfhm",
}


class Tracer:
    """Records spans and counts at the layer boundaries of ``repro``."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, query id, phase)
        self.spans: "list[tuple]" = []
        #: (phase, counter name) -> count
        self.counts: "dict[tuple[str, str], int]" = defaultdict(int)
        self.phase = "setup"
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: "list[tuple[object, str, object, bool]]" = []

    # -- context -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _context(self) -> "tuple[int, int, str]":
        """(span id, query id, span name) of the innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (0, 0, "")

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[(self.phase, name)] += amount

    def _open(self, name: str) -> "tuple[int, int, int]":
        parent, qid, _ = self._context()
        span_id = next(self._ids)
        self._stack().append((span_id, qid, name))
        return span_id, parent, qid

    def _close(self, span_id: int, name: str, start: float, parent: int, qid: int) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, qid, self.phase))

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span_id, parent, qid = self._open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, name, start, parent, qid)

    def op(self, qid: int, fn, *args, **kwargs):
        """Run one benchmark operation as the root span of query ``qid``."""
        stack = self._stack()
        stack.append((0, qid, ""))
        try:
            return self.span("op", fn, *args, **kwargs)
        finally:
            stack.pop()

    def carry(self, fn, skip: str = ""):
        """Bind ``fn`` to the caller's innermost open span not named
        ``skip``, for another thread."""
        stack = self._stack()
        while stack and stack[-1][2] == skip:
            stack = stack[:-1]
        context = stack[-1] if stack else (0, 0, "")

        def carried(*args, **kwargs):
            stack = self._stack()
            stack.append(context)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return carried

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, counter: "str | None" = None,
              nested_counts: bool = True) -> None:
        """Replace ``owner.attr`` by a span named ``name``; bump ``counter``
        per call (``nested_counts=False``: not when already inside ``name``)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None and (
                nested_counts or tracer._context()[2] != name
            ):
                tracer.count(counter)
            return tracer.span(name, original, *args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _count_only(self, owner, attr: str, counter: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self, server=None) -> None:
        """Wrap every layer boundary (and ``server``'s pools, if given)."""
        from repro import baselines, core
        from repro.cluster import executor
        from repro.core.bfhm import multi as bfhm_multi
        from repro.core.bfhm.blobcache import DecodedBlobCache
        from repro.core import hrjn_multi, isl_multi
        from repro.maintenance.interceptor import MaintainedRelation
        from repro.mapreduce.runtime import JobRunner
        from repro.query import engine, statistics
        from repro.query.planner import QueryPlanner
        from repro.serving import server as server_module
        from repro.store.client import HTable

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrap(server_module.QueryServer, "submit", "serving.submit")
        self._wrap(server_module, "parse_rank_join", "query.parser")
        self._wrap(engine, "parse_rank_join", "query.parser")
        self._wrap(engine.RankJoinEngine, "execute", "query.engine")
        self._wrap(statistics.StatisticsCatalog, "stats_for", "query.statistics")
        self._count_only(statistics, "gather_statistics", "query.statistics.gathers")
        self._wrap(QueryPlanner, "plan", "query.planner", counter="query.planner.calls")
        classes = {
            cls.__name__: cls
            for module in (core, baselines, isl_multi, hrjn_multi, bfhm_multi)
            for cls in vars(module).values()
            if isinstance(cls, type)
        }
        for class_name, layer in {**TWO_WAY_LAYERS, **MULTIWAY_LAYERS}.items():
            cls = classes[class_name]
            self._wrap(cls, "execute", layer)
            self._wrap(cls, "prepare", layer + ".prepare")
        self._wrap(JobRunner, "run", "mapreduce", counter="mapreduce.jobs")
        for attr in ("get", "multi_get"):
            self._wrap(HTable, attr, "store.read", counter="store.read_calls")
        self._patch(HTable, "scan", self._traced_scan(HTable.scan))
        for attr in ("put_batch", "delete_batch", "delete"):
            self._wrap(HTable, attr, "store.write", counter="store.write_calls",
                       nested_counts=False)
        self._wrap(DecodedBlobCache, "decode", "sketches.decode",
                   counter="sketches.blob_decodes")
        self._patch(MaintainedRelation, "insert_batch",
                    self._traced_mutation(MaintainedRelation.insert_batch))
        self._patch(MaintainedRelation, "delete_batch",
                    self._traced_mutation(MaintainedRelation.delete_batch))
        self._patch(executor, "scatter_gather",
                    self._traced_scatter(executor.scatter_gather, executor.in_scatter))
        if server is not None:
            for pool in (server._reader_pool, server._exclusive_pool):
                self._patch(pool, "submit", self._traced_submit(pool.submit))

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- special wrappers ----------------------------------------------------

    def _traced_scan(self, original):
        tracer = self

        @functools.wraps(original)
        def scan(*args, **kwargs):
            tracer.count("store.read_calls")
            rows = tracer.span("store.read", original, *args, **kwargs)
            return _TracedIterator(tracer, rows)

        return scan

    def _traced_mutation(self, original):
        tracer = self

        @functools.wraps(original)
        def mutation(relation, rows, *args, **kwargs):
            tracer.count("maintenance.batches")
            tracer.count("maintenance.rows_applied", len(rows))
            return tracer.span("maintenance", original, relation, rows, *args, **kwargs)

        return mutation

    def _traced_scatter(self, original, in_scatter):
        tracer = self

        @functools.wraps(original)
        def scatter_gather(ctx, tasks, label=None):
            # the same fan-out test the executor applies: single-server
            # rounds run inline and are not counted
            if (ctx.topology.parallel and not in_scatter()
                    and len({task.server_id for task in tasks}) > 1):
                tracer.count("cluster.scatter_rounds")

            def gather():
                carried = [
                    dataclasses.replace(task, run=tracer.carry(task.run))
                    for task in tasks
                ]
                return original(ctx, carried, label)

            return tracer.span("cluster.scatter", gather)

        return scatter_gather

    def _traced_submit(self, original):
        tracer = self

        def submit(fn, *args, **kwargs):
            def serve(*inner_args, **inner_kwargs):
                return tracer.span("serving.serve", fn, *inner_args, **inner_kwargs)

            # the pool runs the query for the client's operation, not for
            # the submit call that has returned by then
            return original(tracer.carry(serve, skip="serving.submit"), *args, **kwargs)

        return submit

    # -- reporting -----------------------------------------------------------

    def self_times(self, phase: str) -> "dict[str, float]":
        """Total self seconds per span name over the spans of ``phase``."""
        children: "dict[int, list[tuple[float, float]]]" = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: "dict[str, float]" = defaultdict(float)
        for span_id, name, start, end, _, _, span_phase in self.spans:
            if span_phase != phase:
                continue
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            totals[name] += (end - start) - covered
        return totals

    def durations(self, phase: str) -> "dict[str, float]":
        """Total inclusive seconds per span name over the spans of ``phase``."""
        totals: "dict[str, float]" = defaultdict(float)
        for _, name, start, end, _, _, span_phase in self.spans:
            if span_phase == phase:
                totals[name] += end - start
        return totals

    def phase_count(self, phase: str, name: str) -> int:
        return self.counts.get((phase, name), 0)

    def spans_in(self, phase: str) -> int:
        return sum(1 for span in self.spans if span[6] == phase)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "qid", "phase")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class _TracedIterator:
    """Times each step of a lazy store scan as a ``store.read`` span."""

    def __init__(self, tracer: Tracer, rows) -> None:
        self._tracer = tracer
        self._rows = iter(rows)

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.span("store.read", next, self._rows)
