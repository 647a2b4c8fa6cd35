"""Span tracing of the warehouse's layers from outside the program.

:class:`Tracer` wraps public functions of each layer in timers while a
traced run is in progress and restores the originals afterwards.  Each
function is wrapped where its caller looks the name up (a module
attribute or a class attribute), otherwise the wrapper would never be
called.

A span records its name, start, end, parent span and the id of the
operation (root span) it belongs to.  Spans stay in memory and are
written out by :meth:`Tracer.write_spans` when the run ends.  Functions
called once per record or per directory entry (``HOT`` layers) are
folded into per-name totals instead of being stored one by one, which
keeps memory bounded on runs with millions of leaf tests.

Self time is a span's duration minus the time its child spans cover.
The wrapper's own cost for each child lands in the parent's interval;
it is calibrated once per run and booked to ``trace.instrument`` instead
of the parent, so layer self times plus that bucket add up exactly to
the root spans.
"""

import importlib
import inspect
import json
import time

ROOT, LAYER, HOT = "root", "layer", "hot"


def _count_matches(counts, args, result):
    counts["covers_record.true"] += result is True


def _count_contained(counts, args, result):
    counts["classify.contained"] += result == 2  # repro.core.mds.CONTAINED


def _count_plans(counts, args, result):
    counts["plan_node_split.planned"] += result is not None


def _count_wal_bytes(counts, args, result):
    counts["wal.bytes"] += len(result)


def _count_wal_records(counts, args, result):
    _wal, op, data = args[:3]
    counts["wal.records"] += len(data) if op == "insert_batch" else 1


#: (owner, attribute, span name, kind, observer).  The owner is a module
#: path, or ``module:Class`` for methods.
LAYERS = (
    # roots: the public entry points the client calls
    ("repro.persist.durable:DurableWarehouse", "insert_many",
     "persist.durable.insert_many", ROOT, None),
    ("repro.persist.durable:DurableWarehouse", "checkpoint",
     "persist.durable.checkpoint", ROOT, None),
    ("repro.persist.durable:DurableWarehouse", "open",
     "persist.durable.open", ROOT, None),
    ("repro.persist.durable:DurableWarehouse", "close",
     "persist.durable.close", ROOT, None),
    ("repro.warehouse:Warehouse", "query", "warehouse.query", ROOT, None),
    ("repro.warehouse:Warehouse", "execute", "warehouse.execute", ROOT, None),
    ("repro.warehouse:Warehouse", "group_by", "warehouse.group_by", ROOT,
     None),
    ("repro.query.sql", "execute", "query.sql.execute", ROOT, None),
    # query front end
    ("repro.query.sql", "parse", "query.sql.parse", LAYER, None),
    ("repro.warehouse", "query_from_labels",
     "workload.queries.label_resolve", LAYER, None),
    ("repro.persist.recovery", "query_from_labels",
     "workload.queries.label_resolve", LAYER, None),
    # cube: label interning
    ("repro.cube.schema:CubeSchema", "record", "cube.schema.record", HOT,
     None),
    # tree
    ("repro.core.tree:DCTree", "insert_batch", "core.tree.insert_batch",
     LAYER, None),
    ("repro.core.tree:DCTree", "range_query", "core.tree.range_query",
     LAYER, None),
    ("repro.core.tree:DCTree", "group_by_aggregators", "core.tree.group_by",
     LAYER, None),
    ("repro.core.tree:DCTree", "check_invariants",
     "core.tree.check_invariants", LAYER, None),
    # split planning
    ("repro.core.split", "plan_node_split", "core.split.plan_node_split",
     LAYER, _count_plans),
    ("repro.core.split", "choose_seeds", "core.split.choose_seeds", LAYER,
     None),
    # MDS algebra
    ("repro.core.mds", "covers_record", "core.mds.covers_record", HOT,
     _count_matches),
    ("repro.core.mds", "classify", "core.mds.classify", HOT,
     _count_contained),
    ("repro.core.mds", "operation_cost", "core.mds.operation_cost", HOT,
     None),
    ("repro.core.mds:MDS", "adapted_set", "core.mds.adapted_set", HOT, None),
    # result cache
    ("repro.core.result_cache:ResultCache", "fetch",
     "core.result_cache.lookup", HOT, None),
    ("repro.core.result_cache:ResultCache", "store",
     "core.result_cache.store", HOT, None),
    # cost-model charging
    ("repro.storage.tracker:StorageTracker", "access_node",
     "storage.access_node", HOT, None),
    ("repro.storage.tracker:StorageTracker", "write_node",
     "storage.write_node", HOT, None),
    ("repro.storage.tracker:StorageTracker", "cpu", "storage.cpu", HOT,
     None),
    # write-ahead log
    ("repro.persist.wal:WriteAheadLog", "append", "persist.wal.append",
     LAYER, _count_wal_records),
    ("repro.persist.wal", "encode_record", "persist.wal.encode", LAYER,
     _count_wal_bytes),
    ("repro.persist.wal:WriteAheadLog", "sync", "persist.wal.sync", LAYER,
     None),
    # checkpoint codec
    ("repro.persist.durable", "save_warehouse", "persist.io.save_warehouse",
     LAYER, None),
    ("repro.persist.io", "warehouse_to_dict", "persist.io.warehouse_to_dict",
     LAYER, None),
    ("repro.persist.recovery", "read_warehouse_file",
     "persist.io.read_warehouse_file", LAYER, None),
    ("repro.persist.recovery", "warehouse_from_dict",
     "persist.io.warehouse_from_dict", LAYER, None),
    # recovery
    ("repro.persist.durable", "recover_warehouse",
     "persist.recovery.recover", LAYER, None),
    ("repro.persist.wal", "read_wal", "persist.recovery.wal_read", LAYER,
     None),
    ("repro.persist.recovery", "_replay_wal", "persist.recovery.replay",
     LAYER, None),
    ("repro.persist.recovery", "_audit", "persist.recovery.audit", LAYER,
     None),
)


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Self-time accounting over wrapped layer functions.

    Root spans open only while :attr:`armed` is set (inside one timed
    client call); every other wrapped function records a span only when
    it runs inside a root, so set-up and the answer oracle stay out of
    the trace.
    """

    def __init__(self):
        self.stack = []
        self.armed = False
        self.spans = []
        #: span name -> [calls, total seconds, self seconds]
        self.totals = {}
        self.counts = {
            "covers_record.true": 0, "classify.contained": 0,
            "plan_node_split.planned": 0, "wal.bytes": 0, "wal.records": 0,
        }
        self.instrument_s = 0.0
        self.child_overhead_s = 0.0
        self._next_span = 0
        self._op = 0
        self._installed = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, kind, observe=None):
        stack = self.stack
        counts = self.counts
        perf = time.perf_counter
        finish = self._finish
        is_root = kind == ROOT
        stored = kind != HOT

        def traced(*args, **kwargs):
            if not stack and not (is_root and self.armed):
                return fn(*args, **kwargs)
            if stored:
                self._next_span += 1
                if not stack:
                    self._op += 1
                frame = [0.0, 0, self._next_span,
                         stack[-1][2] if stack else None]
            else:
                frame = [0.0, 0, None, None]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(name, frame, start, perf(), stored)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def _finish(self, name, frame, start, end, stored):
        stack = self.stack
        stack.pop()
        duration = end - start
        uncovered = duration - frame[0]
        # The calibrated cost is an estimate; never book more of it than
        # the parent's uncovered time, so self times stay non-negative.
        instrument = min(frame[1] * self.child_overhead_s, uncovered)
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += uncovered - instrument
        self.instrument_s += instrument
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent[1] += 1
        if stored:
            self.spans.append((frame[2], name, start, end, frame[3], self._op))

    def install(self):
        """Wrap every function in :data:`LAYERS` (undone by :meth:`remove`)."""
        self.child_overhead_s = _calibrate()
        for owner, attribute, name, kind, observe in LAYERS:
            target = _resolve(owner)
            raw = inspect.getattr_static(target, attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.wrap(raw.__func__, name, kind, observe)
                )
            else:
                wrapped = self.wrap(raw, name, kind, observe)
            setattr(target, attribute, wrapped)
            self._installed.append((target, attribute, raw))

    def remove(self):
        while self._installed:
            target, attribute, raw = self._installed.pop()
            setattr(target, attribute, raw)

    # -- reading ----------------------------------------------------------

    def self_s(self, *names):
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_self_s(self):
        return sum(t[2] for t in self.totals.values()) + self.instrument_s

    def write_spans(self, path):
        """Write the stored spans (one JSON object per line) and totals."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")
            for name, (calls, total, own) in sorted(self.totals.items()):
                handle.write(json.dumps({
                    "totals": name, "calls": calls, "total_s": total,
                    "self_s": own,
                }) + "\n")


def _noop():
    return None


def _calibrate(n=20000):
    """Seconds a wrapped child adds to its parent outside its own span."""
    probe = Tracer()
    child = probe.wrap(_noop, "child", HOT)

    def loop(call):
        for _ in range(n):
            call()

    root = probe.wrap(loop, "root", ROOT)
    best = None
    for _ in range(3):
        probe.armed = True
        start = time.perf_counter()
        root(child)
        traced = time.perf_counter() - start
        probe.armed = False
        start = time.perf_counter()
        loop(_noop)
        plain = time.perf_counter() - start
        inside = probe.totals["child"][1]
        probe.totals.clear()
        estimate = max(0.0, (traced - inside - plain) / n)
        best = estimate if best is None else min(best, estimate)
    return best
