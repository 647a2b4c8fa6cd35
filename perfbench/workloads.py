"""The workloads and the closed-loop client that drives them.

One client issues one operation at a time through the public stack
(``DurableWarehouse``, ``Warehouse``, ``repro.query.sql``) and waits for
each answer before sending the next.  A *round* is one session:

1. set-up (timed as ``setup_s``): generate the rows, pre-load the tree
   through ``insert_many``, start the durable session and build the
   scan-backend answer oracle.  The script of step 2 is built between
   row generation and pre-load, outside the clock;
2. a few *cycles*, each a slice of the workload's script — insert
   batches, label / SQL / prepared range queries, group-bys and
   checkpoints, each timed from call to return — ended by a restart:
   ``close()`` and ``DurableWarehouse.open`` on a copy of the closed
   directory (timed as ``recover_s``); the recovered warehouse carries
   the session on.

Cycling spreads every kind of operation over the whole round, so each
metric samples the machine at many moments rather than in one phase.

Answers are compared with the oracle outside the timed calls.  Round r
of a seed is always the same script, so its tracker counters, structure
digest and answer digest must repeat bit for bit.
"""

import gc
import hashlib
import math
import os
import random
import shutil
import time

from inputs import DIMENSIONS, LabelCatalog, QuerySource, RowSource, sql_text

from repro import DCTreeConfig, DurableWarehouse, Warehouse, query_from_labels
from repro.core.debug import structure_digest
from repro.query import sql as sql_mod
from repro.storage.tracker import AccessStats
from repro.tpcd.schema import make_tpcd_schema

CHECKPOINT = ("checkpoint",)

#: Seed of the one data set (pre-load and write stream) every workload
#: uses; the benchmark's seed varies only the reads.  Whether the
#: DC-tree's root directory ever splits is chaotic in the input: on about
#: one input in five it grows into a single wide supernode, which doubles
#: insert and query cost.  One fixed data set, chosen like most inputs to
#: give the usual shape (a root split into a few children), keeps every
#: seed and every round on the same tree.
BASE_SEED = 0


class Workload:
    """One workload: its flush policy, batch size and script."""

    def __init__(self, name, fsync, batch, script, checks):
        self.name = name
        self.fsync = fsync
        self.batch = batch
        self.script = script
        #: check every n-th read against the oracle
        self.checks = checks


def _split(items, n):
    """``items`` cut into ``n`` contiguous, nearly equal slices."""
    return [items[len(items) * k // n:len(items) * (k + 1) // n]
            for k in range(n)]


def _batches(rows, size):
    return [("insert", rows[start:start + size])
            for start in range(0, len(rows), size)]


def _ingest_script(spec, preload, rows, size, seed):
    """Stream the rows in batches; each cycle checkpoints at fixed record
    counts early on and restarts with the rest of its rows as WAL tail.

    A few 1 % queries and range-restricted roll-ups follow every batch,
    so the reads sample the whole run, as the batches do, rather than a
    few short phases; their labels come from the rows loaded so far."""
    catalog = LabelCatalog()
    queries = QuerySource(catalog, seed, BASE_SEED)
    i = 0
    cycles = []
    for chunk in _split(rows, size["cycles"]):
        batches = _batches(chunk, spec.batch)
        ops = []
        for k, (batch, share) in enumerate(
                zip(batches, _split(range(size["reads"]), len(batches)))):
            if k * spec.batch in size["checkpoints"]:
                ops.append(CHECKPOINT)
            ops.append(batch)
            catalog.add(batch[1])
            for _ in share:
                ops.append(_groupby(i, queries.where(0.01, n_dims=2))
                           if i % 5 == 4 else _query(i, queries.where(0.01)))
                i += 1
        cycles.append(ops)
    return cycles


def _mixed_script(spec, preload, rows, size, seed):
    """Zipfian re-asks from a small pool, one small batch every 10 reads.

    The pool is drawn afresh every ``pool_reads`` reads: cache hits only
    come from repeats between two batches, which a fresh pool keeps, and
    more pools per round make the mix of cheap and costly queries at the
    top ranks depend less on the seed.

    The roll-ups are restricted to 5 % of two dimensions, as a dashboard
    filters them.  Unrestricted roll-ups walk the whole tree, and their
    latency followed the host's CPU speed modes about 1.5 times as
    steeply as the other operations did, which spread groupby_ms_p50
    past its bound.  The sequence of ranks asked is the same for every
    seed, like the data and the query shapes: the seed varies the labels
    the queries select.
    """
    queries = QuerySource(LabelCatalog(preload), seed, BASE_SEED)
    rng = random.Random(BASE_SEED)
    weights = [1.0 / (rank ** 1.2) for rank in range(1, size["pool"] + 1)]
    batches = iter(_batches(rows, spec.batch))
    per_cycle = size["reads"] // size["cycles"]
    cycles = []
    ops = []
    for i in range(size["reads"]):
        if i % size["pool_reads"] == 0:
            pool = [
                _groupby(j, queries.where(0.05, n_dims=2)) if j % 5 == 4
                else _query(j, queries.where((0.01, 0.05, 0.25)[j % 3]))
                for j in range(size["pool"])
            ]
        ops.append(rng.choices(pool, weights)[0])
        if i % 10 == 9:
            ops.append(next(batches))
        if i % per_cycle == size["checkpoint_after"] - 1:
            ops.append(CHECKPOINT)
        if i % per_cycle == per_cycle - 1:
            cycles.append(ops)
            ops = []
    return cycles


_FORMS = ("label", "sql", "prepared")
_OPS = ("sum", "count", "avg", "max")


def _query(i, where):
    return ("query", _FORMS[i % 3], _OPS[i % 4], where)


def _groupby(i, where):
    dim, levels = DIMENSIONS[i % len(DIMENSIONS)]
    target = (dim, levels[(i // len(DIMENSIONS)) % len(levels)])
    return ("groupby", _FORMS[i % 2], ("sum", "count")[i % 2], where, target)


WORKLOADS = {
    "ingest": Workload("ingest", fsync=64, batch=64, script=_ingest_script,
                       checks=50),
    "mixed": Workload("mixed", fsync=1, batch=8, script=_mixed_script,
                      checks=60),
}

#: Round sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the self-test's.
SIZES = {
    "full": {
        "ingest": {"rows": 8192, "cycles": 4, "checkpoints": (256, 768),
                   "reads": 240, "setups": 8},
        "mixed": {"preload": 8192, "rows": 1280, "cycles": 4, "reads": 1600,
                  "pool": 60, "pool_reads": 50, "checkpoint_after": 150},
    },
    "tiny": {
        "ingest": {"rows": 512, "cycles": 2, "checkpoints": (64, 128),
                   "reads": 20, "setups": 2},
        "mixed": {"preload": 512, "rows": 64, "cycles": 2, "reads": 80,
                  "pool": 20, "pool_reads": 40, "checkpoint_after": 15},
    },
}


def add_stats(a, b):
    """The sum of two :class:`AccessStats` deltas."""
    return AccessStats(*(getattr(a, name) + getattr(b, name)
                         for name in AccessStats.__slots__))


class RoundResult:
    """Samples and exact counters of one round."""

    def __init__(self):
        self.setup_s = []
        self.batch_s = []
        self.records = 0
        self.query_s = []
        self.groupby_s = []
        self.checkpoint_s = 0.0
        self.recover_s = []
        self.window_s = 0.0
        self.n_ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.acked = 0
        self.reads = 0
        #: tracker delta over the script
        self.stats = AccessStats(0, 0, 0, 0, 0)
        #: result cache: hits, lookups, invalidations
        self.cache = [0, 0, 0]
        self.digest = None
        self.answers = hashlib.sha256()
        self.checkpoint_bytes = 0
        self.live_records = 0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def exact(self):
        """What must repeat bit for bit across runs of one seed."""
        return {
            "counters": [getattr(self.stats, name)
                         for name in AccessStats.__slots__],
            "structure_digest": self.digest,
            "answers_digest": self.answers.hexdigest(),
            "checkpoint_bytes": self.checkpoint_bytes,
        }


def _same(a, b):
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _same_answer(got, expected):
    if isinstance(expected, dict):
        return (isinstance(got, dict) and got.keys() == expected.keys()
                and all(_same(got[k], expected[k]) for k in expected))
    return _same(got, expected)


class _Client:
    """Times one public call at a time; arms the tracer around it."""

    def __init__(self, result, tracer):
        self.result = result
        self.tracer = tracer

    def call(self, fn, *args, **kwargs):
        tracer = self.tracer
        if tracer is not None:
            tracer.armed = True
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.armed = False
            self.result.window_s += elapsed
        return value, elapsed


def _cache_stats(warehouse):
    c = warehouse.index.result_cache.stats()
    return (c.hits, c.lookups, c.invalidations)


def run_round(spec, seed, round_index, workdir, size="full", tracer=None,
              observability=False):
    """Run one round of ``spec``; returns a :class:`RoundResult`."""
    sizes = SIZES[size][spec.name]
    result = RoundResult()
    client = _Client(result, tracer)
    sub_seed = seed * 1000003 + round_index
    n_preload = sizes.get("preload", 0)
    n_rows = n_preload + sizes["rows"]
    config = DCTreeConfig(observability=observability,
                          wal_fsync_interval=spec.fsync)
    directory = os.path.join(workdir, "r%d-0" % round_index)

    # A set-up that is only a few milliseconds long is repeated, the
    # repeats thrown away, so that setup_s is a median over many.
    for repeat in range(sizes.get("setups", 1)):
        if repeat:
            session.close()
            shutil.rmtree(directory)
        # Start every set-up from a collected heap, so the cyclic
        # collector's passes do not depend on what came before.
        gc.collect()
        started = time.perf_counter()
        rows = RowSource(BASE_SEED, n_rows).rows(n_rows)
        inputs_s = time.perf_counter() - started
        preload, rows = rows[:n_preload], rows[n_preload:]
        if not repeat:
            cycles = spec.script(spec, preload, rows, sizes, sub_seed + 1)

        started = time.perf_counter()
        warehouse = Warehouse(make_tpcd_schema(), config=config)
        for start in range(0, n_preload, 64):
            warehouse.insert_many(preload[start:start + 64])
        session = DurableWarehouse.create(directory, warehouse)
        oracle = Warehouse(make_tpcd_schema(), backend="scan")
        oracle.insert_many(preload)
        result.setup_s.append(inputs_s + time.perf_counter() - started)
    result.acked = n_preload

    for index, ops in enumerate(cycles, 1):
        _segment(ops, session, oracle, client, spec)
        session, directory = _restart(session, directory, index, client,
                                      config)
        if session is None:
            break
    if session is not None:
        client.call(session.close)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    return result


def _segment(ops, session, oracle, client, spec):
    """Run ``ops`` against ``session``; adds their tracker deltas."""
    result = client.result
    live = session.warehouse
    before = live.tracker.snapshot()
    cache_before = _cache_stats(live)
    for op in ops:
        _run_op(op, session, live, oracle, client, spec)
    result.stats = add_stats(result.stats, live.tracker.snapshot() - before)
    result.cache = [total + now - then for total, now, then
                    in zip(result.cache, _cache_stats(live), cache_before)]


def _restart(session, directory, index, client, config):
    """Close the session and recover a copy of its directory; returns the
    recovered session (None if the open failed) and its directory."""
    result = client.result
    digest = structure_digest(session.warehouse.index)
    client.call(session.close)
    copy = directory.rsplit("-", 1)[0] + "-%d" % index
    shutil.copytree(directory, copy)
    shutil.rmtree(directory)
    result.attempted += 1
    try:
        reopened, elapsed = client.call(DurableWarehouse.open, copy,
                                        config=config)
    except Exception as error:  # noqa: BLE001 - counted, run goes on
        result.fail("open: %r" % (error,))
        return None, copy
    result.recover_s.append(elapsed)
    if not reopened.report.validated or len(reopened) != result.acked:
        result.fail("open lost records: %d of %d, validated=%s"
                    % (len(reopened), result.acked,
                       reopened.report.validated))
    elif structure_digest(reopened.warehouse.index) != digest:
        result.fail("recovered tree differs from the live tree")
    result.digest = digest
    result.checkpoint_bytes = os.path.getsize(
        DurableWarehouse.checkpoint_path(copy))
    result.live_records = len(reopened)
    return reopened, copy


def _run_op(op, session, warehouse, oracle, client, spec):
    """Issue one operation, record its latency, check its answer."""
    result = client.result
    kind = op[0]
    result.attempted += 1
    result.n_ops += 1
    try:
        if kind == "insert":
            _value, elapsed = client.call(session.insert_many, op[1])
            result.batch_s.append(elapsed)
            result.records += len(op[1])
            result.acked += len(op[1])
            oracle.insert_many(op[1])
            return
        if kind == "checkpoint":
            _value, elapsed = client.call(session.checkpoint)
            result.checkpoint_s += elapsed
            return
        if kind == "query":
            _kind, form, agg, where = op
            if form == "label":
                value, elapsed = client.call(warehouse.query, agg,
                                             where=where)
            elif form == "sql":
                value, elapsed = client.call(sql_mod.execute, warehouse,
                                             sql_text(agg, where))
            else:
                # Prepared outside the clock, against the labels loaded
                # so far.
                prepared = query_from_labels(warehouse.schema, where)
                value, elapsed = client.call(warehouse.execute, prepared,
                                             op=agg)
            result.query_s.append(elapsed)
            expected = (lambda: oracle.query(agg, where=where))
        else:
            _kind, form, agg, where, (dim, level) = op
            if form == "label":
                value, elapsed = client.call(warehouse.group_by, dim, level,
                                             op=agg, where=where)
            else:
                value, elapsed = client.call(
                    sql_mod.execute, warehouse,
                    sql_text(agg, where, group_by=(dim, level)))
            result.groupby_s.append(elapsed)
            expected = (lambda: oracle.group_by(dim, level, op=agg,
                                                where=where))
    except Exception as error:  # noqa: BLE001 - counted, run goes on
        result.fail("%s: %r" % (kind, error))
        return
    result.answers.update(repr(_canonical(value)).encode())
    if result.reads % spec.checks == 0 and not _same_answer(value,
                                                             expected()):
        result.fail("wrong answer to %r" % (op[:4],))
    result.reads += 1


def _canonical(value):
    return sorted(value.items()) if isinstance(value, dict) else value
