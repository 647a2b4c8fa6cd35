"""The DC-tree: a fully dynamic index structure for data cubes (§3–4).

The tree is X-tree-shaped — hierarchical directory, supernodes when no
good split exists — but replaces MBRs by MDSs, exploits the partial
ordering of the concept hierarchies, and materializes aggregate measures
in every directory entry so range queries can stop at contained entries.

Public operations:

* :meth:`DCTree.apply` — the one mutator: a sequence of insert/delete
  operations applied, logged and counted as a unit (the paper's
  motivation: no nightly bulk-update window).  :meth:`DCTree.insert`,
  :meth:`DCTree.insert_batch` and :meth:`DCTree.delete` are one-line
  wrappers over it.
* :meth:`DCTree.range_query` — aggregation (SUM/COUNT/AVG/MIN/MAX) over a
  range MDS, Fig. 7's algorithm.
* :meth:`DCTree.range_records` — the matching records themselves.
* :meth:`DCTree.check_invariants` — deep structural audit used by tests.
"""

from __future__ import annotations

import time

from ..config import DCTreeConfig
from ..cube.aggregation import (
    AggregateVector,
    StreamingAggregator,
    check_aggregate,
)
from ..errors import QueryError, RecordNotFoundError, TreeError
from ..obs import ExplainResult, MetricsRegistry, ProfileSession, QueryProfile
from ..storage.tracker import StorageTracker
from . import mds as mds_mod
from . import split as split_mod
from .mds import MDS
from .node import DCDataNode, DCDirNode
from .result_cache import ResultCache
from .stats import TreeFootprint


#: The operation kinds of :meth:`DCTree.apply` (also the WAL's op tags).
INSERT = "insert"
DELETE = "delete"


def _copy_groups(groups):
    """Independent aggregator copies (callers merge groups onwards)."""
    return {value: aggregator.copy() for value, aggregator in groups.items()}


class _BatchState:
    """Deferred charges of one multi-operation :meth:`DCTree.apply`.

    Tracks the pages the batch dirties — in first-touch order, keeping
    the widest write observed per page — plus which of them took a path
    MDS/aggregate fold, so the flush charges ``write_node`` once and the
    fold CPU once per touched node instead of once per record.  Pages
    freed mid-batch (split sources, unlinked or condensed nodes) are
    dropped: a write-back buffer never flushes a dead page.
    """

    __slots__ = ("pending",)

    def __init__(self):
        # page_id -> [n_pages, took_path_fold] (insertion-ordered, so the
        # flush replays writes deterministically in first-touch order).
        self.pending = {}

    def touch(self, page_id, n_pages=1):
        """Note a deferred page write (splice, split, root growth)."""
        entry = self.pending.get(page_id)
        if entry is None:
            self.pending[page_id] = [n_pages, False]
        elif n_pages > entry[0]:
            entry[0] = n_pages

    def extend(self, page_id):
        """Note a deferred path MDS/aggregate fold plus its page write."""
        entry = self.pending.get(page_id)
        if entry is None:
            self.pending[page_id] = [1, True]
        else:
            entry[1] = True

    def discard(self, page_id):
        """Forget a page freed before the flush (nothing left to write)."""
        self.pending.pop(page_id, None)


class DCTree(TreeFootprint):
    """A DC-tree over one :class:`~repro.cube.schema.CubeSchema`.

    Parameters
    ----------
    schema:
        The cube schema; its concept hierarchies are shared with the tree.
    config:
        A :class:`~repro.config.DCTreeConfig` (defaults apply otherwise).
    tracker:
        Optional externally owned :class:`StorageTracker` (lets experiments
        share a buffer pool); the tree creates a private one by default.
    """

    def __init__(self, schema, config=None, tracker=None, storage_config=None):
        self.schema = schema
        self.config = config if config is not None else DCTreeConfig()
        self.hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        if tracker is not None:
            self.tracker = tracker
        else:
            self.tracker = StorageTracker(storage_config)
        self._n_records = 0
        self._root = DCDataNode(
            MDS.all_mds(self.hierarchies),
            AggregateVector(schema.n_measures),
            self.tracker.new_page_id(),
        )
        self._tree_version = 0
        self._batch = None
        self._mutation_sink = None
        self._result_cache = (
            ResultCache(self.config.result_cache_capacity)
            if self.config.use_result_cache else None
        )
        # Telemetry is strictly observational (see _count).
        self._metrics = (
            MetricsRegistry() if self.config.observability else None
        )
        self._profile = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n_records

    @property
    def root(self):
        """The root node (read-only use, e.g. by the statistics module)."""
        return self._root

    @property
    def tree_version(self):
        """Monotone counter bumped by every mutation of the tree.

        The result cache keys memoized answers on it.  Every mutation
        goes through :meth:`apply` (one bump per call, however many
        operations) or :meth:`adopt_root` (one bump per root swap), so a
        stale answer can never be served.
        """
        return self._tree_version

    @property
    def result_cache(self):
        """The attached :class:`ResultCache` (None when disabled)."""
        return self._result_cache

    @property
    def observability(self):
        """The tree's :class:`~repro.obs.MetricsRegistry` (None when
        ``DCTreeConfig.observability`` is off)."""
        return self._metrics

    def _count(self, name, help_text, amount=1, **labels):
        """Add ``amount`` to one telemetry counter, when telemetry is on.

        Every event counter of the tree goes through here, after the
        event succeeded; it never touches the tracker, so deterministic
        counters are identical with observability on or off.
        """
        if self._metrics is not None:
            self._metrics.counter(name, help_text, **labels).inc(amount)

    def set_mutation_sink(self, sink):
        """Attach a durability sink; pass ``None`` to detach.

        The sink rides next to the :attr:`tree_version` bump: every
        *acknowledged* mutation notifies it before returning, after the
        in-memory apply succeeds.  A sink implements two methods:
        ``record_ops(ops)``, once per non-empty :meth:`apply` with its
        ``(kind, record)`` pairs, and ``record_rebase(n_records)``, once
        per wholesale root swap (:meth:`adopt_root`).  The write-ahead
        log's :class:`repro.persist.durable.WalSink` is the intended
        sink.
        """
        self._mutation_sink = sink

    def adopt_root(self, root, n_records):
        """Install a new root wholesale (bulk load, deserialization).

        Bumps the version like any mutation and notifies the durability
        sink with a *rebase*: a record-level log cannot replay a root
        swap, so the sink must checkpoint (the WAL marks the spot and
        recovery refuses to replay past it without that checkpoint).
        """
        self._root = root
        self._n_records = n_records
        self._tree_version += 1
        if self._mutation_sink is not None:
            self._mutation_sink.record_rebase(n_records)

    def records(self):
        """Iterate over all records (no I/O accounting; test/debug aid)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.records
            else:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # insertion (Fig. 4)
    # ------------------------------------------------------------------

    def insert(self, record):
        """Insert one data record: a one-operation :meth:`apply`."""
        self.apply(((INSERT, record),))

    def insert_batch(self, records):
        """Insert many records as one :meth:`apply`; returns how many."""
        return self.apply([(INSERT, record) for record in records])

    def delete(self, record):
        """Remove one record (by value): a one-operation :meth:`apply`;
        raises :class:`RecordNotFoundError`, changing nothing, when it is
        not indexed."""
        self.apply(((DELETE, record),))

    def apply(self, ops):
        """Apply ``(kind, record)`` pairs in order, ``kind`` being
        :data:`INSERT` or :data:`DELETE`; returns how many.

        Each operation descends exactly as it would alone, so the tree
        and every read counter do not depend on how operations are
        grouped into calls.  A one-operation call charges write-through;
        a longer one (a batch) defers each touched node's fold CPU and
        page write to one flush at its end, so it writes at most (usually
        far fewer) pages than its operations would one by one.  The
        regime depends on the call alone, so replaying the call's WAL
        record reproduces its charges.

        :attr:`tree_version` bumps once per call, and the sink hears of
        it once, via ``record_ops(ops)``, before the call returns:
        returning IS the acknowledgement.  Deleting a record that is not
        indexed raises :class:`RecordNotFoundError`; as the only
        operation it changes nothing, after others those stay applied
        but unlogged.
        """
        ops = list(ops)
        if not ops:
            return 0
        if self._batch is not None:
            raise TreeError("apply cannot be nested")
        for kind, _record in ops:
            if kind != INSERT and kind != DELETE:
                raise TreeError("unknown operation %r" % (kind,))
        batch = self._batch = _BatchState() if len(ops) > 1 else None
        done = 0
        missing = False
        try:
            for kind, record in ops:
                if kind == INSERT:
                    self._place(record)
                    self._n_records += 1
                elif not self._remove(record):
                    missing = True
                    raise RecordNotFoundError(
                        "record not found: %r" % (record,)
                    )
                done += 1
        finally:
            self._batch = None
            # Whatever ran may have changed the tree — except a lone
            # missing delete, which changed nothing.
            if done or not missing:
                self._tree_version += 1
        if batch is not None:
            pages_written = self._flush_batch(batch)
        if self._mutation_sink is not None:
            self._mutation_sink.record_ops(ops)
        if batch is None:
            if ops[0][0] == INSERT:
                self._count("dctree_inserts_total", "Records inserted.")
            else:
                self._count("dctree_deletes_total", "Records deleted.")
            return 1
        n_deletes = sum(kind == DELETE for kind, _record in ops)
        self._count("dctree_batch_inserts_total",
                    "Multi-operation apply calls (batches).")
        self._count("dctree_batch_records_total",
                    "Records inserted through batches.",
                    len(ops) - n_deletes)
        if n_deletes:
            self._count("dctree_batch_deletes_total",
                        "Records deleted through batches.", n_deletes)
        self._count("dctree_batch_pages_written_total",
                    "Pages written by batch flushes.", pages_written)
        return len(ops)

    def _place(self, record):
        """Route one record down from the root, growing the root on split."""
        # Dynamic hierarchy maintenance (§3.1): assigning/looking up the
        # level-tagged ID of each of the record's attribute values.
        self.tracker.cpu(2 * self.schema.n_flat_attributes)
        split_result = self._insert_into(self._root, record)
        if split_result is not None:
            self._grow_root(split_result)

    def _flush_batch(self, batch):
        """Charge the batch's coalesced folds and page writes.

        Pages flush in first-touch order with the widest write observed,
        so the charge sequence is deterministic; returns pages written.
        """
        n_flat = self.schema.n_flat_attributes
        pages_written = 0
        for page_id, (n_pages, extended) in batch.pending.items():
            if extended:
                self.tracker.cpu(n_flat)
            self.tracker.write_node(page_id, n_pages)
            pages_written += n_pages
        return pages_written

    def _charge_node_write(self, page_id, n_pages=1):
        """Charge a page write now, or defer it to the open batch."""
        if self._batch is None:
            self.tracker.write_node(page_id, n_pages)
        else:
            self._batch.touch(page_id, n_pages)

    def _free_node(self, page_id, n_blocks):
        """Free a node's pages, dropping any write still pending on them."""
        if self._batch is not None:
            self._batch.discard(page_id)
        self.tracker.free_node(page_id, n_blocks)

    def _insert_into(self, node, record):
        """Recursive insert; returns a (left, right) pair on split."""
        self.tracker.access_node(node.page_id, node.n_blocks)
        node.mds.add_record(record, self.hierarchies)
        node.aggregate.add_record(record)
        # The materialized measures of the paper make every insert dirty
        # every node on its path.  Serial inserts charge the fold CPU and
        # the write-through page write per record; an open batch defers
        # both to its flush, once per touched node.
        if self._batch is None:
            self.tracker.cpu(self.schema.n_flat_attributes)
            self.tracker.write_node(node.page_id)
        else:
            self._batch.extend(node.page_id)
        if node.is_leaf:
            node.records.append(record)
            if self._blocks_needed(node) > node.n_blocks:
                return self._split_or_grow(node)
            return None
        child, position = self._choose_subtree(node, record)
        child_split = self._insert_into(child, record)
        if child_split is not None:
            node.children[position:position + 1] = list(child_split)
            # The node is already pinned by this descent (accessed and
            # charged above); the splice only dirties it again.
            self._charge_node_write(node.page_id)
            if self._blocks_needed(node) > node.n_blocks:
                return self._split_or_grow(node)
        return None

    def _choose_subtree(self, node, record):
        """Pick the son the record descends into; returns (child, position).

        Criteria (in order): least growth of the child's MDS size, least
        resulting volume, fewest entries.  A child that already covers the
        record therefore always wins.  The record's value at each
        (dimension, level) pair is resolved once per insert, not once per
        child — siblings overwhelmingly share relevant levels.
        """
        # The record's value at every level of each dimension, indexed by
        # level: its stored path read leaf-first, with ALL on top.
        by_level = [
            path[::-1] + (hierarchy.all_id,)
            for path, hierarchy in zip(record.paths, self.hierarchies)
        ]
        n_dimensions = self.schema.n_dimensions
        best = None
        best_position = 0
        # (growth, volume, entry count) of the best child so far; the
        # start key loses to any child.
        best_key = (n_dimensions + 1, 0, 0)
        for position, child in enumerate(node.children):
            key = child.mds.enlargement(by_level, best_key[0])
            if key is None:
                continue
            key += (child.entry_count,)
            if key < best_key:
                best_key = key
                best = child
                best_position = position
        self.tracker.cpu(len(node.children) * n_dimensions)
        return best, best_position

    def _grow_root(self, split_pair):
        """Install a new root above a split root (tree grows by one level)."""
        new_root = self._new_node(self._root.mds.levels,
                                  children=list(split_pair))
        self._root = new_root
        self.tracker.access_node(new_root.page_id, new_root.n_blocks)
        self._charge_node_write(new_root.page_id)

    def _new_node(self, levels, records=None, children=None):
        """A node over ``records`` or ``children`` on a fresh page.

        Its MDS at ``levels`` and its aggregate vector come from
        :meth:`_fold`, its block count from the capacity rule.  Charges
        nothing: every caller charges its own CPU, access and write.
        """
        mds = MDS.empty(levels)
        aggregate = AggregateVector(self.schema.n_measures)
        page_id = self.tracker.new_page_id()
        if children is None:
            node = DCDataNode(mds, aggregate, page_id, records=records)
        else:
            node = DCDirNode(mds, aggregate, page_id, children=children)
        self._fold(node)
        node.n_blocks = self._blocks_needed(node)
        return node

    def _fold(self, node):
        """Refold the node's MDS (at its current levels) and aggregate
        vector from its records or children; charges nothing.

        Children must be at least as specific as the node, so each
        child's value sets lift to the node's levels without a subtree
        walk.  Splits, root growth, deletes and the bulk loader all
        build their summaries here.
        """
        mds = node.mds
        node.aggregate.clear()
        for dim in range(mds.n_dimensions):
            mds.clear_dimension(dim)
        if node.is_leaf:
            for record in node.records:
                node.aggregate.add_record(record)
                mds.add_record(record, self.hierarchies)
            return
        for child in node.children:
            node.aggregate.add_vector(child.aggregate)
            for dim in range(mds.n_dimensions):
                mds.update_values(
                    dim, self._values_at(child, dim, mds.level(dim))
                )

    # ------------------------------------------------------------------
    # splitting (Fig. 5) and supernode management
    # ------------------------------------------------------------------

    def _split_or_grow(self, node):
        """Split the overfull node or grow it into/as a supernode.

        Returns a (left, right) node pair on success, None when the node
        became (or stays) a supernode.
        """
        if node.is_leaf:
            kind = "leaf"
            adapt = self._make_record_adapter(node.records)
            n_entries = len(node.records)
        else:
            kind = "dir"
            adapt = self._make_entry_adapter(node.children)
            n_entries = len(node.children)
        plan = split_mod.plan_node_split(
            node.mds, n_entries, adapt, self.config, self.hierarchies
        )
        if plan is None:
            node.n_blocks += 1
            self._count(
                "dctree_supernode_growths_total",
                "Overfull nodes that grew a block instead of splitting.",
                kind=kind,
            )
            return None
        self.tracker.cpu(plan.cpu_units)
        pair = self._materialize_split(node, plan)
        self._free_node(node.page_id, node.n_blocks)
        self._count("dctree_splits_total", "Successful node splits.",
                    kind=kind)
        return pair

    def _make_record_adapter(self, records):
        """Adapter producing record MDSs at arbitrary target levels."""

        def adapt(levels):
            return [
                MDS.for_record(record, levels, self.hierarchies)
                for record in records
            ]

        return adapt

    def _make_entry_adapter(self, children):
        """Adapter producing child-entry MDSs at arbitrary target levels.

        When a child's relevant level in some dimension lies *above* the
        requested level (possible when the node split descends a concept
        level the child never descended), the child's actual values at the
        requested level are collected from its subtree — charged as real
        node accesses, as a disk-resident implementation would pay them.
        """

        def adapt(levels):
            return [
                MDS([self._values_at(child, dim, level)
                     for dim, level in enumerate(levels)], levels)
                for child in children
            ]

        return adapt

    def _values_at(self, node, dim, level):
        """The values at ``level`` in ``dim`` occurring under ``node``.

        Lifted from the node's MDS when its level is at most ``level``,
        otherwise collected from its subtree (see :meth:`_collect_values`).
        """
        if node.mds.level(dim) <= level:
            return node.mds.adapted_set(dim, level, self.hierarchies[dim])
        return self._collect_values(node, dim, level)

    def _collect_values(self, node, dim, level):
        """Actual values at ``level`` in ``dim`` occurring under ``node``."""
        hierarchy = self.hierarchies[dim]
        if level >= hierarchy.top_level:
            return {hierarchy.all_id}
        values = set()
        stack = [node]
        while stack:
            current = stack.pop()
            self.tracker.access_node(current.page_id, current.n_blocks)
            if current.is_leaf:
                for record in current.records:
                    values.add(record.value_at_level(dim, level))
                self.tracker.cpu(len(current.records))
            else:
                for child in current.children:
                    if child.mds.level(dim) <= level:
                        values.update(
                            child.mds.adapted_set(dim, level, hierarchy)
                        )
                    else:
                        stack.append(child)
                self.tracker.cpu(len(current.children))
        return values

    def _materialize_split(self, node, plan):
        """Build the plan's two halves on fresh pages at its levels."""
        pair = []
        for group in plan.groups:
            if node.is_leaf:
                records = [node.records[i] for i in group]
                pair.append(self._new_node(plan.levels, records=records))
                continue
            children = [node.children[i] for i in group]
            for child in children:
                self._refine_child_levels(child, plan.levels)
            pair.append(self._new_node(plan.levels, children=children))
        self.tracker.cpu(node.entry_count * self.schema.n_dimensions)
        for new_node in pair:
            self.tracker.access_node(new_node.page_id, new_node.n_blocks)
            self._charge_node_write(new_node.page_id, new_node.n_blocks)
        return tuple(pair)

    def _refine_child_levels(self, child, levels):
        """Deepen a child whose MDS is coarser than the split target.

        A hierarchy split may descend one concept level past a child that
        never descended there itself; the child's exact value set at the
        target level was already collected for the grouping, so the
        child's own MDS is refined to it.  A refined directory child's
        own children may be as coarse as it was, so they are refined in
        turn (and the child's page, which holds their entries, is
        rewritten) — children stay at least as specific as their parents.
        Returns whether ``child`` was refined.
        """
        refined = False
        for dim, level in enumerate(levels):
            if child.mds.level(dim) > level:
                child.mds.refine_dimension(
                    dim, self._collect_values(child, dim, level), level
                )
                refined = True
        if refined and not child.is_leaf and any([
            self._refine_child_levels(grandchild, levels)
            for grandchild in child.children
        ]):
            self._charge_node_write(child.page_id, child.n_blocks)
        return refined

    # ------------------------------------------------------------------
    # range queries (Fig. 7)
    # ------------------------------------------------------------------

    def _visit(self, node, keep, depth):
        """Fig. 7, step 1: read ``node`` and, for a data node, scan it.

        Returns the data node's records that ``keep`` (the query's
        :func:`~repro.core.mds.record_filter`) admits, in leaf order, or
        None for a directory node.  The scan charges one CPU unit per
        record and dimension, however early the filter stops.
        """
        self.tracker.access_node(node.page_id, node.n_blocks)
        profile = self._profile
        if profile is not None:
            profile.visit(depth, node.n_blocks)
        if not node.is_leaf:
            return None
        records = node.records
        self.tracker.cpu(len(records) * self.schema.n_dimensions)
        matched = keep(records)
        if profile is not None:
            profile.scanned(depth, len(records))
            profile.charge_cpu(depth)
        return matched

    def _classify(self, range_mds, entry, depth, check_containment=True):
        """Fig. 7, step 2: DISJOINT/PARTIAL/CONTAINED for one entry.

        The traversals call it entry by entry as they go.  It charges one
        :func:`~repro.core.mds.operation_cost` (the cost model prices the
        logical comparison) and feeds EXPLAIN.  Without
        ``check_containment`` it never answers CONTAINED.
        """
        self.tracker.cpu(mds_mod.operation_cost(range_mds, entry.mds))
        outcome = mds_mod.classify(
            range_mds, entry.mds, self.hierarchies, check_containment
        )
        profile = self._profile
        if profile is not None:
            profile.classified(depth, outcome)
            profile.charge_cpu(depth)
        return outcome

    def _answer(self, kind, op, measure_index, key, compute, explain,
                copy=None):
        """Answer a query through the result cache, profiled on request.

        A cache hit replays the charges recorded with the answer; a miss
        runs ``compute`` under an access trace and stores the answer with
        them.  ``copy`` clones an answer the caller may mutate (group
        aggregators) on its way into and out of the cache.

        With ``explain`` the answer comes back as an
        :class:`~repro.obs.ExplainResult` whose per-level profile
        reconciles exactly with the call's tracker delta.  Charging stays
        bit-identical to the plain call: a hit is recomputed instead of
        replayed — the stored trace was recorded at this very tree
        version, so recomputing makes exactly the charges the replay
        would have (the cache's counter-invisibility invariant), while
        giving the profiler a real traversal to attribute.
        """
        cache = self._result_cache
        version = self._tree_version
        profile = None
        if explain:
            profile = QueryProfile(kind, op, measure_index, version)
            if cache is None:
                profile.cache_outcome = "disabled"
            elif cache.peek(key, version) is not None:
                profile.cache_outcome = "hit"
                cache = None
            else:
                profile.cache_outcome = "miss"
            started = time.perf_counter()
            profile.before = self.tracker.snapshot()
            session = self._profile = ProfileSession(profile, self.tracker)
        elif cache is not None:
            entry = cache.fetch(key, version, self.tracker)
            if entry is not None:
                return entry.value if copy is None else copy(entry.value)
        try:
            if cache is None:
                value = compute()
            else:
                with self.tracker.trace_accesses() as trace:
                    cpu_before = self.tracker.cpu_units
                    value = compute()
                    cpu_units = self.tracker.cpu_units - cpu_before
                cache.store(
                    key, version, value if copy is None else copy(value),
                    trace, cpu_units,
                )
        finally:
            if profile is not None:
                self._profile = None
                session.finish()
                profile.after = self.tracker.snapshot()
                profile.wall_seconds = time.perf_counter() - started
        if profile is None:
            return value
        self._count("dctree_explains_total",
                    "Profiled (EXPLAIN) queries by kind.", kind=kind)
        return ExplainResult(value, profile)

    def range_query(self, range_mds, op="sum", measure=0, explain=False):
        """Aggregate ``op`` of one measure over the cells in ``range_mds``.

        ``measure`` may be an index or a measure name.  Uses the
        materialized aggregates of contained directory entries.  MIN and
        MAX additionally run branch-and-bound over the stored extrema
        (the optimization of Ho et al., the paper's reference [6]): a
        partially overlapping subtree whose stored bound cannot improve
        the current best is pruned without being read.

        With ``explain=True`` the answer comes back as an
        :class:`~repro.obs.ExplainResult` carrying a per-level
        :class:`~repro.obs.QueryProfile` whose page/CPU totals reconcile
        exactly with the tracker delta of the call.  Charges are
        bit-identical to the plain call (see :meth:`_answer`).
        """
        check_aggregate(op)
        measure_index = self.schema.measure_index(measure)
        mds_mod.check_query_mds(range_mds, self.hierarchies)
        key = ("range", range_mds.cache_key(), op, measure_index)
        return self._answer(
            "range_query", op, measure_index, key,
            lambda: self._range_query_computed(range_mds, op, measure_index),
            explain,
        )

    def _range_query_computed(self, range_mds, op, measure_index):
        """The actual Fig. 7 traversal behind :meth:`range_query`."""
        keep = mds_mod.record_filter(range_mds, self.hierarchies)
        if op in ("min", "max"):
            sign = 1.0 if op == "max" else -1.0
            return self._extremum_node(
                self._root, range_mds, keep, sign, measure_index, None
            )
        aggregator = StreamingAggregator(op, measure_index)
        self._query_node(self._root, range_mds, keep, aggregator)
        return aggregator.result()

    def _query_node(self, node, range_mds, keep, aggregator, depth=0):
        records = self._visit(node, keep, depth)
        if records is not None:
            for record in records:
                aggregator.add_record(record)
            return
        for child in node.children:
            outcome = self._classify(range_mds, child, depth)
            if outcome == mds_mod.CONTAINED:
                aggregator.add_vector(child.aggregate)
                if self._profile is not None:
                    self._profile.aggregate_hit(depth)
            elif outcome == mds_mod.PARTIAL:
                self._query_node(child, range_mds, keep, aggregator, depth + 1)

    def _extremum_node(self, node, range_mds, keep, sign, measure_index,
                       best, depth=0):
        """Branch-and-bound range-MAX/MIN (reference [6] style)."""
        records = self._visit(node, keep, depth)
        if records is not None:
            for record in records:
                value = record.measures[measure_index]
                if best is None or sign * value > sign * best:
                    best = value
            return best
        candidates = []
        for child in node.children:
            outcome = self._classify(range_mds, child, depth)
            summary = child.aggregate.summaries[measure_index]
            if outcome == mds_mod.DISJOINT or summary.count == 0:
                continue
            bound = summary.max if sign > 0 else summary.min
            contained = outcome == mds_mod.CONTAINED
            candidates.append((sign * bound, contained, bound, child))
        # Most promising bound first maximizes subsequent pruning.
        candidates.sort(key=lambda item: item[0], reverse=True)
        for signed_bound, contained, bound, child in candidates:
            if best is not None and signed_bound <= sign * best:
                break  # no remaining subtree can improve the best
            if contained:
                best = bound
                if self._profile is not None:
                    self._profile.aggregate_hit(depth)
            else:
                best = self._extremum_node(
                    child, range_mds, keep, sign, measure_index, best,
                    depth + 1,
                )
        return best

    def range_count(self, range_mds):
        """Number of records inside ``range_mds``."""
        return self.range_query(range_mds, op="count")

    def range_summary(self, range_mds, measure=0):
        """All supported aggregates of one measure in a single pass.

        Returns a :class:`~repro.cube.aggregation.MeasureSummary` — sum,
        count, min and max together for the price of one traversal (the
        materialized vectors hold all four, Fig. 7's algorithm is
        aggregate-agnostic).
        """
        measure_index = self.schema.measure_index(measure)
        mds_mod.check_query_mds(range_mds, self.hierarchies)
        aggregator = StreamingAggregator("sum", measure_index)
        keep = mds_mod.record_filter(range_mds, self.hierarchies)
        self._query_node(self._root, range_mds, keep, aggregator)
        return aggregator.summary.copy()

    def range_records(self, range_mds):
        """The records inside ``range_mds`` (always descends to leaves)."""
        mds_mod.check_query_mds(range_mds, self.hierarchies)
        result = []
        keep = mds_mod.record_filter(range_mds, self.hierarchies)
        self._collect_records(self._root, range_mds, keep, result)
        return result

    def _collect_records(self, node, range_mds, keep, result, depth=0):
        records = self._visit(node, keep, depth)
        if records is not None:
            result.extend(records)
            return
        for child in node.children:
            outcome = self._classify(range_mds, child, depth, False)
            if outcome != mds_mod.DISJOINT:
                self._collect_records(child, range_mds, keep, result,
                                      depth + 1)

    # ------------------------------------------------------------------
    # group-by (roll-up along one concept hierarchy)
    # ------------------------------------------------------------------

    def group_by(self, dim_index, level, op="sum", measure=0,
                 range_mds=None, explain=False):
        """Aggregate per value at ``level`` of dimension ``dim_index``.

        Returns ``{attr_id: aggregate}`` for every value with at least
        one record (inside ``range_mds``, when given).  One traversal:
        a subtree whose MDS maps to a *single* group and lies fully
        inside the range contributes its materialized aggregate without
        being read; everything else descends.

        With ``explain=True`` returns an
        :class:`~repro.obs.ExplainResult` over the finished group dict.
        """
        groups = self.group_by_aggregators(
            dim_index, level, op, measure, range_mds, explain=explain
        )
        if explain:
            groups, profile = groups
        finished = {
            value: aggregator.result() for value, aggregator in groups.items()
        }
        return ExplainResult(finished, profile) if explain else finished

    def group_by_aggregators(self, dim_index, level, op="sum", measure=0,
                             range_mds=None, explain=False):
        """Like :meth:`group_by` but returns the live aggregators.

        Callers that need to merge groups further (e.g. by label — TPC-D
        market segments repeat under every nation) combine the underlying
        summaries instead of the finished scalars.  Every argument is
        checked before anything is charged or looked up.
        """
        check_aggregate(op)
        measure_index = self.schema.measure_index(measure)
        if not 0 <= dim_index < self.schema.n_dimensions:
            raise QueryError("dimension index %r out of range" % (dim_index,))
        hierarchy = self.hierarchies[dim_index]
        if not 0 <= level < hierarchy.top_level:
            raise QueryError(
                "group-by level %r out of range for dimension %d"
                % (level, dim_index)
            )
        if range_mds is None:
            range_mds = MDS.all_mds(self.hierarchies)
        else:
            mds_mod.check_query_mds(range_mds, self.hierarchies)
        key = (
            "groupby", dim_index, level, op, measure_index,
            range_mds.cache_key(),
        )
        # Hits hand out copies: callers merge groups onwards (e.g. by
        # label) and must not mutate the memoized aggregators.
        return self._answer(
            "group_by", op, measure_index, key,
            lambda: self._group_by_computed(
                dim_index, level, op, measure_index, range_mds
            ),
            explain, copy=_copy_groups,
        )

    def _group_by_computed(self, dim_index, level, op, measure_index,
                           range_mds):
        """The actual one-pass roll-up behind :meth:`group_by_aggregators`."""
        groups = {}
        keep = mds_mod.record_filter(range_mds, self.hierarchies)
        self._group_node(
            self._root, dim_index, level, op, measure_index, range_mds,
            keep, groups,
        )
        return groups

    def _group_node(self, node, dim_index, level, op, measure_index,
                    range_mds, keep, groups, depth=0):
        records = self._visit(node, keep, depth)
        if records is not None:
            for record in records:
                value = record.value_at_level(dim_index, level)
                self._group_for(value, op, measure_index, groups) \
                    .add_record(record)
            return
        hierarchy = self.hierarchies[dim_index]
        for child in node.children:
            single_group = None
            if child.mds.level(dim_index) <= level:
                lifted = child.mds.adapted_set(dim_index, level, hierarchy)
                if len(lifted) == 1:
                    single_group = next(iter(lifted))
            outcome = self._classify(
                range_mds, child, depth, single_group is not None
            )
            if outcome == mds_mod.CONTAINED:
                self._group_for(single_group, op, measure_index, groups) \
                    .add_vector(child.aggregate)
                if self._profile is not None:
                    self._profile.aggregate_hit(depth)
            elif outcome == mds_mod.PARTIAL:
                self._group_node(
                    child, dim_index, level, op, measure_index, range_mds,
                    keep, groups, depth + 1,
                )

    @staticmethod
    def _group_for(value, op, measure_index, groups):
        aggregator = groups.get(value)
        if aggregator is None:
            aggregator = StreamingAggregator(op, measure_index)
            groups[value] = aggregator
        return aggregator

    # ------------------------------------------------------------------
    # deletion (the 'fully dynamic' complement of insert)
    # ------------------------------------------------------------------

    def _remove(self, record):
        """Remove one record (by value); False, having changed nothing,
        when it is not indexed.

        Every node on the deletion path refolds its MDS and aggregate
        vector (:meth:`_fold`) bottom-up.  Empty nodes are unlinked,
        underflowing ones condensed (their contents reinserted, as in
        the R-tree), shrunk supernodes give blocks back, and a root
        directory left with a single child is collapsed.
        """
        orphans = []
        if not self._delete_from(self._root, record, orphans):
            return False
        self._n_records -= 1
        self._collapse_root()
        for orphan in orphans:
            self._place(orphan)
        return True

    def _collapse_root(self):
        root = self._root
        if not root.is_leaf and len(root.children) == 1:
            self._root = root.children[0]
            self._free_node(root.page_id, root.n_blocks)

    def _delete_from(self, node, record, orphans):
        self.tracker.access_node(node.page_id, node.n_blocks)
        if node.is_leaf:
            try:
                node.records.remove(record)
            except ValueError:
                return False
        else:
            for child in node.children:
                self.tracker.cpu(self.schema.n_dimensions)
                if (mds_mod.covers_record(child.mds, record, self.hierarchies)
                        and self._delete_from(child, record, orphans)):
                    self._handle_underflow(node, child, orphans)
                    break
            else:
                return False
        self._fold(node)
        self.tracker.cpu(node.entry_count * self.schema.n_dimensions)
        self._charge_node_write(node.page_id)
        return True

    def _handle_underflow(self, parent, child, orphans):
        """Unlink empty/underfull children; shrink shrunken supernodes."""
        if child.entry_count == 0:
            parent.children.remove(child)
            self._free_node(child.page_id, child.n_blocks)
            return
        if child.is_supernode:
            child.n_blocks = min(child.n_blocks, self._blocks_needed(child))
            return
        min_fanout = (
            self.config.min_leaf_fanout() if child.is_leaf
            else self.config.min_dir_fanout()
        )
        if child.entry_count < min_fanout and len(parent.children) > 1:
            parent.children.remove(child)
            self._collect_orphans(child, orphans)

    def _collect_orphans(self, node, orphans):
        """Gather every record under ``node`` and free its pages."""
        stack = [node]
        while stack:
            current = stack.pop()
            self.tracker.access_node(current.page_id, current.n_blocks)
            self._free_node(current.page_id, current.n_blocks)
            if current.is_leaf:
                orphans.extend(current.records)
            else:
                stack.extend(current.children)

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Audit the whole tree; raise :class:`TreeError` on any violation.

        Checks per node: MDS levels within bounds and dominated by the
        parent's, exact coverage *and* minimality of the MDS, aggregate
        consistency with the subtree, capacity respected, and supernode
        bookkeeping.  Returns the total number of records seen.
        """
        total = self._check_node(self._root, parent_levels=None)
        if total != self._n_records:
            raise TreeError(
                "record count mismatch: tree says %d, traversal found %d"
                % (self._n_records, total)
            )
        return total

    def _check_node(self, node, parent_levels):
        mds = node.mds
        for dim in range(mds.n_dimensions):
            level = mds.level(dim)
            top = self.hierarchies[dim].top_level
            if not 0 <= level <= top:
                raise TreeError("level %d out of range in dim %d" % (level, dim))
            if parent_levels is not None and level > parent_levels[dim]:
                raise TreeError(
                    "child level %d exceeds parent level %d in dim %d"
                    % (level, parent_levels[dim], dim)
                )
        if self._blocks_needed(node) > node.n_blocks:
            raise TreeError(
                "node overfull: %d entries in %d block(s)"
                % (node.entry_count, node.n_blocks)
            )
        if node.n_blocks < 1:
            raise TreeError("node with %d blocks" % node.n_blocks)

        expected = AggregateVector(self.schema.n_measures)
        total = 0
        observed_sets = [set() for _ in range(mds.n_dimensions)]
        if node.is_leaf:
            for record in node.records:
                expected.add_record(record)
                total += 1
                for dim in range(mds.n_dimensions):
                    level = mds.level(dim)
                    hierarchy = self.hierarchies[dim]
                    if level >= hierarchy.top_level:
                        observed_sets[dim].add(hierarchy.all_id)
                    else:
                        observed_sets[dim].add(
                            record.value_at_level(dim, level)
                        )
        else:
            if not node.children:
                raise TreeError("directory node without children")
            for child in node.children:
                total += self._check_node(child, mds.levels)
                expected.add_vector(child.aggregate)
                for dim in range(mds.n_dimensions):
                    observed_sets[dim].update(
                        self._values_at(child, dim, mds.level(dim))
                    )
        if node.is_leaf and not node.records:
            # An empty tree keeps the initial (ALL, ..., ALL) MDS; there is
            # nothing for minimality to bite on.
            return 0
        for dim in range(mds.n_dimensions):
            if observed_sets[dim] != mds.value_set(dim):
                raise TreeError(
                    "MDS of dim %d not minimal/covering: stored %r, actual %r"
                    % (dim, sorted(mds.value_set(dim)),
                       sorted(observed_sets[dim]))
                )
        if node.aggregate != expected:
            raise TreeError(
                "aggregate mismatch: stored %r, actual %r"
                % (node.aggregate, expected)
            )
        return total
