"""Query EXPLAIN/profiling: where one query's cost actually went.

A profiled query records, per tree level (root = depth 0):

* node accesses, pages touched and page I/Os (buffer misses) charged at
  that depth,
* CPU units charged at that depth,
* DISJOINT / PARTIAL / CONTAINED classifications of directory entries,
* how many entries were answered from their materialized aggregate
  vector (*pruned*) versus descended into, and
* data records scanned at the leaves,

plus the result-cache outcome and the query's simulated vs. wall time.
The per-level page/CPU totals reconcile *exactly* with the
:class:`~repro.storage.tracker.StorageTracker` delta of the query: the
:class:`ProfileSession` attributes every tracker charge made during the
traversal to the depth that caused it, marking the counters as it goes,
so nothing can be double-counted or lost (``QueryProfile.reconciles``
asserts this and the test suite verifies it).

Profiling is scoped: every query answered inside ``with
tree.explain() as profiles:`` (or ``Warehouse.explain()``, or
``python -m repro explain``) appends its profile to ``profiles``.  It
is observational only: on a result-cache hit the EXPLAIN path
*recomputes* the traversal instead of replaying the stored trace — by
the cache's own invariant the charges are identical (same tree version
⇒ same traversal), so deterministic counters stay bit-identical inside
and outside a scope.
"""

from __future__ import annotations

_OUTCOME_NAMES = None


def _outcome_names():
    """{mds outcome constant: name}; imported lazily (cycle avoidance)."""
    global _OUTCOME_NAMES
    if _OUTCOME_NAMES is None:
        from ..core import mds as mds_mod

        _OUTCOME_NAMES = {
            mds_mod.DISJOINT: "disjoint",
            mds_mod.PARTIAL: "partial",
            mds_mod.CONTAINED: "contained",
        }
    return _OUTCOME_NAMES


class LevelProfile:
    """Cost and classification tallies of one tree depth."""

    __slots__ = ("depth", "node_accesses", "pages_touched", "page_ios",
                 "cpu_units", "disjoint", "partial", "contained",
                 "aggregate_hits", "records_scanned")

    def __init__(self, depth):
        self.depth = depth
        self.node_accesses = 0
        self.pages_touched = 0
        self.page_ios = 0
        self.cpu_units = 0
        self.disjoint = 0
        self.partial = 0
        self.contained = 0
        self.aggregate_hits = 0
        self.records_scanned = 0

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class QueryProfile:
    """Everything EXPLAIN knows about one executed query."""

    def __init__(self, kind, op, measure_index, tree_version,
                 description=None):
        self.kind = kind
        self.op = op
        self.measure_index = measure_index
        self.tree_version = tree_version
        self.description = description
        self.cache_outcome = None
        self.levels = []
        self.before = None
        self.after = None
        self.wall_seconds = 0.0

    # -- totals ----------------------------------------------------------

    @property
    def delta(self):
        """The tracker delta of the whole query (an ``AccessStats``)."""
        return self.after - self.before

    def _level_total(self, attribute):
        return sum(getattr(level, attribute) for level in self.levels)

    @property
    def total_node_accesses(self):
        return self._level_total("node_accesses")

    @property
    def total_page_ios(self):
        return self._level_total("page_ios")

    @property
    def total_cpu_units(self):
        return self._level_total("cpu_units")

    def simulated_seconds(self):
        """Simulated elapsed time of the query's charges."""
        return self.delta.simulated_seconds()

    def reconciles(self):
        """Do the per-level totals equal the tracker delta exactly?"""
        delta = self.delta
        return (
            self.total_node_accesses == delta.node_accesses
            and self.total_page_ios == delta.page_ios + 0
            and self.total_cpu_units == delta.cpu_units
        )

    # -- export ----------------------------------------------------------

    def to_dict(self):
        delta = self.delta
        return {
            "kind": self.kind,
            "op": self.op,
            "measure": self.measure_index,
            "description": self.description,
            "tree_version": self.tree_version,
            "cache": self.cache_outcome,
            "levels": [level.to_dict() for level in self.levels],
            "totals": {
                "node_accesses": delta.node_accesses,
                "buffer_hits": delta.buffer_hits,
                "buffer_misses": delta.buffer_misses,
                "page_writes": delta.page_writes,
                "page_ios": delta.page_ios,
                "cpu_units": delta.cpu_units,
            },
            "reconciles": self.reconciles(),
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds(),
        }

    def render(self):
        """Human-readable EXPLAIN output (the CLI's format)."""
        delta = self.delta
        lines = []
        header = "EXPLAIN %s op=%s measure=%d (tree v%d)" % (
            self.kind, self.op, self.measure_index, self.tree_version
        )
        if self.description:
            header += " — %s" % self.description
        lines.append(header)
        lines.append("result cache: %s" % self.cache_outcome)
        if self.levels:
            lines.append(
                "depth  nodes  pages  page-ios   cpu-units  disjoint  "
                "partial  contained  agg-used  records"
            )
            for level in self.levels:
                lines.append(
                    "%5d  %5d  %5d  %8d  %10d  %8d  %7d  %9d  %8d  %7d"
                    % (level.depth, level.node_accesses,
                       level.pages_touched, level.page_ios,
                       level.cpu_units, level.disjoint, level.partial,
                       level.contained, level.aggregate_hits,
                       level.records_scanned)
                )
        else:
            lines.append("(no traversal recorded)")
        lines.append(
            "totals: %d node accesses, %d page I/Os (%d hits, %d misses), "
            "%d cpu units — reconcile with tracker delta: %s"
            % (delta.node_accesses, delta.page_ios, delta.buffer_hits,
               delta.buffer_misses, delta.cpu_units,
               "OK" if self.reconciles() else "MISMATCH")
        )
        lines.append(
            "simulated %.6f s, wall %.6f s"
            % (self.simulated_seconds(), self.wall_seconds)
        )
        return "\n".join(lines)

    def __repr__(self):
        return "QueryProfile(%s, cache=%s, levels=%d)" % (
            self.kind, self.cache_outcome, len(self.levels)
        )


class ProfileSession:
    """Live collector the tree's traversals feed during one query.

    The session keeps *marks* of the tracker's CPU and I/O counters;
    each attribution point moves everything charged since the last mark
    onto one depth.  Because the traversal is single-threaded and
    depth-first, the marks partition the query's charges exactly —
    per-level sums equal the tracker delta by construction.
    """

    __slots__ = ("profile", "tracker", "_levels", "_cpu_mark", "_io_mark")

    def __init__(self, profile, tracker):
        self.profile = profile
        self.tracker = tracker
        self._levels = {}
        self._cpu_mark = tracker.cpu_units
        self._io_mark = tracker.buffer.misses + tracker.page_writes

    def _level(self, depth):
        level = self._levels.get(depth)
        if level is None:
            level = LevelProfile(depth)
            self._levels[depth] = level
        return level

    def visit(self, depth, n_blocks):
        """Record a node access (call right after ``access_node``)."""
        level = self._level(depth)
        level.node_accesses += 1
        level.pages_touched += n_blocks
        ios = self.tracker.buffer.misses + self.tracker.page_writes
        level.page_ios += ios - self._io_mark
        self._io_mark = ios

    def charge_cpu(self, depth):
        """Attribute CPU charged since the last mark to ``depth``."""
        cpu = self.tracker.cpu_units
        self._level(depth).cpu_units += cpu - self._cpu_mark
        self._cpu_mark = cpu

    def classified(self, depth, outcome):
        """Record one entry classification at ``depth``."""
        setattr(
            self._level(depth),
            _outcome_names()[outcome],
            getattr(self._level(depth), _outcome_names()[outcome]) + 1,
        )

    def aggregate_hit(self, depth):
        """A contained entry answered from its materialized aggregate."""
        self._level(depth).aggregate_hits += 1

    def scanned(self, depth, n_records):
        self._level(depth).records_scanned += n_records

    def finish(self):
        """Flush residual charges (attributed to the root's depth)."""
        cpu = self.tracker.cpu_units
        ios = self.tracker.buffer.misses + self.tracker.page_writes
        if cpu != self._cpu_mark or ios != self._io_mark:
            level = self._level(0)
            level.cpu_units += cpu - self._cpu_mark
            level.page_ios += ios - self._io_mark
            self._cpu_mark = cpu
            self._io_mark = ios
        self.profile.levels = [
            self._levels[depth] for depth in sorted(self._levels)
        ]

