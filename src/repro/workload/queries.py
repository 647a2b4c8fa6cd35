"""Range-query workload generation (§5.2 of the paper).

A range query is specified by a *range MDS*: per dimension, a randomly
chosen concept-hierarchy level (any functional attribute — Region, Nation,
Market Segment or Customer for the Customer dimension) and a random subset
of the values existing at that level, capped by the selectivity ("a
selectivity of 25 % involves a range that contains up to 25 % of all
attribute values of the chosen level in each dimension").

For the X-tree the MDS is converted into a *range MBR* through the total
ordering of the assigned IDs (Fig. 10): the chosen level's flat dimension
is constrained to ``[min(ids), max(ids)]``, the remaining flat dimensions
of the same cube dimension stay unconstrained.  The conversion is lossy
(an interval covers IDs that are not in the set), so every query also
carries the exact predicate the X-tree applies at its data nodes.
"""

from __future__ import annotations

import random

from ..core.mds import MDS, check_query_mds, covers_record
from ..errors import QueryError
from ..xtree.mbr import MBR


class RangeQuery:
    """One executable range query in both MDS and MBR form."""

    def __init__(self, schema, mds):
        self._hierarchies = tuple(d.hierarchy for d in schema.dimensions)
        check_query_mds(mds, self._hierarchies)
        self.schema = schema
        self.mds = mds

    def to_mbr(self):
        """The query as a range MBR over the flattened space (§5.2).

        Unconstrained flat dimensions span the full 32-bit ID range; the
        chosen level of each cube dimension spans the ID interval of its
        value set.
        """
        n_flat = self.schema.n_flat_attributes
        lows = [0] * n_flat
        highs = [0xFFFFFFFF] * n_flat
        for dim in range(self.schema.n_dimensions):
            level = self.mds.level(dim)
            top = self._hierarchies[dim].top_level
            if level >= top:
                continue
            values = self.mds.value_set(dim)
            position = self.schema.flat_position(dim, level)
            lows[position] = min(values)
            highs[position] = max(values)
        return MBR(lows, highs)

    def predicate(self):
        """Exact membership test for one record (leaf-level filtering)."""
        mds = self.mds
        hierarchies = self._hierarchies

        def matches(record):
            return covers_record(mds, record, hierarchies)

        return matches

    def matches(self, record):
        """Exact membership test (convenience form)."""
        return covers_record(self.mds, record, self._hierarchies)

    def describe(self):
        """Human-readable rendering of the query."""
        parts = []
        for dim_index, dimension in enumerate(self.schema.dimensions):
            level = self.mds.level(dim_index)
            hierarchy = dimension.hierarchy
            if level >= hierarchy.top_level:
                parts.append("%s=ALL" % dimension.name)
                continue
            labels = sorted(
                hierarchy.label(v) for v in self.mds.value_set(dim_index)
            )
            shown = ", ".join(labels[:4])
            if len(labels) > 4:
                shown += ", ... (%d values)" % len(labels)
            parts.append(
                "%s.%s in {%s}"
                % (dimension.name, hierarchy.level_name(level), shown)
            )
        return " AND ".join(parts)

    def __repr__(self):
        return "RangeQuery(%s)" % self.describe()


class QueryGenerator:
    """Random range queries at a given selectivity (§5.2).

    Parameters
    ----------
    schema:
        The (already populated) cube schema; value sets are drawn from the
        values that exist in its concept hierarchies.
    selectivity:
        Per-dimension fraction of the chosen level's values that the query
        may contain, e.g. ``0.05`` for the paper's 5 % experiments.
    seed:
        RNG seed for reproducible workloads.
    constrain_dims:
        ``None`` (default) constrains every dimension, as §5.2 of the
        paper does.  An integer ``k`` picks ``k`` random dimensions per
        query and leaves the others at ALL — the drill-down shape of
        typical interactive OLAP sessions.
    """

    def __init__(self, schema, selectivity, seed=0, constrain_dims=None):
        if not 0.0 < selectivity <= 1.0:
            raise QueryError(
                "selectivity must be in (0, 1], got %r" % (selectivity,)
            )
        if constrain_dims is not None and not (
            1 <= constrain_dims <= schema.n_dimensions
        ):
            raise QueryError(
                "constrain_dims must be between 1 and %d"
                % schema.n_dimensions
            )
        self.schema = schema
        self.selectivity = selectivity
        self.constrain_dims = constrain_dims
        self._rng = random.Random(seed)
        self._hierarchies = tuple(d.hierarchy for d in schema.dimensions)

    def query(self):
        """One random range query."""
        if self.constrain_dims is None:
            chosen_dims = None
        else:
            chosen_dims = set(
                self._rng.sample(
                    range(self.schema.n_dimensions), self.constrain_dims
                )
            )
        sets = []
        levels = []
        for dim, hierarchy in enumerate(self._hierarchies):
            if chosen_dims is not None and dim not in chosen_dims:
                levels.append(hierarchy.top_level)
                sets.append({hierarchy.all_id})
                continue
            level = self._rng.randrange(0, hierarchy.top_level)
            candidates = hierarchy.values_at_level(level)
            if not candidates:
                # The hierarchy has no values at this level yet (empty
                # warehouse); fall back to ALL.
                levels.append(hierarchy.top_level)
                sets.append({hierarchy.all_id})
                continue
            cap = max(1, int(self.selectivity * len(candidates)))
            chosen = self._rng.sample(candidates, min(cap, len(candidates)))
            levels.append(level)
            sets.append(set(chosen))
        return RangeQuery(self.schema, MDS(sets, levels))

    def queries(self, count):
        """Generate ``count`` random queries lazily."""
        for _ in range(count):
            yield self.query()


def query_from_labels(schema, constraints):
    """Build a :class:`RangeQuery` from human-readable constraints.

    ``constraints`` maps a dimension name to ``(level_name, labels)``;
    dimensions not mentioned are unconstrained (ALL).  A label selects
    *every* hierarchy node carrying it at that level (e.g. the market
    segment ``"BUILDING"`` exists once per nation, Fig. 9 — naming it
    selects all of them, which is the natural OLAP reading).

    >>> query_from_labels(schema, {"Customer": ("Region", ["EUROPE"]),
    ...                            "Time": ("Year", ["1996", "1997"])})
    """
    known = {dimension.name for dimension in schema.dimensions}
    unknown = set(constraints) - known
    if unknown:
        raise QueryError(
            "unknown dimension(s) %s (schema has: %s)"
            % (sorted(unknown), ", ".join(sorted(known)))
        )
    sets = []
    levels = []
    for dim_index, dimension in enumerate(schema.dimensions):
        hierarchy = dimension.hierarchy
        if dimension.name not in constraints:
            levels.append(hierarchy.top_level)
            sets.append({hierarchy.all_id})
            continue
        level_name, labels = constraints[dimension.name]
        try:
            level = dimension.level_names.index(level_name)
        except ValueError:
            raise QueryError(
                "dimension %r has no level %r (levels: %s)"
                % (dimension.name, level_name, ", ".join(dimension.level_names))
            ) from None
        wanted = set(labels)
        matching = {
            value
            for value in hierarchy.values_at_level(level)
            if hierarchy.label(value) in wanted
        }
        found_labels = {hierarchy.label(v) for v in matching}
        missing = wanted - found_labels
        if missing:
            raise QueryError(
                "no values labelled %s at level %r of dimension %r"
                % (sorted(missing), level_name, dimension.name)
            )
        levels.append(level)
        sets.append(matching)
    return RangeQuery(schema, MDS(sets, levels))
