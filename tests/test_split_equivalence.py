"""Differential tests: the insert kernels against plain reference loops.

:func:`repro.core.split.choose_seeds` stops at the first pair that reaches
an upper bound on the cover size and charges the all-pairs comparison in
closed form; :func:`repro.core.split.hierarchy_split` keeps every
entry's split-dimension enlargement of each group as a running count,
picks with one scan over those counts and charges the round from a
running sum; :func:`repro.core.split._prefer_group_a` takes its
tie-breaks from per-dimension counts instead of grown group copies;
``DCTree._choose_subtree`` looks for a covering child before it weighs
growth.  Each must choose exactly what the plain loops below choose and
charge exactly what they charge — the reference loops compare every
pair and every candidate, grow copies of the groups to break ties,
price each comparison with its own ``operation_cost`` and key every
child on ``(growth, volume, entry count)``.

The pinned builds close the loop end to end: the structure digests and
tracker counters were recorded with the all-pairs planner and the
per-dimension choose-subtree loop, and must not move.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CubeSchema, Dimension, Measure, TPCDGenerator, make_tpcd_schema
from repro.config import DCTreeConfig
from repro.cube.aggregation import AggregateVector
from repro.core import mds as mds_mod
from repro.core import split as split_mod
from repro.core.debug import structure_digest
from repro.core.mds import MDS
from repro.core.node import DCDataNode, DCDirNode
from repro.core.tree import DCTree

# ----------------------------------------------------------------------
# reference loops
# ----------------------------------------------------------------------


def reference_cost(m, n):
    """One unit per dimension plus the smaller cardinality per dimension."""
    return sum(
        1 + min(len(m.value_set(dim)), len(n.value_set(dim)))
        for dim in range(m.n_dimensions)
    )


def reference_choose_seeds(mdss, hierarchies):
    """Every pair, first strict maximum of the summed union sizes."""
    best = None
    best_size = -1
    cpu_units = 0
    n = len(mdss)
    for i in range(n):
        for j in range(i + 1, n):
            size = 0
            for dim in range(mdss[i].n_dimensions):
                size += mds_mod.union_cardinality(
                    mdss[i], mdss[j], dim, hierarchies
                )
            cpu_units += reference_cost(mdss[i], mdss[j])
            if size > best_size:
                best_size = size
                best = (i, j)
    return best[0], best[1], cpu_units


def reference_hierarchy_split(mdss, split_dim, hierarchies, min_group=2):
    """Fig. 6 with a pick that prices and compares every candidate."""
    seed_a, seed_b, cpu_units = reference_choose_seeds(mdss, hierarchies)
    group_a, group_b = [seed_a], [seed_b]
    mds_a = mdss[seed_a].copy()
    mds_b = mdss[seed_b].copy()
    remaining = [i for i in range(len(mdss)) if i not in (seed_a, seed_b)]
    while remaining:
        if len(group_a) + len(remaining) <= min_group:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) <= min_group:
            group_b.extend(remaining)
            break
        chosen_pos = None
        chosen_diff = -1
        for pos, idx in enumerate(remaining):
            values = mdss[idx].value_set(split_dim)
            enlargement_a = len(values - mds_a.value_set(split_dim))
            enlargement_b = len(values - mds_b.value_set(split_dim))
            cpu_units += 2 * len(values)
            diff = abs(enlargement_a - enlargement_b)
            if diff > chosen_diff:
                chosen_diff = diff
                chosen_pos = pos
        idx = remaining.pop(chosen_pos)
        target_a = reference_prefer_group_a(
            mds_a, mds_b, mdss[idx], group_a, group_b, split_dim, hierarchies
        )
        cpu_units += reference_cost(mds_a, mds_b)
        if target_a:
            group_a.append(idx)
            mds_a.add_mds(mdss[idx], hierarchies)
        else:
            group_b.append(idx)
            mds_b.add_mds(mdss[idx], hierarchies)
    return (group_a, group_b), cpu_units


def reference_prefer_group_a(mds_a, mds_b, candidate, group_a, group_b,
                             split_dim, hierarchies):
    """Fig. 6's group criterion on grown copies of both groups."""
    shared_a = len(
        candidate.value_set(split_dim) & mds_a.value_set(split_dim)
    )
    shared_b = len(
        candidate.value_set(split_dim) & mds_b.value_set(split_dim)
    )
    if shared_a != shared_b:
        return shared_a > shared_b

    enlarged_a = mds_a.copy()
    enlarged_a.add_mds(candidate, hierarchies)
    enlarged_b = mds_b.copy()
    enlarged_b.add_mds(candidate, hierarchies)

    overlap_if_a = mds_mod.overlap(enlarged_a, mds_b, hierarchies)
    overlap_if_b = mds_mod.overlap(mds_a, enlarged_b, hierarchies)
    if overlap_if_a != overlap_if_b:
        return overlap_if_a < overlap_if_b

    extension_if_a = enlarged_a.size() + mds_b.size()
    extension_if_b = mds_a.size() + enlarged_b.size()
    if extension_if_a != extension_if_b:
        return extension_if_a < extension_if_b

    volume_if_a = enlarged_a.volume() + mds_b.volume()
    volume_if_b = mds_a.volume() + enlarged_b.volume()
    if volume_if_a != volume_if_b:
        return volume_if_a < volume_if_b

    return len(group_a) <= len(group_b)


def reference_choose_subtree(children, record, hierarchies):
    """Fig. 4's choice: the first child with the least ``(growth of its
    MDS size, grown volume, entry count)``."""
    best_key = best_position = None
    for position, child in enumerate(children):
        growth = 0
        volume = 1
        for dim, hierarchy in enumerate(hierarchies):
            level = child.mds.level(dim)
            if level >= hierarchy.top_level:
                value = hierarchy.all_id
            else:
                value = record.value_at_level(dim, level)
            values = child.mds.value_set(dim)
            if value in values:
                volume *= len(values)
            else:
                growth += 1
                volume *= len(values) + 1
        key = (growth, volume, child.entry_count)
        if best_key is None or key < best_key:
            best_key = key
            best_position = position
    return best_position


# ----------------------------------------------------------------------
# common-level MDS lists
# ----------------------------------------------------------------------

#: Entries share their levels, so no concept hierarchy is ever consulted.
NO_HIERARCHIES = (None,) * 4

ALL = -1


@st.composite
def leaf_style(draw):
    """Singleton sets, as a leaf's records adapted to its levels.

    Dimensions at ALL hold the same value in every entry; the others draw
    from alphabets small enough that often no pair differs everywhere, so
    the bound-based early exit cannot fire and the scan runs to the end.
    """
    n_dims = draw(st.integers(1, 4))
    at_all = draw(st.lists(st.booleans(), min_size=n_dims, max_size=n_dims))
    widths = draw(st.lists(st.integers(1, 4), min_size=n_dims,
                           max_size=n_dims))
    n = draw(st.integers(2, 24))
    rows = []
    for _ in range(n):
        rows.append([
            {ALL} if at_all[dim] else {draw(st.integers(0, widths[dim] - 1))}
            for dim in range(n_dims)
        ])
    return [MDS(row, [0] * n_dims) for row in rows]


@st.composite
def directory_style(draw):
    """Multi-value sets, as a directory node's child entries."""
    n_dims = draw(st.integers(1, 4))
    n = draw(st.integers(2, 16))
    sets = st.sets(st.integers(0, 7), min_size=1, max_size=5)
    return [
        MDS([draw(sets) for _ in range(n_dims)], [1] * n_dims)
        for _ in range(n)
    ]


@st.composite
def with_duplicates(draw):
    """Entries drawn with repetition from a small pool: equal entries and
    tied pair sizes everywhere."""
    pool = draw(st.one_of(leaf_style(), directory_style()))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                          max_size=20))
    return [pool[i].copy() for i in picks]


MDS_LISTS = st.one_of(leaf_style(), directory_style(), with_duplicates())


class TestAgainstReference:
    @given(mdss=MDS_LISTS)
    def test_choose_seeds(self, mdss):
        assert split_mod.choose_seeds(mdss, NO_HIERARCHIES) == \
            reference_choose_seeds(mdss, NO_HIERARCHIES)

    @given(mdss=MDS_LISTS, data=st.data())
    def test_hierarchy_split(self, mdss, data):
        split_dim = data.draw(st.integers(0, mdss[0].n_dimensions - 1))
        min_group = data.draw(st.integers(2, max(2, len(mdss) // 2)))
        got = split_mod.hierarchy_split(
            [m.copy() for m in mdss], split_dim, NO_HIERARCHIES, min_group
        )
        want = reference_hierarchy_split(
            [m.copy() for m in mdss], split_dim, NO_HIERARCHIES, min_group
        )
        assert got == want

    @given(mdss=MDS_LISTS)
    def test_operation_cost(self, mdss):
        for m in mdss:
            assert mds_mod.operation_cost(m, mdss[0]) == \
                reference_cost(m, mdss[0])

    def test_no_pair_reaches_the_bound(self):
        # Every pair shares a value in some dimension, so the best cover
        # (5) stays below the bound (6) and every pair is compared.
        rows = [("a", "x", "p"), ("a", "y", "q"), ("b", "x", "q"),
                ("b", "y", "p")]
        mdss = [MDS([{v} for v in row], [0, 0, 0]) for row in rows]
        got = split_mod.choose_seeds(mdss, NO_HIERARCHIES)
        assert got == reference_choose_seeds(mdss, NO_HIERARCHIES)
        assert got[:2] == (0, 1)

    def test_bound_reached_by_a_later_pair(self):
        rows = [("a", "x"), ("a", "y"), ("b", "x"), ("c", "z"), ("d", "w")]
        mdss = [MDS([{v} for v in row], [0, 0]) for row in rows]
        got = split_mod.choose_seeds(mdss, NO_HIERARCHIES)
        assert got == reference_choose_seeds(mdss, NO_HIERARCHIES)
        assert got[:2] == (0, 3)


# ----------------------------------------------------------------------
# choose-subtree (Fig. 4)
# ----------------------------------------------------------------------


def _choice_schema():
    """Three dimensions Leaf < Group < ALL, three groups of three leaves
    each, every path interned up front (examples only read it)."""
    schema = CubeSchema(
        dimensions=[Dimension("D%d" % dim, ("Leaf", "Group"))
                    for dim in range(3)],
        measures=[Measure("M")],
    )
    for dimension in schema.dimensions:
        for group in range(3):
            for leaf in range(3):
                dimension.hierarchy.insert_path(("g%d" % group, "l%d" % leaf))
    return schema


CHOICE_SCHEMA = _choice_schema()
CHOICE_HIERARCHIES = tuple(d.hierarchy for d in CHOICE_SCHEMA.dimensions)


def _choice_record(cells):
    """A record from one ``(group, leaf)`` index pair per dimension."""
    return CHOICE_SCHEMA.record(
        tuple(("g%d" % group, "l%d" % leaf) for group, leaf in cells), (1.0,)
    )


def _child(mds, n_entries, page_id=0):
    """A data node standing in for a directory entry (only its MDS and
    entry count matter to the choice)."""
    return DCDataNode(mds, AggregateVector(1), page_id,
                      records=[None] * n_entries)


@st.composite
def choice_cases(draw):
    """A record and the children of one directory node.

    Children sit at mixed levels per dimension and are drawn with
    repetition from a small pool, so volumes and entry counts tie; the
    pool gains a child that covers the record only sometimes, and the
    random ones rarely do.
    """
    cell = st.tuples(st.integers(0, 2), st.integers(0, 2))
    record = _choice_record(draw(st.lists(cell, min_size=3, max_size=3)))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        levels = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        sets = []
        for hierarchy, level in zip(CHOICE_HIERARCHIES, levels):
            values = (hierarchy.values_at_level(level)
                      if level < hierarchy.top_level else (hierarchy.all_id,))
            sets.append(set(draw(st.lists(st.sampled_from(values),
                                          min_size=1, max_size=3))))
        pool.append(MDS(sets, levels))
    if draw(st.booleans()):
        covering = pool[0].copy()
        covering.add_record(record, CHOICE_HIERARCHIES)
        pool.append(covering)
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 3)),
        min_size=1, max_size=12,
    ))
    children = [_child(pool[i].copy(), n_entries, page_id)
                for page_id, (i, n_entries) in enumerate(picks)]
    return record, children


def _choose(children, record):
    """``DCTree._choose_subtree`` over ``children``; returns the position
    and the CPU units charged."""
    tree = DCTree(CHOICE_SCHEMA)
    node = DCDirNode(MDS.all_mds(CHOICE_HIERARCHIES), AggregateVector(1), 0,
                     children=children)
    before = tree.tracker.cpu_units
    child, position = tree._choose_subtree(node, record)
    assert child is children[position]
    return position, tree.tracker.cpu_units - before


class TestChooseSubtree:
    @given(case=choice_cases())
    def test_matches_reference(self, case):
        record, children = case
        assert _choose(children, record) == (
            reference_choose_subtree(children, record, CHOICE_HIERARCHIES),
            len(children) * CHOICE_SCHEMA.n_dimensions,
        )

    def test_covering_children_tie_on_volume_then_entries(self):
        record = _choice_record([(0, 0), (1, 1), (2, 2)])
        at = record.value_at_level
        all_ids = [h.all_id for h in CHOICE_HIERARCHIES]
        # Every child covers the record, at mixed levels; volumes 4, 2,
        # 2, 2 and entry counts 1, 3, 2, 2: the first of the last two
        # wins.
        children = [
            _child(MDS([{at(0, 0), 99}, {at(1, 1), 98}, {all_ids[2]}],
                       [0, 1, 2]), 1),
            _child(MDS([{at(0, 1)}, {at(1, 0), 98}, {at(2, 1)}],
                       [1, 0, 1]), 3),
            _child(MDS([{at(0, 1)}, {at(1, 1)}, {at(2, 0), 97}],
                       [1, 1, 0]), 2),
            _child(MDS([{at(0, 0), 96}, {at(1, 1)}, {at(2, 1)}],
                       [0, 1, 1]), 2),
        ]
        position, _cpu = _choose(children, record)
        assert position == 2
        assert position == reference_choose_subtree(
            children, record, CHOICE_HIERARCHIES)

    def test_no_covering_child_ties_on_volume_then_entries(self):
        record = _choice_record([(0, 0), (1, 1), (2, 2)])
        at = record.value_at_level
        other = _choice_record([(1, 2), (2, 0), (0, 1)]).value_at_level
        # Growth 1 everywhere; grown volumes 4, 2, 2, 2; entry counts
        # 1, 3, 2, 2: the first of the last two wins.
        children = [
            _child(MDS([{other(0, 0)}, {at(1, 1), other(1, 1)},
                        {at(2, 1)}], [0, 1, 1]), 1),
            _child(MDS([{at(0, 1)}, {other(1, 0)}, {at(2, 1)}],
                       [1, 0, 1]), 3),
            _child(MDS([{at(0, 1)}, {at(1, 1)}, {other(2, 0)}],
                       [1, 1, 0]), 2),
            _child(MDS([{other(0, 1)}, {at(1, 0)}, {at(2, 1)}],
                       [1, 0, 1]), 2),
        ]
        position, _cpu = _choose(children, record)
        assert position == 2
        assert position == reference_choose_subtree(
            children, record, CHOICE_HIERARCHIES)


# ----------------------------------------------------------------------
# pinned builds
# ----------------------------------------------------------------------

#: (records, batch size, config overrides) -> (structure digest,
#: (node accesses, buffer hits, buffer misses, page writes, CPU units)),
#: recorded with the all-pairs split planner.
PINNED = {
    (8192, 64, ()): (
        "75d72665704ab15f42c7646ef7eec8ef797eaa2663765e39fd98c9385a6b5bed",
        (24373, 33555, 3130, 5713, 5827020),
    ),
    (2048, 1, (("leaf_capacity", 8), ("dir_capacity", 4))): (
        "3798e21cd2ac3370cda6ad7953014a45c82814948bb5c70011e3175e43fbd562",
        (9205, 20037, 5694, 9134, 684622),
    ),
    (2048, 7, (("leaf_capacity", 8), ("dir_capacity", 4))): (
        "3798e21cd2ac3370cda6ad7953014a45c82814948bb5c70011e3175e43fbd562",
        (9205, 20037, 5694, 4382, 627916),
    ),
}


@pytest.mark.parametrize("n_records,batch,overrides", sorted(PINNED))
def test_pinned_tpcd_build(n_records, batch, overrides):
    schema = make_tpcd_schema()
    records = TPCDGenerator(schema, seed=0, scale_records=n_records).generate(
        n_records
    )
    tree = DCTree(schema, DCTreeConfig(**dict(overrides)))
    for start in range(0, n_records, batch):
        if batch == 1:
            tree.insert(records[start])
        else:
            tree.insert_batch(records[start:start + batch])
    stats = tree.tracker.snapshot()
    digest, counters = PINNED[(n_records, batch, overrides)]
    assert structure_digest(tree) == digest
    assert (stats.node_accesses, stats.buffer_hits, stats.buffer_misses,
            stats.page_writes, stats.cpu_units) == counters
    tree.check_invariants()
