"""Differential tests: the split planner against all-pairs reference loops.

:func:`repro.core.split.choose_seeds` stops at the first pair that reaches
an upper bound on the cover size and charges the all-pairs comparison in
closed form; :func:`repro.core.split.hierarchy_split` stops each pick at
the first entry whose enlargement difference equals the largest
remaining cardinality and charges the round from a running sum.  Both
must choose exactly what the plain loops below choose and charge exactly
what they charge — the reference loops compare every pair and every
candidate and price each comparison with its own ``operation_cost``.

The pinned builds close the loop end to end: the structure digests and
tracker counters were recorded with the all-pairs planner and the
per-dimension choose-subtree loop, and must not move.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import TPCDGenerator, make_tpcd_schema
from repro.config import DCTreeConfig
from repro.core import mds as mds_mod
from repro.core import split as split_mod
from repro.core.debug import structure_digest
from repro.core.mds import MDS
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
        target_a = split_mod._prefer_group_a(
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
