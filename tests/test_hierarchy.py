"""Unit tests for dynamic concept hierarchies (Definition 1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cube import ids
from repro.cube.hierarchy import ConceptHierarchy
from repro.errors import HierarchyError


@pytest.fixture
def customer():
    """The paper's Customer example: Region > Nation > Customer ID."""
    return ConceptHierarchy("Customer", ("CustomerID", "Nation", "Region"))


class TestConstruction:
    def test_top_level_counts_functional_attributes(self, customer):
        assert customer.top_level == 3

    def test_all_is_the_only_initial_value(self, customer):
        assert len(customer) == 1
        assert customer.label(customer.all_id) == "ALL"

    def test_all_sits_at_top_level(self, customer):
        assert ids.level_of(customer.all_id) == 3

    def test_level_names(self, customer):
        assert customer.level_name(0) == "CustomerID"
        assert customer.level_name(2) == "Region"
        assert customer.level_name(3) == "ALL"

    def test_level_name_out_of_range(self, customer):
        with pytest.raises(HierarchyError):
            customer.level_name(4)

    def test_empty_levels_rejected(self):
        with pytest.raises(HierarchyError):
            ConceptHierarchy("X", ())

    def test_too_many_levels_rejected(self):
        with pytest.raises(HierarchyError):
            ConceptHierarchy("X", tuple("L%d" % i for i in range(16)))


class TestInsertPath:
    def test_creates_nodes_at_expected_levels(self, customer):
        region, nation, cust = customer.insert_path(
            ("Europe", "Germany", "C1")
        )
        assert ids.level_of(region) == 2
        assert ids.level_of(nation) == 1
        assert ids.level_of(cust) == 0

    def test_reuses_existing_prefix(self, customer):
        path_a = customer.insert_path(("Europe", "Germany", "C1"))
        path_b = customer.insert_path(("Europe", "Germany", "C2"))
        assert path_a[0] == path_b[0]
        assert path_a[1] == path_b[1]
        assert path_a[2] != path_b[2]

    def test_idempotent(self, customer):
        assert customer.insert_path(("Europe", "Germany", "C1")) == (
            customer.insert_path(("Europe", "Germany", "C1"))
        )

    def test_same_label_under_different_parents_gets_new_id(self, customer):
        # Market-segment style: the same label repeats under every parent.
        path_a = customer.insert_path(("Europe", "Germany", "dup"))
        path_b = customer.insert_path(("Europe", "France", "dup"))
        assert path_a[2] != path_b[2]

    def test_wrong_arity_rejected(self, customer):
        with pytest.raises(HierarchyError):
            customer.insert_path(("Europe", "Germany"))


class TestNavigation:
    @pytest.fixture(autouse=True)
    def _populate(self, customer):
        self.de = customer.insert_path(("Europe", "Germany", "C1"))
        customer.insert_path(("Europe", "Germany", "C2"))
        self.fr = customer.insert_path(("Europe", "France", "C3"))
        self.us = customer.insert_path(("America", "USA", "C4"))
        self.h = customer

    def test_parent_of_leaf(self):
        assert self.h.parent(self.de[2]) == self.de[1]

    def test_parent_of_all_is_none(self):
        assert self.h.parent(self.h.all_id) is None

    def test_parent_of_unknown_raises(self):
        with pytest.raises(HierarchyError):
            self.h.parent(0xDEAD)

    def test_children_of_nation(self):
        assert len(self.h.children(self.de[1])) == 2

    def test_ancestor_at_own_level_is_self(self):
        assert self.h.ancestor(self.de[2], 0) == self.de[2]

    def test_ancestor_at_region_level(self):
        assert self.h.ancestor(self.de[2], 2) == self.de[0]

    def test_ancestor_at_all_level(self):
        assert self.h.ancestor(self.de[2], 3) == self.h.all_id

    def test_ancestor_below_own_level_raises(self):
        with pytest.raises(HierarchyError):
            self.h.ancestor(self.de[0], 0)

    def test_partial_ordering_germany_below_europe(self):
        # "Germany <= Europe" from the paper's example.
        assert self.h.is_descendant_or_self(self.de[1], self.de[0])

    def test_partial_ordering_reflexive(self):
        assert self.h.is_descendant_or_self(self.de[1], self.de[1])

    def test_partial_ordering_everything_below_all(self):
        for attr_id in (self.de[0], self.de[1], self.de[2]):
            assert self.h.is_descendant_or_self(attr_id, self.h.all_id)

    def test_partial_ordering_not_across_branches(self):
        assert not self.h.is_descendant_or_self(self.us[1], self.de[0])

    def test_partial_ordering_never_downwards(self):
        assert not self.h.is_descendant_or_self(self.de[0], self.de[1])

    def test_descendants_at_level_of_all(self):
        leaves = self.h.descendants_at_level(self.h.all_id, 0)
        assert len(leaves) == 4

    def test_descendants_at_level_of_region(self):
        nations = self.h.descendants_at_level(self.de[0], 1)
        assert nations == frozenset((self.de[1], self.fr[1]))

    def test_descendants_at_own_level(self):
        assert self.h.descendants_at_level(self.de[1], 1) == frozenset(
            (self.de[1],)
        )

    def test_descendants_above_own_level_raises(self):
        with pytest.raises(HierarchyError):
            self.h.descendants_at_level(self.de[2], 1)

    def test_descendant_cache_invalidated_by_insert(self):
        before = self.h.descendants_at_level(self.de[0], 0)
        self.h.insert_path(("Europe", "Germany", "C99"))
        after = self.h.descendants_at_level(self.de[0], 0)
        assert len(after) == len(before) + 1

    def test_values_at_level_in_allocation_order(self):
        nations = self.h.values_at_level(1)
        assert list(nations) == sorted(nations)

    def test_n_values_at_level(self):
        assert self.h.n_values_at_level(2) == 2
        assert self.h.n_values_at_level(0) == 4

    def test_contains(self):
        assert self.de[2] in self.h
        assert 0xDEAD not in self.h

    def test_level_of_unknown_raises(self):
        with pytest.raises(HierarchyError):
            self.h.level_of(0xDEAD)


@given(
    paths=st.lists(
        st.tuples(
            st.sampled_from(["R1", "R2", "R3"]),
            st.sampled_from(["N1", "N2", "N3", "N4"]),
            st.text(alphabet="abc", min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_ancestor_of_descendants_roundtrip(paths):
    """Every descendant at level L of x has x as its ancestor at level(x)."""
    hierarchy = ConceptHierarchy("H", ("Leaf", "Mid", "Top"))
    for path in paths:
        hierarchy.insert_path(path)
    for mid in hierarchy.values_at_level(1):
        for leaf in hierarchy.descendants_at_level(mid, 0):
            assert hierarchy.ancestor(leaf, 1) == mid


@given(
    paths=st.lists(
        st.tuples(
            st.sampled_from(["R1", "R2"]),
            st.sampled_from(["N1", "N2", "N3"]),
            st.integers(min_value=0, max_value=50).map(str),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_levels_partition_all_values(paths):
    """Leaves of ALL at each level are exactly the values of that level."""
    hierarchy = ConceptHierarchy("H", ("Leaf", "Mid", "Top"))
    for path in paths:
        hierarchy.insert_path(path)
    for level in range(hierarchy.top_level):
        assert hierarchy.descendants_at_level(
            hierarchy.all_id, level
        ) == frozenset(hierarchy.values_at_level(level))


class TestRestoreNodes:
    def test_roundtrip(self):
        original = ConceptHierarchy("H", ("Leaf", "Top"))
        original.insert_path(("T1", "a"))
        original.insert_path(("T1", "b"))
        original.insert_path(("T2", "c"))
        fresh = ConceptHierarchy("H", ("Leaf", "Top"))
        fresh.restore_nodes(original.dump_nodes())
        assert len(fresh) == len(original)
        for level in (0, 1):
            assert fresh.values_at_level(level) == original.values_at_level(
                level
            )
        # IDs keep working and new allocations do not collide.
        new_path = fresh.insert_path(("T3", "d"))
        assert new_path[0] not in original

    def test_requires_fresh_hierarchy(self):
        original = ConceptHierarchy("H", ("Leaf", "Top"))
        original.insert_path(("T1", "a"))
        dirty = ConceptHierarchy("H", ("Leaf", "Top"))
        dirty.insert_path(("X", "y"))
        with pytest.raises(HierarchyError):
            dirty.restore_nodes(original.dump_nodes())

    def test_unknown_parent_rejected(self):
        fresh = ConceptHierarchy("H", ("Leaf", "Top"))
        with pytest.raises(HierarchyError):
            fresh.restore_nodes([[ids.make_id(0, 0), 0xDEAD, "x"]])

    def test_bad_root_row_rejected(self):
        fresh = ConceptHierarchy("H", ("Leaf", "Top"))
        with pytest.raises(HierarchyError):
            fresh.restore_nodes([[ids.make_id(1, 5), None, "ALL"]])


def parent_walk(hierarchy, attr_id, level):
    """Ancestor at ``level`` by following parent links (test oracle)."""
    node = attr_id
    for _ in range(level - ids.level_of(attr_id)):
        node = hierarchy.parent(node)
    return node


geo_paths = st.lists(
    st.tuples(
        st.sampled_from(["EU", "NA", "ASIA"]),
        st.sampled_from(["DE", "FR", "US", "CA", "JP"]),
        st.integers(min_value=0, max_value=9).map("city{}".format),
    ),
    min_size=1,
    max_size=25,
)


def geo_hierarchy(paths):
    hierarchy = ConceptHierarchy("Geo", ("City", "Nation", "Region"))
    for path in paths:
        hierarchy.insert_path(path)
    return hierarchy


def all_ancestor_pairs(hierarchy):
    """Every (value, target level) pair ``ancestor`` accepts."""
    for level in range(hierarchy.top_level + 1):
        for value in hierarchy.values_at_level(level):
            for target in range(level, hierarchy.top_level + 1):
                yield value, target


class TestAncestorTables:
    """The O(1) flattened ancestor tables against the parent links."""

    @given(paths=geo_paths)
    def test_ancestor_matches_parent_walk(self, paths):
        hierarchy = geo_hierarchy(paths)
        for value, target in all_ancestor_pairs(hierarchy):
            assert hierarchy.ancestor(value, target) == parent_walk(
                hierarchy, value, target
            )

    def test_ancestors_of_spans_to_all(self):
        hierarchy = geo_hierarchy([("EU", "DE", "city1")])
        leaf = hierarchy.insert_path(("EU", "DE", "city1"))[-1]
        ancestors = hierarchy.ancestors_of(leaf)
        assert ancestors[0] == leaf
        assert ancestors[-1] == hierarchy.all_id
        assert len(ancestors) == hierarchy.top_level + 1

    def test_table_grows_with_dynamic_insertion(self):
        hierarchy = geo_hierarchy([("EU", "DE", "city1")])
        path = hierarchy.insert_path(("NA", "CA", "city99"))
        assert hierarchy.ancestor(path[-1], hierarchy.top_level) \
            == hierarchy.all_id
        assert hierarchy.ancestor(path[-1], 2) == path[0]

    def test_restore_rebuilds_tables(self):
        source = geo_hierarchy([("EU", "DE", "city1"), ("NA", "US", "city2")])
        clone = ConceptHierarchy(source.name, source.level_names)
        clone.restore_nodes(source.dump_nodes())
        for value, target in all_ancestor_pairs(source):
            assert clone.ancestor(value, target) \
                == source.ancestor(value, target)
