"""Unit tests for the hierarchy split (Figures 5 and 6)."""

import pytest

from repro.core import mds as mds_mod
from repro.core import split as split_mod
from repro.core.mds import MDS
from repro.errors import MdsError
from tests.conftest import build_toy_schema, toy_record


def hset(schema):
    return tuple(d.hierarchy for d in schema.dimensions)


def lift(mds, levels, hierarchies):
    """A copy of ``mds`` with every dimension lifted to ``levels``."""
    return MDS([mds.adapted_set(dim, level, hierarchies[dim])
                for dim, level in enumerate(levels)], levels)


@pytest.fixture
def city_mdss():
    """Eight single-record MDSs at city level, 2 countries x 4 cities."""
    schema = build_toy_schema()
    rows = [
        ("DE", "Munich", "red", 1.0),
        ("DE", "Berlin", "red", 1.0),
        ("DE", "Hamburg", "blue", 1.0),
        ("DE", "Cologne", "blue", 1.0),
        ("FR", "Paris", "red", 1.0),
        ("FR", "Lyon", "red", 1.0),
        ("FR", "Nice", "blue", 1.0),
        ("FR", "Lille", "blue", 1.0),
    ]
    records = [toy_record(schema, *row) for row in rows]
    hierarchies = hset(schema)
    mdss = [MDS.for_record(r, (0, 0), hierarchies) for r in records]
    return schema, hierarchies, records, mdss


class TestChooseSeeds:
    def test_seeds_are_distinct(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        a, b, _cost = split_mod.choose_seeds(mdss, hierarchies)
        assert a != b

    def test_seeds_maximize_cover_size(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        a, b, _cost = split_mod.choose_seeds(mdss, hierarchies)
        best = max(
            sum(
                mds_mod.union_cardinality(mdss[i], mdss[j], d, hierarchies)
                for d in range(2)
            )
            for i in range(len(mdss))
            for j in range(i + 1, len(mdss))
        )
        achieved = sum(
            mds_mod.union_cardinality(mdss[a], mdss[b], d, hierarchies)
            for d in range(2)
        )
        assert achieved == best

    def test_cost_positive(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        _a, _b, cost = split_mod.choose_seeds(mdss, hierarchies)
        assert cost > 0


class TestHierarchySplit:
    def test_partitions_all_indices(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            mdss, 0, hierarchies
        )
        assert sorted(group_a + group_b) == list(range(len(mdss)))
        assert not set(group_a) & set(group_b)

    def test_split_by_country_separates_countries(self, city_mdss):
        schema, hierarchies, _records, mdss = city_mdss
        lifted = [lift(m, (1, 0), hierarchies) for m in mdss]
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            lifted, 0, hierarchies, min_group=2
        )
        countries_a = set()
        for i in group_a:
            countries_a.update(lifted[i].value_set(0))
        countries_b = set()
        for i in group_b:
            countries_b.update(lifted[i].value_set(0))
        assert not countries_a & countries_b

    def test_min_group_forced_assignment(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            mdss, 0, hierarchies, min_group=4
        )
        assert min(len(group_a), len(group_b)) >= 4

    def test_two_entries_split_into_singletons(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        (group_a, group_b), _cost = split_mod.hierarchy_split(
            mdss[:2], 0, hierarchies
        )
        assert len(group_a) == 1 and len(group_b) == 1


class TestSplitPreconditions:
    @pytest.mark.parametrize("n_entries", [0, 1])
    def test_fewer_than_two_entries(self, city_mdss, n_entries):
        _schema, hierarchies, _records, mdss = city_mdss
        with pytest.raises(MdsError, match="at least two entries"):
            split_mod.choose_seeds(mdss[:n_entries], hierarchies)
        with pytest.raises(MdsError, match="at least two entries"):
            split_mod.hierarchy_split(mdss[:n_entries], 0, hierarchies)

    def test_entries_not_at_common_levels(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        mixed = [mdss[0], lift(mdss[1], (1, 0), hierarchies), mdss[2]]
        with pytest.raises(MdsError, match="common levels"):
            split_mod.choose_seeds(mixed, hierarchies)
        with pytest.raises(MdsError, match="common levels"):
            split_mod.hierarchy_split(mixed, 0, hierarchies)


class TestDimensionOrder:
    def test_highest_level_first(self):
        mds = MDS([{1}, {2}], [2, 0])
        assert split_mod._dimension_order(mds)[0] == 0

    def test_tie_broken_by_cardinality(self):
        mds = MDS([{1}, {2, 3}], [1, 1])
        assert split_mod._dimension_order(mds)[0] == 1

    def test_full_tie_broken_by_index(self):
        mds = MDS([{1}, {2}], [1, 1])
        assert split_mod._dimension_order(mds) == [0, 1]


class TestAdaptationAttempts:
    def test_multi_value_set_tries_both_levels(self):
        mds = MDS([{1, 2}, {9}], [1, 0])
        attempts = split_mod._adaptation_attempts(mds, 0)
        assert attempts == [[1, 0], [0, 0]]

    def test_singleton_descends_only(self):
        mds = MDS([{1}, {9}], [1, 0])
        assert split_mod._adaptation_attempts(mds, 0) == [[0, 0]]

    def test_singleton_at_leaf_level_unusable(self):
        mds = MDS([{1}, {9}], [0, 0])
        assert split_mod._adaptation_attempts(mds, 0) == []

    def test_multi_value_at_leaf_level_single_attempt(self):
        mds = MDS([{1, 2}, {9}], [0, 0])
        assert split_mod._adaptation_attempts(mds, 0) == [[0, 0]]


class TestPlanNodeSplit:
    def _plan(self, mdss, node_levels, hierarchies):
        node_mds = MDS.cover_of(
            [lift(m, node_levels, hierarchies) for m in mdss], hierarchies
        )

        def adapt(levels):
            return [lift(m, levels, hierarchies) for m in mdss]

        return split_mod.plan_node_split(
            node_mds, len(mdss), adapt, hierarchies
        )

    def test_separable_entries_get_a_plan(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (1, 0), hierarchies)
        assert plan is not None
        assert sorted(plan.groups[0] + plan.groups[1]) == list(
            range(len(mdss))
        )

    def test_plan_separates_in_split_dimension(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (1, 0), hierarchies)
        adapted = [lift(m, plan.levels, hierarchies) for m in mdss]
        set_a = set()
        for i in plan.groups[0]:
            set_a.update(adapted[i].value_set(plan.split_dimension))
        set_b = set()
        for i in plan.groups[1]:
            set_b.update(adapted[i].value_set(plan.split_dimension))
        assert not set_a & set_b

    def test_singleton_node_mds_descends_level(self, city_mdss):
        """(ALL, ALL) node splits by descending to country level (§3.2)."""
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (2, 1), hierarchies)
        assert plan is not None
        assert plan.levels[plan.split_dimension] < (2, 1)[
            plan.split_dimension
        ]

    def test_identical_entries_yield_no_plan(self):
        """All records in the same cell: nothing separates -> supernode."""
        schema = build_toy_schema()
        hierarchies = hset(schema)
        records = [
            toy_record(schema, "DE", "Munich", "red", float(i))
            for i in range(8)
        ]
        mdss = [MDS.for_record(r, (0, 0), hierarchies) for r in records]
        plan = self._plan(mdss, (0, 0), hierarchies)
        assert plan is None

    def test_cpu_units_accounted(self, city_mdss):
        _schema, hierarchies, _records, mdss = city_mdss
        plan = self._plan(mdss, (1, 0), hierarchies)
        assert plan.cpu_units > 0

