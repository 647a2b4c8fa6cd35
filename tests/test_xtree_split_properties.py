"""Property tests for the X-tree split algorithms."""

from hypothesis import given
from hypothesis import strategies as st

from repro.xtree import split as xsplit
from repro.xtree.mbr import MBR
from tests.hypothesis_settings import GEOMETRY_SETTINGS

points = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=5,
    max_size=40,
)


@given(points)
@GEOMETRY_SETTINGS
def test_topological_split_partitions_and_balances(pts):
    mbrs = [MBR.of_point(p) for p in pts]
    min_group = max(2, len(mbrs) * 35 // 100)
    plan = xsplit.topological_split(mbrs, min_group)
    left, right = plan.groups
    assert sorted(left + right) == list(range(len(mbrs)))
    assert not set(left) & set(right)
    assert min(len(left), len(right)) >= min_group
    assert 0 <= plan.dimension < 3


@given(points)
@GEOMETRY_SETTINGS
def test_topological_split_minimizes_among_candidates(pts):
    """The chosen distribution's overlap is minimal on the chosen axis."""
    mbrs = [MBR.of_point(p) for p in pts]
    min_group = 2
    plan = xsplit.topological_split(mbrs, min_group)
    left = MBR.cover_of(mbrs[i] for i in plan.groups[0])
    right = MBR.cover_of(mbrs[i] for i in plan.groups[1])
    chosen_overlap = left.overlap_volume_plus_one(right)

    axis = plan.dimension
    order = sorted(
        range(len(mbrs)),
        key=lambda i: (mbrs[i].lows[axis], mbrs[i].highs[axis]),
    )
    for k in range(min_group, len(mbrs) - min_group + 1):
        a = MBR.cover_of(mbrs[i] for i in order[:k])
        b = MBR.cover_of(mbrs[i] for i in order[k:])
        assert chosen_overlap <= a.overlap_volume_plus_one(b) + 1e-9


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=10),
        ),
        min_size=4,
        max_size=20,
    )
)
@GEOMETRY_SETTINGS
def test_overlap_minimal_split_yields_disjoint_sides(intervals):
    class FakeNode:
        def __init__(self, lo, width):
            self.mbr = MBR([lo], [lo + width])
            self.split_history = frozenset({0})

    children = [FakeNode(lo, width) for lo, width in intervals]
    plan = xsplit.overlap_minimal_split(children, min_group=2)
    if plan is None:
        return  # legitimately unsplittable (e.g. everything overlaps)
    left, right = plan.groups
    assert sorted(left + right) == list(range(len(children)))
    left_high = max(children[i].mbr.highs[0] for i in left)
    right_low = min(children[i].mbr.lows[0] for i in right)
    assert left_high <= right_low


@given(points, st.integers(min_value=0, max_value=2))
@GEOMETRY_SETTINGS
def test_overlap_ratio_bounds(pts, axis):
    mbrs = [MBR.of_point(p) for p in pts]
    half = len(mbrs) // 2
    a = MBR.cover_of(mbrs[:half] or mbrs[:1])
    b = MBR.cover_of(mbrs[half:] or mbrs[-1:])
    ratio = xsplit.overlap_ratio(a, b)
    assert 0.0 <= ratio <= 1.0
    assert xsplit.overlap_ratio(a, a.copy()) == 1.0
