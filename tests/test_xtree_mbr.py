"""Unit tests for MBR geometry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.xtree.mbr import MBR


class TestConstruction:
    def test_of_point_is_degenerate(self):
        box = MBR.of_point((1, 2, 3))
        assert box.lows == [1, 2, 3]
        assert box.highs == [1, 2, 3]
        assert box.volume() == 0.0
        assert box.volume_plus_one() == 1.0

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(TreeError):
            MBR([1, 2], [3])

    def test_cover_of(self):
        cover = MBR.cover_of([MBR.of_point((0, 5)), MBR.of_point((3, 1))])
        assert cover.lows == [0, 1]
        assert cover.highs == [3, 5]

    def test_cover_of_empty_rejected(self):
        with pytest.raises(TreeError):
            MBR.cover_of([])

    def test_copy_independent(self):
        box = MBR.of_point((1, 2))
        clone = box.copy()
        clone.include_point((9, 9))
        assert box.highs == [1, 2]


class TestGrowth:
    def test_include_point_grows(self):
        box = MBR.of_point((5, 5))
        grew = box.include_point((1, 9))
        assert grew
        assert box.lows == [1, 5]
        assert box.highs == [5, 9]

    def test_include_interior_point_no_growth(self):
        box = MBR([0, 0], [10, 10])
        assert not box.include_point((5, 5))

    def test_include_mbr(self):
        box = MBR([2, 2], [4, 4])
        box.include_mbr(MBR([0, 3], [3, 8]))
        assert box.lows == [0, 2]
        assert box.highs == [4, 8]


class TestGeometry:
    def test_margin(self):
        assert MBR([0, 0], [2, 3]).margin() == 5

    def test_volume(self):
        assert MBR([0, 0], [2, 3]).volume() == 6.0
        assert MBR([0, 0], [2, 3]).volume_plus_one() == 12.0

    def test_contains_point(self):
        box = MBR([0, 0], [2, 2])
        assert box.contains_point((1, 2))
        assert not box.contains_point((3, 0))

    def test_intersects(self):
        a = MBR([0, 0], [5, 5])
        b = MBR([5, 5], [9, 9])
        c = MBR([6, 0], [9, 4])
        assert a.intersects(b)  # touching counts
        assert not a.intersects(c)

    def test_overlap_volume(self):
        a = MBR([0, 0], [4, 4])
        b = MBR([2, 2], [6, 6])
        assert a.overlap_volume_plus_one(b) == 9.0

    def test_overlap_volume_disjoint_is_zero(self):
        a = MBR([0, 0], [1, 1])
        b = MBR([5, 5], [6, 6])
        assert a.overlap_volume_plus_one(b) == 0.0

    def test_enlargement_zero_for_interior(self):
        box = MBR([0, 0], [4, 4])
        assert box.enlargement((2, 2)) == 0.0

    def test_enlargement_positive_for_exterior(self):
        box = MBR([0, 0], [4, 4])
        assert box.enlargement((10, 2)) > 0.0

    def test_center(self):
        assert MBR([0, 0], [4, 2]).center(0) == 2.0
        assert MBR([0, 0], [4, 2]).center(1) == 1.0

    def test_equality(self):
        assert MBR([0, 1], [2, 3]) == MBR([0, 1], [2, 3])
        assert MBR([0, 1], [2, 3]) != MBR([0, 1], [2, 4])
        assert MBR([0, 1], [2, 3]) != "box"


points = st.lists(
    st.tuples(*([st.integers(min_value=0, max_value=100)] * 3)),
    min_size=1,
    max_size=30,
)


@given(points)
def test_cover_contains_all_points(pts):
    cover = MBR.cover_of(MBR.of_point(p) for p in pts)
    for p in pts:
        assert cover.contains_point(p)


@given(points, points)
def test_overlap_symmetric_and_bounded(pts_a, pts_b):
    a = MBR.cover_of(MBR.of_point(p) for p in pts_a)
    b = MBR.cover_of(MBR.of_point(p) for p in pts_b)
    assert a.overlap_volume_plus_one(b) == b.overlap_volume_plus_one(a)
    assert a.overlap_volume_plus_one(b) <= min(
        a.volume_plus_one(), b.volume_plus_one()
    )


@given(points)
def test_enlargement_matches_recomputation(pts):
    base = MBR.cover_of(MBR.of_point(p) for p in pts[: len(pts) // 2 + 1])
    for p in pts:
        grown = base.copy()
        grown.include_point(p)
        assert base.enlargement(p) == pytest.approx(
            grown.volume_plus_one() - base.volume_plus_one()
        )
