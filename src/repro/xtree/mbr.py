"""Minimum bounding rectangles over the flattened attribute space.

The X-tree indexes each record as a point whose coordinates are the
totally ordered attribute IDs of all functional attributes (13 dimensions
for the paper's TPC-D cube, Fig. 10).  An MBR is one closed integer
interval per flat dimension.
"""

from __future__ import annotations

from ..errors import TreeError


class MBR:
    """A d-dimensional closed box ``[lo_i, hi_i]`` (mutable, like the MDS)."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows, highs):
        lows = list(lows)
        highs = list(highs)
        if len(lows) != len(highs):
            raise TreeError("MBR needs matching lows/highs")
        self.lows = lows
        self.highs = highs

    @classmethod
    def of_point(cls, point):
        """Degenerate MBR around a single point."""
        return cls(point, point)

    @classmethod
    def cover_of(cls, mbrs):
        """Smallest MBR containing all of ``mbrs``."""
        mbrs = list(mbrs)
        if not mbrs:
            raise TreeError("cannot cover zero MBRs")
        n = len(mbrs[0].lows)
        lows = [min(m.lows[d] for m in mbrs) for d in range(n)]
        highs = [max(m.highs[d] for m in mbrs) for d in range(n)]
        return cls(lows, highs)

    def copy(self):
        return MBR(self.lows, self.highs)

    @property
    def n_dimensions(self):
        return len(self.lows)

    # -- growth ----------------------------------------------------------

    def include_point(self, point):
        """Grow to cover ``point``; return True if the box changed."""
        grew = False
        for d, value in enumerate(point):
            if value < self.lows[d]:
                self.lows[d] = value
                grew = True
            if value > self.highs[d]:
                self.highs[d] = value
                grew = True
        return grew

    def include_mbr(self, other):
        for d in range(len(self.lows)):
            if other.lows[d] < self.lows[d]:
                self.lows[d] = other.lows[d]
            if other.highs[d] > self.highs[d]:
                self.highs[d] = other.highs[d]

    # -- geometry ----------------------------------------------------------

    def width(self, d):
        return self.highs[d] - self.lows[d]

    def margin(self):
        """Sum of the side lengths (the R*-tree's split-axis criterion)."""
        return sum(self.highs[d] - self.lows[d] for d in range(len(self.lows)))

    def volume(self):
        product = 1.0
        for d in range(len(self.lows)):
            product *= self.highs[d] - self.lows[d]
        return product

    def volume_plus_one(self):
        """Volume with every side extended by one ID unit.

        IDs are discrete, so a degenerate side still spans one value; this
        variant avoids the everything-is-zero trap of point data when
        comparing volumes.
        """
        product = 1.0
        for d in range(len(self.lows)):
            product *= self.highs[d] - self.lows[d] + 1
        return product

    def contains_point(self, point):
        for d, value in enumerate(point):
            if value < self.lows[d] or value > self.highs[d]:
                return False
        return True

    def intersects(self, other):
        for d in range(len(self.lows)):
            if other.highs[d] < self.lows[d] or other.lows[d] > self.highs[d]:
                return False
        return True

    def overlap_volume_plus_one(self, other):
        """Discrete overlap (each shared side counts at least one ID)."""
        product = 1.0
        for d in range(len(self.lows)):
            extent = (
                min(self.highs[d], other.highs[d])
                - max(self.lows[d], other.lows[d])
            )
            if extent < 0:
                return 0.0
            product *= extent + 1
        return product

    def enlargement(self, point):
        """Growth of ``volume_plus_one`` if ``point`` were included."""
        before = 1.0
        after = 1.0
        for d, value in enumerate(point):
            side = self.highs[d] - self.lows[d] + 1
            before *= side
            lo = self.lows[d] if value >= self.lows[d] else value
            hi = self.highs[d] if value <= self.highs[d] else value
            after *= hi - lo + 1
        return after - before

    def center(self, d):
        return (self.lows[d] + self.highs[d]) / 2.0

    def __eq__(self, other):
        if not isinstance(other, MBR):
            return NotImplemented
        return self.lows == other.lows and self.highs == other.highs

    def __repr__(self):
        sides = ", ".join(
            "[%d,%d]" % (lo, hi) for lo, hi in zip(self.lows, self.highs)
        )
        return "MBR(%s)" % sides
