"""The hierarchy split (Figures 5 and 6 of the paper).

Splitting a DC-tree node proceeds in two stages:

1. :func:`plan_node_split` (Fig. 5) iterates over the dimensions in order
   of decreasing relevant level.  For each candidate dimension it adapts
   the entry MDSs to the node's MDS — trying the node's own level first
   and then one concept-hierarchy level deeper ("the relevant level ...
   may be decreased by one"; mandatory when the node's value set in that
   dimension is a singleton) — runs the hierarchy split, and accepts the
   first partitioning that is balanced and has acceptably low overlap in
   the split dimension.  If no dimension yields one, the node becomes
   (or grows as) a supernode — the caller's job.

2. :func:`hierarchy_split` (Fig. 6) is a quadratic-split variant that
   exploits the partial ordering: seeds are the pair with the largest
   covering MDS; each round picks the remaining MDS whose two candidate
   groups differ most in *split-dimension enlargement* and inserts it
   into the group sharing the most split-dimension values with it
   (§4.3), tie-broken by least resulting inter-group overlap, extension
   sum, volume sum, then the smaller group.
"""

from __future__ import annotations

from ..config import MAX_OVERLAP_FRACTION, min_group_size
from ..errors import MdsError
from . import mds as mds_mod
from .mds import MDS


class SplitPlan:
    """Outcome of a successful split attempt.

    ``groups`` holds two lists of entry indices; ``levels`` the relevant
    levels the resulting nodes must use (the node's levels, with the split
    dimension possibly decreased by one); ``split_dimension`` the dimension
    the split was performed along; ``cpu_units`` the work spent planning.
    """

    __slots__ = ("groups", "levels", "split_dimension", "cpu_units")

    def __init__(self, groups, levels, split_dimension, cpu_units):
        self.groups = groups
        self.levels = levels
        self.split_dimension = split_dimension
        self.cpu_units = cpu_units


def plan_node_split(node_mds, n_entries, adapt_entries, hierarchies):
    """Try to split a node's entries; return a :class:`SplitPlan` or None.

    ``adapt_entries(levels)`` must return the node's entry MDSs adapted to
    exactly ``levels`` — the tree supplies it because down-adaptation (an
    entry whose relevant level sits *above* the split target) requires
    reading the entry's subtree, which only the tree can do and charge for.

    ``None`` means no dimension admitted a balanced, low-overlap split and
    the node must become a supernode (Fig. 5, last line).
    """
    min_group = min_group_size(n_entries)
    cpu_units = 0
    for dim in _dimension_order(node_mds):
        for target_levels in _adaptation_attempts(node_mds, dim):
            adapted = adapt_entries(target_levels)
            cpu_units += sum(m.size() for m in adapted)
            groups, work = hierarchy_split(
                adapted, dim, hierarchies, min_group
            )
            cpu_units += work
            if min(len(groups[0]), len(groups[1])) < min_group:
                continue
            if not _overlap_acceptable(groups, adapted, dim):
                continue
            return SplitPlan(groups, target_levels, dim, cpu_units)
    return None


def _dimension_order(node_mds):
    """Dimensions ordered by decreasing relevant level (Fig. 5).

    Ties are broken towards the dimension with the larger value set, which
    offers more distinct values to separate, then by index for
    determinism.
    """
    dims = range(node_mds.n_dimensions)
    return sorted(
        dims,
        key=lambda d: (-node_mds.level(d), -node_mds.cardinality(d), d),
    )


def _adaptation_attempts(node_mds, split_dim):
    """Level configurations to try for a split along ``split_dim``.

    All dimensions use the node's relevant level (the node MDS "is the
    best choice for the adaption", §4.2).  In the split dimension "the
    relevant level ... may be decreased by one": a singleton value set
    cannot be partitioned at its own level but its children in the
    concept hierarchy can (the Europe → {Germany, France, ...} example of
    §3.2), and even a multi-value set whose values co-occur in every
    entry may only separate one level further down — so both levels are
    attempted, the coarser one first.
    """
    attempts = []
    levels = list(node_mds.levels)
    if node_mds.cardinality(split_dim) > 1:
        attempts.append(list(levels))
    if levels[split_dim] > 0:
        refined = list(levels)
        refined[split_dim] -= 1
        attempts.append(refined)
    return attempts


def _overlap_acceptable(groups, adapted, split_dim):
    """Fig. 5's "overlap is not too high" test on the two groups.

    The hierarchy split works "to obtain two groups with disjunct
    attribute values in the split dimension" (§4.3); the acceptance test
    accordingly judges the split dimension's separation — the shared
    fraction of the smaller group's value set there.  (The full
    product-form overlap of Definition 4 is useless as a criterion in a
    warehouse: sibling subtrees legitimately share most values of the
    non-split dimensions, which drives the product ratio to ~1 for every
    conceivable split.)  The adapted entries share their levels, so a
    group's split-dimension set is the union of its entries' sets.
    """
    set_a, set_b = (
        set().union(*(adapted[i].value_set(split_dim) for i in group))
        for group in groups
    )
    shared = len(set_a & set_b)
    if shared == 0:
        return True
    smaller = min(len(set_a), len(set_b))
    return shared <= MAX_OVERLAP_FRACTION * smaller


# ----------------------------------------------------------------------
# quadratic hierarchy split (Fig. 6)
# ----------------------------------------------------------------------


def choose_seeds(mdss, hierarchies):
    """Pick the two seed entries: the pair with the largest covering MDS.

    Returns ``(i, j, cpu_units)``; ties go to the first pair in ``(i, j)``
    scan order.  ``mdss`` must hold at least two entries at common levels
    (:class:`~repro.errors.MdsError` otherwise), so a pair's cover size is
    ``|a ∪ b| = |a| + |b| − |a ∩ b|`` summed over dimensions, computed as
    one set operation on per-entry ``(dim, value)`` sets.

    The scan stops at the first pair that reaches the upper bound
    ``Σ_dim min(two largest cardinalities, |∪ values|)``: no later pair
    can beat it strictly, so it is the pair the full scan keeps.  The
    charged work is still that of the full all-pairs comparison — one
    :func:`~repro.core.mds.operation_cost` per pair — summed in closed
    form: ``Σ_{i<j} min(c_i, c_j) = Σ_k c_(k)·(n−1−k)`` over each
    dimension's cardinalities sorted ascending.
    """
    n = len(mdss)
    n_dims = len(_common_levels(mdss))
    rows = [[m.value_set(dim) for dim in range(n_dims)] for m in mdss]
    sizes = [sum(map(len, row)) for row in rows]
    tagged = [
        frozenset((dim, value) for dim in range(n_dims) for value in row[dim])
        for row in rows
    ]
    cpu_units = n * (n - 1) // 2 * n_dims
    bound = 0
    for dim in range(n_dims):
        column = [row[dim] for row in rows]
        cards = sorted(map(len, column))
        cpu_units += sum(c * (n - 1 - k) for k, c in enumerate(cards))
        bound += min(cards[-1] + cards[-2], len(set().union(*column)))
    best = None
    best_size = -1
    for i in range(n - 1):
        tagged_i = tagged[i]
        size_i = sizes[i]
        row = [
            size_i + size_j - len(tagged_i & tagged_j)
            for size_j, tagged_j in zip(sizes[i + 1:], tagged[i + 1:])
        ]
        row_best = max(row)
        if row_best > best_size:
            best_size = row_best
            best = (i, i + 1 + row.index(row_best))
            if row_best == bound:
                break
    return best[0], best[1], cpu_units


def _common_levels(mdss):
    """The levels shared by all of ``mdss`` (at least two entries)."""
    if len(mdss) < 2:
        raise MdsError(
            "a split needs at least two entries, got %d" % len(mdss)
        )
    levels = mdss[0].levels
    for m in mdss:
        if m.levels != levels:
            raise MdsError(
                "split entries must share common levels: %r vs %r"
                % (m.levels, levels)
            )
    return levels


def hierarchy_split(mdss, split_dim, hierarchies, min_group=2):
    """Fig. 6: quadratic split of ``mdss`` along ``split_dim``.

    ``mdss`` must hold at least two entries already adapted to common
    levels (:class:`~repro.errors.MdsError` otherwise).  Returns
    ``((group_a, group_b), cpu_units)`` where the groups are lists of
    indices into ``mdss``.  Like Guttman's quadratic split (which Fig. 6
    is explicitly based on), remaining entries are assigned wholesale to
    a group that needs all of them to reach ``min_group``.

    Each round picks the first remaining entry whose enlargements of the
    two groups differ most.  An entry's enlargement of a group is the
    number of split-dimension values it would add to it; the difference
    of the two is kept per entry as an integer and moved by one whenever
    a group gains one of the entry's values, so a round reads integers
    instead of taking set differences.  The round is charged the full
    scan, two units per remaining split-dimension value.
    """
    seed_a, seed_b, cpu_units = choose_seeds(mdss, hierarchies)
    group_a, group_b = [seed_a], [seed_b]
    cards = [m.cardinality(split_dim) for m in mdss]
    # holders[value]: the entries whose split-dimension set holds value.
    holders = {}
    for idx, m in enumerate(mdss):
        for value in m.value_set(split_dim):
            holders.setdefault(value, []).append(idx)
    # gap[i] = enlargement of group a − enlargement of group b by entry
    # i, and spread[i] its absolute value.  Both groups start empty
    # (gap 0) and absorb their seeds.
    gap = [0] * len(mdss)
    spread = [0] * len(mdss)

    def absorb(group, idx, step):
        # Every value new to the group lowers that group's enlargement
        # by each entry holding it: step -1 for group a, +1 for b.
        entry = mdss[idx]
        for value in entry.value_set(split_dim) - group.value_set(split_dim):
            for holder in holders[value]:
                gap[holder] += step
                spread[holder] = abs(gap[holder])
        group.add_mds(entry, hierarchies)

    mds_a = MDS.empty(mdss[seed_a].levels)
    mds_b = MDS.empty(mdss[seed_b].levels)
    absorb(mds_a, seed_a, -1)
    absorb(mds_b, seed_b, 1)
    remaining = [i for i in range(len(mdss)) if i not in (seed_a, seed_b)]
    remaining_cards = sum(cards[i] for i in remaining)

    while remaining:
        if len(group_a) + len(remaining) <= min_group:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) <= min_group:
            group_b.extend(remaining)
            break
        cpu_units += 2 * remaining_cards
        idx = max(remaining, key=spread.__getitem__)
        remaining.remove(idx)
        remaining_cards -= cards[idx]
        target_a = _prefer_group_a(
            mds_a, mds_b, mdss[idx], gap[idx], group_a, group_b
        )
        cpu_units += mds_mod.operation_cost(mds_a, mds_b)
        if target_a:
            group_a.append(idx)
            absorb(mds_a, idx, -1)
        else:
            group_b.append(idx)
            absorb(mds_b, idx, 1)
    return (group_a, group_b), cpu_units


def _prefer_group_a(mds_a, mds_b, candidate, gap, group_a, group_b):
    """Fig. 6's insertion criterion.

    §4.3: the algorithm "selects a group such that the new MDS and the MDS
    of the group share as many attribute values as possible in the split
    dimension" — that is the primary criterion and what drives the groups
    towards disjoint split-dimension value sets.  Sharing the most values
    is adding the fewest, so the sign of ``gap`` decides: the number of
    split-dimension values the candidate would add to group ``a`` minus
    the number it would add to group ``b``.  Remaining ties fall to the
    least resulting inter-group overlap, then extension sum, volume sum,
    and finally the smaller group (balance).

    The tie-breaks weigh both outcomes without building them.  All three
    MDSs share their levels; per dimension, with ``new_x`` the
    candidate's values missing from group ``x``, the grown group ``a``
    meets ``b`` in ``|a ∩ b| + |new_a| − |new_a ∩ new_b|`` values (the
    new values not in ``b`` are exactly those missing from both), and
    grows by ``|new_a|`` values; symmetrically for ``b``.
    """
    if gap:
        return gap < 0
    overlap_if_a = overlap_if_b = 1
    grown_a = grown_b = 0
    volume_a = volume_b = volume_grown_a = volume_grown_b = 1
    for dim in range(candidate.n_dimensions):
        set_a = mds_a.value_set(dim)
        set_b = mds_b.value_set(dim)
        values = candidate.value_set(dim)
        new_a = values - set_a
        new_b = values - set_b
        shared = len(set_a & set_b)
        new_in_neither = len(new_a & new_b)
        overlap_if_a *= shared + len(new_a) - new_in_neither
        overlap_if_b *= shared + len(new_b) - new_in_neither
        grown_a += len(new_a)
        grown_b += len(new_b)
        volume_a *= len(set_a)
        volume_b *= len(set_b)
        volume_grown_a *= len(set_a) + len(new_a)
        volume_grown_b *= len(set_b) + len(new_b)
    if overlap_if_a != overlap_if_b:
        return overlap_if_a < overlap_if_b
    # The extension sums differ by the growth alone.
    if grown_a != grown_b:
        return grown_a < grown_b
    volume_if_a = volume_grown_a + volume_b
    volume_if_b = volume_a + volume_grown_b
    if volume_if_a != volume_if_b:
        return volume_if_a < volume_if_b
    return len(group_a) <= len(group_b)
