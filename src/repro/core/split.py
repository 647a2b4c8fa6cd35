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


def plan_node_split(node_mds, n_entries, adapt_entries, config, hierarchies):
    """Try to split a node's entries; return a :class:`SplitPlan` or None.

    ``adapt_entries(levels)`` must return the node's entry MDSs adapted to
    exactly ``levels`` — the tree supplies it because down-adaptation (an
    entry whose relevant level sits *above* the split target) requires
    reading the entry's subtree, which only the tree can do and charge for.

    ``None`` means no dimension admitted a balanced, low-overlap split and
    the node must become a supernode (Fig. 5, last line).
    """
    min_group = max(2, int(config.min_fanout_fraction * n_entries))
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
            if not _overlap_acceptable(groups, adapted, dim, config,
                                       hierarchies):
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


def _overlap_acceptable(groups, adapted, split_dim, config, hierarchies):
    """Fig. 5's "overlap is not too high" test on the two groups.

    The hierarchy split works "to obtain two groups with disjunct
    attribute values in the split dimension" (§4.3); the acceptance test
    accordingly judges the split dimension's separation — the shared
    fraction of the smaller group's value set there.  (The full
    product-form overlap of Definition 4 is useless as a criterion in a
    warehouse: sibling subtrees legitimately share most values of the
    non-split dimensions, which drives the product ratio to ~1 for every
    conceivable split.)
    """
    mds_a = compute_group_mds((adapted[i] for i in groups[0]),
                              adapted[groups[0][0]].levels, hierarchies)
    mds_b = compute_group_mds((adapted[i] for i in groups[1]),
                              adapted[groups[1][0]].levels, hierarchies)
    set_a = mds_a.value_set(split_dim)
    set_b = mds_b.value_set(split_dim)
    shared = len(set_a & set_b)
    if shared == 0:
        return True
    smaller = min(len(set_a), len(set_b))
    return shared <= config.max_overlap_fraction * smaller


def compute_group_mds(mdss, levels, hierarchies):
    """Cover of ``mdss`` at exactly ``levels`` (levels must dominate)."""
    group = MDS.empty(levels)
    for m in mdss:
        group.add_mds(m, hierarchies)
    return group


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
    two groups differ most; an entry's difference cannot exceed its own
    cardinality, so the scan stops at the first one whose difference
    equals the largest remaining cardinality.  The round is charged the
    full scan, two units per remaining split-dimension value.
    """
    seed_a, seed_b, cpu_units = choose_seeds(mdss, hierarchies)
    group_a, group_b = [seed_a], [seed_b]
    mds_a = mdss[seed_a].copy()
    mds_b = mdss[seed_b].copy()
    candidates = [m.value_set(split_dim) for m in mdss]
    cards = [len(values) for values in candidates]
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
        set_a = mds_a.value_set(split_dim)
        set_b = mds_b.value_set(split_dim)
        top = max(map(cards.__getitem__, remaining))
        chosen_pos = None
        chosen_diff = -1
        for pos, idx in enumerate(remaining):
            candidate = candidates[idx]
            diff = abs(len(candidate - set_a) - len(candidate - set_b))
            if diff > chosen_diff:
                chosen_diff = diff
                chosen_pos = pos
                if diff == top:
                    break
        idx = remaining.pop(chosen_pos)
        remaining_cards -= cards[idx]
        target_a = _prefer_group_a(
            mds_a, mds_b, mdss[idx], group_a, group_b, split_dim, hierarchies
        )
        cpu_units += mds_mod.operation_cost(mds_a, mds_b)
        if target_a:
            group_a.append(idx)
            mds_a.add_mds(mdss[idx], hierarchies)
        else:
            group_b.append(idx)
            mds_b.add_mds(mdss[idx], hierarchies)
    return (group_a, group_b), cpu_units


def _prefer_group_a(mds_a, mds_b, candidate, group_a, group_b, split_dim,
                    hierarchies):
    """Fig. 6's insertion criterion.

    §4.3: the algorithm "selects a group such that the new MDS and the MDS
    of the group share as many attribute values as possible in the split
    dimension" — that is the primary criterion and what drives the groups
    towards disjoint split-dimension value sets.  Remaining ties fall to
    the least resulting inter-group overlap, then extension sum, volume
    sum, and finally the smaller group (balance).
    """
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
