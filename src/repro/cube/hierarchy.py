"""Dynamic concept hierarchies (Definition 1 of the paper).

A concept hierarchy for a dimension is a tree whose nodes are the attribute
values of that dimension, whose root is the special value ALL, and whose
edges represent the is-a relationship.  Leaves have hierarchy level 0; the
level of an inner value is its distance from the leaves.

The paper stores hierarchies "by means of dictionaries that store the ID of
the father for each ID" and manages them *dynamically*: every inserted data
record carries one string value per functional attribute and the hierarchy
assigns (or reuses) a level-tagged 32-bit ID for each of them.  This module
implements that behaviour, plus the navigation operations the DC-tree needs
(ancestor at a level, descendants at a level, enumeration of a level).

Values are identified by their *path*, not by their label alone: the same
label may legally occur under different parents (e.g. TPC-D market segments
repeat under every nation, Fig. 9 of the paper).
"""

from __future__ import annotations

from ..errors import HierarchyError
from . import ids as ids_mod


class ConceptHierarchy:
    """One dynamic concept hierarchy, i.e. one dimension's value tree.

    Parameters
    ----------
    name:
        Dimension name, e.g. ``"Customer"``.
    level_names:
        Names of the functional attributes ordered from the *leaf* level
        upwards, e.g. ``("Customer", "MktSegment", "Nation", "Region")``.
        ALL is implicit and sits one level above the last name.
    """

    def __init__(self, name, level_names):
        if not level_names:
            raise HierarchyError("a dimension needs at least one level")
        if len(level_names) > ids_mod.MAX_LEVEL:
            raise HierarchyError(
                "dimension %r has %d levels; at most %d are encodable"
                % (name, len(level_names), ids_mod.MAX_LEVEL)
            )
        self.name = name
        self.level_names = tuple(level_names)
        #: Hierarchy level of ALL (= number of functional attributes).
        self.top_level = len(self.level_names)
        self._allocator = ids_mod.IdAllocator()
        self._parent = {}
        self._children = {}
        self._label = {}
        self._child_by_label = {}
        self._level_values = {}
        self._descendant_cache = {}
        # Flattened ancestor tables: per ID the tuple of its ancestors from
        # itself up to ALL, so ancestor() is a single indexed lookup.  A
        # value's ancestry is fixed at creation (hierarchies only ever grow
        # downwards), so the tables never need invalidation — only the
        # descendant cache does.
        self._ancestor_table = {}
        self.all_id = self._new_node(self.top_level, "ALL", parent=None)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def n_attributes(self):
        """Number of functional attributes (levels below ALL)."""
        return len(self.level_names)

    def level_name(self, level):
        """Name of the functional attribute at ``level`` ('ALL' on top)."""
        if level == self.top_level:
            return "ALL"
        if not 0 <= level < self.top_level:
            raise HierarchyError(
                "level %r out of range for dimension %r" % (level, self.name)
            )
        return self.level_names[level]

    def __len__(self):
        """Total number of values in the hierarchy, including ALL."""
        return len(self._label)

    def __contains__(self, attr_id):
        return attr_id in self._label

    # ------------------------------------------------------------------
    # dynamic maintenance
    # ------------------------------------------------------------------

    def insert_path(self, values):
        """Insert (or look up) one root-to-leaf value path; return its IDs.

        ``values`` is ordered from the highest functional attribute down to
        the leaf, e.g. ``("EUROPE", "GERMANY", "BUILDING", "Customer#42")``.
        Missing hierarchy nodes are created on the fly (dynamic maintenance,
        §3.1).  Returns a tuple of IDs ordered the same way.
        """
        if len(values) != self.n_attributes:
            raise HierarchyError(
                "dimension %r expects %d attribute values, got %d: %r"
                % (self.name, self.n_attributes, len(values), values)
            )
        path = []
        parent = self.all_id
        level = self.top_level - 1
        for value in values:
            key = (parent, value)
            child = self._child_by_label.get(key)
            if child is None:
                child = self._new_node(level, value, parent)
            path.append(child)
            parent = child
            level -= 1
        return tuple(path)

    def _new_node(self, level, label, parent):
        attr_id = self._allocator.allocate(level)
        self._link(attr_id, level, label, parent)
        self._invalidate_ancestor_caches(attr_id)
        return attr_id

    def _link(self, attr_id, level, label, parent):
        """Enter ``attr_id`` in every table, under an already linked
        ``parent`` (``None`` for ALL)."""
        self._parent[attr_id] = parent
        self._children[attr_id] = []
        self._label[attr_id] = label
        self._level_values.setdefault(level, []).append(attr_id)
        if parent is None:
            self._ancestor_table[attr_id] = (attr_id,)
        else:
            self._ancestor_table[attr_id] = \
                (attr_id,) + self._ancestor_table[parent]
            self._children[parent].append(attr_id)
            self._child_by_label[(parent, label)] = attr_id

    def _invalidate_ancestor_caches(self, attr_id):
        for node in self._ancestor_table[attr_id]:
            self._descendant_cache.pop(node, None)

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------

    def parent(self, attr_id):
        """Father ID of ``attr_id`` (None for ALL)."""
        try:
            return self._parent[attr_id]
        except KeyError:
            raise HierarchyError(
                "unknown ID %r in dimension %r" % (attr_id, self.name)
            ) from None

    def children(self, attr_id):
        """Direct sons of ``attr_id`` (tuple, allocation order)."""
        try:
            return tuple(self._children[attr_id])
        except KeyError:
            raise HierarchyError(
                "unknown ID %r in dimension %r" % (attr_id, self.name)
            ) from None

    def label(self, attr_id):
        """Human-readable label of ``attr_id``."""
        try:
            return self._label[attr_id]
        except KeyError:
            raise HierarchyError(
                "unknown ID %r in dimension %r" % (attr_id, self.name)
            ) from None

    def level_of(self, attr_id):
        """Hierarchy level of ``attr_id`` (decoded from the ID itself)."""
        if attr_id not in self._label:
            raise HierarchyError(
                "unknown ID %r in dimension %r" % (attr_id, self.name)
            )
        return ids_mod.level_of(attr_id)

    def ancestor(self, attr_id, level):
        """Ancestor of ``attr_id`` at ``level`` (may be ``attr_id`` itself).

        This realizes the partial ordering of Definition 1:
        ``a <= ancestor(a, level)`` for every value ``a``.  O(1): one
        lookup in the flattened ancestor table built at insertion time.
        """
        try:
            ancestors = self._ancestor_table[attr_id]
        except KeyError:
            raise HierarchyError(
                "unknown ID %r in dimension %r" % (attr_id, self.name)
            ) from None
        own_level = ids_mod.level_of(attr_id)
        offset = level - own_level
        if offset < 0:
            raise HierarchyError(
                "cannot take ancestor at level %d of a level-%d value"
                % (level, own_level)
            )
        if offset >= len(ancestors):
            raise HierarchyError(
                "level %r out of range for dimension %r" % (level, self.name)
            )
        return ancestors[offset]

    def ancestors_of(self, attr_id):
        """All ancestors from ``attr_id`` itself up to ALL (a tuple).

        ``ancestors_of(a)[k]`` is the ancestor at ``level_of(a) + k``.
        """
        try:
            return self._ancestor_table[attr_id]
        except KeyError:
            raise HierarchyError(
                "unknown ID %r in dimension %r" % (attr_id, self.name)
            ) from None

    def is_descendant_or_self(self, a, b):
        """Partial ordering test ``a <= b`` (Definition 1)."""
        level_a = self.level_of(a)
        level_b = ids_mod.level_of(b)
        if level_a > level_b:
            return False
        return self.ancestor(a, level_b) == b

    def descendants_at_level(self, attr_id, level):
        """All descendants of ``attr_id`` at exactly ``level`` (frozenset).

        ``descendants_at_level(x, level_of(x))`` is ``{x}``.  Results are
        cached; the cache is invalidated along the ancestor path whenever a
        new value is inserted below it.
        """
        own_level = self.level_of(attr_id)
        if level > own_level:
            raise HierarchyError(
                "descendants at level %d of a level-%d value do not exist"
                % (level, own_level)
            )
        if level == own_level:
            return frozenset((attr_id,))
        cache = self._descendant_cache.setdefault(attr_id, {})
        cached = cache.get(level)
        if cached is not None:
            return cached
        frontier = [attr_id]
        for _ in range(own_level - level):
            next_frontier = []
            for node in frontier:
                next_frontier.extend(self._children[node])
            frontier = next_frontier
        result = frozenset(frontier)
        cache[level] = result
        return result

    def values_at_level(self, level):
        """All IDs currently allocated at ``level``, in allocation order.

        Allocation order is the artificial total order the paper uses to
        convert MDS-based range queries into MBR-based ones for the X-tree.
        """
        return tuple(self._level_values.get(level, ()))

    def n_values_at_level(self, level):
        """Number of values currently known at ``level``."""
        return len(self._level_values.get(level, ()))

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------

    def dump_nodes(self):
        """All nodes as ``[id, parent, label]`` rows, allocation order.

        ALL is included (parent ``None``); the row order is the counter
        order per level interleaved by creation, which
        :meth:`restore_nodes` relies on to realign the ID allocator.
        """
        rows = []
        for level in sorted(self._level_values, reverse=True):
            for attr_id in self._level_values[level]:
                rows.append(
                    [attr_id, self._parent[attr_id], self._label[attr_id]]
                )
        return rows

    def restore_nodes(self, rows):
        """Rebuild the hierarchy from :meth:`dump_nodes` output.

        Only valid on a freshly constructed hierarchy (it still has just
        its ALL node).  IDs are restored verbatim, so records saved
        alongside the hierarchy stay valid.
        """
        if len(self) != 1:
            raise HierarchyError(
                "restore_nodes needs a fresh hierarchy, this one has %d values"
                % len(self)
            )
        for attr_id, parent, label in rows:
            level = ids_mod.level_of(attr_id)
            if parent is None:
                if attr_id != self.all_id:
                    raise HierarchyError(
                        "root row %r does not match the ALL id" % attr_id
                    )
                continue
            if parent not in self._label:
                raise HierarchyError(
                    "row %r references unknown parent %r" % (attr_id, parent)
                )
            # Rows arrive top-down, so the parent is already linked.
            self._link(attr_id, level, label, parent)
            counter = ids_mod.counter_of(attr_id)
            if counter >= self._allocator.allocated_count(level):
                self._allocator._next[level] = counter + 1
        self._descendant_cache.clear()

    def __repr__(self):
        return "ConceptHierarchy(%r, levels=%r, values=%d)" % (
            self.name,
            list(self.level_names),
            len(self),
        )
