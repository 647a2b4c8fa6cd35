"""Cube schemata: dimensions, hierarchy schemata, measures (Definition 2).

A data cube ``D ⊆ D_1 × ... × D_d × R^m`` consists of *d* dimensions, each
organized by a hierarchy schema, and *m* measures.  A :class:`CubeSchema`
bundles the dimensions (each owning one dynamic
:class:`~repro.cube.hierarchy.ConceptHierarchy`) with the measure
definitions and acts as the factory for :class:`~repro.cube.record.DataRecord`
instances.
"""

from __future__ import annotations

from ..errors import QueryError, SchemaError
from .hierarchy import ConceptHierarchy
from .record import DataRecord


class Dimension:
    """One cube dimension: a hierarchy schema plus its concept hierarchy.

    Parameters
    ----------
    name:
        Dimension name, e.g. ``"Customer"``.
    level_names:
        Functional-attribute names from the leaf level upwards (see
        :class:`~repro.cube.hierarchy.ConceptHierarchy`).
    """

    def __init__(self, name, level_names):
        self.name = name
        self.hierarchy = ConceptHierarchy(name, level_names)

    @property
    def level_names(self):
        return self.hierarchy.level_names

    @property
    def top_level(self):
        return self.hierarchy.top_level

    @property
    def n_attributes(self):
        return self.hierarchy.n_attributes

    def __repr__(self):
        return "Dimension(%r, levels=%r)" % (self.name, list(self.level_names))


class Measure:
    """A dependent attribute of the cube (e.g. Extended Price)."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Measure(%r)" % self.name


class CubeSchema:
    """Schema of a data cube: ordered dimensions plus ordered measures.

    The schema is the single authority for converting user-facing label
    tuples into level-tagged ID paths, so every index built over the same
    schema instance sees identical IDs (a precondition for comparing the
    DC-tree against the X-tree and the sequential scan on equal footing).
    """

    def __init__(self, dimensions, measures):
        if not dimensions:
            raise SchemaError("a cube needs at least one dimension")
        if not measures:
            raise SchemaError("a cube needs at least one measure")
        names = [dim.name for dim in dimensions]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate dimension names: %r" % names)
        measure_names = [m.name for m in measures]
        if len(set(measure_names)) != len(measure_names):
            raise SchemaError("duplicate measure names: %r" % measure_names)
        self.dimensions = tuple(dimensions)
        self.measures = tuple(measures)
        self._dim_index = {dim.name: i for i, dim in enumerate(dimensions)}
        self._measure_index = {m.name: i for i, m in enumerate(measures)}

    @property
    def n_dimensions(self):
        return len(self.dimensions)

    @property
    def n_measures(self):
        return len(self.measures)

    @property
    def n_flat_attributes(self):
        """Total number of functional attributes across all dimensions.

        This is the dimensionality of the flattened space the X-tree indexes
        (13 for the paper's TPC-D cube, Fig. 10).
        """
        return sum(dim.n_attributes for dim in self.dimensions)

    def flat_offset(self, dim_index):
        """Index of ``dim_index``'s first attribute in the flattened space."""
        return sum(
            dim.n_attributes for dim in self.dimensions[:dim_index]
        )

    def flat_position(self, dim_index, level):
        """Flattened-space index of the attribute at ``level`` of a dimension.

        Flat points (and hence the X-tree's dimensions, Fig. 10) order each
        dimension's attributes from the highest functional attribute down
        to the leaf, matching :meth:`DataRecord.flat_point`.
        """
        n_attributes = self.dimensions[dim_index].n_attributes
        if not 0 <= level < n_attributes:
            raise SchemaError(
                "level %r out of range for dimension %r"
                % (level, self.dimensions[dim_index].name)
            )
        return self.flat_offset(dim_index) + (n_attributes - 1 - level)

    def dimension_index(self, name):
        """Position of the dimension called ``name``."""
        try:
            return self._dim_index[name]
        except KeyError:
            raise SchemaError("unknown dimension %r" % name) from None

    def measure_index(self, measure):
        """Position of a measure given by name or by index.

        The one resolver every backend and the warehouse use: an unknown
        name raises :class:`SchemaError`, an index outside
        ``0 <= measure < n_measures`` raises :class:`QueryError`.
        """
        if isinstance(measure, str):
            try:
                return self._measure_index[measure]
            except KeyError:
                raise SchemaError("unknown measure %r" % measure) from None
        if not 0 <= measure < self.n_measures:
            raise QueryError("measure index %r out of range" % (measure,))
        return measure

    def hierarchy(self, dim_index):
        """Concept hierarchy of the dimension at ``dim_index``."""
        return self.dimensions[dim_index].hierarchy

    def record(self, dimension_values, measures):
        """Build a :class:`DataRecord` from label tuples.

        ``dimension_values`` is one tuple of attribute-value labels per
        dimension, ordered from the highest functional attribute down to the
        leaf (e.g. ``("EUROPE", "GERMANY", "BUILDING", "Customer#42")``).
        New labels are inserted into the concept hierarchies on the fly.
        """
        if len(dimension_values) != self.n_dimensions:
            raise SchemaError(
                "expected %d dimension value tuples, got %d"
                % (self.n_dimensions, len(dimension_values))
            )
        measures = tuple(float(x) for x in measures)
        if len(measures) != self.n_measures:
            raise SchemaError(
                "expected %d measures, got %d" % (self.n_measures, len(measures))
            )
        paths = tuple(
            dim.hierarchy.insert_path(values)
            for dim, values in zip(self.dimensions, dimension_values)
        )
        return DataRecord(paths, measures)

    def record_from_ids(self, id_paths, measures):
        """Build a :class:`DataRecord` from already-assigned ID paths."""
        if len(id_paths) != self.n_dimensions:
            raise SchemaError(
                "expected %d ID paths, got %d" % (self.n_dimensions, len(id_paths))
            )
        for dim, path in zip(self.dimensions, id_paths):
            if len(path) != dim.n_attributes:
                raise SchemaError(
                    "dimension %r expects %d IDs per path, got %d"
                    % (dim.name, dim.n_attributes, len(path))
                )
        measures = tuple(float(x) for x in measures)
        if len(measures) != self.n_measures:
            raise SchemaError(
                "expected %d measures, got %d" % (self.n_measures, len(measures))
            )
        return DataRecord(tuple(tuple(p) for p in id_paths), measures)

    def describe(self, record):
        """Human-readable rendering of ``record`` under this schema."""
        parts = []
        for dim, path in zip(self.dimensions, record.paths):
            labels = "/".join(dim.hierarchy.label(v) for v in path)
            parts.append("%s=%s" % (dim.name, labels))
        for measure, value in zip(self.measures, record.measures):
            parts.append("%s=%g" % (measure.name, value))
        return ", ".join(parts)

    def __repr__(self):
        return "CubeSchema(dims=%r, measures=%r)" % (
            [d.name for d in self.dimensions],
            [m.name for m in self.measures],
        )
