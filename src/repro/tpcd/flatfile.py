r"""Flat insert files (§5.1 of the paper).

"The intended data cube is created by SQL select operations on the TPC-D
database.  The output of these operations is stored in a flatfile which
functions as the insert file for the DC-tree and for the two other index
structures."

The format is TPC-D ``.tbl``-style, pipe-delimited text, one record per
line, with a small self-describing header so a reader can rebuild the
cube schema (dimension labels are stored, IDs are reassigned on read —
concept hierarchies are *dynamic*, §3.1, so this loses nothing):

    #dcube 1
    #dimension Customer|Custkey|MktSegment|Nation|Region
    ...
    #measure ExtendedPrice
    EUROPE|GERMANY|BUILDING|Customer#000001|...|4200.0

Values are ordered per dimension from the highest functional attribute
down to the leaf, matching :meth:`CubeSchema.record`.  After the header,
every non-blank line is a record.  Names and labels are escaped exactly:
``\``, ``|``, carriage return and newline become ``\u005c``, ``\u007c``,
``\u000d`` and ``\u000a``, and a leading ``#`` becomes ``\u0023``, so no
record line is mistaken for a header line or split by a label.
"""

from __future__ import annotations

import itertools
import re

from ..cube.schema import CubeSchema, Dimension, Measure
from ..errors import StorageError

#: Magic first line (with format version).
_MAGIC = "#dcube 1"
_DELIMITER = "|"
_ESCAPES = str.maketrans({
    char: "\\u%04x" % ord(char) for char in "\\|\r\n"
})
_ESCAPED_CHAR = re.compile(r"\\u([0-9a-f]{4})")


def _escape(label):
    text = str(label).translate(_ESCAPES)
    if text.startswith("#"):
        return "\\u0023" + text[1:]
    return text


def _unescape(field):
    if "\\" not in field:
        return field
    return _ESCAPED_CHAR.sub(lambda match: chr(int(match.group(1), 16)), field)


def write_flatfile(path, schema, records):
    """Write ``records`` to ``path``; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        handle.write(_MAGIC + "\n")
        for dimension in schema.dimensions:
            handle.write(
                "#dimension %s\n"
                % _DELIMITER.join(
                    [_escape(dimension.name)]
                    + [_escape(name) for name in dimension.level_names]
                )
            )
        for measure in schema.measures:
            handle.write("#measure %s\n" % _escape(measure.name))
        for record in records:
            fields = []
            for dim_index, path_ids in enumerate(record.paths):
                hierarchy = schema.hierarchy(dim_index)
                fields.extend(
                    _escape(hierarchy.label(v)) for v in path_ids
                )
            fields.extend("%r" % m for m in record.measures)
            handle.write(_DELIMITER.join(fields) + "\n")
            count += 1
    return count


def read_schema(path):
    """Read only the schema header of a flat file."""
    with open(path) as handle:
        schema, _pending = _read_header(handle, path)
    return schema


def _read_header(handle, path):
    """Consume the header from ``handle``; returns the schema and the
    first line after the header (``""`` at end of file)."""
    first = handle.readline().rstrip("\n")
    if first != _MAGIC:
        raise StorageError(
            "%s is not a dcube flat file (bad magic %r)" % (path, first)
        )
    dimensions = []
    measures = []
    while True:
        line = handle.readline()
        keyword, _, rest = line.rstrip("\n").partition(" ")
        if keyword == "#dimension":
            fields = [_unescape(f) for f in rest.split(_DELIMITER)]
            if len(fields) < 2:
                raise StorageError("malformed dimension header: %r" % line)
            dimensions.append(Dimension(fields[0], tuple(fields[1:])))
        elif keyword == "#measure":
            measures.append(Measure(_unescape(rest)))
        else:
            break
    if not dimensions or not measures:
        raise StorageError("flat file %s has an incomplete header" % path)
    return CubeSchema(dimensions, measures), line


def read_flatfile(path):
    """Read records from ``path``; returns ``(schema, records)``.

    The schema is built fresh from the file's header.
    """
    records = []
    with open(path) as handle:
        schema, pending = _read_header(handle, path)
        n_fields = schema.n_flat_attributes + schema.n_measures
        first_number = 2 + schema.n_dimensions + schema.n_measures
        lines = itertools.chain([pending], handle)
        for line_number, line in enumerate(lines, start=first_number):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(_DELIMITER)
            if len(fields) != n_fields:
                raise StorageError(
                    "%s:%d: expected %d fields, found %d"
                    % (path, line_number, n_fields, len(fields))
                )
            position = 0
            dimension_values = []
            for dimension in schema.dimensions:
                width = dimension.n_attributes
                dimension_values.append(
                    tuple(
                        _unescape(f)
                        for f in fields[position:position + width]
                    )
                )
                position += width
            try:
                measures = tuple(float(f) for f in fields[position:])
            except ValueError:
                raise StorageError(
                    "%s:%d: non-numeric measure value" % (path, line_number)
                ) from None
            records.append(schema.record(dimension_values, measures))
    return schema, records
