"""A small SQL-ish query language for warehouses.

Analysts should not have to build ``where`` dicts by hand; this module
parses the fragment of SQL that maps onto the cube's query model:

    SELECT SUM(ExtendedPrice)
    WHERE Customer.Region IN ('EUROPE', 'ASIA') AND Time.Year = '1996'
    GROUP BY Part.Brand

* aggregate: SUM / COUNT / AVG / MIN / MAX; ``COUNT(*)`` counts cells;
* conditions: ``Dimension.Level IN (v, ...)`` or ``Dimension.Level = v``,
  conjoined with AND (ranges over concept-hierarchy values — exactly the
  range-MDS semantics of the paper);
* optional ``GROUP BY Dimension.Level`` (one roll-up dimension).

Keywords are case-insensitive; identifiers and values are
case-sensitive.  Values may be single- or double-quoted (required when
they contain spaces or punctuation).

``parse`` returns a :class:`QuerySpec`; ``execute`` runs one against a
:class:`~repro.warehouse.Warehouse` of any backend.
"""

from __future__ import annotations

from ..cube.aggregation import SUPPORTED_AGGREGATES
from ..errors import QueryError

_KEYWORDS = {"select", "where", "and", "in", "group", "by"}

_PUNCTUATION = {"(", ")", ",", ".", "="}


class QuerySpec:
    """A parsed query, ready to run against any warehouse."""

    __slots__ = ("op", "measure", "where", "group_by")

    def __init__(self, op, measure, where, group_by):
        self.op = op
        self.measure = measure
        self.where = where
        self.group_by = group_by

    def __repr__(self):
        return "QuerySpec(op=%r, measure=%r, where=%r, group_by=%r)" % (
            self.op, self.measure, self.where, self.group_by,
        )


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------


def _tokenize(text):
    """Split ``text`` into (kind, value) tokens.

    Kinds: ``word`` (identifier/keyword/number), ``string`` (was quoted)
    and each punctuation character as its own kind.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCTUATION:
            tokens.append((ch, ch))
            i += 1
        elif ch in ("'", '"'):
            end = text.find(ch, i + 1)
            if end < 0:
                raise QueryError("unterminated string at position %d" % i)
            tokens.append(("string", text[i + 1:end]))
            i = end + 1
        elif ch == "*":
            tokens.append(("word", "*"))
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() \
                    and text[i] not in _PUNCTUATION \
                    and text[i] not in ("'", '"'):
                i += 1
            tokens.append(("word", text[start:i]))
    return tokens


class _Parser:
    """Recursive-descent over the token list."""

    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.position = 0

    # -- primitives --------------------------------------------------------

    def _peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return (None, None)

    def _next(self):
        token = self._peek()
        if token[0] is None:
            raise QueryError("unexpected end of query: %r" % self.text)
        self.position += 1
        return token

    def _expect(self, kind):
        token = self._next()
        if token[0] != kind:
            raise QueryError(
                "expected %r, found %r in %r" % (kind, token[1], self.text)
            )
        return token[1]

    def _keyword(self, word):
        kind, value = self._next()
        if kind != "word" or value.lower() != word:
            raise QueryError(
                "expected %s, found %r in %r"
                % (word.upper(), value, self.text)
            )

    def _at_keyword(self, word):
        kind, value = self._peek()
        return kind == "word" and value.lower() == word

    def _identifier(self):
        kind, value = self._next()
        if kind == "string":
            return value
        if kind != "word" or value.lower() in _KEYWORDS:
            raise QueryError(
                "expected an identifier, found %r in %r"
                % (value, self.text)
            )
        return value

    def _value(self):
        kind, value = self._next()
        if kind not in ("word", "string") or (
            kind == "word" and value.lower() in _KEYWORDS
        ):
            raise QueryError(
                "expected a value, found %r in %r" % (value, self.text)
            )
        return value

    # -- grammar -----------------------------------------------------------

    def parse(self):
        self._keyword("select")
        op = self._identifier().lower()
        if op not in SUPPORTED_AGGREGATES:
            raise QueryError(
                "unknown aggregate %r (one of %s)"
                % (op, ", ".join(a.upper() for a in SUPPORTED_AGGREGATES))
            )
        self._expect("(")
        measure = self._value()
        self._expect(")")
        if measure == "*":
            if op != "count":
                raise QueryError("'*' is only valid in COUNT(*)")
            measure = None

        where = {}
        if self._at_keyword("where"):
            self._next()
            self._condition(where)
            while self._at_keyword("and"):
                self._next()
                self._condition(where)

        group_by = None
        if self._at_keyword("group"):
            self._next()
            self._keyword("by")
            group_by = self._dimref()

        kind, value = self._peek()
        if kind is not None:
            raise QueryError(
                "unexpected trailing %r in %r" % (value, self.text)
            )
        return QuerySpec(op, measure, where, group_by)

    def _dimref(self):
        dimension = self._identifier()
        self._expect(".")
        level = self._identifier()
        return dimension, level

    def _condition(self, where):
        dimension, level = self._dimref()
        if dimension in where:
            raise QueryError(
                "dimension %r constrained twice (combine the values into "
                "one IN list)" % dimension
            )
        kind, _value = self._peek()
        if self._at_keyword("in"):
            self._next()
            self._expect("(")
            values = [self._value()]
            while self._peek()[0] == ",":
                self._next()
                values.append(self._value())
            self._expect(")")
        elif kind == "=":
            self._next()
            values = [self._value()]
        else:
            raise QueryError(
                "expected IN (...) or = after %s.%s in %r"
                % (dimension, level, self.text)
            )
        where[dimension] = (level, values)


def parse(text):
    """Parse one query; returns a :class:`QuerySpec`."""
    tokens = _tokenize(text)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens, text).parse()


def execute(warehouse, text):
    """Parse and run ``text`` against ``warehouse``.

    Returns a scalar for plain aggregates or a ``{label: value}`` dict
    for GROUP BY queries.  ``COUNT(*)`` counts cells (measure 0's count).
    """
    spec = parse(text)
    measure = spec.measure if spec.measure is not None else 0
    if spec.group_by is not None:
        dimension, level = spec.group_by
        return warehouse.group_by(
            dimension, level, op=spec.op, measure=measure, where=spec.where,
        )
    return warehouse.query(spec.op, measure=measure, where=spec.where)
