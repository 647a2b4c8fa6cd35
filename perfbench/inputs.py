"""Seeded benchmark inputs: TPC-D-shaped label rows and label queries.

Everything the warehouse receives is made here from the seed, in label
space only, so the program under test never generates its own inputs.
Rows follow the shape of the paper's test cube (Fig. 8/9): Customer
(Region, Nation, MktSegment, Custkey), Supplier (Region, Nation,
Suppkey), Part (Brand, Type, Partkey) and Time (Year, Month, Day), with
TPC-D's cardinality ratios (one customer per ~40 line items, one
supplier per ~600, one part per ~30), drawn uniformly as TPC-D's dbgen
does.

Range queries follow §5.2 of the paper, translated to labels: per
dimension a random functional level and a random subset of the labels
present at that level, capped by the selectivity.
"""

import random

_NATIONS = {
    "AFRICA": ("ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"),
    "AMERICA": ("ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"),
    "ASIA": ("CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"),
    "EUROPE": ("FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"),
    "MIDDLE EAST": ("EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"),
}
_NATION_REGIONS = tuple(
    (nation, region)
    for region, nations in sorted(_NATIONS.items())
    for nation in nations
)
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_BRANDS = tuple("Brand#%d%d" % (i, j) for i in range(1, 6) for j in range(1, 6))
_TYPES = tuple(
    "%s %s %s" % (a, b, c)
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
)
_YEARS = tuple(range(1992, 1999))

#: Dimension names and level names, highest functional level first —
#: the order label paths are written in.
DIMENSIONS = (
    ("Customer", ("Region", "Nation", "MktSegment", "Custkey")),
    ("Supplier", ("Region", "Nation", "Suppkey")),
    ("Part", ("Brand", "Type", "Partkey")),
    ("Time", ("Year", "Month", "Day")),
)
MEASURE = "ExtendedPrice"


def _days_in_month(year, month):
    if month == 2:
        return 29 if year % 4 == 0 else 28
    return 30 if month in (4, 6, 9, 11) else 31


class RowSource:
    """Seeded stream of ``(dimension_values, measures)`` label rows.

    ``scale`` sizes the customer, supplier and part pools; every row
    drawn later (pre-load, streamed batches) comes from the same pools.
    """

    def __init__(self, seed, scale):
        self._rng = rng = random.Random(seed)
        self.customers = tuple(
            (region, nation, rng.choice(_SEGMENTS), "Customer#%06d" % key)
            for key in range(max(25, scale // 40))
            for nation, region in (rng.choice(_NATION_REGIONS),)
        )
        self.suppliers = tuple(
            (region, nation, "Supplier#%06d" % key)
            for key in range(max(10, scale // 600))
            for nation, region in (rng.choice(_NATION_REGIONS),)
        )
        self.parts = tuple(
            (rng.choice(_BRANDS), rng.choice(_TYPES), "Part#%06d" % key)
            for key in range(max(25, scale // 30))
        )

    def row(self):
        rng = self._rng
        year = rng.choice(_YEARS)
        month = rng.randint(1, 12)
        day = rng.randint(1, _days_in_month(year, month))
        date = (str(year), "%04d-%02d" % (year, month),
                "%04d-%02d-%02d" % (year, month, day))
        price = round(rng.randint(1, 50) * rng.uniform(900.0, 2000.0), 2)
        return (
            (rng.choice(self.customers), rng.choice(self.suppliers),
             rng.choice(self.parts), date),
            (price,),
        )

    def rows(self, count):
        """``count`` rows in date order, as a warehouse load receives them.

        Randomly ordered facts make the DC-tree's directory splits a coin
        toss: on some seeds the root never splits and grows into one wide
        supernode, which doubles insert and query cost.  Date order keeps
        the tree's shape, and so the benchmark's figures, alike across
        seeds.
        """
        return sorted((self.row() for _ in range(count)),
                      key=lambda row: row[0][3])


class LabelCatalog:
    """The labels present at each (dimension, level) of a row set, which
    may grow with :meth:`add`."""

    def __init__(self, rows=()):
        self._seen = [
            [set() for _ in levels] for _name, levels in DIMENSIONS
        ]
        self._labels = None
        self.add(rows)

    def add(self, rows):
        for dimension_values, _measures in rows:
            for dim, path in enumerate(dimension_values):
                for level, label in enumerate(path):
                    self._seen[dim][level].add(label)
        self._labels = None

    @property
    def labels(self):
        if self._labels is None:
            self._labels = [[sorted(s) for s in dims] for dims in self._seen]
        return self._labels


class QuerySource:
    """Seeded §5.2-style label range queries over a :class:`LabelCatalog`.

    A query is a ``where`` dict ``{dimension: (level_name, [labels])}``
    constraining every dimension; an empty dict is the whole cube.

    A query's shape — which dimensions it constrains and at which level —
    comes from ``shape_seed``, its labels from ``seed``.  A query's cost
    depends mostly on its shape, so with one shape sequence for every
    seed the seed changes what is asked but not the mix of cheap and
    costly queries, which would otherwise move the tail percentiles from
    seed to seed.
    """

    def __init__(self, catalog, seed, shape_seed):
        self._catalog = catalog
        self._rng = random.Random(seed)
        self._shapes = random.Random(shape_seed)

    def where(self, selectivity, n_dims=None):
        rng, shapes = self._rng, self._shapes
        dims = range(len(DIMENSIONS))
        if n_dims is not None:
            dims = sorted(shapes.sample(list(dims), n_dims))
        where = {}
        for dim in dims:
            name, levels = DIMENSIONS[dim]
            level = shapes.randrange(len(levels))
            candidates = self._catalog.labels[dim][level]
            cap = max(1, int(selectivity * len(candidates)))
            where[name] = (levels[level], sorted(rng.sample(candidates, cap)))
        return where


def sql_text(op, where, group_by=None):
    """Render a query as the warehouse's SQL dialect (see repro.query.sql)."""
    measure = "*" if op == "count" else MEASURE
    text = "SELECT %s(%s)" % (op.upper(), measure)
    conditions = [
        "%s.%s IN (%s)" % (
            dim, level, ", ".join("'%s'" % label for label in labels)
        )
        for dim, (level, labels) in where.items()
    ]
    if conditions:
        text += " WHERE " + " AND ".join(conditions)
    if group_by is not None:
        text += " GROUP BY %s.%s" % group_by
    return text
