"""Deterministic TPC-D-style data generator (the paper's §5.1 substitute).

The paper materialized its test cube by SQL selections over a TPC-D
database into a flat insert file.  This generator produces the same shape
directly: records over the four-dimensional cube of Fig. 8/9 with TPC-D's
real value domains and TPC-D-like cardinality ratios (one customer per
~40 line items, one supplier per ~600, one part per ~30), uniformly
distributed as in TPC-D's dbgen, fully reproducible from a seed.
"""

from __future__ import annotations

import random

from ..errors import SchemaError
from . import names
from .schema import make_tpcd_schema


class TPCDGenerator:
    """Streams TPC-D-like data records for a given cube schema.

    Parameters
    ----------
    schema:
        The cube schema to populate; a fresh TPC-D schema when omitted.
    seed:
        RNG seed; identical seeds yield identical record streams.
    scale_records:
        Intended total number of records — sizes the customer, supplier
        and part pools with TPC-D's cardinality ratios.  Generating more
        records than this is allowed (the pools simply get denser).
    """

    #: TPC-D cardinality ratios: line items per dimension entity.
    RECORDS_PER_CUSTOMER = 40
    RECORDS_PER_SUPPLIER = 600
    RECORDS_PER_PART = 30

    def __init__(self, schema=None, seed=0, scale_records=30000):
        if scale_records < 1:
            raise SchemaError("scale_records must be positive")
        self.schema = schema if schema is not None else make_tpcd_schema()
        if self.schema.n_dimensions != 4 or self.schema.n_measures < 1:
            raise SchemaError(
                "TPCDGenerator needs the 4-dimensional TPC-D cube schema"
            )
        self.seed = seed
        self._rng = random.Random(seed)
        self.customers = self._make_customers(
            max(25, scale_records // self.RECORDS_PER_CUSTOMER)
        )
        self.suppliers = self._make_suppliers(
            max(10, scale_records // self.RECORDS_PER_SUPPLIER)
        )
        self.parts = self._make_parts(
            max(25, scale_records // self.RECORDS_PER_PART)
        )

    # ------------------------------------------------------------------
    # entity pools
    # ------------------------------------------------------------------

    def _make_customers(self, count):
        customers = []
        for key in range(count):
            nation, region = self._rng.choice(names.NATION_REGIONS)
            segment = self._rng.choice(names.MARKET_SEGMENTS)
            customers.append(
                (region, nation, segment, "Customer#%06d" % key)
            )
        return tuple(customers)

    def _make_suppliers(self, count):
        suppliers = []
        for key in range(count):
            nation, region = self._rng.choice(names.NATION_REGIONS)
            suppliers.append((region, nation, "Supplier#%06d" % key))
        return tuple(suppliers)

    def _make_parts(self, count):
        parts = []
        for key in range(count):
            brand = self._rng.choice(names.BRANDS)
            part_type = self._rng.choice(names.PART_TYPES)
            parts.append((brand, part_type, "Part#%06d" % key))
        return tuple(parts)

    def _random_date(self):
        year = self._rng.choice(names.YEARS)
        month = self._rng.choice(names.MONTHS)
        day = self._rng.randint(1, names.days_in_month(year, month))
        return (str(year), "%04d-%02d" % (year, month),
                "%04d-%02d-%02d" % (year, month, day))

    def _extended_price(self):
        # TPC-D: extendedprice = quantity in [1, 50] times a retail price
        # around 900..2000 currency units.
        quantity = self._rng.randint(1, 50)
        retail = self._rng.uniform(900.0, 2000.0)
        return round(quantity * retail, 2)

    # ------------------------------------------------------------------
    # record generation
    # ------------------------------------------------------------------

    def record(self):
        """One fresh data record (a line item of the cube)."""
        return self.schema.record(
            (
                self._rng.choice(self.customers),
                self._rng.choice(self.suppliers),
                self._rng.choice(self.parts),
                self._random_date(),
            ),
            (self._extended_price(),),
        )

    def records(self, count):
        """Generate ``count`` records lazily."""
        for _ in range(count):
            yield self.record()

    def generate(self, count):
        """Generate ``count`` records as a list."""
        return [self.record() for _ in range(count)]
