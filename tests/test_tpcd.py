"""Unit tests for the TPC-D-style schema and generator."""

import pytest

from repro import TPCDGenerator, make_tpcd_schema
from repro.errors import SchemaError
from repro.tpcd import names
from repro.tpcd.schema import CUSTOMER, PART, SUPPLIER, TIME


class TestVocabularies:
    def test_five_regions(self):
        assert len(names.REGIONS) == 5

    def test_twenty_five_nations_with_valid_regions(self):
        assert len(names.NATION_REGIONS) == 25
        for _nation, region in names.NATION_REGIONS:
            assert region in names.REGIONS

    def test_five_market_segments(self):
        assert len(names.MARKET_SEGMENTS) == 5

    def test_twenty_five_brands(self):
        assert len(names.BRANDS) == 25
        assert len(set(names.BRANDS)) == 25

    def test_150_part_types(self):
        assert len(names.PART_TYPES) == 150

    def test_days_in_month_leap_years(self):
        assert names.days_in_month(1996, 2) == 29
        assert names.days_in_month(1997, 2) == 28
        assert names.days_in_month(1996, 1) == 31


class TestSchema:
    def test_four_dimensions_one_measure(self):
        schema = make_tpcd_schema()
        assert schema.n_dimensions == 4
        assert schema.n_measures == 1
        assert schema.measures[0].name == "ExtendedPrice"

    def test_hierarchy_shapes_of_fig9(self):
        schema = make_tpcd_schema()
        assert schema.dimensions[CUSTOMER].level_names == (
            "Custkey", "MktSegment", "Nation", "Region",
        )
        assert schema.dimensions[SUPPLIER].level_names == (
            "Suppkey", "Nation", "Region",
        )
        assert schema.dimensions[PART].level_names == (
            "Partkey", "Type", "Brand",
        )
        assert schema.dimensions[TIME].level_names == ("Day", "Month", "Year")

    def test_flat_space_is_13_dimensional(self):
        assert make_tpcd_schema().n_flat_attributes == 13


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = TPCDGenerator(seed=9, scale_records=300)
        b = TPCDGenerator(seed=9, scale_records=300)
        for record_a, record_b in zip(a.records(50), b.records(50)):
            assert record_a == record_b

    def test_different_seeds_differ(self):
        a = TPCDGenerator(seed=1, scale_records=300).generate(30)
        b = TPCDGenerator(seed=2, scale_records=300).generate(30)
        assert a != b

    def test_pool_sizes_follow_ratios(self):
        generator = TPCDGenerator(seed=0, scale_records=30000)
        assert len(generator.customers) == 30000 // 40
        assert len(generator.suppliers) == 30000 // 600
        assert len(generator.parts) == 30000 // 30

    def test_minimum_pool_sizes(self):
        generator = TPCDGenerator(seed=0, scale_records=10)
        assert len(generator.customers) >= 25
        assert len(generator.suppliers) >= 10
        assert len(generator.parts) >= 25

    def test_records_conform_to_schema(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=0, scale_records=100)
        for record in generator.records(20):
            assert len(record.paths) == 4
            assert len(record.flat_point()) == 13
            assert len(record.measures) == 1

    def test_measure_range_is_tpcd_like(self):
        generator = TPCDGenerator(seed=0, scale_records=100)
        for record in generator.records(100):
            assert 900.0 <= record.measures[0] <= 100000.0

    def test_customer_paths_use_tpcd_domains(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=0, scale_records=100)
        generator.generate(50)
        hierarchy = schema.hierarchy(CUSTOMER)
        for region in hierarchy.values_at_level(3):
            assert hierarchy.label(region) in names.REGIONS
        for nation in hierarchy.values_at_level(2):
            assert hierarchy.label(nation) in dict(names.NATION_REGIONS)

    def test_nation_region_consistency(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=3, scale_records=200)
        generator.generate(100)
        hierarchy = schema.hierarchy(CUSTOMER)
        region_of = dict(names.NATION_REGIONS)
        for nation in hierarchy.values_at_level(2):
            parent = hierarchy.parent(nation)
            assert hierarchy.label(parent) == region_of[
                hierarchy.label(nation)
            ]

    def test_time_paths_are_consistent_dates(self):
        schema = make_tpcd_schema()
        generator = TPCDGenerator(schema, seed=0, scale_records=100)
        for record in generator.records(50):
            hierarchy = schema.hierarchy(TIME)
            year, month, day = (
                hierarchy.label(v) for v in record.paths[TIME]
            )
            assert month.startswith(year)
            assert day.startswith(month)

    def test_scale_records_must_be_positive(self):
        with pytest.raises(SchemaError):
            TPCDGenerator(scale_records=0)

    def test_wrong_schema_rejected(self, toy_schema):
        with pytest.raises(SchemaError):
            TPCDGenerator(schema=toy_schema)

    def test_generate_returns_requested_count(self):
        generator = TPCDGenerator(seed=0, scale_records=100)
        assert len(generator.generate(37)) == 37
