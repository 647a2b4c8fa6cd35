"""Unit tests for measure summaries and aggregate vectors."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cube.aggregation import (
    AggregateVector,
    MeasureSummary,
    StreamingAggregator,
)
from repro.errors import QueryError
from tests.conftest import build_toy_schema, toy_record

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMeasureSummary:
    def test_empty(self):
        summary = MeasureSummary()
        assert summary.is_empty()
        assert summary.aggregate("sum") == 0.0
        assert summary.aggregate("count") == 0

    def test_empty_avg_min_max_are_none(self):
        summary = MeasureSummary()
        assert summary.aggregate("avg") is None
        assert summary.aggregate("min") is None
        assert summary.aggregate("max") is None

    def test_single_value(self):
        summary = MeasureSummary.of_value(5.0)
        assert summary.aggregate("sum") == 5.0
        assert summary.aggregate("count") == 1
        assert summary.aggregate("avg") == 5.0
        assert summary.aggregate("min") == 5.0
        assert summary.aggregate("max") == 5.0

    def test_add_values(self):
        summary = MeasureSummary()
        for value in (3.0, -1.0, 7.0):
            summary.add_value(value)
        assert summary.aggregate("sum") == 9.0
        assert summary.aggregate("min") == -1.0
        assert summary.aggregate("max") == 7.0
        assert summary.aggregate("avg") == 3.0

    def test_add_summary_merges(self):
        a = MeasureSummary.of_value(2.0)
        b = MeasureSummary.of_value(10.0)
        a.add_summary(b)
        assert a.aggregate("count") == 2
        assert a.aggregate("max") == 10.0

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            MeasureSummary().aggregate("median")

    def test_copy_is_independent(self):
        a = MeasureSummary.of_value(1.0)
        b = a.copy()
        b.add_value(100.0)
        assert a.aggregate("count") == 1

    def test_equality(self):
        a = MeasureSummary.of_value(2.0)
        b = MeasureSummary.of_value(2.0)
        assert a == b
        b.add_value(1.0)
        assert a != b

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_matches_builtin_aggregates(self, values):
        summary = MeasureSummary()
        for value in values:
            summary.add_value(value)
        assert math.isclose(summary.aggregate("sum"), sum(values),
                            abs_tol=1e-6)
        assert summary.aggregate("count") == len(values)
        assert summary.aggregate("min") == min(values)
        assert summary.aggregate("max") == max(values)
        assert math.isclose(
            summary.aggregate("avg"), sum(values) / len(values), abs_tol=1e-6
        )

    @given(
        st.lists(finite_floats, min_size=2, max_size=30),
        st.integers(min_value=1, max_value=10),
    )
    def test_merge_equals_concatenation(self, values, cut_at):
        cut = min(cut_at, len(values) - 1)
        left = MeasureSummary()
        for value in values[:cut]:
            left.add_value(value)
        right = MeasureSummary()
        for value in values[cut:]:
            right.add_value(value)
        left.add_summary(right)
        whole = MeasureSummary()
        for value in values:
            whole.add_value(value)
        assert left == whole


class TestAggregateVector:
    def test_of_record(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 12.0)
        vector = AggregateVector.of_record(record)
        assert vector.count == 1
        assert vector.aggregate("sum") == 12.0

    def test_add_vector(self):
        schema = build_toy_schema()
        a = AggregateVector.of_record(
            toy_record(schema, "DE", "Munich", "red", 3.0)
        )
        b = AggregateVector.of_record(
            toy_record(schema, "DE", "Berlin", "red", 4.0)
        )
        a.add_vector(b)
        assert a.aggregate("sum") == 7.0
        assert a.count == 2

    def test_clear(self):
        schema = build_toy_schema()
        vector = AggregateVector.of_record(
            toy_record(schema, "DE", "Munich", "red", 3.0)
        )
        vector.clear()
        assert vector.count == 0
        assert vector.aggregate("sum") == 0.0

    def test_copy_independent(self):
        schema = build_toy_schema()
        vector = AggregateVector.of_record(
            toy_record(schema, "DE", "Munich", "red", 3.0)
        )
        clone = vector.copy()
        clone.add_record(toy_record(schema, "FR", "Paris", "red", 5.0))
        assert vector.count == 1
        assert clone.count == 2

    def test_equality(self):
        schema = build_toy_schema()
        record = toy_record(schema, "DE", "Munich", "red", 3.0)
        assert AggregateVector.of_record(record) == AggregateVector.of_record(
            record
        )


class TestStreamingAggregator:
    def test_rejects_unknown_op(self):
        with pytest.raises(QueryError):
            StreamingAggregator("median")

    def test_accumulates_records(self):
        schema = build_toy_schema()
        aggregator = StreamingAggregator("sum")
        aggregator.add_record(toy_record(schema, "DE", "Munich", "red", 3.0))
        aggregator.add_record(toy_record(schema, "FR", "Paris", "red", 4.0))
        assert aggregator.result() == 7.0
        assert aggregator.summary.count == 2

    def test_accumulates_vectors(self):
        schema = build_toy_schema()
        aggregator = StreamingAggregator("max")
        aggregator.add_vector(
            AggregateVector.of_record(
                toy_record(schema, "DE", "Munich", "red", 3.0)
            )
        )
        aggregator.add_vector(
            AggregateVector.of_record(
                toy_record(schema, "FR", "Paris", "red", 11.0)
            )
        )
        assert aggregator.result() == 11.0

    def test_mixed_records_and_vectors(self):
        schema = build_toy_schema()
        aggregator = StreamingAggregator("count")
        aggregator.add_record(toy_record(schema, "DE", "Munich", "red", 3.0))
        aggregator.add_vector(
            AggregateVector.of_record(
                toy_record(schema, "FR", "Paris", "red", 4.0)
            )
        )
        assert aggregator.result() == 2

    def test_empty_sum_is_zero(self):
        assert StreamingAggregator("sum").result() == 0.0

    def test_empty_avg_is_none(self):
        assert StreamingAggregator("avg").result() is None

    def test_second_measure_index(self):
        aggregator = StreamingAggregator("sum", measure_index=1)
        vector = AggregateVector(2)
        vector.summaries[1].add_value(42.0)
        aggregator.add_vector(vector)
        assert aggregator.result() == 42.0
