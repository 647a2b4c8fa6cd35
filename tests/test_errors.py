"""Tests for the exception hierarchy and error ergonomics."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in (
            "SchemaError",
            "HierarchyError",
            "IdSpaceExhaustedError",
            "MdsError",
            "QueryError",
            "StorageError",
            "TreeError",
            "RecordNotFoundError",
        ):
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError), name

    def test_id_space_is_a_hierarchy_error(self):
        assert issubclass(errors.IdSpaceExhaustedError, errors.HierarchyError)

    def test_record_not_found_is_a_tree_error(self):
        assert issubclass(errors.RecordNotFoundError, errors.TreeError)

    def test_one_except_catches_all(self):
        from repro import Warehouse
        from tests.conftest import build_toy_schema

        warehouse = Warehouse(build_toy_schema())
        with pytest.raises(errors.ReproError):
            warehouse.query("median")
