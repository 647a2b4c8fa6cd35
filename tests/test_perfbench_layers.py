"""perfbench's ``--trace 1`` layers install over, and restore, the package.

``perfbench/tracing.py`` wraps functions of ``src/`` by module and
attribute name (its ``LAYERS`` table), so a rename in the package breaks
every traced run.  One test installs every layer, checks each one took
the place of its original, removes them and checks that each attribute
is the original object again.  A wrapped name can also survive while
its caller stops looking it up (a direct reference instead of the
module global), and then the layer reads zero; the other test drives a
split through the traced entry point and checks that the write-path
layers still see calls.  Both only read ``perfbench/``.
"""

from __future__ import annotations

import inspect
import os

import pytest

from repro import DCTreeConfig, DurableWarehouse, Warehouse
from tests.conftest import TOY_ROWS, build_toy_schema

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_every_trace_layer_installs_and_restores(tracing):
    originals = []
    for owner, attribute, *_ in tracing.LAYERS:
        target = tracing._resolve(owner)
        originals.append(
            (owner, attribute, target,
             inspect.getattr_static(target, attribute))
        )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attribute, target, raw in originals:
            assert inspect.getattr_static(target, attribute) is not raw, (
                "%s.%s was not wrapped" % (owner, attribute)
            )
    finally:
        tracer.remove()
    for owner, attribute, target, raw in originals:
        assert inspect.getattr_static(target, attribute) is raw, (
            "%s.%s was not restored" % (owner, attribute)
        )


def test_write_path_layers_see_calls(tracing, tmp_path):
    warehouse = Warehouse(build_toy_schema(), "dc-tree",
                          config=DCTreeConfig(leaf_capacity=4,
                                              dir_capacity=4))
    session = DurableWarehouse.create(str(tmp_path / "traced"), warehouse)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.armed = True
        session.insert_many([(((country, city), (color,)), (sales,))
                             for country, city, color, sales in TOY_ROWS])
    finally:
        tracer.armed = False
        tracer.remove()
        session.close()
    assert not warehouse.index.root.is_leaf, "the batch did not split"
    for name in ("core.tree.insert_batch", "core.split.plan_node_split",
                 "core.split.choose_seeds"):
        assert tracer.calls(name) >= 1, "%s saw no call" % name
