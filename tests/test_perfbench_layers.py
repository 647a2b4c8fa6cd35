"""perfbench's ``--trace 1`` layers install over, and restore, the package.

``perfbench/tracing.py`` wraps functions of ``src/`` by module and
attribute name (its ``LAYERS`` table), so a rename in the package breaks
every traced run.  This test installs every layer, checks each one took
the place of its original, removes them and checks that each attribute
is the original object again.  It only reads ``perfbench/``.
"""

from __future__ import annotations

import inspect
import os

import pytest

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
