"""One differential check: two configurations, one operation sequence.

A configuration that only changes *how* the index works — answers served
from the result cache or recomputed, telemetry on or off, serial or
batched inserts — must not
change what it answers, the tree it builds or the deterministic counters
it charges.  :func:`assert_same_run` states that once for all of them.
"""

from __future__ import annotations

from repro.core.debug import structure_digest

#: The five deterministic tracker counters.
COUNTERS = (
    "node_accesses", "buffer_hits", "buffer_misses", "page_writes",
    "cpu_units",
)

#: The read-side counters (batches coalesce page writes and fold CPU).
READ_COUNTERS = COUNTERS[:3]


def counter_tuple(index, counters=COUNTERS):
    """The named counters of an index's (or warehouse's) tracker."""
    snapshot = index.tracker.snapshot()
    return tuple(getattr(snapshot, name) for name in counters)


def assert_same_run(run, config_a, config_b, counters=COUNTERS):
    """Run ``run(config)`` for both configs and assert they agree.

    ``run`` applies the operation sequence under one configuration and
    returns ``(index, answers)``; ``index`` is a DC-tree, X-tree, flat
    table or a :class:`~repro.Warehouse` over one.  Both runs must give
    equal answers, equal :func:`structure_digest`\\ s and equal
    ``counters``.  Returns the two indexes for further checks.
    """
    indexes = []
    outcomes = []
    for config in (config_a, config_b):
        index, answers = run(config)
        indexes.append(index)
        outcomes.append((
            answers,
            structure_digest(getattr(index, "index", index)),
            counter_tuple(index, counters),
        ))
    (answers_a, digest_a, counters_a), (answers_b, digest_b, counters_b) = (
        outcomes
    )
    assert answers_a == answers_b
    assert digest_a == digest_b
    assert counters_a == counters_b, list(
        zip(counters, counters_a, counters_b)
    )
    return tuple(indexes)
