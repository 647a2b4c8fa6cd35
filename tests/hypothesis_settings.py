"""Named Hypothesis budgets for the property tests.

Import a tier instead of writing an inline ``@settings(...)``::

    from tests.hypothesis_settings import TREE_SETTINGS

    @TREE_SETTINGS
    @given(...)
    def test_something(...):
        ...

Tiers (examples per property; every tier has no deadline, because one
example may build a whole tree):

- ``PROFILE_SETTINGS``: the loaded profile's budget (``dev`` 20, ``ci``
  100, see ``conftest.py``) — the toy-cube and X-tree differential
  properties, which are cheap enough to scale with the profile;
- ``TREE_SETTINGS``: 40 — properties that build a TPC-D-shaped tree or
  run several backends per example;
- ``GEOMETRY_SETTINGS``: 60 — X-tree split properties over random boxes;
- ``STATE_MACHINE_SETTINGS``: 25 programs of up to 30 steps — the
  DC-tree state machine;
- ``DURABLE_MACHINE_SETTINGS``: 10 programs of up to 12 steps — the
  durable-session machine, whose every reopen re-checkpoints and audits
  a warehouse on disk;
- ``FILTER_SETTINGS``: 300 — the leaf record filter against the
  one-record coverage test: a pure function, so examples are cheap and
  every level of every hierarchy should be drawn often.

The fixed-budget tiers do not follow the profile.  This module must be
imported after ``conftest.py`` has loaded the profile (pytest guarantees
that), since a tier inherits unset values from it at import.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings

_SLOW_OK = [HealthCheck.too_slow]

PROFILE_SETTINGS = settings(deadline=None, suppress_health_check=_SLOW_OK)
TREE_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=_SLOW_OK
)
GEOMETRY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=_SLOW_OK
)
STATE_MACHINE_SETTINGS = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
DURABLE_MACHINE_SETTINGS = settings(
    max_examples=10, stateful_step_count=12, deadline=None,
    suppress_health_check=_SLOW_OK,
)
FILTER_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=_SLOW_OK
)
