"""Static materialized aggregate views, the related-work baseline ([7])."""

from .view import (
    MaterializedAggregateView,
    StaleViewError,
    UnanswerableQueryError,
)

__all__ = [
    "MaterializedAggregateView",
    "StaleViewError",
    "UnanswerableQueryError",
]
