"""Shared pickling policy for objects carrying derived caches.

Several hot objects (encoded videos, throughput traces) cache derived
arrays on themselves under underscore attributes.  Those caches are cheap
to re-derive but roughly double pickle payloads and deep copies of work
orders and results.  The policy — serialise only the declared (non-underscore)
state — lives here so every class applies the same filter.
"""

from __future__ import annotations


def public_state(obj) -> dict:
    """``__getstate__`` body: the instance dict minus underscore attributes."""
    return {
        key: value
        for key, value in obj.__dict__.items()
        if not key.startswith("_")
    }
