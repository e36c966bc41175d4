"""The names the benchmark's tracer wraps still exist where it looks them up.

``bench/`` times a layer by replacing a public function at the name its
caller looks it up under (``bench.tracer.Tracer.instrument``): a module
global through ``getattr``, a method through the class ``__dict__`` (an
inherited method does not count).  A rename or move in ``src/`` that breaks
one of those lookups makes the traced benchmark pass fail while the untimed
operation still works, so this suite resolves every target the same way.
"""

from __future__ import annotations

import pytest

from bench.layers import (
    ENGINE_TARGETS,
    PROFILE_TARGETS,
    SERVICE_TARGETS,
    TRAIN_TARGETS,
)

TARGETS = sorted(
    {
        (target.owner, target.attr): target
        for target in (
            ENGINE_TARGETS + PROFILE_TARGETS + TRAIN_TARGETS + SERVICE_TARGETS
        )
    }.values(),
    key=lambda target: (target.owner, target.attr),
)


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.owner}.{t.attr}" for t in TARGETS]
)
def test_every_traced_target_resolves_as_the_tracer_does(target):
    owner = target.resolve()
    if isinstance(owner, type):
        assert target.attr in owner.__dict__, (
            f"{owner.__name__} no longer defines {target.attr} itself"
        )
        original = owner.__dict__[target.attr]
    else:
        assert hasattr(owner, target.attr), (
            f"{owner.__name__} has no global {target.attr}"
        )
        original = getattr(owner, target.attr)
    assert callable(original)
