"""Fixtures shared by the test modules."""

import gc

import pytest


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """The caller's cyclic GC state, enabled or disabled; put back after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
