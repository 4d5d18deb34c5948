"""How many dense fields each field suite holds at once, checked against a declared table.

tracemalloc sees numpy's data allocations, so the traced peak of one suite run,
divided by the bytes of one dense field, counts the fields (and parts of
fields) the suite keeps live at its peak.  PEAK_FIELDS holds the count each
suite reaches at kmax 4 with 3 fields, plus 0.5 field-sizes of slack: a change
that binds more intermediates at once fails here.  The per-truncation caches
(`grid`, `mode_symbols`) are built before the measure: they are kept for the
process, not held by the suite, and whichever suite runs first would count them.
"""

import tracemalloc

import pytest

from qhodge import suites
from qhodge.fields import FormField, grid, mode_symbols
from qhodge.suites import SUITES, RunConfig

KMAX, FIELDS = 4, 3
FIELD_BYTES = (2 * KMAX + 1) ** 4 * 16 * 16

PEAK_FIELDS = {"operators": 8.4, "kodaira": 5.9, "transgression": 7.6}


def traced_peak_fields(name: str) -> float:
    """The suite's traced peak above what was live before it, in field-sizes."""
    SUITES[name](RunConfig(kmax=1, field_count=1))  # the fiber tables and caches, built once
    grid(KMAX)
    mode_symbols(KMAX)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        SUITES[name](RunConfig(kmax=KMAX, field_count=FIELDS))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return (peak - before) / FIELD_BYTES


@pytest.mark.parametrize("name", sorted(PEAK_FIELDS))
def test_suite_peak_within_its_declared_field_count(name):
    assert traced_peak_fields(name) <= PEAK_FIELDS[name]


def test_one_more_live_field_is_seen(monkeypatch):
    # the measure sees a single extra whole field held through the suite: here the
    # first kmax-4 draw stays live beside the copy the suite goes on with
    held = []
    original = suites.random_field

    def holding(kmax, rng, **options):
        out = original(kmax, rng, **options)
        if held or kmax != KMAX:
            return out
        held.append(out)
        return FormField(out.kmax, out.coeffs.copy(order="F"))

    base = traced_peak_fields("kodaira")
    monkeypatch.setattr(suites, "random_field", holding)
    assert traced_peak_fields("kodaira") >= base + 0.9
