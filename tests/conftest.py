"""Fixtures shared by the test modules."""

import pytest

from hdivkit import harness


@pytest.fixture
def fresh_field_sides():
    """The studies' field-side cache, emptied before the test and after it: a test
    that counts or patches a field's evaluations sees its own studies fill it, and
    no value a patched method returned outlives the test."""
    harness.field_side.cache_clear()
    yield harness.field_side
    harness.field_side.cache_clear()
