"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn`` once and returns the
    tracemalloc peak of that call, in bytes."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
