import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(fn): run fn() under tracemalloc and return the bytes of
    the traced peak above the traced memory at entry."""
    def measure(fn):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
    return measure
