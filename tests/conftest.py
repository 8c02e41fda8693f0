"""Shared test settings and helpers.

``--hypothesis-profile thorough`` runs every property test that does not
set its own example count with 2000 examples.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("thorough", max_examples=2000, deadline=None)


@pytest.fixture()
def traced_peak():
    """Call ``fn(*args)`` under tracemalloc and return its result and the
    most bytes held at once by allocations made during the call. numpy
    reports its buffers to tracemalloc, so unlike RSS this is the same on
    every run."""
    def call(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return call
