"""Fixtures shared by every test module."""

import pytest

from sitsformer.tensor import active_tape


@pytest.fixture(autouse=True)
def empty_tape():
    """Run each test on an empty tape for this thread, and empty it after.

    A test that records a forward and never calls ``backward`` would
    otherwise leave its entries for the next test to count.
    """
    active_tape().clear()
    yield
    active_tape().clear()
