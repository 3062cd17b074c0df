import sys

import pytest
from hypothesis import settings

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture
def least_digit_limit():
    """Python's limit on integer digits at 640, the least nonzero setting it
    accepts, for one test; the limit is put back after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)
