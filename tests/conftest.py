"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def no_int_limit():
    """Lift the int-to-str limit, so str() can write the reference at any length; restored afterwards.

    The original setter is kept, so a test may patch ``sys.set_int_max_str_digits``.
    """
    saved, restore = sys.get_int_max_str_digits(), sys.set_int_max_str_digits
    restore(0)
    yield
    restore(saved)
