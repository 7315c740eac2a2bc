from __future__ import annotations

import sys

import pytest


@pytest.fixture
def digit_limit():
    """Pin the int-to-str digit limit at CPython's default for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
