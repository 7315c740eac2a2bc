from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def digit_limit():
    """Pin the int-to-str digit limit at CPython's default for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment of a Python child process that imports the package
    from ``src``.  PYTHONDONTWRITEBYTECODE passes through, so a test run that
    writes no bytecode leaves no ``.pyc`` files under ``src`` either."""
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
