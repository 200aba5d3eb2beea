"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from machines import make_fast_config
from repro.uarch.config import MachineConfig


@pytest.fixture
def fast_config() -> MachineConfig:
    """A fresh :func:`make_fast_config` machine per test."""
    return make_fast_config()


SIMPLE_SECRET_IF = """
secret int key = 1;
int result = 0;

void main() {
  int acc = 0;
  if (key) {
    acc = acc + 7;
  } else {
    acc = acc - 3;
  }
  result = acc;
}
"""


@pytest.fixture
def simple_secret_source() -> str:
    return SIMPLE_SECRET_IF
