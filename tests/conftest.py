"""Shared randomized-input helpers for the property tests, and the independent reference.

All randomness is seeded per test via ``rng`` so failures replay exactly.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from grdcalc.picard import DivisorClass, PicSpace


@pytest.fixture
def rng(request) -> random.Random:
    return random.Random(f"grdcalc:{request.node.name}")


@pytest.fixture(scope="session")
def reference():
    """perfbench/reference.py, which restates the paper's forms without importing grdcalc."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rand_fraction(rng: random.Random, span: int = 40) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_class(rng: random.Random, space: PicSpace, density: float = 0.6) -> DivisorClass:
    coeffs = {sym: rand_fraction(rng) for sym in space.basis() if rng.random() < density}
    return DivisorClass(space, coeffs)
