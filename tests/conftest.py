"""Shared models and oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from ipn.measure import MeasureSpec
from ipn.subordination import ModelParams

DELTA1 = MeasureSpec.point_mass(1.0)
DELTA2 = MeasureSpec.point_mass(2.0)
TWO_ATOMS = MeasureSpec(atoms=((0.5, 1.0), (0.5, 5.0)))
UNIFORM_13 = MeasureSpec(segments=((1.0, 1.0, 3.0),))
MIXED = MeasureSpec(atoms=((0.5, 2.0),), segments=((0.5, 4.0, 6.0),))

# reference models used throughout; names encode (nu, sigma, c)
MODEL_D1_C1 = ModelParams(sigma=1.0, c=1.0, nu=DELTA1)
MODEL_D2_HALF = ModelParams(sigma=1.0, c=0.5, nu=DELTA2)
MODEL_D2_C1 = ModelParams(sigma=1.0, c=1.0, nu=DELTA2)
MODEL_SPLIT = ModelParams(sigma=1.0, c=0.5, nu=TWO_ATOMS)  # two support intervals
MODEL_MERGED = ModelParams(sigma=2.0, c=0.5, nu=TWO_ATOMS)  # one support interval
MODEL_UNIFORM = ModelParams(sigma=0.5, c=1.0, nu=UNIFORM_13)
MODEL_MIXED = ModelParams(sigma=0.4, c=0.8, nu=MIXED)

FIVE_MODELS = (MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT, MODEL_UNIFORM, MODEL_MIXED)
ALL_MODELS = FIVE_MODELS + (MODEL_D2_C1, MODEL_MERGED)


@st.composite
def measures(draw):
    """Random small atom + segment mixtures with comfortably separated parts."""
    n_atoms = draw(st.integers(0, 3))
    n_segs = draw(st.integers(0, 2))
    if n_atoms + n_segs == 0:
        n_atoms = 1
    slots = draw(st.permutations(range(8)))[: n_atoms + n_segs]
    atoms = []
    segments = []
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(n_atoms + n_segs)]
    total = sum(weights)
    weights = [w / total for w in weights]
    for i in range(n_atoms):
        atoms.append((weights[i], 1.25 * slots[i] + draw(st.floats(0.0, 0.5))))
    for j in range(n_segs):
        base = 1.25 * slots[n_atoms + j]
        segments.append((weights[n_atoms + j], base,
                         base + draw(st.floats(0.2, 0.7))))
    try:
        return MeasureSpec(atoms=tuple(atoms), segments=tuple(segments))
    except ValueError:
        # rare slot collisions (atom at a segment edge); retry with atoms only
        return MeasureSpec(atoms=((1.0, 1.0 + draw(st.floats(0.0, 1.0))),))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def off_support_grid(sup, per_gap: int = 8) -> list[float]:
    """Deterministic points outside the support, spanning every gap."""
    pts: list[float] = []
    lo0 = sup.intervals[0][0]
    hi_last = sup.intervals[-1][1]
    span = hi_last - lo0 + 1.0
    if lo0 > 0.0:
        pts.extend(lo0 * f for f in np.linspace(0.15, 0.85, per_gap // 2))
    pts.extend(lo0 - span * f for f in np.linspace(0.1, 1.5, per_gap // 2))
    for (_, a_hi), (b_lo, _) in zip(sup.intervals, sup.intervals[1:]):
        width = b_lo - a_hi
        pts.extend(a_hi + width * f for f in np.linspace(0.15, 0.85, per_gap))
    pts.extend(hi_last + span * f for f in np.linspace(0.05, 2.0, per_gap))
    return sorted(float(x) for x in pts)
