"""Shared models and oracles for the test suite."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from ipn import stieltjes, subordination
from ipn.errors import DomainError
from ipn.measure import MeasureSpec
from ipn.subordination import ModelParams

# a failing random example prints the @reproduce_failure line that replays it
settings.register_profile("ipn", print_blob=True)
settings.load_profile("ipn")

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

# TWO_ATOMS at c = 0.5 merges into one support interval at this sigma; just
# short of it the admissible interval in the gap (1, 5) that holds theta =
# 2.65454 is narrow: about 1.8e-4 wide in u at sigma - 3e-9
NEAR_MERGE_SIGMA = 1.142591864897458

FIVE_MODELS = (MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT, MODEL_UNIFORM, MODEL_MIXED)
ALL_MODELS = FIVE_MODELS + (MODEL_D2_C1, MODEL_MERGED)


@st.composite
def measures(draw, widths=st.floats(0.2, 0.7)):
    """Random small atom + segment mixtures with comfortably separated parts,
    segment widths drawn from ``widths``."""
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
        segments.append((weights[n_atoms + j], base, base + draw(widths)))
    try:
        return MeasureSpec(atoms=tuple(atoms), segments=tuple(segments))
    except ValueError:
        # rare slot collisions (atom at a segment edge); retry with atoms only
        return MeasureSpec(atoms=((1.0, 1.0 + draw(st.floats(0.0, 1.0))),))


@st.composite
def atomic_measures(draw):
    """One to three atoms in separate slots, as ``measures`` places them."""
    k = draw(st.integers(1, 3))
    slots = draw(st.permutations(range(8)))[:k]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(k)]
    return MeasureSpec(atoms=tuple((w / sum(weights), 1.25 * s + draw(st.floats(0.01, 0.5)))
                                   for w, s in zip(weights, slots)))


def narrow_measures():
    """``measures`` with segment widths log-uniform from 1e-4 to 0.7: next to
    a narrow segment g_nu' is large and phi' steep."""
    return measures(widths=st.floats(math.log(1e-4), math.log(0.7)).map(math.exp))


def ratios():
    """c as 1 or 1 - 1e-12, where phi' is 0 or nearly so at the g-threshold
    crossing, in half the draws, else uniform on [0.05, 1]."""
    return st.one_of(st.sampled_from((1.0, 1.0 - 1e-12)), st.floats(0.05, 1.0))


def _poly_mul(f, g):
    """Product of two polynomials given by coefficients, lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poly_add(*fs):
    out = [0] * max(len(f) for f in fs)
    for f in fs:
        for i, a in enumerate(f):
            out[i] += a
    return out


def _poly_diff(f):
    return [i * a for i, a in enumerate(f)][1:]


def atomic_polynomials(p: ModelParams):
    """P, R, N and D for atomic nu = sum w_i delta_{t_i}, as mpmath
    coefficients at the working precision, lowest degree first: with
    P = prod (u - t_i) and Q = sum w_i prod_{j != i} (u - t_j), a = R/P for
    R = P + s^2 c Q, phi = N/P^2 for N = u R^2 + s^2 (1-c) R P, and
    phi' = D/P^3 for D = N'P - 2NP'."""
    import mpmath

    s2, c = mpmath.mpf(p.sigma) ** 2, mpmath.mpf(p.c)
    P = [mpmath.mpf(1)]
    for _, t in p.nu.atoms:
        P = _poly_mul(P, [-mpmath.mpf(t), 1])
    Q = [0]
    for i, (w, _) in enumerate(p.nu.atoms):
        term = [mpmath.mpf(w)]
        for j, (_, t) in enumerate(p.nu.atoms):
            if j != i:
                term = _poly_mul(term, [-mpmath.mpf(t), 1])
        Q = _poly_add(Q, term)
    R = _poly_add(P, [s2 * c * q for q in Q])
    N = _poly_add(_poly_mul([0, 1], _poly_mul(R, R)),
                  [s2 * (1 - c) * v for v in _poly_mul(R, P)])
    D = _poly_add(_poly_mul(_poly_diff(N), P),
                  [-2 * v for v in _poly_mul(N, _poly_diff(P))])
    return P, R, N, D


def preimage_polynomial(p: ModelParams):
    """z -> N - z P^2 (see ``atomic_polynomials``), the polynomial whose
    roots are the u with phi(u) = z, for atomic nu at the working precision."""
    P, _, N, _ = atomic_polynomials(p)
    P2 = _poly_mul(P, P)
    return lambda z: _poly_add(N, [-z * v for v in P2])


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


def die_in_worker(cfg, trial, d):
    """Stands in for ``simulate._sample_trial``: the pool worker dies."""
    os._exit(1)


def h_residual(p: ModelParams, x: float) -> float:
    """Residual of the rectangular-convolution subordination identity at x
    outside the support, with u = omega(x) and g solved at x + 1e-9i."""
    u = subordination.omega(p, x)
    return stieltjes._h_residual(p, x, u, stieltjes.solve_g(p, complex(x, 1e-9)).g)


def k_transform(p: ModelParams, x: float) -> float:
    """x + sigma^2 (1-c) / (1 - sigma^2 c g(x)) for g the transform of the
    c = 1 companion model (sigma sqrt(c), nu), solved just above the real
    axis.  K(phi_aux(u)) = phi(u) on the companion admissible set.  Requires
    c < 1 and x outside the companion support."""
    if not p.c < 1.0:
        raise DomainError("the K transform is defined for c < 1 only")
    aux = ModelParams(sigma=p.sigma * math.sqrt(p.c), c=1.0, nu=p.nu)
    if subordination.support(aux).gap_index(x) is None:
        raise DomainError(f"x={x!r} lies in the companion support")
    g = stieltjes.solve_g(aux, complex(x, 1e-9)).g
    return x + p.sigma ** 2 * (1.0 - p.c) / (1.0 - p.sigma ** 2 * p.c * g.real)
