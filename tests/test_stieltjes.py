"""Tests for the transform solver, density, CDF, and residuals."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ipn import cli, measure, simulate, stieltjes, subordination
from ipn.errors import ConvergenceError, DomainError
from ipn.measure import MeasureSpec
from ipn.simulate import SimConfig
from ipn.subordination import ModelParams

from conftest import (ALL_MODELS, DELTA1, MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT,
                      MODEL_UNIFORM, off_support_grid)


def edge_clustered_grid(lo: float, hi: float, n: int = 480) -> list[float]:
    """Cosine-clustered grid; resolves square-root edges for trapezoid sums."""
    theta = np.linspace(0.0, math.pi, n)
    return [float(x) for x in lo + 0.5 * (hi - lo) * (1.0 - np.cos(theta))]


# ---------------------------------------------------------------------------
# solve_g
# ---------------------------------------------------------------------------

def test_solve_g_near_real_axis_closed_form():
    sol = stieltjes.solve_g(MODEL_D1_C1, complex(8.0, 1e-9))
    assert sol.g.real == pytest.approx(1.0 / (3.0 + math.sqrt(5.0)), abs=1e-7)
    assert abs(sol.g.imag) <= 1e-6
    assert sol.residual <= 1e-12


def test_solve_g_accepts_the_rounding_floor_at_large_g():
    # near the hard edge at sigma = 0.05, |g| is about 6e3 and the absolute
    # fixed-point residual cannot go below about 1e-11
    p = ModelParams(sigma=0.05, c=1.0,
                    nu=MeasureSpec(atoms=((0.3, 0.0), (0.7, 3.0))))
    sol = stieltjes.solve_g(p, complex(2.998e-6, 1e-9))
    assert abs(sol.g) > 1e3 and sol.g.imag < 0.0
    assert sol.residual <= 1e-12 * abs(sol.g)


def test_solve_g_subordination_consistency():
    # 1 - s^2 c g(x) = 1 / (1 + s^2 c g_nu(omega(x))) off the support
    p = MODEL_D2_HALF
    x = 9.0
    sol = stieltjes.solve_g(p, complex(x, 1e-9))
    u = subordination.omega(p, x)
    s2c = p.sigma ** 2 * p.c
    lhs = 1.0 - s2c * sol.g
    rhs = 1.0 / (1.0 + s2c * measure.g_nu(p.nu, u))
    assert abs(lhs - rhs) <= 1e-7


def test_solve_g_large_argument_asymptotics():
    z = complex(1e6, 1.0)
    sol = stieltjes.solve_g(MODEL_D1_C1, z)
    assert abs(sol.g - 1.0 / z) / abs(1.0 / z) <= 10.0 / abs(z)


def test_solve_g_requires_upper_half_plane():
    with pytest.raises(DomainError):
        stieltjes.solve_g(MODEL_D1_C1, complex(2.0, 0.0))
    with pytest.raises(DomainError):
        stieltjes.solve_g(MODEL_D1_C1, complex(2.0, -1.0))


def test_solve_g_sign_constraints_random_points(rng):
    for p in (MODEL_D1_C1, MODEL_SPLIT, MODEL_UNIFORM):
        for _ in range(30):
            z = complex(rng.uniform(-5.0, 15.0), 10.0 ** rng.uniform(-6, 1))
            sol = stieltjes.solve_g(p, z)
            assert sol.g.imag < 0.0
            assert (z * sol.g).imag <= 1e-12 * max(1.0, abs(z * sol.g))


def test_solve_g_real_part_bound():
    # Re(1/(s^2 c) - g) > 0 near the real axis away from zero
    for p in (MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT):
        bound = 1.0 / (p.sigma ** 2 * p.c)
        for x in (0.3, 2.0, 4.0, 8.0, 12.0):
            sol = stieltjes.solve_g(p, complex(x, 1e-9))
            assert bound - sol.g.real > 0.0


@pytest.mark.parametrize("p", ALL_MODELS)
def test_solve_g_just_inside_every_support_edge(p):
    for a, b in subordination.support(p).intervals:
        for x in (a + 1e-4, b - 1e-4):
            sol = stieltjes.solve_g(p, complex(x, 1e-9))
            assert sol.residual <= 1e-12 and sol.g.imag < 0.0
            f = stieltjes.density(p, [x]).fs[0]
            assert -sol.g.imag / math.pi == pytest.approx(f, rel=1e-5)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_vanishes_outside_support():
    sup = subordination.support(MODEL_D1_C1)
    pts = [sup.intervals[0][1] + 0.3, sup.intervals[0][1] + 1.0, -0.5]
    grid = stieltjes.density(MODEL_D1_C1, sorted(pts))
    assert all(f <= 1e-4 for f in grid.fs)
    # exact edges and gap points are off the open support: exactly zero
    (lo0, hi0), (lo1, hi1) = subordination.support(MODEL_SPLIT).intervals
    pts = [lo0, 0.5 * (lo0 + hi0), hi0, 0.5 * (hi0 + lo1), lo1, hi1]
    fs = stieltjes.density(MODEL_SPLIT, pts).fs
    assert [fs[0], fs[2], fs[3], fs[4], fs[5]] == [0.0] * 5
    assert fs[1] > 0.0


def test_density_raises_on_a_failed_point(monkeypatch, capsys):
    # a point whose solve fails raises instead of leaving a NaN in the grid
    # the support of MODEL_D1_C1 is [0, 6.75]: fail at 3.375, the middle
    # point of the library grid below and of the CLI's 5-point grid
    xs = [1.0, 2.0, 3.375, 4.0, 5.0]
    real = stieltjes._omega

    def failing(p, z, warm=None):
        if z.real == 3.375:
            raise ConvergenceError("injected failure")
        return real(p, z, warm)
    monkeypatch.setattr(stieltjes, "_omega", failing)
    with pytest.raises(ConvergenceError):
        stieltjes.density(MODEL_D1_C1, xs)
    code = cli.run(["density", "--sigma", "1", "--c", "1", "--nu",
                    '{"atoms":[{"w":1,"t":1}]}', "--points", "5", "--no-timestamp"])
    assert code == 2
    assert "injected failure" in capsys.readouterr().err


def test_density_mass_normalizes():
    sup = subordination.support(MODEL_D1_C1)
    lo, hi = sup.intervals[0]
    xs = [x for x in edge_clustered_grid(lo, hi) if abs(x) >= 1e-6]
    grid = stieltjes.density(MODEL_D1_C1, xs)
    assert not any(math.isnan(f) for f in grid.fs)
    assert all(f >= 0.0 for f in grid.fs)
    assert np.trapezoid(grid.fs, grid.xs) == pytest.approx(1.0, abs=1e-3)


def test_density_two_interval_masses():
    masses = stieltjes.interval_masses(MODEL_SPLIT)
    assert len(masses) == 2
    assert masses[0] == pytest.approx(0.5, abs=1e-3)
    assert masses[1] == pytest.approx(0.5, abs=1e-3)


def test_density_grid_preconditions():
    # zero is the support edge at c = 1 here: exactly 0, without a solve
    assert stieltjes.density(MODEL_D1_C1, [0.0]).fs == (0.0,)
    with pytest.raises(DomainError):
        stieltjes.density(MODEL_D1_C1, [1e3])  # outside the bounding box
    with pytest.raises(DomainError):
        stieltjes.density(MODEL_D1_C1, [2.0, 1.0])  # not ascending


def test_density_matches_marchenko_pastur_closed_form():
    # nu = delta at 1e-9 makes the limit law the scaled MP law to within
    # 1e-9; at c = 1 the grid also runs down to 1e-12 from the hard edge at
    # zero, where the density grows like x^(-1/2)
    for c in (0.5, 1.0):
        p = ModelParams(sigma=1.0, c=c, nu=MeasureSpec.point_mass(1e-9))
        lo, hi = measure.mp_edges(c, 1.0)
        xs = [float(x) for x in np.linspace(lo + 0.05, hi - 0.05, 40)]
        if c == 1.0:
            xs = [1e-12, 1e-10, 1e-8, 1e-6, 1.5e-6, 2e-6, 5e-6, 1e-5] + xs
        grid = stieltjes.density(p, xs)
        for x, f in zip(grid.xs, grid.fs):
            assert f == pytest.approx(measure.mp_density(c, 1.0, x), rel=1e-6)


def test_density_matches_cubic_oracle_near_both_edges():
    # nu = delta_1, sigma = 1, c = 1: g solves z g^3 - 2 z g^2 + z g - 1 = 0,
    # solved here at 50 digits; the density is max(-Im g) / pi over its roots
    import mpmath

    with mpmath.workdps(50):
        for x in (6.75 - 1e-6, 6.75 - 1e-4, 1e-3, 1e-5, 1e-8, 1e-10, 1e-12):
            xm = mpmath.mpf(x)
            roots = mpmath.polyroots([xm, -2 * xm, xm, -1], maxsteps=200,
                                     extraprec=200)
            ref = float(max(-mpmath.im(r) for r in roots) / mpmath.pi)
            f = stieltjes.density(MODEL_D1_C1, [x]).fs[0]
            assert f == pytest.approx(ref, rel=1e-8), x


def test_interval_mass_at_the_hard_edge():
    # near-MP at c = 1: the density diverges like x^(-1/2) at zero
    p = ModelParams(sigma=1.0, c=1.0, nu=MeasureSpec.point_mass(1e-9))
    adm = subordination.admissible_set(p)
    (mass,) = stieltjes.interval_masses(p)
    assert abs(mass - measure.mass_between(p.nu, adm.u[0], adm.v[0])) <= 1e-6


@pytest.mark.parametrize("s2", [0.999, 0.9999])
def test_interval_mass_with_a_tiny_positive_lower_edge(s2):
    # nu = delta_1, c = 1, sigma^2 just below 1: zero is outside the support,
    # so the lower edges 1.5e-10 and 1.5e-13 stay positive (a snap to 0
    # made the mass panels start off the support, where Newton fails)
    p = ModelParams(sigma=math.sqrt(s2), c=1.0, nu=DELTA1)
    (mass,) = stieltjes.interval_masses(p)
    assert mass == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# cdf_mu / quantile_mu
# ---------------------------------------------------------------------------

def test_cdf_right_edge_is_one():
    hi = subordination.support(MODEL_D1_C1).intervals[0][1]
    assert stieltjes.cdf_mu(MODEL_D1_C1, hi) == pytest.approx(1.0, abs=1e-3)


def test_cdf_gap_midpoint_carries_left_mass():
    sup = subordination.support(MODEL_SPLIT)
    mid = 0.5 * (sup.intervals[0][1] + sup.intervals[1][0])
    assert stieltjes.cdf_mu(MODEL_SPLIT, mid) == pytest.approx(0.5, abs=1e-3)


def test_quantile_cdf_round_trip():
    for p in ALL_MODELS:
        lo, hi = subordination.support(p).intervals[0]
        for f in (0.25, 0.5, 0.75):
            x = lo + f * (hi - lo)
            alpha = stieltjes.cdf_mu(p, x)
            assert stieltjes.quantile_mu(p, alpha) == pytest.approx(x, abs=1e-4)
        for alpha in np.linspace(0.005, 0.995, 67):
            q = stieltjes.quantile_mu(p, float(alpha))
            assert abs(stieltjes.cdf_mu(p, q) - alpha) <= 1e-12
    # a level on a gap plateau maps to the upper edge below the gap
    hi0 = subordination.support(MODEL_SPLIT).intervals[0][1]
    assert stieltjes.quantile_mu(MODEL_SPLIT, 0.5) == pytest.approx(hi0, abs=1e-9)


@pytest.mark.parametrize("p", ALL_MODELS)
def test_cdf_matches_density_quadrature(p):
    # adaptive quadrature of the density down from the upper edge (the grid
    # may not enter the hard edge at zero) is independent of the closed form
    from scipy.integrate import quad

    f = lambda t: stieltjes.density(p, [t]).fs[0]
    for lo, hi in subordination.support(p).intervals:
        above = stieltjes.cdf_mu(p, hi)
        for frac in (0.1, 0.5, 0.9):
            x = lo + frac * (hi - lo)
            ref = above - quad(f, x, hi, limit=200, epsabs=1e-14, epsrel=1e-14)[0]
            assert abs(stieltjes.cdf_mu(p, x) - ref) <= 1e-12


def test_cdf_matches_marchenko_pastur_quadrature():
    from scipy.integrate import quad

    for c in (0.5, 1.0):
        p = ModelParams(sigma=1.0, c=c, nu=MeasureSpec.point_mass(1e-9))
        lo, hi = measure.mp_edges(c, 1.0)
        xs = [lo + f * (hi - lo) for f in (0.05, 0.5, 0.95)]
        xs += [stieltjes.quantile_mu(p, a) for a in (0.01, 0.3, 0.7, 0.99)]
        for x in xs:
            ref = quad(lambda t: measure.mp_density(c, 1.0, t), lo, x,
                       limit=200, epsabs=1e-13, epsrel=1e-13)[0]
            assert abs(stieltjes.cdf_mu(p, x) - ref) <= 1e-8, (c, x)


def test_cdf_array_reads_match_scalar_reads():
    for p in ALL_MODELS:
        sup = subordination.support(p)
        lo, hi = sup.intervals[0][0] - 0.5, sup.intervals[-1][1] + 0.5
        near = [(a + d, b - d) for a, b in sup.intervals  # toward every edge
                for d in (b - a) * 10.0 ** -np.arange(1, 15)]
        xs = np.concatenate([np.linspace(lo, hi, 97), np.ravel(near),
                             [hi, lo, -np.inf, np.inf]])
        xs = np.concatenate([xs, np.random.default_rng(3).permutation(xs)])
        for x in (xs, np.sort(xs), xs.reshape(2, -1)):
            got = stieltjes.cdf_mu(p, x)
            assert got.shape == x.shape
            want = [stieltjes.cdf_mu(p, float(v)) for v in x.ravel()]
            assert np.max(np.abs(got.ravel() - want)) <= 1e-13
    # the KS pass's input: a sorted pool of sampled eigenvalues, some of them
    # just past the support edges
    cfg = SimConfig(n=60, N=120, model=MODEL_SPLIT, seed=5, trials=2)
    pooled = np.sort(np.concatenate([s.eigenvalues for s in simulate.run_trials(cfg)]))
    want = [stieltjes.cdf_mu(MODEL_SPLIT, float(v)) for v in pooled]
    assert np.max(np.abs(stieltjes.cdf_mu(MODEL_SPLIT, pooled) - want)) <= 1e-13
    with pytest.MonkeyPatch.context() as mp:  # many sweeps, the last one short
        mp.setattr(stieltjes, "_SWEEP_POINTS", 7)
        assert np.max(np.abs(stieltjes.cdf_mu(MODEL_SPLIT, pooled) - want)) <= 1e-13
    with pytest.raises(DomainError):
        stieltjes.cdf_mu(MODEL_SPLIT, np.array([1.0, math.nan, 3.0]))


@pytest.mark.parametrize("force", ["warm_on_axis", "axis_guard"])
@pytest.mark.parametrize("p", [MODEL_D1_C1, MODEL_SPLIT], ids=["d1_c1", "split"])
def test_cdf_array_falls_back_to_scalar_solves(monkeypatch, p, force):
    # warm roots moved onto the real axis, or a guard that rejects every
    # root the sweep settles: each interior point then goes through _omega,
    # and the values stay those of the scalar reads
    sup = subordination.support(p)
    xs = np.linspace(sup.intervals[0][0] - 0.5, sup.intervals[-1][1] + 0.5, 81)
    want = [stieltjes.cdf_mu(p, float(x)) for x in xs]
    if force == "warm_on_axis":
        warm = stieltjes._IntervalCdf.warm
        monkeypatch.setattr(stieltjes._IntervalCdf, "warm",
                            lambda self, x: np.real(warm(self, x)) + 0j)
    else:
        monkeypatch.setattr(stieltjes, "_AXIS_GUARD", 10.0)
    solved = []
    omega = stieltjes._omega
    monkeypatch.setattr(stieltjes, "_omega",
                        lambda p, z, w=None: solved.append(z.real) or omega(p, z, w))
    got = stieltjes.cdf_mu(p, xs)
    assert solved == [x for x in xs if any(lo < x < hi for lo, hi in sup.intervals)]
    assert np.max(np.abs(got - want)) <= 1e-13


def test_quantile_level_validation():
    with pytest.raises(DomainError):
        stieltjes.quantile_mu(MODEL_D1_C1, 0.0)
    with pytest.raises(DomainError):
        stieltjes.quantile_mu(MODEL_D1_C1, 1.0)


def test_cdf_rejects_nan():
    with pytest.raises(DomainError):
        stieltjes.cdf_mu(MODEL_SPLIT, math.nan)
    assert stieltjes.cdf_mu(MODEL_SPLIT, math.inf) == 1.0
    assert stieltjes.cdf_mu(MODEL_SPLIT, -math.inf) == 0.0


def test_cdf_monotone_and_bounded():
    xs = np.linspace(-1.0, 12.0, 120)
    vals = [stieltjes.cdf_mu(MODEL_SPLIT, float(x)) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# h_residual and subordination chain
# ---------------------------------------------------------------------------

def test_h_residual_closed_form_point():
    assert stieltjes.h_residual(MODEL_D1_C1, 8.0) <= 1e-7


def test_h_residual_near_the_edge():
    sup = subordination.support(MODEL_D2_HALF)
    x = sup.intervals[-1][1] + 0.05
    assert stieltjes.h_residual(MODEL_D2_HALF, x) <= 1e-6


def test_h_residual_degenerate_small_sigma():
    p = ModelParams(sigma=1e-6, c=1.0, nu=DELTA1)
    assert stieltjes.h_residual(p, 8.0) <= 1e-8


@pytest.mark.parametrize("p", [MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT])
def test_subordination_chain_residual(p):
    s2c = p.sigma ** 2 * p.c
    sup = subordination.support(p)
    for x in off_support_grid(sup, per_gap=4):
        g = stieltjes.solve_g(p, complex(x, 1e-9)).g
        u = subordination.omega(p, x)
        res = abs(1.0 / (1.0 - s2c * g) - (1.0 + s2c * measure.g_nu(p.nu, u)))
        assert res <= 1e-7
