"""Tests for the transform solver, density, CDF, and residuals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ipn import cli, measure, simulate, stieltjes, subordination
from ipn.errors import ConvergenceError, DomainError
from ipn.measure import MeasureSpec
from ipn.simulate import SimConfig
from ipn.subordination import ModelParams

from conftest import (ALL_MODELS, DELTA1, MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT,
                      MODEL_UNIFORM, atomic_measures, atomic_polynomials, h_residual,
                      measures, narrow_measures, off_support_grid, preimage_polynomial,
                      ratios)


EPS = np.finfo(float).eps


def scalar_density(p: ModelParams, x: float) -> float:
    """The density at x from one cold scalar solve, or exactly 0 off the open
    support."""
    if any(a < x < b for a, b in subordination.support(p).intervals):
        return stieltjes._density_from(p, x, stieltjes._omega(p, complex(x, 0.0))[0])
    return 0.0


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


def test_solve_g_accepts_the_rounding_floor_at_large_g(monkeypatch):
    # near the hard edge at sigma = 0.05, |g| is about 6e3 and the absolute
    # fixed-point residual cannot go below about 1e-11; the root that the
    # run from the table node settles is accepted as it is, with no further
    # Newton steps
    p = ModelParams(sigma=0.05, c=1.0,
                    nu=MeasureSpec(atoms=((0.3, 0.0), (0.7, 3.0))))
    z, runs = complex(2.998e-6, 1e-9), []
    newton = stieltjes._newton

    def counted(q, w, u, *tol):
        root, steps = newton(q, w, u, *tol)
        if w == z:  # not a table build's solve
            runs.append(steps)
        return root, steps
    monkeypatch.setattr(stieltjes, "_newton", counted)
    sol = stieltjes.solve_g(p, z)
    assert abs(sol.g) > 1e3 and sol.g.imag < 0.0
    assert 1e-12 < sol.residual <= 1e-12 * abs(sol.g)
    assert runs == [sol.iterations]


def test_solve_g_rejects_a_residual_over_the_tolerance(monkeypatch):
    # a fixed-point map that misses g by twice RESIDUAL_TOL max(1, |g|)
    fp_map = stieltjes._fp_map

    def off(p, z, g):
        return fp_map(p, z, g) + 2.0 * stieltjes.RESIDUAL_TOL * max(1.0, abs(g))
    monkeypatch.setattr(stieltjes, "_fp_map", off)
    with pytest.raises(ConvergenceError, match="no solution at z="):
        stieltjes.solve_g(MODEL_D1_C1, complex(8.0, 1e-3))


def test_solve_g_rejects_a_root_with_positive_im_zg(monkeypatch):
    # g = -0.1i has Im g < 0 but Im(z g) = 1 > 0 at z = -10 + i, and a zero
    # fixed-point residual
    monkeypatch.setattr(stieltjes, "_g_mu", lambda p, u: -0.1j)
    monkeypatch.setattr(stieltjes, "_fp_map", lambda p, z, g: g)
    with pytest.raises(ConvergenceError, match=r"violates Im\(z g\) <= 0"):
        stieltjes.solve_g(MODEL_D1_C1, complex(-10.0, 1.0))


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
    # and a finite z: an infinite one overflowed the continuation's stage
    # count, and a NaN one ran the whole continuation before failing
    for z in (complex(math.inf, 1.0), complex(1.0, math.inf),
              complex(1.0, math.nan), complex(math.nan, 1.0)):
        with pytest.raises(DomainError):
            stieltjes.solve_g(MODEL_SPLIT, z)


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


def spy_on_runs(monkeypatch, first=None) -> list:
    """Record the start u of each Newton run in order, and None where the
    continuation ``_omega`` begins; its stages' runs follow the None.  With
    ``first``, the first run returns first(z) in 3 steps instead."""
    runs, newton, omega = [], stieltjes._newton, stieltjes._omega

    def run(p, z, u, *tol):
        runs.append(u)
        return (first(z), 3) if first and len(runs) == 1 else newton(p, z, u, *tol)

    def continuation(p, z, *warm):
        runs.append(None)
        return omega(p, z, *warm)
    monkeypatch.setattr(stieltjes, "_newton", run)
    monkeypatch.setattr(stieltjes, "_omega", continuation)
    return runs


@pytest.mark.parametrize("p", ALL_MODELS)
def test_solve_g_warm_from_the_table_matches_a_cold_solve(p, monkeypatch):
    # near the axis inside the support solve_g starts next to its root: a
    # few Newton steps from the nearest table node, and the value of the
    # whole continuation
    table = stieltjes._cdf_data(p)  # built before the spy
    runs = spy_on_runs(monkeypatch)
    for lo, hi in subordination.support(p).intervals:
        for f in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            for y in (1e-9, 1e-7):
                z = complex(lo + f * (hi - lo), y)
                runs.clear()
                sol = stieltjes.solve_g(p, z)
                assert runs == [table.locate(z.real)[2]], (z, runs)
                assert sol.iterations <= 6, (z, sol)
                cold = stieltjes._g_mu(p, stieltjes._omega(p, z)[0])
                assert abs(sol.g - cold) <= 1e-12 * abs(cold)


@given(st.one_of(measures(), narrow_measures()), st.floats(1e-3, 3.0), ratios(),
       st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_solve_g_inside_the_support_matches_the_continuation(nu, sigma, c, f):
    # from the nearest table node, at any Im z, the root agrees with the
    # continuation's: both runs settle u to Newton's step tolerance 1e-12
    # (1 + |u|), so g agrees to that times |dg/du| = |g_nu'(u)| / |a(u)|^2
    # (2.6e-13 of it at worst over 1e5 such points).  Where the continuation
    # fails the checks itself (residuals just over RESIDUAL_TOL at
    # sigma = 1e-3) there is nothing to compare against
    p = ModelParams(sigma=sigma, c=c, nu=nu)
    for lo, hi in subordination.support(p).intervals:
        x = lo + f * (hi - lo)
        if not lo < x < hi:
            continue
        for y in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0):
            z = complex(x, y)
            try:
                u, steps = stieltjes._omega(p, z)
                want = stieltjes._accepted(p, z, u, steps).g
            except ConvergenceError:
                continue
            gn, gp = measure.g_nu_and_prime(p.nu, u)
            a = 1.0 + p.sigma ** 2 * p.c * gn
            scale = max(abs(want), (1.0 + abs(u)) * abs(gp) / abs(a) ** 2)
            sol = stieltjes.solve_g(p, z)
            assert abs(sol.g - want) <= 1e-12 * scale, (z, sol, want, scale)


def test_solve_g_far_from_the_axis_inside_the_support_starts_from_the_node(monkeypatch):
    # inside the support an Im z above the node spacing starts from the
    # nearest node too; on an edge there is no start and the continuation runs
    table = stieltjes._cdf_data(MODEL_SPLIT)
    runs = spy_on_runs(monkeypatch)
    (lo, hi), _ = subordination.support(MODEL_SPLIT).intervals
    z = complex(0.5 * (lo + hi), hi - lo)
    sol = stieltjes.solve_g(MODEL_SPLIT, z)
    assert runs == [table.locate(z.real)[2]] and sol.residual <= 1e-12
    cold = stieltjes._g_mu(MODEL_SPLIT, stieltjes._omega(MODEL_SPLIT, z)[0])
    assert abs(sol.g - cold) <= 1e-12 * abs(cold)
    runs.clear()
    sol = stieltjes.solve_g(MODEL_SPLIT, complex(lo, hi - lo))
    assert runs[0] is None and runs.count(None) == 1 and sol.residual <= 1e-12


@pytest.mark.parametrize("p", ALL_MODELS)
def test_solve_g_off_the_support_starts_from_omega(p, monkeypatch):
    # off the support Newton starts at omega(x) + i y / phi'(omega(x)): one
    # step at y = 1e-9, no continuation, no table, and the continuation's
    # value; on an edge, which is not off the support, the continuation runs
    cold = stieltjes._omega
    sup = subordination.support(p)
    runs = spy_on_runs(monkeypatch)
    monkeypatch.setattr(stieltjes, "_cdf_data", None)  # calling it fails
    for x in off_support_grid(sup):
        z = complex(x, 1e-9)
        runs.clear()
        sol = stieltjes.solve_g(p, z)
        u0 = subordination.omega(p, x)
        assert runs == [complex(u0, 1e-9 / subordination.phi_prime(p, u0))], x
        assert sol.iterations == 1, (x, sol)
        want = stieltjes._g_mu(p, cold(p, z)[0])
        assert abs(sol.g - want) <= 1e-12 * abs(want), x
    runs.clear()
    stieltjes.solve_g(p, complex(sup.max, 1e-9))
    assert runs[0] is None and runs.count(None) == 1


@pytest.mark.parametrize("slope", [0.0, -1.0])
def test_solve_g_falls_back_to_the_continuation_where_phi_prime_is_not_positive(
        slope, monkeypatch):
    (_, a), (b, _) = subordination.support(MODEL_SPLIT).intervals
    z = complex(0.5 * (a + b), 1e-9)
    fast = stieltjes.solve_g(MODEL_SPLIT, z)
    runs = spy_on_runs(monkeypatch)
    monkeypatch.setattr(subordination, "phi_prime", lambda p, u: slope)
    sol = stieltjes.solve_g(MODEL_SPLIT, z)
    assert runs[0] is None and runs.count(None) == 1 and sol.iterations > 1
    assert abs(sol.g - fast.g) <= 1e-12 * abs(fast.g)


def test_solve_g_falls_back_to_the_continuation_when_the_start_fails_its_checks(
        monkeypatch):
    # a settled root whose g fails the acceptance checks is not the answer,
    # from the start off the support or from the node inside it; the
    # continuation runs once, and its steps are counted after the start's
    (lo, hi), _ = subordination.support(MODEL_SPLIT).intervals
    zs = (complex(20.0, 1e-9), complex(lo + 0.3 * (hi - lo), 1e-9))
    fast = [stieltjes.solve_g(MODEL_SPLIT, z) for z in zs]
    runs = spy_on_runs(monkeypatch, first=lambda w: w + 1j)
    for z, want in zip(zs, fast):
        with pytest.raises(ConvergenceError):  # the root the spy settles on
            stieltjes._accepted(MODEL_SPLIT, z, z + 1j, 3)
        runs.clear()
        sol = stieltjes.solve_g(MODEL_SPLIT, z)
        assert runs[0] is not None and runs[1] is None and runs.count(None) == 1, z
        assert sol.iterations > 3
        assert abs(sol.g - want.g) <= 1e-12 * abs(want.g)


def upper_roots(f) -> list:
    """The roots u with Im u > 0 of the polynomial f (mpmath coefficients,
    lowest degree first, real or complex): ``np.roots``' double-precision
    roots, each refined by Newton at the working precision."""
    import mpmath

    f, tol = f[::-1], mpmath.mpf(10) ** (10 - mpmath.mp.dps)
    roots = []
    for u in np.roots([complex(v) for v in f]):
        u = mpmath.mpc(u)
        for _ in range(200):
            value, slope = mpmath.polyval(f, u, derivative=True)
            u -= value / slope
            if abs(value / slope) <= tol * abs(u):
                break
        else:
            raise AssertionError(f"Newton on the polynomial did not settle at {u}")
        roots.append(u)
    return [u for u in roots if u.imag > mpmath.mpf(10) ** (20 - mpmath.mp.dps)]


def transform_at_root(p: ModelParams):
    """u -> g = g_nu(u) / a(u) = Q(u) / R(u) = (1 - P(u) / R(u)) / (s^2 c) at
    a root u of N - z P^2, for atomic nu (see ``atomic_polynomials``)."""
    import mpmath

    P, R = (f[::-1] for f in atomic_polynomials(p)[:2])
    s2c = mpmath.mpf(p.sigma) ** 2 * mpmath.mpf(p.c)
    return lambda u: (1 - mpmath.polyval(P, u) / mpmath.polyval(R, u)) / s2c


def g_error_bound(p: ModelParams, z: complex, u: complex) -> float:
    """What g solved at z is held to against the oracle's g at its root u,
    for atomic nu: 1e-12 of the sum of the moduli of the terms that
    g = g_nu(u) / a(u) adds up, since g crosses zero in the gaps, plus
    8 eps |z| |dg/dz|, since phi(u) = z is solved only to the rounding of z
    and dg/dz = g_nu'(u) / (a(u)^2 phi'(u)) is large where phi' is small."""
    gn, gp = measure.g_nu_and_prime(p.nu, u)
    a = 1.0 + p.sigma ** 2 * p.c * gn
    terms = sum(w / abs(u - t) for w, t in p.nu.atoms) / abs(a)
    slope = abs(gp / (a * a * subordination.phi_and_prime(p, u)[1]))
    return 1e-12 * terms + 8.0 * EPS * abs(z) * slope


@given(atomic_measures(), st.floats(1e-3, 3.0), st.floats(0.05, 0.99))
# three clusters of roots about 1e-6 wide, one at each atom
@example(MeasureSpec(atoms=((1 / 3, 0.5), (1 / 3, 1.75), (1 / 3, 3.0))), 2.0 ** -9, 0.0625)
# g crosses zero in a gap: |g| is 7.6e-5 and 1.6e-4 at x = 5.18 and 0.999,
# and its error is at the rounding level of its terms
@example(MeasureSpec(atoms=((0.534, 1.75), (0.466, 7.625))), 0.615234375, 0.22265625)
@example(MeasureSpec(atoms=((0.5318028487460273, 0.01171875),
                            (0.46819715125397265, 1.75))), 0.5, 0.75)
# a gap 1.2e-5 wide at x = 7.44, where phi'(omega(x)) is 4e-4: the root is
# off by 2e-12, as far as the continuation's, and g by 1e-12
@example(MeasureSpec(atoms=((0.26687850360060794, 4.036675984403945),
                            (0.26687850360060794, 6.4),
                            (0.466242992798784, 8.821527173742163))),
         0.3681405684930408, 0.9638696735094913)
# x = 1.04e-4 in the gap below the lower edge at 1.22e-4, where phi'(omega(x))
# is 0.0061 and the run from omega(x) takes two steps at y = 1e-9
@example(MeasureSpec(atoms=((1.0, 0.5),)), 1.0, 0.984375)
@settings(max_examples=20, deadline=None)
def test_solve_g_off_the_support_against_the_polynomial_oracle(nu, sigma, c):
    # at z = x + iy off the support, N - z P^2 has two to four roots with
    # Im u > 0; omega(z) is the one that tends to the admissible real root
    # omega(x) (held at 60 digits by test_omega_against_the_polynomial_oracle)
    # as y -> 0.  g there matches within ``g_error_bound``, and at
    # y = 1e-9 the start from omega(x), off the root by O(y^2 phi'' / phi'^3), is
    # settled by Newton's quadratic convergence in two steps at most
    import mpmath

    p = ModelParams(sigma=sigma, c=c, nu=nu)
    with mpmath.workdps(60):
        poly, g_at = preimage_polynomial(p), transform_at_root(p)
        for x in off_support_grid(subordination.support(p), per_gap=4):
            near = subordination.omega(p, x)
            for y in (1e-9, 1e-6, 1e-3):
                z = complex(x, y)
                roots = upper_roots(poly(mpmath.mpc(z)))
                root = min(roots, key=lambda u: abs(u - near))
                want = complex(g_at(root))
                sol = stieltjes.solve_g(p, z)
                bound = g_error_bound(p, z, complex(root))
                assert abs(sol.g - want) <= bound, (z, sol, want, bound)
                assert y > 1e-9 or sol.iterations <= 2, (z, sol)


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
    # point of the library grid below and of the CLI's 5-point grid; its
    # warm root is moved onto the real axis, so the sweep hands it to _omega
    xs = [1.0, 2.0, 3.375, 4.0, 5.0]
    locate, real = stieltjes._CdfTable.locate, stieltjes._omega

    def on_axis(self, x):
        f, inside, w = locate(self, x)
        return f, inside, np.where(x == 3.375, w.real + 0j, w)

    def failing(p, z, warm=None):
        if z.real == 3.375:
            raise ConvergenceError("injected failure")
        return real(p, z, warm)
    monkeypatch.setattr(stieltjes._CdfTable, "locate", on_axis)
    monkeypatch.setattr(stieltjes, "_omega", failing)
    with pytest.raises(ConvergenceError, match="injected failure"):
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
    assert stieltjes.density(MODEL_D1_C1, []) == stieltjes.DensityGrid((), (), 0.0)
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


@pytest.mark.parametrize("p", [m for m in ALL_MODELS if not m.nu.segments])
def test_density_against_the_polynomial_oracle(p):
    # inside the support omega(x + i0) is the one root of N - x P^2 with
    # Im u > 0, and the density is -Im g(u) / pi.  Points: the interior of
    # ``ipn density``'s default 400-point grid, and x = e (1 -+ delta) inside
    # each soft edge e.  Next to a soft edge the solve loses digits as about
    # eps / delta (ROADMAP, "Soft support edges"); the bound is
    # max(1e-12, 2 eps / delta) for delta the relative distance from the
    # nearest edge, infinite for the hard edge at zero
    import mpmath

    sup = subordination.support(p)
    edges = [e for iv in sup.intervals for e in iv]
    xs = [float(x) for x in np.linspace(edges[0], edges[-1], 400)
          if any(a < x < b for a, b in sup.intervals)]
    for a, b in sup.intervals:
        for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            xs += [b * (1.0 - delta)] + ([a * (1.0 + delta)] if a else [])
    xs.sort()
    with mpmath.workdps(60):
        poly, g_at = preimage_polynomial(p), transform_at_root(p)
        for x, f in zip(xs, stieltjes.density(p, xs).fs):
            roots = upper_roots(poly(mpmath.mpf(x)))
            assert len(roots) == 1, (x, roots)
            want = float(-g_at(roots[0]).imag / mpmath.pi)
            e = min(edges, key=lambda e: abs(x - e))
            delta = abs(x - e) / abs(e) if e else math.inf
            assert abs(f - want) <= max(1e-12, 2.0 * EPS / delta) * want, (x, f, want)


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


def test_quantile_plateau_rule():
    # a level within rounding above a gap plateau still maps to the upper
    # edge below the gap; one clearly above it starts the next interval
    (lo0, hi0), (lo1, hi1) = subordination.support(MODEL_SPLIT).intervals
    assert stieltjes.cdf_mu(MODEL_SPLIT, hi0) == 0.5
    for alpha in (0.5, 0.5 + 4e-16):
        assert stieltjes.quantile_mu(MODEL_SPLIT, alpha) == hi0
    assert lo1 <= stieltjes.quantile_mu(MODEL_SPLIT, 0.5 + 2e-15) <= lo1 + 1e-6
    assert stieltjes.quantile_mu(MODEL_SPLIT, 1.0 - 1e-16) <= hi1


def test_quantile_raises_on_a_negative_density(monkeypatch):
    # the Newton derivative is the checked density: a root with the wrong
    # sign of Im g raises instead of steering the step the wrong way
    stieltjes.interval_masses(MODEL_SPLIT)  # the tables, built before the patch
    g_mu = stieltjes._g_mu
    monkeypatch.setattr(stieltjes, "_g_mu", lambda p, u: g_mu(p, u).conjugate())
    with pytest.raises(ConvergenceError, match="density solve failed"):
        stieltjes.quantile_mu(MODEL_SPLIT, 0.3)


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
        # density reads its grid through the same sweep; next to a square-root
        # edge f moves by f eps |x| / (2 d) per rounding unit of x, at a
        # distance d from the edge, so both reads agree only to that there
        grid = np.sort(xs[np.isfinite(xs)])
        got = np.array(stieltjes.density(p, grid).fs)
        want = np.array([scalar_density(p, v) for v in grid])
        d = np.min(np.abs(grid[:, None] - np.ravel(sup.intervals)), axis=1)
        bound = 1e-13 * np.maximum(1.0, want) + 4.0 * want * EPS * np.abs(grid) / d
        assert np.all(np.abs(got - want) <= bound)
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


@pytest.mark.parametrize("read", ["cdf_mu", "density"])
@pytest.mark.parametrize("force", ["warm_on_axis", "axis_guard"])
@pytest.mark.parametrize("p", [MODEL_D1_C1, MODEL_SPLIT], ids=["d1_c1", "split"])
def test_cdf_array_falls_back_to_scalar_solves(monkeypatch, p, force, read):
    # warm roots moved onto the real axis, or a guard that rejects every
    # root the sweep settles: each interior point then goes through _omega,
    # and the values stay those of the scalar reads
    sup = subordination.support(p)
    xs = np.linspace(sup.intervals[0][0] - 0.5, sup.intervals[-1][1] + 0.5, 81)
    if read == "cdf_mu":
        array_read, scalar_read = stieltjes.cdf_mu, stieltjes.cdf_mu
    else:
        array_read = lambda p, xs: np.array(stieltjes.density(p, xs).fs)
        scalar_read = scalar_density
    want = [scalar_read(p, float(x)) for x in xs]
    stieltjes.interval_masses(p)  # the tables, built before the patches
    if force == "warm_on_axis":
        locate = stieltjes._CdfTable.locate

        def on_axis(self, x):
            f, inside, w = locate(self, x)
            return f, inside, np.real(w) + 0j
        monkeypatch.setattr(stieltjes._CdfTable, "locate", on_axis)
    else:
        monkeypatch.setattr(stieltjes, "_AXIS_GUARD", 10.0)
    solved = []
    omega = stieltjes._omega
    monkeypatch.setattr(stieltjes, "_omega",
                        lambda p, z, w=None: solved.append(z.real) or omega(p, z, w))
    got = array_read(p, xs)
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
    assert h_residual(MODEL_D1_C1, 8.0) <= 1e-7


def test_h_residual_near_the_edge():
    sup = subordination.support(MODEL_D2_HALF)
    x = sup.intervals[-1][1] + 0.05
    assert h_residual(MODEL_D2_HALF, x) <= 1e-6


def test_h_residual_degenerate_small_sigma():
    p = ModelParams(sigma=1e-6, c=1.0, nu=DELTA1)
    assert h_residual(p, 8.0) <= 1e-8


@pytest.mark.parametrize("p", [MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT])
def test_subordination_chain_residual(p):
    s2c = p.sigma ** 2 * p.c
    sup = subordination.support(p)
    for x in off_support_grid(sup, per_gap=4):
        g = stieltjes.solve_g(p, complex(x, 1e-9)).g
        u = subordination.omega(p, x)
        res = abs(1.0 / (1.0 - s2c * g) - (1.0 + s2c * measure.g_nu(p.nu, u)))
        assert res <= 1e-7
