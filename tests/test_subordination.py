"""Tests for the spectral maps, admissible set, and support computation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ipn import measure, subordination
from ipn.errors import ConvergenceError, DomainError
from ipn.measure import MeasureSpec
from ipn.subordination import ModelParams

from conftest import (ALL_MODELS, DELTA1, DELTA2, FIVE_MODELS, MODEL_D1_C1, MODEL_D2_C1,
                      MODEL_D2_HALF, MODEL_MIXED, MODEL_SPLIT, NEAR_MERGE_SIGMA, TWO_ATOMS,
                      atomic_measures, atomic_polynomials, k_transform, measures,
                      narrow_measures, off_support_grid, preimage_polynomial, ratios)


# ---------------------------------------------------------------------------
# phi and phi_prime
# ---------------------------------------------------------------------------

def test_phi_closed_form_point_mass_half():
    # (1 + 0.5*g)^2 * x + 0.5*(1 + 0.5*g) with g = 1/(x-2) at x = 1/2
    assert subordination.phi(MODEL_D2_HALF, 0.5) == pytest.approx(5.0 / 9.0,
                                                                  abs=1e-14)
    assert subordination.phi(MODEL_D2_HALF, 0.5) > 0.0


def test_phi_closed_form_c_one():
    # phi(x) = x^3/(x-1)^2 for a unit point mass at 1 with sigma = c = 1
    assert subordination.phi(MODEL_D1_C1, 4.0) == pytest.approx(64.0 / 9.0,
                                                                abs=1e-13)
    for x in (-3.0, 0.2, 5.0, 11.0):
        assert subordination.phi(MODEL_D1_C1, x) == pytest.approx(
            x ** 3 / (x - 1.0) ** 2, rel=1e-13)


def test_phi_rejects_support_points():
    with pytest.raises(DomainError):
        subordination.phi(MODEL_D1_C1, 1.0)


def test_phi_and_prime_checks_the_support_once(monkeypatch):
    # a real argument reads the support that the measure holds, once; a
    # complex one does not read it
    calls = []
    real = measure.SupportComponents.distance
    monkeypatch.setattr(measure.SupportComponents, "distance",
                        lambda self, x: calls.append(self) or real(self, x))
    for x in (0.5, np.array([-1.0, 0.5, 4.0])):
        calls.clear()
        subordination.phi_and_prime(MODEL_SPLIT, x)
        assert len(calls) == 1 and calls[0] is MODEL_SPLIT.nu.support
    calls.clear()
    subordination.phi_and_prime(MODEL_SPLIT, complex(3.0, 0.5))
    assert calls == []


def test_phi_of_a_huge_point():
    # phi reads g' too, whose atom term squares 1e200 past the float range
    assert subordination.phi_and_prime(MODEL_D2_HALF, 1e200) == (1e200, 1.0)


def test_phi_prime_values():
    assert subordination.phi_prime(MODEL_D2_HALF, 0.5) == pytest.approx(
        5.0 / 27.0, abs=1e-13)
    assert subordination.phi_prime(MODEL_D2_HALF, 0.5) > 0.0
    # derivative of x^3/(x-1)^2 is x^2 (x-3)/(x-1)^3
    assert subordination.phi_prime(MODEL_D1_C1, 2.0) == pytest.approx(-4.0,
                                                                      abs=1e-12)


@pytest.mark.parametrize("p", FIVE_MODELS)
def test_phi_prime_matches_finite_difference(p):
    sup = subordination.support(p)
    h = 1e-6
    us = [subordination.omega(p, x) for x in off_support_grid(sup, per_gap=4)]
    for u in us:
        fd = (subordination.phi(p, u + h) - subordination.phi(p, u - h)) / (2 * h)
        assert abs(subordination.phi_prime(p, u) - fd) <= 1e-6 * max(1.0, abs(fd))
    # the array form agrees with the scalar one up to last-ulp differences
    # of np.log and numpy's squaring against math.log and float ** 2
    assert subordination.phi_prime(p, np.array(us)) == pytest.approx(
        [subordination.phi_prime(p, u) for u in us], rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Admissible set
# ---------------------------------------------------------------------------

def sign_grid_oracle(p, lo, hi, n=4001):
    """Independent membership oracle on a dense grid.

    Conditions are evaluated from their definitions: g by direct summation
    and the slope of phi by central finite differences of phi itself, so the
    root-isolation path under test is not reused.
    """
    comps = measure.support_of(p.nu)
    thr = -1.0 / (p.sigma ** 2 * p.c)
    out = []
    h = (hi - lo) / (4 * n)
    for x in np.linspace(lo, hi, n):
        if comps.distance(float(x)) < 10 * h:
            continue
        fd = (subordination.phi(p, float(x) + h)
              - subordination.phi(p, float(x) - h)) / (2 * h)
        member = fd > 0.0 and measure.g_nu(p.nu, float(x)) > thr
        out.append((float(x), member))
    return out


@pytest.mark.parametrize("p,lo,hi", [
    (MODEL_D1_C1, -3.0, 8.0),
    (MODEL_D2_HALF, -2.0, 8.0),
    (MODEL_SPLIT, -2.0, 12.0),
    (MODEL_MIXED, -1.0, 10.0),
])
def test_admissible_set_matches_sign_grid(p, lo, hi):
    adm = subordination.admissible_set(p)
    for x, member in sign_grid_oracle(p, lo, hi):
        if min(abs(x - b) for iv in adm.intervals for b in iv) < 1e-2:
            continue  # grid resolution near the boundary
        assert (adm.gap_index(x) is not None) == member, f"mismatch at x={x}"


def _a(p, u):
    return 1.0 + p.sigma ** 2 * p.c * measure.g_nu(p.nu, u)


@given(narrow_measures(), st.floats(1e-3, 3.0), ratios())
@example(DELTA1, 1.0, 1.0)
@example(TWO_ATOMS, 1e-3, 1.0)
@example(TWO_ATOMS, 1e-3, 0.5)  # phi' changes sign next to the crossing by each atom
@example(MeasureSpec(segments=((1.0, 1.0, 3.0),)), 0.5, 1.0)
@example(MeasureSpec(atoms=((0.5, 2.0),), segments=((0.5, 4.0, 6.0),)), 3.0, 1.0)
# Newton stops 1.8e-14 past the crossing, 8e-12 from the segment end at
# 1.25, where a < 0 < phi' ~ 1e6: the crossing steps back to a > 0
@example(MeasureSpec(atoms=((0.30991, 2.99155), (0.18375, 9.05485)),
                     segments=((0.22964, 1.25, 1.53259), (0.2767, 5.0, 5.24259))),
         0.22377698380569258, 1.0)
# c ~ 1 and narrow segments far from the crossing: phi' ~ a next to it, so
# g_nu must keep the relative precision that a log of (u-lo)/(u-hi) near 1
# loses
@example(MeasureSpec(segments=((0.8546220514830187, 3.75, 3.7502803585522417),
                               (0.14537794851698138, 7.5, 7.50072160823763))),
         3.332856893220611, 0.999999999999)
@settings(max_examples=60, deadline=None)
def test_admissible_set_from_its_definition(nu, sigma, c):
    # read off phi' and a = 1 + sigma^2 c g_nu, not off the search: inside each
    # admissible piece both are positive, and across each boundary one of
    # them changes sign, unless the boundary is a guard point next to supp(nu)
    p = ModelParams(sigma=sigma, c=c, nu=nu)
    adm = subordination.admissible_set(p)
    comps = measure.support_of(nu)
    for lo, hi in adm.gaps():
        u = lo + 1.0 if math.isinf(hi) else hi - 1.0 if math.isinf(lo) else 0.5 * (lo + hi)
        assert subordination.phi_prime(p, u) > 0.0 and _a(p, u) > 0.0, (lo, hi)
    for b in (b for iv in adm.intervals for b in iv):
        dist = comps.distance(b)
        if dist <= subordination._endpoint_guard(b):
            continue
        h = min(1e-9 * max(1.0, abs(b)), 0.5 * dist)
        flips = [f(b - h) * f(b + h) < 0.0
                 for f in (lambda u: subordination.phi_prime(p, u), lambda u: _a(p, u))]
        assert any(flips), b


def _slope_samples(p, lo, hi):
    """phi' and a at about 20,000 points of [lo, hi] and at geometric clusters
    toward both ends, with bounds on their rounding from the sizes of the
    terms they sum."""
    ks = 0.5 ** np.arange(1, 54)
    xs = np.concatenate([np.linspace(lo, hi, 20001), lo + (hi - lo) * ks, hi - (hi - lo) * ks])
    xs = np.unique(xs[(xs >= lo) & (xs <= hi)])
    g, gp = measure.g_nu_and_prime(p.nu, xs)
    s2c, tail = p.sigma ** 2 * p.c, p.sigma ** 2 * (1.0 - p.c)
    a, size_a = 1.0 + s2c * g, 1.0 + abs(s2c * g)
    slope = a * a + 2.0 * xs * a * s2c * gp + tail * s2c * gp
    size = size_a ** 2 + abs(2.0 * xs * size_a * s2c * gp) + abs(tail * s2c * gp)
    return xs, slope, 1e-13 * size, a, 1e-13 * size_a


def _valleys_between_interior_peaks(v, tol):
    """Mask of the samples m of v below an interior local maximum on each
    side: a sample j there above v[m] and above some sample beyond j (away
    from m), each by more than the rounding tol of both.  A rise toward an
    end of v is no interior maximum."""
    low, high = v + tol, v - tol
    neg = np.full(1, -np.inf)
    below_left = high[1:] > np.minimum.accumulate(low)[:-1]
    below_right = high[:-1] > np.minimum.accumulate(low[::-1])[::-1][1:]
    peak_left = np.where(np.concatenate([[False], below_left]), high, -np.inf)
    peak_right = np.where(np.concatenate([below_right, [False]]), high, -np.inf)
    left = np.concatenate([neg, np.maximum.accumulate(peak_left)[:-1]])
    right = np.concatenate([np.maximum.accumulate(peak_right[::-1])[::-1][1:], neg])
    return (left > low) & (right > low)


@given(narrow_measures(), st.floats(1e-3, 3.0), ratios())
@example(TWO_ATOMS, NEAR_MERGE_SIGMA - 3e-9, 0.5)
@example(MeasureSpec(segments=((0.8546220514830187, 3.75, 3.7502803585522417),
                               (0.14537794851698138, 7.5, 7.50072160823763))),
         3.332856893220611, 0.999999999999)
@settings(max_examples=40, deadline=None)
def test_one_peak_of_phi_prime_per_window_and_no_missed_piece(nu, sigma, c):
    # the rule that decides each gap by the one peak of phi' on its window,
    # against phi' sampled densely there: on a bounded window phi' has at
    # most one interior local maximum beyond rounding (it may rise again
    # toward the crossing u*, to sigma^4 c (1-c) g_nu'(u*) < 0, and fall
    # from the lower end), on an unbounded one it changes sign at most once,
    # and no sample outside the admissible pieces has phi' > PHI_PRIME_FLOOR
    # with a > 0, nor one inside them phi' < -PHI_PRIME_FLOOR or a < 0,
    # beyond rounding
    p = ModelParams(sigma=sigma, c=c, nu=nu)
    adm = subordination.admissible_set(p)
    bounds = {b for iv in adm.intervals for b in iv}
    floor = subordination.PHI_PRIME_FLOOR
    for gap_lo, gap_hi in measure.support_of(nu).gaps():
        lo, hi = subordination._window(p, gap_lo, gap_hi)
        if not lo < hi:
            continue
        xs, slope, tol, a, tol_a = _slope_samples(p, lo, hi)
        if math.isinf(gap_lo) or math.isinf(gap_hi):
            signs = np.sign(slope[abs(slope) > tol + floor])
            assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1, (gap_lo, gap_hi)
        else:
            valley = _valleys_between_interior_peaks(slope, tol)
            assert not valley.any(), (gap_lo, gap_hi, xs[valley][:3])
        admitted = np.array([adm.gap_index(float(x)) is not None for x in xs])
        edge = np.isin(xs, list(bounds))
        missed = ~admitted & ~edge & (slope > floor + tol) & (a > tol_a)
        assert not missed.any(), (gap_lo, gap_hi, xs[missed][:3])
        wrong = admitted & ((slope < -floor - tol) | (a < -tol_a))
        assert not wrong.any(), (gap_lo, gap_hi, xs[wrong][:3])


def test_admissible_set_point_mass_c1():
    adm = subordination.admissible_set(MODEL_D1_C1)
    assert len(adm.intervals) == 1
    assert adm.u[0] == pytest.approx(0.0, abs=1e-11)
    assert adm.v[0] == pytest.approx(3.0, abs=1e-11)


@pytest.mark.parametrize("fd, expected", [
    (lambda x: (x - 0.3, 1.0), 0.3),
    (lambda x: (0.3 - x, -1.0), 0.3),
    (lambda x: (x - 0.3, 0.0), 0.3),
    (lambda x: (x, 1.0), 0.0),
    (lambda x: (x - 1.0, 1.0), 1.0),
    (lambda x: (x + 1.0, 1.0), 0.0),
    (lambda x: (3.0 - x, -1.0), 1.0),
    (lambda x: (x - 2.0, 1.0), 1.0),
    (lambda x: (-x - 2.0, -1.0), 0.0),
    (lambda x: (x * x - 0.09, 2.0 * x), 0.3),
    (lambda x: (1e308 * (2.0 * x - 1.0), 1.0), 0.5),
], ids=["increasing", "decreasing", "bisection", "f(a)=0", "f(b)=0",
        "positive-increasing", "positive-decreasing", "negative-increasing",
        "negative-decreasing", "convex", "overflowing-secant"])
def test_bracketed_root_contract(fd, expected):
    # each end is evaluated once; without a strict sign change the end with
    # the smaller |f| comes back as it is, and nothing else is evaluated;
    # with one, the third evaluation is at the secant point of the ends, or
    # at the midpoint where that point is not strictly inside (f(1) - f(0)
    # overflows to inf)
    calls = []
    root = subordination._bracketed_root(lambda x: calls.append(x) or fd(x),
                                         0.0, 1.0, 1e-14)
    assert calls[:2] == [0.0, 1.0] and calls.count(0.0) == calls.count(1.0) == 1
    if expected in (0.0, 1.0):
        assert root == expected and len(calls) == 2
    else:
        fa, fb = fd(0.0)[0], fd(1.0)[0]
        secant = 0.0 - fa * (1.0 - 0.0) / (fb - fa)
        assert calls[2] == (secant if 0.0 < secant < 1.0 else 0.5)
        assert root == pytest.approx(expected, abs=1e-13)


def test_g_condition_boundary_point_mass():
    # the g-threshold crossing in the gap left of the atom at 2 sits at 3/2
    crossing = subordination.g_threshold_crossing(MODEL_D2_HALF, (-math.inf, 2.0))
    assert crossing == pytest.approx(1.5, abs=1e-10)
    adm = subordination.admissible_set(MODEL_D2_HALF)
    assert len(adm.intervals) == 1
    # the slope condition binds before the g-condition here
    assert adm.u[0] <= 1.5
    assert adm.v[0] > 2.0


@pytest.mark.parametrize("t", [1e-6, 0.25, 1.0])
def test_g_threshold_crossing_on_the_unbounded_left_gap(t):
    # g_nu = 1/(u - t) meets -1/(s^2 c) = -1/1.35 at t - 1.35, which nears
    # -s^2 c as t -> 0: the guard -s^2 c - 1 must stay to its left
    p = ModelParams(sigma=1.5, c=0.6, nu=MeasureSpec.point_mass(t))
    crossing = subordination.g_threshold_crossing(p, (-math.inf, t))
    assert crossing == pytest.approx(t - 1.35, abs=1e-11)


def test_g_threshold_crossing_beyond_the_left_guard():
    # next to the segment end at 3 g_nu diverges only logarithmically, so the
    # crossing in the gap (3, 3.5) lies within about 1e-150 of 3: the left
    # guard point stands for it, and the gap has no admissible part
    nu = MeasureSpec(atoms=((0.99, 3.5),), segments=((0.01, 1.0, 3.0),))
    p = ModelParams(sigma=2.0, c=1.0, nu=nu)
    crossing = subordination.g_threshold_crossing(p, (3.0, 3.5))
    assert 3.0 < crossing <= 3.0 + 1e-10
    assert measure.g_nu(nu, crossing) < -1.0 / (p.sigma ** 2 * p.c)
    adm = subordination.admissible_set(p)
    assert len(adm.intervals) == 1 and adm.u[0] < 1.0 and adm.v[0] > 3.5
    assert len(subordination.support(p).intervals) == 1


def test_slope_root_inside_the_guard_zone():
    # next to the ends of a wide segment at sigma = 1e-4, phi' changes sign
    # closer to supp(nu) than the support-membership guard: the guard points
    # stand for the boundaries, which must not land on supp(nu) itself
    p = ModelParams(sigma=1e-4, c=0.5, nu=MeasureSpec(segments=((1.0, 1e4, 2e4),)))
    adm = subordination.admissible_set(p)
    comps = measure.support_of(p.nu)
    assert all(0.0 < comps.distance(b) <= 1e-7 for iv in adm.intervals for b in iv)
    (lo, hi), = subordination.support(p).intervals
    assert 1e4 - 1e-3 < lo < 1e4 and 2e4 < hi < 2e4 + 1e-3


def test_admissible_set_shrinks_onto_support_at_small_sigma():
    p = ModelParams(sigma=1e-4, c=0.5, nu=TWO_ATOMS)
    adm = subordination.admissible_set(p)
    assert len(adm.intervals) == 2
    u1, u2 = adm.u
    v1, v2 = adm.v
    assert u1 < 1.0 < v1 and abs(u1 - 1.0) < 1e-3 and abs(v1 - 1.0) < 1e-3
    assert u2 < 5.0 < v2 and abs(u2 - 5.0) < 1e-3 and abs(v2 - 5.0) < 1e-3


def test_admissible_complement_covers_support():
    for p in FIVE_MODELS:
        adm = subordination.admissible_set(p)
        comps = measure.support_of(p.nu)
        for lo, hi in comps.intervals:
            l = adm.interval_index(0.5 * (lo + hi))
            assert l is not None
            assert adm.u[l] <= lo and hi <= adm.v[l]


# ---------------------------------------------------------------------------
# Support
# ---------------------------------------------------------------------------

def test_support_point_mass_c1():
    sup = subordination.support(MODEL_D1_C1)
    assert len(sup.intervals) == 1
    lo, hi = sup.intervals[0]
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(27.0 / 4.0, abs=1e-9)
    assert sup.zero_in_support is True


def test_zero_flag_cases():
    # c = 1 with g(0) = -1/2 > -1: zero stays out
    assert subordination.support(MODEL_D2_C1).zero_in_support is False
    # any c < 1: zero is out
    assert subordination.support(MODEL_D2_HALF).zero_in_support is False
    assert subordination.support(MODEL_SPLIT).zero_in_support is False
    # c = 1 with zero inside supp(nu)
    nu0 = MeasureSpec(atoms=((0.3, 0.0),), segments=((0.7, 1.0, 2.0),))
    assert subordination.support(
        ModelParams(sigma=0.3, c=1.0, nu=nu0)).zero_in_support is True


def test_support_minimum_positive_when_c_below_one():
    for p in (MODEL_D2_HALF, MODEL_SPLIT, MODEL_MIXED):
        sup = subordination.support(p)
        assert sup.intervals[0][0] > 0.0


def test_support_intervals_ordered_and_separated():
    for p in ALL_MODELS:
        sup = subordination.support(p)
        for lo, hi in sup.intervals:
            assert lo < hi
        for (_, a_hi), (b_lo, _) in zip(sup.intervals, sup.intervals[1:]):
            assert a_hi < b_lo
        # every boundary sits in a gap of supp(nu), where phi is analytic,
        # and the support edges are phi there (a lower edge near 0 snaps to 0
        # when zero is in the support, or when phi puts it below zero)
        comps = measure.support_of(p.nu)
        adm = sup.admissible
        assert all(comps.distance(b) > measure.ATOL for iv in adm.intervals for b in iv)
        for (lo, hi), u, v in zip(sup.intervals, adm.u, adm.v):
            phi_u = subordination.phi(p, u)
            assert lo == phi_u or (lo == 0.0 and abs(phi_u) <= 1e-9
                                   and (sup.zero_in_support or phi_u < 0.0))
            assert hi == subordination.phi(p, v)
    # the model of configs/reference_a.json: phi(x) = x^3/(x-1)^2 peaks
    # at 27/4 at x = 3 with zero slope, so the edge is exact
    assert subordination.support(MODEL_D1_C1).intervals[0][1] == 6.75


def check_point_mass_c1_edges(t, sigma, lo_rel=1e-12):
    # nu = delta_t, c = 1: phi(t + w) = (t + w)(w + s^2)^2 / w^2, whose slope
    # vanishes where w^2 - s^2 w - 2 t s^2 = 0; below the negative root the
    # threshold w < -s^2 binds instead when s^2 >= t, and phi(t - s^2) = 0
    s2 = sigma ** 2
    edge = lambda w: (t + w) * (w + s2) ** 2 / w ** 2
    w_hi = 0.5 * (s2 + math.sqrt(s2 * s2 + 8.0 * t * s2))
    w_lo = -2.0 * t * s2 / w_hi
    sup = subordination.support(
        ModelParams(sigma=sigma, c=1.0, nu=MeasureSpec.point_mass(t)))
    (lo, hi), = sup.intervals
    assert hi == pytest.approx(edge(w_hi), rel=1e-12, abs=0.0)
    assert sup.zero_in_support is (s2 >= t)
    if s2 >= t:
        assert lo == 0.0
    else:
        assert lo == pytest.approx(edge(w_lo), rel=lo_rel, abs=0.0)


@pytest.mark.parametrize("sigma", [0.01, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("t", [1e-3, 1.0, 1e2, 1e4, 1e6])
def test_support_point_mass_c1_closed_form(t, sigma):
    check_point_mass_c1_edges(t, sigma)


@pytest.mark.parametrize("s2, lo_rel", [(0.999, 1e-12), (0.9999, 1e-11)])
def test_support_point_mass_c1_closed_form_below_snap(s2, lo_rel):
    # lower edges 1.48e-10 and 1.5e-13, inside the 1e-9 snap distance, with
    # zero outside the support: the edge stays positive
    check_point_mass_c1_edges(1.0, math.sqrt(s2), lo_rel)


def check_norm_bound(p):
    # Weyl: supp mu lies in [(sqrt(m) - r)_+^2, (sqrt(M) + r)^2] with
    # r = sigma (1 + sqrt(c)); the scan windows and omega's brackets rest on
    # u_1 >= phi(u_1) - sigma^2 (1+c) and v_p < phi(v_p)
    comps = measure.support_of(p.nu)
    r = p.sigma * (1.0 + math.sqrt(p.c))
    sup = subordination.support(p)
    lo, hi = sup.intervals[0][0], sup.intervals[-1][1]
    assert lo >= max(math.sqrt(comps.min) - r, 0.0) ** 2 * (1.0 - 1e-12)
    assert hi <= (math.sqrt(comps.max) + r) ** 2 * (1.0 + 1e-12)
    assert sup.admissible.u[0] >= lo - p.sigma ** 2 * (1.0 + p.c)
    assert sup.admissible.v[-1] < hi


@pytest.mark.parametrize("p", ALL_MODELS)
def test_support_within_norm_bound(p):
    check_norm_bound(p)


@given(measures(), st.floats(1e-3, 3.0), st.floats(0.05, 1.0))
@example(MeasureSpec.point_mass(1.25), 2.0, 0.99999)  # lower edge 1.5e-10 > 0
@example(MeasureSpec.point_mass(0.5), 1.0, 0.9999999999999999)  # phi(u_1) < 0
@settings(max_examples=60, deadline=None)
def test_support_within_norm_bound_on_random_measures(nu, sigma, c):
    check_norm_bound(ModelParams(sigma=sigma, c=c, nu=nu))


def _at(f, x):
    import mpmath

    return mpmath.polyval(f[::-1], x)


def _real_roots(f, dps: int):
    import mpmath

    roots = mpmath.polyroots(f[::-1], maxsteps=500, extraprec=4 * dps)
    return sorted(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** (10 - dps))


def atomic_support_oracle(p: ModelParams, dps: int = 60):
    """Admissible-set boundaries and support of the limit law for atomic nu
    and c < 1, as two lists of (lower, upper) pairs, from polynomial roots
    at dps digits, sharing no code with ``subordination``.

    With P = prod (u - t_i), Q = sum w_i prod_{j != i} (u - t_j) and
    R = P + s^2 c Q, a = R/P and phi = N/P^2 for N = u R^2 + s^2 (1-c) R P,
    so phi' = D/P^3 with D = N'P - 2NP'.  For c < 1, phi' < 0 where a = 0,
    so the admissible-set boundaries are the real roots of D with R/P > 0,
    and the support edges are N/P^2 there."""
    import mpmath

    with mpmath.workdps(dps):
        P, R, N, D = atomic_polynomials(p)
        bounds = [x for x in _real_roots(D, dps) if _at(R, x) * _at(P, x) > 0]
        edges = [float(_at(N, x) / _at(P, x) ** 2) for x in bounds]
        bounds = [float(x) for x in bounds]
    assert len(edges) % 2 == 0, bounds
    return list(zip(bounds[::2], bounds[1::2])), list(zip(edges[::2], edges[1::2]))


def atomic_omega_oracle(p: ModelParams, x: float, dps: int = 60) -> list[float]:
    """The real roots u of N - x P^2 (phi(u) = x) with R/P > 0 and
    D/P^3 > 0, i.e. a > 0 and phi' > 0: the admissible preimages of x, one
    for x off the support, from polynomial roots at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        P, R, _, D = atomic_polynomials(p)
        F = preimage_polynomial(p)(mpmath.mpf(x))
        return [float(u) for u in _real_roots(F, dps)
                if _at(R, u) * _at(P, u) > 0 and _at(D, u) * _at(P, u) > 0]


@given(atomic_measures(), st.floats(1e-3, 3.0), st.floats(0.05, 0.99))
@example(TWO_ATOMS, NEAR_MERGE_SIGMA - 1e-8, 0.5)
@example(TWO_ATOMS, NEAR_MERGE_SIGMA - 3e-9, 0.5)
@example(TWO_ATOMS, NEAR_MERGE_SIGMA - 1e-9, 0.5)
@settings(max_examples=60, deadline=None)
def test_support_against_the_polynomial_oracle(nu, sigma, c):
    # the same number of intervals, near a merge too, where an admissible
    # interval is down to 1e-4 wide, and every edge to rounding
    p = ModelParams(sigma=sigma, c=c, nu=nu)
    want = atomic_support_oracle(p)[1]
    got = subordination.support(p).intervals
    assert len(got) == len(want)
    for (lo, hi), (want_lo, want_hi) in zip(got, want):
        assert lo == pytest.approx(want_lo, rel=1e-13, abs=0.0)
        assert hi == pytest.approx(want_hi, rel=1e-13, abs=0.0)


@given(atomic_measures(), st.floats(1e-3, 3.0), st.floats(0.05, 0.99))
@settings(max_examples=30, deadline=None)
def test_omega_against_the_polynomial_oracle(nu, sigma, c):
    # off the support phi(u) = x has exactly one admissible root, and omega
    # finds it to rounding
    p = ModelParams(sigma=sigma, c=c, nu=nu)
    for x in off_support_grid(subordination.support(p), per_gap=4):
        roots = atomic_omega_oracle(p, x)
        assert len(roots) == 1, (x, roots)
        u = roots[0]
        assert abs(subordination.omega(p, x) - u) <= 1e-13 * max(1.0, abs(u)), x


@given(atomic_measures(), st.floats(1e-3, 3.0),
       st.sampled_from((1e-12, 1e-11, 1e-10, 1e-9)).map(lambda e: 1.0 - e))
# phi' crosses 0 about 2.7e-12 below the g-threshold crossing u* and passes
# +1e-12 only about 8e-12 below it: a walk from u* to |phi'| > 1e-12 lands
# past the root and keeps u* as the lower boundary
@example(MeasureSpec.point_mass(1.2406774785441685), 1.8665621982226608, 1.0 - 1e-12)
@settings(max_examples=40, deadline=None)
def test_lower_boundary_at_c_one_minus_1e_12_against_the_oracle(nu, sigma, c):
    # near c = 1, phi' at u* is sigma^4 c (1-c) g_nu'(u*), within rounding
    # of 0, and the lower boundary lies just below u*.  There the lower
    # edge, down to about 1e-24, is quadratic in a = 1 + s^2 c g ~ 1e-12,
    # whose rounding leaves phi at the oracle's own u 2.5e-8 off: the lower
    # edge is held to 1e-6 relative, every other edge to rounding
    p = ModelParams(sigma=sigma, c=c, nu=nu)
    bounds, edges = atomic_support_oracle(p)
    sup = subordination.support(p)
    assert len(sup.intervals) == len(edges)
    for got, want in zip(sup.admissible.intervals, bounds):
        for b, want_b in zip(got, want):
            assert abs(b - want_b) <= 1e-13 * max(1.0, abs(want_b)), (got, want)
    for k, ((lo, hi), (want_lo, want_hi)) in enumerate(zip(sup.intervals, edges)):
        assert lo == pytest.approx(want_lo, rel=1e-6 if k == 0 else 1e-13, abs=0.0)
        assert hi == pytest.approx(want_hi, rel=1e-13, abs=0.0)


@given(atomic_measures(), st.floats(1e-3, 3.0), ratios())
@settings(max_examples=60, deadline=None)
def test_g_threshold_crossing_against_the_roots_of_r(nu, sigma, c):
    # a = R/P (see ``atomic_support_oracle``) has one root r in each gap of
    # supp(nu) but the unbounded right one; the crossing is a point next to
    # r where a, as phi_and_prime rounds it, is positive
    import mpmath

    p = ModelParams(sigma=sigma, c=c, nu=nu)
    with mpmath.workdps(60):
        roots = [float(r) for r in _real_roots(atomic_polynomials(p)[1], 60)]
    gaps = [gap for gap in measure.support_of(nu).gaps() if not math.isinf(gap[1])]
    assert len(roots) == len(gaps)
    for gap, r in zip(gaps, roots):
        assert gap[0] < r < gap[1]
        u = subordination.g_threshold_crossing(p, gap)
        assert 1.0 + p.c * p.sigma ** 2 * measure.g_nu(nu, u) > 0.0, (gap, u)
        assert abs(u - r) <= 1e-13 * max(1.0, abs(r)), (gap, u, r)


def test_support_result_serialization():
    d = subordination.support(MODEL_SPLIT).to_dict()
    assert set(d) == {"intervals", "zero_in_support", "boundaries"}
    assert len(d["intervals"]) == 2
    assert len(d["boundaries"]["u"]) == 2


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_closed_form_root():
    # w^3 = 8 (w-1)^2 factors as (w-2)(w^2-6w+4); the root in (3, inf)
    assert subordination.omega(MODEL_D1_C1, 8.0) == pytest.approx(
        3.0 + math.sqrt(5.0), abs=1e-10)


def test_omega_inverse_of_phi_at_half():
    x = subordination.phi(MODEL_D2_HALF, 0.5)
    assert subordination.omega(MODEL_D2_HALF, x) == pytest.approx(0.5, abs=1e-9)


def test_omega_inverse_pair_identity():
    assert subordination.omega(MODEL_D1_C1, 64.0 / 9.0) == pytest.approx(
        4.0, abs=1e-10)


def test_omega_at_the_ends_of_the_line():
    # phi(u) - x is inf - inf there, which no bracket end rule can read
    for x in (-math.inf, math.inf):
        assert subordination.omega(MODEL_SPLIT, x) == x


def test_omega_rejects_support_points():
    with pytest.raises(DomainError):
        subordination.omega(MODEL_D1_C1, 3.0)
    # NaN raises as a point of supp(nu) does, rather than coming back as NaN
    with pytest.raises(DomainError):
        subordination.omega(MODEL_SPLIT, math.nan)
    with pytest.raises(DomainError):
        subordination.g_threshold_crossing(MODEL_SPLIT, (1.0, math.nan))


@pytest.mark.parametrize("p", FIVE_MODELS)
def test_inverse_pair_residual_on_grid(p):
    sup = subordination.support(p)
    # besides the grid: 1e6 spans beyond each outer edge, where omega's
    # bracket on an unbounded component is widest, and 1e-6 spans inside
    # every gap, where phi' -> 0 at the edge
    span = sup.intervals[-1][1] - sup.intervals[0][0] + 1.0
    extremes = [sup.intervals[0][0] - 1e6 * span, sup.intervals[-1][1] + 1e6 * span]
    for a, b in sup.gaps():
        width = b - a if math.isfinite(b - a) else span
        extremes += [x for x in (a + 1e-6 * width, b - 1e-6 * width) if math.isfinite(x)]
    for x in off_support_grid(sup) + extremes:
        u = subordination.omega(p, x)
        assert abs(subordination.phi(p, u) - x) <= 1e-9 * max(1.0, abs(x))


@pytest.mark.parametrize("p", FIVE_MODELS)
def test_omega_strictly_increasing_across_gaps(p):
    sup = subordination.support(p)
    xs = off_support_grid(sup)
    us = [subordination.omega(p, x) for x in xs]
    assert all(b > a for a, b in zip(us, us[1:]))


def test_omega_newton_steps_read_one_transform_each(monkeypatch):
    # every phi or phi' evaluation of a solve is one g_nu_and_prime pass: one
    # per Newton step, plus at most four value-only reads of phi (the two
    # bracket ends, the root finder's first end and the residual check)
    counts = {"pass": 0, "pair": 0, "value": 0}
    real_pass = measure.g_nu_and_prime
    real_pair, real_phi = subordination.phi_and_prime, subordination.phi

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    sups = [(p, subordination.support(p)) for p in ALL_MODELS]  # cached first
    monkeypatch.setattr(measure, "g_nu_and_prime", counted("pass", real_pass))
    monkeypatch.setattr(subordination, "phi_and_prime", counted("pair", real_pair))
    monkeypatch.setattr(subordination, "phi", counted("value", real_phi))
    newton = 0
    for p, sup in sups:
        for x in off_support_grid(sup):
            before = dict(counts)
            subordination.omega(p, x)
            d = {k: counts[k] - before[k] for k in counts}
            assert d["pass"] == d["pair"] and d["value"] <= 4, (p, x)
            newton += d["pair"] - d["value"]
    assert newton > 0


@pytest.mark.parametrize("p", FIVE_MODELS)
def test_phi_globally_increasing_on_admissible_set(p):
    adm = subordination.admissible_set(p)
    us = []
    for lo, hi in adm.gaps():
        if math.isinf(lo):
            lo = adm.u[0] - 3.0
        if math.isinf(hi):
            hi = adm.v[-1] + 3.0
        width = hi - lo
        us.extend(lo + width * f for f in (0.2, 0.5, 0.8))
    vals = [subordination.phi(p, u) for u in sorted(us)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("p", FIVE_MODELS)
def test_admissible_set_grows_as_sigma_shrinks(p):
    # every sampled admissible point stays admissible at half the noise
    smaller = ModelParams(sigma=0.5 * p.sigma, c=p.c, nu=p.nu)
    thr = -1.0 / (smaller.sigma ** 2 * smaller.c)
    adm = subordination.admissible_set(p)
    for lo, hi in adm.gaps():
        if math.isinf(lo):
            lo = adm.u[0] - 2.0
        if math.isinf(hi):
            hi = adm.v[-1] + 2.0
        for f in (0.1, 0.5, 0.9):
            u = lo + (hi - lo) * f
            assert measure.g_nu(p.nu, u) > thr
            assert subordination.phi_prime(smaller, u) > 0.0


def test_support_pipeline_on_randomized_models(rng):
    # shake the isolation machinery across measure shapes and noise scales
    checked = 0
    while checked < 40:
        n_atoms = int(rng.integers(0, 4))
        n_segs = int(rng.integers(0, 3))
        if n_atoms + n_segs == 0:
            n_atoms = 1
        slots = rng.permutation(9)[: n_atoms + n_segs]
        weights = rng.uniform(0.05, 1.0, n_atoms + n_segs)
        weights /= weights.sum()
        atoms = [(weights[i], 1.1 * slots[i] + rng.uniform(0, 0.4))
                 for i in range(n_atoms)]
        segs = [(weights[n_atoms + j], 1.1 * slots[n_atoms + j],
                 1.1 * slots[n_atoms + j] + rng.uniform(0.15, 0.8))
                for j in range(n_segs)]
        try:
            nu = MeasureSpec(atoms=tuple(atoms), segments=tuple(segs))
        except ValueError:
            continue
        checked += 1
        sigma = 10.0 ** rng.uniform(-3, 0.7)
        c = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.0))
        p = ModelParams(sigma=sigma, c=c, nu=nu)
        sup = subordination.support(p)
        if c < 1.0:
            assert sup.intervals[0][0] > 0.0
        span = sup.intervals[-1][1] - sup.intervals[0][0] + 1.0
        for x in (sup.intervals[0][0] - 0.37 * span,
                  sup.intervals[-1][1] + 0.41 * span):
            u = subordination.omega(p, x)
            assert abs(subordination.phi(p, u) - x) <= 1e-9 * max(1.0, abs(x))


# ---------------------------------------------------------------------------
# K transform
# ---------------------------------------------------------------------------

def test_k_transform_composition_identity():
    p = MODEL_D2_HALF
    aux = ModelParams(sigma=p.sigma * math.sqrt(p.c), c=1.0, nu=p.nu)
    for u in (0.4, 0.5, -1.0):
        lhs = k_transform(p, subordination.phi(aux, u))
        rhs = subordination.phi(p, u)
        assert abs(lhs - rhs) <= 1e-7


def test_k_transform_both_sides_independent():
    # left side through the transform solver, right side closed-form phi
    p = MODEL_D2_HALF
    aux = ModelParams(sigma=p.sigma * math.sqrt(p.c), c=1.0, nu=p.nu)
    x_aux = subordination.phi(aux, 0.5)
    assert k_transform(p, x_aux) == pytest.approx(
        5.0 / 9.0, abs=1e-7)


def test_k_transform_asymptote():
    x = 1e6
    assert k_transform(MODEL_D2_HALF, x) / x == pytest.approx(
        1.0, abs=1e-4)


def test_k_transform_requires_c_below_one():
    with pytest.raises(DomainError):
        k_transform(MODEL_D1_C1, 10.0)


def test_k_transform_rejects_companion_support():
    aux = ModelParams(sigma=math.sqrt(0.5), c=1.0, nu=DELTA2)
    inside = 0.5 * sum(subordination.support(aux).intervals[0])
    with pytest.raises(DomainError):
        k_transform(MODEL_D2_HALF, inside)


# ---------------------------------------------------------------------------
# Model params validation
# ---------------------------------------------------------------------------

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, c=0.0, nu=DELTA1)
    with pytest.raises(ValueError):
        ModelParams(sigma=1.0, c=1.5, nu=DELTA1)
    with pytest.raises(ValueError):
        ModelParams(sigma=-1.0, c=0.5, nu=DELTA1)
    with pytest.raises(ValueError, match="positive"):
        ModelParams(sigma=0.0, c=0.5, nu=DELTA1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ModelParams(sigma=bad, c=0.5, nu=DELTA1)
