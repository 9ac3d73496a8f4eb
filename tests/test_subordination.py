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
                      MODEL_D2_HALF, MODEL_MIXED, MODEL_SPLIT, TWO_ATOMS, measures,
                      off_support_grid)


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
    calls = []
    real = measure.support_of
    monkeypatch.setattr(measure, "support_of", lambda m: calls.append(m) or real(m))
    for x in (0.5, np.array([-1.0, 0.5, 4.0])):
        calls.clear()
        subordination.phi_and_prime(MODEL_SPLIT, x)
        assert calls == [MODEL_SPLIT.nu]
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


def test_admissible_set_point_mass_c1():
    adm = subordination.admissible_set(MODEL_D1_C1)
    assert len(adm.intervals) == 1
    assert adm.u[0] == pytest.approx(0.0, abs=1e-11)
    assert adm.v[0] == pytest.approx(3.0, abs=1e-11)


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


def test_omega_rejects_support_points():
    with pytest.raises(DomainError):
        subordination.omega(MODEL_D1_C1, 3.0)


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
        lhs = subordination.k_transform(p, subordination.phi(aux, u))
        rhs = subordination.phi(p, u)
        assert abs(lhs - rhs) <= 1e-7


def test_k_transform_both_sides_independent():
    # left side through the transform solver, right side closed-form phi
    p = MODEL_D2_HALF
    aux = ModelParams(sigma=p.sigma * math.sqrt(p.c), c=1.0, nu=p.nu)
    x_aux = subordination.phi(aux, 0.5)
    assert subordination.k_transform(p, x_aux) == pytest.approx(
        5.0 / 9.0, abs=1e-7)


def test_k_transform_asymptote():
    x = 1e6
    assert subordination.k_transform(MODEL_D2_HALF, x) / x == pytest.approx(
        1.0, abs=1e-4)


def test_k_transform_requires_c_below_one():
    with pytest.raises(DomainError):
        subordination.k_transform(MODEL_D1_C1, 10.0)


def test_k_transform_rejects_companion_support():
    aux = ModelParams(sigma=math.sqrt(0.5), c=1.0, nu=DELTA2)
    inside = 0.5 * sum(subordination.support(aux).intervals[0])
    with pytest.raises(DomainError):
        subordination.k_transform(MODEL_D2_HALF, inside)


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
