"""Tests for atom + uniform-segment measures and their transforms."""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from ipn import measure
from ipn.errors import DomainError
from ipn.measure import MeasureSpec

from conftest import DELTA2, MIXED, TWO_ATOMS, UNIFORM_13, measures, narrow_measures


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        MeasureSpec(atoms=((0.9, 1.0),))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        MeasureSpec(atoms=((1.5, 1.0), (-0.5, 2.0)))
    with pytest.raises(ValueError):
        MeasureSpec(atoms=((math.nan, 1.0),))


def test_locations_nonnegative():
    with pytest.raises(ValueError):
        MeasureSpec(atoms=((1.0, -0.5),))
    # and finite
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            MeasureSpec(atoms=((1.0, bad),))
        with pytest.raises(ValueError):
            MeasureSpec(segments=((1.0, 1.0, bad),))
        with pytest.raises(ValueError):
            MeasureSpec(segments=((1.0, bad, 3.0),))
    # JSON input parses NaN and Infinity
    with pytest.raises(ValueError):
        MeasureSpec.from_dict(json.loads('{"atoms":[{"w":NaN,"t":1}]}'))
    with pytest.raises(ValueError):
        MeasureSpec.from_dict(json.loads('{"segments":[{"w":1,"lo":1,"hi":Infinity}]}'))


def test_segments_disjoint():
    with pytest.raises(ValueError):
        MeasureSpec(segments=((0.5, 1.0, 3.0), (0.5, 2.0, 4.0)))
    # segments touching within ATOL are disjoint, and merge in the support
    for lo in (3.0 - measure.ATOL / 2, 3.0, 3.0 + measure.ATOL / 2):
        m = MeasureSpec(segments=((0.5, lo, 4.0), (0.5, 1.0, 3.0)))
        assert m.support.intervals == ((1.0, 4.0),)
    # a segment with hi == lo is rejected, never read as an atom
    for segments in (((1.0, 2.0, 2.0),), ((0.5, 2.0, 2.0), (0.5, 3.0, 4.0))):
        with pytest.raises(ValueError, match="hi > lo"):
            MeasureSpec(segments=segments)
    # two segments sharing a lower end pass only when one is narrower than
    # ATOL, and then in either order
    narrow, wide = (0.5, 2.0, 2.0 + 1e-13), (0.5, 2.0, 4.0)
    for segments in ((narrow, wide), (wide, narrow)):
        assert MeasureSpec(segments=segments).segments == (narrow, wide)


def test_atom_not_interior_to_segment():
    with pytest.raises(ValueError):
        MeasureSpec(atoms=((0.5, 2.0),), segments=((0.5, 1.0, 3.0),))
    # within ATOL of an end an atom is on it; 2 ATOL inside it is interior
    for t in (1.0 + measure.ATOL / 2, 3.0 - measure.ATOL / 2):
        m = MeasureSpec(atoms=((0.5, t),), segments=((0.5, 1.0, 3.0),))
        assert m.support.intervals == ((1.0, 3.0),)
    for t in (1.0 + 2 * measure.ATOL, 3.0 - 2 * measure.ATOL):
        with pytest.raises(ValueError, match="interior"):
            MeasureSpec(atoms=((0.5, t),), segments=((0.5, 1.0, 3.0),))


def test_point_mass_at_zero_alone_rejected():
    with pytest.raises(ValueError):
        MeasureSpec.point_mass(0.0)
    # zero atom is fine when it is not the whole measure
    MeasureSpec(atoms=((0.5, 0.0), (0.5, 1.0)))


def test_json_round_trip():
    m = MeasureSpec(atoms=((0.5, 1.0),), segments=((0.5, 2.0, 4.0),))
    assert MeasureSpec.from_dict(m.to_dict()) == m
    parsed = MeasureSpec.from_dict(
        {"atoms": [{"w": 0.5, "t": 1.0}],
         "segments": [{"w": 0.5, "lo": 2.0, "hi": 4.0}]})
    assert parsed == m
    # equal measures given in any order compare equal
    a = MeasureSpec(atoms=((0.25, 5.0), (0.25, 1.0)),
                    segments=((0.25, 6.0, 7.0), (0.25, 2.0, 4.0)))
    b = MeasureSpec(atoms=((0.25, 1.0), (0.25, 5.0)),
                    segments=((0.25, 2.0, 4.0), (0.25, 6.0, 7.0)))
    assert a == b


# ---------------------------------------------------------------------------
# Stieltjes transform
# ---------------------------------------------------------------------------

def test_g_point_mass_at_zero_argument():
    assert measure.g_nu(DELTA2, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_g_point_mass_threshold_example():
    # g(1.4) = -5/3 and g(1.5) = -2, the threshold value for c*sigma^2 = 1/2
    assert measure.g_nu(DELTA2, 1.4) == pytest.approx(-5.0 / 3.0, abs=1e-12)
    assert measure.g_nu(DELTA2, 1.5) == pytest.approx(-2.0, abs=1e-12)


def test_g_uniform_segment_against_quadrature():
    # independent oracle: adaptive quadrature of the defining integral
    oracle, err = quad(lambda x: 0.5 / (5.0 - x), 1.0, 3.0, epsabs=1e-12)
    assert err < 1e-10
    val = measure.g_nu(UNIFORM_13, 5.0)
    assert val == pytest.approx(oracle, abs=1e-10)
    assert val == pytest.approx(0.34657359027997264, abs=1e-12)  # ln(2)/2


def test_real_segment_term_keeps_its_digits_far_from_a_narrow_segment():
    # there (z - lo)/(z - hi) nears 1, and the log of the rounded quotient
    # keeps only about 1e-16 |z - lo| / (hi - lo) of g's relative precision
    m = MeasureSpec(segments=((1.0, 3.75, 3.75028),))
    for z in (-6.9, 3.7, 3.8, 1e3):
        g, gp, _, _ = _oracle(m, z)
        got = [measure.g_nu_and_prime(m, z),
               [v.item() for v in measure.g_nu_and_prime(m, np.array([z]))]]
        for got_g, got_gp in got:
            assert got_g == pytest.approx(g.real, rel=1e-14, abs=0.0)
            assert got_gp == pytest.approx(gp.real, rel=1e-14, abs=0.0)


def test_complex_segment_term_keeps_its_digits_far_from_a_narrow_segment():
    # the same off the real axis, where the log of the rounded quotient is
    # off by 2.4e-10 relative at 1e3 + 1e-9i; next to the ends and over the
    # segment the quotient is far from 1
    m = MeasureSpec(segments=((1.0, 3.75, 3.75028),))
    for z in (1e3 + 1e-9j, 50 + 1j, -6.9 + 0.5j, 3.76 + 1e-3j, 3.7501 + 1e-9j,
              3.75 - 1e-6j, 3.75014 + 2.8e-4j):
        g, gp, _, _ = _oracle(m, z)
        got = [measure.g_nu_and_prime(m, z),
               [v.item() for v in measure.g_nu_and_prime(m, np.array([z]))]]
        for got_g, got_gp in got:
            assert abs(got_g - g) <= 1e-14 * abs(g), z
            assert abs(got_gp - gp) <= 1e-14 * abs(gp), z


def test_g_inside_support_rejected():
    with pytest.raises(DomainError):
        measure.g_nu(DELTA2, 2.0)
    with pytest.raises(DomainError):
        measure.g_nu(UNIFORM_13, 2.5)
    with pytest.raises(DomainError):
        measure.g_nu(UNIFORM_13, 1.0 + 1e-14)
    with pytest.raises(DomainError):
        measure.g_nu_and_prime(UNIFORM_13, math.nan)
    with pytest.raises(DomainError):
        measure.g_nu_and_prime(UNIFORM_13, np.array([0.0, math.nan]))


def test_g_complex_matches_real_limit():
    z = complex(5.0, 1e-8)
    assert measure.g_nu(UNIFORM_13, z).real == pytest.approx(
        measure.g_nu(UNIFORM_13, 5.0), abs=1e-7)
    assert measure.g_nu(UNIFORM_13, z).imag < 0.0


def test_g_prime_point_masses():
    assert measure.g_nu_and_prime(DELTA2, 0.5)[1] == pytest.approx(-4.0 / 9.0, abs=1e-14)
    assert measure.g_nu_and_prime(TWO_ATOMS, 3.0)[1] == pytest.approx(-0.25, abs=1e-14)


def test_g_prime_uniform_against_finite_difference():
    h = 1e-6
    fd = (measure.g_nu(UNIFORM_13, 5.0 + h) - measure.g_nu(UNIFORM_13, 5.0 - h)) / (2 * h)
    val = measure.g_nu_and_prime(UNIFORM_13, 5.0)[1]
    assert val == pytest.approx(fd, abs=1e-8)
    assert val == pytest.approx(-0.125, abs=1e-12)


def test_log_potential_derivative_is_g():
    m = MeasureSpec(atoms=((0.3, 0.5),), segments=((0.7, 1.0, 3.0),))
    h = 1e-6
    for z in (complex(2.0, 0.3), complex(-1.0, 1e-3), complex(7.0, 2.0)):
        fd = (measure.log_potential(m, z + h) - measure.log_potential(m, z - h)) / (2 * h)
        assert abs(fd - measure.g_nu(m, z)) <= 1e-7 * abs(measure.g_nu(m, z))


def test_log_potential_segment_against_quadrature():
    z = complex(2.0, 0.25)
    re, _ = quad(lambda t: 0.5 * math.log(abs(z - t)), 1.0, 3.0, epsabs=1e-13)
    im, _ = quad(lambda t: 0.5 * math.atan2(z.imag, z.real - t), 1.0, 3.0,
                 epsabs=1e-13)
    assert abs(measure.log_potential(UNIFORM_13, z) - complex(re, im)) <= 1e-12


# ---------------------------------------------------------------------------
# Support
# ---------------------------------------------------------------------------

def test_support_of_examples():
    assert measure.support_of(DELTA2).intervals == ((2.0, 2.0),)
    assert measure.support_of(TWO_ATOMS).intervals == ((1.0, 1.0), (5.0, 5.0))
    m = MeasureSpec(atoms=((0.5, 1.0),), segments=((0.5, 2.0, 4.0),))
    assert measure.support_of(m).intervals == ((1.0, 1.0), (2.0, 4.0))


def test_support_merges_atom_on_segment_endpoint():
    m = MeasureSpec(atoms=((0.5, 2.0),), segments=((0.5, 2.0, 4.0),))
    assert measure.support_of(m).intervals == ((2.0, 4.0),)


def test_support_distance_of_a_float_matches_the_array_rule():
    # a float bisects to the two intervals around it; every interval is read
    # for an array, and both give the same distance, NaN for NaN
    m = MeasureSpec(atoms=((0.25, 1.0), (0.25, 7.0)), segments=((0.5, 2.0, 4.0),))
    comps = measure.support_of(m)
    assert comps is m.support
    xs = [-3.0, 0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.0 + 1e-13, 5.5, 7.0, 9.0, 1e300, -math.inf]
    want = comps.distance(np.array(xs))
    assert [comps.distance(x) for x in xs] == want.tolist()
    assert math.isnan(comps.distance(math.nan))


def test_support_gaps():
    comps = measure.support_of(TWO_ATOMS)
    gaps = comps.gaps()
    assert gaps[0][0] == -math.inf and gaps[0][1] == 1.0
    assert gaps[1] == (1.0, 5.0)
    assert gaps[2][0] == 5.0 and gaps[2][1] == math.inf


# ---------------------------------------------------------------------------
# CDF / quantile
# ---------------------------------------------------------------------------

def test_cdf_quantile_examples():
    assert measure.cdf(TWO_ATOMS, 3.0) == pytest.approx(0.5)
    assert measure.quantile(TWO_ATOMS, 0.25) == 1.0
    half = MeasureSpec(segments=((1.0, 0.0, 2.0),))
    assert measure.cdf(half, 0.5) == pytest.approx(0.25)


def test_quantile_level_domain():
    with pytest.raises(DomainError):
        measure.quantile(TWO_ATOMS, 1.5)
    with pytest.raises(DomainError):
        measure.quantile(TWO_ATOMS, -0.1)


def test_cdf_rejects_nan():
    # a NaN point raises, as a NaN level does in quantile, instead of reading 0
    for m in (TWO_ATOMS, MeasureSpec(segments=((1.0, 0.0, 2.0),))):
        with pytest.raises(DomainError):
            measure.cdf(m, math.nan)
        with pytest.raises(DomainError):
            measure.quantile(m, math.nan)


def test_mass_between():
    assert measure.mass_between(TWO_ATOMS, 0.0, 3.0) == pytest.approx(0.5)
    assert measure.mass_between(UNIFORM_13, 1.5, 2.5) == pytest.approx(0.5)
    assert measure.mass_between(UNIFORM_13, 0.0, 10.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Marchenko-Pastur closed form
# ---------------------------------------------------------------------------

def test_mp_edges_quarter():
    lo, hi = measure.mp_edges(0.25, 1.0)
    assert lo == pytest.approx(0.25, abs=1e-15)
    assert hi == pytest.approx(2.25, abs=1e-15)


def test_mp_density_value():
    # sqrt((2-0)(4-2)) / (2*pi*2) = 1/(2*pi)
    assert measure.mp_density(1.0, 1.0, 2.0) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-14)


def test_mp_density_outside_support():
    assert measure.mp_density(0.25, 1.0, 3.0) == 0.0
    assert measure.mp_density(0.25, 1.0, 0.1) == 0.0


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0])
def test_mp_total_mass(c):
    lo, hi = measure.mp_edges(c, 1.0)
    total, err = quad(lambda x: measure.mp_density(c, 1.0, x), lo, hi,
                      limit=200, points=[lo, hi])
    assert err < 1e-8
    assert total == pytest.approx(1.0, abs=1e-8)


def test_mp_total_mass_scaled_sigma():
    lo, hi = measure.mp_edges(0.5, 1.7)
    total, _ = quad(lambda x: measure.mp_density(0.5, 1.7, x), lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@given(measures(), st.floats(0.01, 0.9))
@settings(max_examples=60, deadline=None)
def test_g_strictly_decreasing_on_gaps(m, frac):
    comps = measure.support_of(m)
    for lo, hi in comps.gaps():
        if math.isinf(lo):
            lo = comps.min - 3.0
        if math.isinf(hi):
            hi = comps.max + 3.0
        width = hi - lo
        if width <= 1e-6:
            continue
        a = lo + 0.05 * width + 0.4 * frac * width
        b = a + 0.05 * width
        if b >= hi - 0.02 * width:
            continue
        assert measure.g_nu(m, a) > measure.g_nu(m, b)


@given(measures())
@settings(max_examples=60, deadline=None)
def test_g_prime_matches_finite_difference(m):
    comps = measure.support_of(m)
    x = comps.max + 1.5
    h = 1e-6
    fd = (measure.g_nu(m, x + h) - measure.g_nu(m, x - h)) / (2 * h)
    gp = measure.g_nu_and_prime(m, x)[1]
    assert gp < 0.0
    assert abs(gp - fd) <= 1e-6 * max(1.0, abs(gp))


@given(narrow_measures(), st.lists(st.floats(0.02, 0.98), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_transforms_on_arrays_match_scalars(m, fracs):
    comps = measure.support_of(m)
    xs = []
    for lo, hi in comps.gaps():
        lo = comps.min - 3.0 if math.isinf(lo) else lo
        hi = comps.max + 3.0 if math.isinf(hi) else hi
        xs.extend(lo + f * (hi - lo) for f in fracs)
    xs = np.array(xs)
    g_nu_prime = lambda m, z: measure.g_nu_and_prime(m, z)[1]
    for fn in (measure.g_nu, g_nu_prime):
        vals = fn(m, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == fn(m, float(x)), x
        with pytest.raises(DomainError):
            fn(m, np.append(xs, comps.intervals[-1][0]))
        with pytest.raises(DomainError):
            fn(m, np.append(xs + 1j, xs[0]))


def test_huge_arguments_do_not_overflow():
    # the square of 1e200 is past the float range: the g' term is then 0,
    # also where both parts of z are huge and for arrays (a RuntimeWarning
    # fails the test)
    for m in (DELTA2, MIXED):
        for z in (1e200, complex(1e200, 1.0), complex(1e200, 1e200)):
            g, gp = measure.g_nu_and_prime(m, z)
            assert g == pytest.approx(1.0 / z, rel=1e-12)
            assert gp == 0.0
        for z in (np.array([1e200, -1.0]), np.array([1e200 + 1e200j, 1.0 + 1j])):
            g, gp = measure.g_nu_and_prime(m, z)
            assert g[0] == pytest.approx(1.0 / z[0], rel=1e-12)
            assert gp[0] == 0.0
            want = measure.g_nu_and_prime(m, z[1].item())
            assert (g[1], gp[1]) == pytest.approx(want, rel=1e-14)


def _term_scales(m, z):
    """Sums of the moduli of the terms that g, g' and ``log_potential`` add
    up at z: what their rounding is read against, since g and g' cross zero
    in the gaps."""
    g = gp = lp = 0.0
    for w, t in m.atoms:
        g += w / abs(z - t)
        gp += w / abs(z - t) ** 2
        lp += w * abs(cmath.log(z - t))
    for w, lo, hi in m.segments:
        h = w / (hi - lo)
        g += h * (abs(cmath.log((z - lo) / (z - hi))) + 1.0)
        gp += h / abs(z - lo) + h / abs(z - hi)
        lp += h * (abs(z - lo) * abs(cmath.log(z - lo))
                   + abs(z - hi) * abs(cmath.log(z - hi))) + w
    return g, gp, lp


@pytest.mark.parametrize("m", [DELTA2, TWO_ATOMS, UNIFORM_13, MIXED],
                         ids=["atom", "two_atoms", "segment", "mixed"])
def test_complex_arrays_match_scalar_transforms(m):
    # np.log and cmath.log share the principal branch: complex arrays give
    # the scalar values elementwise, across the gaps, over the segments (the
    # log's cut), at the support edges and just above or below them
    comps = measure.support_of(m)
    xs = np.concatenate([np.linspace(comps.min - 2.0, comps.max + 2.0, 61),
                         np.ravel(comps.intervals)])
    for y in (1e-9, 1e-3, 0.5, 1e3, -1e-6, -2.0):
        z = xs + 1j * y
        g, gp = measure.g_nu_and_prime(m, z)
        lp = measure.log_potential(m, z)
        assert g.shape == gp.shape == lp.shape == z.shape
        for k, zk in enumerate(z.tolist()):
            g_scale, gp_scale, lp_scale = _term_scales(m, zk)
            want_g, want_gp = measure.g_nu_and_prime(m, zk)
            assert abs(g[k] - want_g) <= 1e-15 * g_scale, zk
            assert abs(gp[k] - want_gp) <= 1e-15 * gp_scale, zk
            assert abs(lp[k] - measure.log_potential(m, zk)) <= 1e-15 * lp_scale, zk
    on_axis = np.array([comps.max + 1.0 + 1j, comps.max + 1.0 + 0j])
    for fn in (measure.g_nu_and_prime, measure.log_potential):
        with pytest.raises(DomainError):
            fn(m, on_axis)
    # a scalar on the real axis too, on the support (where cmath.log would
    # raise a bare ValueError at an atom) or off it, float or complex
    for x in (comps.max, comps.max + 1.0):
        for z in (x, complex(x, 0.0)):
            with pytest.raises(DomainError):
                measure.log_potential(m, z)


def _oracle(m, z):
    """g, g' and the scales of their terms at z, in 30-digit mpmath.

    A segment's g term is a difference of logs, its g' term one quotient; it
    adds |term| + w/(hi - lo) to the scale of g (the second part for the
    rounding of its log) and the size of the two quotients the kernel
    subtracts to the scale of g'."""
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        g = gp = mpmath.mpc(0)
        g_scale = gp_scale = mpmath.mpf(0)
        for w, t in m.atoms:
            g += w / (z - t)
            gp -= w / (z - t) ** 2
            g_scale += w / abs(z - t)
            gp_scale += w / abs(z - t) ** 2
        for w, lo, hi in m.segments:
            h = mpmath.mpf(w) / (mpmath.mpf(hi) - lo)
            term = h * (mpmath.log(z - lo) - mpmath.log(z - hi))
            g += term
            gp -= w / ((z - lo) * (z - hi))
            g_scale += abs(term) + h
            gp_scale += h / abs(z - lo) + h / abs(z - hi)
        return complex(g), complex(gp), float(g_scale), float(gp_scale)


@given(measures(), st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4),
       st.sampled_from([1e-9, 1e-3, 0.5, -2.0]))
@settings(max_examples=60, deadline=None)
def test_transform_pair_against_mpmath(m, fracs, y):
    # real points in every gap (scalar and array) and complex points above
    # or below them; the bound is relative to the terms, not to |g|, which
    # crosses zero on the gaps
    comps = measure.support_of(m)
    xs = []
    for lo, hi in comps.gaps():
        lo = comps.min - 3.0 if math.isinf(lo) else lo
        hi = comps.max + 3.0 if math.isinf(hi) else hi
        xs.extend(lo + f * (hi - lo) for f in fracs)
    cases = [(x, measure.g_nu_and_prime(m, x)) for x in xs]
    cases += list(zip(xs, zip(*measure.g_nu_and_prime(m, np.array(xs)))))
    cases += [(z, measure.g_nu_and_prime(m, z)) for z in (complex(x, y) for x in xs)]
    for z, (g, gp) in cases:
        want_g, want_gp, g_scale, gp_scale = _oracle(m, z)
        assert abs(g - want_g) <= 1e-13 * g_scale, z
        assert abs(gp - want_gp) <= 1e-13 * gp_scale, z


@st.composite
def atom_at_a_segment_end(draw):
    """``narrow_measures`` with one more atom at a lower or upper end of one
    of its segments."""
    m = draw(narrow_measures().filter(lambda m: m.segments))
    _, lo, hi = draw(st.sampled_from(m.segments))
    w, t = draw(st.floats(0.05, 0.9)), draw(st.sampled_from((lo, hi)))
    return MeasureSpec(atoms=tuple((v * (1.0 - w), s) for v, s in m.atoms) + ((w, t),),
                       segments=tuple((v * (1.0 - w), a, b) for v, a, b in m.segments))


@given(st.one_of(narrow_measures(), atom_at_a_segment_end()),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
@example(MeasureSpec(atoms=((0.6, 1.0),), segments=((0.4, 1.0, 2.0),)), [0.3, 0.7])
# at the level cum + w the segment's interpolated point rounds one ulp past
# its upper end, where an atom sits
@example(MeasureSpec(atoms=((0.6878099717355447, 1.0), (0.1914737356623551, 4.07860192776991)),
                     segments=((0.12071629260210022, 2.4259548721581754, 4.07860192776991),)),
         [0.808526264337645, 0.9])
@settings(max_examples=200, deadline=None)
def test_cdf_quantile_consistency(m, levels):
    # cdf(quantile(alpha)) >= alpha and quantile is nondecreasing, exactly:
    # on narrow segments, where the interpolated point loses the level's
    # digits, and where an atom sits at a segment's end
    levels.sort()
    qs = [measure.quantile(m, alpha) for alpha in levels]
    for alpha, q in zip(levels, qs):
        assert measure.cdf(m, q) >= alpha, (alpha, q)
    for q_alpha, q_beta in zip(qs, qs[1:]):
        assert q_beta >= q_alpha


@given(measures(), st.lists(st.floats(-2.0, 12.0), max_size=8))
@settings(max_examples=60, deadline=None)
def test_gap_index_matches_scan(m, extra):
    comps = measure.support_of(m)
    gaps = comps.gaps()
    ends = [x for iv in comps.intervals for x in iv]
    mids = [0.5 * (lo + hi) for lo, hi in gaps[1:-1]]
    for x in ends + mids + extra + [comps.min - 1.0, comps.max + 1.0]:
        on = [l for l, (lo, hi) in enumerate(comps.intervals) if lo <= x <= hi]
        want = None if on else next(k for k, (lo, hi) in enumerate(gaps)
                                    if lo < x < hi)
        assert comps.gap_index(x) == want, x
        assert comps.interval_index(x) == (on[0] if on else None), x


@given(measures())
@settings(max_examples=40, deadline=None)
def test_support_components_sorted_disjoint(m):
    comps = measure.support_of(m)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(comps.intervals, comps.intervals[1:]):
        assert a_hi < b_lo
    for lo, hi in comps.intervals:
        assert lo <= hi
