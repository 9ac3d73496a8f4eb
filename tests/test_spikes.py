"""Tests for spike classification, limits and ranks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ipn import simulate, spikes, stieltjes, subordination
from ipn.errors import AmbiguousSpike, DomainError
from ipn.simulate import SimConfig
from ipn.spikes import SpikeOutcome, SpikeSpec

from conftest import MODEL_D1_C1, MODEL_MERGED, MODEL_SPLIT, NEAR_MERGE_SIGMA, TWO_ATOMS


def test_spike_spec_validation():
    with pytest.raises(DomainError):
        SpikeSpec(thetas=(4.0, 4.0), multiplicities=(1, 1))
    with pytest.raises(DomainError):
        SpikeSpec(thetas=(2.0, 4.0), multiplicities=(1, 1))
    with pytest.raises(DomainError):
        SpikeSpec(thetas=(-1.0,), multiplicities=(1,))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            SpikeSpec(thetas=(bad,), multiplicities=(1,))
    with pytest.raises(DomainError):
        SpikeSpec(thetas=(4.0,), multiplicities=(0,))
    # a multiplicity is never truncated: non-integral or non-finite values fail
    for bad in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="^multiplicity must be an integer"):
            SpikeSpec(thetas=(4.0,), multiplicities=(bad,))
    assert SpikeSpec((4.0,), (2.0,)).multiplicities == (2,)
    assert SpikeSpec().r == 0
    assert SpikeSpec((5.0, 2.0), (2, 3)).r == 5


def test_outlier_case():
    out = spikes.classify(MODEL_D1_C1, SpikeSpec((4.0,), (1,)))
    assert out == [SpikeOutcome(theta=4.0, case_tag=spikes.OUTLIER,
                                limit=out[0].limit)]
    assert out[0].limit == pytest.approx(64.0 / 9.0, abs=1e-12)


def test_right_edge_sticking_case():
    out = spikes.classify(MODEL_D1_C1, SpikeSpec((2.0,), (1,)))[0]
    assert out.case_tag == spikes.RIGHT_EDGE
    assert out.limit == pytest.approx(6.75, abs=1e-8)
    # bit-for-bit equality with the computed support boundary
    assert out.limit == subordination.support(MODEL_D1_C1).intervals[0][1]


def test_zero_case():
    out = spikes.classify(MODEL_D1_C1, SpikeSpec((0.5,), (1,)))[0]
    assert out.case_tag == spikes.ZERO
    assert out.limit == 0.0


def test_left_edge_case():
    # theta below the upper atom inside the second complement interval
    out = spikes.classify(MODEL_SPLIT, SpikeSpec((4.0,), (1,)))[0]
    assert out.case_tag == spikes.LEFT_EDGE
    assert out.limit == subordination.support(MODEL_SPLIT).intervals[1][0]


def test_left_edge_case_c_below_one_first_interval():
    out = spikes.classify(MODEL_SPLIT, SpikeSpec((0.5,), (1,)))[0]
    assert out.case_tag == spikes.LEFT_EDGE
    assert out.limit == subordination.support(MODEL_SPLIT).intervals[0][0]
    assert out.limit > 0.0


def test_quantile_case():
    out = spikes.classify(MODEL_MERGED, SpikeSpec((3.0,), (1,)))[0]
    assert out.case_tag == spikes.QUANTILE
    assert out.alpha == pytest.approx(0.5)
    sup = subordination.support(MODEL_MERGED)
    lo, hi = sup.intervals[0]
    assert lo < out.limit < hi
    assert stieltjes.cdf_mu(MODEL_MERGED, out.limit) == pytest.approx(
        out.alpha, abs=1e-4)


def test_quantile_limit_against_density_quadrature():
    from scipy.integrate import quad

    out = spikes.classify(MODEL_MERGED, SpikeSpec((3.0,), (1,)))[0]
    lo = subordination.support(MODEL_MERGED).intervals[0][0]
    mass = quad(lambda t: stieltjes.density(MODEL_MERGED, [t]).fs[0], lo,
                out.limit, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(mass - 0.5) <= 1e-10


def test_spike_on_support_rejected():
    with pytest.raises(DomainError):
        spikes.classify(MODEL_D1_C1, SpikeSpec((1.0,), (1,)))


def test_ambiguous_spike_near_boundary():
    v1 = subordination.admissible_set(MODEL_D1_C1).v[0]
    with pytest.raises(AmbiguousSpike):
        spikes.classify(MODEL_D1_C1, SpikeSpec((v1 + 1e-11,), (1,)))


def test_outlier_limits_outside_support_and_monotone():
    spec = SpikeSpec((9.0, 6.0, 4.0), (1, 2, 1))
    outs = spikes.classify(MODEL_D1_C1, spec)
    sup = subordination.support(MODEL_D1_C1)
    limits = [o.limit for o in outs]
    assert all(o.case_tag == spikes.OUTLIER for o in outs)
    assert all(sup.distance(v) > 0.0 for v in limits)
    assert limits[0] > limits[1] > limits[2]


def test_spike_ranks_interleave_and_need_capacity():
    # signal eigenvalues are theta = 4 plus the quantiles (1, 1, 1, 1, 5, 5, 5)
    # of nu; the three 5s outrank the spike, so its packet starts at rank 4
    assert spikes.spike_ranks(MODEL_SPLIT, SpikeSpec((4.0,), (1,)), 8) == [4]
    with pytest.raises(DomainError):
        spikes.spike_ranks(MODEL_D1_C1, SpikeSpec((4.0,), (2,)), 1)


@pytest.mark.parametrize("p, n, N, theta, case, limit, rank", [
    (MODEL_SPLIT, 500, 1000, 4.0, spikes.LEFT_EDGE, 3.5325, 250),
    (MODEL_MERGED, 500, 1000, 3.0, spikes.QUANTILE, 5.863, 250),
    (MODEL_D1_C1, 500, 500, 0.5, spikes.ZERO, 0.0, 500),
], ids=["left-edge", "quantile", "zero"])
def test_sticking_spikes_against_monte_carlo(p, n, N, theta, case, limit, rank):
    # the median eigenvalue at the spike's rank lies within verify-all's
    # default outlier tolerance of the predicted limit
    spec = SpikeSpec((theta,), (1,))
    [out] = spikes.classify(p, spec)
    assert out.case_tag == case
    assert out.limit == pytest.approx(limit, abs=1e-3)
    assert spikes.spike_ranks(p, spec, n) == [rank]
    cfg = SimConfig(n=n, N=N, model=p, spikes=spec, seed=7, trials=3)
    observed = np.median([s.eigenvalues[rank - 1] for s in simulate.run_trials(cfg)])
    assert abs(observed - out.limit) <= simulate.DEFAULT_CHECKS["outlier_tolerance"]


@pytest.mark.parametrize("below", [1e-8, 3e-9, 1e-9])
def test_near_merge_keeps_two_intervals_and_the_outlier(below):
    p = subordination.ModelParams(sigma=NEAR_MERGE_SIGMA - below, c=0.5, nu=TWO_ATOMS)
    assert len(subordination.support(p).intervals) == 2
    [out] = spikes.classify(p, SpikeSpec((2.65454,), (1,)))
    assert out.case_tag == spikes.OUTLIER
