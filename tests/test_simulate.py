"""Tests for matrix sampling, the gap map, separation, and the KS distance."""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from ipn import measure, simulate, spikes, subordination
from ipn.errors import DomainError, PreconditionError
from ipn.simulate import SimConfig
from ipn.spikes import SpikeSpec

from conftest import (MODEL_D1_C1, MODEL_D2_C1, MODEL_D2_HALF, MODEL_MERGED, MODEL_SPLIT,
                      die_in_worker, preimage_polynomial)


def inclusion_passes(cfg, epsilon, samples) -> list[bool]:
    """Per-trial separation on every piece of the gap map shrunk by epsilon
    at both ends (pieces narrower than 2 epsilon are skipped): a trial
    passes when no eigenvalue lies farther than epsilon from the support and
    the outlier limits, and the counts split where the signal's do."""
    passed = [True] * len(samples)
    for lo, hi in simulate.separation_gaps(cfg.model, cfg.spikes):
        if lo + epsilon < hi - epsilon:
            rep = simulate.verify_separation(cfg, (lo + epsilon, hi - epsilon),
                                             samples)
            passed = [p and rep.a_count_ok and m
                      for p, m in zip(passed, rep.m_count_ok)]
    return passed


def _blas_threads_in_worker(cfg, trial, d):
    """Stands in for ``simulate._sample_trial``: a worker's BLAS thread
    variables."""
    return trial, {var: os.environ.get(var) for var in simulate._BLAS_THREAD_VARS}


def _fail_trial_one_in_worker(cfg, trial, d):
    if trial == 1:
        raise np.linalg.LinAlgError("eigendecomposition failed on trial 1")
    return simulate._sample_trial(cfg, trial, d)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=10, N=5, model=MODEL_D1_C1)
    with pytest.raises(ValueError):
        SimConfig(n=10, N=10, model=MODEL_D1_C1, trials=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, N=10, model=MODEL_D1_C1, entry_dist="cauchy")
    with pytest.raises(ValueError):
        SimConfig(n=2, N=4, model=MODEL_D1_C1,
                  spikes=SpikeSpec((4.0, 3.0, 2.0), (1, 1, 1)))
    # integer fields are never truncated: non-integral or non-finite values
    # fail, and so do strings that int would parse
    for field, bad in [("n", 20.7), ("N", 40.5), ("trials", 2.5), ("seed", 3.9),
                       ("n", math.inf), ("N", math.inf), ("trials", math.nan),
                       ("seed", -math.inf), ("n", "20"), ("seed", "7")]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{"n": 20, "N": 40, "model": MODEL_D1_C1, field: bad})
    cfg = SimConfig(n=20.0, N=40.0, model=MODEL_D1_C1, seed=3.0, trials=2.0)
    assert (cfg.n, cfg.N, cfg.seed, cfg.trials) == (20, 40, 3, 2)
    assert all(type(v) is int for v in (cfg.n, cfg.N, cfg.seed, cfg.trials))


def test_build_a_examples():
    d = simulate.build_A(MODEL_D1_C1, SpikeSpec(), 4)
    assert np.allclose(d, [1.0, 1.0, 1.0, 1.0])
    d = simulate.build_A(MODEL_SPLIT, SpikeSpec(), 4)
    assert np.allclose(sorted(d), [1.0, 1.0, math.sqrt(5.0), math.sqrt(5.0)])
    d = simulate.build_A(MODEL_D1_C1, SpikeSpec((4.0,), (1,)), 4)
    assert np.allclose(d, [2.0, 1.0, 1.0, 1.0])


def test_build_a_rejects_overfull():
    with pytest.raises(DomainError):
        simulate.build_A(MODEL_D1_C1, SpikeSpec((4.0,), (3,)), 2)


def test_streams_are_deterministic_and_trial_dependent():
    cfg = SimConfig(n=50, N=80, model=MODEL_D1_C1, seed=123, trials=2)
    a = simulate.sample_eigenvalues(cfg, 0)
    b = simulate.sample_eigenvalues(cfg, 0)
    c = simulate.sample_eigenvalues(cfg, 1)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)
    other_seed = SimConfig(n=50, N=80, model=MODEL_D1_C1, seed=124)
    d = simulate.sample_eigenvalues(other_seed, 0)
    assert not np.array_equal(a.eigenvalues, d.eigenvalues)


@pytest.mark.parametrize("dist", simulate.ENTRY_DISTS)
def test_noise_entries_standardized(dist, rng):
    g = simulate._trial_rng(7, 0)
    x = simulate._noise(g, (200, 200), dist, 1.0)
    assert abs(np.mean(x)) < 0.02
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=0.02)


def _unfused_noise(rng, shape, dist, scale):
    """The noise draw as written before the scaling was fused into it."""
    if dist == "complex-gaussian":
        return ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                / math.sqrt(2.0)) * scale
    if dist == "real-gaussian":
        return rng.standard_normal(shape) * scale
    table = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
    return table[rng.integers(0, 4, size=shape)] * scale


@pytest.mark.parametrize("dist", simulate.ENTRY_DISTS)
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 25), (64, 128)])
def test_noise_scaling_keeps_the_unfused_bytes(dist, shape):
    # drawing Re and Im into one buffer scaled in place gives the bytes of
    # ((re + 1j*im) / sqrt(2)) * (sigma / sqrt(N)) with its temporaries
    for seed, trial, sigma in [(7, 0, 1.0), (7, 2, 0.3), (913, 1, 2.5),
                               (2 ** 40 + 5, 9, 1e-3)]:
        scale = sigma / math.sqrt(shape[1])
        want = _unfused_noise(simulate._trial_rng(seed, trial), shape, dist, scale)
        got = simulate._noise(simulate._trial_rng(seed, trial), shape, dist, scale)
        assert got.dtype == want.dtype and got.shape == shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dist", simulate.ENTRY_DISTS)
@pytest.mark.parametrize("model, n, N", [(MODEL_D1_C1, 60, 60),
                                         (MODEL_SPLIT, 30, 60)],
                         ids=["c1", "c_half"])
def test_gram_eigenvalues_match_squared_singular_values(model, n, N, dist):
    # oracle: an independent SVD of the same seeded Y = sigma X / sqrt(N) + A;
    # the Gram route is accurate to about eps ||Y||^2, the smallest
    # eigenvalues at c = 1 included
    cfg = SimConfig(n=n, N=N, model=model, entry_dist=dist, seed=31,
                    spikes=SpikeSpec((9.0,), (1,)), trials=2)
    Y = simulate._noise(simulate._trial_rng(cfg.seed, 1), (n, N), dist,
                        model.sigma / math.sqrt(N))
    idx = np.arange(n)
    Y[idx, idx] += simulate.build_A(model, cfg.spikes, n)
    oracle = np.linalg.svd(Y, compute_uv=False) ** 2
    ev = simulate.sample_eigenvalues(cfg, 1).eigenvalues
    assert ev.shape == (n,) and ev.dtype == np.float64
    assert np.all(ev[:-1] >= ev[1:])
    assert np.max(np.abs(ev - oracle)) <= 1e-12 * max(1.0, oracle[0])
    assert simulate.sample_eigenvalues(cfg, 1).eigenvalues.tobytes() == ev.tobytes()


@pytest.mark.parametrize("fallback", [False, True], ids=["two_stage", "fallback"])
@pytest.mark.parametrize("dist", simulate.ENTRY_DISTS)
@pytest.mark.parametrize("model, n, N", [(MODEL_D1_C1, 60, 60),
                                         (MODEL_SPLIT, 30, 60)],
                         ids=["c1", "c_half"])
def test_gram_kernel_matches_eigvalsh(monkeypatch, model, n, N, dist, fallback):
    # the kernel against numpy's eigvalsh of the full gemm Gram product
    if fallback:
        monkeypatch.setattr(simulate, "_gram_kernel", lambda: None)
    cfg = SimConfig(n=n, N=N, model=model, entry_dist=dist, seed=23,
                    spikes=SpikeSpec((9.0,), (1,)))
    Y = simulate._sample_matrix(cfg, 0, simulate.build_A(model, cfg.spikes, n))
    oracle = np.linalg.eigvalsh(Y @ Y.conj().T)
    ev = simulate._gram_eigenvalues(Y.copy())
    assert ev.shape == (n,) and ev.dtype == np.float64
    assert np.max(np.abs(ev - oracle)) <= 1e-13 * max(1.0, oracle[-1])


_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]


@pytest.mark.skipif(_BLAS["name"] != "scipy-openblas"
                    or "USE64BITINT" not in _BLAS.get("openblas configuration", ""),
                    reason="numpy is not built on its bundled ILP64 OpenBLAS")
def test_two_stage_kernel_runs_on_numpys_openblas(monkeypatch):
    # a numpy whose OpenBLAS stops exporting the symbols fails here, rather
    # than falling back to eigvalsh and slowing down unseen
    kernel = simulate._gram_kernel()
    assert kernel is not None
    assert [f.__name__ for f in kernel] == ["scipy_cblas_zherk64_",
                                            "scipy_LAPACKE_zheevd_2stage64_"]

    def boom(*args, **kwargs):
        raise AssertionError("eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    for dist in ("complex-gaussian", "rademacher-complex"):
        cfg = SimConfig(n=20, N=40, model=MODEL_SPLIT, entry_dist=dist)
        assert len(simulate.sample_eigenvalues(cfg, 0).eigenvalues) == 20
    # real noise takes numpy's path, where the real kernels gain nothing
    cfg = SimConfig(n=20, N=40, model=MODEL_SPLIT, entry_dist="real-gaussian")
    with pytest.raises(AssertionError, match="eigvalsh called"):
        simulate.sample_eigenvalues(cfg, 0)


@pytest.mark.parametrize("info", [2, -1011])
def test_nonzero_lapack_info_raises(monkeypatch, info):
    real = simulate._gram_kernel()
    if real is None:
        pytest.skip("no two-stage kernel in numpy's BLAS")
    monkeypatch.setattr(simulate, "_gram_kernel", lambda: (real[0], lambda *args: info))
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"^zheevd_2stage returned info = {info}$"):
        simulate._gram_eigenvalues(np.ones((3, 5), dtype=complex))
    cfg = SimConfig(n=8, N=8, model=MODEL_D1_C1, trials=3)
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"trial 2: zheevd_2stage returned info = {info}$"):
        simulate.sample_eigenvalues(cfg, 2)


def test_eigenvalues_descending_nonnegative():
    cfg = SimConfig(n=40, N=80, model=MODEL_SPLIT, seed=5)
    s = simulate.sample_eigenvalues(cfg, 0)
    ev = s.eigenvalues
    assert np.all(ev[:-1] >= ev[1:])
    assert np.all(ev >= 0.0)
    assert len(ev) == 40


def test_separation_two_interval_model():
    sup = subordination.support(MODEL_SPLIT)
    gap_lo, gap_hi = sup.intervals[0][1], sup.intervals[1][0]
    width = gap_hi - gap_lo
    gap = (gap_lo + 0.3 * width, gap_hi - 0.3 * width)
    cfg = SimConfig(n=300, N=600, model=MODEL_SPLIT, seed=42, trials=8)
    rep = simulate.verify_separation(cfg, gap, simulate.run_trials(cfg))
    assert rep.i_N == 150
    assert rep.pass_fraction >= 0.95
    adm = sup.admissible
    assert adm.v[0] < rep.omega_gap[0] < rep.omega_gap[1] < adm.u[1]
    # omega of the gap lands between the two atoms of nu
    assert 1.0 < rep.omega_gap[0] < rep.omega_gap[1] < 5.0


def test_separation_rank_sandwich():
    # counting restatement: #eigenvalues above b equals i_N on passing trials
    sup = subordination.support(MODEL_SPLIT)
    gap_lo, gap_hi = sup.intervals[0][1], sup.intervals[1][0]
    width = gap_hi - gap_lo
    a, b = gap_lo + 0.3 * width, gap_hi - 0.3 * width
    cfg = SimConfig(n=200, N=400, model=MODEL_SPLIT, seed=9, trials=4)
    samples = simulate.run_trials(cfg)
    rep = simulate.verify_separation(cfg, (a, b), samples)
    for t, s in enumerate(samples):
        if rep.a_count_ok and rep.m_count_ok[t]:
            assert int(np.sum(s.eigenvalues > b)) == rep.i_N


def test_separation_gap_inside_support_rejected():
    cfg = SimConfig(n=50, N=100, model=MODEL_SPLIT, seed=0)
    inside = subordination.support(MODEL_SPLIT).intervals[0][0] + 0.1
    with pytest.raises(PreconditionError):
        simulate.verify_separation(cfg, (inside, inside + 0.5), [])


def test_middle_window_requires_a_bounded_piece():
    assert simulate.middle_window((1.0, 2.0)) == (1.3, 1.7)
    for piece in ((1.0, math.inf), (-math.inf, 1.0), (2.0, 1.0), (1.0, 1.0),
                  (math.nan, 1.0)):
        with pytest.raises(PreconditionError):
            simulate.middle_window(piece)


def test_separation_requires_positive_omega_when_c_below_one():
    # points below the support minimum map to negative omega values
    sup = subordination.support(MODEL_SPLIT)
    lo = sup.intervals[0][0]
    p = MODEL_SPLIT
    a = lo * 0.05
    if subordination.omega(p, a) < 0.0:
        cfg = SimConfig(n=50, N=100, model=p, seed=0)
        with pytest.raises(PreconditionError):
            simulate.verify_separation(cfg, (a, lo * 0.5), [])


def test_separation_gaps_of_two_intervals_cut_at_an_outlier():
    sup = subordination.support(MODEL_SPLIT)
    (lo1, hi1), (lo2, hi2) = sup.intervals
    phi0 = subordination.phi(MODEL_SPLIT, 0.0)
    assert 0.0 < phi0 < lo1
    assert simulate.separation_gaps(MODEL_SPLIT, SpikeSpec()) == [
        (phi0, lo1), (hi1, lo2), (hi2, math.inf)]
    # theta = omega(x) for x in the inner gap is an outlier with limit x
    x = 0.5 * (hi1 + lo2)
    theta = subordination.omega(MODEL_SPLIT, x)
    cut = subordination.phi(MODEL_SPLIT, theta)
    assert cut == pytest.approx(x, rel=1e-12)
    assert simulate.separation_gaps(MODEL_SPLIT, SpikeSpec((theta,), (1,))) == [
        (phi0, lo1), (hi1, cut), (cut, lo2), (hi2, math.inf)]


@pytest.mark.parametrize("model", [MODEL_D1_C1, MODEL_MERGED],
                         ids=["zero_in_support", "u1_negative"])
def test_separation_gaps_without_a_left_piece(model):
    sup = subordination.support(model)
    assert sup.zero_in_support or sup.admissible.u[0] < 0.0
    assert simulate.separation_gaps(model, SpikeSpec()) == [
        (sup.intervals[0][1], math.inf)]


def test_separation_gaps_left_piece_starts_at_zero_when_c_is_one():
    sup = subordination.support(MODEL_D2_C1)
    assert not sup.zero_in_support and sup.admissible.u[0] > 0.0
    pieces = simulate.separation_gaps(MODEL_D2_C1, SpikeSpec())
    assert pieces[0] == (0.0, sup.intervals[0][0])
    assert pieces[1:] == [(sup.intervals[0][1], math.inf)]


def test_separation_on_the_unbounded_gap():
    cfg = SimConfig(n=60, N=120, model=MODEL_SPLIT, seed=4, trials=2,
                    spikes=SpikeSpec((9.0,), (1,)))
    samples = simulate.run_trials(cfg)
    limit, end = simulate.separation_gaps(cfg.model, cfg.spikes)[-1]
    assert end == math.inf
    rep = simulate.verify_separation(cfg, (limit + 0.5, math.inf), samples)
    assert rep.omega_gap[0] > 9.0 and rep.omega_gap[1] == math.inf
    assert rep.i_N == 0 and rep.a_count_ok and rep.pass_fraction == 1.0
    # a window that reaches below the top eigenvalue of each trial fails
    top = min(s.eigenvalues[0] for s in samples)
    rep = simulate.verify_separation(cfg, (top - 0.01, math.inf), samples)
    assert rep.i_N == 0 and not any(rep.m_count_ok)


def test_verify_all_default_gap_avoids_an_inner_outlier():
    sup = subordination.support(MODEL_SPLIT)
    x = 0.5 * (sup.intervals[0][1] + sup.intervals[1][0])
    theta = subordination.omega(MODEL_SPLIT, x)
    cfg = SimConfig(n=60, N=120, model=MODEL_SPLIT, seed=11, trials=2,
                    spikes=SpikeSpec((theta,), (1,)))
    report = simulate.verify_all(cfg, None, {})
    checks = {c["name"]: c for c in report["checks"]}
    (row,) = checks["outlier"]["spikes"]
    a, b = checks["separation"]["gap"]
    assert row["case"] == spikes.OUTLIER
    assert not a <= row["limit"] <= b
    assert sup.intervals[0][1] < a < b < sup.intervals[1][0]


@pytest.mark.parametrize("wrong_sign", ["a", "phi'"])
def test_verify_all_chain_row_fails_on_a_wrong_real_root_of_phi(wrong_sign, monkeypatch):
    # the chain row's solve starts from omega(x).  A real root of phi(u) = x
    # off the admissible set has a < 0 (the start's g fails solve_g's sign
    # checks) or phi' < 0 (the start lies below the axis), so the solve falls
    # back to the continuation and the row sees the wrong root; the inverse
    # pair row, which only reads phi(u) = x, does not
    p = MODEL_D2_HALF
    s2c = p.sigma ** 2 * p.c
    omega = subordination.omega

    def wrong(q, x):
        for r in np.roots([float(v) for v in preimage_polynomial(q)(x)[::-1]]):
            if abs(r.imag) < 1e-9:
                a = 1.0 + s2c * measure.g_nu(q.nu, r.real)
                slope = subordination.phi_prime(q, r.real)
                if (a if wrong_sign == "a" else slope) < 0.0 < (slope if wrong_sign == "a" else a):
                    return r.real
        return omega(q, x)
    monkeypatch.setattr(subordination, "omega", wrong)
    cfg = SimConfig(n=20, N=40, model=p, seed=3, trials=2)
    rows = {c["name"]: c for c in simulate.verify_all(cfg, None, {})["checks"]}
    assert rows["inverse_pair"]["status"] == "pass"
    assert rows["subordination_chain"]["status"] == "fail"
    assert rows["subordination_chain"]["max_chain_residual"] > 0.1


# Inclusion: no eigenvalue farther than epsilon from the support and the
# outlier limits, read as separation on every piece of the gap map.

def test_inclusion_large_epsilon_always_passes():
    cfg = SimConfig(n=60, N=60, model=MODEL_D1_C1, seed=2, trials=3,
                    spikes=SpikeSpec((4.0,), (1,)))
    passed = inclusion_passes(cfg, 10.0, simulate.run_trials(cfg))
    assert passed == [True] * 3


def test_inclusion_tiny_epsilon_reports_not_raises():
    cfg = SimConfig(n=100, N=200, model=MODEL_SPLIT, seed=7, trials=10)
    samples = simulate.run_trials(cfg)
    passed = inclusion_passes(cfg, 1e-6, samples)
    assert not all(passed)  # finite-size fluctuations must be reported
    pieces = simulate.separation_gaps(cfg.model, cfg.spikes)
    assert any(np.any((s.eigenvalues > lo + 1e-6) & (s.eigenvalues < hi - 1e-6))
               for s in samples for lo, hi in pieces)
    assert 0.0 < sum(passed) / len(passed) < 1.0


def test_inclusion_moderate_epsilon_with_spike():
    cfg = SimConfig(n=400, N=400, model=MODEL_D1_C1, seed=21, trials=3,
                    spikes=SpikeSpec((4.0,), (1,)))
    passed = inclusion_passes(cfg, 0.45, simulate.run_trials(cfg))
    assert sum(passed) / len(passed) >= 2.0 / 3.0


def test_spiked_packet_sizes():
    # exactly k eigenvalues inside the outlier window for large n
    spec = SpikeSpec((4.0,), (2,))
    cfg = SimConfig(n=600, N=600, model=MODEL_D1_C1, seed=3, trials=3,
                    spikes=spec)
    rho = 64.0 / 9.0
    for t in range(cfg.trials):
        s = simulate.sample_eigenvalues(cfg, t)
        count = int(np.sum(np.abs(s.eigenvalues - rho) <= 0.45))
        assert count == 2


def test_separation_universality_across_entry_distributions():
    sup = subordination.support(MODEL_SPLIT)
    gap_lo, gap_hi = sup.intervals[0][1], sup.intervals[1][0]
    width = gap_hi - gap_lo
    gap = (gap_lo + 0.3 * width, gap_hi - 0.3 * width)
    fractions = []
    for dist in simulate.ENTRY_DISTS:
        cfg = SimConfig(n=500, N=1000, model=MODEL_SPLIT, seed=13, trials=10,
                        entry_dist=dist)
        rep = simulate.verify_separation(cfg, gap, simulate.run_trials(cfg))
        fractions.append(rep.pass_fraction)
    assert max(fractions) - min(fractions) <= 0.05


def test_extreme_eigenvalue_windows_at_production_size():
    # largest eigenvalue hugs the bulk edge without spikes and the outlier
    # location with one; predicted-set inclusion holds at epsilon = 0.3
    cfg = SimConfig(n=1000, N=1000, model=MODEL_D1_C1, seed=7, trials=20)
    lam1 = np.array([s.eigenvalues[0] for s in simulate.run_trials(cfg)])
    assert int(np.sum((lam1 >= 6.45) & (lam1 <= 7.05))) >= 18

    cfg_spike = SimConfig(n=1000, N=1000, model=MODEL_D1_C1, seed=7, trials=20,
                          spikes=SpikeSpec((4.0,), (1,)))
    samples = simulate.run_trials(cfg_spike)
    lam1s = np.array([s.eigenvalues[0] for s in samples])
    assert int(np.sum((lam1s >= 6.91) & (lam1s <= 7.31))) >= 18

    assert sum(inclusion_passes(cfg_spike, 0.3, samples)) >= 18


def test_empirical_cdf_distance_small():
    cfg = SimConfig(n=400, N=400, model=MODEL_D1_C1, seed=17, trials=3)
    assert simulate.empirical_cdf_distance(cfg.model, simulate.run_trials(cfg)) <= 0.05


def test_eigensolver_failure_carries_trial_index(monkeypatch):
    # in process: sample_eigenvalues names the trial and chains the cause
    def boom(Y):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(simulate, "_gram_eigenvalues", boom)
    cfg = SimConfig(n=8, N=8, model=MODEL_D1_C1, seed=0, trials=4)
    for trial in (0, 3):
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"trial {trial}: did not converge") as info:
            simulate.sample_eigenvalues(cfg, trial)
        assert str(info.value.__cause__) == "did not converge"


def test_worker_count_is_capped_by_cpus_and_trials(monkeypatch):
    # the count alone: no worker is started here
    cpus = len(os.sched_getaffinity(0))
    assert simulate._worker_count(1) == 1
    assert simulate._worker_count(10**6) == cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert [simulate._worker_count(t) for t in (1, 40, 64, 10**6)] == [1, 40, 64, 64]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert simulate._worker_count(40) == 1


def test_worker_count_without_an_affinity_call(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: count every CPU, and
    # one when even that count is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    cfg = SimConfig(n=4, N=8, model=MODEL_D1_C1, seed=0, trials=2)
    assert [s.trial_index for s in simulate.run_trials(cfg)] == [0, 1]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [simulate._worker_count(t) for t in (1, 2, 40)] == [1, 2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._worker_count(40) == 1


@pytest.mark.skipif(simulate._worker_count(2) < 2, reason="needs two usable CPUs")
def test_trial_bytes_independent_of_worker_count(monkeypatch):
    cfg = SimConfig(n=100, N=200, model=MODEL_SPLIT, seed=19, trials=5,
                    spikes=SpikeSpec((9.0,), (1,)))
    two = simulate.run_trials(cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one worker
    one = simulate.run_trials(cfg)
    assert [s.trial_index for s in two] == list(range(5))
    assert [s.eigenvalues.tobytes() for s in one] == [s.eigenvalues.tobytes() for s in two]


def test_workers_start_on_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    monkeypatch.setattr(simulate, "_sample_trial", _blas_threads_in_worker)
    cfg = SimConfig(n=4, N=4, model=MODEL_D1_C1, trials=3)
    one = dict.fromkeys(simulate._BLAS_THREAD_VARS, "1")
    assert simulate.run_trials(cfg) == [(t, one) for t in range(3)]
    # the caller's own environment is as it was
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


def test_no_worker_outlives_run_trials(monkeypatch):
    cfg = SimConfig(n=8, N=8, model=MODEL_D1_C1, seed=0, trials=3)
    assert len(simulate.run_trials(cfg)) == 3
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(simulate, "_sample_trial", _fail_trial_one_in_worker)
    with pytest.raises(np.linalg.LinAlgError, match="trial 1"):
        simulate.run_trials(cfg)
    assert multiprocessing.active_children() == []

    # a dead worker is an error, not retried or replaced
    monkeypatch.setattr(simulate, "_sample_trial", die_in_worker)
    with pytest.raises(BrokenProcessPool):
        simulate.run_trials(cfg)
    assert multiprocessing.active_children() == []
