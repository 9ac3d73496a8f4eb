"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact analytic checks run at desk scale; the asymptotic statements are
checked through seeded Monte Carlo bands.  Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""

from __future__ import annotations

import contextlib
import json
import math
import pathlib
import time

import numpy as np
import pytest

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

from ipn import cli, measure, simulate, spikes, stieltjes, subordination
from ipn.measure import MeasureSpec
from ipn.simulate import SimConfig
from ipn.spikes import SpikeSpec
from ipn.subordination import ModelParams

from conftest import (FIVE_MODELS, MODEL_D1_C1, MODEL_D2_C1, MODEL_D2_HALF,
                      MODEL_SPLIT, off_support_grid)


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")


def test_criterion_1_admissibility_boundary():
    with criterion(1, "admissibility boundary for a point mass at 2", 1.0):
        p = MODEL_D2_HALF
        crossing = subordination.g_threshold_crossing(p, (-math.inf, 2.0))
        assert abs(crossing - 1.5) <= 1e-10
        assert abs(subordination.phi(p, 0.5) - 5.0 / 9.0) <= 1e-9
        assert abs(subordination.omega(p, 5.0 / 9.0) - 0.5) <= 1e-9


def test_criterion_2_support_closed_form():
    with criterion(2, "closed-form support and zero membership", 1.0):
        sup = subordination.support(MODEL_D1_C1)
        (lo, hi), = sup.intervals
        assert abs(lo - 0.0) <= 1e-8
        assert abs(hi - 27.0 / 4.0) <= 1e-8
        assert sup.zero_in_support is True
        assert subordination.support(MODEL_D2_C1).zero_in_support is False


def test_criterion_3_stieltjes_solver_cross_check():
    with criterion(3, "transform solver value and half-plane signs", 5.0):
        sol = stieltjes.solve_g(MODEL_D1_C1, complex(8.0, 1e-9))
        assert abs(sol.g.real - 1.0 / (3.0 + math.sqrt(5.0))) <= 1e-7
        gen = np.random.default_rng(3301)
        for _ in range(100):
            z = complex(gen.uniform(-4.0, 12.0), 10.0 ** gen.uniform(-4, 1))
            s = stieltjes.solve_g(MODEL_D1_C1, z)
            assert s.g.imag < 0.0
            assert (z * s.g).imag <= 1e-12 * max(1.0, abs(z * s.g))


def test_criterion_4_inverse_pair_and_monotonicity():
    with criterion(4, "inverse pair, monotone maps, noise monotonicity", 30.0):
        total_points = 0
        for p in FIVE_MODELS:
            sup = subordination.support(p)
            xs = off_support_grid(sup, per_gap=24)[:48]
            total_points += len(xs)
            us = []
            for x in xs:
                u = subordination.omega(p, x)
                us.append(u)
                assert abs(subordination.phi(p, u) - x) <= 1e-9 * max(1.0, abs(x))
            assert all(b > a for a, b in zip(us, us[1:]))
            # admissible points survive halving the noise scale
            half = ModelParams(sigma=0.5 * p.sigma, c=p.c, nu=p.nu)
            thr = -1.0 / (half.sigma ** 2 * half.c)
            for u in us:
                assert measure.g_nu(p.nu, u) > thr
                assert subordination.phi_prime(half, u) > 0.0
        assert total_points >= 200


def test_criterion_5_subordination_identities():
    with criterion(5, "subordination chain, H residual, K composition", 60.0):
        models = (MODEL_D1_C1, MODEL_D2_HALF, MODEL_SPLIT)
        count = 0
        for p in models:
            s2c = p.sigma ** 2 * p.c
            sup = subordination.support(p)
            for x in off_support_grid(sup, per_gap=20)[:36]:
                count += 1
                g = stieltjes.solve_g(p, complex(x, 1e-9)).g
                u = subordination.omega(p, x)
                chain = abs(1.0 / (1.0 - s2c * g)
                            - (1.0 + s2c * measure.g_nu(p.nu, u)))
                assert chain <= 1e-7
                assert stieltjes.h_residual(p, x) <= 1e-6
        assert count >= 100
        p = MODEL_D2_HALF
        aux = ModelParams(sigma=p.sigma * math.sqrt(p.c), c=1.0, nu=p.nu)
        for u in (-0.5, 0.3, 0.5):
            lhs = subordination.k_transform(p, subordination.phi(aux, u))
            assert abs(lhs - subordination.phi(p, u)) <= 1e-6


def test_criterion_6_mass_equality():
    with criterion(6, "per-interval quadrature mass matches the base measure", 30.0):
        masses = stieltjes.interval_masses(MODEL_SPLIT)
        assert len(masses) == 2
        assert abs(masses[0] - 0.5) <= 1e-3
        assert abs(masses[1] - 0.5) <= 1e-3


def test_criterion_7_exact_separation():
    with criterion(7, "exact separation at n=500 with universality", 300.0):
        sup = subordination.support(MODEL_SPLIT)
        gap_lo, gap_hi = sup.intervals[0][1], sup.intervals[1][0]
        width = gap_hi - gap_lo
        gap = (gap_lo + 0.3 * width, gap_hi - 0.3 * width)
        cfg = SimConfig(n=500, N=1000, model=MODEL_SPLIT, seed=7, trials=40)
        rep = simulate.verify_separation(cfg, gap, simulate.run_trials(cfg))
        assert rep.i_N == 250
        assert rep.a_count_ok and all(rep.m_count_ok)
        assert rep.pass_fraction >= 0.95
        cfg_r = SimConfig(n=500, N=1000, model=MODEL_SPLIT, seed=7, trials=40,
                          entry_dist="rademacher-complex")
        rep_r = simulate.verify_separation(cfg_r, gap, simulate.run_trials(cfg_r))
        assert rep_r.i_N == 250
        assert abs(rep_r.pass_fraction - rep.pass_fraction) <= 0.05


def test_criterion_8_outlier_convergence():
    with criterion(8, "outlier at phi(4) and edge sticking at theta=2", 600.0):
        rho = 64.0 / 9.0
        cfg = SimConfig(n=1000, N=1000, model=MODEL_D1_C1,
                        spikes=SpikeSpec((4.0,), (1,)), seed=7, trials=20)
        samples = simulate.run_trials(cfg)
        lam1 = np.array([s.eigenvalues[0] for s in samples])
        lam2 = np.array([s.eigenvalues[1] for s in samples])
        assert abs(float(np.median(lam1)) - rho) <= 0.15
        assert int(np.sum(lam2 <= 6.75 + 0.15)) >= 18
        cfg_stick = SimConfig(n=1000, N=1000, model=MODEL_D1_C1,
                              spikes=SpikeSpec((2.0,), (1,)), seed=7, trials=20)
        stick = np.array([s.eigenvalues[0]
                          for s in simulate.run_trials(cfg_stick)])
        assert abs(float(np.median(stick)) - 6.75) <= 0.15


def test_criterion_9_bulk_law():
    with criterion(9, "Kolmogorov-Smirnov distance to the limit CDF", 600.0):
        cfg1 = SimConfig(n=2000, N=2000, model=MODEL_D1_C1, seed=7, trials=5)
        assert simulate.empirical_cdf_distance(
            cfg1.model, simulate.run_trials(cfg1)) <= 0.03
        cfg2 = SimConfig(n=1000, N=2000, model=MODEL_D2_HALF, seed=7, trials=5)
        assert simulate.empirical_cdf_distance(
            cfg2.model, simulate.run_trials(cfg2)) <= 0.05


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical verify-all reports (reference configs)",
                   600.0):
        out_a1 = tmp_path / "a1.json"
        out_a2 = tmp_path / "a2.json"
        code1 = cli.run(["verify-all", "--config", str(CONFIG_DIR / "reference_a.json"),
                         "--output", str(out_a1), "--no-timestamp"])
        code2 = cli.run(["verify-all", "--config", str(CONFIG_DIR / "reference_a.json"),
                         "--output", str(out_a2), "--no-timestamp"])
        assert code1 == 0 and code2 == 0  # reference config A: all checks pass
        assert out_a1.read_bytes() == out_a2.read_bytes()
        report = json.loads(out_a1.read_text())
        assert report["all_pass"] is True

        out_b = tmp_path / "b.json"
        code_b = cli.run(["verify-all", "--config", str(CONFIG_DIR / "reference_b.json"),
                          "--output", str(out_b), "--no-timestamp"])
        assert code_b == 0
        rep_b = json.loads(out_b.read_text())
        sep = next(c for c in rep_b["checks"] if c["name"] == "separation")
        assert sep["status"] == "pass"
        assert sep["pass_fraction"] >= 0.95
