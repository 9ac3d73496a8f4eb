"""Finite-size sampling of information-plus-noise matrices, and the checks
that verify the limit theory over those samples.

The signal matrix is rectangular diagonal: spiked directions carry
sqrt(theta_j), the rest carry square roots of deterministic quantiles of nu
(so the empirical signal spectrum converges to nu with no sampling noise and
stays uniformly close to supp(nu)).  Eigenvalues of the sample are those of
the n x n Gram matrix Y Y* for Y = sigma*X/sqrt(N) + A, from one kernel per
trial (``_gram_eigenvalues``): a one-triangle rank-N update and LAPACK's
two-stage symmetric eigensolver, both from numpy's bundled OpenBLAS, with
numpy's ``eigvalsh`` as the fallback where that library lacks them.  The
noise stream is counter-based per (seed, trial), so trials are reproducible;
eigenvalue digits depend on which path ran, as they do on the BLAS build.
Each experiment is sampled once by ``run_trials``; every check (separation,
outliers, KS, and the ``verify_all`` suite) is a function over that list of
samples.

``run_trials`` runs the trials side by side in spawned worker processes, at
most one per usable CPU, and every trial's linear algebra runs on one BLAS
thread.  Sample bytes therefore depend on neither the worker count nor the
caller's BLAS thread setting.  Spawned workers re-import the calling script,
so a script that calls ``run_trials`` needs an ``if __name__ == "__main__":``
guard.

``separation_gaps`` is the one map of where exact separation applies: every
gap of the computed support with omega > 0, cut at the outlier limits.
Every default separation window is the middle 40% of one of its bounded
pieces (``middle_window``).
"""

from __future__ import annotations

import functools
import glob
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import measure, spikes as spikes_mod, stieltjes, subordination
from .errors import PreconditionError
from .spikes import SpikeSpec
from .subordination import ModelParams

DEFAULT_CHECKS = {
    "separation_min_pass": 0.95,
    "outlier_tolerance": 0.15,
    "mass_tolerance": 1e-3,
    "ks_threshold": 0.05,
    "inverse_pair_tolerance": 1e-9,
    "chain_tolerance": 1e-7,
    "h_tolerance": 1e-6,
}

ENTRY_DISTS = ("complex-gaussian", "real-gaussian", "rademacher-complex")

_MASK64 = (1 << 64) - 1

# read by OpenBLAS, OpenMP and MKL when a worker loads numpy
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# CBLAS and LAPACKE layout, transpose and triangle codes
_ROW_MAJOR, _COL_MAJOR, _NO_TRANS, _LOWER = 101, 102, 111, 122


def as_int(name: str, value) -> int:
    """``value`` as an int; ValueError for a non-integral or infinite float,
    which ``int`` would truncate or fail on."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """One reproducible Monte Carlo experiment."""

    n: int
    N: int
    model: ModelParams
    entry_dist: str = "complex-gaussian"
    spikes: SpikeSpec = field(default_factory=SpikeSpec)
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "N", "seed", "trials"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if not 1 <= self.n <= self.N:
            raise ValueError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.entry_dist not in ENTRY_DISTS:
            raise ValueError(f"entry_dist must be one of {ENTRY_DISTS}")
        if self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if self.spikes.r > self.n:
            raise ValueError("spike multiplicities exceed the matrix size")


@dataclass(frozen=True, eq=False)
class EigenSample:
    """Descending eigenvalues of one sampled matrix."""

    eigenvalues: np.ndarray
    trial_index: int


@dataclass(frozen=True)
class SeparationReport:
    """Per-trial outcome of the exact-separation check for one gap."""

    gap: tuple[float, float]
    omega_gap: tuple[float, float]
    i_N: int
    a_count_ok: bool
    m_count_ok: tuple[bool, ...]
    pass_fraction: float

    def to_dict(self) -> dict:
        return {
            "gap": list(self.gap),
            "omega_gap": list(self.omega_gap),
            "i_N": self.i_N,
            "a_count_ok": self.a_count_ok,
            "m_count_ok": list(self.m_count_ok),
            "pass_fraction": self.pass_fraction,
        }


def build_A(model: ModelParams, spikes: SpikeSpec, n: int) -> np.ndarray:
    """Diagonal entries of the n x N signal matrix: square roots of
    ``spikes.signal_eigenvalues``, in the same order."""
    return np.sqrt(spikes_mod.signal_eigenvalues(model, spikes, n))


def _noise(rng: np.random.Generator, shape: tuple[int, int],
           entry_dist: str) -> np.ndarray:
    if entry_dist == "complex-gaussian":
        return ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                / math.sqrt(2.0))
    if entry_dist == "real-gaussian":
        return rng.standard_normal(shape)
    # rademacher-complex: uniform on the fourth roots of unity, |X| = 1
    table = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
    return table[rng.integers(0, 4, size=shape)]


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_matrix(cfg: SimConfig, trial: int, d: np.ndarray) -> np.ndarray:
    """Y = sigma*X/sqrt(N) + A for one trial, with ``d`` the diagonal of A."""
    rng = _trial_rng(cfg.seed, trial)
    Y = _noise(rng, (cfg.n, cfg.N), cfg.entry_dist) * (cfg.model.sigma
                                                       / math.sqrt(cfg.N))
    idx = np.arange(cfg.n)
    Y[idx, idx] = Y[idx, idx] + d
    return Y


@functools.cache
def _gram_kernel() -> dict | None:
    """ctypes bindings in numpy's bundled ILP64 OpenBLAS, by dtype of Y:
    (rank-k update, two-stage eigensolver, solver name), that is
    ``cblas_zherk`` and ``LAPACKE_zheevd_2stage`` for complex Y and
    ``cblas_dsyrk`` and ``LAPACKE_dsyevd_2stage`` for real Y.

    None where numpy ships no such library or it lacks a symbol.  Bound on
    the first call (in a pool worker, the worker's first trial), so
    importing ipn loads nothing.
    """
    import ctypes

    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(root + ".libs", "libscipy_openblas64_*"))
                   + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas64_*")))
    if not paths:
        return None
    try:
        lib = ctypes.CDLL(paths[0])  # numpy has loaded it: this binds, nothing more
        kernel = {np.dtype(dtype): (getattr(lib, f"scipy_cblas_{rank_k}64_"),
                                    getattr(lib, f"scipy_LAPACKE_{solve}64_"), solve)
                  for dtype, rank_k, solve in ((np.complex128, "zherk", "zheevd_2stage"),
                                               (np.float64, "dsyrk", "dsyevd_2stage"))}
    except (OSError, AttributeError):
        return None
    enum, index, real, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for rank_k, solve, _ in kernel.values():
        # (layout, uplo, trans, n, k, alpha, A, lda, beta, C, ldc)
        rank_k.argtypes = [enum, enum, enum, index, index, real, ptr, index, real,
                           ptr, index]
        rank_k.restype = None
        # (layout, jobz, uplo, n, A, lda, w) -> info
        solve.argtypes = [enum, ctypes.c_char, ctypes.c_char, index, ptr, index, ptr]
        solve.restype = index
    return kernel


def _gram_eigenvalues(Y: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the n x n Gram matrix G = Y Y* of an n x N
    matrix Y, complex or real.

    ``zherk`` (``dsyrk`` for real Y) fills the lower triangle of the
    row-major G, and LAPACKE's ``zheevd_2stage`` (``dsyevd_2stage``) solves
    it in place with JOBZ = 'N'.  The solver reads that buffer in
    column-major order, as conj(G) with its upper triangle set, which has
    the same eigenvalues; nothing is transposed or copied.  Y is dropped
    before the solve, so a caller that passes its only reference never holds
    Y and the solver's workspace together.  Where ``_gram_kernel`` is None
    this is ``eigvalsh(Y @ Y.conj().T)``.  A nonzero LAPACK info raises
    LinAlgError.
    """
    kernel = _gram_kernel()
    if kernel is None:
        G = Y @ Y.conj().T
        del Y
        return np.linalg.eigvalsh(G)
    Y = np.ascontiguousarray(Y, np.complex128 if np.iscomplexobj(Y) else np.float64)
    rank_k, solve, name = kernel[Y.dtype]
    n, k = Y.shape
    G = np.zeros((n, n), Y.dtype)
    rank_k(_ROW_MAJOR, _LOWER, _NO_TRANS, n, k, 1.0, Y.ctypes.data, k, 0.0,
           G.ctypes.data, n)
    del Y
    w = np.empty(n)
    info = solve(_COL_MAJOR, b"N", b"U", n, G.ctypes.data, n, w.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"{name} returned info = {info}")
    return w


def sample_eigenvalues(cfg: SimConfig, trial: int,
                       d: np.ndarray | None = None) -> EigenSample:
    """Eigenvalues of one sampled matrix, descending, deterministic in (seed, trial).

    Computed by ``_gram_eigenvalues`` for Y = sigma*X/sqrt(N) + A: one
    n x n Gram product and one symmetric eigensolve.  Forming Y Y* squares
    the condition number of Y, so each eigenvalue carries an absolute error
    of about eps*||Y||^2; small eigenvalues near zero at c = 1 are accurate
    to that absolute level, not relatively.  ``d`` is the diagonal of A from
    ``build_A``, built here when not given.
    """
    if d is None:
        d = build_A(cfg.model, cfg.spikes, cfg.n)
    # the kernel gets the only reference to Y (CPython 3.11+ moves call
    # arguments into the callee) and drops it before the solve
    try:
        evals = _gram_eigenvalues(_sample_matrix(cfg, trial, d))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed on trial {trial}: {exc}"
        ) from exc
    return EigenSample(eigenvalues=evals[::-1].copy(), trial_index=trial)


def _sample_trial(cfg: SimConfig, trial: int, d: np.ndarray) -> EigenSample:
    """One trial in a pool worker.  Module-level, so it pickles by name; the
    worker then calls its own ``sample_eigenvalues``, and a wrapper set on
    this process's module (a tracer's, say) is never pickled."""
    return sample_eigenvalues(cfg, trial, d)


def _worker_count(trials: int) -> int:
    """Workers ``run_trials`` starts: one per usable CPU, at most one per
    trial."""
    return min(len(os.sched_getaffinity(0)), trials)


def run_trials(cfg: SimConfig) -> list[EigenSample]:
    """All trials of the experiment, sharing one signal matrix, in trial order.

    The trials run on a pool of ``_worker_count(cfg.trials)`` spawned
    processes that lives for this call only: it is shut down before the call
    returns or raises, and a worker that dies raises ``BrokenProcessPool``
    (never retried).  Workers start with one BLAS thread each, so every
    trial's bytes are those of a one-thread eigensolve whatever the worker
    count; the caller's environment is restored once they have started.
    The first failing trial's error is raised.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    d = build_A(cfg.model, cfg.spikes, cfg.n)
    pool = ProcessPoolExecutor(_worker_count(cfg.trials),
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:  # with spawn, each submission starts a worker until the pool is full
            futures = [pool.submit(_sample_trial, cfg, t, d) for t in range(cfg.trials)]
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def separation_gaps(model: ModelParams, spikes: SpikeSpec
                    ) -> list[tuple[float, float]]:
    """Open intervals outside the computed support where exact separation
    applies, in ascending order.

    Every gap of the support is cut at each OUTLIER limit phi(theta) inside
    it.  The left gap keeps only its part where omega > 0: the piece
    (phi(0), lo_1) when u_1 > 0 and zero is not in the support (phi(0) = 0
    at c = 1), and nothing otherwise.  The last piece is unbounded.
    """
    sup = subordination.support(model)
    cuts = sorted(o.limit for o in spikes_mod.classify(model, spikes)
                  if o.case_tag == spikes_mod.OUTLIER)
    gaps = sup.gaps()
    if sup.admissible.u[0] > 0.0 and not sup.zero_in_support:
        gaps[0] = (subordination.phi(model, 0.0), gaps[0][1])
    else:
        del gaps[0]
    pieces = []
    for lo, hi in gaps:
        edges = [lo, *(t for t in cuts if lo < t < hi), hi]
        pieces.extend(zip(edges, edges[1:]))
    return pieces


def middle_window(piece: tuple[float, float]) -> tuple[float, float]:
    """The middle 40% of a bounded piece: the default separation window."""
    lo, hi = piece
    width = hi - lo
    return lo + 0.3 * width, hi - 0.3 * width


def omega_gap(model: ModelParams, gap: tuple[float, float]) -> tuple[float, float]:
    """[omega(a), omega(b)] for a spectral gap [a, b], after checking that the
    gap is one separation applies to: [a, b] inside one gap of the computed
    support, and omega(a) > 0 when c < 1.  Call it before sampling to fail
    fast.  b may be inf, with omega(inf) = inf."""
    a, b = float(gap[0]), float(gap[1])
    if not a < b:
        raise PreconditionError(f"gap must satisfy a < b, got {gap!r}")
    sup = subordination.support(model)
    k = sup.gap_index(a)
    if k is None or sup.gap_index(b) != k:
        raise PreconditionError("gap overlaps the computed support")
    omega_a = subordination.omega(model, a)
    omega_b = math.inf if b == math.inf else subordination.omega(model, b)
    if model.c < 1.0 and omega_a <= 0.0:
        raise PreconditionError("separation requires omega(a) > 0 when c < 1")
    return omega_a, omega_b


def verify_separation(cfg: SimConfig, gap: tuple[float, float],
                      samples: list[EigenSample]) -> SeparationReport:
    """Check the exact-separation correspondence over a spectral gap [a, b].

    The index i_N counts signal eigenvalues above omega(b); separation holds
    for a trial when the signal spectrum avoids [omega(a), omega(b)] and the
    sample spectrum splits at i_N around [a, b].  On the unbounded gap
    (b = inf) i_N is 0 and the check is that no eigenvalue reaches a.
    """
    a, b = float(gap[0]), float(gap[1])
    omega_a, omega_b = omega_gap(cfg.model, gap)
    signal = spikes_mod.signal_eigenvalues(cfg.model, cfg.spikes, cfg.n)
    i_N = int(np.sum(signal > omega_b))
    a_ok = int(np.sum(signal >= omega_a)) == i_N
    m_ok_list = []
    for sample in samples:
        ev = sample.eigenvalues
        m_ok_list.append(bool((i_N == cfg.n or ev[i_N] < a)
                              and (i_N == 0 or ev[i_N - 1] > b)))
    passed = [a_ok and m_ok for m_ok in m_ok_list]
    return SeparationReport(gap=(a, b), omega_gap=(omega_a, omega_b), i_N=i_N,
                            a_count_ok=a_ok,
                            m_count_ok=tuple(m_ok_list),
                            pass_fraction=sum(passed) / len(passed))


def empirical_cdf_distance(model: ModelParams, samples: list[EigenSample]) -> float:
    """Kolmogorov-Smirnov distance between pooled eigenvalues and the model
    CDF, a number in [0, 1]."""
    pooled = np.sort(np.concatenate([s.eigenvalues for s in samples]))
    m = len(pooled)
    model_cdf = stieltjes.cdf_mu(model, pooled)
    upper = np.max(np.arange(1, m + 1) / m - model_cdf)
    lower = np.max(model_cdf - np.arange(0, m) / m)
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# The consolidated verification suite
# ---------------------------------------------------------------------------

def _verification_grid(sup: subordination.SupportResult) -> list[float]:
    """Deterministic off-support probe points spanning every gap."""
    pts: list[float] = []
    span = sup.intervals[-1][1] - sup.intervals[0][0] + 1.0
    lo0 = sup.intervals[0][0]
    if lo0 > 0.0:
        pts.extend(lo0 * f for f in (0.25, 0.5, 0.75))
    pts.extend(lo0 - span * f for f in (0.25, 0.75))
    for a_hi, b_lo in sup.gaps()[1:-1]:
        width = b_lo - a_hi
        pts.extend(a_hi + width * f for f in (0.2, 0.5, 0.8))
    hi_last = sup.intervals[-1][1]
    pts.extend(hi_last + span * f for f in (0.1, 0.3, 0.8, 2.0))
    return sorted(pts)


def verify_all(sim: SimConfig, gap: tuple[float, float] | None,
               checks: dict) -> dict:
    """Run the consolidated verification suite on one experiment.

    Analytic checks (inverse pair, subordination chain, mass equality) come
    first; the experiment is then sampled once and the separation, outlier
    and KS checks read those samples.  Without a gap, the middle window of
    the widest inner piece of ``separation_gaps`` (a gap between two support
    intervals, cut at the outlier limits) is used, and separation is skipped
    when the support is one interval.  ``checks`` overrides entries of
    ``DEFAULT_CHECKS``; other names, and values that are not real numbers
    (bools, NaN), raise ValueError first.  ``all_pass`` is false when any
    check fails.
    """
    bad = {k: v for k, v in checks.items() if k not in DEFAULT_CHECKS
           or isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v)}
    if bad:
        raise ValueError(f"checks {bad} need names in {sorted(DEFAULT_CHECKS)} "
                         "and real-number values (not bool or NaN)")
    model = sim.model
    checks_cfg = {**DEFAULT_CHECKS, **checks}
    results: list[dict] = []

    sup = subordination.support(model)
    grid = _verification_grid(sup)

    us = [subordination.omega(model, x) for x in grid]
    worst = max(abs(subordination.phi(model, u) - x) / max(1.0, abs(x))
                for x, u in zip(grid, us))
    tol = checks_cfg["inverse_pair_tolerance"]
    results.append({"name": "inverse_pair", "status": "pass" if worst <= tol else "fail",
                    "max_residual": worst, "tolerance": tol, "points": len(grid)})

    s2c = model.sigma ** 2 * model.c
    worst_chain = 0.0
    worst_h = 0.0
    for x, u in zip(grid[:12], us):
        gmu = stieltjes.solve_g(model, complex(x, 1e-9)).g
        chain = abs(1.0 / (1.0 - s2c * gmu)
                    - (1.0 + s2c * measure.g_nu(model.nu, u)))
        worst_chain = max(worst_chain, chain)
        worst_h = max(worst_h, stieltjes._h_residual(model, x, u, gmu))
    ok = (worst_chain <= checks_cfg["chain_tolerance"]
          and worst_h <= checks_cfg["h_tolerance"])
    results.append({"name": "subordination_chain",
                    "status": "pass" if ok else "fail",
                    "max_chain_residual": worst_chain,
                    "max_h_residual": worst_h,
                    "chain_tolerance": checks_cfg["chain_tolerance"],
                    "h_tolerance": checks_cfg["h_tolerance"]})

    masses = stieltjes.interval_masses(model)
    worst_mass = max(abs(m - measure.mass_between(model.nu, u, v))
                     for m, (u, v) in zip(masses, sup.admissible.intervals))
    tol = checks_cfg["mass_tolerance"]
    results.append({"name": "mass_equality",
                    "status": "pass" if worst_mass <= tol else "fail",
                    "max_mass_error": worst_mass, "tolerance": tol,
                    "interval_masses": list(masses)})

    if gap is None:
        inner = [(lo, hi) for lo, hi in separation_gaps(model, sim.spikes)
                 if sup.intervals[0][1] <= lo and hi <= sup.intervals[-1][0]]
        if inner:
            gap = middle_window(max(inner, key=lambda g: g[1] - g[0]))
    if gap is not None:
        omega_gap(model, gap)  # reject a bad gap before sampling
    samples = run_trials(sim)

    if gap is not None:
        rep = verify_separation(sim, gap, samples)
        ok = rep.pass_fraction >= checks_cfg["separation_min_pass"]
        results.append({"name": "separation", "status": "pass" if ok else "fail",
                        "pass_fraction": rep.pass_fraction, "i_N": rep.i_N,
                        "gap": list(gap),
                        "min_pass": checks_cfg["separation_min_pass"]})
    else:
        results.append({"name": "separation", "status": "skipped",
                        "reason": "single support interval and no configured gap"})

    if sim.spikes.thetas:
        outcomes = spikes_mod.classify(model, sim.spikes)
        ranks = spikes_mod.spike_ranks(model, sim.spikes, sim.n)
        tol = checks_cfg["outlier_tolerance"]
        spike_rows = []
        ok = True
        for outcome, rank in zip(outcomes, ranks):
            observed = float(np.median([s.eigenvalues[rank - 1] for s in samples]))
            err = abs(observed - outcome.limit)
            ok = ok and err <= tol
            spike_rows.append({"theta": outcome.theta, "case": outcome.case_tag,
                               "limit": outcome.limit, "rank": rank,
                               "median_observed": observed, "error": err})
        results.append({"name": "outlier", "status": "pass" if ok else "fail",
                        "tolerance": tol, "spikes": spike_rows})
    else:
        results.append({"name": "outlier", "status": "skipped",
                        "reason": "no spikes configured"})

    ks = empirical_cdf_distance(model, samples)
    tol = checks_cfg["ks_threshold"]
    results.append({"name": "ks", "status": "pass" if ks <= tol else "fail",
                    "distance": ks, "threshold": tol,
                    "pooled": sum(len(s.eigenvalues) for s in samples)})

    return {
        "model": model.to_dict(),
        "spikes": sim.spikes.to_dict(),
        "sim": {"n": sim.n, "N": sim.N, "entry_dist": sim.entry_dist,
                "seed": sim.seed, "trials": sim.trials},
        "checks": results,
        "all_pass": all(r["status"] != "fail" for r in results),
    }
