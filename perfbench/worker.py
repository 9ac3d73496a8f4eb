"""One benchmark session in a fresh interpreter: set up, run rounds, check.

    python3 perfbench/worker.py --workload NAME --seed S [--session K]
        [--size tiny] [--budget SECONDS] [--trace] [--setup-only]

Started by ``run.py`` so that the per-model caches of ipn start cold, as
they do for a command-line user.  ``ready`` (a ``time.monotonic`` stamp,
shared by all processes of the machine) marks the end of set-up: interpreter
start, imports and config parse, plus the CDF table build on
``analytic_queries``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 7   # the seed of both reference configs
MAX_ITEMISED = 50  # failures listed by text; all of them are counted

SIZES = {
    "full": {"verify_args": [], "models": None, "density_points": 400,
             "probes": 16, "thetas": 6, "alphas": 8, "lookups": 50},
    "tiny": {"verify_args": ["--n", "40", "--N", "80", "--trials", "2"],
             "models": ("split", "mp_c1"), "density_points": 24,
             "probes": 4, "thetas": 3, "alphas": 3, "lookups": 4},
}

CONFIGS = {"verify_ref_a": "configs/reference_a.json",
           "verify_ref_b": "configs/reference_b.json"}

# Absolute tolerances for numeric fields of a verify-all report at the
# default seed; every other number must agree to a relative 1e-8.  Residual
# and mass tolerances are the checks' own; Monte Carlo medians may move by
# rounding of another eigenvalue method; the KS distance by a tenth of the
# tighter KS threshold (0.03), which a CDF accuracy fix may use up.
REPORT_ABS_TOL = {"max_residual": 1e-9, "max_chain_residual": 1e-7,
                  "max_h_residual": 1e-6, "max_mass_error": 1e-3,
                  "interval_masses": 1e-3, "median_observed": 1e-6,
                  "error": 1e-6, "distance": 3e-3}
REPORT_REL_TOL = 1e-8

OMEGA_TOL = 1e-9        # |phi(omega(y)) - y| / max(1, |y|)
ROUND_TRIP_TOL = 1e-6   # |cdf_mu(quantile_mu(alpha)) - alpha|
MONOTONE_TOL = 1e-12    # allowed decrease of cdf_mu between sorted points
ORACLE_TOL = 1e-4       # |density - mp_density| / max(1, mp_density)
SOLVE_TOL = 1e-12       # residual bound returned by solve_g

# Known defect at commit 64731e1: solve_g(x + 1e-9i) raises ConvergenceError
# for x inside the support within a small distance of an edge, up to 2.3e-3
# over the nine models (measured on a grid of offsets from 1e-7 to 3e-2).
# Timed lookups keep EDGE_MARGIN, more than four times that, from every edge,
# so that every lookup succeeds and a run's count of failed operations does
# not depend on how many lookups fit in it.  The defect stays measured: a
# traced analytic_queries run solves at EDGE_PROBE inside every edge of every
# model and reports the errors as ``stieltjes.solve_g.edge_errors``.
EDGE_MARGIN = 1e-2
EDGE_PROBE = 1e-4


# The speed of a shared host drifts, by a quarter over tens of seconds.  On
# the analytic workloads a fixed piece of pure-Python complex arithmetic
# (``reference_loop``) is timed just before and just after each model's
# block of work, and the block's wall time is reported scaled by
# REFERENCE_S / (mean of the two loop times): the time it would have taken
# at the reference speed.  This halved the run-to-run spread of those
# workloads.  It did not help the verify workloads, whose time is
# multi-threaded LAPACK (neither this loop nor a small SVD tracked it), so
# they report wall time.  REFERENCE_S is about the median loop time on the
# 2-CPU machine the benchmark was tuned on, so scaled times read close to
# wall times there.  Wall times are printed beside them.
REFERENCE_STEPS = 2000
REFERENCE_S = 0.6e-3


def reference_loop() -> float:
    """Seconds taken by the fixed reference loop: the least of three runs,
    so that an interrupt landing in one run does not count."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        z, acc = complex(2.0, 0.1), 0j
        for _ in range(REFERENCE_STEPS):
            acc += 0.5 / (z - 1.0) + 0.5 / (z - 5.0)
            z += 1e-4
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(before: float, after: float) -> float:
    return 2.0 * REFERENCE_S / (before + after)


def model_table(size: dict) -> dict:
    """The seven models of the test suite plus two Marchenko-Pastur oracles.

    nu = delta at 1e-9 makes the limit law Marchenko-Pastur to within 1e-9,
    so ``measure.mp_density`` is an independent oracle for the density.
    """
    from ipn.measure import MeasureSpec
    from ipn.subordination import ModelParams

    two = MeasureSpec(atoms=((0.5, 1.0), (0.5, 5.0)))
    models = {
        "d1_c1": ModelParams(1.0, 1.0, MeasureSpec.point_mass(1.0)),
        "d2_half": ModelParams(1.0, 0.5, MeasureSpec.point_mass(2.0)),
        "d2_c1": ModelParams(1.0, 1.0, MeasureSpec.point_mass(2.0)),
        "split": ModelParams(1.0, 0.5, two),
        "merged": ModelParams(2.0, 0.5, two),
        "uniform": ModelParams(0.5, 1.0, MeasureSpec(segments=((1.0, 1.0, 3.0),))),
        "mixed": ModelParams(0.4, 0.8, MeasureSpec(atoms=((0.5, 2.0),),
                                                   segments=((0.5, 4.0, 6.0),))),
        "mp_half": ModelParams(1.0, 0.5, MeasureSpec.point_mass(1e-9)),
        "mp_c1": ModelParams(1.0, 1.0, MeasureSpec.point_mass(1e-9)),
    }
    if size["models"] is not None:
        models = {k: models[k] for k in size["models"]}
    return models


class Ledger:
    """Operations attempted and failed, with the first failures itemised.

    An operation fails when it raises or yields a NaN density point (the
    program's own way of reporting a point it could not solve); an output
    check that does not hold also fails its operation and counts as wrong.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.items: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1, wrong: bool = False) -> None:
        self.attempted += n
        self.failed += n
        if wrong:
            self.wrong += n
        if len(self.items) < MAX_ITEMISED:
            self.items.append(("wrong: " if wrong else "error: ") + what)

    def check(self, cond: bool, what: str) -> None:
        if cond:
            self.ok()
        else:
            self.fail(what, wrong=True)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _guarded(residual) -> float:
    """A check's residual; inf when computing it raises (the check then fails)."""
    try:
        return residual()
    except Exception:
        return math.inf


def off_support_regions(sup) -> list[tuple[float, float, float]]:
    """(anchor, scale, (f_lo, f_hi)) regions off the support: y = anchor + scale*f."""
    lo0, hi = sup.intervals[0][0], sup.intervals[-1][1]
    span = hi - lo0 + 1.0
    regions = [(lo0, -span, 0.1, 1.5), (hi, span, 0.05, 2.0)]
    if lo0 > 0.0:
        regions.append((0.0, lo0, 0.15, 0.85))
    for (_, a_hi), (b_lo, _) in zip(sup.intervals, sup.intervals[1:]):
        regions.append((a_hi, b_lo - a_hi, 0.15, 0.85))
    return regions


def off_support_point(sup, u_region: float, u_frac: float) -> float:
    regions = off_support_regions(sup)
    anchor, scale, f_lo, f_hi = regions[min(int(u_region * len(regions)),
                                            len(regions) - 1)]
    return anchor + scale * (f_lo + (f_hi - f_lo) * u_frac)


def lookup_segments(sup) -> list[tuple[float, float]]:
    """The hull of the support less EDGE_MARGIN on either side of each edge."""
    edges = [e for iv in sup.intervals for e in iv]
    return [(a + EDGE_MARGIN, b - EDGE_MARGIN) for a, b in zip(edges, edges[1:])
            if b - a > 2.0 * EDGE_MARGIN]


def segment_point(segs: list[tuple[float, float]], u: float) -> float:
    """The point at fraction u of the total length of segs."""
    t = u * sum(b - a for a, b in segs)
    for a, b in segs:
        if t <= b - a:
            return a + t
        t -= b - a
    return segs[-1][1]


def edge_probes(models: dict, items: list[str]) -> int:
    """Solve at EDGE_PROBE inside every support edge; the number that raise."""
    from ipn import stieltjes, subordination

    errors = 0
    for name, p in models.items():
        for a, b in subordination.support(p).intervals:
            for x in (a + EDGE_PROBE, b - EDGE_PROBE):
                try:
                    stieltjes.solve_g(p, complex(x, 1e-9))
                except Exception as exc:
                    errors += 1
                    items.append(f"edge probe {name} x={x!r}: {_error(exc)}")
    return errors


def latin_hypercube(rng, n: int, dims: int):
    """n points in [0, 1)^dims with one point in each of n strata per axis.

    Every round then covers the lookup range evenly, up to EDGE_MARGIN from
    the edges, so the share of slow near-edge lookups does not swing from
    round to round.
    """
    import numpy as np

    return np.stack([(rng.permutation(n) + rng.random(n)) / n for _ in range(dims)],
                    axis=1)


def draw_thetas(rng, model, k: int) -> tuple[float, ...]:
    """k distinct spikes off supp(nu), spanning every classification case."""
    from ipn import measure

    comps = measure.support_of(model.nu)
    top = 1.5 * comps.max + 2.0 * model.sigma ** 2 + 1.0
    out: set[float] = set()
    while len(out) < k:
        t = float(rng.uniform(0.0, top))
        if t > 0.0 and comps.distance(t) > 1e-6:
            out.add(t)
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Verify:
    """``ipn verify-all`` on a reference config, as the command line runs it."""

    def __init__(self, name: str, seed: int, size_name: str) -> None:
        self.name, self.seed, self.size_name = name, seed, size_name
        self.size = SIZES[size_name]
        self.latencies: list[float] = []
        self.runs: list[tuple[int, dict | None]] = []
        self.mass_err = 0.0
        self.oracle_err = 0.0

    def setup(self) -> None:
        from ipn import cli  # noqa: F401  (import is part of set-up)
        from ipn.measure import MeasureSpec
        from ipn.simulate import SimConfig
        from ipn.spikes import SpikeSpec
        from ipn.subordination import ModelParams

        # what the command line does before any work: parse and validate the config
        self.path = ROOT / CONFIGS[self.name]
        with open(self.path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        model = ModelParams(cfg["model"]["sigma"], cfg["model"]["c"],
                            MeasureSpec.from_dict(cfg["model"]["nu"]))
        spikes = SpikeSpec.from_dict(cfg.get("spikes", {}))
        SimConfig(n=cfg["sim"]["n"], N=cfg["sim"]["N"], model=model,
                  spikes=spikes, seed=self.seed, trials=cfg["sim"]["trials"])

    def round(self) -> tuple[float, float]:
        """One verify-all command: (seconds, wall seconds)."""
        from ipn import cli

        argv = ["verify-all", "--config", str(self.path), "--seed", str(self.seed),
                "--no-timestamp"] + self.size["verify_args"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.run(argv)
            dt = time.perf_counter() - t0
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        self.runs.append((code, report))
        self.latencies.append(dt)
        return dt, dt  # not scaled: see REFERENCE_S

    def check(self, ledger: Ledger) -> None:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)[self.name][self.size_name]
        for code, report in self.runs:
            bad = compare_verify(expected, code, report,
                                 numeric=self.seed == DEFAULT_SEED)
            if bad:
                ledger.fail(f"{self.name} seed {self.seed}: " + "; ".join(bad[:5]),
                            wrong=True)
            else:
                ledger.ok()
            for row in (report or {}).get("checks", ()):
                if row.get("name") == "mass_equality":
                    self.mass_err = max(self.mass_err, row["max_mass_error"])


def compare_verify(expected: dict, code: int, report: dict | None,
                   numeric: bool) -> list[str]:
    """Differences between a verify-all run and the recorded one.

    Exit code and every check status must match at any seed; at the default
    seed every numeric field must also match within the stated tolerances.
    """
    bad = []
    if code != expected["exit_code"]:
        bad.append(f"exit code {code} != {expected['exit_code']}")
    if report is None:
        return bad + ["report is not JSON"]
    want = [(r["name"], r["status"]) for r in expected["report"]["checks"]]
    got = [(r.get("name"), r.get("status")) for r in report.get("checks", ())]
    if got != want:
        bad.append(f"check statuses {got} != {want}")
    if numeric:
        _compare_json(expected["report"], report, "", bad)
    return bad


def _compare_json(want, got, path: str, bad: list[str]) -> None:
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            bad.append(f"{path or 'report'}: keys differ")
            return
        for k in want:
            _compare_json(want[k], got[k], f"{path}.{k}" if path else k, bad)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            bad.append(f"{path}: length differs")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare_json(w, g, f"{path}[{i}]", bad)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool)
        tol = REPORT_ABS_TOL.get(key, REPORT_REL_TOL * abs(want))
        if not ok or not abs(got - want) <= tol:
            bad.append(f"{path}: {got!r} vs recorded {want!r} (tol {tol:.1e})")
    elif got != want:
        bad.append(f"{path}: {got!r} != {want!r}")


class Cold:
    """Cold analysis of each model: the table-building use of the solver."""

    def __init__(self, seed: int, size_name: str, session: int) -> None:
        import numpy as np

        self.size = SIZES[size_name]
        self.rng = np.random.default_rng([seed % (1 << 64), 1, session])
        self.latencies: list[float] = []
        self.done: list[tuple] = []
        self.mass_err = 0.0
        self.oracle_err = 0.0

    def setup(self) -> None:
        self.models = model_table(self.size)

    def round(self) -> tuple[float, float]:
        """One cold pass over the models: (reference-speed seconds, wall seconds)."""
        import numpy as np
        from ipn import spikes, stieltjes, subordination
        from ipn.spikes import SpikeSpec

        total = raw = 0.0
        size = self.size
        for name, p in self.models.items():
            draws = self.rng.random((size["probes"], 2))
            thetas = draw_thetas(self.rng, p, size["thetas"])
            alphas = self.rng.uniform(0.001, 0.999, size["alphas"])
            res = {"name": name, "p": p, "alphas": alphas, "stage": "support"}
            before = reference_loop()
            t0 = time.perf_counter()
            try:
                sup = res["sup"] = subordination.support(p)
                res["stage"] = "tables"
                res["masses"] = stieltjes.interval_masses(p)
                res["stage"] = "density"
                lo, hi = sup.intervals[0][0], sup.intervals[-1][1]
                xs = np.linspace(lo, hi, size["density_points"])
                if p.c == 1.0:
                    xs = xs[np.abs(xs) >= 1e-6]
                res["grid"] = stieltjes.density(p, [float(x) for x in xs])
                res["stage"] = "omega"
                ys = [off_support_point(sup, a, b) for a, b in draws]
                res["probes"] = [(y, subordination.omega(p, y)) for y in ys]
                res["stage"] = "classify"
                res["spikes"] = spikes.classify(
                    p, SpikeSpec(thetas, (1,) * len(thetas)))
                res["stage"] = None
            except Exception as exc:  # itemised as a failure by check()
                res["error"] = _error(exc)
            dt = time.perf_counter() - t0
            total += dt * speed_scale(before, reference_loop())
            raw += dt
            self.done.append(res)
        self.latencies.append(total)  # the request is the whole cold pass
        return total, raw

    def check(self, ledger: Ledger) -> None:
        from ipn import measure, stieltjes, subordination

        size = self.size
        for res in self.done:
            name, p = res["name"], res["p"]
            planned = {"support": 1, "tables": 1,
                       "density": size["density_points"], "omega": size["probes"],
                       "classify": 1}
            stage = res["stage"]
            if stage is not None:
                skipped = list(planned)[list(planned).index(stage):]
                ledger.fail(f"cold {name}: {stage}: {res['error']}",
                            sum(planned[s] for s in skipped))
            if "sup" in res:
                ledger.ok()
            if "masses" in res:
                adm = res["sup"].admissible
                err = max(abs(m - measure.mass_between(p.nu, adm.u[l], adm.v[l]))
                          for l, m in enumerate(res["masses"]))
                self.mass_err = max(self.mass_err, err)
                ledger.check(all(math.isfinite(m) and m > 0.0 for m in res["masses"]),
                             f"cold {name}: interval masses {res['masses']}")
            if "grid" in res:
                grid = res["grid"]
                for x, f in zip(grid.xs, grid.fs):
                    if math.isnan(f):
                        ledger.fail(f"cold {name}: density NaN at x={x!r}")
                    else:
                        ledger.ok()
                if name.startswith("mp_"):
                    self._oracle(ledger, name, p, res["sup"], grid)
            for y, u in res.get("probes", ()):
                r = _guarded(lambda: abs(subordination.phi(p, u) - y) / max(1.0, abs(y)))
                ledger.check(r <= OMEGA_TOL,
                             f"cold {name}: |phi(omega(y)) - y| = {r:.2e} at y={y!r}")
            if "spikes" in res:
                lims = [o.limit for o in res["spikes"]]
                ledger.check(all(math.isfinite(v) for v in lims),
                             f"cold {name}: non-finite spike limit {lims}")
            if "masses" not in res:
                continue
            xs = sorted(res["grid"].xs) if "grid" in res else []
            try:
                cdfs = [stieltjes.cdf_mu(p, x) for x in xs]
                drops = [a - b for a, b in zip(cdfs, cdfs[1:]) if b < a - MONOTONE_TOL]
                ledger.check(not drops, f"cold {name}: cdf_mu decreases by {drops[:3]}")
                for alpha in res["alphas"]:
                    q = stieltjes.quantile_mu(p, float(alpha))
                    e = abs(stieltjes.cdf_mu(p, q) - alpha)
                    ledger.check(e <= ROUND_TRIP_TOL,
                                 f"cold {name}: cdf(quantile({alpha!r})) off by {e:.2e}")
            except Exception as exc:
                ledger.fail(f"cold {name}: cdf checks: {_error(exc)}")

    def _oracle(self, ledger: Ledger, name: str, p, sup, grid) -> None:
        from ipn import measure

        lo, hi = sup.intervals[0][0], sup.intervals[-1][1]
        worst, at = 0.0, None
        for x, f in zip(grid.xs, grid.fs):
            if not lo < x < hi or math.isnan(f):
                continue  # the oracle is zero at the edges; NaN is counted above
            ref = measure.mp_density(p.c, p.sigma, x)
            err = abs(f - ref)
            self.oracle_err = max(self.oracle_err, err)
            if err / max(1.0, ref) > worst:
                worst, at = err / max(1.0, ref), x
        ledger.check(worst <= ORACLE_TOL,
                     f"cold {name}: density off the MP oracle by {worst:.2e} "
                     f"(relative) at x={at!r}")


class Queries:
    """Point lookups against tables built in set-up: the read use of the solver."""

    def __init__(self, seed: int, size_name: str, session: int) -> None:
        import numpy as np

        self.size = SIZES[size_name]
        self.rng = np.random.default_rng([seed % (1 << 64), 2, session])
        self.latencies: list[float] = []
        self.done: list[tuple] = []
        self.mass_err = 0.0
        self.oracle_err = 0.0

    def setup(self) -> None:
        from ipn import measure, stieltjes, subordination

        self.models = model_table(self.size)
        self.sups, self.segments = {}, {}
        for name, p in self.models.items():
            sup = self.sups[name] = subordination.support(p)
            self.segments[name] = lookup_segments(sup)
            masses = stieltjes.interval_masses(p)
            adm = sup.admissible
            self.mass_err = max([self.mass_err] + [
                abs(m - measure.mass_between(p.nu, adm.u[l], adm.v[l]))
                for l, m in enumerate(masses)])

    def round(self) -> tuple[float, float]:
        """One block of lookups per model: (reference-speed seconds, wall seconds)."""
        from ipn import stieltjes, subordination

        total = raw = 0.0
        clock = time.perf_counter
        for name, p in self.models.items():
            sup, segs = self.sups[name], self.segments[name]
            draws = latin_hypercube(self.rng, self.size["lookups"], 4)
            block = []
            before = reference_loop()
            for u_x, u_alpha, u_region, u_frac in draws:
                x = segment_point(segs, float(u_x))
                alpha = 0.001 + 0.998 * float(u_alpha)
                y = off_support_point(sup, float(u_region), float(u_frac))
                t0 = clock()
                try:
                    sol = stieltjes.solve_g(p, complex(x, 1e-9))
                    cdf = stieltjes.cdf_mu(p, x)
                    q = stieltjes.quantile_mu(p, alpha)
                    u = subordination.omega(p, y)
                except Exception as exc:
                    dt = clock() - t0
                    self.done.append((name, p, x, alpha, y, exc))
                else:
                    dt = clock() - t0
                    self.done.append((name, p, x, alpha, y, (sol, cdf, q, u)))
                block.append(dt)
            scale = speed_scale(before, reference_loop())
            self.latencies.extend(dt * scale for dt in block)
            total += sum(block) * scale
            raw += sum(block)
        return total, raw

    def check(self, ledger: Ledger) -> None:
        from ipn import stieltjes, subordination

        per_model: dict[str, list] = {}
        for name, p, x, alpha, y, out in self.done:
            if isinstance(out, Exception):
                ledger.fail(f"queries {name} x={x!r} alpha={alpha!r} y={y!r}: "
                            f"{_error(out)}")
                continue
            sol, cdf, q, u = out
            per_model.setdefault(name, []).append((x, cdf))
            bad = []
            if not (sol.residual <= SOLVE_TOL and sol.g.imag < 0.0):
                bad.append(f"solve_g residual {sol.residual:.2e}, g={sol.g!r}")
            r = _guarded(lambda: abs(subordination.phi(p, u) - y) / max(1.0, abs(y)))
            if not r <= OMEGA_TOL:
                bad.append(f"|phi(omega(y)) - y| = {r:.2e} at y={y!r}")
            e = _guarded(lambda: abs(stieltjes.cdf_mu(p, q) - alpha))
            if not e <= ROUND_TRIP_TOL:
                bad.append(f"cdf(quantile({alpha!r})) off by {e:.2e}")
            ledger.check(not bad, f"queries {name}: " + "; ".join(bad))
        for name, pairs in per_model.items():
            pairs.sort()
            drops = [a[1] - b[1] for a, b in zip(pairs, pairs[1:])
                     if b[1] < a[1] - MONOTONE_TOL]
            ledger.check(not drops, f"queries {name}: cdf_mu decreases by {drops[:3]}")


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod) -> dict:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return {}
        return {"name": info.get("name"), "version": info.get("version")}

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np),
            "scipy_blas": blas(scipy), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "IPN_THREADS")}}


def make_workload(name: str, seed: int, size: str, session: int):
    if name in CONFIGS:
        return Verify(name, seed, size)
    if name == "analytic_cold":
        return Cold(seed, size, session)
    if name == "analytic_queries":
        return Queries(seed, size, session)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--session", type=int, default=0,
                    help="index of this session in the run; selects its input stream")
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--budget", type=float, default=0.0,
                    help="run rounds until this many seconds of work (at least one)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_decompositions()
    import ipn

    src = (ROOT / "src").resolve()
    if Path(ipn.__file__).resolve().parent.parent != src:
        raise SystemExit(f"ipn imported from {ipn.__file__}, not from {src}")
    if tracer is not None:
        tracer.install()
    work = make_workload(args.workload, args.seed, args.size, args.session)
    work.setup()
    ready = time.monotonic()
    result = {"ready": ready, "rounds": [], "raw_rounds": []}
    if not args.setup_only:
        spent = 0.0
        while not result["rounds"] or spent < args.budget:
            scaled, raw = work.round()
            result["rounds"].append(scaled)
            result["raw_rounds"].append(raw)
            spent += raw
        if tracer is not None:
            result["trace"] = tracer.dump()  # before the checks call into ipn
        ledger = Ledger()
        work.check(ledger)
        result.update(latencies=work.latencies, attempted=ledger.attempted,
                      failed=ledger.failed, wrong=ledger.wrong, failures=ledger.items,
                      mass_err_max=work.mass_err,
                      oracle_density_err_max=work.oracle_err)
        if tracer is not None and isinstance(work, Queries):
            result["edge_items"] = []
            result["edge_errors"] = edge_probes(work.models, result["edge_items"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
