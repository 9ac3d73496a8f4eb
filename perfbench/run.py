"""Layered benchmark for ipn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run each in turn.  Every session
runs in a fresh interpreter (``worker.py``), so the per-model caches start
cold as they do for a command-line user; sessions run one at a time, with
BLAS threads capped at the CPUs this process may use and IPN_THREADS=1.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one
round untraced and the same round with wrappers installed around the ipn
layers (see ``tracer.py``), reports the per-layer metrics and the tracing
overhead, prints a table of self times and writes the spans and counts to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("verify_ref_a", "verify_ref_b", "analytic_cold", "analytic_queries")
SETUP_SAMPLES = 3   # set-up is measured this many times per run; median reported
TIME_LIMIT = 170.0  # seconds for one workload, all sessions included
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {  # name -> unit
    "run_s": "s", "setup_s": "s", "query_p50_us": "us", "query_p99_us": "us",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "mass_err_max": "abs",
}
PER_LAYER = {
    "measure.g_nu.calls": "count", "measure.g_nu.points": "count",
    "subordination.support.s": "s", "subordination.admissible_set.s": "s",
    "subordination.omega.calls": "count", "subordination.omega.s": "s",
    "stieltjes.solve_g.calls": "count", "stieltjes.solve_g.s": "s",
    "stieltjes.solve_g.iterations": "count", "stieltjes.solve_g.edge_errors": "count",
    "stieltjes.tables.s": "s",
    "stieltjes.density.s": "s", "stieltjes.density.points": "count",
    "stieltjes.density.nan_points": "count",
    "stieltjes.cdf_mu.calls": "count", "stieltjes.cdf_mu.s": "s",
    "stieltjes.quantile_mu.calls": "count", "stieltjes.quantile_mu.s": "s",
    "spikes.classify.calls": "count", "spikes.classify.s": "s",
    "simulate.build_A.s": "s", "simulate.sample_eigenvalues.calls": "count",
    "simulate.sample_eigenvalues.s": "s", "simulate.distinct_trials": "count",
    "simulate.sample_useful_ratio": "ratio", "simulate.decompose.calls": "count",
    "simulate.decompose.s": "s", "simulate.decompose.bytes_in": "bytes",
    "simulate.noise_s": "s", "cli.verify_all.s": "s", "cli.self_s": "s",
    "fail_frac": "ratio", "oracle_density_err_max": "abs",
    "trace.overhead_frac": "ratio",
}


class SessionError(RuntimeError):
    """A worker did not finish or did not report."""


class Runner:
    def __init__(self, size: str) -> None:
        self.size = size
        self.deadline = 0.0
        self.env = child_env()

    def session(self, workload: str, seed: int, *, index: int = 0,
                budget: float = 0.0, trace: bool = False,
                setup_only: bool = False) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--session", str(index), "--size", self.size,
               "--budget", repr(budget)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise SessionError(f"{workload} session exceeded the time limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise SessionError(f"{workload} session exited {proc.returncode}: "
                               + proc.stderr.strip()[-2000:])
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["ready"] - t0
        return res

    def measure(self, workload: str, seed: int, seconds: float) -> dict:
        """Untraced sessions for ``seconds`` of work, then set-up probes."""
        self.deadline = time.monotonic() + TIME_LIMIT
        start = time.monotonic()
        sessions = []
        if workload == "analytic_queries":
            # tables are built in set-up, so each session is one set-up sample
            for i in range(SETUP_SAMPLES):
                sessions.append(self.session(workload, seed, index=i,
                                             budget=seconds / SETUP_SAMPLES))
        else:
            while not sessions or time.monotonic() - start < seconds:
                sessions.append(self.session(workload, seed, index=len(sessions)))
        setups = [s["setup_s"] for s in sessions]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.session(workload, seed, setup_only=True)["setup_s"])
        rounds = [r for s in sessions for r in s["rounds"]]
        lat = [x for s in sessions for x in s["latencies"]]
        attempted = sum(s["attempted"] for s in sessions)
        failed = sum(s["failed"] for s in sessions)
        wrong = sum(s["wrong"] for s in sessions)
        values = {
            "run_s": statistics.median(rounds),
            "setup_s": statistics.median(setups),
            "query_p50_us": percentile(lat, 50) * 1e6,
            "query_p99_us": percentile(lat, 99) * 1e6,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
            "ok_frac": 1.0 - failed / attempted,
            "mass_err_max": max(s["mass_err_max"] for s in sessions),
        }
        info = {"sessions": len(sessions), "rounds": len(rounds),
                "wall_run_s": statistics.median(r for s in sessions for r in s["raw_rounds"]),
                "lookups": len(lat), "setup_samples": len(setups),
                "failures": [f for s in sessions for f in s["failures"]],
                "env": sessions[0]["env"]}
        return outcome(values, END_TO_END, attempted, failed, wrong, info)

    def trace(self, workload: str, seed: int) -> dict:
        """One round untraced, the same round traced; per-layer metrics."""
        self.deadline = time.monotonic() + TIME_LIMIT
        base = self.session(workload, seed)
        run = self.session(workload, seed, trace=True)
        tr = run["trace"]
        values = layer_metrics(tr)
        values["fail_frac"] = run["failed"] / run["attempted"]
        values["oracle_density_err_max"] = run["oracle_density_err_max"]
        # known defect, probed on analytic_queries only; 0 elsewhere
        values["stieltjes.solve_g.edge_errors"] = run.get("edge_errors", 0)
        values["trace.overhead_frac"] = sum(run["rounds"]) / sum(base["rounds"]) - 1.0
        table = self_time_table(tr)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "env": run["env"],
                       "untraced_round_s": base["rounds"], "traced_round_s": run["rounds"],
                       "metrics": values, "self_times": table, **tr}, fh)
        info = {"trace_file": str(path.relative_to(ROOT)), "self_times": table,
                "failures": run["failures"], "known_defect": run.get("edge_items", []),
                "env": run["env"]}
        return outcome(values, PER_LAYER, run["attempted"], run["failed"], run["wrong"],
                       info)


def child_env() -> dict:
    env = dict(os.environ)
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        val = env.get(var, "")
        if not (val.isdigit() and 1 <= int(val) <= cpus):
            env[var] = str(cpus)
    env["IPN_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tr: dict) -> dict:
    stats, counts = tr["stats"], tr["counts"]

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    out: dict[str, float] = {}
    for name in ("subordination.omega", "stieltjes.solve_g", "stieltjes.cdf_mu",
                 "stieltjes.quantile_mu", "spikes.classify",
                 "simulate.sample_eigenvalues", "simulate.decompose"):
        out[name + ".calls"] = calls(name)
    for name in ("subordination.support", "subordination.admissible_set",
                 "subordination.omega", "stieltjes.solve_g", "stieltjes.tables",
                 "stieltjes.density", "stieltjes.cdf_mu", "stieltjes.quantile_mu",
                 "spikes.classify", "simulate.build_A", "simulate.sample_eigenvalues",
                 "simulate.decompose", "cli.verify_all"):
        out[name + ".s"] = total(name)
    for name in ("measure.g_nu.calls", "measure.g_nu.points",
                 "stieltjes.solve_g.iterations", "stieltjes.density.points",
                 "stieltjes.density.nan_points", "simulate.decompose.bytes_in"):
        out[name] = counts.get(name, 0)
    samples = calls("simulate.sample_eigenvalues")
    out["simulate.distinct_trials"] = tr["distinct_trials"]
    # 0 when nothing was sampled
    out["simulate.sample_useful_ratio"] = tr["distinct_trials"] / samples if samples else 0.0
    out["simulate.noise_s"] = (total("simulate.sample_eigenvalues")
                               - total("simulate.decompose") - total("simulate.build_A"))
    out["cli.self_s"] = stats.get("cli.verify_all", (0, 0.0, 0.0))[2]
    return out


def self_time_table(tr: dict) -> list[list]:
    """[name, calls, total s, self s] per traced name, largest self time first."""
    rows = [[name, calls, total, self_s] for name, (calls, total, self_s)
            in tr["stats"].items()]
    rows += [[name[:-len(".calls")], n, None, None] for name, n in tr["counts"].items()
             if name.endswith(".calls")]
    return sorted(rows, key=lambda r: -(r[3] or 0.0))


def outcome(values: dict, units: dict, attempted: int, failed: int, wrong: int,
            info: dict) -> dict:
    """``correct`` holds when no output check failed; ``failed`` also counts
    operations that raised or returned NaN."""
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "info": info}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def report(workload: str, res: dict) -> None:
    info = res["info"]
    env = dict(info["env"], git_commit=git_commit())
    print(f"== {workload}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']}")
    print("env " + json.dumps(env, sort_keys=True))
    for key in ("sessions", "rounds", "wall_run_s", "lookups", "setup_samples",
                "trace_file"):
        if key in info:
            print(f"  {key}: {info[key]}")
    for line in info["failures"]:
        print(f"  FAILED {line}")
    for line in info.get("known_defect", ()):
        print(f"  KNOWN DEFECT {line}")
    if "self_times" in info:
        print(f"  {'self time by layer':40s} {'calls':>10s} {'total s':>10s} {'self s':>10s}")
        for name, calls, total, self_s in info["self_times"]:
            tot = "" if total is None else f"{total:10.4f}"
            slf = "" if self_s is None else f"{self_s:10.4f}"
            print(f"  {name:40s} {calls:10d} {tot:>10s} {slf:>10s}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ipn").is_dir():
        print(f"no ipn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    runner = Runner(args.size)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = runner.trace(name, args.seed)
            else:
                results[name] = runner.measure(name, args.seed, args.seconds)
            report(name, results[name])
    except SessionError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values())}
    if len(names) == 1:
        final["metrics"] = results[names[0]]["metrics"]
    else:
        final["metrics"] = {f"{w}:{k}": m for w, r in results.items()
                            for k, m in r["metrics"].items()}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
