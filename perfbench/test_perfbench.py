"""The benchmark's own tests: tiny-size smoke runs and the output checks.

    python3 -m pytest perfbench

Kept out of ``tests/`` so that the library's suite does not grow.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload):
    res = last_json(bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                          "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, m in res["metrics"].items():
        assert m["unit"] == run.END_TO_END[name]
        assert math.isfinite(m["value"]) and m["value"] > 0.0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    res = last_json(bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                          "--trace", "1", "--size", "tiny"))
    assert set(res["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload.startswith("verify"):
        trials = 2  # tiny size
        assert m["simulate.decompose.calls"] == 2 * trials
        assert m["simulate.distinct_trials"] == trials
        assert m["simulate.sample_useful_ratio"] == 0.5
        assert m["cli.verify_all.s"] > m["cli.self_s"] > 0.0
    else:
        assert m["simulate.decompose.calls"] == 0
        assert m["measure.g_nu.calls"] > 0 and m["stieltjes.tables.s"] > 0.0
    # the edge probes run once per traced analytic_queries run: 6 edges at tiny size
    if workload == "analytic_queries":
        assert 0 <= m["stieltjes.solve_g.edge_errors"] <= 6
    else:
        assert m["stieltjes.solve_g.edge_errors"] == 0
    trace = json.loads((ROOT / "perfbench" / "out" /
                        f"trace-{workload}-seed7.json").read_text())
    names = {s[0] for s in trace["spans"]}
    assert "stieltjes.tables" in names and not trace["missing"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "analytic_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _recorded(name: str) -> dict:
    return json.loads((HERE / "expected.json").read_text())[name]["full"]


def test_verify_check_accepts_the_recorded_report():
    rec = _recorded("verify_ref_a")
    assert worker.compare_verify(rec, rec["exit_code"], rec["report"], numeric=True) == []


def test_verify_check_fires_on_corrupted_reports():
    rec = _recorded("verify_ref_a")
    assert worker.compare_verify(rec, 3, rec["report"], numeric=False)
    assert worker.compare_verify(rec, 0, None, numeric=False)

    flipped = copy.deepcopy(rec["report"])
    flipped["checks"][4]["status"] = "fail"
    assert worker.compare_verify(rec, 0, flipped, numeric=False)

    drifted = copy.deepcopy(rec["report"])
    drifted["checks"][4]["spikes"][0]["median_observed"] += 1e-3
    assert worker.compare_verify(rec, 0, drifted, numeric=False) == []
    assert worker.compare_verify(rec, 0, drifted, numeric=True)

    dropped = copy.deepcopy(rec["report"])
    del dropped["checks"][5]["distance"]
    assert worker.compare_verify(rec, 0, dropped, numeric=True)


def _ledger(work) -> worker.Ledger:
    ledger = worker.Ledger()
    work.check(ledger)
    return ledger


def test_cold_checks_fire_on_corrupted_results():
    work = worker.Cold(seed=3, size_name="tiny", session=0)
    work.setup()
    work.round()
    clean = _ledger(work)
    assert clean.failed == 0 and clean.attempted > 0

    good = work.done
    corruptions = []
    res = copy.copy(good[0])
    (y, u), *rest = res["probes"]
    res["probes"] = [(y, u + 1e-3)] + rest
    corruptions.append((0, res))  # omega no longer inverts phi
    mp = next(i for i, r in enumerate(good) if r["name"].startswith("mp_"))
    res = copy.copy(good[mp])
    fs = list(res["grid"].fs)
    fs[len(fs) // 2] *= 1.01
    res["grid"] = type(res["grid"])(xs=res["grid"].xs, fs=tuple(fs),
                                    eps_used=res["grid"].eps_used)
    corruptions.append((mp, res))  # density off the Marchenko-Pastur oracle
    for i, res in corruptions:
        work.done = good[:i] + [res] + good[i + 1:]
        ledger = _ledger(work)
        assert ledger.wrong == 1 and ledger.failed == 1, ledger.items

    res = copy.copy(good[0])
    fs = list(res["grid"].fs)
    fs[3] = math.nan
    res["grid"] = type(res["grid"])(xs=res["grid"].xs, fs=tuple(fs),
                                    eps_used=res["grid"].eps_used)
    work.done = [res] + good[1:]
    ledger = _ledger(work)
    assert ledger.failed == 1 and ledger.wrong == 0  # a failed point, not a wrong one


def test_query_checks_fire_on_corrupted_results():
    work = worker.Queries(seed=3, size_name="tiny", session=0)
    work.setup()
    work.round()
    assert _ledger(work).failed == 0

    good = work.done
    first = good[0][0]
    top = max(e[2] for e in good if e[0] == first)
    # an entry that is not its model's largest x, so that a CDF value of 2 is a drop
    i = next(i for i, e in enumerate(good) if e[0] == first and e[2] < top)
    name, p, x, alpha, y, (sol, cdf, q, u) = good[i]
    for out in ((sol, cdf, q + 0.05, u),        # quantile does not invert the CDF
                (sol, cdf, q, u * 1.001 + 1e-3),  # omega does not invert phi
                (sol, 2.0, q, u)):               # CDF decreases between sorted points
        work.done = good[:i] + [(name, p, x, alpha, y, out)] + good[i + 1:]
        assert _ledger(work).wrong == 1

    work.done = good[:i] + [(name, p, x, alpha, y, RuntimeError("no convergence"))] \
        + good[i + 1:]
    ledger = _ledger(work)
    assert ledger.failed == 1 and ledger.wrong == 0


def test_lookups_keep_clear_of_support_edges():
    work = worker.Queries(seed=5, size_name="tiny", session=0)
    work.setup()
    for name, segs in work.segments.items():
        edges = [e for iv in work.sups[name].intervals for e in iv]
        for u in (0.0, 0.25, 0.5, 0.999999, 1.0):
            x = worker.segment_point(segs, u)
            assert edges[0] < x < edges[-1]
            assert min(abs(x - e) for e in edges) >= worker.EDGE_MARGIN * (1 - 1e-12)
