"""Tests for the command-line front end: schemas, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ipn import cli, simulate, spikes
from ipn.errors import ConvergenceError
from ipn.spikes import SpikeSpec

from conftest import MODEL_D1_C1, die_in_worker


def run_cli(args):
    return cli.run(args)


def count_samples(monkeypatch) -> list[list[int]]:
    """Record every run_trials call, with the trial indices it returns.

    ``run_trials`` is the one sampling path; its trials run in spawned
    workers, which a patch in this process does not reach.  A call is
    recorded before it samples, so one that raises still shows.
    """
    calls: list[list[int]] = []
    real = simulate.run_trials

    def counting(cfg):
        trials: list[int] = []
        calls.append(trials)
        samples = real(cfg)
        trials.extend(s.trial_index for s in samples)
        return samples
    monkeypatch.setattr(simulate, "run_trials", counting)
    return calls


def _sample_with_failing_eigensolver(cfg, trial, d):
    """Stands in for ``simulate._sample_trial`` in the pool workers: the
    worker's own Gram eigenvalue kernel fails, then the real trial runs."""
    def boom(Y):
        raise np.linalg.LinAlgError("did not converge")
    simulate._gram_eigenvalues = boom  # the worker exits with run_trials
    return simulate._sample_trial(cfg, trial, d)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


SMALL_MODEL = ["--sigma", "1", "--c", "1", "--nu", '{"atoms":[{"w":1,"t":1}]}']


def small_config(tmp_path, **overrides):
    cfg = {
        "model": {"sigma": 1.0, "c": 1.0,
                  "nu": {"atoms": [{"w": 1.0, "t": 1.0}], "segments": []}},
        "sim": {"n": 250, "N": 250, "entry_dist": "complex-gaussian",
                "seed": 3, "trials": 3},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_support_command_schema(tmp_path, capsys):
    out = tmp_path / "support.json"
    code = run_cli(["support", *SMALL_MODEL, "--output", str(out),
                    "--no-timestamp"])
    assert code == 0
    report = read_json(str(out))
    result = report["result"]
    assert result["intervals"][0][0] == pytest.approx(0.0, abs=1e-9)
    assert result["intervals"][0][1] == pytest.approx(6.75, abs=1e-8)
    assert result["zero_in_support"] is True
    assert set(result["boundaries"]) == {"u", "v"}


def test_spikes_command_record(tmp_path):
    out = tmp_path / "spikes.json"
    code = run_cli(["spikes", *SMALL_MODEL, "--theta", "4",
                    "--output", str(out), "--no-timestamp"])
    assert code == 0
    [rec] = read_json(str(out))["result"]
    assert rec["case"] == "OUTLIER"
    assert rec["limit"] == pytest.approx(7.1111, abs=1e-3)
    assert rec["ranks"] == [1, 1]


def test_malformed_measure_exits_one(capsys):
    code = run_cli(["support", "--sigma", "1", "--c", "1",
                    "--nu", '{"atoms":[{"w":0.9,"t":1}]}'])
    assert code == 1
    assert "validation error" in capsys.readouterr().err


def test_nan_sigma_exits_one(monkeypatch, capsys):
    # every command rejects a NaN or zero sigma alike, while building its inputs
    calls = count_samples(monkeypatch)
    sim = ["--n", "4", "--N", "8"]
    for command in (["support"], ["density"], ["spikes"], ["simulate", *sim],
                    ["separation", *sim, "--gap", "2", "4"], ["verify-all", *sim]):
        for sigma in ("nan", "0"):
            code = run_cli([*command, "--sigma", sigma, "--c", "1",
                            "--nu", '{"atoms":[{"w":1,"t":1}]}'])
            assert (command[0], sigma, code) == (command[0], sigma, 1)
            assert capsys.readouterr().err == (
                f"validation error: sigma must be finite and positive, "
                f"got {float(sigma)!r}\n")
    assert calls == []


@pytest.mark.parametrize("section, field, bad", [
    ("sim", "n", float("inf")), ("sim", "trials", 2.5),
    ("spikes", "multiplicities", [float("inf")]), ("sim", "n", 20.5),
    ("sim", "n", [20])],
    ids=["n", "trials", "mult", "n_fraction", "n_list"])
def test_non_integral_config_integer_exits_one(tmp_path, capsys, section,
                                               field, bad):
    data = read_json(small_config(tmp_path, spikes={"thetas": [4.0],
                                                    "multiplicities": [1]}))
    data[section][field] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # inf is written as Infinity
    # spikes reads no trials; it ranks against sim.n
    commands = ["simulate"] if field == "trials" else ["simulate", "spikes"]
    for command in commands:
        assert run_cli([command, "--config", str(path)]) == 1  # nothing raised
        assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize("gap", [[2.0], [6.76, 6.8, 99.0]], ids=["one", "three"])
def test_separation_gap_of_two_numbers(tmp_path, monkeypatch, capsys, gap):
    calls = count_samples(monkeypatch)
    cfg = small_config(tmp_path, separation={"gap": gap})
    assert run_cli(["separation", "--config", cfg]) == 1  # nothing raised
    assert capsys.readouterr().err.startswith(
        "validation error: separation.gap must be two numbers")
    assert calls == []


@pytest.mark.parametrize("checks", [
    {"ks_treshold": 0.03}, {"ks_threshold": "0.03"}, {"ks_threshold": True},
    {"mass_tolerance": float("nan")}], ids=["misspelt", "string", "bool", "nan"])
def test_bad_checks_exit_one_before_sampling(tmp_path, monkeypatch, capsys,
                                             checks):
    calls = count_samples(monkeypatch)
    cfg = small_config(tmp_path, checks=checks)
    assert run_cli(["verify-all", "--config", cfg]) == 1  # nothing raised
    assert capsys.readouterr().err.startswith("validation error: ")
    assert calls == []


def test_unknown_flag_exits_one():
    assert run_cli(["support", "--bogus"]) == 1


def test_zero_trials_exits_one(tmp_path):
    cfg = small_config(tmp_path)
    data = read_json(cfg)
    data["sim"]["trials"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli(["simulate", "--config", str(path)]) == 1


def test_missing_model_field_exits_one():
    assert run_cli(["support", "--sigma", "1", "--c", "1"]) == 1


def test_atom_without_weight_exits_one(tmp_path, capsys):
    cfg = small_config(tmp_path, model={"sigma": 1.0, "c": 1.0,
                                        "nu": {"atoms": [{"t": 1.0}]}})
    assert run_cli(["support", "--config", cfg]) == 1
    assert "validation error" in capsys.readouterr().err


def test_convergence_error_exits_two(monkeypatch):
    def boom(model):
        raise ConvergenceError("forced")
    monkeypatch.setattr(cli.subordination, "support", boom)
    assert run_cli(["support", *SMALL_MODEL]) == 2


def test_library_key_error_is_not_a_config_error(monkeypatch, capsys):
    # only reading the config and building inputs turn KeyError into exit 1
    def boom(model):
        raise KeyError("sigma")
    monkeypatch.setattr(cli.subordination, "support", boom)
    with pytest.raises(KeyError):
        run_cli(["support", *SMALL_MODEL])
    assert "malformed config" not in capsys.readouterr().err


def test_failed_decomposition_exits_two(tmp_path, monkeypatch, capsys):
    # the LinAlgError is raised inside a spawned worker, on the pool path
    # every command samples through
    monkeypatch.setattr(simulate, "_sample_trial", _sample_with_failing_eigensolver)
    code = run_cli(["simulate", "--config", small_config(tmp_path),
                    "--n", "8", "--N", "8", "--output", str(tmp_path / "t.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "convergence error" in err and "Traceback" not in err
    assert "trial 0" in err


def test_dead_worker_exits_four(tmp_path, monkeypatch, capsys):
    # a killed worker is neither bad input (1) nor a convergence failure (2)
    monkeypatch.setattr(simulate, "_sample_trial", die_in_worker)
    code = run_cli(["simulate", "--config", small_config(tmp_path),
                    "--n", "8", "--N", "8", "--output", str(tmp_path / "t.jsonl")])
    assert code == 4
    err = capsys.readouterr().err
    assert "sampling worker died" in err and "Traceback" not in err


def test_density_csv_output(tmp_path):
    out = tmp_path / "density.csv"
    code = run_cli(["density", *SMALL_MODEL, "--points", "24",
                    "--format", "csv", "--output", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert all(len(r.split(",")) == 2 for r in rows)  # headerless two-column
    code = run_cli(["density", *SMALL_MODEL, "--points", "24",
                    "--format", "csv", "--header", "--output", str(out)])
    assert out.read_text().splitlines()[0] == "x,f"


def test_format_belongs_to_density(tmp_path, capsys):
    assert run_cli(["support", *SMALL_MODEL, "--format", "csv"]) == 1
    assert run_cli(["spikes", *SMALL_MODEL, "--theta", "4", "--header"]) == 1
    cfg = small_config(tmp_path, output={"format": "csv"})
    capsys.readouterr()
    assert run_cli(["support", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "validation error" in captured.err and captured.out == ""


def test_density_json_round_trips(tmp_path):
    out = tmp_path / "density.json"
    code = run_cli(["density", *SMALL_MODEL, "--points", "16",
                    "--output", str(out), "--no-timestamp"])
    assert code == 0
    report = read_json(str(out))
    assert len(report["result"]["xs"]) == len(report["result"]["fs"])


def test_density_points_below_one_exits_one(tmp_path, capsys):
    # 0 must be rejected, not replaced by the default grid size
    out = tmp_path / "density.json"
    for points in ("0", "-3"):
        assert run_cli(["density", *SMALL_MODEL, "--points", points,
                        "--output", str(out)]) == 1
        assert "--points must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_emits_json_lines(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "trials.jsonl"
    code = run_cli(["simulate", "--config", cfg, "--trials", "2",
                    "--n", "50", "--N", "50", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    recs = [json.loads(line) for line in lines]
    assert [r["trial"] for r in recs] == [0, 1]


def test_separation_command(tmp_path):
    cfg = small_config(tmp_path, model={
        "sigma": 1.0, "c": 0.5,
        "nu": {"atoms": [{"w": 0.5, "t": 1.0}, {"w": 0.5, "t": 5.0}],
               "segments": []}})
    out = tmp_path / "sep.json"
    code = run_cli(["separation", "--config", cfg, "--n", "200", "--N", "400",
                    "--gap", "3.37", "3.46", "--output", str(out),
                    "--no-timestamp"])
    assert code == 0
    (rep,) = read_json(str(out))["result"]
    assert rep["i_N"] == 100
    assert rep["a_count_ok"] is True
    assert rep["pass_fraction"] >= 0.95


def test_separation_without_gap_checks_every_bounded_piece(tmp_path):
    cfg = small_config(tmp_path, model={
        "sigma": 1.0, "c": 0.5,
        "nu": {"atoms": [{"w": 0.5, "t": 1.0}, {"w": 0.5, "t": 5.0}],
               "segments": []}})
    size = ["--n", "60", "--N", "120", "--trials", "2", "--no-timestamp"]
    out = tmp_path / "sep.json"
    assert run_cli(["separation", "--config", cfg, *size,
                    "--output", str(out)]) == 0
    left, inner = read_json(str(out))["result"]
    assert left["i_N"] == 60 and inner["i_N"] == 30
    assert left["gap"][1] < inner["gap"][0]

    out = tmp_path / "verify.json"
    run_cli(["verify-all", "--config", cfg, *size, "--output", str(out)])
    sep = next(c for c in read_json(str(out))["checks"]
               if c["name"] == "separation")
    assert sep["gap"] == inner["gap"]


def test_gap_inside_support_exits_one_before_sampling(tmp_path, monkeypatch):
    calls = count_samples(monkeypatch)
    cfg = small_config(tmp_path)
    for command in ("separation", "verify-all"):
        assert run_cli([command, "--config", cfg, "--gap", "1.0", "2.0",
                        "--output", str(tmp_path / "out.json")]) == 1
    assert calls == []


def test_verify_all_samples_each_trial_once(tmp_path, monkeypatch):
    calls = count_samples(monkeypatch)
    out = tmp_path / "verify.json"
    run_cli(["verify-all", "--config", small_config(tmp_path),
             "--gap", "6.76", "6.8", "--output", str(out), "--no-timestamp"])
    sep = next(c for c in read_json(str(out))["checks"]
               if c["name"] == "separation")
    assert sep["status"] != "skipped"
    assert calls == [[0, 1, 2]]  # separation, outlier and KS share the samples


def test_verify_all_small_passes(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "verify.json"
    code = run_cli(["verify-all", "--config", cfg, "--output", str(out),
                    "--no-timestamp"])
    assert code == 0
    report = read_json(str(out))
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {"inverse_pair", "subordination_chain", "mass_equality",
                     "separation", "outlier", "ks"}


def test_verify_all_failure_exits_three(tmp_path):
    cfg = small_config(tmp_path, checks={"ks_threshold": 1e-9})
    out = tmp_path / "verify.json"
    code = run_cli(["verify-all", "--config", cfg, "--output", str(out),
                    "--no-timestamp"])
    assert code == 3
    report = read_json(str(out))
    assert report["all_pass"] is False
    ks = next(c for c in report["checks"] if c["name"] == "ks")
    assert ks["status"] == "fail"


def test_verify_all_reports_are_reproducible(tmp_path):
    cfg = small_config(tmp_path)
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert run_cli(["verify-all", "--config", cfg, "--output", str(out1),
                    "--no-timestamp"]) == 0
    assert run_cli(["verify-all", "--config", cfg, "--output", str(out2),
                    "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spike_ranks_agree_across_commands(tmp_path):
    # sqrt(2)**2 > 2, so ranks counted from squared diagonal entries of A
    # would put the theta = 2 packet at rank 3; the theta = 0.25 packet lies
    # below the bulk, so its rank is the matrix size sim.n, whether --n or
    # the config alone sets it
    spec = SpikeSpec((4.0, 2.0, 0.25), (1, 1, 1))
    signal = spikes.signal_eigenvalues(MODEL_D1_C1, spec, 200)
    expected = [1 + int(np.sum(signal > t)) for t in spec.thetas]
    assert expected == [1, 2, 200]

    def ranks(cfg, spikes_flags, verify_flags):
        out = tmp_path / "spikes.json"
        assert run_cli(["spikes", "--config", cfg, *spikes_flags,
                        "--output", str(out), "--no-timestamp"]) == 0
        from_spikes = [r["ranks"][0] for r in read_json(str(out))["result"]]
        out = tmp_path / "verify.json"
        run_cli(["verify-all", "--config", cfg, *verify_flags,
                 "--output", str(out), "--no-timestamp"])
        outlier = next(c for c in read_json(str(out))["checks"]
                       if c["name"] == "outlier")
        return from_spikes, [row["rank"] for row in outlier["spikes"]]

    cfg = small_config(tmp_path, spikes=spec.to_dict())  # sim.n = 250
    assert ranks(cfg, ["--n", "200"],
                 ["--n", "200", "--N", "200"]) == (expected, expected)
    cfg = small_config(tmp_path, spikes=spec.to_dict(),
                       sim={"n": 200, "N": 200, "seed": 3, "trials": 3})
    assert ranks(cfg, [], []) == (expected, expected)


def test_timestamp_present_by_default(tmp_path):
    out = tmp_path / "support.json"
    assert run_cli(["support", *SMALL_MODEL, "--output", str(out)]) == 0
    assert "generated_at" in read_json(str(out))


def test_flags_override_config(tmp_path):
    from_config = tmp_path / "from_config.json"
    cfg = small_config(tmp_path, separation={"gap": [6.76, 6.8]},
                       output={"path": str(from_config)})
    out = tmp_path / "support.json"
    code = run_cli(["support", "--config", cfg, "--sigma", "1", "--c", "1",
                    "--nu", '{"atoms":[{"w":1,"t":2}]}',
                    "--output", str(out), "--no-timestamp"])
    assert code == 0
    report = read_json(str(out))
    assert report["model"]["nu"]["atoms"][0]["t"] == 2.0
    assert report["result"]["zero_in_support"] is False

    size = ["--n", "20", "--N", "20", "--trials", "1", "--no-timestamp"]
    out = tmp_path / "trials.jsonl"
    assert run_cli(["simulate", "--config", cfg, *size, "--seed", "11",
                    "--output", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 11  # the config says 3

    out = tmp_path / "sep.json"
    assert run_cli(["separation", "--config", cfg, *size, "--gap", "6.77", "6.79",
                    "--output", str(out)]) == 0
    (rep,) = read_json(str(out))["result"]
    assert rep["gap"] == [6.77, 6.79]
    assert not from_config.exists()  # every --output beat the config's path


def test_mult_alone_overrides_config_multiplicities(tmp_path):
    cfg = small_config(tmp_path, spikes={"thetas": [4.0], "multiplicities": [1]})
    out = tmp_path / "spikes.json"
    assert run_cli(["spikes", "--config", cfg, "--mult", "2",
                    "--output", str(out), "--no-timestamp"]) == 0
    [rec] = read_json(str(out))["result"]
    assert rec["ranks"] == [1, 2]
    assert run_cli(["spikes", "--config", cfg, "--mult", "1", "--mult", "1"]) == 1


def test_support_runs_without_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from ipn import cli\n"
            "rc = cli.run(['support', '--config', 'configs/reference_a.json',"
            " '--no-timestamp'])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))\n")
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
