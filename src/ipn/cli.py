"""Command-line front end: configs in, machine-readable reports out.

Commands: support | density | spikes | simulate | separation | verify-all.
A JSON config file is the source of record; flags override its fields.
``separation`` checks the given gap, or without one the middle window of
every bounded piece of ``simulate.separation_gaps``.
Exit codes: 0 success, 1 validation error, 2 convergence error, 3 failed
verification assertion.  The checks themselves live in ``simulate``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import simulate, spikes as spikes_mod, stieltjes, subordination
from .errors import AmbiguousSpike, ConvergenceError, DomainError, PreconditionError
from .simulate import SimConfig, verify_all
from .spikes import SpikeSpec
from .subordination import ModelParams


@dataclass
class OutputSpec:
    path: str = "-"
    fmt: str = "json"
    timestamp: bool = True
    header: bool = False


@dataclass
class RunConfig:
    """Fully validated bundle for one command invocation."""

    command: str
    model: ModelParams
    output: OutputSpec
    spikes: SpikeSpec = field(default_factory=SpikeSpec)
    sim: SimConfig | None = None
    gap: tuple[float, float] | None = None
    checks: dict = field(default_factory=dict)
    density_points: int = 400
    spikes_n: int | None = None
    full_eigenvalues: bool = False


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = _load_json(args.config) if getattr(args, "config", None) else {}

    model_cfg = dict(cfg.get("model", {}))
    if getattr(args, "sigma", None) is not None:
        model_cfg["sigma"] = args.sigma
    if getattr(args, "c", None) is not None:
        model_cfg["c"] = args.c
    if getattr(args, "nu", None) is not None:
        model_cfg["nu"] = json.loads(args.nu)
    for key in ("sigma", "c", "nu"):
        if key not in model_cfg:
            raise ValueError(f"model field {key!r} missing (use --{key} or a config file)")
    model = ModelParams.from_dict(model_cfg)

    spikes_cfg = cfg.get("spikes", {})
    thetas = getattr(args, "theta", None)
    if thetas:
        mults = getattr(args, "mult", None) or [1] * len(thetas)
        if len(mults) != len(thetas):
            raise ValueError("--mult must be given once per --theta")
        spike_spec = SpikeSpec(thetas=tuple(thetas), multiplicities=tuple(mults))
    else:
        spike_spec = SpikeSpec.from_dict(spikes_cfg) if spikes_cfg else SpikeSpec()

    sim_cfg = dict(cfg.get("sim", {}))
    for key in ("n", "N", "seed", "trials"):
        val = getattr(args, key if key != "N" else "big_n", None)
        if val is not None:
            sim_cfg[key] = val
    if getattr(args, "entry_dist", None) is not None:
        sim_cfg["entry_dist"] = args.entry_dist
    sim = None
    if args.command in ("simulate", "separation", "verify-all"):
        for key in ("n", "N"):
            if key not in sim_cfg:
                raise ValueError(f"sim field {key!r} missing (use --n/--N or a config file)")
        sim = SimConfig(n=sim_cfg["n"], N=sim_cfg["N"], model=model,
                        entry_dist=sim_cfg.get("entry_dist", "complex-gaussian"),
                        spikes=spike_spec, seed=sim_cfg.get("seed", 0),
                        trials=sim_cfg.get("trials", 10))

    gap = None
    if getattr(args, "gap", None) is not None:
        gap = (float(args.gap[0]), float(args.gap[1]))
    elif "separation" in cfg and "gap" in cfg["separation"]:
        raw = cfg["separation"]["gap"]
        gap = (float(raw[0]), float(raw[1]))

    checks = dict(cfg.get("checks", {}))

    output = OutputSpec(
        path=getattr(args, "output", None) or cfg.get("output", {}).get("path", "-"),
        fmt=getattr(args, "format", None) or cfg.get("output", {}).get("format", "json"),
        timestamp=not getattr(args, "no_timestamp", False),
        header=getattr(args, "header", False),
    )
    formats = ("json", "csv") if args.command == "density" else ("json",)
    if output.fmt not in formats:
        raise ValueError(f"{args.command} writes {' or '.join(formats)}, "
                         f"not {output.fmt!r}")
    points = getattr(args, "points", RunConfig.density_points)
    if points < 1:
        raise ValueError(f"--points must be at least 1, got {points}")
    return RunConfig(command=args.command, model=model, output=output,
                     spikes=spike_spec, sim=sim, gap=gap, checks=checks,
                     density_points=points,
                     spikes_n=getattr(args, "n", None),
                     full_eigenvalues=getattr(args, "full", False))


def _jsonable(obj):
    """Replace non-JSON floats so reports stay strictly parseable."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(text: str, out: OutputSpec) -> None:
    if out.path == "-":
        sys.stdout.write(text)
    else:
        with open(out.path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_report(report: dict, out: OutputSpec) -> None:
    if out.timestamp:
        report = dict(report)
        report["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    _emit(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_support(rc: RunConfig) -> int:
    sup = subordination.support(rc.model)
    _emit_report({"command": "support", "model": rc.model.to_dict(),
                  "result": sup.to_dict()}, rc.output)
    return 0


def _cmd_density(rc: RunConfig) -> int:
    sup = subordination.support(rc.model)
    lo = sup.intervals[0][0]
    hi = sup.intervals[-1][1]
    xs = np.linspace(lo, hi, rc.density_points)
    grid = stieltjes.density(rc.model, [float(x) for x in xs])
    if rc.output.fmt == "csv":
        lines = []
        if rc.output.header:
            lines.append("x,f")
        lines.extend(f"{x!r},{f!r}" for x, f in zip(grid.xs, grid.fs))
        _emit("\n".join(lines) + "\n", rc.output)
    else:
        _emit_report({"command": "density", "model": rc.model.to_dict(),
                      "result": {"xs": list(grid.xs), "fs": list(grid.fs),
                                 "eps_used": grid.eps_used}}, rc.output)
    return 0


def _cmd_spikes(rc: RunConfig) -> int:
    outcomes = spikes_mod.classify(rc.model, rc.spikes)
    ranks = spikes_mod.spike_ranks(rc.model, rc.spikes, rc.spikes_n)
    records = [{**outcome.to_dict(), "ranks": [start, start + k - 1]}
               for outcome, k, start in zip(outcomes, rc.spikes.multiplicities,
                                            ranks)]
    _emit_report({"command": "spikes", "model": rc.model.to_dict(),
                  "result": records}, rc.output)
    return 0


def _cmd_simulate(rc: RunConfig) -> int:
    samples = simulate.run_trials(rc.sim)
    lines = []
    for s in samples:
        ev = [float(x) for x in s.eigenvalues]
        rec: dict = {"trial": s.trial_index, "seed": s.seed_used}
        if rc.full_eigenvalues:
            rec["eigenvalues"] = ev
        else:
            rec["top"] = ev[:10]
            rec["bottom"] = ev[-3:]
        lines.append(json.dumps(_jsonable(rec), sort_keys=True))
    _emit("\n".join(lines) + "\n", rc.output)
    return 0


def _cmd_separation(rc: RunConfig) -> int:
    if rc.gap is not None:
        windows = [rc.gap]
    else:
        windows = [simulate.middle_window(piece)
                   for piece in simulate.separation_gaps(rc.model, rc.spikes)
                   if math.isfinite(piece[1])]
        if not windows:
            raise ValueError("the support has no bounded gap; give --gap A B")
    for gap in windows:
        simulate.omega_gap(rc.model, gap)  # reject a bad gap before sampling
    samples = simulate.run_trials(rc.sim)
    _emit_report({"command": "separation", "model": rc.model.to_dict(),
                  "result": [simulate.verify_separation(rc.sim, gap, samples).to_dict()
                             for gap in windows]}, rc.output)
    return 0


def _cmd_verify_all(rc: RunConfig) -> int:
    report = verify_all(rc.sim, rc.gap, rc.checks)
    for row in report["checks"]:
        print(f"{row['status'].upper():7s} {row['name']}", file=sys.stderr)
    _emit_report({"command": "verify-all", **report}, rc.output)
    return 0 if report["all_pass"] else 3


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are validation errors
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file (source of record)")
    sp.add_argument("--sigma", type=float, help="noise scale")
    sp.add_argument("--c", type=float, help="dimension ratio in (0, 1]")
    sp.add_argument("--nu", help='measure JSON, e.g. {"atoms":[{"w":1,"t":1}]}')
    sp.add_argument("--output", help="output path (default stdout)")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp for byte-identical reruns")


def _add_sim(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int)
    sp.add_argument("--N", dest="big_n", type=int)
    sp.add_argument("--entry-dist", choices=simulate.ENTRY_DISTS)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ipn",
                     description="Spectral analysis of information-plus-noise models")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("support", help="support intervals of the limit law")
    _add_common(sp)

    sp = sub.add_parser("density", help="density grid of the limit law")
    _add_common(sp)
    sp.add_argument("--points", type=int, default=RunConfig.density_points)
    sp.add_argument("--format", choices=("json", "csv"))
    sp.add_argument("--header", action="store_true", help="CSV column header")

    sp = sub.add_parser("spikes", help="classify spikes and predict limits")
    _add_common(sp)
    sp.add_argument("--theta", type=float, action="append")
    sp.add_argument("--mult", type=int, action="append")
    sp.add_argument("--n", type=int, help="matrix size for rank resolution")

    sp = sub.add_parser("simulate", help="sample eigenvalues (JSON lines)")
    _add_common(sp)
    _add_sim(sp)
    sp.add_argument("--theta", type=float, action="append")
    sp.add_argument("--mult", type=int, action="append")
    sp.add_argument("--full", action="store_true",
                    help="emit all eigenvalues per trial")

    sp = sub.add_parser("separation", help="exact-separation Monte Carlo check")
    _add_common(sp)
    _add_sim(sp)
    sp.add_argument("--theta", type=float, action="append")
    sp.add_argument("--mult", type=int, action="append")
    sp.add_argument("--gap", type=float, nargs=2, metavar=("A", "B"))

    sp = sub.add_parser("verify-all", help="consolidated verification suite")
    _add_common(sp)
    _add_sim(sp)
    sp.add_argument("--theta", type=float, action="append")
    sp.add_argument("--mult", type=int, action="append")
    sp.add_argument("--gap", type=float, nargs=2, metavar=("A", "B"))

    return parser


_DISPATCH = {
    "support": _cmd_support,
    "density": _cmd_density,
    "spikes": _cmd_spikes,
    "simulate": _cmd_simulate,
    "separation": _cmd_separation,
    "verify-all": _cmd_verify_all,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute the command, and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            rc = _resolve(args)
        except (KeyError, TypeError) as exc:  # a config field missing or mistyped
            raise ValueError(f"malformed config: {exc}") from exc
        return _DISPATCH[rc.command](rc)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, AmbiguousSpike, ValueError,
            OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
