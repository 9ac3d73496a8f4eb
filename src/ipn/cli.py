"""Command-line front end: configs in, machine-readable reports out.

Commands: support | density | spikes | simulate | separation | verify-all.
A JSON config file is the source of record; flags override its fields.
Each flag overrides exactly one config field, as ``FLAG_FIELDS`` lists.
``separation`` checks the given gap, or without one the middle window of
every bounded piece of ``simulate.separation_gaps``.
Exit codes: 0 success, 1 validation error, 2 convergence error, 3 failed
verification assertion, 4 a sampling worker died.  The checks themselves
live in ``simulate``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import measure, simulate, spikes as spikes_mod, stieltjes, subordination
from .errors import AmbiguousSpike, ConvergenceError, DomainError, PreconditionError
from .simulate import SimConfig, verify_all
from .spikes import SpikeSpec
from .subordination import ModelParams

# argparse dest -> (config section, field) that the flag overrides
FLAG_FIELDS = {
    "sigma": ("model", "sigma"), "c": ("model", "c"), "nu": ("model", "nu"),
    "theta": ("spikes", "thetas"), "mult": ("spikes", "multiplicities"),
    "n": ("sim", "n"), "big_n": ("sim", "N"), "entry_dist": ("sim", "entry_dist"),
    "seed": ("sim", "seed"), "trials": ("sim", "trials"),
    "gap": ("separation", "gap"),
    "output": ("output", "path"), "format": ("output", "format"),
}


def _config(args: argparse.Namespace) -> dict:
    """Copies of the config's sections, each given flag merged in; format checked."""
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    cfg = {section: dict(data.get(section, {}))
           for section in ("model", "spikes", "sim", "separation", "checks", "output")}
    given = {dest: value for dest, value in vars(args).items()
             if dest in FLAG_FIELDS and value is not None}
    if "theta" in given:  # a --theta without --mult has multiplicity 1
        given.setdefault("mult", [1] * len(given["theta"]))
        if len(given["mult"]) != len(given["theta"]):
            raise ValueError("--mult must be given once per --theta")
    for dest, value in given.items():
        section, key = FLAG_FIELDS[dest]
        cfg[section][key] = json.loads(value) if dest == "nu" else value
    fmt = cfg["output"].get("format", "json")
    formats = ("json", "csv") if args.command == "density" else ("json",)
    if fmt not in formats:
        raise ValueError(f"{args.command} writes {' or '.join(formats)}, "
                         f"not {fmt!r}")
    return cfg


def _model(cfg: dict) -> ModelParams:
    fields = cfg["model"]
    for key in ("sigma", "c", "nu"):
        if key not in fields:
            raise ValueError(f"model field {key!r} missing (use --{key} or a config file)")
    return ModelParams.from_dict(fields)


def _spikes(cfg: dict) -> SpikeSpec:
    return SpikeSpec.from_dict(cfg["spikes"])


def _sim(cfg: dict) -> SimConfig:
    """The experiment; ``trials`` defaults to 10 here (SimConfig's is 1)."""
    model, spikes = _model(cfg), _spikes(cfg)
    fields = cfg["sim"]
    for key in ("n", "N"):
        if key not in fields:
            raise ValueError(f"sim field {key!r} missing (use --n/--N or a config file)")
    return SimConfig(n=fields["n"], N=fields["N"], model=model,
                     entry_dist=fields.get("entry_dist", "complex-gaussian"),
                     spikes=spikes, seed=fields.get("seed", 0),
                     trials=fields.get("trials", 10))


def _rank_size(cfg: dict) -> int | None:
    """``sim.n``, the matrix size verify-all ranks spikes against, if given."""
    n = cfg["sim"].get("n")
    return None if n is None else measure.as_int("n", n)


def _gap(cfg: dict) -> tuple[float, float] | None:
    raw = cfg["separation"]
    if "gap" not in raw:
        return None
    if len(raw["gap"]) != 2:
        raise ValueError(f"separation.gap must be two numbers A B, got {raw['gap']!r}")
    return (measure.as_real("separation.gap", raw["gap"][0]),
            measure.as_real("separation.gap", raw["gap"][1]))


def _jsonable(obj):
    """Replace non-JSON floats so reports stay strictly parseable."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(text: str, cfg: dict) -> None:
    path = cfg["output"].get("path", "-")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_report(report: dict, args: argparse.Namespace, cfg: dict) -> None:
    if not args.no_timestamp:
        report = dict(report)
        report["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    _emit(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n", cfg)


# Commands: each takes the inputs its builders made (see build_parser).

def _cmd_support(args: argparse.Namespace, cfg: dict, model: ModelParams) -> int:
    sup = subordination.support(model)
    _emit_report({"command": "support", "model": model.to_dict(),
                  "result": sup.to_dict()}, args, cfg)
    return 0


def _cmd_density(args: argparse.Namespace, cfg: dict, model: ModelParams) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    sup = subordination.support(model)
    xs = np.linspace(sup.intervals[0][0], sup.intervals[-1][1], args.points)
    grid = stieltjes.density(model, [float(x) for x in xs])
    if cfg["output"].get("format") == "csv":
        lines = []
        if args.header:
            lines.append("x,f")
        lines.extend(f"{x!r},{f!r}" for x, f in zip(grid.xs, grid.fs))
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit_report({"command": "density", "model": model.to_dict(),
                      "result": {"xs": list(grid.xs), "fs": list(grid.fs),
                                 "eps_used": grid.eps_used}}, args, cfg)
    return 0


def _cmd_spikes(args: argparse.Namespace, cfg: dict, model: ModelParams,
                spec: SpikeSpec, n: int | None) -> int:
    outcomes = spikes_mod.classify(model, spec)
    ranks = spikes_mod.spike_ranks(model, spec, n)
    records = [{**outcome.to_dict(), "ranks": [start, start + k - 1]}
               for outcome, k, start in zip(outcomes, spec.multiplicities, ranks)]
    _emit_report({"command": "spikes", "model": model.to_dict(),
                  "result": records}, args, cfg)
    return 0


def _cmd_simulate(args: argparse.Namespace, cfg: dict, sim: SimConfig) -> int:
    samples = simulate.run_trials(sim)
    lines = []
    for s in samples:
        ev = [float(x) for x in s.eigenvalues]
        rec: dict = {"trial": s.trial_index, "seed": sim.seed}
        if args.full:
            rec["eigenvalues"] = ev
        else:
            rec["top"] = ev[:10]
            rec["bottom"] = ev[-3:]
        lines.append(json.dumps(_jsonable(rec), sort_keys=True))
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def _cmd_separation(args: argparse.Namespace, cfg: dict, sim: SimConfig,
                    gap: tuple[float, float] | None) -> int:
    if gap is not None:
        windows = [gap]
    else:
        windows = [simulate.middle_window(piece)
                   for piece in simulate.separation_gaps(sim.model, sim.spikes)
                   if math.isfinite(piece[1])]
        if not windows:
            raise ValueError("the support has no bounded gap; give --gap A B")
    for window in windows:
        simulate.omega_gap(sim.model, window)  # reject a bad gap before sampling
    samples = simulate.run_trials(sim)
    _emit_report({"command": "separation", "model": sim.model.to_dict(),
                  "result": [simulate.verify_separation(sim, window, samples).to_dict()
                             for window in windows]}, args, cfg)
    return 0


def _cmd_verify_all(args: argparse.Namespace, cfg: dict, sim: SimConfig,
                    gap: tuple[float, float] | None) -> int:
    report = verify_all(sim, gap, cfg["checks"])
    for row in report["checks"]:
        print(f"{row['status'].upper():7s} {row['name']}", file=sys.stderr)
    _emit_report({"command": "verify-all", **report}, args, cfg)
    return 0 if report["all_pass"] else 3


# Parser and entry point.

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are validation errors
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (source of record)")
    common.add_argument("--sigma", type=float, help="noise scale")
    common.add_argument("--c", type=float, help="dimension ratio in (0, 1]")
    common.add_argument("--nu", help='measure JSON, e.g. {"atoms":[{"w":1,"t":1}]}')
    common.add_argument("--output", help="output path (default stdout)")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reruns")

    spike = argparse.ArgumentParser(add_help=False)
    spike.add_argument("--theta", type=float, action="append")
    spike.add_argument("--mult", type=int, action="append")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--n", type=int)
    sim.add_argument("--N", dest="big_n", type=int)
    sim.add_argument("--entry-dist", choices=simulate.ENTRY_DISTS)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--trials", type=int)

    gap = argparse.ArgumentParser(add_help=False)
    gap.add_argument("--gap", type=float, nargs=2, metavar=("A", "B"))

    parser = _Parser(prog="ipn",
                     description="Spectral analysis of information-plus-noise models")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, builds, *parents):
        sp = sub.add_parser(name, parents=[common, *parents], help=summary)
        sp.set_defaults(func=func, builds=builds)
        return sp

    command("support", "support intervals of the limit law", _cmd_support, (_model,))

    sp = command("density", "density grid of the limit law", _cmd_density, (_model,))
    sp.add_argument("--points", type=int, default=400)
    sp.add_argument("--format", choices=("json", "csv"))
    sp.add_argument("--header", action="store_true", help="CSV column header")

    sp = command("spikes", "classify spikes and predict limits", _cmd_spikes,
                 (_model, _spikes, _rank_size), spike)
    sp.add_argument("--n", type=int, help="matrix size for rank resolution")

    sp = command("simulate", "sample eigenvalues (JSON lines)", _cmd_simulate,
                 (_sim,), sim, spike)
    sp.add_argument("--full", action="store_true",
                    help="emit all eigenvalues per trial")

    command("separation", "exact-separation Monte Carlo check", _cmd_separation,
            (_sim, _gap), sim, spike, gap)
    command("verify-all", "consolidated verification suite", _cmd_verify_all,
            (_sim, _gap), sim, spike, gap)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute the command, and return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:  # only reading the config and building inputs: a library bug propagates
            cfg = _config(args)
            inputs = [build(cfg) for build in args.builds]
        except (KeyError, TypeError) as exc:  # a config field missing or mistyped
            raise ValueError(f"malformed config: {exc}") from exc
        return args.func(args, cfg, *inputs)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, AmbiguousSpike, ValueError,
            OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # run_trials has loaded the pool module by the time one of its workers dies
        from concurrent.futures.process import BrokenProcessPool
        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"sampling worker died: {exc}", file=sys.stderr)
        return 4


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
