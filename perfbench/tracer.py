"""Out-of-tree tracing of the ipn layers.

``Tracer.install()`` replaces public functions of the ipn modules (and the
dense decompositions of numpy/scipy) with wrappers, without editing the
package.  Coarse layer calls become spans (name, start, end, parent span,
self time); point functions that run thousands of times per workload are
aggregated per name (calls, total time, self time); the innermost transform
``measure.g_nu`` is only counted, so its wrapper does not swamp what it
measures.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, trace name, kind); kind "span" keeps every call as a
# span record, "agg" folds calls into per-name totals.
TIMED = (
    ("subordination", "admissible_set", "subordination.admissible_set", "span"),
    ("subordination", "support", "subordination.support", "agg"),
    ("subordination", "omega", "subordination.omega", "agg"),
    ("stieltjes", "solve_g", "stieltjes.solve_g", "agg"),
    ("stieltjes", "density", "stieltjes.density", "span"),
    ("stieltjes", "cdf_mu", "stieltjes.cdf_mu", "agg"),
    ("stieltjes", "quantile_mu", "stieltjes.quantile_mu", "agg"),
    ("spikes", "classify", "spikes.classify", "span"),
    ("simulate", "build_A", "simulate.build_A", "span"),
    ("simulate", "sample_eigenvalues", "simulate.sample_eigenvalues", "span"),
    ("cli", "verify_all", "cli.verify_all", "span"),
    ("cli", "run", "cli.run", "span"),
)

# Dense decompositions that may carry the eigenvalue step of sampling.
DECOMPOSITIONS = (
    ("numpy.linalg", ("svd", "eigvalsh", "eigh", "eigvals", "eig")),
    ("scipy.linalg", ("svd", "svdvals", "eigvalsh", "eigh", "eigvals", "eig")),
)

# The CDF tables are built by the first ``_cdf_data`` call for each model.
TABLES = ("stieltjes", "_cdf_data", "stieltjes.tables")


class Tracer:
    """Spans, per-name timing totals and counters for one process."""

    def __init__(self) -> None:
        self.spans: list = []           # [name, start, end, parent, self_s]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.cells: dict[str, list[int]] = {}  # counted-only calls, points
        self.trials: set = set()
        self.missing: list[str] = []
        self._stack: list[list] = []    # open frames: [child_s, span_id]

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, keep_span: bool, on_result=None):
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep_span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self_s = dur - frame[0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += self_s
                if keep_span:
                    spans[sid] = [name, t0, t1, parent, self_s]
            if on_result is not None:
                on_result(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        cell = self.cells.setdefault(name, [0, 0])  # calls, points
        scalars = frozenset((float, complex, int))

        def wrapper(m, z, *args, **kwargs):
            cell[0] += 1
            cell[1] += 1 if z.__class__ in scalars else _size(z)
            return fn(m, z, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def first_call_per_model(self, name: str, fn):
        seen: set = set()
        timed = self.timed(name, fn, keep_span=True)

        def wrapper(p, *args, **kwargs):
            if p in seen:
                return fn(p, *args, **kwargs)
            out = timed(p, *args, **kwargs)
            seen.add(p)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks on results ----------------------------------------------------

    def _solve_g_done(self, args, out) -> None:
        self.counts["stieltjes.solve_g.iterations"] += out.iterations

    def _density_done(self, args, out) -> None:
        fs = out.fs
        self.counts["stieltjes.density.points"] += len(fs)
        self.counts["stieltjes.density.nan_points"] += sum(1 for f in fs if f != f)

    def _sample_done(self, args, out) -> None:
        cfg = args[0]
        self.trials.add((cfg.seed, out.trial_index))

    def _decompose_done(self, args, out) -> None:
        self.counts["simulate.decompose.bytes_in"] += int(getattr(args[0], "nbytes", 0))

    # -- installation ---------------------------------------------------------

    def install_decompositions(self) -> None:
        """Wrap numpy/scipy decompositions; call before ipn is imported so
        that names ipn imports from them are bound to the wrappers."""
        import importlib

        for modname, names in DECOMPOSITIONS:
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                setattr(mod, attr, self.timed("simulate.decompose", fn, True,
                                              self._decompose_done))

    def install(self) -> None:
        """Wrap the ipn layer functions listed above (ipn must be importable)."""
        import importlib

        mods = {m: importlib.import_module("ipn." + m)
                for m in ("measure", "subordination", "stieltjes", "spikes",
                          "simulate", "cli")}
        hooks = {"stieltjes.solve_g": self._solve_g_done,
                 "stieltjes.density": self._density_done,
                 "simulate.sample_eigenvalues": self._sample_done}
        table_mod, table_attr, table_name = TABLES
        targets = [("measure", "g_nu", lambda fn: self.counted("measure.g_nu", fn)),
                   (table_mod, table_attr,
                    lambda fn: self.first_call_per_model(table_name, fn))]
        for modname, attr, name, kind in TIMED:
            targets.append((modname, attr, lambda fn, name=name, kind=kind:
                            self.timed(name, fn, kind == "span", hooks.get(name))))
        for modname, attr, make in targets:
            fn = getattr(mods[modname], attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
            else:
                _rebind(fn, make(fn))

    # -- results ----------------------------------------------------------------

    def dump(self) -> dict:
        """A snapshot of everything recorded so far."""
        return {"spans": list(self.spans),
                "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "counts": {**self.counts,
                           **{f"{k}.calls": v[0] for k, v in self.cells.items()},
                           **{f"{k}.points": v[1] for k, v in self.cells.items()}},
                "distinct_trials": len(self.trials),
                "missing": list(self.missing)}


def _size(z) -> int:
    size = getattr(z, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(z)
    except TypeError:
        return 1


def _rebind(original, wrapper) -> None:
    """Point every ipn module global bound to ``original`` at ``wrapper``.

    Covers both module-attribute calls (``measure.g_nu(...)``) and names a
    module imported directly (``from .measure import g_nu``).
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ipn" or modname.startswith("ipn.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
