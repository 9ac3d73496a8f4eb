"""Compactly supported probability measures on [0, inf) and their transforms.

A measure is a finite mixture of point masses ("atoms") and uniform densities
on closed segments.  This class is closed under everything the rest of the
package needs: the Stieltjes transform and its derivative have closed forms,
the support is a finite union of intervals, and CDF/quantile are piecewise
linear.  The scaled Marchenko-Pastur density is provided as the closed-form
special case used as an oracle in tests.

``g_nu`` and ``g_nu_prime`` take a complex scalar, a float or a real numpy
array (elementwise) through one body; only the log follows the input type
(``cmath.log``, ``math.log`` or ``np.log``).
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Absolute tolerance for weight normalization, support membership and
#: endpoint merging.  Evaluation closer to the support than this is rejected
#: as ill-conditioned.
ATOL = 1e-12


@dataclass(frozen=True)
class MeasureSpec:
    """Finite mixture of atoms and uniform segments on the nonnegative axis.

    atoms     tuple of (weight, location)
    segments  tuple of (weight, lo, hi); uniform density weight/(hi-lo)

    All numbers must be finite.  Weights must be positive and sum to one
    within ``ATOL``; locations and endpoints must be nonnegative; segments
    must have pairwise disjoint interiors and atoms may not sit strictly
    inside a segment.  The point mass at zero alone is rejected (the theory
    degenerates there).
    """

    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        atoms = tuple(sorted((float(w), float(t)) for w, t in self.atoms))
        atoms = tuple(sorted(atoms, key=lambda a: a[1]))
        segments = tuple(
            sorted(((float(w), float(lo), float(hi)) for w, lo, hi in self.segments),
                   key=lambda s: s[1])
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segments)

        weights = [w for w, _ in atoms] + [w for w, _, _ in segments]
        if not weights:
            raise ValueError("measure must have at least one atom or segment")
        if not all(math.isfinite(v) for item in atoms + segments for v in item):
            raise ValueError("weights, locations and endpoints must be finite")
        if any(w <= 0.0 for w in weights):
            raise ValueError("all weights must be positive")
        total = math.fsum(weights)
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"weights must sum to 1 within {ATOL}, got {total!r}")
        for _, t in atoms:
            if t < 0.0:
                raise ValueError("atom locations must be nonnegative")
        for _, lo, hi in segments:
            if lo < 0.0:
                raise ValueError("segment endpoints must be nonnegative")
            if hi <= lo:
                raise ValueError("segment must have hi > lo")
        for (_, _, hi_prev), (_, lo_next, _) in zip(segments, segments[1:]):
            if lo_next < hi_prev - ATOL:
                raise ValueError("segments must be pairwise disjoint")
        for _, t in atoms:
            for _, lo, hi in segments:
                if lo + ATOL < t < hi - ATOL:
                    raise ValueError("atoms may not lie in the interior of a segment")
        if not segments and len(atoms) == 1 and atoms[0][1] <= ATOL:
            raise ValueError("the point mass at zero alone is not admissible")

    @classmethod
    def point_mass(cls, location: float) -> "MeasureSpec":
        return cls(atoms=((1.0, float(location)),))

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureSpec":
        """Parse the JSON form {"atoms":[{"w":..,"t":..}],"segments":[{"w":..,"lo":..,"hi":..}]}."""
        atoms = tuple((a["w"], a["t"]) for a in data.get("atoms", ()))
        segments = tuple((s["w"], s["lo"], s["hi"]) for s in data.get("segments", ()))
        return cls(atoms=atoms, segments=segments)

    def to_dict(self) -> dict:
        return {
            "atoms": [{"w": w, "t": t} for w, t in self.atoms],
            "segments": [{"w": w, "lo": lo, "hi": hi} for w, lo, hi in self.segments],
        }


@dataclass(frozen=True)
class SupportComponents:
    """Ordered disjoint closed intervals: supp(nu) (``support_of``; atoms are
    degenerate intervals unless they merge within ``ATOL`` into a segment),
    the admissible-set complement (``subordination.AdmissibleSet``) or the
    support of the limit law (``subordination.SupportResult``).
    """

    intervals: tuple[tuple[float, float], ...]

    @property
    def min(self) -> float:
        return self.intervals[0][0]

    @property
    def max(self) -> float:
        return self.intervals[-1][1]

    def distance(self, x):
        """Euclidean distance from x to the support; elementwise for an array."""
        if isinstance(x, np.ndarray):
            return np.min([np.maximum(np.maximum(lo - x, x - hi), 0.0)
                           for lo, hi in self.intervals], axis=0)
        return min(max(lo - x, x - hi, 0.0) for lo, hi in self.intervals)

    def gaps(self) -> list[tuple[float, float]]:
        """Open intervals of the complement, including the two unbounded ones."""
        out = [(-math.inf, self.intervals[0][0])]
        for (_, hi_a), (lo_b, _) in zip(self.intervals, self.intervals[1:]):
            out.append((hi_a, lo_b))
        out.append((self.intervals[-1][1], math.inf))
        return out

    def interval_index(self, x: float) -> int | None:
        """Index into ``intervals`` of the one holding x; None in a gap."""
        k = bisect_right(self.intervals, x, key=lambda iv: iv[0]) - 1
        return k if k >= 0 and x <= self.intervals[k][1] else None

    def gap_index(self, x: float) -> int | None:
        """Index into ``gaps()`` of the open gap holding x; None when x lies
        on one of the closed intervals (endpoints included)."""
        k = bisect_right(self.intervals, x, key=lambda iv: iv[0])
        return None if k and x <= self.intervals[k - 1][1] else k


@functools.lru_cache(maxsize=None)
def support_of(m: MeasureSpec) -> SupportComponents:
    """Support of ``m`` as sorted disjoint closed intervals, computed once
    per measure.

    Atoms within ``ATOL`` of a segment endpoint merge into that segment so
    the components stay disjoint.
    """
    raw = [(t, t) for _, t in m.atoms] + [(lo, hi) for _, lo, hi in m.segments]
    raw.sort()
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1] + ATOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return SupportComponents(intervals=tuple((lo, hi) for lo, hi in merged))


def _real_argument(m: MeasureSpec, z) -> tuple:
    """A real z as a float or a float array, with the log of the same kind.

    Raises DomainError if z, or any element of an array z, lies on supp(m),
    and for a complex array, which the real path would truncate.
    """
    if isinstance(z, np.ndarray):
        if np.iscomplexobj(z):
            raise DomainError("complex arrays are not supported")
        x, log = np.asarray(z, dtype=float), np.log
        on = support_of(m).distance(x) <= ATOL
        if on.any():
            raise DomainError(f"x={x[on]!r} lies on the support of the measure")
    else:
        x, log = float(z.real) if isinstance(z, complex) else float(z), math.log
        if support_of(m).distance(x) <= ATOL:
            raise DomainError(f"x={x!r} lies on the support of the measure")
    return x, log


def g_nu(m: MeasureSpec, z):
    """Stieltjes transform integral of 1/(z - x) against ``m``.

    Accepts complex z off the real axis, or real z (a float, or elementwise a
    real numpy array) at positive distance from the support; DomainError is
    raised if any real point lies on it.  Real inputs give real outputs of
    the same shape.  Segments use the principal branch of
    log((z-lo)/(z-hi)), which is analytic off the segment.
    """
    if isinstance(z, complex) and z.imag != 0.0:
        total, log = 0j, cmath.log
    else:
        z, log = _real_argument(m, z)
        total = 0.0
    for w, t in m.atoms:
        total += w / (z - t)
    for w, lo, hi in m.segments:
        total += (w / (hi - lo)) * log((z - lo) / (z - hi))
    return total


def g_nu_prime(m: MeasureSpec, z):
    """Derivative of the Stieltjes transform: -integral of 1/(z - x)^2.

    Takes the same inputs as ``g_nu``.  Real inputs in a gap give strictly
    negative real outputs.
    """
    if isinstance(z, complex) and z.imag != 0.0:
        total = 0j
    else:
        z, _ = _real_argument(m, z)
        total = 0.0
    for w, t in m.atoms:
        total -= w / (z - t) ** 2
    for w, lo, hi in m.segments:
        total -= (w / (hi - lo)) * (1.0 / (z - hi) - 1.0 / (z - lo))
    return total


def log_potential(m: MeasureSpec, z: complex) -> complex:
    """Integral of log(z - x) against ``m`` for Im z > 0, principal branch.

    Its derivative is ``g_nu``, and Im of it tends to pi * m((x, inf)) as z
    tends to a real x off supp(m) from above.
    """
    total = 0j
    for w, t in m.atoms:
        total += w * cmath.log(z - t)
    for w, lo, hi in m.segments:
        total += (w / (hi - lo)) * ((z - lo) * cmath.log(z - lo)
                                    - (z - hi) * cmath.log(z - hi)) - w
    return total


def cdf(m: MeasureSpec, x: float) -> float:
    """Right-continuous distribution function of ``m`` at x."""
    total = 0.0
    for w, t in m.atoms:
        if t <= x:
            total += w
    for w, lo, hi in m.segments:
        if x >= hi:
            total += w
        elif x > lo:
            total += w * (x - lo) / (hi - lo)
    return min(total, 1.0)


def quantile(m: MeasureSpec, alpha: float) -> float:
    """Generalized inverse of the CDF: inf{x : F(x) >= alpha}.

    ``alpha`` must lie in [0, 1]; the endpoints map to the extremes of the
    support.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"quantile level must be in [0, 1], got {alpha!r}")
    pieces: list[tuple[float, float, float, float]] = []  # (position, w, lo, hi)
    for w, t in m.atoms:
        pieces.append((t, w, t, t))
    for w, lo, hi in m.segments:
        pieces.append((lo, w, lo, hi))
    pieces.sort()
    if alpha == 0.0:
        return pieces[0][2]
    cum = 0.0
    for _, w, lo, hi in pieces:
        if alpha <= cum + w:
            if lo == hi:
                return lo
            return lo + (alpha - cum) / w * (hi - lo)
        cum += w
    return pieces[-1][3]


def mass_between(m: MeasureSpec, lo: float, hi: float) -> float:
    """Mass assigned by ``m`` to the closed interval [lo, hi]."""
    total = 0.0
    for w, t in m.atoms:
        if lo <= t <= hi:
            total += w
    for w, s_lo, s_hi in m.segments:
        overlap = min(hi, s_hi) - max(lo, s_lo)
        if overlap > 0.0:
            total += w * overlap / (s_hi - s_lo)
    return total


def mp_edges(c: float, sigma: float) -> tuple[float, float]:
    """Support endpoints of the sigma^2-scaled Marchenko-Pastur law."""
    if not 0.0 < c <= 1.0:
        raise DomainError(f"ratio c must be in (0, 1], got {c!r}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    s2 = sigma * sigma
    rc = math.sqrt(c)
    return s2 * (1.0 - rc) ** 2, s2 * (1.0 + rc) ** 2


def mp_density(c: float, sigma: float, x: float) -> float:
    """Density of the sigma^2-scaled Marchenko-Pastur law at x.

    Zero outside the open support interval (for c in (0, 1] there is no atom).
    """
    lo, hi = mp_edges(c, sigma)
    if not lo < x < hi:
        return 0.0
    s2 = sigma * sigma
    xt = x / s2
    a = (1.0 - math.sqrt(c)) ** 2
    b = (1.0 + math.sqrt(c)) ** 2
    return math.sqrt((xt - a) * (b - xt)) / (2.0 * math.pi * c * xt) / s2
