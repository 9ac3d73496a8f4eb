"""Compactly supported probability measures on [0, inf) and their transforms.

A measure is a finite mixture of point masses ("atoms") and uniform densities
on closed segments.  This class is closed under everything the rest of the
package needs: the Stieltjes transform and its derivative have closed forms,
the support is a finite union of intervals, and CDF/quantile are piecewise
linear.  The scaled Marchenko-Pastur density is provided as the closed-form
special case used as an oracle in tests.

``g_nu_and_prime`` is the one transform kernel: a single loop over the atoms
and segments gives the Stieltjes transform and its derivative at a complex
scalar, a float, or elementwise a real or complex numpy array, after one
check of the argument; only the segments' log follows the input type
(``cmath`` or ``np`` log and atanh off the real axis, ``math.log1p`` on
it, elementwise for an array).  ``g_nu`` returns its first value, and
``log_potential`` takes the same complex scalars and arrays through one
body; ``cdf``, ``quantile`` and ``mass_between`` walk ``MeasureSpec.pieces``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: Absolute tolerance for weight normalization, support membership and
#: endpoint merging.  Evaluation closer to the support than this is rejected
#: as ill-conditioned.
ATOL = 1e-12


def as_real(name: str, value) -> float:
    """``value`` as a float; ValueError for a bool, which ``float`` would
    read as 0.0 or 1.0, and for anything that is not a real number, such as
    a string that ``float`` would parse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_int(name: str, value) -> int:
    """``value`` as an int when it is one or an integral float; ValueError
    for anything else, a bool (``int`` reads it as 0 or 1) and a string that
    ``int`` would parse included."""
    if isinstance(value, float) and value.is_integer() or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MeasureSpec:
    """Finite mixture of atoms and uniform segments on the nonnegative axis.

    atoms     tuple of (weight, location)
    segments  tuple of (weight, lo, hi); uniform density weight/(hi-lo)

    All numbers must be finite.  Weights must be positive and sum to one
    within ``ATOL``; locations and endpoints must be nonnegative; segments
    must have pairwise disjoint interiors and atoms may not sit strictly
    inside a segment, both up to ``ATOL``.  The point mass at zero alone is
    rejected (the theory degenerates there).  ``pieces``, each atom and
    segment as (lo, hi, w) in sorted order, lo == hi for an atom, is built
    once; ``atoms``, ``segments`` and ``support``, supp(m) (see
    ``support_of``), are read off it.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[tuple[float, float, float], ...] = ()
    support: SupportComponents = field(init=False, repr=False, compare=False)
    pieces: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = [(as_real("w", w), as_real("t", t)) for w, t in self.atoms]
        segments = [(as_real("w", w), as_real("lo", lo), as_real("hi", hi))
                    for w, lo, hi in self.segments]
        if not all(math.isfinite(v) for piece in atoms + segments for v in piece):
            raise ValueError("weights, locations and endpoints must be finite")
        if any(hi <= lo for _, lo, hi in segments):
            raise ValueError("segment must have hi > lo")
        pieces = tuple(sorted([(t, t, w) for w, t in atoms]
                              + [(lo, hi, w) for w, lo, hi in segments]))
        if not pieces:
            raise ValueError("measure must have at least one atom or segment")
        if any(w <= 0.0 for *_, w in pieces):
            raise ValueError("all weights must be positive")
        total = math.fsum(w for *_, w in pieces)
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"weights must sum to 1 within {ATOL}, got {total!r}")
        if pieces[0][0] < 0.0:
            raise ValueError("locations and segment endpoints must be nonnegative")
        if len(pieces) == 1 and pieces[0][0] == pieces[0][1] <= ATOL:
            raise ValueError("the point mass at zero alone is not admissible")
        # each piece is checked against the last segment before it: segments
        # are disjoint up to ATOL, so no earlier one reaches more than ATOL
        # into a later piece
        seg_lo = seg_hi = -math.inf
        merged: list[list[float]] = []
        for lo, hi, _ in pieces:
            if lo < hi:
                if lo < seg_hi - ATOL:
                    raise ValueError("segments must be pairwise disjoint")
                seg_lo, seg_hi = lo, hi
            elif seg_lo + ATOL < lo < seg_hi - ATOL:
                raise ValueError("atoms may not lie in the interior of a segment")
            # a piece within ATOL of the interval before it joins that interval
            if merged and lo <= merged[-1][1] + ATOL:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "atoms", tuple((w, t) for t, hi, w in pieces if t == hi))
        object.__setattr__(self, "segments",
                           tuple((w, lo, hi) for lo, hi, w in pieces if lo < hi))
        object.__setattr__(self, "support", SupportComponents(tuple(map(tuple, merged))))

    @classmethod
    def point_mass(cls, location: float) -> "MeasureSpec":
        return cls(atoms=((1.0, float(location)),))

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureSpec":
        """Parse the JSON form {"atoms":[{"w":..,"t":..}],"segments":[{"w":..,"lo":..,"hi":..}]}."""
        if not isinstance(data, dict):
            raise ValueError(f"a measure must be a JSON object, got {data!r}")
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
    support of the limit law (``subordination.SupportResult``).  ``lows``
    holds the lower ends, which every lookup bisects.
    """

    intervals: tuple[tuple[float, float], ...]
    lows: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lows", tuple(lo for lo, _ in self.intervals))

    @property
    def min(self) -> float:
        return self.intervals[0][0]

    @property
    def max(self) -> float:
        return self.intervals[-1][1]

    def distance(self, x):
        """Euclidean distance from x to the support; elementwise for an array.
        A float reads only the two intervals around it, found by one
        ``bisect``; NaN gives NaN."""
        if isinstance(x, np.ndarray):
            return np.min([np.maximum(np.maximum(lo - x, x - hi), 0.0)
                           for lo, hi in self.intervals], axis=0)
        k = bisect_right(self.lows, x)  # lows[k-1] <= x < lows[k]; the end for NaN
        below = max(x - self.intervals[k - 1][1], 0.0) if k else math.inf
        return min(self.lows[k] - x, below) if k < len(self.lows) else below

    def gaps(self) -> list[tuple[float, float]]:
        """Open intervals of the complement, including the two unbounded ones."""
        out = [(-math.inf, self.intervals[0][0])]
        for (_, hi_a), (lo_b, _) in zip(self.intervals, self.intervals[1:]):
            out.append((hi_a, lo_b))
        out.append((self.intervals[-1][1], math.inf))
        return out

    def interval_index(self, x: float) -> int | None:
        """Index into ``intervals`` of the one holding x; None in a gap."""
        k = bisect_right(self.lows, x) - 1
        return k if k >= 0 and x <= self.intervals[k][1] else None

    def gap_index(self, x: float) -> int | None:
        """Index into ``gaps()`` of the open gap holding x; None when x lies
        on one of the closed intervals (endpoints included)."""
        k = bisect_right(self.lows, x)
        return None if k and x <= self.intervals[k - 1][1] else k


def support_of(m: MeasureSpec) -> SupportComponents:
    """Support of ``m`` as sorted disjoint closed intervals: ``m.support``,
    built once with the measure."""
    return m.support


def g_nu_and_prime(m: MeasureSpec, z):
    """Stieltjes transform of ``m``, the integral of 1/(z - x), and its
    derivative, -integral of 1/(z - x)^2, from one pass over the atoms and
    segments.

    Accepts complex z off the real axis (a complex scalar, or elementwise a
    complex numpy array), or real z (a float, or elementwise a real numpy
    array) at positive distance from the support.  DomainError is raised if
    any real point is NaN or lies on the support, and for a complex array
    with an element on the real axis.  Outputs have the input's shape, real
    for real inputs; in a gap the derivative is strictly negative.  Segments
    use the principal branch of log((z-lo)/(z-hi)), which is analytic off
    the segment, in forms that keep their relative precision far from a
    narrow segment, where the quotient nears 1: +-log1p((hi-lo)/d) at real
    z, for d the distance to the nearer end, and 2 atanh((hi-lo)/(2z-lo-hi))
    off the real axis farther than hi - lo from the midpoint.
    """
    real = complex_array = None
    if isinstance(z, complex) and z.imag != 0.0:
        g = gp = 0j
    elif isinstance(z, np.ndarray) and np.iscomplexobj(z):
        _off_real_axis(z)
        g = gp = 0j
        complex_array = True
    elif isinstance(z, np.ndarray):
        z = np.asarray(z, dtype=float)
        real = (np.vectorize(math.log1p, otypes=[float]), np.copysign, np.minimum)
        on = ~(m.support.distance(z) > ATOL)
        if on.any():
            raise DomainError(
                f"x={z[on]!r} is NaN or lies on the support of the measure")
        g = gp = 0.0
    else:
        z, real = float(z.real), (math.log1p, math.copysign, min)
        if not m.support.distance(z) > ATOL:
            raise DomainError(
                f"x={z!r} is NaN or lies on the support of the measure")
        g = gp = 0.0
    for w, t in m.atoms:
        d = z - t
        r = w / d
        g += r
        gp -= r / d  # w / d^2 without forming d^2, which overflows past |d| ~ 1e154
    for w, lo, hi in m.segments:
        dlo, dhi = z - lo, z - hi
        if real:
            log1p, copysign, nearer = real
            seg = copysign(log1p((hi - lo) / nearer(abs(dlo), abs(dhi))), dhi)
        else:
            # farther from the midpoint than hi - lo, 2 atanh(...) is the
            # same branch, free of the rounded quotient's loss near 1; nearer,
            # atanh's argument can near +-1 and the quotient is kept
            s = dlo + dhi
            far = abs(s) > 2.0 * (hi - lo)
            if complex_array:
                seg = np.where(far, 2.0 * np.arctanh((hi - lo) / s), np.log(dlo / dhi))
            else:
                seg = 2.0 * cmath.atanh((hi - lo) / s) if far else cmath.log(dlo / dhi)
        g += w / (hi - lo) * seg
        gp -= w / dhi / dlo
    return g, gp


def g_nu(m: MeasureSpec, z):
    """Stieltjes transform alone: the first value of ``g_nu_and_prime``."""
    return g_nu_and_prime(m, z)[0]


def _off_real_axis(z: np.ndarray) -> None:
    """DomainError unless every element of the complex array z has Im z != 0."""
    on = z.imag == 0.0
    if on.any():
        raise DomainError(f"z={z[on]!r} lies on the real axis")


def log_potential(m: MeasureSpec, z):
    """Integral of log(z - x) against ``m`` for Im z > 0, principal branch,
    at a complex scalar or elementwise a complex numpy array (DomainError
    for a scalar or an array element on the real axis).

    Its derivative is ``g_nu``, and Im of it tends to pi * m((x, inf)) as z
    tends to a real x off supp(m) from above.
    """
    log = cmath.log
    if isinstance(z, np.ndarray):
        _off_real_axis(z)
        log = np.log
    elif z.imag == 0.0:
        raise DomainError(f"z={z!r} lies on the real axis")
    total = 0j
    for w, t in m.atoms:
        total += w * log(z - t)
    for w, lo, hi in m.segments:
        total += (w / (hi - lo)) * ((z - lo) * log(z - lo) - (z - hi) * log(z - hi)) - w
    return total


def cdf(m: MeasureSpec, x: float) -> float:
    """Right-continuous distribution function of ``m`` at x, 1 from the top
    of the support on (the weights may sum to 1 - ulp); NaN: DomainError."""
    if math.isnan(x):
        raise DomainError("cdf is undefined at NaN")
    if x >= m.support.max:
        return 1.0
    total = 0.0
    for lo, hi, w in m.pieces:
        if x >= hi:
            total += w
        elif x > lo:
            total += w * (x - lo) / (hi - lo)
        else:
            break
    return min(total, 1.0)


def quantile(m: MeasureSpec, alpha: float) -> float:
    """Generalized inverse of the CDF, inf{x : F(x) >= alpha}, for alpha in
    [0, 1] (the endpoints give the support's extremes).  The weights are
    summed as ``cdf`` sums them, and a segment's interpolated point steps up
    by ulps while ``cdf`` reads it below alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"quantile level must be in [0, 1], got {alpha!r}")
    if alpha == 0.0:
        return m.support.min
    cum = 0.0
    for lo, hi, w in m.pieces:
        if alpha <= cum + w:
            if lo == hi:
                return lo
            q = min(lo + (alpha - cum) / w * (hi - lo), hi)
            while cdf(m, q) < alpha:
                q = math.nextafter(q, math.inf)
            return q
        cum += w
    return m.support.max


def mass_between(m: MeasureSpec, lo: float, hi: float) -> float:
    """Mass assigned by ``m`` to the closed interval [lo, hi]."""
    total = 0.0
    for p_lo, p_hi, w in m.pieces:
        if p_lo > hi:
            break
        if p_lo == p_hi:
            if lo <= p_lo:
                total += w
        elif (overlap := min(hi, p_hi) - max(lo, p_lo)) > 0.0:
            total += w * overlap / (p_hi - p_lo)
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
