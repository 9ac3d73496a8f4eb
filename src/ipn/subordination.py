"""Forward/inverse spectral maps for the information-plus-noise limit law.

Everything here is driven by two functions of the base measure nu and the
parameters (sigma, c):

* ``phi``    maps base-measure coordinates to limit-spectrum coordinates,
* ``omega``  is its inverse on the admissible set.

The admissible set is the open subset of the complement of supp(nu) where
``phi`` is increasing and the Stieltjes transform of nu stays above the
threshold -1/(sigma^2 c).  Its canonical form is a finite union of open
intervals whose complement [u_1,v_1], ..., [u_p,v_p] covers supp(nu); the
support of the limit law is the image of those complement intervals under
``phi``.  Each boundary lies in a gap of supp(nu), so ``phi`` is analytic
there and the support edges are phi(u_l) and phi(v_l).  These three interval
sets, supp(nu), the [u_l, v_l] (``AdmissibleSet``) and the support
(``SupportResult``), are each a ``measure.SupportComponents``.

No step searches for a bracket.  With [m, M] the hull of supp(nu), which
lies in [0, inf), and r = sigma (1 + sqrt(c)), Weyl's inequality for
singular values puts the support in [(sqrt(m) - r)_+^2, (sqrt(M) + r)^2],
and two facts turn that into closed-form brackets on the unbounded gaps:

* (F1) phi(u) > u for u > M, since g_nu(u) > 0 there;
* (F2) phi(u) <= u + sigma^2 (1+c) for u < m wherever
  a = 1 + sigma^2 c g_nu(u) >= 0: there a <= 1, so u a^2 <= u for u >= 0,
  and u a^2 <= u + 2 sigma^2 c for u < 0, where 0 < u g_nu(u) <= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import measure
from .errors import ConvergenceError, DomainError
from .measure import MeasureSpec

#: Sign of phi' below this magnitude is treated as a boundary value (the
#: admissible set is open, so such points are excluded).
PHI_PRIME_FLOOR = 1e-12

#: Absolute precision of isolated admissible-set boundaries.
BOUNDARY_XTOL = 1e-11

_SCAN_POINTS = 4096


@dataclass(frozen=True)
class ModelParams:
    """One information-plus-noise limit law: noise scale sigma > 0, ratio
    c in (0, 1], base measure nu."""

    sigma: float
    c: float
    nu: MeasureSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "c", float(self.c))
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"c must be in (0, 1], got {self.c!r}")
        if not isinstance(self.nu, MeasureSpec):
            raise ValueError("nu must be a MeasureSpec")

    def to_dict(self) -> dict:
        return {"sigma": self.sigma, "c": self.c, "nu": self.nu.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        return cls(sigma=data["sigma"], c=data["c"],
                   nu=MeasureSpec.from_dict(data["nu"]))


@dataclass(frozen=True)
class AdmissibleSet(measure.SupportComponents):
    """The complement intervals [u_1,v_1], ..., [u_p,v_p] of the admissible set.

    The set itself is (-inf,u_1) U (v_1,u_2) U ... U (v_p,+inf), the
    ``gaps()``; the closed intervals each meet supp(nu) and together cover it.
    """

    @property
    def u(self) -> tuple[float, ...]:
        return tuple(u for u, _ in self.intervals)

    @property
    def v(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.intervals)


@dataclass(frozen=True)
class SupportResult(measure.SupportComponents):
    """Support intervals of the limit law plus the zero-membership flag."""

    zero_in_support: bool
    admissible: AdmissibleSet

    def to_dict(self) -> dict:
        return {
            "intervals": [[lo, hi] for lo, hi in self.intervals],
            "zero_in_support": self.zero_in_support,
            "boundaries": {"u": list(self.admissible.u),
                           "v": list(self.admissible.v)},
        }


def phi(p: ModelParams, x):
    """Forward spectral map x*(1 + c*s^2*g(x))^2 + s^2*(1-c)*(1 + c*s^2*g(x)).

    Takes what ``measure.g_nu`` takes: complex x off the real axis, or real
    x away from supp(nu), a float or elementwise a real numpy array."""
    g = measure.g_nu(p.nu, x)
    a = 1.0 + p.c * p.sigma ** 2 * g
    return x * a * a + p.sigma ** 2 * (1.0 - p.c) * a


def phi_and_prime(p: ModelParams, x):
    """``phi`` and its derivative at x, from one g_nu and one g_nu' call;
    takes the same inputs as ``phi`` and matches it bit for bit."""
    s2c = p.c * p.sigma ** 2
    g = measure.g_nu(p.nu, x)
    gp = measure.g_nu_prime(p.nu, x)
    a = 1.0 + s2c * g
    tail = p.sigma ** 2 * (1.0 - p.c)
    return x * a * a + tail * a, a * a + 2.0 * x * a * s2c * gp + tail * s2c * gp


def phi_prime(p: ModelParams, x):
    """Derivative of ``phi``; takes the same inputs as ``phi``."""
    return phi_and_prime(p, x)[1]


def _bracketed_root(f, a: float, b: float, xtol: float,
                    f_and_prime=None) -> float:
    """Root of f in [a, b], where f changes sign, to within xtol: bisection,
    or with ``f_and_prime`` (f and f' at one point, from one call) Newton
    steps, each kept inside the shrinking bracket (a bisection step where
    f' is 0)."""
    fa = f(a)
    x = 0.5 * (a + b)
    for _ in range(200):
        fx, d = (f(x), 0.0) if f_and_prime is None else f_and_prime(x)
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b = x
        nxt = x - fx / d if d else 0.5 * (a + b)
        if abs(nxt - x) <= xtol:
            return nxt
        x = nxt if a < nxt < b else 0.5 * (a + b)
        if not a < x < b:  # the bracket is down to adjacent floats
            return x
    raise ConvergenceError(f"root in [{a!r}, {b!r}] did not converge")


# ---------------------------------------------------------------------------
# Admissible-set isolation
# ---------------------------------------------------------------------------

def _window(p: ModelParams, gap_lo: float, gap_hi: float) -> tuple[float, float]:
    """Finite scan window for a gap of supp(nu): a finite end moved in by
    the support-membership guard, an unbounded end replaced by a closed-form
    bound beyond the outermost admissible-set boundary (see the module
    docstring for m, M, r, F1 and F2).
    """
    s2 = p.sigma ** 2
    r = p.sigma * (1.0 + math.sqrt(p.c))
    if math.isinf(gap_lo):
        # u_1 >= phi(u_1) - s^2 (1+c) >= (sqrt(m) - r)_+^2 - s^2 (1+c) by (F2)
        lo = max(math.sqrt(gap_hi) - r, 0.0) ** 2 - s2 * (1.0 + p.c) - 1.0
    else:
        lo = gap_lo + _endpoint_guard(gap_lo)
    if math.isinf(gap_hi):
        # v_p < phi(v_p) <= (sqrt(M) + r)^2 by (F1)
        hi = (math.sqrt(gap_lo) + r) ** 2 + 1.0 + 4.0 * r * r
    else:
        hi = gap_hi - _endpoint_guard(gap_hi)
    return lo, hi


def _endpoint_guard(x: float) -> float:
    """Closest admissible approach to a finite endpoint of supp(nu)."""
    return 4.0 * measure.ATOL * max(1.0, abs(x))


def _sample_points(lo: float, hi: float, cluster_lo: bool,
                   cluster_hi: bool) -> np.ndarray:
    """Uniform grid plus geometric clusters toward finite gap endpoints.

    The clusters catch the sign dives of phi' next to supp(nu), which a
    uniform grid misses when sigma is small.  Only points strictly inside
    (lo, hi) are kept.
    """
    width = hi - lo
    pts = [np.linspace(lo, hi, _SCAN_POINTS)]
    ks = 0.5 ** np.arange(1, 54)
    if cluster_lo:
        pts.append(lo + width * ks)
    if cluster_hi:
        pts.append(hi - width * ks)
    xs = np.unique(np.concatenate(pts))
    return xs[(xs > lo) & (xs < hi)]


def _phi_prime_marks(p: ModelParams, xs: np.ndarray) -> list[float]:
    """Zeros of phi' bracketed by sign changes over the sample points,
    bisected to BOUNDARY_XTOL / 10.  Points where |phi'| <= PHI_PRIME_FLOOR
    are skipped: bisection between their nonzero neighbours finds the zero."""
    vals = phi_prime(p, xs)
    keep = np.abs(vals) > PHI_PRIME_FLOOR
    xs, pos = xs[keep], vals[keep] > 0.0
    return [_bracketed_root(lambda u: phi_prime(p, u), float(xs[i]), float(xs[i + 1]),
                            BOUNDARY_XTOL * 0.1)
            for i in np.flatnonzero(pos[1:] != pos[:-1])]


def _positive_pieces(p: ModelParams, lo: float, hi: float,
                     marks: list[float],
                     open_lo: bool, open_hi: bool) -> list[tuple[float, float]]:
    """Subintervals of (lo, hi) where phi' > 0, split at the given marks."""
    edges = [lo] + [m for m in marks if lo < m < hi] + [hi]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        if phi_prime(p, mid) > PHI_PRIME_FLOOR:
            a_out = -math.inf if (open_lo and a == lo) else a
            b_out = math.inf if (open_hi and b == hi) else b
            pieces.append((a_out, b_out))
    return pieces


def g_threshold_crossing(p: ModelParams, gap: tuple[float, float]) -> float | None:
    """Unique solution of g_nu(u) = -1/(sigma^2 c) inside a gap of supp(nu).

    ``gap`` may have infinite endpoints.  Returns None on the unbounded right
    gap, where g_nu > 0 > -1/(sigma^2 c) holds throughout.  g_nu decreases
    strictly on a gap, so it is compared at the two guard points (the
    support-membership guard inside each finite end, -sigma^2 c - 1 on the
    unbounded left gap, where the crossing cannot lie): when the crossing
    lies beyond one of them (possible next to a segment, where g diverges
    only logarithmically), that guard point itself is returned, since the
    condition is settled on the resolvable part of the gap.
    """
    gap_lo, gap_hi = gap
    thr = -1.0 / (p.sigma ** 2 * p.c)
    if math.isinf(gap_hi):
        return None
    if math.isinf(gap_lo):
        left = -p.sigma ** 2 * p.c - 1.0  # here g_nu >= 1/left > thr, as u g_nu(u) <= 1
    else:
        left = gap_lo + _endpoint_guard(gap_lo)
    right = gap_hi - _endpoint_guard(gap_hi)
    f = lambda u: measure.g_nu(p.nu, u) - thr
    if f(right) >= 0.0:
        return right
    if f(left) <= 0.0:
        return left
    return _bracketed_root(f, left, right, BOUNDARY_XTOL * 0.1,
                           lambda u: (f(u), measure.g_nu_prime(p.nu, u)))


def _drop_slivers(pieces: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Discard intervals narrower than the boundary-isolation resolution.

    Near an atom of nu at small sigma, the sign flip of phi' and the
    g-threshold crossing coincide to within machine precision; the exact
    set difference is empty but rounding can leave one-ulp slivers.
    Anything narrower than ~10x the isolation tolerance is such an artifact.
    """
    out = []
    for a, b in pieces:
        if math.isinf(a) or math.isinf(b):
            out.append((a, b))
            continue
        scale = max(abs(a), abs(b), 1.0)
        if b - a > max(10.0 * BOUNDARY_XTOL, 64.0 * np.finfo(float).eps * scale):
            out.append((a, b))
    return out


def _scan_gap(p: ModelParams, gap_lo: float,
              gap_hi: float) -> list[tuple[float, float]]:
    """Admissible subintervals of one gap of supp(nu)."""
    win_lo, win_hi = _window(p, gap_lo, gap_hi)
    crossing = g_threshold_crossing(p, (gap_lo, gap_hi))
    g_hi = math.inf if crossing is None else crossing
    xs = _sample_points(win_lo, win_hi, cluster_lo=not math.isinf(gap_lo),
                        cluster_hi=not math.isinf(gap_hi))
    pieces = _positive_pieces(p, win_lo, win_hi, _phi_prime_marks(p, xs),
                              open_lo=math.isinf(gap_lo),
                              open_hi=math.isinf(gap_hi))
    good = _drop_slivers([(a, min(b, g_hi)) for a, b in pieces if a < g_hi])
    # canonical form: at most one admissible interval in a bounded gap, and
    # in an unbounded gap exactly one, unbounded on the same side
    unbounded = [math.isinf(gap_lo), math.isinf(gap_hi)]
    shapes = [[math.isinf(a), math.isinf(b)] for a, b in good]
    if shapes != [unbounded] and (any(unbounded) or len(good) > 1):
        raise ConvergenceError(
            f"sign pattern in gap ({gap_lo}, {gap_hi}) unresolved at "
            f"{_SCAN_POINTS} points")
    return good


@functools.lru_cache(maxsize=None)
def admissible_set(p: ModelParams) -> AdmissibleSet:
    """Admissible set of the model, computed once per ModelParams.

    Each gap of supp(nu) is scanned once on a uniform-plus-endpoint-clustered
    grid of 4096 points; an unbounded gap is cut to the window that
    ``_window`` proves holds its boundary.  Sign changes of phi' and the
    single crossing of g_nu with -1/(sigma^2 c) are bracketed, and
    boundaries are refined inside their brackets (bisection on phi', Newton
    on g_nu) to absolute 1e-11.  Raises ConvergenceError unless the result
    has the canonical form: boundaries strictly increasing, each component
    of supp(nu) inside one [u_l, v_l], each [u_l, v_l] holding one or more.
    """
    comps = measure.support_of(p.nu)
    good: list[tuple[float, float]] = []
    for gap_lo, gap_hi in comps.gaps():
        good.extend(_scan_gap(p, gap_lo, gap_hi))
    good.sort()
    if len(good) < 2 or not math.isinf(good[0][0]) or not math.isinf(good[-1][1]):
        raise ConvergenceError("admissible set does not have the canonical form")
    adm = AdmissibleSet(tuple((u_l, v_l)
                              for (_, u_l), (v_l, _) in zip(good, good[1:])))
    if not _increasing(adm.intervals):
        raise ConvergenceError("admissible-set boundaries are not strictly increasing")
    homes = [adm.interval_index(lo) for lo, _ in comps.intervals]
    if any(l is None or adm.interval_index(hi) != l
           for l, (_, hi) in zip(homes, comps.intervals)):
        raise ConvergenceError(
            "a component of supp(nu) escaped the admissible-set complement")
    if set(homes) != set(range(len(adm.intervals))):
        raise ConvergenceError(
            "an admissible-set complement interval misses supp(nu)")
    return adm


def _increasing(intervals) -> bool:
    """Whether lo_1 < hi_1 < lo_2 < ... < hi_p: none degenerate, none touching."""
    ends = [x for iv in intervals for x in iv]
    return all(a < b for a, b in zip(ends, ends[1:]))


def zero_in_support(p: ModelParams) -> bool:
    """Whether zero belongs to the support of the limit law.

    For c < 1 it never does.  For c = 1 it does exactly when zero lies in
    supp(nu) or g_nu(0) <= -1/sigma^2.
    """
    if p.c < 1.0:
        return False
    comps = measure.support_of(p.nu)
    if comps.distance(0.0) <= measure.ATOL:
        return True
    return measure.g_nu(p.nu, 0.0) <= -1.0 / p.sigma ** 2


@functools.lru_cache(maxsize=None)
def support(p: ModelParams) -> SupportResult:
    """Support of the limit law, computed once per ModelParams.

    Interval l is [phi(u_l), phi(v_l)] for the admissible-set boundaries
    u_l, v_l.  The zero flag follows the zero-membership classification
    (False for c < 1).  A lower edge within 1e-9 of zero is zero when the
    flag is set, or when phi gives it at or below zero: the true edge is
    then positive but under phi's rounding floor (c within about 1e-12 of
    1 with a zero-touching c = 1 limit).  A tiny positive edge with the
    flag unset stays what phi gives.
    """
    adm = admissible_set(p)
    zero = zero_in_support(p)
    intervals: list[tuple[float, float]] = []
    for u_l, v_l in adm.intervals:
        lo, hi = phi(p, u_l), phi(p, v_l)
        if abs(lo) <= 1e-9 and (zero or lo < 0.0):
            lo = 0.0
        intervals.append((lo, hi))
    if not _increasing(intervals):
        raise ConvergenceError("support intervals are degenerate or not separated")
    if p.c < 1.0 and intervals[0][0] < 0.0:
        raise ConvergenceError("support minimum must not be negative for c < 1")
    return SupportResult(intervals=tuple(intervals), zero_in_support=zero,
                         admissible=adm)


def omega(p: ModelParams, x: float) -> float:
    """Inverse of ``phi``: the admissible point u with phi(u) = x.

    ``x`` must lie strictly outside the support of the limit law.  On the
    matching admissible-set component ``phi`` is strictly increasing, so
    Newton on phi(u) = x is kept inside a bracket of that component that
    shrinks with every step.  An unbounded component is cut to a bracket by
    the facts behind ``_window``.  The residual |phi(omega(x)) - x| is at
    most 1e-10 * max(1, |x|).
    """
    sup = support(p)
    k = sup.gap_index(x)
    if k is None:
        raise DomainError(f"x={x!r} lies in the support of the limit law")
    lo_b, hi_b = sup.admissible.gaps()[k]
    if math.isinf(hi_b):
        hi_b = x  # x > phi(v_p) > v_p, and phi(x) > x by (F1)
    if math.isinf(lo_b):
        # u_1 >= -s^2 (1+c), and phi(u) <= u + s^2 (1+c) < x below by (F2)
        lo_b = min(x, 0.0) - p.sigma ** 2 * (1.0 + p.c) - 1.0
    f = lambda u: phi(p, u) - x

    def f_and_prime(u):
        val, slope = phi_and_prime(p, u)
        return val - x, slope

    if f(lo_b) >= 0.0:
        u = lo_b
    elif f(hi_b) <= 0.0:
        u = hi_b
    else:
        u = _bracketed_root(f, lo_b, hi_b, 1e-13, f_and_prime)
    if abs(phi(p, u) - x) > 1e-10 * max(1.0, abs(x)):
        raise ConvergenceError(f"omega residual too large at x={x!r}")
    return u


def k_transform(p: ModelParams, x: float) -> float:
    """Map x -> x + sigma^2(1-c)/(1 - sigma^2 c g(x)) through the c=1 companion model.

    ``g`` is the Stieltjes transform of the limit law with parameters
    (sigma*sqrt(c), nu, 1), evaluated by ``stieltjes.solve_g`` just above
    the real axis.  Satisfies K(phi_aux(u)) = phi(u) on the companion
    admissible set, which is the cross-check exercised by the tests.
    Requires c < 1 and x outside the companion support.
    """
    if not p.c < 1.0:
        raise DomainError("the K transform is defined for c < 1 only")
    aux = ModelParams(sigma=p.sigma * math.sqrt(p.c), c=1.0, nu=p.nu)
    if support(aux).gap_index(x) is None:
        raise DomainError(f"x={x!r} lies in the companion support")
    from . import stieltjes

    g = stieltjes.solve_g(aux, complex(x, 1e-9)).g
    return x + p.sigma ** 2 * (1.0 - p.c) / (1.0 - p.sigma ** 2 * p.c * g.real)
