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

from . import measure
from .errors import ConvergenceError, DomainError
from .measure import MeasureSpec

#: A gap of supp(nu) holds an admissible piece only where the peak of phi'
#: over its window passes this (a peak at rounding level, as next to a
#: merge of two support intervals, is taken for none).
PHI_PRIME_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """One information-plus-noise limit law: noise scale sigma > 0, ratio
    c in (0, 1], base measure nu."""

    sigma: float
    c: float
    nu: MeasureSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", measure.as_real("sigma", self.sigma))
        object.__setattr__(self, "c", measure.as_real("c", self.c))
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


def phi_and_prime(p: ModelParams, x):
    """Forward spectral map x*(1 + c*s^2*g(x))^2 + s^2*(1-c)*(1 + c*s^2*g(x))
    and its derivative at x, from one ``measure.g_nu_and_prime`` pass.

    Takes what that takes: complex x off the real axis, a complex scalar or
    elementwise a complex numpy array, or real x away from supp(nu), a float
    or elementwise a real numpy array."""
    s2c = p.c * p.sigma ** 2
    g, gp = measure.g_nu_and_prime(p.nu, x)
    a = 1.0 + s2c * g
    tail = p.sigma ** 2 * (1.0 - p.c)
    return x * a * a + tail * a, a * a + 2.0 * x * a * s2c * gp + tail * s2c * gp


def phi(p: ModelParams, x):
    """The forward spectral map: the first value of ``phi_and_prime``."""
    return phi_and_prime(p, x)[0]


def phi_prime(p: ModelParams, x):
    """Derivative of ``phi``: the second value of ``phi_and_prime``."""
    return phi_and_prime(p, x)[1]


def _bracketed_root(fd, a: float, b: float, xtol: float) -> float:
    """Root in [a, b] of f, to within xtol, where fd(x) gives f(x) and f'(x)
    from one call: a first iterate at the secant point of the two ends,
    a - f(a) (b - a) / (f(b) - f(a)) (the midpoint unless that lies
    strictly inside), then Newton steps, each kept inside the shrinking
    bracket, and a bisection step where f' is 0.  Each end is evaluated
    once.  Unless f(a) and f(b) differ strictly in sign, the end with the
    smaller |f| is returned: an end where f is 0, or for a monotone f with
    no root in [a, b] the end nearest it."""
    fa, _ = fd(a)
    fb, _ = fd(b)
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        return a if abs(fa) <= abs(fb) else b
    x = a - fa * (b - a) / (fb - fa)
    if not a < x < b:  # rounding at an end, or an overflow to inf or NaN
        x = 0.5 * (a + b)
    for _ in range(200):
        fx, d = fd(x)
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
    """Finite window holding every point of a gap of supp(nu) where
    a = 1 + sigma^2 c g_nu > 0: from the finite lower end moved in by the
    support-membership guard, or a bound below u_1, up to the g-threshold
    crossing, or on the unbounded right gap a bound above v_p (see the
    module docstring for m, M, r, F1 and F2).  a > 0 at a finite upper end."""
    r = p.sigma * (1.0 + math.sqrt(p.c))
    if math.isinf(gap_lo):
        # u_1 >= phi(u_1) - s^2 (1+c) >= (sqrt(m) - r)_+^2 - s^2 (1+c) by (F2)
        lo = max(math.sqrt(gap_hi) - r, 0.0) ** 2 - p.sigma ** 2 * (1.0 + p.c) - 1.0
    else:
        lo = gap_lo + _endpoint_guard(gap_lo)
    hi = g_threshold_crossing(p, (gap_lo, gap_hi))
    if hi is None:
        # v_p < phi(v_p) <= (sqrt(M) + r)^2 by (F1)
        hi = (math.sqrt(gap_lo) + r) ** 2 + 1.0 + 4.0 * r * r
    return lo, hi


def _endpoint_guard(x: float) -> float:
    """Closest admissible approach to a finite endpoint of supp(nu)."""
    return 4.0 * measure.ATOL * max(1.0, abs(x))


def g_threshold_crossing(p: ModelParams, gap: tuple[float, float]) -> float | None:
    """Last point, to within a few ulps, before the root of
    a = 1 + sigma^2 c g_nu(u) inside a gap of supp(nu) where a > 0 in
    floats (g_nu = -1/(sigma^2 c) at the root).

    ``gap`` may have infinite endpoints.  Returns None on the unbounded right
    gap, where g_nu > 0 > -1/(sigma^2 c) holds throughout.  a is found by
    Newton down to adjacent floats and then stepped back, in steps doubling
    from one ulp, while it is not positive.  g_nu decreases strictly on a
    gap, so a is compared at the two guard points (the support-membership
    guard inside each finite end, -sigma^2 c - 1 on the unbounded left gap,
    where the crossing cannot lie): when the crossing lies beyond one of them
    (possible next to a segment, where g diverges only logarithmically),
    that guard point itself is returned, since the condition is settled on
    the resolvable part of the gap.
    """
    gap_lo, gap_hi = gap
    s2c = p.c * p.sigma ** 2
    if math.isinf(gap_hi):
        return None
    if math.isinf(gap_lo):
        left = -s2c - 1.0  # here g_nu >= 1/left, so a > 0, as u g_nu(u) <= 1
    else:
        left = gap_lo + _endpoint_guard(gap_lo)
    right = gap_hi - _endpoint_guard(gap_hi)

    def fd(u):
        g, gp = measure.g_nu_and_prime(p.nu, u)
        return 1.0 + s2c * g, s2c * gp

    u = _bracketed_root(fd, left, right, 0.0)
    back = math.ulp(u)
    while u > left and fd(u)[0] <= 0.0:
        u, back = max(u - back, left), 2.0 * back
    return u


def _scan_gap(p: ModelParams, gap_lo: float,
              gap_hi: float) -> list[tuple[float, float]]:
    """Admissible subinterval of one gap of supp(nu), if any: the piece of
    the ``_window`` where phi' > 0 around the one peak of phi' there, each
    finite end decided by the sign of phi' at the window end
    (``_piece_end``).  Where the window is empty or the peak is not above
    PHI_PRIME_FLOOR the gap holds none (on an unbounded gap, which always
    holds one, a ConvergenceError).
    """
    lo, hi = _window(p, gap_lo, gap_hi)
    slope = functools.partial(phi_prime, p)
    peak, top = _peak(slope, lo, hi) if lo < hi else (lo, -math.inf)
    if not top > PHI_PRIME_FLOOR:
        if math.isinf(gap_lo) or math.isinf(gap_hi):
            raise ConvergenceError(
                f"phi' has no positive peak on the unbounded gap ({gap_lo}, {gap_hi})")
        return []
    u = -math.inf if math.isinf(gap_lo) else _piece_end(slope, lo, peak)
    v = math.inf if math.isinf(gap_hi) else _piece_end(slope, hi, peak)
    return [(u, v)]


def _peak(f, lo: float, hi: float) -> tuple[float, float]:
    """A maximiser of f on [lo, hi] and f there, by golden-section search
    down to adjacent floats: the maximum where f has one peak on [lo, hi]."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0  # 1 / the golden ratio
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    while lo < c < d < hi:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _piece_end(slope, end: float, peak: float) -> float:
    """End of the piece around ``peak`` where slope > 0, on the side of the
    window end ``end``: ``end`` itself where slope is positive there, else
    the root of slope bisected, to adjacent floats, between ``end`` and the
    peak.  At a finite upper window end a > 0, so for c < 1, or for c = 1
    with a positive crossing, phi' is strictly negative there unless the
    piece reaches it: no sign is left to rounding."""
    if slope(end) > 0.0:
        return end
    a, b = sorted((end, peak))
    return _bracketed_root(lambda u: (slope(u), 0.0), a, b, 0.0)


def admissible_set(p: ModelParams) -> AdmissibleSet:
    """Admissible set of the model, computed afresh on each call: ``support``
    holds it, once per ModelParams, as ``SupportResult.admissible``.

    Each gap of supp(nu) is decided by one peak search (``_scan_gap``):
    the maximum of phi' over the ``_window``, which ends at the last float
    with a = 1 + sigma^2 c g_nu > 0 before the g-threshold crossing (Newton
    on a) where the gap has one, is found by golden-section search; where
    it is above PHI_PRIME_FLOOR the gap holds one admissible piece.  Each
    of its finite ends is the window end where phi' > 0 there, else the
    root of phi' bisected between that end and the peak to adjacent
    floats.  No grid is sampled.  Raises
    ConvergenceError unless the result has the canonical form:
    boundaries strictly increasing, each component of supp(nu) inside one
    [u_l, v_l], each [u_l, v_l] holding one or more.
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
    shrinks with every step; where phi at an end of the bracket is already
    past x (rounding next to a support edge), that end is returned.  An
    unbounded component is cut to a bracket by the facts behind ``_window``.
    The residual |phi(omega(x)) - x| is at most 1e-10 * max(1, |x|), and
    omega(-inf) = -inf, omega(inf) = inf.
    """
    sup = support(p)
    k = sup.gap_index(x)
    if k is None:
        raise DomainError(f"x={x!r} lies in the support of the limit law")
    if math.isinf(x):
        return x  # phi(u) - u stays bounded as |u| grows; phi(u) - x would be NaN
    lo_b, hi_b = sup.admissible.gaps()[k]
    if math.isinf(hi_b):
        hi_b = x  # x > phi(v_p) > v_p, and phi(x) > x by (F1)
    if math.isinf(lo_b):
        # u_1 >= -s^2 (1+c), and phi(u) <= u + s^2 (1+c) < x below by (F2)
        lo_b = min(x, 0.0) - p.sigma ** 2 * (1.0 + p.c) - 1.0

    def fd(u):
        val, slope = phi_and_prime(p, u)
        return val - x, slope

    u = _bracketed_root(fd, lo_b, hi_b, 1e-13)
    if abs(phi(p, u) - x) > 1e-10 * max(1.0, abs(x)):
        raise ConvergenceError(f"omega residual too large at x={x!r}")
    return u
