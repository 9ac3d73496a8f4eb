"""Transform solver for the limit law, and its density, CDF and quantiles.

The Stieltjes transform of the limit law is g = g_nu(u) / (1 + s^2 c g_nu(u))
at u = omega(z), the root of phi(u) = z with Im u > 0; g is also the fixed
point of F(g) = (1 - s^2 c g) g_nu(z (1 - s^2 c g)^2 - s^2 (1-c)(1 - s^2 c g)).
``solve_g`` finds u by Newton on ``phi``, continued down from z + i 2^m.  The
same solve at a real x inside the open support gives the density -Im g / pi
without extrapolation; off the open support it is exactly zero.  The CDF is
one table of adaptive Simpson panels per support interval, rescaled to the
nu-mass that the mass-correspondence identity assigns it: ``cdf_mu`` reads
the table forwards and ``quantile_mu`` backwards.  ``h_residual`` checks the
rectangular-convolution subordination identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import measure, subordination
from .errors import ConvergenceError, DomainError
from .subordination import ModelParams

#: Negative densities above this magnitude indicate solver failure rather
#: than rounding noise.
NEGATIVE_DENSITY_FLOOR = -1e-6

#: When c = 1, density grids must stay at least this far from zero, where
#: the limit law may have its hard edge.
ZERO_GUARD = 1e-6

#: Newton steps allowed per continuation stage, and stage splits per solve.
_NEWTON_STEPS = 40
_MAX_SPLITS = 60

#: A warm-started root with Im u <= _AXIS_GUARD (1 + |u|) is a real root of
#: phi(u) = x inside a complement interval, not the boundary value of omega.
_AXIS_GUARD = 1e-9


@dataclass(frozen=True)
class GSolution:
    """Solved transform value at one query point; ``iterations`` counts
    Newton steps and ``residual`` is |F(g) - g|."""

    z: complex
    g: complex
    iterations: int
    residual: float


@dataclass(frozen=True)
class DensityGrid:
    """Density values on an ordered grid; NaN marks points that failed to
    solve.  ``eps_used`` is the distance from the real axis, always 0.0."""

    xs: tuple[float, ...]
    fs: tuple[float, ...]
    eps_used: float


def _fp_map(p: ModelParams, z: complex, g: complex) -> complex:
    w = 1.0 - p.sigma ** 2 * p.c * g
    zeta = z * w * w - p.sigma ** 2 * (1.0 - p.c) * w
    if zeta.imag == 0.0:
        zeta = complex(zeta.real, 1e-300)
    return w * measure.g_nu(p.nu, zeta)


def _g_mu(p: ModelParams, u: complex) -> complex:
    gn = measure.g_nu(p.nu, u)
    return gn / (1.0 + p.sigma ** 2 * p.c * gn)


def _newton(p: ModelParams, z: complex, u: complex, tol: float = 1e-12
            ) -> tuple[complex | None, int]:
    """Newton on phi(u) = z from u: the root and the steps taken, with None
    for the root when a step leaves the upper half plane or the run does not
    settle.  It settles when a step is below tol (1 + |u|), or when steps
    below 1e-8 (1 + |u|) stop shrinking (the rounding floor)."""
    prev = math.inf
    for k in range(1, _NEWTON_STEPS + 1):
        try:
            step = (subordination.phi(p, u) - z) / subordination.phi_prime(p, u)
        except ZeroDivisionError:
            return None, k
        u -= step
        if not (u.imag > 0.0 and abs(u) < math.inf):
            return None, k
        s, scale = abs(step), 1.0 + abs(u)
        if s <= tol * scale or prev <= s <= 1e-8 * scale:
            return u, k
        prev = s
    return None, _NEWTON_STEPS


def _omega(p: ModelParams, z: complex, warm: complex | None = None
           ) -> tuple[complex, int]:
    """The root u of phi(u) = z with Im u > 0, for Im z >= 0, and the Newton
    steps taken.  A warm root is kept unless it is within _AXIS_GUARD of the
    real axis; otherwise Newton runs down the stages z + i 2^m, m = m_hi,
    m_hi - 3, ... >= 0, and then z, each started from the root before and
    solved to 1e-4 until the last.  A stage that fails is retried after one
    halfway back to the last stage solved."""
    steps = 0
    if warm is not None:
        u, steps = _newton(p, z, warm)
        if u is not None and u.imag > _AXIS_GUARD * (1.0 + abs(u)):
            return u, steps
    span = measure.support_of(p.nu).max + p.sigma ** 2
    m_hi = math.ceil(math.log2(max(1.0, abs(z), span))) + 1
    u = complex(z.real - p.sigma ** 2 * (1.0 + p.c), z.imag + 2.0 ** m_hi)
    todo = [0.0] + [2.0 ** m for m in range(m_hi % 3, m_hi + 1, 3)]  # pop() is next
    solved = None  # offset of the last stage solved
    splits = 0
    while todo:
        h = todo.pop()
        root, k = _newton(p, complex(z.real, z.imag + h), u, 1e-4 if h else 1e-12)
        steps += k
        if root is not None:
            u, solved = root, h
        elif solved is None or splits == _MAX_SPLITS:
            raise ConvergenceError(f"Newton continuation failed at z={z!r}, "
                                   f"offset {h!r}")
        else:
            todo += [h, 0.5 * (solved + h)]
            splits += 1
    return u, steps


def solve_g(p: ModelParams, z: complex, tol: float = 1e-12) -> GSolution:
    """Solve for the transform g at z in the upper half plane.

    Finds u = omega(z) by Newton continuation (see ``_omega``) and returns
    g = g_nu(u) / (1 + s^2 c g_nu(u)), after up to three more Newton steps
    while |F(g) - g| > tol.  Raises ConvergenceError unless
    |F(g) - g| <= tol and g satisfies the half-plane sign constraints
    Im g < 0 and Im(z g) <= 0.
    """
    z = complex(z)
    if z.imag <= 0.0:
        raise DomainError(f"solve_g requires Im z > 0, got {z!r}")
    if p.sigma == 0.0:
        g = measure.g_nu(p.nu, z)
        return GSolution(z=z, g=g, iterations=0, residual=0.0)
    u, steps = _omega(p, z)
    for k in range(4):  # at the rounding floor Newton steps dither around u
        g = _g_mu(p, u)
        r = abs(_fp_map(p, z, g) - g)
        if r <= tol or k == 3:
            break
        u -= (subordination.phi(p, u) - z) / subordination.phi_prime(p, u)
    steps += k
    if not (r <= tol and g.imag < 0.0):
        raise ConvergenceError(f"no solution at z={z!r}: residual {r!r}, g={g!r}")
    if (z * g).imag > 1e-12 * max(1.0, abs(z * g)):
        raise ConvergenceError(f"solution at z={z!r} violates Im(z g) <= 0")
    return GSolution(z=z, g=g, iterations=steps, residual=r)


def near_zero(p: ModelParams, x):
    """Whether x is inside the neighbourhood of zero that density grids must
    avoid (only when c = 1); elementwise for an array."""
    return (p.c == 1.0) & (np.abs(x) < ZERO_GUARD)


def density(p: ModelParams, xs) -> DensityGrid:
    """Density of the limit law on an ordered grid, -Im g(x) / pi.

    g is solved on the real axis itself, each point warm-started from the
    last.  Values in [-1e-6, 0) clamp to zero; anything below that, or a
    failed solve, marks the point invalid (NaN) instead of failing the whole
    grid.  Points not strictly inside a support interval (the edges and the
    gaps) get exactly zero without a solve.  The grid must stay within a
    bounding box around the computed support and outside ``near_zero``.
    """
    sup = subordination.support(p)
    xs = [float(x) for x in xs]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise DomainError("density grid must be ascending")
    lo = min(0.0, sup.intervals[0][0])
    hi = sup.intervals[-1][1]
    pad = 0.5 * (hi - lo) + 1.0
    for x in xs:
        if not lo - pad <= x <= hi + pad:
            raise DomainError(f"grid point {x!r} outside the support bounding box")
        if near_zero(p, x):
            raise DomainError(f"grid may not enter the {ZERO_GUARD} "
                              "neighborhood of zero when c = 1")
    warm = None
    fs = []
    for x in xs:
        if not any(a < x < b for a, b in sup.intervals):
            fs.append(0.0)
            continue
        try:
            warm, _ = _omega(p, complex(x, 0.0), warm)
            f = -_g_mu(p, warm).imag / math.pi
        except ConvergenceError:
            f = math.nan
        fs.append(max(f, 0.0) if f >= NEGATIVE_DENSITY_FLOOR else math.nan)
    return DensityGrid(xs=tuple(xs), fs=tuple(fs), eps_used=0.0)


# ---------------------------------------------------------------------------
# CDF table: adaptive Simpson panels per support interval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _IntervalCdf:
    """CDF table of one support interval [lo, hi] in the cosine parameter t
    of x = lo + (hi - lo)(1 - cos t)/2.  Panel i spans [edges[i], edges[i+1]]
    (the last edge is pi); ``cum[i]`` is the raw mass below ``edges[i]`` and
    ``left`` the nu-mass of the intervals to the left of this one.
    """

    lo: float
    hi: float
    edges: tuple[float, ...]
    panels: tuple[tuple[float, float, float, float], ...]  # f0, fm, f1, mass
    cum: tuple[float, ...]
    nu_mass: float
    left: float

    def raw_below(self, i: int, t: float) -> float:
        """Raw mass below t, read from panel i: the Simpson parabola through
        the panel's three values, integrated from the panel start to t."""
        t0 = self.edges[i]
        h = self.edges[i + 1] - t0
        f0, fm, f1, mass = self.panels[i]
        s = min(max((t - t0) / h, 0.0), 1.0)
        i0 = (2.0 / 3.0) * s ** 3 - 1.5 * s ** 2 + s
        im = -(4.0 / 3.0) * s ** 3 + 2.0 * s ** 2
        i1 = (2.0 / 3.0) * s ** 3 - 0.5 * s ** 2
        val = h * (f0 * i0 + fm * im + f1 * i1)
        return self.cum[i] + min(max(val, 0.0), mass)

    def cdf(self, i: int, t: float) -> float:
        """CDF of the limit law at t, with the raw mass rescaled to nu_mass."""
        raw = self.cum[-1]
        if raw > 0.0:
            return self.left + self.nu_mass * self.raw_below(i, t) / raw
        return self.left


def _refine(f, a, b, fa, fm, fb, whole, tol, depth, out) -> None:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    if abs(left + right - whole) <= 15.0 * tol or depth >= 22:
        out.append((a, fa, flm, fm, left))
        out.append((m, fm, frm, fb, right))
        return
    _refine(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1, out)
    _refine(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1, out)


def _interval_cdf(p: ModelParams, lo: float, hi: float, nu_mass: float,
                  left: float) -> _IntervalCdf:
    half = 0.5 * (hi - lo)
    warm = None

    def integrand(t: float) -> float:
        nonlocal warm
        x = lo + half * (1.0 - math.cos(t))
        if not (0.0 < t < math.pi and lo < x < hi):
            return 0.0
        warm, _ = _omega(p, complex(x, 0.0), warm)
        f = -_g_mu(p, warm).imag / math.pi
        if f < NEGATIVE_DENSITY_FLOOR:
            raise ConvergenceError(f"density solve failed inside [{lo}, {hi}]")
        return max(f, 0.0) * half * math.sin(t)

    fa, fm, fb = integrand(0.0), integrand(0.5 * math.pi), integrand(math.pi)
    panels: list[tuple] = []
    _refine(integrand, 0.0, math.pi, fa, fm, fb,
            math.pi * (fa + 4.0 * fm + fb) / 6.0, 1e-6, 0, panels)
    return _IntervalCdf(
        lo=lo, hi=hi, edges=tuple(pn[0] for pn in panels) + (math.pi,),
        panels=tuple(pn[1:] for pn in panels),
        cum=tuple(itertools.accumulate((pn[4] for pn in panels), initial=0.0)),
        nu_mass=nu_mass, left=left)


@functools.lru_cache(maxsize=None)
def _cdf_data(p: ModelParams) -> tuple[_IntervalCdf, ...]:
    sup = subordination.support(p)
    adm = sup.admissible
    out = []
    left = 0.0
    for l, (lo, hi) in enumerate(sup.intervals):
        nu_mass = measure.mass_between(p.nu, adm.u[l], adm.v[l])
        out.append(_interval_cdf(p, lo, hi, nu_mass, left))
        left += nu_mass
    return tuple(out)


def interval_masses(p: ModelParams) -> tuple[float, ...]:
    """Raw quadrature mass of the density over each support interval.

    These are not normalized; comparing them against the nu-mass of the
    matching [u_l, v_l] interval is the mass-correspondence verification.
    """
    return tuple(ic.cum[-1] for ic in _cdf_data(p))


def cdf_mu(p: ModelParams, x: float) -> float:
    """CDF of the limit law; each support interval carries its nu-mass.

    The per-interval quadrature is rescaled so interval l carries exactly
    the mass nu([u_l, v_l]) (the mass-correspondence identity), which pins
    gap plateaus and the total mass to their exact values.  A NaN x raises
    DomainError.
    """
    if math.isnan(x):
        raise DomainError("cdf_mu is undefined at NaN")
    data = _cdf_data(p)
    for ic in data:
        if not x >= ic.hi:
            break
    else:
        return min(ic.left + ic.nu_mass, 1.0)
    if not x > ic.lo:
        return min(ic.left, 1.0)
    half = 0.5 * (ic.hi - ic.lo)
    t = math.acos(min(max(1.0 - (x - ic.lo) / half, -1.0), 1.0))
    i = bisect_right(ic.edges, t, 1, len(ic.panels)) - 1  # the panel holding t
    return min(ic.cdf(i, t), 1.0)


def quantile_mu(p: ModelParams, alpha: float) -> float:
    """Generalized inverse of ``cdf_mu`` for alpha strictly inside (0, 1).

    Reads the CDF table backwards: the interval from the nu-masses, the
    panel by bisection on the CDF at the panel edges, then a bisection in t
    inside that panel on the same function ``cdf_mu`` reads.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {alpha!r}")
    data = _cdf_data(p)
    for ic in data:
        if alpha <= ic.left + ic.nu_mass + 1e-15:
            break
    else:
        return data[-1].hi
    i = bisect_left(range(len(ic.panels) - 1), True,
                    key=lambda j: ic.cdf(j, ic.edges[j + 1]) >= alpha)
    a, b = ic.edges[i], ic.edges[i + 1]
    mid = 0.5 * (a + b)
    while a < mid < b:
        if ic.cdf(i, mid) >= alpha:
            b = mid
        else:
            a = mid
        mid = 0.5 * (a + b)
    return ic.lo + 0.5 * (ic.hi - ic.lo) * (1.0 - math.cos(mid))


def h_residual(p: ModelParams, x: float) -> float:
    """Residual of the rectangular-convolution subordination identity at x.

    Compares c*u*g_nu(u)^2 + (1-c)*g_nu(u) at u = omega(x) with
    c*x*g(x)^2 + (1-c)*g(x), the transform g being evaluated just above the
    real axis.  Vanishes identically on the model; the returned modulus is
    pure numerical error.
    """
    u = subordination.omega(p, x)
    return _h_residual(p, x, u, solve_g(p, complex(x, 1e-9)).g)


def _h_residual(p: ModelParams, x: float, u: float, gm: complex) -> float:
    """``h_residual`` from u = omega(x) and g = g(x + 1e-9i) already solved."""
    if measure.support_of(p.nu).distance(u) <= measure.ATOL:
        raise DomainError(f"omega({x!r}) landed on supp(nu)")
    gn = measure.g_nu(p.nu, u)
    lhs = p.c * u * gn * gn + (1.0 - p.c) * gn
    rhs = p.c * x * gm * gm + (1.0 - p.c) * gm
    return abs(lhs - rhs)
