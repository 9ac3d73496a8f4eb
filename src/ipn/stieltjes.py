"""Transform solver for the limit law, and its density, CDF and quantiles.

The Stieltjes transform of the limit law is g = g_nu(u) / (1 + s^2 c g_nu(u))
at u = omega(z), the root of phi(u) = z with Im u > 0; g is also the fixed
point of F(g) = (1 - s^2 c g) g_nu(z (1 - s^2 c g)^2 - s^2 (1-c)(1 - s^2 c g)).
``solve_g`` finds u by Newton on ``phi``, continued down from z + i 2^m.  The
same solve at a real x inside the open support gives the density -Im g / pi
without extrapolation; off the open support it is exactly zero.  The CDF has
a closed form at the same root (``_cdf_at``), which on a gap reduces to the
mass correspondence mu((-inf, x]) = nu((-inf, omega(x)]).  One table per
support interval holds adaptive Simpson nodes with their roots and exact CDF
values: ``cdf_mu`` warm-starts from them and ``quantile_mu`` brackets its
Newton run between two of them, while the Simpson mass of the density
(``interval_masses``) stays an independent check.  ``h_residual`` checks the
rectangular-convolution subordination identity.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import measure, subordination
from .errors import ConvergenceError, DomainError
from .subordination import ModelParams

#: Negative densities above this magnitude indicate solver failure rather
#: than rounding noise.
NEGATIVE_DENSITY_FLOOR = -1e-6

#: Fixed-point residual |F(g) - g| that ``solve_g`` aims for; it accepts up
#: to RESIDUAL_TOL max(1, |g|).
RESIDUAL_TOL = 1e-12

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
    """Density values on an ordered grid, each finite and nonnegative.
    ``eps_used`` is the distance from the real axis, always 0.0."""

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
            f, fp = subordination.phi_and_prime(p, u)
            step = (f - z) / fp
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


def solve_g(p: ModelParams, z: complex) -> GSolution:
    """Solve for the transform g at z in the upper half plane.

    Finds u = omega(z) by Newton continuation (see ``_omega``) and returns
    g = g_nu(u) / (1 + s^2 c g_nu(u)), after up to three more Newton steps
    while |F(g) - g| > RESIDUAL_TOL.  Raises ConvergenceError unless
    |F(g) - g| <= RESIDUAL_TOL max(1, |g|) (the rounding floor grows with
    |g|) and g satisfies the half-plane sign constraints Im g < 0 and
    Im(z g) <= 0.
    """
    z = complex(z)
    if z.imag <= 0.0:
        raise DomainError(f"solve_g requires Im z > 0, got {z!r}")
    u, steps = _omega(p, z)
    for k in range(4):  # at the rounding floor Newton steps dither around u
        g = _g_mu(p, u)
        r = abs(_fp_map(p, z, g) - g)
        if r <= RESIDUAL_TOL or k == 3:
            break
        f, fp = subordination.phi_and_prime(p, u)
        u -= (f - z) / fp
    steps += k
    if not (r <= RESIDUAL_TOL * max(1.0, abs(g)) and g.imag < 0.0):
        raise ConvergenceError(f"no solution at z={z!r}: residual {r!r}, g={g!r}")
    if (z * g).imag > 1e-12 * max(1.0, abs(z * g)):
        raise ConvergenceError(f"solution at z={z!r} violates Im(z g) <= 0")
    return GSolution(z=z, g=g, iterations=steps, residual=r)


def _density_at(p: ModelParams, x: float, warm: complex | None
                ) -> tuple[float, complex]:
    """Density -Im g(x) / pi at x strictly inside the support, and the root
    u = omega(x + i0) it came from, solved warm from ``warm``.  Values in
    [NEGATIVE_DENSITY_FLOOR, 0) clamp to zero; a lower value or NaN raises
    ConvergenceError, as does a failed solve."""
    u, _ = _omega(p, complex(x, 0.0), warm)
    f = -_g_mu(p, u).imag / math.pi
    if not f >= NEGATIVE_DENSITY_FLOOR:
        raise ConvergenceError(f"density solve failed at x={x!r}: {f!r}")
    return max(f, 0.0), u


def density(p: ModelParams, xs) -> DensityGrid:
    """Density of the limit law on an ordered grid, -Im g(x) / pi.

    g is solved on the real axis itself, each point warm-started from the
    last (see ``_density_at``); a point that fails raises ConvergenceError.
    Points not strictly inside a support interval (the edges and the gaps)
    get exactly zero without a solve, so a hard edge at zero (c = 1) reads
    0 there and is solved like any other point just above it.  The grid
    must stay within a bounding box around the computed support.
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
    warm = None
    fs = []
    for x in xs:
        if not any(a < x < b for a, b in sup.intervals):
            fs.append(0.0)
            continue
        f, warm = _density_at(p, x, warm)
        fs.append(f)
    return DensityGrid(xs=tuple(xs), fs=tuple(fs), eps_used=0.0)


# ---------------------------------------------------------------------------
# CDF: closed form at omega, and a table of adaptive Simpson nodes
# ---------------------------------------------------------------------------

def _cdf_at(p: ModelParams, x: float, u: complex) -> float:
    """CDF of the limit law at x inside the support, from u = omega(x + i0).

    With g = g_nu(u), a = 1 + s^2 c g and L_nu = ``measure.log_potential``,
    Lambda(u) = L_nu(u) + (x - u - 2 s^2 c u g - s^2 (1-c) log a) / (s^2 c)
    has derivative g_mu(phi(u)) phi'(u), so Lambda(omega(z)) is the integral
    of log(z - t) dmu(t) up to a real constant, and its imaginary part is
    pi mu((x, inf)).  Returns 1 - Im Lambda(u) / pi clamped to [0, 1].
    """
    s2c = p.sigma ** 2 * p.c
    g = measure.g_nu(p.nu, u)
    a = 1.0 + s2c * g
    lam = measure.log_potential(p.nu, u) + (
        x - u - 2.0 * s2c * u * g - p.sigma ** 2 * (1.0 - p.c) * cmath.log(a)) / s2c
    return min(max(1.0 - lam.imag / math.pi, 0.0), 1.0)


@dataclass(frozen=True)
class _IntervalCdf:
    """CDF table of one support interval: the Simpson mass of the density
    over it, the adaptive Simpson nodes xs (ascending, both edges included),
    the roots u = omega(x + i0) found there (None at the edges, where omega
    is real) and the exact CDF at each node (the nu-mass plateaus at the
    edges)."""

    mass: float
    xs: tuple[float, ...]
    us: tuple[complex | None, ...]
    fs: tuple[float, ...]

    def warm(self, x: float) -> complex:
        """The root at the interior node nearest to x."""
        j = bisect_left(self.xs, x, 1, len(self.xs) - 1)
        k = j - 1 if x - self.xs[j - 1] <= self.xs[j] - x else j
        return self.us[min(max(k, 1), len(self.xs) - 2)]


def _refine(f, a, b, fa, fm, fb, whole, tol, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    if abs(left + right - whole) <= 15.0 * tol or depth >= 22:
        return left + right
    return (_refine(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
            + _refine(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))


def _interval_cdf(p: ModelParams, lo: float, hi: float, below: float,
                  above: float) -> _IntervalCdf:
    """Table of [lo, hi] with CDF plateaus ``below`` and ``above``: adaptive
    Simpson in the cosine parameter t of x = lo + (hi - lo)(1 - cos t)/2."""
    half = 0.5 * (hi - lo)
    roots: dict[float, complex] = {}
    warm = None

    def integrand(t: float) -> float:
        nonlocal warm
        x = lo + half * (1.0 - math.cos(t))
        if not (0.0 < t < math.pi and lo < x < hi):
            return 0.0
        f, warm = _density_at(p, x, warm)
        roots[x] = warm
        return f * half * math.sin(t)

    fa, fm, fb = integrand(0.0), integrand(0.5 * math.pi), integrand(math.pi)
    mass = _refine(integrand, 0.0, math.pi, fa, fm, fb,
                   math.pi * (fa + 4.0 * fm + fb) / 6.0, 1e-6, 0)
    xs = sorted(roots)
    return _IntervalCdf(
        mass=mass, xs=(lo, *xs, hi), us=(None, *(roots[x] for x in xs), None),
        fs=(below, *(_cdf_at(p, x, roots[x]) for x in xs), above))


@functools.lru_cache(maxsize=None)
def _cdf_data(p: ModelParams) -> tuple[_IntervalCdf, ...]:
    sup = subordination.support(p)
    out = []
    left = 0.0
    for (lo, hi), (u_l, v_l) in zip(sup.intervals, sup.admissible.intervals):
        nu_mass = measure.mass_between(p.nu, u_l, v_l)
        out.append(_interval_cdf(p, lo, hi, min(left, 1.0), min(left + nu_mass, 1.0)))
        left += nu_mass
    return tuple(out)


def interval_masses(p: ModelParams) -> tuple[float, ...]:
    """Adaptive Simpson mass of the density over each support interval.

    This quadrature is independent of the closed-form CDF; comparing each
    mass against the nu-mass of the matching [u_l, v_l] interval is the
    mass-correspondence verification.
    """
    return tuple(ic.mass for ic in _cdf_data(p))


def cdf_mu(p: ModelParams, x):
    """CDF of the limit law at x, a float or elementwise a numpy array.

    Off the open support it is the nu-mass of the complement intervals
    [u_l, v_l] to the left of x (the mass-correspondence identity), so gap
    plateaus and the total mass are exact.  Inside a support interval it is
    the closed form ``_cdf_at`` at u = omega(x + i0), solved warm from the
    last point when the points ascend inside one interval, else from the
    nearest table node.  A NaN anywhere in x raises DomainError.
    """
    data = _cdf_data(p)
    out = []
    last = None  # (x, u) of the last point solved
    for xk in np.ravel(x).tolist():
        if math.isnan(xk):
            raise DomainError("cdf_mu is undefined at NaN")
        for ic in data:
            if not xk >= ic.xs[-1]:
                break
        else:
            out.append(ic.fs[-1])
            continue
        if not xk > ic.xs[0]:
            out.append(ic.fs[0])
            continue
        warm = last[1] if last and ic.xs[0] < last[0] <= xk else ic.warm(xk)
        u, _ = _omega(p, complex(xk, 0.0), warm)
        last = (xk, u)
        out.append(_cdf_at(p, xk, u))
    if np.ndim(x) == 0:
        return out[0]
    return np.array(out).reshape(np.shape(x))


def quantile_mu(p: ModelParams, alpha: float) -> float:
    """Generalized inverse of ``cdf_mu`` for alpha strictly inside (0, 1).

    The support interval comes from the nu-masses and the bracket between
    two adjacent table nodes from bisection on the node CDF values; inside
    it, Newton on ``cdf_mu`` - alpha with the density as the derivative,
    kept inside the shrinking bracket (bisection where the density is 0).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {alpha!r}")
    data = _cdf_data(p)
    for ic in data:
        if alpha <= ic.fs[-1] + 1e-15:
            break
    else:
        return data[-1].xs[-1]
    j = bisect_left(ic.fs, alpha)  # ic.fs[j - 1] < alpha <= ic.fs[j]
    if j == len(ic.fs) or ic.fs[j] == alpha:
        return ic.xs[min(j, len(ic.xs) - 1)]
    a, b = ic.xs[j - 1], ic.xs[j]
    x_last, u = None, ic.us[j - 1] or ic.us[j]

    def solve(x: float) -> complex:
        nonlocal x_last, u
        if x != x_last:
            u, _ = _omega(p, complex(x, 0.0), u)
            x_last = x
        return u

    def f(x: float) -> float:
        return ic.fs[j - 1] - alpha if x <= a else _cdf_at(p, x, solve(x)) - alpha

    return subordination._bracketed_root(
        f, a, b, 1e-15 * (1.0 + abs(b)),
        lambda x: (f(x), -_g_mu(p, solve(x)).imag / math.pi))


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
