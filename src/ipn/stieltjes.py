"""Transform solver for the limit law, and its density, CDF and quantiles.

The Stieltjes transform of the limit law is g = g_nu(u) / (1 + s^2 c g_nu(u))
at u = omega(z), the root of phi(u) = z with Im u > 0; g is also the fixed
point of F(g) = (1 - s^2 c g) g_nu(z (1 - s^2 c g)^2 - s^2 (1-c)(1 - s^2 c g)).
``solve_g`` finds u by one Newton run on ``phi`` from a start next to the
root: when Re z lies off the support, omega(Re z) + i Im z /
phi'(omega(Re z)), the first order of omega about the real axis; when it is
strictly inside a support interval, the root of the nearest CDF table node.
On an edge, or when that run fails, the continuation down from z + i 2^m
runs once.  The same solve at a real x inside the open support gives the
density -Im g / pi without extrapolation; off the open support it is
exactly zero.  The CDF has a closed form at the same
root (``_cdf_at``), which on a gap reduces to the mass correspondence
mu((-inf, x]) = nu((-inf, omega(x)]).  One table per model holds adaptive
Simpson nodes over every support interval with their roots and exact CDF
values, and one ``locate`` finds a point in it: the CDF plateau off the
open support, the nearest node's root to start Newton from inside.  Scalar
and array ``cdf_mu`` and ``density`` read through it, ``quantile_mu``
brackets its Newton run between two nodes (its first iterate, the secant
point of that bracket, is the table's linear interpolation), ``solve_g``
starts from it inside the support, and the Simpson mass of the density
(``interval_masses``) stays an independent check.  An array read solves its
interior points together by Newton sweeps over complex numpy arrays
(``_read_interior``); a point a sweep does not settle falls back to
``_omega``.  ``_h_residual`` checks the rectangular-convolution
subordination identity at a root already solved.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import measure, subordination
from .errors import ConvergenceError, DomainError
from .subordination import ModelParams

#: Negative densities above this magnitude indicate solver failure rather
#: than rounding noise.
NEGATIVE_DENSITY_FLOOR = -1e-6

#: ``solve_g`` accepts g when its fixed-point residual |F(g) - g| is at most
#: RESIDUAL_TOL max(1, |g|).
RESIDUAL_TOL = 1e-12

#: Newton steps allowed per continuation stage, and stage splits per solve.
_NEWTON_STEPS = 40
_MAX_SPLITS = 60

#: Newton's stop rule, for scalar and batched runs alike: a run settles when
#: a step is below _STEP_TOL (1 + |u|), or when steps below _FLOOR_TOL
#: (1 + |u|) stop shrinking (the rounding floor).
_STEP_TOL = 1e-12
_FLOOR_TOL = 1e-8

#: A warm-started root with Im u <= _AXIS_GUARD (1 + |u|) is a real root of
#: phi(u) = x inside a complement interval, not the boundary value of omega.
_AXIS_GUARD = 1e-9

#: Points per batched sweep of ``_read_interior``.  A sweep holds a few
#: dozen complex temporaries of this length; at 20,000 points in one sweep
#: they raised the peak memory of the KS pass from 1.6 to 6.3 MB.
_SWEEP_POINTS = 2048


@dataclass(frozen=True, slots=True)
class GSolution:
    """Solved transform value at one query point; ``iterations`` counts
    Newton steps and ``residual`` is |F(g) - g|.  The point itself is the
    caller's and is not kept here, nor is a ``__dict__``: callers that keep
    many solutions hold three slots each."""

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


def _newton(p: ModelParams, z: complex, u: complex, tol: float = _STEP_TOL
            ) -> tuple[complex | None, int]:
    """Newton on phi(u) = z from u: the root and the steps taken, with None
    for the root when a step leaves the upper half plane or the run does not
    settle.  It settles when a step is below tol (1 + |u|), or when steps
    below _FLOOR_TOL (1 + |u|) stop shrinking (the rounding floor)."""
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
        if s <= tol * scale or prev <= s <= _FLOOR_TOL * scale:
            return u, k
        prev = s
    return None, _NEWTON_STEPS


def _omega(p: ModelParams, z: complex, warm: complex | None = None
           ) -> tuple[complex, int]:
    """The root u of phi(u) = z with Im u > 0, for Im z >= 0, and the Newton
    steps taken.  A warm root, which the real-axis reads pass (``cdf_mu``,
    ``quantile_mu``, the table build and ``_omega_array``'s fallback), is
    kept unless it is within _AXIS_GUARD of the real axis; otherwise Newton
    runs down the stages z + i 2^m, m = m_hi, m_hi - 3, ... >= 0, and then
    z, each started from the root before and solved to 1e-4 until the last.
    A stage that fails is retried after one halfway back to the last stage
    solved."""
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
        root, k = _newton(p, complex(z.real, z.imag + h), u, 1e-4 if h else _STEP_TOL)
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

    Finds u = omega(z) by one Newton run on phi(u) = z from a start next to
    the root, which depends on where x = Re z lies:
    - off the support: omega(x) + i Im z / phi'(omega(x)), the first order
      of omega about the real axis, when phi'(omega(x)) > 0; the table is
      not built;
    - strictly inside a support interval: the root of the CDF table node
      nearest x (see ``_CdfTable.locate``), at any Im z;
    - on an edge: no start.
    Where there is no start, the run fails, or its g fails the checks below,
    the continuation of ``_omega`` down from z + i 2^m runs once.  Returns
    g = g_nu(u) / (1 + s^2 c g_nu(u)) at the root, with ``iterations`` the
    Newton steps of both runs.  Raises ConvergenceError unless |F(g) - g| <=
    RESIDUAL_TOL max(1, |g|) (the rounding floor grows with |g|) and g
    satisfies the half-plane sign constraints Im g < 0 and Im(z g) <= 0.
    """
    z = complex(z)
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        raise DomainError(f"solve_g requires a finite z with Im z > 0, got {z!r}")
    sup = subordination.support(p)
    at, u, steps = sup.interval_index(z.real), None, 0
    if at is None:  # off the support phi is real and increasing at omega(x)
        u0 = subordination.omega(p, z.real)
        slope = subordination.phi_prime(p, u0)
        if slope > 0.0:
            u, steps = _newton(p, z, complex(u0, z.imag / slope))
    elif sup.intervals[at][0] < z.real < sup.intervals[at][1]:
        u, steps = _newton(p, z, _cdf_data(p).locate(z.real)[2])
    if u is not None:
        try:
            return _accepted(p, z, u, steps)
        except ConvergenceError:
            pass  # the continuation's turn
    u, k = _omega(p, z)
    return _accepted(p, z, u, steps + k)


def _accepted(p: ModelParams, z: complex, u: complex, steps: int) -> GSolution:
    """The solution g = g_mu(u) at z, taken in ``steps`` Newton steps; raises
    ConvergenceError where ``solve_g`` says."""
    g = _g_mu(p, u)
    r = abs(_fp_map(p, z, g) - g)
    if not (r <= RESIDUAL_TOL * max(1.0, abs(g)) and g.imag < 0.0):
        raise ConvergenceError(f"no solution at z={z!r}: residual {r!r}, g={g!r}")
    if (z * g).imag > 1e-12 * max(1.0, abs(z * g)):
        raise ConvergenceError(f"solution at z={z!r} violates Im(z g) <= 0")
    return GSolution(g=g, iterations=steps, residual=r)


def _density_from(p: ModelParams, x, u):
    """Density -Im g(x) / pi at x strictly inside the support from its root
    u = omega(x + i0); elementwise for arrays x and u.  Values in
    [NEGATIVE_DENSITY_FLOOR, 0) clamp to zero; a lower value or NaN raises
    ConvergenceError.  The table integrand and ``density`` both read it."""
    f = -_g_mu(p, u).imag / math.pi
    low = f.min(initial=0.0) if isinstance(f, np.ndarray) else f  # NaN propagates
    if not low >= NEGATIVE_DENSITY_FLOOR:
        at = np.ravel(x)[np.argmin(f)]  # the first NaN, if any
        raise ConvergenceError(f"density solve failed at x={float(at)!r}: {float(low)!r}")
    return np.maximum(f, 0.0) if isinstance(f, np.ndarray) else f if f >= 0.0 else 0.0


def density(p: ModelParams, xs) -> DensityGrid:
    """Density of the limit law on an ordered grid, -Im g(x) / pi.

    g is solved on the real axis itself, by the table-warm sweep that an
    array ``cdf_mu`` reads (``_read_interior``); a point that fails raises
    ConvergenceError.  Points not strictly inside a support interval (the
    edges and the gaps, zero too when it is the hard edge at c = 1) get
    exactly zero.  The grid must lie in a bounding box around the support.
    """
    sup = subordination.support(p)
    xs = [float(x) for x in xs]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise DomainError("density grid must be ascending")
    lo, hi = min(0.0, sup.intervals[0][0]), sup.intervals[-1][1]
    pad = 0.5 * (hi - lo) + 1.0
    for x in xs:
        if not lo - pad <= x <= hi + pad:
            raise DomainError(f"grid point {x!r} outside the support bounding box")
    fs, inner = _read_interior(p, np.array(xs, dtype=float), _density_from)
    fs[~inner] = 0.0
    return DensityGrid(xs=tuple(xs), fs=tuple(fs.tolist()), eps_used=0.0)


# ---------------------------------------------------------------------------
# CDF: closed form at omega, and a table of adaptive Simpson nodes
# ---------------------------------------------------------------------------

def _cdf_at(p: ModelParams, x, u):
    """CDF of the limit law at x inside the support, from u = omega(x + i0);
    elementwise for arrays x and u.

    With g = g_nu(u), a = 1 + s^2 c g and L_nu = ``measure.log_potential``,
    Lambda(u) = L_nu(u) + (x - u - 2 s^2 c u g - s^2 (1-c) log a) / (s^2 c)
    has derivative g_mu(phi(u)) phi'(u), so Lambda(omega(z)) is the integral
    of log(z - t) dmu(t) up to a real constant, and its imaginary part is
    pi mu((x, inf)).  Returns 1 - Im Lambda(u) / pi clamped to [0, 1].
    """
    s2c = p.sigma ** 2 * p.c
    g = measure.g_nu(p.nu, u)
    a = 1.0 + s2c * g
    log = np.log if isinstance(u, np.ndarray) else cmath.log
    lam = measure.log_potential(p.nu, u) + (
        x - u - 2.0 * s2c * u * g - p.sigma ** 2 * (1.0 - p.c) * log(a)) / s2c
    f = 1.0 - lam.imag / math.pi
    return np.clip(f, 0.0, 1.0) if isinstance(f, np.ndarray) else min(max(f, 0.0), 1.0)


@dataclass(frozen=True)
class _CdfTable:
    """CDF table of a model: the Simpson mass of the density over each
    support interval, and the adaptive Simpson nodes xs of all of them
    (ascending, edges included) with their roots u = omega(x + i0), an edge
    holding its interior neighbour's, and their exact CDF fs (the nu-mass
    plateaus at the edges).  tops[k] indexes the upper edge of interval k,
    caps[k] = fs[tops[k]] + 1e-15; ends[j] is the upper edge of the interval
    holding (xs[j-1], xs[j]], or -inf where that span is a gap or off it."""

    masses: tuple[float, ...]
    xs: np.ndarray
    us: np.ndarray
    fs: np.ndarray
    tops: tuple[int, ...]
    caps: np.ndarray
    ends: np.ndarray

    def locate(self, x):
        """(plateau, inside, warm) at x, elementwise for an array x: the CDF
        at x unless x is strictly inside a support interval, whether it is,
        and inside, the root at the node nearest to x to start Newton from."""
        xs = self.xs
        j = xs.searchsorted(x)  # xs[j-1] < x <= xs[j]
        if isinstance(x, np.ndarray):
            i = np.clip(j, 1, len(xs) - 1)
            k = np.where(x - xs[i - 1] <= xs[i] - x, i - 1, i)
            return self.fs[np.minimum(j, len(xs) - 1)], x < self.ends[j], self.us[k]
        j = int(j)  # Python scalars here: numpy's per-call overhead shows in point reads
        if not x < self.ends.item(j):
            return self.fs.item(j if j < len(xs) else -1), False, None
        a, b = xs.item(j - 1), xs.item(j)
        return self.fs.item(j), True, self.us.item(j - 1 if x - a <= b - x else j)


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


def _interval_nodes(p: ModelParams, lo: float, hi: float, below: float,
                    above: float) -> tuple[float, list, list, list]:
    """The mass and the (xs, us, fs) nodes of [lo, hi], edges included, for
    ``_CdfTable``, with CDF plateaus ``below`` and ``above``: adaptive
    Simpson in the cosine parameter t of x = lo + (hi - lo)(1 - cos t)/2."""
    half = 0.5 * (hi - lo)
    roots: dict[float, complex] = {}
    warm = None

    def integrand(t: float) -> float:
        nonlocal warm
        x = lo + half * (1.0 - math.cos(t))
        if not (0.0 < t < math.pi and lo < x < hi):
            return 0.0
        warm, _ = _omega(p, complex(x, 0.0), warm)
        roots[x] = warm
        return _density_from(p, x, warm) * half * math.sin(t)

    fa, fm, fb = integrand(0.0), integrand(0.5 * math.pi), integrand(math.pi)
    mass = _refine(integrand, 0.0, math.pi, fa, fm, fb,
                   math.pi * (fa + 4.0 * fm + fb) / 6.0, 1e-6, 0)
    xs = sorted(roots)
    us = [roots[x] for x in xs]
    return (mass, [lo, *xs, hi], [us[0], *us, us[-1]],
            [below, *(_cdf_at(p, x, roots[x]) for x in xs), above])


@functools.lru_cache(maxsize=None)
def _cdf_data(p: ModelParams) -> _CdfTable:
    sup = subordination.support(p)
    masses, xs, us, fs, tops, ends = [], [], [], [], [], []
    left = 0.0
    for (lo, hi), (u_l, v_l) in zip(sup.intervals, sup.admissible.intervals):
        nu_mass = measure.mass_between(p.nu, u_l, v_l)
        mass, nxs, nus, nfs = _interval_nodes(p, lo, hi, min(left, 1.0),
                                              min(left + nu_mass, 1.0))
        left += nu_mass
        masses.append(mass)
        ends += [-math.inf] + [hi] * (len(nxs) - 1)
        xs, us, fs = xs + nxs, us + nus, fs + nfs
        tops.append(len(xs) - 1)
    fs = np.array(fs)
    return _CdfTable(tuple(masses), np.array(xs), np.array(us, dtype=complex), fs,
                     tuple(tops), fs[tops] + 1e-15, np.array(ends + [-math.inf]))


def interval_masses(p: ModelParams) -> tuple[float, ...]:
    """Adaptive Simpson mass of the density over each support interval.

    This quadrature is independent of the closed-form CDF; comparing each
    mass against the nu-mass of the matching [u_l, v_l] interval is the
    mass-correspondence verification.
    """
    return _cdf_data(p).masses


def _omega_array(p: ModelParams, x: np.ndarray, warm: np.ndarray) -> np.ndarray:
    """omega(x + i0) at the real points x, each by Newton on phi(u) = x from
    its warm root, all points in one sweep over complex arrays under
    ``_newton``'s stop rule.  A point whose run leaves the upper half plane,
    does not settle in _NEWTON_STEPS or ends within _AXIS_GUARD (1 + |u|) of
    the real axis is solved by the scalar ``_omega`` from the same warm
    root, so it raises ConvergenceError as a scalar solve would."""
    u = warm.copy()
    settled = np.zeros(x.shape, dtype=bool)
    live = np.flatnonzero(u.imag > 0.0)  # points still iterating
    prev = np.full(live.shape, math.inf)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        v = u[live]
        f, fp = subordination.phi_and_prime(p, v)
        ok = fp != 0.0  # where a scalar step raises ZeroDivisionError
        step = (f - x[live]) / np.where(ok, fp, 1.0)
        v -= step
        u[live] = v
        s, scale = np.abs(step), 1.0 + np.abs(v)
        ok &= (v.imag > 0.0) & (scale < math.inf)
        done = ok & ((s <= _STEP_TOL * scale) | ((prev <= s) & (s <= _FLOOR_TOL * scale)))
        settled[live[done]] = True
        live, prev = live[ok & ~done], s[ok & ~done]
    settled &= u.imag > _AXIS_GUARD * (1.0 + np.abs(u))
    for k in np.flatnonzero(~settled):
        u[k], _ = _omega(p, complex(x[k], 0.0), complex(warm[k]))
    return u


def _read_interior(p: ModelParams, x: np.ndarray, read) -> tuple[np.ndarray, np.ndarray]:
    """The one read of omega(x + i0) at an array of real points x: at the
    points strictly inside a support interval (the returned mask), read(p,
    x, u) of their roots u, each solved warm from the nearest table node by
    ``_omega_array`` sweeps, _SWEEP_POINTS points at a time; elsewhere the
    CDF plateau, the nu-mass of the complement intervals to the left."""
    out, inner, warm = _cdf_data(p).locate(x)
    idx = np.flatnonzero(inner)
    for chunk in np.split(idx, range(_SWEEP_POINTS, idx.size, _SWEEP_POINTS)):
        out[chunk] = read(p, x[chunk], _omega_array(p, x[chunk], warm[chunk]))
    return out, inner


def cdf_mu(p: ModelParams, x):
    """CDF of the limit law at x, a float or elementwise a numpy array.

    Off the open support it is the nu-mass of the complement intervals
    [u_l, v_l] to the left of x (the mass-correspondence identity), so gap
    plateaus and the total mass are exact.  Inside a support interval it is
    the closed form ``_cdf_at`` at u = omega(x + i0), solved warm from the
    nearest table node: by ``_omega`` for a float, and for an array by the
    sweeps of ``_read_interior``.  A NaN anywhere in x raises DomainError.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if math.isnan(x):
            raise DomainError("cdf_mu is undefined at NaN")
        f, inside, warm = _cdf_data(p).locate(x)
        if not inside:
            return f
        u, _ = _omega(p, complex(x, 0.0), warm)
        return _cdf_at(p, x, u)
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise DomainError("cdf_mu is undefined at NaN")
    return _read_interior(p, xs.ravel(), _cdf_at)[0].reshape(xs.shape)


def quantile_mu(p: ModelParams, alpha: float) -> float:
    """Generalized inverse of ``cdf_mu`` for alpha strictly inside (0, 1).

    The interval is the first whose upper plateau reaches alpha to within
    1e-15, and the bracket between two of its table nodes comes from
    bisection on their CDF values; inside it, Newton on ``cdf_mu`` - alpha
    with the density as the derivative, kept inside the shrinking bracket
    (bisection where the density is 0).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {alpha!r}")
    t = _cdf_data(p)
    k = int(t.caps.searchsorted(alpha))  # the first k with alpha <= caps[k]
    if k == len(t.tops):
        return t.xs.item(-1)
    s, e = t.tops[k - 1] + 1 if k else 0, t.tops[k]
    j = s + int(t.fs[s:e + 1].searchsorted(alpha))  # fs[j - 1] < alpha <= fs[j]
    if j > e or t.fs.item(j) == alpha:
        return t.xs.item(min(j, e))
    a, b, u = t.xs.item(j - 1), t.xs.item(j), t.us.item(j - 1)

    def fd(x: float) -> tuple[float, float]:
        nonlocal u
        if x <= a:  # the bracket's ends are nodes: their exact CDF, no solve
            return t.fs.item(j - 1) - alpha, 0.0
        if x >= b:
            return t.fs.item(j) - alpha, 0.0
        u, _ = _omega(p, complex(x, 0.0), u)  # warm from the last solve
        return _cdf_at(p, x, u) - alpha, _density_from(p, x, u)

    return subordination._bracketed_root(fd, a, b, 1e-15 * (1.0 + abs(b)))


def _h_residual(p: ModelParams, x: float, u: float, gm: complex) -> float:
    """Residual of the rectangular-convolution subordination identity at x
    outside the support, from u = omega(x) and g = g(x + 1e-9i) already
    solved: |c u g_nu(u)^2 + (1-c) g_nu(u) - (c x g^2 + (1-c) g)|.  It
    vanishes on the model; the modulus is numerical error.  A u on supp(nu)
    raises DomainError from ``measure.g_nu``."""
    gn = measure.g_nu(p.nu, u)
    lhs = p.c * u * gn * gn + (1.0 - p.c) * gn
    rhs = p.c * x * gm * gm + (1.0 - p.c) * gm
    return abs(lhs - rhs)
