"""Classification of spiked perturbation eigenvalues and their limits.

A spike theta outside supp(nu) produces, in the large-matrix limit, an
eigenvalue packet that either detaches from the bulk (theta inside the
admissible set, limit phi(theta)), sticks to a support edge, collapses to
zero, or converges to an interior quantile when theta sits between two
components of supp(nu) covered by the same complement interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, stieltjes, subordination
from .errors import AmbiguousSpike, DomainError
from .subordination import ModelParams

OUTLIER = "OUTLIER"
RIGHT_EDGE = "RIGHT_EDGE"
LEFT_EDGE = "LEFT_EDGE"
ZERO = "ZERO"
QUANTILE = "QUANTILE"

#: Spikes closer than this to an admissible-set boundary are reported as
#: ambiguous rather than classified (the prediction flips discontinuously).
BOUNDARY_GUARD = 1e-9


@dataclass(frozen=True)
class SpikeSpec:
    """Strictly descending positive spikes with their multiplicities."""

    thetas: tuple[float, ...] = ()
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        mults = tuple(measure.as_int("multiplicity", k) for k in self.multiplicities)
        thetas = tuple(measure.as_real("theta", t) for t in self.thetas)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "multiplicities", mults)
        if len(thetas) != len(mults):
            raise DomainError("thetas and multiplicities must have equal length")
        if not all(0.0 < t < math.inf for t in thetas):
            raise DomainError("spikes must be positive and finite")
        if any(a <= b for a, b in zip(thetas, thetas[1:])):
            raise DomainError("spikes must be strictly descending")
        if any(k < 1 for k in mults):
            raise DomainError("multiplicities must be positive integers")

    @property
    def r(self) -> int:
        return sum(self.multiplicities)

    def to_dict(self) -> dict:
        return {"thetas": list(self.thetas),
                "multiplicities": list(self.multiplicities)}

    @classmethod
    def from_dict(cls, data: dict) -> "SpikeSpec":
        return cls(thetas=tuple(data.get("thetas", ())),
                   multiplicities=tuple(data.get("multiplicities", ())))


@dataclass(frozen=True)
class SpikeOutcome:
    """Predicted limit for one spike packet; ``alpha`` is set for QUANTILE
    outcomes only."""

    theta: float
    case_tag: str
    limit: float
    alpha: float | None = None

    def to_dict(self) -> dict:
        out = {"theta": self.theta, "case": self.case_tag, "limit": self.limit}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


def classify(p: ModelParams, s: SpikeSpec) -> list[SpikeOutcome]:
    """Classify every spike against the admissible set and the support.

    Case map: theta in the admissible set gives OUTLIER with limit
    phi(theta); otherwise theta lies in some complement interval [u_l, v_l]
    and the outcome depends on its position relative to the components of
    supp(nu) inside that interval.  Right of all of them: RIGHT_EDGE
    sticking to the upper edge of support interval l (the right edge is the
    limit produced by the separation argument, which is what the simulations
    confirm).  Left of all of them: ZERO when l = 1 and zero sits in the
    support, else LEFT_EDGE.  Between two of them: QUANTILE at level
    alpha = nu((-inf, theta]).
    """
    sup = subordination.support(p)
    adm = sup.admissible
    comps = measure.support_of(p.nu)
    out: list[SpikeOutcome] = []
    for theta in s.thetas:
        if comps.distance(theta) <= measure.ATOL:
            raise DomainError(f"spike {theta!r} lies on supp(nu)")
        if min(abs(theta - b) for iv in adm.intervals for b in iv) < BOUNDARY_GUARD:
            raise AmbiguousSpike(
                f"spike {theta!r} is within {BOUNDARY_GUARD} of an "
                "admissible-set boundary")
        l = adm.interval_index(theta)
        if l is None:  # theta is admissible
            out.append(SpikeOutcome(theta=theta, case_tag=OUTLIER,
                                    limit=subordination.phi(p, theta)))
            continue
        u_l, v_l = adm.intervals[l]
        inside = [iv for iv in comps.intervals if u_l <= iv[0] and iv[1] <= v_l]
        if theta > inside[-1][1]:
            out.append(SpikeOutcome(theta=theta, case_tag=RIGHT_EDGE,
                                    limit=sup.intervals[l][1]))
        elif theta < inside[0][0]:
            if l == 0 and sup.zero_in_support:
                out.append(SpikeOutcome(theta=theta, case_tag=ZERO, limit=0.0))
            else:
                out.append(SpikeOutcome(theta=theta, case_tag=LEFT_EDGE,
                                        limit=sup.intervals[l][0]))
        else:
            alpha = measure.cdf(p.nu, theta)
            out.append(SpikeOutcome(theta=theta, case_tag=QUANTILE,
                                    limit=stieltjes.quantile_mu(p, alpha),
                                    alpha=alpha))
    return out


def signal_eigenvalues(p: ModelParams, s: SpikeSpec, n: int) -> np.ndarray:
    """Exact eigenvalues of the n x n signal part A A*, in the diagonal order of A.

    Each theta_j repeated by its multiplicity comes first, then the
    nu-quantiles at mid-levels (i - 1/2)/(n - r), i = 1..n-r, which keep the
    empirical signal law converging to nu with vanishing distance to its
    support.  Ranks are counted against these values, never against squared
    diagonal entries of A: sqrt(theta)**2 exceeds theta for some theta.
    """
    if s.r > n:
        raise DomainError(f"matrix size {n} cannot hold {s.r} spiked directions")
    bulk = n - s.r
    values = [t for t, k in zip(s.thetas, s.multiplicities) for _ in range(k)]
    values.extend(measure.quantile(p.nu, (i - 0.5) / bulk)
                  for i in range(1, bulk + 1))
    return np.asarray(values, dtype=float)


def spike_ranks(p: ModelParams, s: SpikeSpec, n: int | None = None) -> list[int]:
    """1-based rank of the first eigenvalue of each spike packet.

    The packet of theta starts one past the signal eigenvalues strictly above
    theta.  Without a matrix size n, spikes are ranked among the spiked
    directions alone.
    """
    signal = signal_eigenvalues(p, s, s.r if n is None else n)
    return [1 + int(np.sum(signal > theta)) for theta in s.thetas]

