"""Spectral analysis of information-plus-noise random matrix models.

Submodules:

* ``measure``       atom + uniform-segment measures and their transforms
* ``subordination`` forward/inverse spectral maps, admissible set, support
* ``stieltjes``     transform solver (Newton on phi), density, CDF, quantiles
* ``spikes``        spike classification and predicted eigenvalue limits
* ``simulate``      seeded Monte Carlo sampling and verification
* ``cli``           command-line front end
"""

from .errors import (AmbiguousSpike, ConvergenceError, DomainError, IPNError,
                     PreconditionError)
from .measure import MeasureSpec, SupportComponents
from .simulate import EigenSample, SeparationReport, SimConfig
from .spikes import SpikeOutcome, SpikeSpec
from .stieltjes import DensityGrid, GSolution
from .subordination import AdmissibleSet, ModelParams, SupportResult

__all__ = [
    "AmbiguousSpike",
    "ConvergenceError",
    "DomainError",
    "IPNError",
    "PreconditionError",
    "MeasureSpec",
    "SupportComponents",
    "EigenSample",
    "SeparationReport",
    "SimConfig",
    "SpikeOutcome",
    "SpikeSpec",
    "DensityGrid",
    "GSolution",
    "AdmissibleSet",
    "ModelParams",
    "SupportResult",
]

__version__ = "0.1.0"
