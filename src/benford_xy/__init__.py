"""Exact XY-chain observables, first-digit statistics, and the violation
pipeline that locates quantum phase transitions."""

from .errors import (
    BenfordXYError,
    ConfigurationError,
    DegenerateWindowError,
    DomainError,
    EmptyHistogramError,
    InsufficientRidgeError,
    MixedSideError,
    NoTransitionError,
    SingularFitError,
)
from .numerics import LineFit, PolyFit, linfit, polyfit
from .xy_exact import ModelParams, diagonal_correlators, mz_infinite
from .firstdigit import (
    DistKind,
    ReferenceDistribution,
    expected_counts,
    histogram,
    probabilities,
    rescale_unit,
)
from .violation import Metric, violations
from .windowscan import Observable, ScanConfig, ScanResult, scan
from .criticality import (
    CrossoverLines,
    CrossoverQuantity,
    ScalingFit,
    Signature,
    TransitionEstimate,
    auto_fit_range,
    crossover_lines,
    locate_transition,
    scaling_exponent,
)

__version__ = "1.0.0"

__all__ = [
    "BenfordXYError",
    "ConfigurationError",
    "CrossoverLines",
    "CrossoverQuantity",
    "DegenerateWindowError",
    "DistKind",
    "DomainError",
    "EmptyHistogramError",
    "InsufficientRidgeError",
    "LineFit",
    "Metric",
    "MixedSideError",
    "ModelParams",
    "NoTransitionError",
    "Observable",
    "PolyFit",
    "ReferenceDistribution",
    "ScalingFit",
    "ScanConfig",
    "ScanResult",
    "Signature",
    "SingularFitError",
    "TransitionEstimate",
    "auto_fit_range",
    "crossover_lines",
    "diagonal_correlators",
    "expected_counts",
    "histogram",
    "linfit",
    "locate_transition",
    "mz_infinite",
    "polyfit",
    "probabilities",
    "rescale_unit",
    "scaling_exponent",
    "scan",
    "violations",
    "__version__",
]
