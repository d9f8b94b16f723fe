"""Streaming power-system frequency and RoCoF estimation toolkit.

An adaptive observer tracks the coefficients of a harmonic-plus-DC signal
model sample by sample and adjusts the fundamental frequency by gradient
descent on the prediction error at a fixed learning rate.  The package also
ships a scenario synthesizer with exact ground truth, a PSO gain tuner,
latency-aligned error metrics and a batch CLI.
"""

from .errors import (AlignmentError, ConfigError, DivergenceError,
                     GridFreqError, ScenarioError)
from . import estimator
from .estimator import (EstimateRecord, EstimateSeries, EstimatorConfig,
                        EstimatorState, init, run)
from .metrics import MetricsReport, aggregate, align, evaluate
from .synth import (ConstantProfile, DcSpec, EventProfile, GroundTruth,
                    HarmonicSpec, NoiseSpec, RampProfile, SampleStream,
                    ScenarioSpec, StepSpec, synthesize)
from .tuner import (PsoParams, SearchSpace, apply_gain_vector, ise_fitness,
                    pso_minimize, pso_tune)

__version__ = "1.0.0"

__all__ = [
    "AlignmentError", "ConfigError", "ConstantProfile", "DcSpec",
    "DivergenceError", "EstimateRecord", "EstimateSeries", "EstimatorConfig",
    "EstimatorState", "EventProfile", "GridFreqError", "GroundTruth",
    "HarmonicSpec", "MetricsReport", "NoiseSpec", "PsoParams", "RampProfile",
    "SampleStream", "ScenarioError", "ScenarioSpec", "SearchSpace",
    "StepSpec", "aggregate", "align", "apply_gain_vector", "evaluate",
    "init", "ise_fitness", "pso_minimize", "pso_tune", "run", "step",
    "synthesize",
]


def __getattr__(name: str) -> object:
    """``step``, made by the C library on the first access (see
    :mod:`gridfreq.estimator`), so the import builds no library."""
    if name != "step":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global step
    step = estimator.step
    return step
