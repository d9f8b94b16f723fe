"""Streaming power-system frequency and RoCoF estimation toolkit.

An adaptive observer tracks the coefficients of a harmonic-plus-DC signal
model sample by sample and adjusts the fundamental frequency by gradient
descent on the prediction error at a fixed learning rate.  The package also
ships a scenario synthesizer with exact ground truth, a PSO gain tuner,
latency-aligned error metrics and a batch CLI.
"""

from .errors import (AlignmentError, ConfigError, DivergenceError,
                     GridFreqError, ScenarioError)
from .estimator import (EstimateRecord, EstimateSeries, EstimatorConfig,
                        EstimatorState, init, run, step)
from .metrics import (MetricsReport, aggregate, align, evaluate, fe_re,
                      reconstruction_error)
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
    "fe_re", "init", "ise_fitness", "pso_minimize", "pso_tune",
    "reconstruction_error", "run", "step", "synthesize",
]
