"""Streaming power-system frequency and RoCoF estimation toolkit.

An adaptive observer tracks the coefficients of a harmonic-plus-DC signal
model sample by sample and adjusts the fundamental frequency by gradient
descent on the prediction error at a fixed learning rate.  The package also
ships a scenario synthesizer with exact ground truth, a rolling-window
baseline, a PSO gain tuner, latency-aligned error metrics and a batch CLI.
"""

from .baselines import FreqSeries, rolling_rocof
from .errors import (AlignmentError, ConfigError, DivergenceError,
                     GridFreqError, ScenarioError)
from .estimator import (EstimateRecord, EstimateSeries, EstimatorConfig,
                        EstimatorState, amp_phase, calibrate_eta_opt, init,
                        pe_gram, run, step)
from .metrics import (MetricsReport, aggregate, align, evaluate, fe_re,
                      reconstruction_error)
from .model import ParameterVector, harmonic_basis, output_and_gradient
from .synth import (ConstantProfile, DcSpec, EventProfile, GroundTruth,
                    HarmonicSpec, NoiseSpec, RampProfile, SampleStream,
                    ScenarioSpec, StepSpec, add_noise, synthesize)
from .tuner import (PsoParams, SearchSpace, TuneResult, apply_gain_vector,
                    ise_fitness, pso_minimize, pso_tune)

__version__ = "1.0.0"

__all__ = [
    "AlignmentError", "ConfigError", "ConstantProfile", "DcSpec",
    "DivergenceError", "EstimateRecord", "EstimateSeries", "EstimatorConfig",
    "EstimatorState", "EventProfile", "FreqSeries", "GridFreqError",
    "GroundTruth", "HarmonicSpec", "MetricsReport", "NoiseSpec",
    "ParameterVector", "PsoParams", "RampProfile", "SampleStream",
    "ScenarioError", "ScenarioSpec", "SearchSpace", "StepSpec", "TuneResult",
    "add_noise", "aggregate", "align", "amp_phase", "apply_gain_vector",
    "calibrate_eta_opt", "evaluate", "fe_re", "harmonic_basis", "init",
    "ise_fitness", "output_and_gradient", "pe_gram", "pso_minimize",
    "pso_tune", "reconstruction_error", "rolling_rocof", "run", "step",
    "synthesize",
]
