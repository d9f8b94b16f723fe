"""The package's public name list."""

import gridfreq

# Adding or removing a public name is an API change: edit this set with it.
PUBLIC = {
    "AlignmentError", "ConfigError", "ConstantProfile", "DcSpec",
    "DivergenceError", "EstimateRecord", "EstimateSeries", "EstimatorConfig",
    "EstimatorState", "EventProfile", "GridFreqError", "GroundTruth",
    "HarmonicSpec", "MetricsReport", "NoiseSpec", "ParameterVector",
    "PsoParams", "RampProfile", "SampleStream", "ScenarioError",
    "ScenarioSpec", "SearchSpace", "StepSpec", "aggregate", "align",
    "apply_gain_vector", "evaluate", "fe_re", "init", "ise_fitness",
    "output_and_gradient", "pso_minimize", "pso_tune", "reconstruction_error",
    "run", "step", "synthesize",
}


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from gridfreq import *", namespace)   # a stale name raises here
    assert set(gridfreq.__all__) <= namespace.keys()


def test_public_names_are_pinned():
    assert len(gridfreq.__all__) == len(PUBLIC) == 37
    assert set(gridfreq.__all__) == PUBLIC
