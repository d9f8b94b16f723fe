"""The package's public name list."""

import gridfreq

# Adding or removing a public name is an API change: edit this set with it.
PUBLIC = {
    "AlignmentError", "ConfigError", "ConstantProfile", "DcSpec",
    "DivergenceError", "EstimateRecord", "EstimateSeries", "EstimatorConfig",
    "EstimatorState", "EventProfile", "GridFreqError", "GroundTruth",
    "HarmonicSpec", "MetricsReport", "NoiseSpec", "PsoParams", "RampProfile",
    "SampleStream", "ScenarioError", "ScenarioSpec", "SearchSpace",
    "StepSpec", "aggregate", "align", "apply_gain_vector", "evaluate",
    "init", "ise_fitness", "pso_minimize", "pso_tune", "run", "step",
    "synthesize",
}


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from gridfreq import *", namespace)   # a stale name raises here
    assert set(gridfreq.__all__) <= namespace.keys()


def test_public_names_are_pinned():
    assert len(gridfreq.__all__) == len(PUBLIC) == 33
    assert set(gridfreq.__all__) == PUBLIC
