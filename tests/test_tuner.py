"""Unit tests for the PSO tuner and its fitness function."""

from dataclasses import replace

import numpy as np
import pytest

from gridfreq import (ConfigError, EstimatorConfig, GroundTruth, PsoParams,
                      ScenarioSpec, SearchSpace, apply_gain_vector,
                      ise_fitness, pso_minimize, pso_tune, run, synthesize)
from gridfreq.tuner import DIVERGENCE_PENALTY

FS = 1200.0


class TestSearchSpace:
    def test_dims_and_default_log_scale(self):
        space = SearchSpace(bounds=((0.0, 1.0), (-1.0, 1.0)))
        assert space.dims == 2
        assert space.log_scale is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchSpace(bounds=())
        with pytest.raises(ConfigError):
            SearchSpace(bounds=((1.0, 1.0),))
        with pytest.raises(ConfigError):
            SearchSpace(bounds=((0.0, 1.0),), log_scale=True)

    @pytest.mark.parametrize("bounds", [(1.0, float("inf")),
                                        (float("-inf"), 1.0),
                                        (1.0, float("nan"))])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ConfigError, match="finite"):
            SearchSpace(bounds=(bounds,))


class TestPsoParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PsoParams(swarm_size=1)
        with pytest.raises(ConfigError):
            PsoParams(iterations=0)


class TestApplyGainVector:
    def test_full_vector(self):
        cfg = EstimatorConfig(n=2)
        out = apply_gain_vector(cfg, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert out.gamma_c == (1.0, 2.0)
        assert out.gamma_s == (3.0, 4.0)
        assert out.gamma_dc == 5.0
        assert out.gamma_dc1 == 6.0
        assert out.eta_opt == cfg.eta_opt

    def test_with_eta(self):
        cfg = EstimatorConfig(n=2)
        out = apply_gain_vector(cfg, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 700.0])
        assert out.eta_opt == 700.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            apply_gain_vector(EstimatorConfig(n=2), [1.0, 2.0])


@pytest.fixture(scope="module")
def battery():
    spec = ScenarioSpec(duration=2.0, base_freq=50.0)
    return [synthesize(spec, FS)]


class TestIseFitness:
    def test_matches_direct_computation(self, battery):
        cfg = EstimatorConfig()
        gains = [*cfg.gamma_c, *cfg.gamma_s, cfg.gamma_dc, cfg.gamma_dc1]
        score = ise_fitness(gains, battery, cfg)
        stream, truth = battery[0]
        series = run(stream, cfg)
        f_true = np.interp(series.t(), truth.times(), truth.freq_hz)
        expect = float(np.sum((series.f_hz() - f_true) ** 2)
                       * cfg.ts * cfg.report_every)
        assert score == pytest.approx(expect, rel=1e-12)

    def test_records_after_the_last_truth_sample_are_dropped(self, battery):
        cfg = EstimatorConfig()
        gains = [*cfg.gamma_c, *cfg.gamma_s, cfg.gamma_dc, cfg.gamma_dc1]
        stream, truth = battery[0]
        half = len(truth) // 2
        short = GroundTruth(truth.t0, truth.ts, truth.freq_hz[:half],
                            truth.rocof_hzps[:half], truth.amp_pu[:half],
                            truth.phase_rad[:half])
        series = run(stream, cfg)
        kept = series.t() <= short.times()[-1]
        assert 0 < kept.sum() < len(series)
        f_true = np.interp(series.t()[kept], short.times(), short.freq_hz)
        expect = float(np.sum((series.f_hz()[kept] - f_true) ** 2)
                       * cfg.ts * cfg.report_every)
        assert ise_fitness(gains, [(stream, short)], cfg) == expect

    def test_invalid_gains_are_penalized(self, battery):
        cfg = EstimatorConfig()
        gains = [-1.0] * (2 * cfg.n + 2)
        assert ise_fitness(gains, battery, cfg) == DIVERGENCE_PENALTY

    def test_divergent_gains_are_penalized(self, battery):
        cfg = replace(EstimatorConfig(), eta_opt=1e9)
        gains = [*cfg.gamma_c, *cfg.gamma_s, cfg.gamma_dc, cfg.gamma_dc1]
        assert ise_fitness(gains, battery, cfg) >= DIVERGENCE_PENALTY

    def test_empty_battery_rejected(self):
        with pytest.raises(ConfigError):
            ise_fitness([1.0], [], EstimatorConfig())


class TestPsoMinimize:
    def test_quadratic_converges(self):
        space = SearchSpace(bounds=((-10.0, 10.0),))
        pso = PsoParams(swarm_size=15, iterations=40, seed=0)
        best, score, _ = pso_minimize(lambda x: float((x[0] - 3.0) ** 2),
                                      space, pso)
        assert best[0] == pytest.approx(3.0, abs=1e-3)
        assert score < 1e-5

    def test_log_scale_dimension(self):
        space = SearchSpace(bounds=((1.0, 1e4),), log_scale=True)
        pso = PsoParams(swarm_size=15, iterations=40, seed=0)
        best, _, _ = pso_minimize(
            lambda x: float((np.log10(x[0]) - 2.0) ** 2), space, pso)
        assert best[0] == pytest.approx(100.0, rel=0.01)

    def test_deterministic_under_seed(self):
        space = SearchSpace(bounds=((-5.0, 5.0),) * 3)
        pso = PsoParams(swarm_size=10, iterations=10, seed=7)
        fn = lambda x: float(np.sum(x * x))   # noqa: E731
        a = pso_minimize(fn, space, pso)
        b = pso_minimize(fn, space, pso)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1:] == b[1:]

    def test_respects_bounds(self):
        lo, hi = 2.0, 3.0
        seen = []

        def fn(x):
            seen.append(float(x[0]))
            return float(x[0])

        space = SearchSpace(bounds=((lo, hi),))
        pso_minimize(fn, space, PsoParams(swarm_size=5, iterations=10, seed=0))
        assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in seen)

    def test_history_is_monotone_best(self):
        space = SearchSpace(bounds=((-5.0, 5.0),) * 2)
        pso = PsoParams(swarm_size=8, iterations=25, seed=2)
        _, score, history = pso_minimize(lambda x: float(np.sum(x * x)),
                                         space, pso)
        assert len(history) == 25
        assert history == sorted(history, reverse=True)
        assert history[-1] == score


class TestPsoTune:
    def test_tunes_uniform_gain(self):
        spec = ScenarioSpec(duration=2.0, base_freq=50.0)
        battery = [synthesize(spec, FS)]
        cfg = EstimatorConfig(n=3)

        def apply_uniform(config, gains):
            g = float(gains[0])
            if g <= 0:
                raise ConfigError("gain must be positive")
            return replace(config, gamma_c=(g,) * config.n,
                           gamma_s=(g,) * config.n)

        space = SearchSpace(bounds=((1.0, 500.0),), log_scale=True)
        pso = PsoParams(swarm_size=6, iterations=8, seed=0)
        best, score, history = pso_tune(space, battery, pso, cfg,
                                        apply=apply_uniform)
        assert 1.0 <= best[0] <= 500.0
        assert score < DIVERGENCE_PENALTY
        assert len(history) == 8
