"""Unit tests for the per-sample adaptive estimator."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from gridfreq import (ConfigError, DivergenceError, EstimatorConfig,
                      SampleStream, ScenarioSpec, init, run, step, synthesize)
from gridfreq.estimator import INV_TWO_PI, amp_phase
from gridfreq.model import output_and_gradient
from cases import case1
from golden import compute as golden_compute
from golden import load as golden_load
from reference import reference_estimator

FS = 1200.0
TS = 1.0 / FS


def _clean_stream(duration: float = 2.0) -> SampleStream:
    stream, _ = synthesize(ScenarioSpec(duration=duration, base_freq=50.0), FS)
    return stream


class TestConfig:
    def test_default_gain_fill(self):
        cfg = EstimatorConfig(n=3)
        assert cfg.gamma_c == (40.0,) * 3
        assert cfg.gamma_s == (40.0,) * 3

    @pytest.mark.parametrize("kwargs", [
        dict(n=0),
        dict(f0=-1.0),
        dict(ts=0.0),
        dict(n=12),                               # 12 * 50 >= 600 (Nyquist)
        dict(gamma_c=(40.0,)),                    # wrong length for n=7
        dict(gamma_dc=-1.0),
        dict(gamma_s=(40.0,) * 6),                # wrong length for n=7
        dict(eta_opt=0.0),
        dict(gamma_dc1=0.0),
        dict(obs_lowpass_hz=-1.0),
        dict(rocof_smooth_window=0),
        dict(report_every=0),
        dict(t_reset_s=0.0),
        dict(obs_lowpass_hz=0.0),
        dict(obs_lowpass_hz=-100.0),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("name", ["f0", "ts", "gamma_c", "gamma_s",
                                      "gamma_dc", "gamma_dc1", "eta_opt",
                                      "obs_lowpass_hz", "t_reset_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_rejects_non_finite(self, name, bad):
        value = (40.0,) * 6 + (bad,) if name in ("gamma_c", "gamma_s") else bad
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            replace(EstimatorConfig(), **{name: value})

    def test_defaults_are_valid(self):
        EstimatorConfig().validate()


class TestInitAndState:
    def test_init_values(self):
        cfg = EstimatorConfig()
        state = init(cfg)
        assert state.f_hz == 50.0
        assert state.phase_acc == 0.0
        assert state.t_anchor == 0.0
        assert state.k == 0
        assert not state.diverged
        assert state.theta.n == cfg.n


class TestAmpPhase:
    def test_zero(self):
        assert amp_phase(0.0, 0.0) == (0.0, 0.0)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a_s, a_c = rng.normal(0.0, 2.0, 2)
            amp, ph = amp_phase(a_s, a_c)
            x = float(rng.uniform(-5.0, 5.0))
            assert a_c * math.sin(x) + a_s * math.cos(x) == pytest.approx(
                amp * math.sin(x + ph), abs=1e-12)


class TestStepAgainstReference:
    @staticmethod
    def _check(stream, cfg):
        series = run(stream, cfg)
        f_ref, rocof_ref = reference_estimator(
            stream.values, TS, cfg.n, cfg.f0, cfg.gamma_c, cfg.gamma_s,
            cfg.gamma_dc, cfg.gamma_dc1, eta_opt=cfg.eta_opt,
            t_reset=cfg.t_reset_s,
            cutoff_hz=cfg.obs_lowpass_hz)
        assert len(series) == len(stream)
        np.testing.assert_allclose(series.f_hz(), f_ref, atol=1e-9)
        got_raw = np.array([r.rocof_raw_hzps for r in series.records])
        np.testing.assert_allclose(got_raw, rocof_ref, atol=1e-5)

    @staticmethod
    def _noisy_stream():
        stream, _ = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0), FS)
        rng = np.random.default_rng(0)
        return SampleStream(stream.t0, stream.ts,
                            stream.values + rng.normal(0.0, 0.02, len(stream)))

    def test_clean_tone_trace_matches_oracle(self):
        self._check(_clean_stream(2.0),
                    replace(EstimatorConfig(), report_every=1))

    def test_noisy_trace_matches_oracle(self):
        self._check(self._noisy_stream(),
                    replace(EstimatorConfig(), report_every=1))

    @pytest.mark.parametrize("variant", [
        dict(obs_lowpass_hz=400.0),
        dict(t_reset_s=0.5),
        dict(obs_lowpass_hz=400.0, t_reset_s=0.5),
    ], ids=["lowpass", "cap", "lowpass-cap"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_filter_and_anchor_branches_match_oracle(self, variant, noisy):
        stream = self._noisy_stream() if noisy else _clean_stream(2.0)
        self._check(stream, replace(EstimatorConfig(), report_every=1,
                                    **variant))

    def test_residual_shrinks_after_lock(self):
        cfg = EstimatorConfig()
        series = run(_clean_stream(2.0), cfg)
        late = series.residual()[series.t() > 1.0]
        assert float(np.abs(late).max()) < 1e-3


class TestReporting:
    def test_report_cadence_and_timestamps(self):
        cfg = EstimatorConfig()
        stream = _clean_stream(1.0)
        series = run(stream, cfg)
        assert len(series) == (len(stream)) // cfg.report_every
        t = series.t()
        assert t[0] == pytest.approx(cfg.report_every * TS)
        np.testing.assert_allclose(np.diff(t), cfg.report_every * TS)

    def test_timestamps_start_at_stream_t0(self):
        cfg = EstimatorConfig()
        stream = _clean_stream(1.0)
        late = SampleStream(100.0, stream.ts, stream.values)
        base, shifted = run(stream, cfg), run(late, cfg)
        k = cfg.report_every * np.arange(1, len(base) + 1)
        np.testing.assert_array_equal(shifted.t(), 100.0 + k * TS)
        np.testing.assert_array_equal(shifted.f_hz(), base.f_hz())

    def test_rocof_is_boxcar_of_raw(self):
        cfg = replace(EstimatorConfig(), report_every=1, rocof_smooth_window=4)
        series = run(_clean_stream(0.1), cfg)
        raw = [r.rocof_raw_hzps for r in series.records]
        for k, rec in enumerate(series.records):
            window = raw[max(0, k - 3):k + 1]
            acc = 0.0
            for v in window:          # left to right, uncompensated
                acc += v
            assert rec.rocof_hzps == acc / len(window)

    def test_amp_phase_fields(self):
        cfg = EstimatorConfig()
        series = run(_clean_stream(2.0), cfg)
        last = series.records[-1]
        assert last.amps[0] == pytest.approx(1.0, abs=0.01)
        assert all(a < 0.01 for a in last.amps[1:])


class TestAnchorPolicies:
    def test_saturate_holds_at_cap(self):
        cfg = EstimatorConfig()
        series = run(_clean_stream(1.0), cfg)
        late = [r.t_anchor for r in series.records if r.t > 2 * cfg.t_reset_s]
        assert late
        assert all(v == cfg.t_reset_s for v in late)


class TestDivergence:
    def test_watchdog_trips_and_run_reports_it(self):
        cfg = replace(EstimatorConfig(), eta_opt=1e9)
        stream = _clean_stream(1.0)
        series = run(stream, cfg)
        assert series.diverged_at is not None
        assert series.diverged_at < len(stream)

    def test_step_on_diverged_state_raises(self):
        cfg = replace(EstimatorConfig(), eta_opt=1e9)
        state = init(cfg)
        stream = _clean_stream(1.0)
        for v in stream.values:
            step(state, float(v), cfg)
            if state.diverged:
                break
        assert state.diverged
        with pytest.raises(DivergenceError):
            step(state, 0.0, cfg)

    def test_ts_mismatch_rejected(self):
        stream = SampleStream(0.0, 1.0 / 1000.0, np.zeros(10))
        with pytest.raises(ConfigError):
            run(stream, EstimatorConfig())


class TestKernelCache:
    def test_config_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EstimatorConfig().eta_opt = 1.0

    def test_new_config_object_every_step_is_bit_identical(self):
        cfg = replace(EstimatorConfig(), obs_lowpass_hz=500.0)
        stream = _clean_stream(0.5)
        state = init(cfg)
        records = [rec for x in stream.values.tolist()
                   if (rec := step(state, x, replace(cfg))) is not None]
        assert records == run(stream, cfg).records


class TestStepMatchesModelKernel:
    """The fused step kernel is output_and_gradient, bit for bit."""

    def test_residual_and_raw_rocof(self):
        cfg = replace(EstimatorConfig(), report_every=1)
        stream, _ = synthesize(case1(0.02, 0, duration=2.0), FS, seed=0)
        state = init(cfg)
        mismatches = 0
        for x in stream.values.tolist():
            theta, phase, t = state.theta.copy(), state.phase_acc, state.t_anchor
            rec = step(state, x, cfg)
            out, _ = output_and_gradient(theta, phase, t)
            _, grad = output_and_gradient(state.theta, phase, t)
            mismatches += rec.residual != x - out
            mismatches += (rec.rocof_raw_hzps
                           != INV_TWO_PI * cfg.eta_opt * rec.residual * grad)
        assert state.k == len(stream)
        assert mismatches == 0


class TestGolden:
    def test_outputs_match_stored_digests(self):
        want = golden_load()
        got = golden_compute()
        assert sorted(got) == sorted(want)
        changed = [name for name in want if got[name] != want[name]]
        assert not changed, f"outputs changed for {changed}"

    def test_divergence_fixtures(self):
        want = golden_load()
        assert want["case1/seed0/x10"]["diverged_at"] == 720
        assert want["case1/seed0/x325"]["diverged_at"] == 4
        assert want["case1/seed0/nan500"]["diverged_at"] == 500


class TestObservationFilter:
    def test_lowpass_still_locks(self):
        cfg = replace(EstimatorConfig(), obs_lowpass_hz=400.0)
        series = run(_clean_stream(3.0), cfg)
        assert series.diverged_at is None
        late = series.f_hz()[series.t() > 1.5]
        assert float(np.abs(late - 50.0).max()) < 0.01
