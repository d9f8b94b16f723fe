"""Unit tests for the scenario synthesizer."""

import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (ConstantProfile, DcSpec, EventProfile, HarmonicSpec,
                      NoiseSpec, RampProfile, SampleStream, ScenarioError,
                      ScenarioSpec, StepSpec, synthesize)
from gridfreq import io as gio
from reference import reference_event_freq, reference_event_phase

FS = 1200.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TRUTH_ARRAYS = ("freq_hz", "rocof_hzps", "amp_pu", "phase_rad")


class TestSampleStream:
    def test_times(self):
        s = SampleStream(t0=1.0, ts=0.5, values=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(s.times(), [1.0, 1.5, 2.0])
        assert len(s) == 3

    def test_validation(self):
        with pytest.raises(ScenarioError):
            SampleStream(t0=0.0, ts=0.0, values=[1.0])
        with pytest.raises(ScenarioError):
            SampleStream(t0=0.0, ts=0.1, values=[])


class TestCleanTone:
    def test_samples_and_length(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0)
        stream, truth = synthesize(spec, FS)
        assert len(stream) == int(round(1.0 * FS)) + 1
        assert len(truth) == len(stream)
        # sample k is sin(2*pi*50*k/1200)
        for k in (0, 1, 6, 100):
            assert stream.values[k] == pytest.approx(
                math.sin(2.0 * math.pi * 50.0 * k / FS), abs=1e-12)

    def test_truth_is_constant(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0)
        _, truth = synthesize(spec, FS)
        assert np.all(truth.freq_hz == 50.0)
        assert np.all(truth.rocof_hzps == 0.0)
        assert np.all(truth.amp_pu == 1.0)

    def test_phase_offset_and_amplitude(self):
        spec = ScenarioSpec(duration=0.1, base_freq=50.0, amp_pu=2.0,
                            phase0_rad=math.pi / 2.0)
        stream, _ = synthesize(spec, FS)
        assert stream.values[0] == pytest.approx(2.0, abs=1e-12)


class TestRampProfile:
    def test_truth_trajectory(self):
        spec = ScenarioSpec(duration=4.0, base_freq=50.0,
                            profile=RampProfile(t_start=1.0, duration=2.0,
                                                df_hz=-1.0))
        _, truth = synthesize(spec, FS)
        t = truth.times()
        assert truth.freq_hz[t <= 1.0][-1] == pytest.approx(50.0)
        assert truth.freq_hz[-1] == pytest.approx(49.0)
        inside = (t >= 1.0) & (t < 3.0)
        np.testing.assert_allclose(truth.rocof_hzps[inside], -0.5)
        assert np.all(truth.rocof_hzps[t < 1.0] == 0.0)

    def test_phase_integral_consistency(self):
        # frequency recovered from centered differences of the true phase
        spec = ScenarioSpec(duration=4.0, base_freq=50.0,
                            profile=RampProfile(t_start=1.0, duration=2.0,
                                                df_hz=0.5))
        _, truth = synthesize(spec, FS)
        phase = truth.phase_rad
        freq_fd = (phase[2:] - phase[:-2]) / (2.0 * truth.ts) / (2.0 * math.pi)
        np.testing.assert_allclose(freq_fd, truth.freq_hz[1:-1], atol=2e-4)

    def test_bad_duration(self):
        with pytest.raises(ScenarioError):
            RampProfile(t_start=0.0, duration=0.0, df_hz=1.0)


class TestEventProfile:
    def test_duration_peak_and_shape(self):
        ev = EventProfile(t_start=1.0, peak_dev_hz=0.5, peak_rocof_hzps=1.0)
        assert ev.duration == pytest.approx(math.pi * 0.5)
        spec = ScenarioSpec(duration=4.0, base_freq=50.0, profile=ev)
        _, truth = synthesize(spec, FS)
        assert float(truth.freq_hz.min()) == pytest.approx(49.5, abs=1e-6)
        assert float(np.abs(truth.rocof_hzps).max()) == pytest.approx(
            1.0, rel=1e-5)
        # frequency returns to nominal after the event
        assert truth.freq_hz[-1] == pytest.approx(50.0, abs=1e-9)

    def test_matches_reference_curves(self):
        ev = EventProfile(t_start=1.0, peak_dev_hz=0.5, peak_rocof_hzps=1.0)
        spec = ScenarioSpec(duration=4.0, base_freq=50.0, profile=ev)
        _, truth = synthesize(spec, FS)
        t = truth.times()
        for k in range(0, len(t), 97):
            assert truth.freq_hz[k] == pytest.approx(
                reference_event_freq(t[k], 50.0, 1.0, 0.5, 1.0), abs=1e-10)
            assert truth.phase_rad[k] == pytest.approx(
                reference_event_phase(t[k], 50.0, 1.0, 0.5, 1.0), abs=1e-7)

    def test_swell_direction(self):
        ev = EventProfile(t_start=0.5, peak_dev_hz=-0.3, peak_rocof_hzps=1.0)
        spec = ScenarioSpec(duration=3.0, base_freq=50.0, profile=ev)
        _, truth = synthesize(spec, FS)
        assert float(truth.freq_hz.max()) == pytest.approx(50.3, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            EventProfile(t_start=0.0, peak_dev_hz=0.5, peak_rocof_hzps=0.0)
        with pytest.raises(ScenarioError):
            EventProfile(t_start=0.0, peak_dev_hz=0.0, peak_rocof_hzps=1.0)


class TestNoise:
    def test_gaussian_level_is_peak_referenced(self):
        spec = ScenarioSpec(duration=20.0, base_freq=50.0, amp_pu=2.0,
                            noise=NoiseSpec(kind="gaussian", level=0.02, seed=3))
        noisy, _ = synthesize(spec, FS, seed=3)
        clean, _ = synthesize(ScenarioSpec(duration=20.0, base_freq=50.0,
                                           amp_pu=2.0), FS)
        resid = noisy.values - clean.values
        # sigma = level * fundamental peak amplitude = 0.02 * 2.0
        assert float(np.std(resid)) == pytest.approx(0.04, rel=0.05)

    def test_determinism_and_seed_override(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0,
                            noise=NoiseSpec(kind="gaussian", level=0.02, seed=5))
        a, _ = synthesize(spec, FS)
        b, _ = synthesize(spec, FS)
        c, _ = synthesize(spec, FS, seed=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_colored_autocorrelation(self):
        spec = ScenarioSpec(duration=20.0, base_freq=50.0,
                            noise=NoiseSpec(kind="colored", level=0.05,
                                            seed=1, pole=0.9))
        noisy, _ = synthesize(spec, FS, seed=1)
        clean, _ = synthesize(ScenarioSpec(duration=20.0, base_freq=50.0), FS)
        x = noisy.values - clean.values
        x = x - x.mean()
        rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
        assert rho == pytest.approx(0.9, abs=0.03)

    def test_impulsive_hit_rate(self):
        clean = ScenarioSpec(duration=200_000 / FS, base_freq=50.0)
        noisy, _ = synthesize(
            replace(clean, noise=NoiseSpec(kind="impulsive", level=0.02,
                                           impulse_rate=1e-3,
                                           impulse_mag=10.0)), FS, seed=2)
        noise = noisy.values - synthesize(clean, FS)[0].values
        hits = np.count_nonzero(noise)
        assert 100 <= hits <= 320     # ~200 expected
        assert float(np.abs(noise[noise != 0.0]).min()) \
            == pytest.approx(0.2)     # 10 * 0.02 * 1.0

    def test_zero_level_passthrough(self):
        clean = ScenarioSpec(duration=1.0, base_freq=50.0)
        noisy = replace(clean, noise=NoiseSpec(kind="gaussian", level=0.0))
        np.testing.assert_array_equal(synthesize(noisy, FS, seed=0)[0].values,
                                      synthesize(clean, FS)[0].values)

    def test_level_validation(self):
        with pytest.raises(ScenarioError):
            NoiseSpec(kind="gaussian", level=0.25)
        with pytest.raises(ScenarioError):
            NoiseSpec(kind="pink", level=0.01)

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="noise.seed must be non-neg"):
            NoiseSpec(kind="gaussian", level=0.01, seed=-1)
        spec = ScenarioSpec(duration=1.0, base_freq=50.0,
                            noise=NoiseSpec(kind="gaussian", level=0.01))
        with pytest.raises(ScenarioError, match="seed must be non-negative"):
            synthesize(spec, FS, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="noise.seed must be an int"):
            NoiseSpec(kind="gaussian", level=0.01, seed=seed)
        spec = ScenarioSpec(duration=1.0, base_freq=50.0,
                            noise=NoiseSpec(kind="gaussian", level=0.01))
        with pytest.raises(ScenarioError, match="seed must be an int"):
            synthesize(spec, FS, seed=seed)


class TestRenderCache:
    """synthesize keeps the noise-free render of the last spec object and
    rate; a hit must give the bits of a fresh render."""

    @staticmethod
    def _bits(stream, truth) -> list[bytes]:
        return [stream.values.tobytes(),
                *(getattr(truth, name).tobytes() for name in TRUTH_ARRAYS)]

    @pytest.mark.parametrize("name", ["case1", "case2", "case2b", "clean"])
    def test_a_miss_gives_the_bits_of_a_hit(self, name):
        spec = gio.read_scenario(SCENARIOS / f"{name}.cfg")
        synthesize(spec, FS, seed=1)
        hit = synthesize(spec, FS, seed=4)
        miss = synthesize(replace(spec), FS, seed=4)
        assert self._bits(*hit) == self._bits(*miss)

    def test_an_equal_spec_object_renders_anew(self):
        # value equality treats amp_pu = 1 and 1.0 alike; the int spec is
        # rendered anew, through the step window's in-place scaling, to the
        # bits of the float one
        steps = (StepSpec(t_start=0.2, duration=0.2, amp_step_pu=0.1),)
        floats = ScenarioSpec(duration=1.0, base_freq=50.0, steps=steps)
        ints = replace(floats, amp_pu=1)
        assert ints == floats
        stream, truth = synthesize(floats, FS, seed=3)
        expect = self._bits(stream, truth)
        got = synthesize(ints, FS, seed=3)
        assert got[1].freq_hz is not truth.freq_hz
        assert self._bits(*got) == expect

    def test_truth_is_read_only_and_shared(self):
        spec = gio.read_scenario(SCENARIOS / "case1.cfg")
        _, a = synthesize(spec, FS, seed=0)
        _, b = synthesize(spec, FS, seed=1)
        for name in TRUTH_ARRAYS:
            assert not getattr(a, name).flags.writeable
            assert getattr(a, name) is getattr(b, name)
        with pytest.raises(ValueError, match="read-only"):
            a.freq_hz[0] = 0.0

    @pytest.mark.parametrize("name", ["case1", "clean"])
    def test_values_are_fresh_and_writable(self, name):
        # clean.cfg has no noise: its values are a copy of the render
        spec = gio.read_scenario(SCENARIOS / f"{name}.cfg")
        a, _ = synthesize(spec, FS, seed=0)
        b, _ = synthesize(spec, FS, seed=0)
        assert a.values.flags.writeable and b.values.flags.writeable
        assert not np.shares_memory(a.values, b.values)
        expected = b.values.copy()
        a.values[:] = 0.0
        np.testing.assert_array_equal(b.values, expected)
        np.testing.assert_array_equal(synthesize(spec, FS, seed=0)[0].values,
                                      expected)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_a_bad_seed_raises_on_every_call(self, seed):
        spec = gio.read_scenario(SCENARIOS / "case1.cfg")
        synthesize(spec, FS, seed=0)
        for _ in range(2):
            with pytest.raises(ScenarioError, match="seed must be"):
                synthesize(spec, FS, seed=seed)

    def test_threads_alternating_specs_get_their_own_render(self):
        # more threads than cores, switching often: a reader that paired one
        # entry's spec with another's render would return the wrong bits
        noise = NoiseSpec(kind="gaussian", level=0.02)
        specs = [ScenarioSpec(duration=0.5, base_freq=f0, noise=noise)
                 for f0 in (49.0, 51.0)]
        expected = {(i, seed): self._bits(*synthesize(replace(spec), FS,
                                                      seed=seed))
                    for i, spec in enumerate(specs) for seed in range(3)}
        mismatches = []

        def worker(offset: int) -> None:
            for k in range(60):
                i, seed = (k + offset) % 2, (k + offset) % 3
                got = self._bits(*synthesize(specs[i], FS, seed=seed))
                if got != expected[i, seed]:
                    mismatches.append((i, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_a_failed_render_is_not_kept(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0,
                            harmonics=(HarmonicSpec(order=13, rel_amp=0.01),))
        synthesize(spec, 2000.0)
        for _ in range(2):
            with pytest.raises(ScenarioError, match="violates Nyquist"):
                synthesize(spec, 1200.0)


class TestStepsAndDc:
    def test_step_spec_matches_injection(self):
        # closed form: the step window scales the fundamental by (1 + 0.05)
        # and advances its phase by 0.04 rad
        spec = ScenarioSpec(
            duration=2.0, base_freq=50.0,
            steps=(StepSpec(t_start=0.5, duration=0.4,
                            amp_step_pu=0.05, phase_step_rad=0.04),))
        stream, _ = synthesize(spec, FS)
        t = stream.times()
        win = (t >= 0.5) & (t < 0.9)
        phase = 2.0 * np.pi * 50.0 * t
        expect = np.where(win, 1.05 * np.sin(phase + 0.04), np.sin(phase))
        np.testing.assert_allclose(stream.values, expect, atol=1e-12)

    def test_step_window_contents(self):
        spec = ScenarioSpec(
            duration=2.0, base_freq=50.0,
            steps=(StepSpec(t_start=1.0, duration=0.5, amp_step_pu=0.5),))
        _, truth = synthesize(spec, FS)
        t = truth.times()
        win = (t >= 1.0) & (t < 1.5)
        np.testing.assert_allclose(truth.amp_pu[win], 1.5)
        np.testing.assert_allclose(truth.amp_pu[~win], 1.0)

    def test_step_outside_duration_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(duration=1.0, base_freq=50.0,
                         steps=(StepSpec(t_start=0.8, duration=0.5),))

    def test_dc_spec_matches_injection(self):
        # closed form: 0.1 * exp(-(t - 0.5)/0.05) added from t = 0.5 on
        spec = ScenarioSpec(duration=2.0, base_freq=50.0,
                            dc_events=(DcSpec(t_start=0.5, a_dc_pu=0.1,
                                              tau_s=0.05),))
        stream, _ = synthesize(spec, FS)
        t = stream.times()
        expect = np.sin(2.0 * np.pi * 50.0 * t) + np.where(
            t >= 0.5, 0.1 * np.exp(-(t - 0.5) / 0.05), 0.0)
        np.testing.assert_allclose(stream.values, expect, atol=1e-12)

    def test_dc_decay_value(self):
        # a zero-amplitude fundamental leaves only the DC event
        spec = ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=0.0,
                            dc_events=(DcSpec(t_start=0.0, a_dc_pu=0.2,
                                              tau_s=0.1),))
        out, _ = synthesize(spec, FS)
        assert out.values[0] == pytest.approx(0.2)
        k = int(round(0.1 * FS))       # one time constant later
        assert out.values[k] == pytest.approx(0.2 / math.e, rel=1e-6)

    def test_fast_dc_event_renders_without_a_warning(self):
        # exp(-(t - t_start) / tau) overflows before t_start, where the
        # event is not added; a RuntimeWarning fails the test
        spec = ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=0.0,
                            dc_events=(DcSpec(t_start=0.5, a_dc_pu=0.3,
                                              tau_s=1e-4),))
        out, _ = synthesize(spec, FS)
        k = int(round(0.5 * FS))
        assert not out.values[:k].any() and out.values[k] == 0.3


class TestDistortionAndNyquist:
    def test_soft_saturation_bounds_output(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=2.0,
                            distortion_knee=1.0)
        stream, _ = synthesize(spec, FS)
        assert float(np.abs(stream.values).max()) < 1.0
        assert float(np.abs(stream.values).max()) > 0.9

    def test_nyquist_rejection(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0,
                            harmonics=(HarmonicSpec(order=13, rel_amp=0.01),))
        with pytest.raises(ScenarioError):
            synthesize(spec, FS)     # 13 * 50 = 650 >= 600

    @pytest.mark.parametrize("profile, rejected", [
        # a negative deviation swells to 55 Hz: 11 * 55 = 605 >= 600
        (EventProfile(t_start=0.5, peak_dev_hz=-5.0, peak_rocof_hzps=10.0),
         True),
        # a down-ramp never rises above 50 Hz: 11 * 50 = 550 < 600
        (RampProfile(t_start=0.5, duration=1.0, df_hz=-5.0), False),
    ])
    def test_nyquist_follows_rendered_frequency(self, profile, rejected):
        spec = ScenarioSpec(duration=3.0, base_freq=50.0, profile=profile,
                            harmonics=(HarmonicSpec(order=11, rel_amp=0.01),))
        if rejected:
            with pytest.raises(ScenarioError, match="order 11 at 55 Hz"):
                synthesize(spec, FS)
        else:
            _, truth = synthesize(spec, FS)
            assert float(truth.freq_hz.min()) == pytest.approx(45.0)

    @pytest.mark.parametrize("profile, minimum", [
        (RampProfile(t_start=0.5, duration=1.0, df_hz=-60.0), "-10"),
        (RampProfile(t_start=0.5, duration=1.0, df_hz=-50.0), "0"),
        # 1200 Hz puts a sample on the dip's bottom
        (EventProfile(t_start=0.5, peak_dev_hz=100.0,
                      peak_rocof_hzps=100.0 * math.pi), "-50"),
    ])
    def test_fundamental_at_or_below_zero_rejected(self, profile, minimum):
        spec = ScenarioSpec(duration=3.0, base_freq=50.0, profile=profile)
        with pytest.raises(ScenarioError) as info:
            synthesize(spec, FS)
        assert str(info.value) == (f"the fundamental falls to {minimum} Hz; "
                                   f"it must stay above 0 Hz")

    @pytest.mark.parametrize("spec, message", [
        # df_hz / 1e-320 overflows: every frequency is nan
        (ScenarioSpec(duration=1.0, base_freq=50.0,
                      profile=RampProfile(t_start=0.2, duration=1e-320,
                                          df_hz=1.0)),
         "the rendered frequency is not finite, first at t = 0 s"),
        # 1.5e308 * (sin(phi) + sin(3 phi)) overflows from sample 2
        (ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=1.5e308,
                      harmonics=(HarmonicSpec(order=3, rel_amp=1.0),)),
         f"the rendered sample is not finite, first at t = {2 / FS:g} s"),
        (ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=1.0,
                      steps=(StepSpec(t_start=0.5, duration=0.1,
                                      phase_step_rad=1e308),
                             StepSpec(t_start=0.5, duration=0.1,
                                      phase_step_rad=1e308))),
         "the rendered phase is not finite, first at t = 0.5 s"),
    ], ids=["ramp slope", "harmonic sum", "phase steps"])
    def test_render_that_is_not_finite_rejected(self, spec, message):
        # a numpy RuntimeWarning fails the test (pyproject's filterwarnings)
        with pytest.raises(ScenarioError) as info:
            synthesize(spec, FS)
        assert str(info.value) == message

    def test_noise_that_overflows_rejected(self):
        # the clean render is finite; 10 x 0.2 x 1e308 impulses are not
        spec = ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=1e308,
                            noise=NoiseSpec(kind="impulsive", level=0.2,
                                            impulse_rate=1.0))
        with pytest.raises(ScenarioError, match=r"^the rendered sample is "
                                                r"not finite, first at t = 0 s$"):
            synthesize(spec, FS)
        stream, _ = synthesize(replace(spec, noise=None), FS)
        assert np.isfinite(stream.values).all()

    def test_more_samples_than_an_array_holds_rejected(self):
        with pytest.raises(ScenarioError, match=r"^1e\+301 samples at "
                                                r"fs=1e\+300 are more than"):
            synthesize(ScenarioSpec(duration=10.0, base_freq=50.0), 1e300)

    def test_samples_no_host_can_allocate_name_their_count(self):
        # 1e16 samples: 71 PiB of times alone
        with pytest.raises(MemoryError, match=r"^10000000000000001 samples at "
                                              r"fs=1e\+15 do not fit"):
            synthesize(ScenarioSpec(duration=10.0, base_freq=50.0), 1e15)

    def test_too_short_rejected(self):
        with pytest.raises(ScenarioError):
            synthesize(ScenarioSpec(duration=0.0005, base_freq=50.0), FS)

    def test_harmonic_content(self):
        spec = ScenarioSpec(duration=2.0, base_freq=50.0,
                            harmonics=(HarmonicSpec(order=3, rel_amp=0.02,
                                                    phase_rad=0.1),))
        stream, _ = synthesize(spec, FS)
        t = stream.times()
        expect = np.sin(2.0 * np.pi * 50.0 * t) \
            + 0.02 * np.sin(3.0 * 2.0 * np.pi * 50.0 * t + 0.1)
        np.testing.assert_allclose(stream.values, expect, atol=1e-9)


class TestSpecValidation:
    def test_bad_duration_and_freq(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(duration=-1.0, base_freq=50.0)
        with pytest.raises(ScenarioError):
            ScenarioSpec(duration=1.0, base_freq=0.0)

    @pytest.mark.parametrize("build, message", [
        # a negative window renders no step at all
        (lambda: StepSpec(t_start=0.5, duration=-1.0),
         "step duration must be non-negative, got -1.0"),
        # a scale 1 + amp_step_pu below zero flips the fundamental's sign
        (lambda: StepSpec(t_start=0.5, duration=0.2, amp_step_pu=-3.0),
         "amp_step_pu must be >= -1, got -3.0"),
        (lambda: ScenarioSpec(duration=1.0, base_freq=50.0, amp_pu=-1.0),
         "amp_pu must be non-negative, got -1.0"),
    ])
    def test_values_that_render_something_else_rejected(self, build,
                                                        message):
        with pytest.raises(ScenarioError) as info:
            build()
        assert str(info.value) == message

    def test_boundary_values_render(self):
        # an empty window, a silenced fundamental and a zero amplitude
        spec = ScenarioSpec(
            duration=1.0, base_freq=50.0, amp_pu=0.0,
            steps=(StepSpec(t_start=0.5, duration=0.0, amp_step_pu=-1.0),))
        _, truth = synthesize(spec, FS)
        assert not truth.amp_pu.any()
        spec = replace(spec, amp_pu=1.0,
                       steps=(StepSpec(t_start=0.5, duration=0.2,
                                       amp_step_pu=-1.0),))
        _, truth = synthesize(spec, FS)
        t = truth.times()
        win = (t >= 0.5) & (t < 0.7)
        assert not truth.amp_pu[win].any() and (truth.amp_pu[~win] == 1.0).all()

    def test_harmonic_spec_validation(self):
        with pytest.raises(ScenarioError):
            HarmonicSpec(order=1, rel_amp=0.1)
        with pytest.raises(ScenarioError):
            HarmonicSpec(order=3, rel_amp=-0.1)

    def test_max_order(self):
        spec = ScenarioSpec(duration=1.0, base_freq=50.0,
                            harmonics=(HarmonicSpec(order=3, rel_amp=0.1),
                                       HarmonicSpec(order=5, rel_amp=0.1)))
        assert spec.max_order == 5
        assert ScenarioSpec(duration=1.0, base_freq=50.0).max_order == 1
