"""Property-based tests (hypothesis) for the algebraic building blocks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq import (EstimatorConfig, EventProfile, RampProfile,
                      SampleStream, ScenarioSpec, init, run, step, synthesize)
from gridfreq import io as gio
from gridfreq.estimator import amp_phase
from gridfreq.synth import (ConstantProfile, DcSpec, HarmonicSpec, NoiseSpec,
                            StepSpec)
from gridfreq.model import ParameterVector, harmonic_basis, output_and_gradient

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


@given(a_s=finite, a_c=finite, x=st.floats(-10.0, 10.0))
def test_amp_phase_reconstructs_the_pair(a_s, a_c, x):
    amp, ph = amp_phase(a_s, a_c)
    expect = a_c * math.sin(x) + a_s * math.cos(x)
    scale = max(abs(a_s), abs(a_c), 1.0)
    assert amp * math.sin(x + ph) == pytest.approx(expect, abs=1e-9 * scale)
    assert amp >= 0.0


@given(phase=st.floats(-100.0, 100.0), n=st.integers(1, 8))
def test_harmonic_basis_matches_direct_trig(phase, n):
    cos_i, sin_i = harmonic_basis(phase, n)
    for i in range(n):
        assert cos_i[i] == pytest.approx(math.cos((i + 1) * phase), abs=1e-10)
        assert sin_i[i] == pytest.approx(math.sin((i + 1) * phase), abs=1e-10)


@given(data=st.data(), n=st.integers(1, 5),
       omega=st.floats(10.0, 500.0), t=st.floats(0.0, 1.0))
def test_eval_model_is_linear_in_the_coefficients(data, n, omega, t):
    coeffs = st.lists(finite, min_size=n, max_size=n)
    th1 = ParameterVector(data.draw(coeffs), data.draw(coeffs),
                          data.draw(finite), data.draw(finite))
    th2 = ParameterVector(data.draw(coeffs), data.draw(coeffs),
                          data.draw(finite), data.draw(finite))
    th_sum = ParameterVector([a + b for a, b in zip(th1.a_c, th2.a_c)],
                             [a + b for a, b in zip(th1.a_s, th2.a_s)],
                             th1.a_dc + th2.a_dc, th1.a_dc1 + th2.a_dc1)
    lhs = output_and_gradient(th_sum, omega * t, t)[0]
    rhs = (output_and_gradient(th1, omega * t, t)[0]
           + output_and_gradient(th2, omega * t, t)[0])
    assert lhs == pytest.approx(rhs, abs=1e-8)


@given(peak_dev=st.floats(0.05, 2.0).filter(lambda v: abs(v) > 1e-3),
       peak_rocof=st.floats(0.1, 5.0), t=st.floats(0.0, 10.0))
def test_event_profile_respects_its_peaks(peak_dev, peak_rocof, t):
    ev = EventProfile(t_start=1.0, peak_dev_hz=peak_dev,
                      peak_rocof_hzps=peak_rocof)
    ta = np.array([t])
    dev = abs(float(ev.freq(ta, 50.0)[0]) - 50.0)
    assert dev <= abs(peak_dev) * (1.0 + 1e-9)
    assert abs(float(ev.rocof(ta, 50.0)[0])) <= peak_rocof * (1.0 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False, allow_infinity=False,
                                 width=64),
                       min_size=2, max_size=40))
def test_sample_csv_round_trip_is_bitwise(values, tmp_path_factory):
    stream = SampleStream(0.0, 1.0 / 1200.0, np.array(values))
    path = tmp_path_factory.mktemp("io") / "s.csv"
    gio.write_samples(path, stream)
    back = gio.read_samples(path)
    np.testing.assert_array_equal(back.values, stream.values)


# --------------------------------------------------------------------------
# key-value file round trips
# --------------------------------------------------------------------------

real = st.floats(-1e3, 1e3)
positive = st.floats(1e-3, 1e3)
unit = st.floats(0.0, 1.0)

profiles = st.one_of(
    st.just(ConstantProfile()),
    st.builds(RampProfile, t_start=real, duration=positive, df_hz=real),
    st.builds(EventProfile, t_start=real,
              peak_dev_hz=real.filter(lambda v: v != 0.0),
              peak_rocof_hzps=positive))
noises = st.none() | st.builds(
    NoiseSpec, kind=st.sampled_from(["gaussian", "colored", "impulsive"]),
    level=st.floats(0.0, 0.2), seed=st.integers(0, 2 ** 64),
    pole=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    impulse_rate=unit, impulse_mag=st.floats(0.0, 1e6))


@st.composite
def scenario_specs(draw):
    duration = draw(positive)
    # each half of the window fits in half the record
    steps = st.builds(lambda a, b, amp, ph: StepSpec(0.5 * a * duration,
                                                     0.5 * b * duration, amp, ph),
                      unit, unit, real, real)
    return ScenarioSpec(
        duration=duration, base_freq=draw(positive), amp_pu=draw(real),
        phase0_rad=draw(real), profile=draw(profiles), noise=draw(noises),
        harmonics=draw(st.lists(st.builds(HarmonicSpec, st.integers(2, 50),
                                          unit, real), max_size=3)),
        steps=draw(st.lists(steps, max_size=3)),
        dc_events=draw(st.lists(st.builds(DcSpec, real, real, positive),
                                max_size=3)),
        distortion_knee=draw(st.none() | positive))


@st.composite
def estimator_configs(draw):
    n = draw(st.integers(1, 8))
    f0 = draw(st.floats(1.0, 100.0))
    gains = st.lists(positive, min_size=n, max_size=n).map(tuple)
    return EstimatorConfig(
        n=n, f0=f0, ts=draw(st.floats(0.01, 0.99)) * 0.5 / (n * f0),
        gamma_c=draw(gains), gamma_s=draw(gains), gamma_dc=draw(positive),
        gamma_dc1=draw(positive), eta_opt=draw(positive),
        obs_lowpass_hz=draw(st.none() | positive),
        rocof_smooth_window=draw(st.integers(1, 1000)),
        report_every=draw(st.integers(1, 1000)),
        t_reset_s=draw(positive))


@settings(max_examples=100, deadline=None)
@given(spec=scenario_specs())
def test_scenario_file_round_trip(spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("kv") / "s.cfg"
    gio.write_scenario(path, spec)
    assert gio.read_scenario(path) == spec


@settings(max_examples=100, deadline=None)
@given(config=estimator_configs())
def test_config_file_round_trip(config, tmp_path_factory):
    config.validate()
    path = tmp_path_factory.mktemp("kv") / "c.cfg"
    gio.write_config(path, config)
    assert gio.read_config(path) == config


# --------------------------------------------------------------------------
# divergence watchdog
# --------------------------------------------------------------------------

WATCH_CFG = EstimatorConfig()
WATCH_TONE = synthesize(ScenarioSpec(duration=0.05, base_freq=50.0),
                        1200.0)[0].values.tolist()
bad_values = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    min_value=1e290, max_value=1.7e308).flatmap(
        lambda v: st.sampled_from([v, -v]))


def _exact_verdict(state, config) -> bool:
    f = state.f_hz
    return (not (math.isfinite(f) and state.theta.is_finite())
            or abs(f - config.f0) > config.f0 / 2)


@settings(max_examples=200, deadline=None)
@given(warm=st.integers(0, len(WATCH_TONE) - 1),
       slot=st.integers(0, 2 * WATCH_CFG.n + 2), bad=bad_values)
def test_watchdog_flags_exactly_the_divergence_condition(warm, slot, bad):
    """A non-finite or huge value in one coefficient (slots 0..2n+1) or in
    the sample (slot 2n+2): step flags divergence exactly when the state it
    leaves fails the exact finiteness and frequency-band test."""
    cfg = WATCH_CFG
    n = cfg.n
    state = init(cfg)
    for x in WATCH_TONE[:warm]:
        step(state, x, cfg)
    assert not state.diverged
    th = state.theta
    sample = WATCH_TONE[warm]
    if slot < n:
        th.a_c[slot] = bad
    elif slot < 2 * n:
        th.a_s[slot - n] = bad
    elif slot == 2 * n:
        th.a_dc = bad
    elif slot == 2 * n + 1:
        th.a_dc1 = bad
    else:
        sample = bad
    assert step(state, sample, cfg) is None or not state.diverged
    assert state.diverged == _exact_verdict(state, cfg)


def test_watchdog_exact_check_after_finite_overflow():
    # finite coefficients whose sum overflows: the exact check decides.
    # The sample equals the prediction, so the residual and every update
    # are zero and the frequency stays put.
    cfg = WATCH_CFG
    state = init(cfg)
    state.theta.a_dc = 1.7e308
    state.theta.a_dc1 = 1.7e308
    step(state, 1.7e308, cfg)
    assert state.f_hz == cfg.f0
    assert state.theta.is_finite()
    assert not math.isfinite(sum(state.theta.a_c) + sum(state.theta.a_s)
                             + state.theta.a_dc + state.theta.a_dc1)
    assert not state.diverged
    assert not _exact_verdict(state, cfg)


# --------------------------------------------------------------------------
# anchor law
# --------------------------------------------------------------------------

ANCHOR_TONE = synthesize(ScenarioSpec(duration=0.5, base_freq=50.0), 1200.0)[0]


@settings(max_examples=100, deadline=None)
@given(cap=st.floats(0.0, 1.0, exclude_min=True))
def test_anchor_ramps_to_its_cap_and_holds_there(cap):
    """The anchor time never decreases, never exceeds ``t_reset_s`` and,
    once it reaches it, stays there exactly; a cap well inside the record
    is reached."""
    cfg = replace(EstimatorConfig(), report_every=1, t_reset_s=cap)
    anchors = [r.t_anchor for r in run(ANCHOR_TONE, cfg).records]
    assert all(a <= b for a, b in zip(anchors, anchors[1:]))
    assert max(anchors) <= cap
    if cap in anchors:
        assert all(a == cap for a in anchors[anchors.index(cap):])
    else:
        assert cap > 0.4
