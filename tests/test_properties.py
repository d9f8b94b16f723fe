"""Property-based tests (hypothesis) for the algebraic building blocks."""

import contextlib
import copy
import io
import itertools
import math
import re
from fractions import Fraction
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridfreq import (AlignmentError, EstimateSeries, EstimatorConfig,
                      EstimatorState, EventProfile, GroundTruth, RampProfile,
                      SampleStream, ScenarioError, ScenarioSpec, align, init,
                      run, step, synthesize)
from gridfreq import _native, cli, estimator
from gridfreq import io as gio
from gridfreq.synth import (ConstantProfile, DcSpec, HarmonicSpec, NoiseSpec,
                            StepSpec)
from cases import ARRAY_KINDS
from golden import state_digest
from reference import (harmonic_basis, output_and_gradient,
                       reference_amps_phases, reference_loop,
                       reference_record)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


def _polar_row(pairs) -> np.ndarray:
    """amp_1, phase_1, ..., amp_n, phase_n of the (a_s, a_c) pairs,
    through polar() of a one-row series."""
    a_s, a_c = zip(*pairs)
    row = [*range(len(estimator.ROW_COLUMNS)), *a_c, *a_s]
    return EstimateSeries(np.array([row], float)).polar()[0]


@given(a_s=finite, a_c=finite, x=st.floats(-10.0, 10.0))
def test_amp_phase_reconstructs_the_pair(a_s, a_c, x):
    amp, ph = _polar_row([(a_s, a_c)]).tolist()
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
    # (a_c, a_s, a_dc, a_dc1)
    th1 = (data.draw(coeffs), data.draw(coeffs),
           data.draw(finite), data.draw(finite))
    th2 = (data.draw(coeffs), data.draw(coeffs),
           data.draw(finite), data.draw(finite))
    th_sum = ([a + b for a, b in zip(th1[0], th2[0])],
              [a + b for a, b in zip(th1[1], th2[1])],
              th1[2] + th2[2], th1[3] + th2[3])
    lhs = output_and_gradient(*th_sum, omega * t, t)[0]
    rhs = (output_and_gradient(*th1, omega * t, t)[0]
           + output_and_gradient(*th2, omega * t, t)[0])
    assert lhs == pytest.approx(rhs, abs=1e-8)


@given(peak_dev=st.floats(0.05, 2.0).filter(lambda v: abs(v) > 1e-3),
       peak_rocof=st.floats(0.1, 5.0), t=st.floats(0.0, 10.0))
def test_event_profile_respects_its_peaks(peak_dev, peak_rocof, t):
    ev = EventProfile(t_start=1.0, peak_dev_hz=peak_dev,
                      peak_rocof_hzps=peak_rocof)
    freq, rocof, _ = ev.render(np.array([t]), 50.0)
    dev = abs(float(freq[0]) - 50.0)
    assert dev <= abs(peak_dev) * (1.0 + 1e-9)
    assert abs(float(rocof[0])) <= peak_rocof * (1.0 + 1e-9)


smooth_profiles = st.one_of(
    st.just(ConstantProfile()),
    st.builds(RampProfile, t_start=st.floats(0.0, 5.0),
              duration=st.floats(0.01, 5.0), df_hz=st.floats(-10.0, 10.0)),
    st.builds(EventProfile, t_start=st.floats(0.0, 5.0),
              peak_dev_hz=st.floats(-5.0, 5.0).filter(lambda v: abs(v) >= 0.01),
              peak_rocof_hzps=st.floats(0.1, 10.0)))


@settings(max_examples=200, deadline=None)
@given(profile=smooth_profiles, f0=st.floats(10.0, 100.0),
       t=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
def test_profile_render_is_consistent(profile, f0, t):
    """A profile's RoCoF is the slope of its frequency, and its frequency
    the slope of its integral: central differences agree, away from the
    corners where a ramp's RoCoF or an event's slope of RoCoF steps."""
    h = 1e-4 * min(getattr(profile, "duration", 1.0), 1.0)
    t = np.array(t)
    if not isinstance(profile, ConstantProfile):
        corners = np.array([profile.t_start, profile.t_start + profile.duration])
        t = t[np.abs(t[:, None] - corners).min(axis=1) > 2 * h]
    freq, rocof, _ = profile.render(t, f0)
    f_hi, _, i_hi = profile.render(t + h, f0)
    f_lo, _, i_lo = profile.render(t - h, f0)
    step = (t + h) - (t - h)
    np.testing.assert_allclose((f_hi - f_lo) / step, rocof, rtol=0, atol=1e-6
                               * (1.0 + np.abs(rocof).max(initial=0.0)))
    np.testing.assert_allclose((i_hi - i_lo) / step, freq, rtol=0,
                               atol=1e-6 * (1.0 + np.abs(freq).max(initial=0.0)))


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
# The C CSV formatter writes what repr writes
# --------------------------------------------------------------------------

# where repr's layout changes: signed zeros, the smallest subnormal and
# normal, the largest double, the fixed/exponent switches at 1e16 and 1e-4
# and their neighbours, and integral values on either side of 2^53; then
# where the formatter's 8-digit words meet: shortest digits exactly 1, 8,
# 9, 16 and 17 long, and runs of zero digits across a word
REPR_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
              2.225073858507201e-308, 1.7976931348623157e308, 1e16,
              9999999999999998.0, 1.0000000000000002e16, 1e-4,
              9.999999999999999e-05, 1.0000000000000002e-4, 1e15, 1e22,
              1e23, 2.0 ** 53, 2.0 ** 53 + 2.0, 123456789012345680.0,
              7.0, 0.1, 12345678.0, 123456789.0, 12345678.9, 1.00000001,
              100000000.5, 1200000000000000.0, 1234567890123456.0,
              0.1234567890123456, 1.0000000000000002, 1234567890123456.8,
              1.2345678901234568e-05]
repr_floats = st.one_of(
    st.floats(width=64),
    st.sampled_from(REPR_EDGES).flatmap(
        lambda x: st.sampled_from([x, -x, math.nextafter(x, math.inf),
                                   math.nextafter(x, -math.inf)])),
    st.floats(9e15, 2e16), st.floats(5e-5, 2e-4),
    st.floats(0.0, 2.3e-308),                          # subnormals
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.integers(0, 2 ** 64 - 1).map(                   # any bit pattern
        lambda b: np.uint64(b).view(np.float64).item()),
    # the smallest subnormals, where repr writes 5e-324 and 5e-323 and
    # Java's Double.toString 4.9e-324 and 4.9e-323
    st.integers(1, 4999).map(
        lambda b: np.uint64(b).view(np.float64).item()))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(repr_floats, min_size=1, max_size=50))
def test_c_formatter_writes_repr(values):
    text = _native.format_rows(np.array(values)[:, None])
    assert text == "".join(f"{x!r}\r\n" for x in values).encode()


def test_power_of_five_table_is_exact():
    """Each entry is 5^q scaled to 128 bits: truncated, but rounded up for
    -27 <= q < 0, as the parser's Eisel-Lemire reads them.  The formatter
    takes 1 from the rounded-up entries to get Schubfach's 126-bit 10^q,
    5^q rounded down and plus 1."""
    table = _native._pow10_table()
    qs = range(-342, 325)
    assert table.shape == (len(qs), 2)
    for q, (low, high) in zip(qs, table.tolist()):
        exact = Fraction(5) ** q
        # the scale that puts exact's leading bit at bit 127
        scaled = exact * Fraction(2) ** (127 - math.floor(math.log2(exact)))
        if scaled >= 2 ** 128:          # log2 rounded up near a power of 2
            scaled /= 2
        elif scaled < 2 ** 127:
            scaled *= 2
        expect = math.ceil(scaled) if -27 <= q < 0 else math.floor(scaled)
        assert low | high << 64 == expect, q


def _scale_changes() -> np.ndarray:
    """Doubles where the formatter's use of the table changes: every
    exponent with the mantissas 1, 2^52 - 1 and 0, whose lower neighbour
    is nearer than its upper one but in binade 1; random mantissas in
    [2^52, 2^62), which holds the binades 1075-1078, where Schubfach's
    decimal exponent k is 0 and 10^-k is 5^0, exact, and 1079, where k
    reaches 1 and 5^-1, the first entry the table rounds up; and random
    mantissas in the binades around 1169, where k crosses from 27, the
    last 5^-k that the table rounds up, to 28."""
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    edges = [exponents | np.uint64(m) for m in (0, 1, 2 ** 52 - 1)]
    rng = np.random.default_rng(0)
    mantissas = rng.integers(0, 2 ** 52, 2000, dtype=np.uint64)
    # a binade's doubles are 2^(e - 1075) * (2^52 + mantissa)
    binades = [*range(1075, 1085), *range(1165, 1180)]
    edges += [np.uint64(e << 52) | mantissas for e in binades]
    bits = np.concatenate(edges)
    return np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64)


def test_c_formatter_writes_repr_where_the_table_scale_changes():
    values = _scale_changes()
    text = _native.format_rows(values[:, None])
    assert text == "".join(f"{x!r}\r\n" for x in values.tolist()).encode()


@st.composite
def csv_columns(draw):
    """Columns longer than one write chunk: floats from random bits, from a
    drawn scale or integral, with drawn floats set at drawn rows."""
    rows = draw(st.integers(gio._CHUNK_ROWS + 1, 2 * gio._CHUNK_ROWS + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["bits", "scaled", "integral"]))
        if kind == "bits":
            col = rng.integers(0, 2 ** 64, rows, dtype=np.uint64).view(
                np.float64)
        elif kind == "scaled":
            col = rng.standard_normal(rows) * 10.0 ** draw(st.integers(-20, 20))
        else:
            col = rng.integers(-2 ** 40, 2 ** 40, rows).astype(np.float64)
        for row in draw(st.lists(st.integers(0, rows - 1), max_size=8)):
            col[row] = draw(repr_floats)
        columns.append(col)
    return columns


@settings(max_examples=25, deadline=None)
@given(columns=csv_columns())
def test_write_rows_writes_one_repr_per_value(columns, tmp_path_factory):
    """_write_rows, through the C formatter in chunks, writes the bytes of
    one repr per value."""
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    gio._write_rows(path, header, columns)
    rows = np.column_stack(columns).tolist()
    expect = ",".join(header) + "\r\n" + "".join(
        ",".join(map(repr, row)) + "\r\n" for row in rows)
    assert path.read_bytes() == expect.encode()


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
                      unit, unit, st.floats(-1.0, 1e3), real)
    return ScenarioSpec(
        duration=duration, base_freq=draw(positive),
        amp_pu=draw(st.floats(0.0, 1e3)),
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


def _finite(state) -> bool:
    return all(map(math.isfinite,
                   (*state.a_c, *state.a_s, state.a_dc, state.a_dc1)))


def _exact_verdict(state, config) -> bool:
    f = state.f_hz
    return (not (math.isfinite(f) and _finite(state))
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
    sample = WATCH_TONE[warm]
    # a_c and a_s read as new lists: change one and assign it back
    if slot < n:
        a_c = state.a_c
        a_c[slot] = bad
        state.a_c = a_c
    elif slot < 2 * n:
        a_s = state.a_s
        a_s[slot - n] = bad
        state.a_s = a_s
    elif slot == 2 * n:
        state.a_dc = bad
    elif slot == 2 * n + 1:
        state.a_dc1 = bad
    else:
        sample = bad
    assert step(state, sample, cfg) is None or not state.diverged
    assert state.diverged == _exact_verdict(state, cfg)


def test_watchdog_exact_check_after_finite_overflow():
    # finite coefficients whose sum overflows: no divergence, since the
    # watchdog tests each value, never a sum of them.  The sample equals
    # the prediction, so the residual and every update are zero and the
    # frequency stays put.
    cfg = WATCH_CFG
    state = init(cfg)
    state.a_dc = 1.7e308
    state.a_dc1 = 1.7e308
    step(state, 1.7e308, cfg)
    assert state.f_hz == cfg.f0
    assert _finite(state)
    assert not math.isfinite(sum(state.a_c) + sum(state.a_s)
                             + state.a_dc + state.a_dc1)
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


# --------------------------------------------------------------------------
# the C loop, through run() and step(), against the reference loop
# --------------------------------------------------------------------------

extreme = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300])
# a DC gain may also be huge, so a_dc or a_dc1 overflows while f stays in
# its band
dc_gain = positive | st.floats(1e3, 1e308)


@st.composite
def loop_cases(draw, dc_gain=dc_gain):
    """A config of any order the default ts allows and a tone with extreme
    values at random positions."""
    n = draw(st.integers(1, 11))
    gains = st.lists(positive, min_size=n, max_size=n).map(tuple)
    report_every = draw(st.integers(1, 50))
    length = draw(st.integers(1, len(ANCHOR_TONE.values)))
    config = EstimatorConfig(
        n=n, gamma_c=draw(gains), gamma_s=draw(gains),
        gamma_dc=draw(dc_gain), gamma_dc1=draw(dc_gain),
        eta_opt=draw(st.floats(1.0, 1e5)),
        obs_lowpass_hz=draw(st.none() | st.floats(1.0, 5000.0)),
        report_every=report_every,
        # shorter than the report interval up to longer than the record
        rocof_smooth_window=draw(st.integers(1, report_every)
                                 | st.integers(length, 2 * length)),
        t_reset_s=draw(st.floats(1e-3, 1.0)))
    values = (ANCHOR_TONE.values[:length] * draw(st.floats(0.01, 100.0)))
    for pos in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        values[pos] = draw(extreme)
    t0 = draw(st.floats(-1e6, 1e6))
    return config, SampleStream(t0, ANCHOR_TONE.ts, values)


def _step_fold(config, stream):
    """The records of step from init(config, t0) over the stream, up to a
    divergence, and the final state."""
    state = init(config, stream.t0)
    records = []
    for x in stream.values.tolist():
        rec = step(state, x, config)
        if rec is not None:
            records.append(rec)
        if state.diverged:
            break
    return records, state


def _reference(config, stream):
    """The rows, as a series, and the final state of the plain Python loop
    of tests/reference.py over the stream from a fresh state."""
    rows, final = reference_loop(
        stream.values.tolist(), stream.t0, config.ts, config.n, config.f0,
        config.gamma_c, config.gamma_s, config.gamma_dc, config.gamma_dc1,
        config.eta_opt, config.t_reset_s, config.report_every,
        config.rocof_smooth_window, config.obs_lowpass_hz)
    width = len(estimator.ROW_COLUMNS) + 2 * config.n
    series = EstimateSeries(np.array(rows, dtype=float).reshape(-1, width))
    return series, EstimatorState(**final)


@settings(max_examples=300, deadline=None)
@given(case=loop_cases())
def test_c_run_equals_python_run_bit_for_bit(case):
    """One run() pass writes the rows of the reference loop and stops at
    its divergence."""
    config, stream = case
    expect, oracle = _reference(config, stream)
    series = run(stream, config)
    # the bytes compare NaN positions and signed zeros too
    assert series.rows.tobytes() == expect.rows.tobytes()
    assert series.diverged_at == (oracle.k if oracle.diverged else None)


@settings(max_examples=300, deadline=None)
@given(case=loop_cases())
def test_c_step_equals_python_step_bit_for_bit(case):
    """A step fold gives the reports, the final state and the stopping
    sample of the reference loop."""
    config, stream = case
    expect, oracle = _reference(config, stream)
    records, state = _step_fold(config, stream)
    # repr compares signed zeros and nan too
    assert repr(records) == repr(expect.records)
    assert state_digest(state) == state_digest(oracle)
    assert state.k == oracle.k
    assert state.diverged == oracle.diverged


@settings(max_examples=100, deadline=None)
@given(case=loop_cases())
def test_step_fold_equals_run(case):
    """step from init(config, t0), one sample at a time up to a divergence,
    reports what one run() pass stores, and stops where run() stops."""
    config, stream = case
    records, state = _step_fold(config, stream)
    series = run(stream, config)
    # repr compares signed zeros and nan too
    assert repr(records) == repr(series.records)
    if series.diverged_at is None:
        assert not state.diverged and state.k == len(stream)
    else:
        assert state.diverged and state.k == series.diverged_at


@settings(max_examples=100, deadline=None)
@given(case=loop_cases())
def test_step_records_equal_the_oracle_records_of_the_run_rows(case):
    """The records a step fold builds in C are the plain Python rule's
    records of the rows one run() pass stores."""
    config, stream = case
    records, _ = _step_fold(config, stream)
    expect = [reference_record(estimator.EstimateRecord, row)
              for row in run(stream, config).rows.tolist()]
    # repr compares signed zeros and nan too
    assert repr(records) == repr(expect)


# signed zeros, nan, infinities, subnormals and the smallest normal, and
# any other double
pair_values = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, 1e-310, 2.0 ** -1022, 1.0, -2.0]),
    st.floats())


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(pair_values, pair_values), min_size=1,
                      max_size=8))
def test_c_amp_phase_rule_equals_the_oracle_bit_for_bit(pairs):
    """polar() and records, which apply the C rule, each give the plain
    Python rule's amplitudes and phases bit for bit."""
    a_s, a_c = (list(x) for x in zip(*pairs))
    amps, phases = reference_amps_phases(a_s, a_c)
    expect = np.array([v for pair in zip(amps, phases) for v in pair])
    head = len(estimator.ROW_COLUMNS)
    series = EstimateSeries(
        np.array([[*range(head), *a_c, *a_s]], dtype=float))
    (rec,) = series.records
    got = [v for pair in zip(rec.amps, rec.phases) for v in pair]
    assert np.array(got).tobytes() == expect.tobytes()
    assert series.polar().tobytes() == expect.tobytes()


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(allow_nan=False,
                                          allow_infinity=False),
                                st.floats(allow_nan=False,
                                          allow_infinity=False)),
                      min_size=1, max_size=8))
def test_amp_phase_is_within_1_ulp_of_the_math_module(pairs):
    """The tolerance of the C rule against CPython's math module on finite
    pairs: each amplitude is within 1 ulp of math.hypot's, whose algorithm
    is not libm's, and each phase is math.atan2's bit for bit."""
    polar = _polar_row(pairs).tolist()
    for (a_s, a_c), amp, phase in zip(pairs, polar[::2], polar[1::2]):
        expect = math.hypot(a_s, a_c)
        assert amp in (math.nextafter(expect, 0.0), expect,
                       math.nextafter(expect, math.inf))
        # repr compares signed zeros too
        assert repr(phase) == repr(math.atan2(a_s, a_c) if expect else 0.0)


# an estimate file holds finite rows only: huge DC gains would leave too
# few drawn cases that keep them
@settings(max_examples=60, deadline=None)
@given(case=loop_cases(dc_gain=positive))
def test_estimate_csv_round_trip_is_bitwise(case, tmp_path_factory):
    """A series read back from its estimate CSV equals the series written:
    the same row bytes and the same records."""
    config, stream = case
    series = run(stream, config)
    # an estimate file holds at least one row, of finite values only
    assume(len(series) > 0 and np.isfinite(series.rows).all())
    path = tmp_path_factory.mktemp("est") / "e.csv"
    gio.write_estimates(path, series)
    back = gio.read_estimates(path)
    assert back.n == config.n
    assert back.rows.tobytes() == series.rows.tobytes()
    assert back.records == series.records


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(p.stem for p in SCENARIOS.glob("*.cfg"))),
       seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=2,
                      unique=True))
def test_a_cached_render_leaves_earlier_streams_alone(name, seeds):
    """Seed a, then b, then a again on one spec object: the first call's
    arrays keep their bits, and the third call repeats them."""
    a, b = seeds
    spec = gio.read_scenario(SCENARIOS / f"{name}.cfg")

    def bits(stream, truth):
        return [stream.values.tobytes(), truth.freq_hz.tobytes(),
                truth.rocof_hzps.tobytes(), truth.amp_pu.tobytes(),
                truth.phase_rad.tobytes()]

    first = synthesize(spec, 1200.0, seed=a)
    before = bits(*first)
    synthesize(spec, 1200.0, seed=b)
    assert bits(*first) == before
    assert bits(*synthesize(spec, 1200.0, seed=a)) == before


# two seeds of a record whose frequency and RoCoF change over its whole
# 2 s (the event lasts 2.09 s), so a pairing at another latency reads
# other truth values
_PAIRED = [synthesize(ScenarioSpec(
    duration=2.0, base_freq=50.0, noise=NoiseSpec(level=0.02),
    profile=EventProfile(t_start=0.0, peak_dev_hz=0.5,
                         peak_rocof_hzps=0.75)), 1200.0, seed=s)
    for s in (0, 1)]
# (report_every, latency, skip_s) of one align call; past 2 s no record pairs
align_args = st.tuples(st.integers(1, 600), st.floats(0.0, 2.2),
                       st.floats(0.0, 2.2))
# the kind of array the truth of an align call is built over
array_kinds = st.sampled_from(list(ARRAY_KINDS))


@st.composite
def align_calls(draw):
    """Two calls' arguments, each of the second's that of the first or
    drawn anew, so a kept pairing meets every kind of near miss."""
    first, other = draw(align_args), draw(align_args)
    same = draw(st.sampled_from(list(itertools.product((True, False),
                                                       repeat=3))))
    return first, tuple(a if keep else b
                        for a, b, keep in zip(first, other, same))


@settings(deadline=None)
@given(t0=st.floats(-1e9, 2e9), calls=align_calls(), kind=array_kinds)
# the same arguments over each kind of array, then another report grid,
# latency or skip window, and a pairing that fails
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 0.5)), kind="writable")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 0.5)), kind="read-only")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 0.5)), kind="view")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 0.5)), kind="bytes")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 0.5)),
         kind="bytes-column")
@example(t0=0.0, calls=((12, 0.1, 0.5), (24, 0.1, 0.5)), kind="view")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.3, 0.5)), kind="view")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 1.0)), kind="view")
@example(t0=0.0, calls=((12, 0.1, 0.5), (12, 0.1, 2.1)), kind="view")
def test_a_kept_pairing_has_the_bits_of_a_fresh_one(t0, calls, kind):
    """Align a run of one seed, then of another, on one truth built over
    ``kind`` of array, writing every array the caller holds before each
    call: each pairing has the bits of a pairing on a fresh copy of the
    truth, whatever it reuses; the truth side is read-only and, for the
    same arguments, the first call's; and a pairing that fails fails
    again."""
    truth0 = _PAIRED[0][1]
    build = ARRAY_KINDS[kind][0]
    built = [build(arr) for arr in (truth0.freq_hz, truth0.rocof_hzps,
                                    truth0.amp_pu, truth0.phase_rad)]
    truth = GroundTruth(t0, truth0.ts, *(arr for arr, _ in built))
    held = [arr for _, writable in built for arr in writable]
    kept = None
    for (stream, _), args in zip(_PAIRED, calls):
        for arr in held:
            arr += 1.0
        report_every, latency, skip_s = args
        series = run(SampleStream(t0, stream.ts, stream.values),
                     replace(EstimatorConfig(), report_every=report_every))
        try:
            fresh = align(series, copy.copy(truth), latency, skip_s)
        except AlignmentError:
            for _ in range(2):
                with pytest.raises(AlignmentError):
                    align(series, truth, latency, skip_s)
            continue
        pairs = align(series, truth, latency, skip_s)
        for name in ("t", "f_est", "rocof_est", "f_true", "rocof_true"):
            assert (getattr(pairs, name).tobytes()
                    == getattr(fresh, name).tobytes()), name
        for arr in (pairs.t, pairs.f_true, pairs.rocof_true):
            assert not arr.flags.writeable
        if kept is not None and repr(args) == repr(kept[0]):
            assert pairs.f_true is kept[1].f_true
        kept = args, pairs


number = (st.floats(width=64).map(repr)
          | st.integers(-10**6, 10**6).map(str))
# fields np.loadtxt reads to a number and the C grammar refuses (README
# "Removed"): a blank that is not a space or a tab, text after a closing
# quote, and a quote left open on its line
REMOVED_FIELDS = ["\u00a01", "1\x0b", '"1"2', '""1', '"1']
csv_fields = (number
              | st.sampled_from(["1_0", "nan", "-nan", "inf", "-inf",
                                 "Infinity", "", " ", "#1", ".5", "+1.",
                                 "1e5", "0x10", "1d3", "١"])
              | st.tuples(st.sampled_from(["", " ", "  ", "\t"]), number,
                          st.sampled_from(["", " ", "\t"])).map("".join)
              | number.map(lambda v: f'"{v}"')
              | st.sampled_from(REMOVED_FIELDS))


@st.composite
def csv_texts(draw):
    """(width, text, removed) of a CSV with a header of ``width`` columns
    and drawn rows: mostly that wide, some ragged, some blank, with \\n,
    \\r\\n or \\r line ends; ``removed`` tells whether a field is one of
    ``REMOVED_FIELDS``."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(csv_fields, min_size=width, max_size=width)
        | st.lists(csv_fields, min_size=0, max_size=width + 1)
        | st.just([]), max_size=6))
    text = ",".join(f"h{i}" for i in range(width))
    for row in rows:
        text += draw(st.sampled_from(["\n", "\r\n", "\r"])) + ",".join(row)
    removed = any(field in REMOVED_FIELDS for row in rows for field in row)
    return width, text + draw(st.sampled_from(["", "\n", "\r\n"])), removed


NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80",
                            b"\xf4\x90\x80\x80"])


@settings(max_examples=300, deadline=None)
@given(case=csv_texts(),
       junk=st.lists(st.tuples(st.integers(0, 10**6), NOT_UTF8), max_size=2))
def test_csv_rows_are_numpys_or_an_error_naming_a_line(case, junk,
                                                       tmp_path_factory):
    """_read_rows gives np.loadtxt's array of the data lines, bit for bit,
    or a ScenarioError naming a line of the file (`no data rows` only where
    numpy finds none); undecodable bytes name the line that holds them.
    Where np.loadtxt reads finite rows as wide as the header, _read_rows
    reads them too, unless a field is one README lists as removed."""
    width, text, removed = case
    data = text.encode()
    for pos, bad in junk:
        pos %= len(data) + 1
        data = data[:pos] + bad + data[pos:]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    path.write_bytes(data)
    lines = re.split(rb"\r\n?|\n", data)
    try:
        _, arr = gio._read_rows(path)
    except ScenarioError as exc:
        message = str(exc)
    else:
        expect = _numpy_rows(path)
        assert (arr.shape, arr.tobytes()) == (expect.shape, expect.tobytes())
        return
    try:
        expect = _numpy_rows(path)
    except ValueError:
        expect = None
    assert (removed or expect is None or expect.shape != (len(expect), width)
            or not len(expect) or not np.isfinite(expect).all()), message
    undecodable = [i for i, line in enumerate(lines, 1)
                   if not _is_utf8(line)]
    if undecodable:
        assert message == f"{path}:{undecodable[0]}: not UTF-8 text"
    elif message == f"{path}: no data rows":
        assert len(_numpy_rows(path)) == 0
    else:
        named = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
        assert named and 2 <= int(named[1]) <= len(lines), message


# five spellings of a double: repr's and %.17g's (both write e+XX
# exponents), 25 significant digits, a short decimal and an E exponent
SPELLINGS = {
    "repr": repr,
    "%.17g": "%.17g".__mod__,
    "%.25g": "%.25g".__mod__,
    "short": lambda x: f"{x:.3g}",
    "exponent": "%.16E".__mod__,
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), nrows=st.integers(1, 5),
       crlf=st.booleans(), last_end=st.booleans())
def test_c_rows_are_numpys(data, width, nrows, crlf, last_end):
    """The C parser gives np.loadtxt's bits for drawn doubles, subnormals
    drawn apart, written each of five ways, and names the first value that
    overflows as not finite."""
    doubles = (st.floats(allow_nan=False, allow_infinity=False)
               | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
    values = data.draw(st.lists(doubles, min_size=width * nrows,
                                max_size=width * nrows))
    ways = data.draw(st.lists(st.sampled_from(sorted(SPELLINGS)),
                              min_size=len(values), max_size=len(values)))
    fields = [SPELLINGS[w](x) for w, x in zip(ways, values)]
    end = "\r\n" if crlf else "\n"
    rows = [",".join(fields[i:i + width]) for i in range(0, len(fields), width)]
    text = ",".join(f"h{i}" for i in range(width)) + end + end.join(rows)
    text += end if last_end else ""
    start = len(text.split(end, 1)[0]) + len(end)
    arr, fault = _native.parse_rows(text.encode(), start, width)
    expect = _numpy_rows(text.split(end))
    # a short spelling can overflow: the rows stop at the first such line
    overflow = np.argwhere(~np.isfinite(expect))
    if len(overflow):
        row, field = overflow[0]
        assert fault == (row, field, "not finite")
        expect = expect[:row]
    else:
        assert fault is None
    assert (arr.shape, arr.tobytes()) == (expect.shape, expect.tobytes())


@st.composite
def midpoint_decimals(draw):
    """"{w}e{q}", 1 <= q <= 23 and w < 10^19, for an exact midpoint between
    two adjacent doubles, or w - 1 or w + 1 beside it.  The midpoint's odd
    part, o * 5^q, has the 54 bits of a double's significand and one more."""
    q = draw(st.integers(1, 23))
    o = draw(st.integers(-(-2 ** 53 // 5 ** q), 2 ** 54 // 5 ** q)) | 1
    assume((o * 5 ** q).bit_length() == 54)
    w = o << draw(st.integers(0, ((10 ** 19 - 1) // o).bit_length() - 1))
    x = float(w * 10 ** q)
    ulp = Fraction(math.nextafter(x, math.inf)) - Fraction(x)
    assert abs(Fraction(w * 10 ** q) - Fraction(x)) == ulp / 2
    return f"{w + draw(st.sampled_from([0, -1, 1]))}e{q}"


@settings(max_examples=300, deadline=None)
@given(fields=st.lists(
    st.builds("{}e{}".format, st.integers(1, 2 ** 53), st.integers(-22, 22))
    | midpoint_decimals(), min_size=1, max_size=20))
def test_c_parser_reads_exact_and_tied_decimals(fields):
    """w * 10^q with w <= 2^53 and |q| <= 22, where a double holds w and
    10^|q| exactly, and exact midpoints between doubles, which round to
    even, read as float() reads them."""
    arr, fault = _native.parse_rows("\n".join(fields).encode(), 0, 1)
    expect = np.array([[float(f)] for f in fields])
    assert fault is None
    assert (arr.shape, arr.tobytes()) == (expect.shape, expect.tobytes())


def _numpy_rows(source: Path | list[str]) -> np.ndarray:
    """The data rows of a CSV file, or of a list of its lines, as np.loadtxt
    reads them: a quoted field is one value, an empty line none."""
    with warnings.catch_warnings():   # numpy warns on a file without rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", skiprows=1, ndmin=2,
                          comments=None, quotechar='"', encoding="utf-8")


def _is_utf8(line: bytes) -> bool:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(t0=st.builds(lambda sign, m, e: sign * m * 10.0 ** e,
                    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0),
                    st.integers(-3, 9)) | st.just(0.0))
def test_a_samples_file_at_any_start_time_is_run(t0, tmp_path_factory):
    """A samples and a truth file written at a start time of any magnitude
    up to 1e10 s read back with that start and an interval close to the
    written one, and run gives the rows of the stream written."""
    config = EstimatorConfig()
    stream, truth = synthesize(ScenarioSpec(duration=0.5, base_freq=50.0),
                               1.0 / config.ts)
    stream = SampleStream(t0, stream.ts, stream.values)
    d = tmp_path_factory.mktemp("t0")
    gio.write_samples(d / "s.csv", stream)
    gio.write_truth(d / "truth.csv", replace(truth, t0=t0))
    slack = 1e-9 * config.ts + estimator.TIME_ROUNDING * np.spacing(abs(t0))
    samples = gio.read_samples(d / "s.csv")
    for back in (samples, gio.read_truth(d / "truth.csv")):
        assert back.t0 == t0
        assert abs(back.ts - stream.ts) <= slack
    assert samples.values.tobytes() == stream.values.tobytes()
    assert (run(samples, config).rows.tobytes()
            == run(stream, config).rows.tobytes())


# --------------------------------------------------------------------------
# The command line on drawn files
# --------------------------------------------------------------------------

# Values a drawn key takes.  Every number is either at most 3 in magnitude
# or at least 1e20, or a subnormal or the smallest normal: so a render of
# duration * fs samples, fs = 1200 or 1 / ts_s, either holds at most 3,601
# samples or is refused before it is allocated (too short, more than one
# array can hold, or fs not finite).  A RoCoF ring is at most a stream long.
KV_VALUES = st.one_of(
    st.sampled_from([
        "0", "-0.0", "5e-324", "1e-310", "2.2250738585072014e-308", "1e20",
        "1e300", "1.7e308", "1e400", "100000000000000000000",
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775809", "-1e300", "nan", "-nan", "inf", "-inf",
        "Infinity", "abc", "", "0x10", "1_000", "١", "1", "2", "3.0",
        "-1", "-5", "0.5", "1e-3", "event", "ramp", "constant", "gaussian",
        "colored", "impulsive"]),
    st.integers(-3, 3).map(str),
    (st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3)).map(repr))
# lines that are not `key = value` with a known key
KV_LINES = st.sampled_from(["garbage", "= 1", "n", "bogus = 1",
                            "profile.bogus = 1", "# comment", "\t"])
SCENARIO_KEYS = ("profile", "profile.duration", "profile.df_hz",
                 "noise.kind", "noise.pole", "noise.impulse_rate",
                 "noise.impulse_mag", "harmonic_2.order",
                 "harmonic_2.rel_amp", "step_2.t_start", "step_2.duration",
                 "dc_2.tau_s")
CONFIG_KEYS = ("gamma_c_3", "gamma_s_3", "obs_lowpass_hz", "anchor_policy")


@st.composite
def kv_texts(draw, lines, extra_keys):
    """A key = value file: ``lines`` with up to three keys set to a drawn
    value, dropped or duplicated, or malformed lines added."""
    lines = list(lines)
    keys = [line.split(" = ", 1)[0] for line in lines] + list(extra_keys)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["set", "set", "set", "drop", "dup",
                                   "line"]))
        key = draw(st.sampled_from(keys))
        at = [i for i, line in enumerate(lines)
              if line.split(" = ", 1)[0] == key]
        if op == "set":
            line = f"{key} = {draw(KV_VALUES)}"
            if at:
                lines[at[0]] = line
            else:
                lines.append(line)
        elif op == "drop" and at:
            del lines[at[0]]
        elif op == "dup" and at:
            lines.append(lines[at[0]])
        elif op == "line":
            lines.insert(draw(st.integers(0, len(lines))), draw(KV_LINES))
    return "\n".join(lines) + "\n"


CLI_SCENARIO = ScenarioSpec(
    duration=0.75, base_freq=50.0,
    profile=EventProfile(t_start=0.2, peak_dev_hz=0.5, peak_rocof_hzps=1.0),
    noise=NoiseSpec(kind="gaussian", level=0.02, seed=0),
    harmonics=(HarmonicSpec(3, 0.05, 0.1),),
    steps=(StepSpec(0.3, 0.1, 0.1, 0.2),),
    dc_events=(DcSpec(0.1, 0.2, 0.05),))
CLI_CONFIG = EstimatorConfig(n=2)
# bytes a mutation writes: separators, line ends, signs, exponents, a
# byte that is not UTF-8, quotes and digits
MUTATION_BYTES = st.sampled_from([b",", b"\n", b"\r", b"-", b"+", b"e",
                                  b"E", b".", b"0", b"9", b" ", b'"',
                                  b"\xff", b"nan", b"inf", b"#", b""])


@st.composite
def byte_mutations(draw, data: bytes) -> bytes:
    """``data`` with one to three bytes replaced by, or with, drawn bytes,
    or deleted."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 1))
        data = data[:at] + draw(MUTATION_BYTES) + data[at + cut:]
    return data


def _cli(*argv) -> int:
    """The exit code of ``cli.main`` on ``argv``, asserting that it is 0, 2
    or 3 and that the command raised no warning and printed no
    traceback."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        warnings.simplefilter("always")
        code = cli.main([str(arg) for arg in argv])
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 2, 3), (argv, code, out.getvalue())
    assert "Traceback" not in out.getvalue(), (argv, out.getvalue())
    return code


@pytest.fixture(scope="module")
def cli_base(tmp_path_factory):
    """A directory with the samples, truth and estimate CSVs of the base
    scenario, ``base_samples.csv``, ``base_truth.csv`` and
    ``base_est.csv``."""
    d = tmp_path_factory.mktemp("cli_base")
    gio.write_scenario(d / "base.cfg", CLI_SCENARIO)
    assert _cli("synth", d / "base.cfg", "--out", d) == 0
    assert _cli("estimate", d / "base_samples.csv", "--out",
                d / "base_est.csv") == 0
    return d


@settings(max_examples=150, deadline=None)
@given(scenario=kv_texts(gio._lines(CLI_SCENARIO), SCENARIO_KEYS),
       config=kv_texts(gio._lines(CLI_CONFIG), CONFIG_KEYS),
       mutated=st.sampled_from(["samples", "truth", "est"]), data=st.data())
def test_cli_exits_0_2_or_3_on_drawn_files(scenario, config, mutated, data,
                                           cli_base, tmp_path_factory):
    """Every command on a drawn scenario or config file, or on a samples,
    truth or estimate CSV with mutated bytes, exits 0, 2 or 3, with no
    exception out of main, no warning and no traceback in its output."""
    d = tmp_path_factory.mktemp("cli")
    s, c = d / "s.cfg", d / "c.cfg"
    s.write_text(scenario)
    c.write_text(config)
    base = {kind: cli_base / f"base_{kind}.csv"
            for kind in ("samples", "truth", "est")}
    # later commands read the drawn scenario's render where it has one
    if _cli("synth", s, "--out", d) == 0:
        base["samples"], base["truth"] = d / "s_samples.csv", d / "s_truth.csv"
    if _cli("estimate", base["samples"], "--config", c, "--out",
            d / "e.csv") == 0:
        base["est"] = d / "e.csv"
    _cli("metrics", "--est", base["est"], "--truth", base["truth"])
    _cli("metrics", "--scenario", s, "--config", c, "--seeds", 2)
    _cli("tune", "--scenario", s, "--config", c, "--swarm", 2,
         "--iterations", 1, "--out", d / "t.cfg")
    base[mutated] = d / f"mutated_{mutated}.csv"
    base[mutated].write_bytes(data.draw(byte_mutations(
        (cli_base / f"base_{mutated}.csv").read_bytes())))
    if mutated == "samples":
        _cli("estimate", base["samples"], "--out", d / "m.csv")
    else:
        _cli("metrics", "--est", base["est"], "--truth", base["truth"])
