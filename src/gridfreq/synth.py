"""Test-waveform synthesis with exact ground truth.

Generates single-channel sampled waveforms built from a fundamental with a
configurable frequency profile, harmonic content, amplitude/phase step
windows, decaying DC offsets, an optional soft-saturation distortion stage
and the additive noise of a :class:`NoiseSpec`.  The fundamental phase is
obtained by analytically integrating the frequency profile, so ramps and
dips are physically consistent and the recorded ground truth (frequency,
RoCoF, amplitude, phase) is exact rather than finite-differenced.  The
Nyquist check, and the check that the fundamental stays above 0 Hz, read
the same rendered frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, is_count

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# Streams and truth
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleStream:
    """Uniformly sampled waveform: sample k is at time t0 + k*ts."""

    t0: float
    ts: float
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_grid(self.t0, self.ts)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise ScenarioError("stream must contain at least one sample")

    def times(self) -> np.ndarray:
        return self.t0 + self.ts * np.arange(self.values.size)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-sample true fundamental parameters paired with a SampleStream.

    The arrays are read-only: :func:`synthesize` shares them between the
    seeds of one scenario.  A truth equals and hashes by identity, so
    :func:`gridfreq.metrics.align` can keep its pairing per truth; that
    pairing assumes the values never change, so the truth keeps each array
    as :func:`immutable` returns it.
    """

    t0: float
    ts: float
    freq_hz: np.ndarray
    rocof_hzps: np.ndarray
    amp_pu: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self) -> None:
        _check_grid(self.t0, self.ts)
        for name in ("freq_hz", "rocof_hzps", "amp_pu", "phase_rad"):
            object.__setattr__(self, name, immutable(getattr(self, name)))
        n = self.freq_hz.size
        if any(getattr(self, f).size != n for f in ("rocof_hzps", "amp_pu", "phase_rad")):
            raise ScenarioError("ground-truth sequences must have equal length")

    def times(self) -> np.ndarray:
        return self.t0 + self.ts * np.arange(self.freq_hz.size)

    def __len__(self) -> int:
        return self.freq_hz.size


def immutable(value: object) -> np.ndarray:
    """``value`` as a float64 array in C order: ``value`` itself if it is one
    that is read-only and whose memory is its own or an immutable
    ``bytes``, otherwise a read-only copy, which no one else holds."""
    arr = np.ascontiguousarray(value, np.float64)
    if arr.flags.writeable or not (arr.base is None
                                   or isinstance(arr.base, bytes)):
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _check_grid(t0: float, ts: float) -> None:
    """Refuse a time grid t0 + k*ts whose start is not finite, or whose
    interval is not finite and positive."""
    if not math.isfinite(t0):
        raise ScenarioError(f"t0 must be finite, got {t0!r}")
    if not (math.isfinite(ts) and ts > 0):
        raise ScenarioError(f"ts must be finite and positive, got {ts!r}")


# --------------------------------------------------------------------------
# Frequency profiles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantProfile:
    """f(t) = base frequency for all t."""

    def render(self, t: np.ndarray, f0: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frequency, RoCoF, integral of the frequency from 0) at ``t``."""
        return np.full_like(t, f0), np.zeros_like(t), f0 * t


@dataclass(frozen=True)
class RampProfile:
    """Linear excursion of ``df_hz`` over [t_start, t_start + duration].

    Frequency holds at f0 before the ramp and at f0 + df_hz after it.
    """

    t_start: float
    duration: float
    df_hz: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ScenarioError("ramp duration must be positive")

    def render(self, t: np.ndarray, f0: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frequency, RoCoF, integral of the frequency from 0) at ``t``."""
        slope = self.df_hz / self.duration
        u = np.clip(t - self.t_start, 0.0, self.duration)
        inside = (t >= self.t_start) & (t < self.t_start + self.duration)
        return (f0 + slope * u, np.where(inside, slope, 0.0),
                f0 * t + 0.5 * slope * u * u + self.df_hz * np.clip(
                    t - self.t_start - self.duration, 0.0, None))


@dataclass(frozen=True)
class EventProfile:
    """Raised-cosine frequency excursion with exact peak deviation and RoCoF.

    f(t) = f0 - (D/2) * (1 - cos(2*pi*u/T)) for u = t - t_start in [0, T],
    with T = pi * |D| / R so that max |df/dt| equals ``peak_rocof_hzps`` and
    the peak deviation equals ``peak_dev_hz`` (positive deviation dips below
    nominal, negative swells above it).
    """

    t_start: float
    peak_dev_hz: float
    peak_rocof_hzps: float

    def __post_init__(self) -> None:
        if self.peak_rocof_hzps <= 0:
            raise ScenarioError("peak RoCoF must be positive")
        if self.peak_dev_hz == 0:
            raise ScenarioError("peak deviation must be nonzero")

    @property
    def duration(self) -> float:
        return math.pi * abs(self.peak_dev_hz) / self.peak_rocof_hzps

    def render(self, t: np.ndarray, f0: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frequency, RoCoF, integral of the frequency from 0) at ``t``."""
        T = self.duration
        u = np.clip(t - self.t_start, 0.0, T)
        angle = TWO_PI * u / T
        sin = np.sin(angle)
        inside = (t >= self.t_start) & (t < self.t_start + T)
        half_dev = 0.5 * self.peak_dev_hz
        return (f0 - half_dev * (1.0 - np.cos(angle)),
                np.where(inside, -half_dev * (TWO_PI / T) * sin, 0.0),
                f0 * t - half_dev * (u - (T / TWO_PI) * sin))


FreqProfile = ConstantProfile | RampProfile | EventProfile


# --------------------------------------------------------------------------
# Scenario specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicSpec:
    """One harmonic: order >= 2, amplitude relative to the fundamental."""

    order: int
    rel_amp: float
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if not is_count(self.order):
            raise ScenarioError(
                f"harmonic order must be an int, got {self.order!r}")
        if self.order < 2:
            raise ScenarioError("harmonic order must be >= 2")
        if self.rel_amp < 0:
            raise ScenarioError("harmonic amplitude must be non-negative")


@dataclass(frozen=True)
class StepSpec:
    """Amplitude/phase step applied to the fundamental inside a window: the
    amplitude is scaled by ``1 + amp_step_pu``, so -1 silences it."""

    t_start: float
    duration: float
    amp_step_pu: float = 0.0
    phase_step_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ScenarioError(
                f"step duration must be non-negative, got {self.duration!r}")
        if self.amp_step_pu < -1:
            raise ScenarioError(
                f"amp_step_pu must be >= -1, got {self.amp_step_pu!r}")


@dataclass(frozen=True)
class DcSpec:
    """Decaying DC offset a_dc * exp(-(t - t_start)/tau) for t >= t_start."""

    t_start: float
    a_dc_pu: float
    tau_s: float

    def __post_init__(self) -> None:
        if self.tau_s <= 0:
            raise ScenarioError("DC time constant must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: gaussian, colored (AR(1)) or impulsive outliers.

    ``level`` is the noise standard deviation as a fraction of the
    fundamental amplitude.  Impulsive noise hits each sample with
    probability ``impulse_rate`` with an outlier of ``impulse_mag`` times
    that standard deviation.
    """

    kind: str = "gaussian"
    level: float = 0.0
    seed: int = 0
    pole: float = 0.9
    impulse_rate: float = 1e-3
    impulse_mag: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "colored", "impulsive"):
            raise ScenarioError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.level <= 0.2:
            raise ScenarioError("noise level must lie in [0, 0.2]")
        if not is_count(self.seed):
            raise ScenarioError(f"noise.seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ScenarioError(f"noise.seed must be non-negative, got {self.seed}")
        if not 0.0 < self.pole < 1.0:
            raise ScenarioError("color pole must lie in (0, 1)")
        if not 0.0 <= self.impulse_rate <= 1.0:
            raise ScenarioError("impulse rate must lie in [0, 1]")
        if not 0.0 <= self.impulse_mag < math.inf:
            raise ScenarioError("impulse magnitude must be finite and non-negative")


@dataclass(frozen=True)
class ScenarioSpec:
    """A test waveform.  Its field order is the line order of scenario files
    (:mod:`gridfreq.io`)."""

    duration: float
    base_freq: float
    amp_pu: float = 1.0
    phase0_rad: float = 0.0
    profile: FreqProfile = field(default_factory=ConstantProfile)
    noise: NoiseSpec | None = None
    harmonics: tuple[HarmonicSpec, ...] = ()
    steps: tuple[StepSpec, ...] = ()
    dc_events: tuple[DcSpec, ...] = ()
    distortion_knee: float | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ScenarioError("scenario duration must be positive")
        if self.base_freq <= 0:
            raise ScenarioError("base frequency must be positive")
        if self.amp_pu < 0:
            raise ScenarioError(
                f"amp_pu must be non-negative, got {self.amp_pu!r}")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "dc_events", tuple(self.dc_events))
        for s in self.steps:
            if s.t_start < 0 or s.t_start + s.duration > self.duration:
                raise ScenarioError("step window must lie within [0, duration]")
        if self.distortion_knee is not None and self.distortion_knee <= 0:
            raise ScenarioError("distortion knee must be positive")

    @property
    def max_order(self) -> int:
        return max((h.order for h in self.harmonics), default=1)


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def synthesize(spec: ScenarioSpec, fs: float, seed: int | None = None
               ) -> tuple[SampleStream, GroundTruth]:
    """Render a scenario at sampling rate ``fs`` and return stream + truth.

    The fundamental phase is 2*pi * integral of the frequency profile, so
    time-varying profiles produce physically consistent waveforms.  ``seed``
    overrides the seed of the scenario's noise block when given.

    The noise-free waveform and the truth of the last ``(spec, fs)`` are
    kept, so a seed ensemble over one spec object renders them once and
    adds each seed's noise to them.  The truth arrays are read-only and
    shared between calls; ``stream.values`` is a new array on every call.
    """
    if not (math.isfinite(fs) and fs > 0):
        raise ScenarioError(f"sampling rate must be finite and positive, got {fs:g}")
    if spec.duration * fs < 2:
        raise ScenarioError("scenario too short for the requested sampling rate")
    if seed is not None and not is_count(seed):
        raise ScenarioError(f"seed must be an int, got {seed!r}")
    if seed is not None and seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed}")

    clean, truth = _render(spec, fs)
    if spec.noise is not None and spec.noise.level > 0:
        with np.errstate(all="ignore"):
            values = clean + _noise(spec.noise, clean.size, spec.amp_pu,
                                    spec.noise.seed if seed is None else seed)
        _require_finite("sample", values, fs)
    else:
        values = clean.copy()
    return SampleStream(t0=0.0, ts=1.0 / fs, values=values), truth


def _require_finite(name: str, values: np.ndarray, fs: float) -> None:
    """Reject rendered ``values`` sampled at ``fs`` that are not all finite,
    naming ``name`` and the time of the first that is not."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ScenarioError(f"the rendered {name} is not finite, first at "
                            f"t = {int(finite.argmin()) / fs:g} s")


# (spec, fs, (values, truth)) of the last render; one assignment replaces
# the whole entry, so a concurrent caller sees either the old or the new one
_last_render: tuple = (None, None, None)


@np.errstate(all="ignore")
def _render(spec: ScenarioSpec, fs: float) -> tuple[np.ndarray, GroundTruth]:
    """The noise-free waveform of ``spec`` at ``fs`` and its truth, read-only.

    A frequency, RoCoF, phase or sample that is not finite (a value that
    overflows a double) raises ScenarioError; numpy's floating-point
    warnings are silenced, since the checks name what went wrong.

    A hit needs the same spec object, not an equal one: a command that
    reads its scenario file anew renders it anew, and an equal spec built
    with an int ``amp_pu`` renders anew, to the bits of ``1.0``.  A render
    that raises is not kept, so it raises on every call.
    """
    global _last_render
    cached_spec, cached_fs, render = _last_render
    if cached_spec is spec and cached_fs == fs:
        return render

    span = spec.duration * fs
    if span >= np.iinfo(np.intp).max // 8:
        raise ScenarioError(f"{span + 1:g} samples at fs={fs:g} are more "
                            f"than one array of doubles can hold")
    n_samples = int(round(span)) + 1
    try:
        t = np.arange(n_samples) / fs
    except MemoryError:
        raise MemoryError(f"{n_samples} samples at fs={fs:g} do not fit in "
                          f"memory") from None

    f1, rocof, integral = spec.profile.render(t, spec.base_freq)
    _require_finite("frequency", f1, fs)
    if spec.max_order * f1.max() >= fs / 2:
        raise ScenarioError(
            f"harmonic order {spec.max_order} at {f1.max():g} Hz violates Nyquist for fs={fs:g}"
        )
    if f1.min() <= 0:
        raise ScenarioError(f"the fundamental falls to {f1.min():g} Hz; it "
                            f"must stay above 0 Hz")
    _require_finite("RoCoF", rocof, fs)
    phi1 = TWO_PI * integral + spec.phase0_rad

    amp = np.full(n_samples, spec.amp_pu, dtype=float)
    phase = phi1.copy()
    for s in spec.steps:
        win = (t >= s.t_start) & (t < s.t_start + s.duration)
        amp[win] *= 1.0 + s.amp_step_pu
        phase[win] += s.phase_step_rad
    _require_finite("phase", phase, fs)

    values = amp * np.sin(phase)
    for h in spec.harmonics:
        values += spec.amp_pu * h.rel_amp * np.sin(h.order * phi1 + h.phase_rad)
    for dc in spec.dc_events:
        active = t >= dc.t_start
        values = values + np.where(active, dc.a_dc_pu * np.exp(-(t - dc.t_start) / dc.tau_s), 0.0)

    if spec.distortion_knee is not None:
        k = spec.distortion_knee
        values = k * np.tanh(values / k)
    _require_finite("sample", values, fs)

    for arr in (values, f1, rocof, amp, phase):
        arr.flags.writeable = False       # the truth keeps them uncopied
    truth = GroundTruth(t0=0.0, ts=1.0 / fs, freq_hz=f1, rocof_hzps=rocof,
                        amp_pu=amp, phase_rad=phase)
    render = (values, truth)
    _last_render = (spec, fs, render)
    return render


def _noise(spec: NoiseSpec, n: int, amp_pu: float, seed: int) -> np.ndarray:
    """``n`` samples of the noise ``spec`` describes, its standard deviation
    ``spec.level`` times the fundamental amplitude ``amp_pu``."""
    # abs: amp_pu = -0.0 passes the spec's check, and numpy refuses a
    # scale of -0.0
    sigma = spec.level * abs(amp_pu)
    rng = np.random.default_rng(seed)
    if spec.kind == "gaussian":
        return rng.normal(0.0, sigma, n)
    if spec.kind == "colored":
        white = rng.normal(0.0, 1.0, n)
        pole = spec.pole
        y = []
        append = y.append
        acc = 0.0
        for w in white.tolist():
            acc = pole * acc + w
            append(acc)
        # variance-match the AR(1) output to the requested sigma
        return np.array(y) * (sigma / math.sqrt(1.0 / (1.0 - pole * pole)))
    # impulsive, the one kind left that NoiseSpec admits
    hits = rng.random(n) < spec.impulse_rate
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return np.where(hits, signs * spec.impulse_mag * sigma, 0.0)
