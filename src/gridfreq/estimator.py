"""Per-sample adaptive observer for frequency and RoCoF.

The estimator tracks the coefficients of the harmonic-plus-DC signal model
(:mod:`gridfreq.model`) with gradient parameter updates driven by the
filtered observation residual, and adjusts the fundamental frequency by
steepest descent on the squared prediction error at the constant learning
rate ``eta_opt``.

All laws are strictly per-sample: one call to :func:`step` consumes one
sample and mutates the state in place.  :func:`step` is a single fused
scalar kernel: one loop builds the harmonic basis and the prediction, one
loop updates the coefficients and sums the frequency gradient.  The
products of ``ts`` with the gains, the low-pass coefficient and the other
per-config constants are computed once per (state, config) pair and cached
on the state; :class:`EstimatorConfig` is frozen so that cache cannot go
stale.  The kernel's outputs are bit-identical to the unfused form of the
same laws (``tests/data/golden_run.json`` holds digests of them), and its
prediction and frequency gradient are bit-identical to
:func:`gridfreq.model.output_and_gradient` (pinned by a test).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DivergenceError
from .model import ParameterVector
from .synth import SampleStream

TWO_PI = 2.0 * math.pi
INV_TWO_PI = 1.0 / TWO_PI


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """Gains and rates of the estimator.

    ``gamma_c[i-1]``/``gamma_s[i-1]`` drive the sine/cosine coefficient of
    harmonic i, ``gamma_dc``/``gamma_dc1`` the DC pair.  ``eta_opt`` is the
    learning rate of the frequency loop, used on every sample.  The anchor
    time, which multiplies the frequency gradient and the DC slope, ramps
    up to ``t_reset_s`` and then holds there: ``t_reset_s`` is the length of
    the lock-in ramp and the cap of the anchor time.  Building a config,
    also by :func:`dataclasses.replace`, validates it.
    """

    n: int = 7
    f0: float = 50.0
    ts: float = 1.0 / 1200.0
    gamma_c: tuple[float, ...] = ()
    gamma_s: tuple[float, ...] = ()
    gamma_dc: float = 50.0
    gamma_dc1: float = 50.0
    eta_opt: float = 1680.0
    obs_lowpass_hz: float | None = None   # None: raw residual drives the laws
    rocof_smooth_window: int = 96
    report_every: int = 12
    t_reset_s: float = 0.25               # lock-in ramp length, anchor cap

    def __post_init__(self) -> None:
        for name in ("gamma_c", "gamma_s"):
            gains = getattr(self, name)
            object.__setattr__(self, name,
                               tuple(gains) if gains else (40.0,) * self.n)
        self.validate()

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError("harmonic order n must be >= 1")
        for name in ("f0", "ts", "gamma_c", "gamma_s", "gamma_dc", "gamma_dc1",
                     "eta_opt", "obs_lowpass_hz", "t_reset_s"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple)
                           else () if value is None else (value,))):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.f0 <= 0:
            raise ConfigError("nominal frequency must be positive")
        if self.ts <= 0:
            raise ConfigError("sampling interval must be positive")
        if self.n * self.f0 >= 0.5 / self.ts:
            raise ConfigError(
                f"harmonic order {self.n} at f0={self.f0:g} Hz violates Nyquist "
                f"for ts={self.ts:g} s"
            )
        if len(self.gamma_c) != self.n or len(self.gamma_s) != self.n:
            raise ConfigError("gain vectors must have length n")
        if any(g <= 0 for g in (*self.gamma_c, *self.gamma_s,
                                self.gamma_dc, self.gamma_dc1)):
            raise ConfigError("all gains must be positive")
        if self.eta_opt <= 0:
            raise ConfigError("eta_opt must be positive")
        if self.obs_lowpass_hz is not None and self.obs_lowpass_hz <= 0:
            raise ConfigError("observation-filter cutoff must be positive")
        if self.rocof_smooth_window < 1 or self.report_every < 1:
            raise ConfigError("window and report interval must be >= 1 sample")
        if self.t_reset_s <= 0:
            raise ConfigError("anchor cap t_reset_s must be positive")


# --------------------------------------------------------------------------
# State and outputs
# --------------------------------------------------------------------------

@dataclass
class EstimatorState:
    theta: ParameterVector
    f_hz: float
    phase_acc: float = 0.0             # wrapped fundamental phase, [0, 2pi)
    k: int = 0
    t_anchor: float = 0.0              # min(elapsed time, t_reset_s)
    zfilt: float = 0.0                 # one-pole observation-filter state
    diverged: bool = False
    rocof_buf: deque[float] = field(default_factory=deque)
    t0: float = 0.0                    # time of the first sample
    # per-config constants of the step kernel, see _bind
    kernel: _Kernel | None = field(default=None, repr=False, compare=False)


@dataclass
class EstimateRecord:
    t: float
    f_hz: float
    rocof_hzps: float                  # boxcar-smoothed
    rocof_raw_hzps: float              # last per-sample value, unsmoothed
    amps: list[float]
    phases: list[float]
    a_dc: float
    a_dc1: float
    residual: float
    eta: float
    phase_acc: float
    t_anchor: float


@dataclass
class EstimateSeries:
    records: list[EstimateRecord]
    n: int
    diverged_at: int | None = None     # sample index of divergence, if any

    def __len__(self) -> int:
        return len(self.records)

    def t(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def f_hz(self) -> np.ndarray:
        return np.array([r.f_hz for r in self.records])

    def rocof_hzps(self) -> np.ndarray:
        return np.array([r.rocof_hzps for r in self.records])

    def residual(self) -> np.ndarray:
        return np.array([r.residual for r in self.records])


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def init(config: EstimatorConfig, t0: float = 0.0) -> EstimatorState:
    """Fresh state at the nominal frequency with all coefficients zero.

    ``t0`` is the time of the first sample; records are stamped
    ``t0 + k*ts`` after the k-th sample.
    """
    state = EstimatorState(theta=ParameterVector.zeros(config.n),
                           f_hz=config.f0, t0=t0)
    _bind(state, config)
    return state


def amp_phase(a_s: float, a_c: float) -> tuple[float, float]:
    """Amplitude and full-quadrant phase of a (sin, cos) coefficient pair."""
    amp = math.hypot(a_s, a_c)
    if amp == 0.0:
        return 0.0, 0.0
    return amp, math.atan2(a_s, a_c)


class _Kernel(NamedTuple):
    """Per-config constants and scratch lists of the step kernel."""

    config: EstimatorConfig
    idx: range
    tgc: tuple[float, ...]             # ts * gamma_c[i]
    tgs: tuple[float, ...]             # ts * gamma_s[i]
    harm: tuple[float, ...]            # harmonic numbers 1..n
    cos_i: list[float]                 # scratch: cos(i*phi)
    sin_i: list[float]                 # scratch: sin(i*phi)
    ts: float
    tg_dc: float                       # ts * gamma_dc
    g_dc1: float
    alpha: float | None                # low-pass coefficient; None: identity
    eta: float                         # frequency-loop learning rate
    f0: float
    half_f0: float
    t_reset: float
    report_every: int


def _bind(state: EstimatorState, config: EstimatorConfig) -> _Kernel:
    """Cache the per-config constants of the step kernel on the state.

    Every product keeps the operand order of the unfused laws, e.g.
    ``(ts*gamma)*z*basis``, so the cached form is bit-identical.
    """
    n = config.n
    ts = config.ts
    window = config.rocof_smooth_window
    if getattr(state.rocof_buf, "maxlen", None) != window:
        # a shorter window drops the oldest values at once
        state.rocof_buf = deque(state.rocof_buf, maxlen=window)
    cutoff = config.obs_lowpass_hz
    alpha = None if cutoff is None else 1.0 - math.exp(-TWO_PI * cutoff * ts)
    kernel = _Kernel(
        config=config,
        idx=range(n),
        tgc=tuple(ts * g for g in config.gamma_c),
        tgs=tuple(ts * g for g in config.gamma_s),
        harm=tuple(float(i) for i in range(1, n + 1)),
        cos_i=[0.0] * n,
        sin_i=[0.0] * n,
        ts=ts,
        tg_dc=ts * config.gamma_dc,
        g_dc1=config.gamma_dc1,
        alpha=alpha,
        eta=config.eta_opt,
        f0=config.f0,
        half_f0=config.f0 / 2,
        t_reset=config.t_reset_s,
        report_every=config.report_every,
    )
    state.kernel = kernel
    return kernel


def step(state: EstimatorState, sample: float, config: EstimatorConfig
         ) -> EstimateRecord | None:
    """Consume one sample; mutate the state; emit a record on report frames.

    Raises :class:`DivergenceError` when called on a diverged state.
    """
    if state.diverged:
        raise DivergenceError(f"estimator diverged at sample {state.k}")
    kernel = state.kernel
    if kernel is None or kernel.config is not config:
        kernel = _bind(state, config)
    (_, idx, tgc, tgs, harm, cos_i, sin_i, ts, tg_dc, g_dc1, alpha, eta, f0,
     half_f0, t_reset, report_every) = kernel

    th = state.theta
    a_c = th.a_c
    a_s = th.a_s
    t = state.t_anchor

    # basis by the angle-sum recurrence, prediction and filtered residual
    c1 = math.cos(state.phase_acc)
    s1 = math.sin(state.phase_acc)
    c = c1
    s = s1
    ahat = th.a_dc - th.a_dc1 * t
    for i, ac, as_ in zip(idx, a_c, a_s):
        cos_i[i] = c
        sin_i[i] = s
        ahat += ac * s + as_ * c
        c, s = c * c1 - s * s1, s * c1 + c * s1
    resid = sample - ahat
    if alpha is None:
        z = resid
    else:
        state.zfilt += alpha * (resid - state.zfilt)
        z = state.zfilt

    # coefficient updates and, from the updated pair, the frequency gradient
    g = 0.0
    for i, ac, as_, kc, ks, c, s, h in zip(idx, a_c, a_s, tgc, tgs, cos_i,
                                            sin_i, harm):
        ac += kc * z * s
        as_ += ks * z * c
        a_c[i] = ac
        a_s[i] = as_
        g += h * t * (ac * c - as_ * s)
    a_dc = th.a_dc + tg_dc * z
    a_dc1 = th.a_dc1 - t * ts * g_dc1 * z
    th.a_dc = a_dc
    th.a_dc1 = a_dc1

    # descent update of the frequency
    rocof_raw = INV_TWO_PI * eta * z * g
    f = state.f_hz + ts * rocof_raw
    state.f_hz = f

    # divergence watchdog: a non-finite coefficient makes the sum non-finite;
    # a sum that overflowed from finite values goes to the exact check
    if not math.isfinite(f) or abs(f - f0) > half_f0 or not (
            math.isfinite(sum(a_c) + sum(a_s) + a_dc + a_dc1)
            or th.is_finite()):
        state.diverged = True
        return None

    # advance phase, anchor and sample counter
    omega1 = TWO_PI * f
    phase = (state.phase_acc + omega1 * ts) % TWO_PI
    state.phase_acc = phase
    k = state.k + 1
    state.k = k
    # the anchor multiplies the frequency gradient: ramping it up eases the
    # loop in at lock-in, holding it at the cap keeps the loop gain uniform.
    # A compare, not min(): on CPython 3.11 the call costs ~3 % of a step
    t_anchor = t + ts
    if t_anchor > t_reset:
        t_anchor = t_reset
    state.t_anchor = t_anchor

    buf = state.rocof_buf
    buf.append(rocof_raw)

    if k % report_every:
        return None
    amps: list[float] = []
    phases: list[float] = []
    for ac, as_ in zip(a_c, a_s):
        a, p = amp_phase(as_, ac)
        amps.append(a)
        phases.append(p)
    # a plain left-to-right sum: the builtin sum of floats is compensated
    # from Python 3.12 on, which would change the reported value
    acc = 0.0
    for v in buf:
        acc += v
    return EstimateRecord(
        t=state.t0 + k * ts,
        f_hz=f,
        rocof_hzps=acc / len(buf),
        rocof_raw_hzps=rocof_raw,
        amps=amps,
        phases=phases,
        a_dc=a_dc,
        a_dc1=a_dc1,
        residual=z,
        eta=eta,
        phase_acc=phase,
        t_anchor=t_anchor,
    )


def run(stream: SampleStream, config: EstimatorConfig) -> EstimateSeries:
    """Fold :func:`step` over a stream; report divergence if it occurs."""
    if abs(stream.ts - config.ts) > 1e-9 * config.ts:
        raise ConfigError(
            f"stream interval {stream.ts:g} does not match config ts {config.ts:g}"
        )
    state = init(config, stream.t0)
    records: list[EstimateRecord] = []
    diverged_at: int | None = None
    for sample in stream.values.tolist():
        rec = step(state, sample, config)
        if rec is not None:
            records.append(rec)
        if state.diverged:
            diverged_at = state.k
            break
    return EstimateSeries(records=records, n=config.n, diverged_at=diverged_at)
