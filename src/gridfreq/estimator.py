"""Per-sample adaptive observer for frequency and RoCoF.

The model of a single-channel waveform is

    a(t) = sum_i  a_c[i] * sin(i*w1*t) + a_s[i] * cos(i*w1*t)
         + a_dc - a_dc1 * t

a truncated harmonic series around a fundamental w1 plus a first-order
(Taylor) approximation of a decaying DC offset.  Its coefficients are the
fields ``a_c``, ``a_s``, ``a_dc`` and ``a_dc1`` of :class:`EstimatorState`.
The estimator evaluates the model at its anchor time, which saturates at
``t_reset_s``: after that ramp ``a_dc - a_dc1*t`` acts as one constant
offset.

The estimator tracks the coefficients with gradient parameter updates
driven by the filtered observation residual, and adjusts the fundamental
frequency by steepest descent on the squared prediction error at the
constant learning rate ``eta_opt``.

All laws are strictly per-sample.  With the basis ``c_i = cos(i*phase)``,
``s_i = sin(i*phase)`` built by the angle-sum recurrence and the anchor
time ``t``, one sample ``x`` does, with sums and loops over i = 1..n in
order::

    resid   = x - (a_dc - a_dc1*t + sum(a_c[i]*s_i + a_s[i]*c_i))
    z       = resid, low-passed when obs_lowpass_hz is set
    a_c[i] += (ts*gamma_c[i])*z*s_i;   a_s[i] += (ts*gamma_s[i])*z*c_i
    g       = sum(i*t*(a_c[i]*c_i - a_s[i]*s_i))     # the updated pairs
    a_dc   += (ts*gamma_dc)*z;         a_dc1 -= t*ts*gamma_dc1*z
    rocof   = (1/(2*pi))*eta_opt*z*g
    f      += ts*rocof

then wraps the phase with ``%`` and, every ``report_every`` samples, emits
a report whose RoCoF is a left-to-right boxcar over the raw values.

A report is one row of 10 + 2n floats::

    t, f_hz, rocof_hzps, rocof_raw_hzps, a_dc, a_dc1, residual, eta,
    phase_acc, t_anchor, a_c[0..n), a_s[0..n)

the one layout the C loop, the Python kernel and the estimate CSV hold.
:func:`run` keeps the rows of a whole stream as an :class:`EstimateSeries`,
so a series read back from a file equals the series written; :func:`step`
returns its row as an :class:`EstimateRecord`.  Amplitude and phase are
derived only when read, by one rule (CPython's ``math.hypot``, which is not
libm's, and ``math.atan2``; see :func:`amp_phase`): ``step`` and the
series' ``polar()`` and ``records`` apply it; ``run``, the metrics and the
estimate CSV do not.

One set of laws, one loop per backend.  The state lives in one buffer of
doubles (see :class:`EstimatorState`), and a loop advances it over any
number of samples, writing one row per report: ``gridfreq_advance`` in C
(``_kernel.c``), or a Python kernel generated per harmonic order n, from
the integer n alone, with one local per coefficient and basis term and the
harmonic loops unrolled.  :func:`step` is one call of the loop on one
sample; :func:`run` is :func:`init` plus one call over the whole stream.
:func:`init` binds the state to its config: it loads the C library, or,
where none can be built, compiles the Python kernel of order n, once per
order and process, so no step pays for either.  The binding, with the
products of ``ts`` and the gains and the other per-config constants, is
cached per (state, config) pair on the state; :class:`EstimatorConfig` is
frozen so that cache cannot go stale.  A C step is one :mod:`ctypes` call
of two arguments, the context that holds the buffer, constant and row
pointers, and the sample.  The C loop is one function of the package's C
library, which also holds the CSV float formatter and row parser of
:mod:`gridfreq.io`: :mod:`gridfreq._native` builds it with ``cc -O2
-ffp-contract=off`` into ``$XDG_CACHE_HOME/gridfreq`` (default
``~/.cache/gridfreq``) on first use, never at import; :func:`run_backend`
names the backend :func:`run` and :func:`step` use.

Every expression of both backends keeps the operand order of the laws, so
neither moves an output bit: ``tests/data/golden_run.json`` holds digests
of the records of both backends and of ``step`` final states at n = 7;
tests pin the prediction error and the raw RoCoF to the model oracle
``output_and_gradient`` of ``tests/reference.py`` at n = 1, 2, 7 and 11;
and, on drawn configs and samples with nan, inf and huge values, a ``step``
fold to one :func:`run` pass of either backend and the rows of the two
backends to each other.
"""

from __future__ import annotations

import functools
import linecache
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _native
from .errors import ConfigError, DivergenceError, is_count
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
        if is_count(self.n):               # validate rejects any other n
            for name in ("gamma_c", "gamma_s"):
                gains = getattr(self, name)
                object.__setattr__(self, name,
                                   tuple(gains) if gains else (40.0,) * self.n)
        self.validate()

    def validate(self) -> None:
        for name in ("n", "rocof_smooth_window", "report_every"):
            value = getattr(self, name)
            if not is_count(value):
                raise ConfigError(f"{name} must be an int, got {value!r}")
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

# the slots at the head of a state buffer, the S_* slots of _kernel.c; k and
# the RoCoF ring's head and count are integers stored as doubles
_SLOTS = ("a_dc", "a_dc1", "f_hz", "phase_acc", "t_anchor", "zfilt", "t0",
          "k", "head", "count")
_K, _HEAD, _COUNT = map(_SLOTS.index, ("k", "head", "count"))
_COEFS = len(_SLOTS)                   # where a_c starts


def _slot(name: str) -> property:
    i = _SLOTS.index(name)
    if i == _K:
        return property(lambda self: int(self._v[i]),
                        lambda self, value: self._v.__setitem__(i, value))
    return property(lambda self: self._v[i],
                    lambda self, value: self._v.__setitem__(i, value))


class EstimatorState:
    """Coefficients and loop state of one estimator.

    ``a_c[i-1]`` multiplies sin(i*w1*t) and ``a_s[i-1]`` cos(i*w1*t); both
    have one entry per harmonic.  ``a_dc`` is the constant offset in pu and
    ``a_dc1`` its decay slope in pu/s.  ``rocof_buf`` holds the raw RoCoF
    values of the boxcar, oldest first, at most ``rocof_smooth_window``.

    The fields live in one buffer of doubles, the state the C loop
    advances in place: the slots of ``_SLOTS``, ``a_c``, ``a_s``, the RoCoF
    ring and the C loop's basis.  Reading ``a_c``, ``a_s`` or ``rocof_buf``
    gives a new list, so a list taken from the state keeps its values; to
    change one coefficient, assign the whole list back.  A state pickles
    and copies as its values; the copy binds its own buffer on its next
    :func:`step`.
    """

    a_dc = _slot("a_dc")
    a_dc1 = _slot("a_dc1")
    f_hz = _slot("f_hz")
    phase_acc = _slot("phase_acc")     # wrapped fundamental phase, [0, 2pi)
    t_anchor = _slot("t_anchor")       # min(elapsed time, t_reset_s)
    zfilt = _slot("zfilt")             # one-pole observation-filter state
    t0 = _slot("t0")                   # time of the first sample
    k = _slot("k")

    def __init__(self, a_c: Sequence[float], a_s: Sequence[float],
                 f_hz: float, a_dc: float = 0.0, a_dc1: float = 0.0,
                 phase_acc: float = 0.0, k: int = 0, t_anchor: float = 0.0,
                 zfilt: float = 0.0, diverged: bool = False,
                 rocof_buf: Sequence[float] = (), t0: float = 0.0) -> None:
        self.diverged = diverged
        ring = list(rocof_buf)
        self._layout(list(a_c), list(a_s), [a_dc, a_dc1, f_hz, phase_acc,
                                             t_anchor, zfilt, t0, k],
                     ring, len(ring))

    @classmethod
    def _fresh(cls, config: EstimatorConfig, t0: float,
               size: int) -> EstimatorState:
        """A state at the nominal frequency with all coefficients zero and
        a ring of ``size`` values."""
        state = cls.__new__(cls)
        state.diverged = False
        zeros = [0.0] * config.n
        state._layout(zeros, zeros,
                      [0.0, 0.0, config.f0, 0.0, 0.0, 0.0, t0, 0], [], size)
        return state

    def _layout(self, a_c: list[float], a_s: list[float],
                scalars: list[float], ring: list[float], size: int) -> None:
        """Lay the values out in a new buffer with a ring of ``size``
        values, which keeps the newest; unbind the kernel of the old one."""
        ring = ring[len(ring) - size:] if len(ring) > size else ring
        self._v = array("d", [*scalars, len(ring) % max(size, 1), len(ring),
                              *a_c, *a_s, *ring])
        self._v.frombytes(bytes(8 * (size - len(ring) + 2 * len(a_c))))
        self._shape = (len(a_c), len(a_s), size)
        # per-config constants and kernel, see _bind
        self.kernel: _Kernel | None = None

    def _relayout(self, a_c: list[float] | None = None,
                  a_s: list[float] | None = None,
                  size: int | None = None) -> None:
        self._layout(self.a_c if a_c is None else a_c,
                     self.a_s if a_s is None else a_s,
                     self._v[:_K + 1].tolist(), self.rocof_buf,
                     self._shape[2] if size is None else size)

    @property
    def a_c(self) -> list[float]:
        return self._v[_COEFS:_COEFS + self._shape[0]].tolist()

    @a_c.setter
    def a_c(self, values: Sequence[float]) -> None:
        values = list(values)
        if len(values) == self._shape[0]:
            self._v[_COEFS:_COEFS + len(values)] = array("d", values)
        else:
            self._relayout(a_c=values)

    @property
    def a_s(self) -> list[float]:
        start = _COEFS + self._shape[0]
        return self._v[start:start + self._shape[1]].tolist()

    @a_s.setter
    def a_s(self, values: Sequence[float]) -> None:
        values = list(values)
        if len(values) == self._shape[1]:
            start = _COEFS + self._shape[0]
            self._v[start:start + len(values)] = array("d", values)
        else:
            self._relayout(a_s=values)

    @property
    def rocof_buf(self) -> list[float]:
        start = _COEFS + self._shape[0] + self._shape[1]
        head, count = int(self._v[_HEAD]), int(self._v[_COUNT])
        ring = self._v[start:start + count]
        return (ring[head:] + ring[:head]).tolist()

    def __getstate__(self) -> dict:
        # the values, never the buffer's address or the kernel
        return {name: getattr(self, name) for name in (
            "a_c", "a_s", "f_hz", "a_dc", "a_dc1", "phase_acc", "k",
            "t_anchor", "zfilt", "diverged", "rocof_buf", "t0")}

    def __setstate__(self, values: dict) -> None:
        self.__init__(**values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EstimatorState):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self.__getstate__().items())
        return f"EstimatorState({fields})"


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
    residual: float                    # sample - prediction, before any low-pass
    eta: float
    phase_acc: float
    t_anchor: float


# the columns of an EstimateSeries row before its n a_c and n a_s columns,
# in the order the C loop writes them: EstimateRecord's fields without the
# amplitudes and phases
ROW_COLUMNS = ("t", "f_hz", "rocof_hzps", "rocof_raw_hzps", "a_dc", "a_dc1",
               "residual", "eta", "phase_acc", "t_anchor")

# spacings of the largest |time| that an interval taken from stored times,
# t[1] - t[0] or a step of the time column, may be off by: each time is
# rounded by up to half a spacing, and t[1] may lie one binade up
TIME_ROUNDING = 4


def _column(name: str) -> Callable[[EstimateSeries], np.ndarray]:
    """Accessor of the :data:`ROW_COLUMNS` column ``name``."""
    i = ROW_COLUMNS.index(name)

    def column(self: EstimateSeries) -> np.ndarray:
        return self.rows[:, i]
    column.__name__ = column.__qualname__ = name
    return column


@dataclass(eq=False)
class EstimateSeries:
    """The reports of one run, one row of 10 + 2n floats each.

    ``rows`` holds the columns of :data:`ROW_COLUMNS`, then ``a_c[0..n)``
    and ``a_s[0..n)``, the layout the C loop and the estimate CSV hold; it
    is read-only, and each column accessor returns a view of it.

    Amplitude and phase are derived when read, by the rule of
    :func:`amp_phase`: :meth:`polar` applies it to the rectangular pairs,
    and :attr:`records` builds the :class:`EstimateRecord` list
    :func:`step` would have returned, anew on each read.
    """

    rows: np.ndarray
    n: int
    diverged_at: int | None = None     # sample index of divergence, if any

    def __post_init__(self) -> None:
        if (self.rows.ndim != 2
                or self.rows.shape[1] != len(ROW_COLUMNS) + 2 * self.n):
            raise ValueError(f"rows of shape {self.rows.shape} do not hold "
                             f"n = {self.n} harmonics")
        self.rows.flags.writeable = False

    def __len__(self) -> int:
        return self.rows.shape[0]

    t = _column("t")
    f_hz = _column("f_hz")
    rocof_hzps = _column("rocof_hzps")
    rocof_raw_hzps = _column("rocof_raw_hzps")
    a_dc = _column("a_dc")
    a_dc1 = _column("a_dc1")
    residual = _column("residual")
    eta = _column("eta")
    phase_acc = _column("phase_acc")
    t_anchor = _column("t_anchor")

    def a_c(self) -> np.ndarray:
        return self.rows[:, len(ROW_COLUMNS):len(ROW_COLUMNS) + self.n]

    def a_s(self) -> np.ndarray:
        return self.rows[:, len(ROW_COLUMNS) + self.n:]

    def polar(self) -> np.ndarray:
        """Amplitude and phase of each harmonic, one row per report:
        ``amp_1, phase_1, ..., amp_n, phase_n``."""
        pairs = _amps_phases(self.a_s().ravel().tolist(),
                             self.a_c().ravel().tolist())
        return np.column_stack(pairs).reshape(len(self), 2 * self.n)

    @property
    def records(self) -> list[EstimateRecord]:
        """The reports as records, equal to :func:`step`'s bit for bit."""
        return list(map(_record, self.rows.tolist()))


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def init(config: EstimatorConfig, t0: float = 0.0) -> EstimatorState:
    """Fresh state at the nominal frequency with all coefficients zero.

    ``t0`` is the time of the first sample; records are stamped
    ``t0 + k*ts`` after the k-th sample.  The state is bound to ``config``
    here, the C library loaded or the Python kernel compiled, not in
    :func:`step`.
    """
    state = EstimatorState._fresh(config, t0, config.rocof_smooth_window)
    _bind(state, config)
    return state


def amp_phase(a_s: float, a_c: float) -> tuple[float, float]:
    """Amplitude and full-quadrant phase of a (sin, cos) coefficient pair."""
    (amp,), (phase,) = _amps_phases((a_s,), (a_c,))
    return amp, phase


def _amps_phases(a_s: Sequence[float], a_c: Sequence[float]
                 ) -> tuple[list[float], list[float]]:
    """Amplitudes and full-quadrant phases of (sin, cos) coefficient pairs:
    ``math.hypot`` (CPython's, not libm's) and ``math.atan2``, and
    ``(0.0, 0.0)`` for a zero pair of either sign."""
    amps = list(map(math.hypot, a_s, a_c))
    phases = list(map(math.atan2, a_s, a_c))
    if 0.0 in amps:
        for i, amp in enumerate(amps):
            if amp == 0.0:
                phases[i] = 0.0
    return amps, phases


def _record(row: Sequence[float]) -> EstimateRecord:
    """The :class:`EstimateRecord` of one :data:`ROW_COLUMNS` row."""
    (t, f_hz, rocof, rocof_raw, a_dc, a_dc1, resid, eta, phase, t_anchor,
     *coefs) = row
    n = len(coefs) // 2
    amps, phases = _amps_phases(coefs[n:], coefs[:n])
    return EstimateRecord(t, f_hz, rocof, rocof_raw, amps, phases, a_dc,
                          a_dc1, resid, eta, phase, t_anchor)


class _Constants(NamedTuple):
    """Per-config constants of the laws; the C loop takes them as one
    array of doubles (see _native_advance)."""

    tgc: tuple[float, ...]             # ts * gamma_c[i]
    tgs: tuple[float, ...]             # ts * gamma_s[i]
    ts: float
    tg_dc: float                       # ts * gamma_dc
    g_dc1: float
    alpha: float | None                # low-pass coefficient; None: identity
    eta: float                         # frequency-loop learning rate
    f0: float
    half_f0: float
    t_reset: float
    report_every: int


class _Context(NamedTuple):
    """What one call of the Python kernel advances: the fields of the C
    loop's ``struct gridfreq_ctx`` that it needs."""

    v: array                           # the state buffer
    constants: _Constants
    rows: list                         # each report appends its row
    values: list[float] | None         # a run's samples; None: a step
    ring: int                          # capacity of the RoCoF ring


class _Kernel(NamedTuple):
    """One state bound to one config: ``advance(sample)`` runs the laws on
    the sample, in C or in the Python kernel, and returns the number of
    rows written (0 or 1), or -1 at a divergence; ``last_row()`` returns
    the row written."""

    config: EstimatorConfig
    advance: Callable[[float], int]
    last_row: Callable[[], Sequence[float]]
    ctx: object                        # what advance works on, kept alive


# The laws of the module docstring over a sequence of samples, for harmonic
# order n: the Python counterpart of gridfreq_advance in _kernel.c, over the
# same state buffer and with the same return value.  The ``{...}`` fields
# are filled from the integer n alone (see _kernel_source); every gain and
# rate is read from the context at call time.  On a divergence the state
# keeps the updated coefficients, a_dc, a_dc1, f and zfilt, and the phase,
# k, t_anchor and RoCoF ring of the sample before.
_KERNEL_TEMPLATE = """\
def advance(ctx, x):
    v, constants, rows, values, ring = ctx
    (tgc, tgs, ts, tg_dc, g_dc1, alpha, eta, f0, half_f0, t_reset,
     report_every) = constants
    {kc} = tgc
    {ks} = tgs
    eta_rate = INV_TWO_PI * eta
    (a_dc, a_dc1, f, phase, t, zf, t0, k, head, count, {ac}
     {as_}) = HEAD.unpack_from(v)
    k = int(k)
    head = int(head)
    count = int(count)
    diverged = False
    for sample in ((float(x),) if values is None else values):
        # basis by the angle-sum recurrence, prediction and residual
        c0 = cos(phase)
        s0 = sin(phase){basis}
        resid = sample - (a_dc - a_dc1 * t{prediction})
        if alpha is None:
            z = resid
        else:
            zf += alpha * (resid - zf)
            z = zf

        # coefficient updates and, from the updated pairs, the frequency
        # gradient; then the descent update of the frequency{update}
        g = 0.0{gradient}
        a_dc = a_dc + tg_dc * z
        a_dc1 = a_dc1 - t * ts * g_dc1 * z
        rocof_raw = eta_rate * z * g
        f = f + ts * rocof_raw

        # divergence watchdog: the band test is false for a non-finite f; a
        # non-finite coefficient makes the sum non-finite, and a sum that
        # overflowed from finite values goes to the exact check
        if not (abs(f - f0) <= half_f0 and (
                isfinite({coef_sum} + a_dc + a_dc1)
                or all(map(isfinite, ({coefs}, a_dc, a_dc1))))):
            diverged = True
            break

        # advance phase, sample counter and anchor; the anchor ramps up to
        # t_reset and holds there
        phase = (phase + TWO_PI * f * ts) % TWO_PI
        k += 1
        t = t + ts
        if t > t_reset:
            t = t_reset
        v[{ring_at} + head] = rocof_raw
        head = 0 if head + 1 == ring else head + 1
        if count < ring:
            count += 1
        if k % report_every:
            continue
        # a plain left-to-right sum, oldest value first (until the ring is
        # full, head == count): the builtin sum of floats is compensated
        # from Python 3.12 on, which would change the value
        acc = 0.0
        for value in v[{ring_at} + head:{ring_at} + count]:
            acc += value
        for value in v[{ring_at}:{ring_at} + head]:
            acc += value
        rows.append((t0 + k * ts, f, acc / count, rocof_raw, a_dc, a_dc1,
                     resid, eta, phase, t, {ac} {as_}))

    HEAD.pack_into(v, 0, a_dc, a_dc1, f, phase, t, zf, t0, k, head, count,
                   {ac} {as_})
    return -1 if diverged else len(rows)
"""


def _kernel_source(n: int) -> str:
    """Source of the kernel for harmonic order n, built from n alone.

    Harmonic i+1 has the locals ``ac{i}``/``as{i}`` (coefficients),
    ``kc{i}``/``ks{i}`` (ts times its gains) and ``c{i}``/``s{i}`` (basis).
    """
    def unroll(fmt: str, sep: str, start: int = 0) -> str:
        return sep.join(fmt.format(i=i, p=i - 1, h=float(i + 1))
                        for i in range(start, n))

    line = "\n" + " " * 8
    return _KERNEL_TEMPLATE.format(
        kc=unroll("kc{i},", " "),
        ks=unroll("ks{i},", " "),
        ac=unroll("ac{i},", " "),
        as_=unroll("as{i},", " "),
        ring_at=_COEFS + 2 * n,
        basis=unroll(line + "c{i} = c{p} * c0 - s{p} * s0"
                     + line + "s{i} = s{p} * c0 + c{p} * s0", "", start=1),
        prediction=unroll(" + (ac{i} * s{i} + as{i} * c{i})", ""),
        update=unroll(line + "ac{i} = ac{i} + kc{i} * z * s{i}"
                      + line + "as{i} = as{i} + ks{i} * z * c{i}", ""),
        gradient=unroll(" + {h!r} * t * (ac{i} * c{i} - as{i} * s{i})", ""),
        coef_sum=unroll("ac{i} + as{i}", " + "),
        coefs=unroll("ac{i}, as{i}", ", "),
    )


@functools.cache
def _kernel(n: int) -> Callable[[_Context, float], int]:
    """Compile the kernel for harmonic order n (Nyquist keeps n small)."""
    source = _kernel_source(n)
    filename = f"<gridfreq.estimator kernel n={n}>"
    # tracebacks through the kernel show its source lines
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(keepends=True), filename)
    # the slots and coefficients at the head of the state buffer
    head = struct.Struct(f"{_COEFS + 2 * n}d")
    namespace = {"cos": math.cos, "sin": math.sin, "isfinite": math.isfinite,
                 "HEAD": head, "TWO_PI": TWO_PI, "INV_TWO_PI": INV_TWO_PI}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["advance"]


def _constants(config: EstimatorConfig) -> _Constants:
    """The per-config constants of the laws.

    Every product keeps the operand order of the laws, e.g.
    ``(ts*gamma)*z*basis``, so the cached form is bit-identical.
    """
    ts = config.ts
    cutoff = config.obs_lowpass_hz
    return _Constants(
        tgc=tuple(ts * g for g in config.gamma_c),
        tgs=tuple(ts * g for g in config.gamma_s),
        ts=ts,
        tg_dc=ts * config.gamma_dc,
        g_dc1=config.gamma_dc1,
        alpha=None if cutoff is None else 1.0 - math.exp(-TWO_PI * cutoff * ts),
        eta=config.eta_opt,
        f0=config.f0,
        half_f0=config.f0 / 2,
        t_reset=config.t_reset_s,
        report_every=config.report_every,
    )


def _native_advance(state: EstimatorState, config: EstimatorConfig,
                    rows: array | np.ndarray, values: np.ndarray | None
                    ) -> tuple[Callable[[float], int], object]:
    """The C loop bound to the state under the config, writing rows into
    ``rows``, and its context, which must outlive the calls (see
    :func:`gridfreq._native.context`)."""
    c = _constants(config)
    consts = array("d", (c.ts, c.tg_dc, c.g_dc1, c.alpha or 0.0, c.eta, c.f0,
                         c.half_f0, c.t_reset, *c.tgc, *c.tgs))
    return _native.context(state._v, consts, rows, values, config.n,
                           state._shape[2], config.report_every,
                           c.alpha is not None)


def _bind(state: EstimatorState, config: EstimatorConfig) -> _Kernel:
    """Bind the state to the config for :func:`step`: to the C loop where
    the library loads, else to the Python kernel of order ``config.n``.
    Loading the one and compiling the other happen here, not in a step."""
    if state._shape[:2] != (config.n, config.n):
        raise ConfigError(f"state has {len(state.a_c)} harmonics "
                          f"({len(state.a_s)} in a_s), "
                          f"config has n = {config.n}") from None
    if state._shape[2] != config.rocof_smooth_window:
        # a shorter window drops the oldest values at once
        state._relayout(size=config.rocof_smooth_window)
    if _native.library() is None:
        rows: list = []
        ctx = _Context(state._v, _constants(config), rows, None,
                       state._shape[2])
        kernel = _Kernel(config, functools.partial(_kernel(config.n), ctx),
                         rows.pop, ctx)
    else:
        row = array("d", bytes(8 * (len(ROW_COLUMNS) + 2 * config.n)))
        advance, ctx = _native_advance(state, config, row, None)
        kernel = _Kernel(config, advance, row.tolist, ctx)
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
    written = kernel.advance(sample)
    if written > 0:
        return _record(kernel.last_row())
    if written < 0:
        state.diverged = True
    return None


# --------------------------------------------------------------------------
# A whole stream
# --------------------------------------------------------------------------

def run_backend() -> str:
    """``"c"`` when :func:`run` and :func:`step` use the C loop,
    ``"python"`` otherwise."""
    return "python" if _native.library() is None else "c"


def run(stream: SampleStream, config: EstimatorConfig) -> EstimateSeries:
    """Run the estimator over a whole stream in one pass, from a fresh state.

    The series' records equal those of :func:`step` called on each sample
    in turn, bit for bit; the pass stops at a divergence and reports its
    sample index.  It is one call of the loop :func:`step` calls once per
    sample, in C when it can be built and in the Python kernel otherwise
    (see :func:`run_backend`); neither builds a record.
    """
    # an interval read from a time column carries the rounding of its times
    if abs(stream.ts - config.ts) > (1e-9 * config.ts + TIME_ROUNDING
                                     * np.spacing(abs(stream.t0))):
        raise ConfigError(
            f"stream interval {stream.ts!r} does not match config ts {config.ts!r}"
        )
    n, every = config.n, config.report_every
    # no more values than the stream's are ever summed
    ring = max(1, min(config.rocof_smooth_window, len(stream)))
    state = EstimatorState._fresh(config, stream.t0, ring)
    if _native.library() is not None:
        x = np.ascontiguousarray(stream.values, dtype=np.float64)
        rows = np.empty((len(x) // every, len(ROW_COLUMNS) + 2 * n))
        advance, _ctx = _native_advance(state, config, rows, x)
        written = advance(0.0)
    else:
        emitted: list = []
        ctx = _Context(state._v, _constants(config), emitted,
                       stream.values.tolist(), state._shape[2])
        written = _kernel(n)(ctx, 0.0)
        rows = np.array(emitted, dtype=float).reshape(
            -1, len(ROW_COLUMNS) + 2 * n)
    k = state.k
    return EstimateSeries(rows=rows[:k // every], n=n,
                          diverged_at=k if written < 0 else None)
