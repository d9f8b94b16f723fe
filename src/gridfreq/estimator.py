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

the one layout the C loop and the estimate CSV hold.
:func:`run` keeps the rows of a whole stream as an :class:`EstimateSeries`,
so a series read back from a file equals the series written; :func:`step`
returns its row as an :class:`EstimateRecord`, which the C library fills
slot by slot without running the class's ``__init__``; so that class must
stay a plain slotted dataclass with no ``__post_init__``.
Amplitude and phase are derived only when read, by one rule (libm's
``hypot`` and ``atan2``, and ``(0.0, 0.0)`` for a zero pair of either
sign), whose one home is the C library: ``step`` and the series'
``polar()`` apply it, and ``records`` composes its records from the rows
and ``polar()``; ``run``, the metrics and the estimate CSV do not.

One set of laws, one loop.  The state lives in one buffer of doubles (see
:class:`EstimatorState`), and ``gridfreq_advance``, the C loop of
``_kernel.c``, advances it over any number of samples, writing one row per
report.  :func:`step` is one call of the loop on one sample; :func:`run` is
:func:`init` plus one call over the whole stream.  :func:`init` binds the
state to its config: it loads the C library, so no step pays for that.
The binding, with the products of ``ts`` and the gains and the other
per-config constants, is cached per (state, config) pair on the state;
:class:`EstimatorConfig` is frozen so that cache cannot go stale.  A step
is one C-API call of one argument, the sample, on a C callable that holds
views of the state, constant and row buffers, which give its sizes, and
the offsets of the record class's slots, read once when the state is
bound, and that returns the report's record, or None.  The C loop is one
function of the package's C library, which also holds the CSV float
formatter and row parser of :mod:`gridfreq.io`: :mod:`gridfreq._native`
builds it with ``cc -O2 -ffp-contract=off`` as the extension module
``gridfreq._kernel`` into ``$XDG_CACHE_HOME/gridfreq`` (default
``~/.cache/gridfreq``) on first use, never at import, and raises
:class:`OSError` where it cannot.

Every expression keeps the operand order of the laws, and the tests hold
it to that: ``tests/data/golden_run.json`` holds digests of the records of
:func:`run` and of ``step`` final states at n = 7; tests pin the
prediction error and the raw RoCoF to the model oracle
``output_and_gradient`` of ``tests/reference.py`` at n = 1, 2, 7 and 11;
and, on drawn configs and samples with nan, inf and huge values, the rows,
final state and divergence of a ``step`` fold and of one :func:`run` pass
to the plain Python loop ``reference_loop`` of the same file.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _native
from .errors import ConfigError, DivergenceError, is_count
from .synth import SampleStream, immutable

TWO_PI = 2.0 * math.pi


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
        # n sizes the default gains, so it is checked before they are built
        self._check_order(self.n, self.f0, self.ts)
        for name in ("gamma_c", "gamma_s"):
            # an array, like a list, gives its elements: never `if gains`,
            # whose truth is ambiguous for an array
            gains = getattr(self, name)
            gains = () if gains is None else tuple(gains)
            object.__setattr__(self, name, gains or (40.0,) * self.n)
        self.validate()

    @staticmethod
    def _check_order(n: int, f0: float, ts: float) -> None:
        """Check the harmonic order ``n``, an int of at least 1, against
        Nyquist at ``f0`` and ``ts``, the part of :meth:`validate` that
        needs no gain."""
        if not is_count(n):
            raise ConfigError(f"n must be an int, got {n!r}")
        if n < 1:
            raise ConfigError("harmonic order n must be >= 1")
        if n > sys.maxsize:               # n * f0 could overflow a float
            raise ConfigError(f"n must be at most {sys.maxsize}, got {n}")
        for name, value in (("f0", f0), ("ts", ts)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if f0 <= 0:
            raise ConfigError("nominal frequency must be positive")
        if ts <= 0:
            raise ConfigError("sampling interval must be positive")
        if n * f0 >= 0.5 / ts:
            raise ConfigError(
                f"harmonic order {n} at f0={f0:g} Hz violates Nyquist "
                f"for ts={ts:g} s"
            )

    def validate(self) -> None:
        self._check_order(self.n, self.f0, self.ts)
        for name in ("rocof_smooth_window", "report_every"):
            value = getattr(self, name)
            if not is_count(value):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        for name in ("gamma_c", "gamma_s", "gamma_dc", "gamma_dc1",
                     "eta_opt", "obs_lowpass_hz", "t_reset_s"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple)
                           else () if value is None else (value,))):
                raise ConfigError(f"{name} must be finite, got {value}")
        if len(self.gamma_c) != self.n or len(self.gamma_s) != self.n:
            raise ConfigError("gain vectors must have length n")
        if any(g <= 0 for g in (*self.gamma_c, *self.gamma_s,
                                self.gamma_dc, self.gamma_dc1)):
            raise ConfigError("all gains must be positive")
        if self.eta_opt <= 0:
            raise ConfigError("eta_opt must be positive")
        if self.obs_lowpass_hz is not None and self.obs_lowpass_hz <= 0:
            raise ConfigError("observation-filter cutoff must be positive")
        if (self.obs_lowpass_hz is not None
                and _lowpass_gain(self.obs_lowpass_hz, self.ts) == 0.0):
            # the C loop reads a zero gain as no low-pass
            raise ConfigError(
                f"obs_lowpass_hz = {self.obs_lowpass_hz!r} at ts = "
                f"{self.ts!r} s gives the observation low-pass a gain of 0")
        if self.rocof_smooth_window < 1 or self.report_every < 1:
            raise ConfigError("window and report interval must be >= 1 sample")
        for name in ("rocof_smooth_window", "report_every"):
            # the C loop holds both as a Py_ssize_t
            if getattr(self, name) > sys.maxsize:
                raise ConfigError(f"{name} must be at most {sys.maxsize}, "
                                  f"got {getattr(self, name)}")
        if self.t_reset_s <= 0:
            raise ConfigError("anchor cap t_reset_s must be positive")


def _lowpass_gain(cutoff: float | None, ts: float) -> float:
    """The gain of the one-pole observation filter at ``cutoff`` Hz,
    ``1 - exp(-2*pi*cutoff*ts)``; 0.0, no low-pass, where it is None."""
    return 0.0 if cutoff is None else 1.0 - math.exp(-TWO_PI * cutoff * ts)


# --------------------------------------------------------------------------
# State and outputs
# --------------------------------------------------------------------------

# the slots at the head of a state buffer, the S_* slots of _kernel.c; k and
# the RoCoF ring's head and count are integers stored as doubles
_SLOTS = ("a_dc", "a_dc1", "f_hz", "phase_acc", "t_anchor", "zfilt", "t0",
          "k", "head", "count")
_K, _HEAD, _COUNT = map(_SLOTS.index, ("k", "head", "count"))
_COEFS = len(_SLOTS)                   # where a_c starts
# the host's physical memory in bytes, the bound of a state's RoCoF ring
_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _sample_count(k: object) -> int:
    """``k`` if it can be a state's sample count: an int that the C loop's
    double holds exactly and its int64_t can take, 0 to 2**53."""
    if not is_count(k):
        raise TypeError(f"k must be an int, got {type(k).__name__}")
    if not 0 <= k <= 2 ** 53:
        raise ValueError(f"k must be in [0, 2**53], got {k}")
    return k


def _slot(name: str) -> property:
    i = _SLOTS.index(name)
    if i == _K:
        return property(lambda self: int(self._v[i]),
                        lambda self, value: self._v.__setitem__(
                            i, _sample_count(value)))
    return property(lambda self: self._v[i],
                    lambda self, value: self._v.__setitem__(i, value))


def _coefficients(pair: int) -> property:
    """``a_c`` (``pair`` 0) or ``a_s`` (1): a new list on each read; a
    list of another length than the state's order is refused."""
    def read(self: EstimatorState) -> list[float]:
        start = _COEFS + pair * self._n
        return self._v[start:start + self._n].tolist()

    def assign(self: EstimatorState, values: Sequence[float]) -> None:
        values = array("d", list(values))
        if len(values) != self._n:
            raise ValueError(f"state has {self._n} harmonics, got "
                             f"{len(values)} values")
        start = _COEFS + pair * self._n
        self._v[start:start + self._n] = values
    return property(read, assign)


class EstimatorState:
    """Coefficients and loop state of one estimator.

    ``a_c[i-1]`` multiplies sin(i*w1*t) and ``a_s[i-1]`` cos(i*w1*t); both
    have one entry per harmonic, n >= 1 of them, and the constructor raises
    :class:`ValueError` on lists of unequal length or empty ones.  ``a_dc``
    is the constant offset in pu and ``a_dc1`` its decay slope in pu/s.
    ``rocof_buf`` holds the raw RoCoF values of the boxcar, oldest first,
    at most ``rocof_smooth_window``.

    The fields live in one buffer of doubles, the state the C loop
    advances in place: the slots of ``_SLOTS``, ``a_c``, ``a_s``, the RoCoF
    ring and the C loop's basis.  Reading ``a_c``, ``a_s`` or ``rocof_buf``
    gives a new list, so a list taken from the state keeps its values; to
    change one coefficient, assign the whole list back.  The order n is
    fixed when the state is built: assigning a list of another length
    raises :class:`ValueError` and leaves the state as it was; a state of
    another order is built anew.  A state pickles and copies as its values;
    the copy binds its own buffer on its next :func:`step`.
    """

    a_dc = _slot("a_dc")
    a_dc1 = _slot("a_dc1")
    f_hz = _slot("f_hz")
    phase_acc = _slot("phase_acc")     # wrapped fundamental phase, [0, 2pi)
    t_anchor = _slot("t_anchor")       # min(elapsed time, t_reset_s)
    zfilt = _slot("zfilt")             # one-pole observation-filter state
    t0 = _slot("t0")                   # time of the first sample
    k = _slot("k")

    a_c = _coefficients(0)
    a_s = _coefficients(1)

    def __init__(self, a_c: Sequence[float], a_s: Sequence[float],
                 f_hz: float, a_dc: float = 0.0, a_dc1: float = 0.0,
                 phase_acc: float = 0.0, k: int = 0, t_anchor: float = 0.0,
                 zfilt: float = 0.0, diverged: bool = False,
                 rocof_buf: Sequence[float] = (), t0: float = 0.0) -> None:
        a_c, a_s, ring = list(a_c), list(a_s), list(rocof_buf)
        if not len(a_c) == len(a_s) >= 1:
            raise ValueError(f"a_c and a_s must have one entry per harmonic, "
                             f"n >= 1, got {len(a_c)} and {len(a_s)}")
        self.diverged = diverged
        self._n = len(a_c)
        # a ring of its values' size, full, its head at 0; then the basis
        self._v = array("d", [a_dc, a_dc1, f_hz, phase_acc, t_anchor, zfilt,
                              t0, _sample_count(k), 0, len(ring),
                              *a_c, *a_s, *ring])
        self._v.frombytes(bytes(16 * self._n))
        # the config bound last and the C loop bound under it, see _bind
        self._config: EstimatorConfig | None = None
        self._advance: Callable[[float], object] | None = None

    def _resize(self, size: int) -> None:
        """Give the RoCoF ring room for ``size`` >= 1 values, keeping the
        newest, in a new buffer; unbind the config of the old one."""
        # fail before asking for the ring: a kernel that overcommits may
        # grant more than the host holds, and kill the process on use
        if 8 * size > _MEMORY:
            raise ConfigError(f"rocof_smooth_window = {size} asks for a ring "
                              f"of {size} doubles, more than this host's "
                              f"{_MEMORY} bytes of memory")
        ring = self.rocof_buf[-size:]
        v = self._v[:_COEFS + 2 * self._n]
        v[_HEAD], v[_COUNT] = len(ring) % size, len(ring)
        v.fromlist(ring)
        v.frombytes(bytes(8 * (size - len(ring) + 2 * self._n)))
        self._v, self._config, self._advance = v, None, None

    @property
    def rocof_buf(self) -> list[float]:
        start = _COEFS + 2 * self._n
        head, count = int(self._v[_HEAD]), int(self._v[_COUNT])
        ring = self._v[start:start + count]
        return (ring[head:] + ring[:head]).tolist()

    def __getstate__(self) -> dict:
        # the values, never the buffer's address or the binding
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


@dataclass(slots=True)
class EstimateRecord:
    """One report of :func:`step`, or of :attr:`EstimateSeries.records`.

    The C library fills a step's record slot by slot: it allocates the
    instance and stores each field straight into its slot, and never runs
    ``__init__``.  So the class must stay a plain slotted dataclass, every
    field an object slot, with no ``__post_init__``, whose work a step's
    record would skip; binding a state to a class whose fields are not all
    object slots raises :class:`TypeError`.  A record has no ``__dict__``
    and takes no weak references.
    """

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
    and ``a_s[0..n)``, the layout the C loop and the estimate CSV hold;
    each column accessor returns a view of it.  The harmonic count
    :attr:`n` is read from its width.

    Amplitude and phase are derived when read, by the rule of the module
    docstring: :meth:`polar` applies it to the rectangular pairs, and
    :attr:`records` composes from the rows and :meth:`polar` the
    :class:`EstimateRecord` list :func:`step` would have returned, anew on
    each read.

    Building a series keeps its rows, an array or a list of rows, as
    :func:`gridfreq.synth.immutable` returns them: a read-only float64
    array in C order that no write of the caller's changes.  The rows of a
    :func:`run` that did not diverge and of
    :func:`gridfreq.io.read_estimates` are kept without a copy.
    """

    rows: np.ndarray
    # sample index of divergence, if any
    diverged_at: int | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        self.rows = rows = immutable(self.rows)
        if (rows.ndim != 2 or rows.shape[1] < len(ROW_COLUMNS) + 2
                or (rows.shape[1] - len(ROW_COLUMNS)) % 2):
            raise ValueError(f"rows of shape {rows.shape} are not a "
                             f"matrix of 10 + 2n columns, n >= 1")

    @property
    def n(self) -> int:
        return (self.rows.shape[1] - len(ROW_COLUMNS)) // 2

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
        out = np.empty((len(self), 2 * self.n))
        _native.library().polar(self.rows, out)
        return out

    @property
    def records(self) -> list[EstimateRecord]:
        """The reports as records, equal to :func:`step`'s bit for bit."""
        return [EstimateRecord(*row[:4], p[0::2], p[1::2], *row[4:10])
                for row, p in zip(self.rows.tolist(), self.polar().tolist())]


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def init(config: EstimatorConfig, t0: float = 0.0) -> EstimatorState:
    """Fresh state at the nominal frequency with all coefficients zero.

    ``t0`` is the time of the first sample; records are stamped
    ``t0 + k*ts`` after the k-th sample.  The state is bound to ``config``
    and the C library loaded here, not in :func:`step`.
    """
    state = EstimatorState([0.0] * config.n, [0.0] * config.n, config.f0,
                           t0=t0)
    _bind(state, config)
    return state


def _native_advance(state: EstimatorState, config: EstimatorConfig,
                    rows: array | np.ndarray, values: np.ndarray | None,
                    record: type[EstimateRecord] | None
                    ) -> Callable[[float], object]:
    """The C loop bound to the state under the config, writing rows into
    ``rows``, and for a step filling its reports as instances of
    ``record``: the C library's ``context`` (see ``kernel_context`` in
    ``_kernel.c``).

    The per-config constants keep the operand order of the laws, e.g.
    ``(ts*gamma)*z*basis``, so the cached products are bit-identical.
    """
    ts = config.ts
    alpha = _lowpass_gain(config.obs_lowpass_hz, ts)
    consts = array("d", (ts, ts * config.gamma_dc, config.gamma_dc1, alpha,
                         config.eta_opt, config.f0, config.f0 / 2,
                         config.t_reset_s, *(ts * g for g in config.gamma_c),
                         *(ts * g for g in config.gamma_s)))
    return _native.library().context(state._v, consts, rows, values,
                                      config.report_every, record)


def _bind(state: EstimatorState, config: EstimatorConfig) -> None:
    """Bind the state to the config for :func:`step`, loading the C library
    here, not in a step.  The offsets of the record class's slots are read
    now: a class whose fields are not all object slots raises
    :class:`TypeError` before the state is bound to ``config``."""
    if state._n != config.n:
        raise ConfigError(f"state has {state._n} harmonics, "
                          f"config has n = {config.n}")
    # the ring's size as the C loop reads it; a shorter window drops the
    # oldest values at once
    if len(state._v) - _COEFS - 4 * state._n != config.rocof_smooth_window:
        state._resize(config.rocof_smooth_window)
    row = array("d", bytes(8 * (len(ROW_COLUMNS) + 2 * config.n)))
    state._advance = _native_advance(state, config, row, None, EstimateRecord)
    state._config = config


def step(state: EstimatorState, sample: float, config: EstimatorConfig
         ) -> EstimateRecord | None:
    """Consume one sample; mutate the state; emit a record on report frames.

    Raises :class:`DivergenceError` when called on a diverged state, and
    :class:`TypeError`, with the state untouched, when the sample is not a
    real number.
    """
    if state.diverged:
        raise DivergenceError(f"estimator diverged at sample {state.k}")
    if state._config is not config:
        _bind(state, config)
    record = state._advance(sample)    # TypeError before the loop runs
    if record is False:
        state.diverged = True
        return None
    return record


# --------------------------------------------------------------------------
# A whole stream
# --------------------------------------------------------------------------

def run(stream: SampleStream, config: EstimatorConfig) -> EstimateSeries:
    """Run the estimator over a whole stream in one pass, from a fresh state.

    The series' records equal those of :func:`step` called on each sample
    in turn, bit for bit; the pass stops at a divergence and reports its
    sample index.  It is one call of the C loop :func:`step` calls once
    per sample, and builds no record.
    """
    # an interval read from a time column carries the rounding of its times
    if abs(stream.ts - config.ts) > (1e-9 * config.ts + TIME_ROUNDING
                                     * np.spacing(abs(stream.t0))):
        raise ConfigError(
            f"stream interval {stream.ts!r} does not match config ts {config.ts!r}"
        )
    n, every = config.n, config.report_every
    # no more values than the stream's are ever summed
    state = EstimatorState([0.0] * n, [0.0] * n, config.f0, t0=stream.t0)
    state._resize(max(1, min(config.rocof_smooth_window, len(stream))))
    x = np.ascontiguousarray(stream.values, dtype=np.float64)
    rows = np.empty((len(x) // every, len(ROW_COLUMNS) + 2 * n))
    written = _native_advance(state, config, rows, x, None)(0.0)
    rows.flags.writeable = False
    if written < 0:                    # a view, so the series copies it
        return EstimateSeries(rows[:state.k // every], diverged_at=state.k)
    return EstimateSeries(rows)
