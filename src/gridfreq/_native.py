"""The package's C library, ``_kernel.c``: built on first use, loaded
through :mod:`ctypes`.

It holds the estimator's loop (``gridfreq_advance``), the CSV float
formatter of :mod:`gridfreq.io` (``gridfreq_format_rows``) and its CSV row
parser (``gridfreq_parse_rows``).
:func:`library` builds it with ``cc -O2 -ffp-contract=off`` into
``$XDG_CACHE_HOME/gridfreq`` (default ``~/.cache/gridfreq``), one shared
object per source and flags, on the first call, never at import.  When it
cannot be built, :func:`library` returns None and each caller takes its
Python path, which gives the same output.

:func:`format_rows` formats CSV rows of doubles through it, and
:func:`parse_rows` parses them.  Both multiply by one table of 128-bit
powers of five, built from Python ints on the first call of either, not on
the first :func:`library` call, so a process that only runs the estimator
never builds it.
"""

from __future__ import annotations

import contextlib
import functools
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    import ctypes
    from array import array

    Doubles = array | np.ndarray          # C-contiguous float64

_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _source() -> bytes:
    from importlib import resources
    return resources.files(__package__).joinpath("_kernel.c").read_bytes()


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/gridfreq`` or ``~/.cache/gridfreq``, private to the user."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    path = (Path(base) if os.path.isabs(base)
            else Path.home() / ".cache") / "gridfreq"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    # a shared object others can replace would run their code
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _build(source: bytes) -> Path:
    """Path of the shared object of ``source``, compiled unless cached.

    It is named by the sha256 of the source and the flags, and published
    with an atomic rename, so processes that build at once are safe.
    """
    import hashlib

    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    cache = _cache_dir()
    target = cache / f"_kernel-{key[:16]}.so"
    if target.exists():
        return target
    # only a compile pays for these imports
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run([_CC, *_CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=source, capture_output=True, check=True,
                       timeout=120)
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot build the C library: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return target


@functools.cache
def library() -> ctypes.CDLL | None:
    """The C library with its functions' signatures set, or None (once per
    process) when a missing compiler, a compile error or an unwritable
    cache directory keeps it from being built."""
    import ctypes

    try:
        lib = ctypes.CDLL(str(_build(_source())))
    except (OSError, RuntimeError):
        return None

    def array(dtype: type) -> type:
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    doubles = array(np.float64)
    i64 = ctypes.c_int64
    lib.gridfreq_advance.argtypes = [ctypes.c_void_p, ctypes.c_double]
    lib.gridfreq_advance.restype = i64
    words = array(np.uint64)
    lib.gridfreq_format_rows.argtypes = [doubles, i64, i64, words,
                                         array(np.uint8)]
    lib.gridfreq_format_rows.restype = i64
    lib.gridfreq_parse_rows.argtypes = [ctypes.c_char_p, i64, i64, i64, i64,
                                        words, doubles]
    lib.gridfreq_parse_rows.restype = i64
    return lib


@functools.cache
def _context_type() -> type:
    import ctypes

    class Context(ctypes.Structure):
        """``struct gridfreq_ctx`` of ``_kernel.c``."""
        _fields_ = ([(name, ctypes.c_void_p)
                     for name in ("state", "consts", "rows", "x")]
                    + [(name, ctypes.c_int64) for name in
                       ("len", "n", "ring", "report_every", "lowpass")])
    return Context


def _address(buffer: Doubles) -> int:
    return (buffer.ctypes.data if isinstance(buffer, np.ndarray)
            else buffer.buffer_info()[0])


def context(state: Doubles, consts: Doubles, rows: Doubles,
            x: Doubles | None, n: int, ring: int, report_every: int,
            lowpass: bool) -> tuple[Callable[[float], int], ctypes.Structure]:
    """``gridfreq_advance`` bound to a new ``struct gridfreq_ctx`` over
    float64 buffers (C-contiguous arrays, or ``array('d')`` that no one
    resizes), and the context: a run over the samples ``x``, or a step on
    the sample of each call when ``x`` is None.  The context keeps the
    buffers alive; the caller keeps the context alive as long as it calls.
    Needs :func:`library`."""
    import ctypes

    ctx = _context_type()(_address(state), _address(consts), _address(rows),
                          None if x is None else _address(x),
                          0 if x is None else len(x),
                          n, ring, report_every, lowpass)
    ctx.buffers = state, consts, rows, x
    return (functools.partial(library().gridfreq_advance,
                              ctypes.addressof(ctx)), ctx)


@functools.cache
def _pow10_table() -> np.ndarray:
    """The one table of the formatter and the parser: for q in [-342, 325],
    the top 128 bits of 5^q, its leading bit at bit 127, stored as its
    (low, high) 64-bit words.  These are fast_float's entries, extended to
    the 5^325 that a subnormal needs in Ryu: truncated, but rounded up for
    -27 <= q < 0.  Ryu needs every 5^-q rounded up; the formatter rounds
    up the entries below q = -27 itself."""
    def entry(q: int) -> int:
        if q >= 0:
            shift = (5 ** q).bit_length() - 128
            return 5 ** q >> shift if shift >= 0 else 5 ** q << -shift
        # 5^-q is never a power of 2, so no quotient is exact
        b = 127 + (5 ** -q).bit_length()
        return 2 ** b // 5 ** -q + (q >= -27)

    mask = (1 << 64) - 1
    values = map(entry, range(-342, 326))
    table = np.array([(v & mask, v >> 64) for v in values], np.uint64)
    table.flags.writeable = False     # one copy serves every call
    return table


def format_rows(cells: np.ndarray) -> memoryview:
    """The CSV text, CRLF line ends included, of the rows of a C-contiguous
    float64 matrix, each value as ``repr`` writes it.  Needs
    :func:`library`."""
    rows, ncols = cells.shape
    # a field and its comma take at most 25 bytes, a row end 2
    out = np.empty(rows * (25 * ncols + 2), np.uint8)
    size = library().gridfreq_format_rows(cells, rows, ncols, _pow10_table(),
                                          out)
    return memoryview(out)[:size]


def parse_rows(data: bytes, start: int, ncols: int) -> np.ndarray | None:
    """The float rows of the CSV text ``data[start:]``, ``ncols`` fields
    each, or None where a byte falls outside the C parser's strict grammar
    (see ``gridfreq_parse_rows``) or there is no row.  Needs
    :func:`library`."""
    # a row takes at least 2 * ncols bytes with its line end, which bounds
    # the buffer by the file's size whatever its header's width
    max_rows = min(data.count(b"\n", start) + 1,
                   (len(data) - start + 1) // (2 * ncols))
    out = np.empty((max_rows, ncols))
    rows = library().gridfreq_parse_rows(data, start, len(data), ncols,
                                         max_rows, _pow10_table(), out)
    return out[:rows] if rows > 0 else None
