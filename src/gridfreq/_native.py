"""The package's C library, ``_kernel.c``: built on first use, loaded
through :mod:`ctypes`.

It holds the estimator's run loop (``gridfreq_run``), the CSV float
formatter of :mod:`gridfreq.io` (``gridfreq_format_rows``) and its CSV row
parser (``gridfreq_parse_rows``).
:func:`library` builds it with ``cc -O2 -ffp-contract=off`` into
``$XDG_CACHE_HOME/gridfreq`` (default ``~/.cache/gridfreq``), one shared
object per source and flags, on the first call, never at import.  When it
cannot be built, :func:`library` returns None and each caller takes its
Python path, which gives the same output.

:func:`format_rows` formats CSV rows through it, and :func:`parse_rows`
parses them.  The power-of-5 tables that they multiply by, Ryu's for the
formatter and Eisel-Lemire's 128-bit powers of five for the parser, are
built from Python ints on the first call of each, not on the first
:func:`library` call, so a process that only runs the estimator builds
neither.
"""

from __future__ import annotations

import contextlib
import functools
import os
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    import ctypes

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
    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.gridfreq_run.argtypes = [
        doubles, i64, i64, doubles, doubles, f64, f64, f64, ctypes.c_int,
        f64, f64, f64, f64, f64, i64, i64, f64, doubles, doubles]
    lib.gridfreq_run.restype = i64
    words = array(np.uint64)
    lib.gridfreq_format_rows.argtypes = [words, i64, i64, array(np.uint8),
                                         words, words, array(np.uint8)]
    lib.gridfreq_format_rows.restype = i64
    lib.gridfreq_parse_rows.argtypes = [ctypes.c_char_p, i64, i64, i64, i64,
                                        words, doubles]
    lib.gridfreq_parse_rows.restype = i64
    return lib


def _words(values: list[int]) -> np.ndarray:
    """A read-only table of ints below 2^128, each as its (low, high)
    64-bit words."""
    mask = (1 << 64) - 1
    table = np.array([(v & mask, v >> 64) for v in values], np.uint64)
    table.flags.writeable = False     # one copy serves every call
    return table


@functools.cache
def _pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """Ryu's tables for doubles, each entry a 125-bit int stored as its
    (low, high) 64-bit words.  With L the bit length of 5^i:

    - ``pow5[i] = 5^i * 2^(125 - L)``, rounded down: the top 125 bits of
      5^i, for i < 326 (a subnormal needs i = 325);
    - ``pow5_inv[i] = 2^(L - 1 + 125) // 5^i + 1``: 125 bits of 5^-i,
      rounded up, for i < 342 (the largest double needs i = 290).
    """
    def top_bits(i: int) -> int:
        shift = (5 ** i).bit_length() - 125
        return 5 ** i >> shift if shift >= 0 else 5 ** i << -shift

    def inverse(i: int) -> int:
        return (1 << (5 ** i).bit_length() - 1 + 125) // 5 ** i + 1

    return (_words([top_bits(i) for i in range(326)]),
            _words([inverse(i) for i in range(342)]))


@functools.cache
def _pow10_table() -> np.ndarray:
    """Eisel-Lemire's table: for q in [-342, 308], the top 128 bits of 5^q,
    with its leading bit at bit 127.  They are 5^q shifted and truncated
    for q >= 0, and 2^b // 5^-q + 1 truncated for q < 0, b the shift that
    gives 5^-q's reciprocal 128 bits (fast_float's table)."""
    def entry(q: int) -> int:
        if q >= 0:
            shift = (5 ** q).bit_length() - 128
            return 5 ** q >> shift if shift >= 0 else 5 ** q << -shift
        z = (5 ** -q).bit_length()            # 5^-q is never a power of 2
        if q >= -27:
            return 2 ** (z + 127) // 5 ** -q + 1
        c = 2 ** (2 * z + 128) // 5 ** -q + 1
        return c >> c.bit_length() - 128

    return _words([entry(q) for q in range(-342, 309)])


def format_rows(columns: Sequence[np.ndarray]) -> memoryview:
    """The CSV text, CRLF line ends included, of the rows of equal-length
    float or int64 columns: each float as ``repr`` writes it and each int
    as a decimal integer.  Needs :func:`library`."""
    rows, ncols = len(columns[0]), len(columns)
    integral = np.array([c.dtype.kind in "iu" for c in columns])
    # the C function reads each cell's bits as a double or, where its
    # column is integral, as an int64
    cells = np.empty((rows, ncols), np.uint64)
    for j, c in enumerate(columns):
        kind = np.int64 if integral[j] else np.float64
        cells[:, j] = c.astype(kind, copy=False).view(np.uint64)
    # a field and its comma take at most 25 bytes, a row end 2
    out = np.empty(rows * (25 * ncols + 2), np.uint8)
    pow5, pow5_inv = _pow5_tables()
    size = library().gridfreq_format_rows(cells, rows, ncols,
                                          integral.view(np.uint8), pow5,
                                          pow5_inv, out)
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
