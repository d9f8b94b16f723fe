"""The package's C library, ``_kernel.c``: built on first use, loaded
through :mod:`ctypes`.

It holds the estimator's run loop (``gridfreq_run``) and the CSV float
formatter of :mod:`gridfreq.io` (``gridfreq_format_rows``).
:func:`library` builds it with ``cc -O2 -ffp-contract=off`` into
``$XDG_CACHE_HOME/gridfreq`` (default ``~/.cache/gridfreq``), one shared
object per source and flags, on the first call, never at import.  When it
cannot be built, :func:`library` returns None and each caller takes its
Python path, which gives the same output.

:func:`format_rows` formats CSV rows through it.  The power-of-5 tables
that Ryu's algorithm multiplies by are built from Python ints on its first
call, not on the first :func:`library` call, so a process that only runs
the estimator does not build them.
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
    return lib


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

    def words(values: list[int]) -> np.ndarray:
        mask = (1 << 64) - 1
        table = np.array([(v & mask, v >> 64) for v in values], np.uint64)
        table.flags.writeable = False     # one copy serves every call
        return table

    return (words([top_bits(i) for i in range(326)]),
            words([inverse(i) for i in range(342)]))


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
