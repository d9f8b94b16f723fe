"""The package's C library, ``_kernel.c``: built on first use as the
CPython extension module ``gridfreq._kernel``, loaded through
:mod:`importlib`, and required.

It holds the estimator's loop (``gridfreq_advance``), the CSV float
formatter of :mod:`gridfreq.io` (``gridfreq_format_rows``) and its CSV row
parser (``gridfreq_parse_rows``), which the module's ``context``,
``format_rows`` and ``parse_rows`` call on arrays taken through the buffer
protocol and on text as bytes, and the amplitude and phase rule of the
estimator's records, libm's ``hypot`` and ``atan2`` over doubles, which a
step's context and ``polar`` apply.  ``context`` reads the harmonic count
and the RoCoF ring's size from the buffers it is given; ``stepper`` makes
:func:`gridfreq.estimator.step`, one C function over a state's slots.
:func:`library` builds it with ``cc -O2 -ffp-contract=off`` against the
running interpreter's headers into ``$XDG_CACHE_HOME/gridfreq`` (default
``~/.cache/gridfreq``), on the first call, never at import.  The
file is ``_kernel-<key><EXT_SUFFIX>``: the key hashes the source, the
compiler, the flags and the interpreter's include directory and extension
suffix, so interpreters or compilers that share the cache never load each
other's build.  When it cannot be built, :func:`library` raises
:class:`OSError` naming the cause: missing Python headers, a missing
compiler, a compile error, or a cache directory that cannot be written or
that other users can write.  The command line exits 2 with that message.

:func:`format_rows` formats CSV rows of doubles through it, each as
``repr`` writes it, with Schubfach's shortest digits (Giulietti, "The
Schubfach way to render doubles", 2020), and :func:`parse_rows`, the
package's only CSV row parser, parses them, correctly rounded, with
Eisel-Lemire, or names the first line at fault.  Each returns a
``bytes`` the C library sizes: the formatter's text, in its worst case
shrunk to fit, and the parser's rows, in a buffer it grows as it reads.
Both multiply by one table of 128-bit powers of five, built from Python
ints on the first call of either, not on the first :func:`library` call,
so a process that only runs the estimator never builds it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sysconfig
from pathlib import Path
from types import ModuleType

import numpy as np

_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _source() -> bytes:
    from importlib import resources
    return resources.files(__package__).joinpath("_kernel.c").read_bytes()


def _include_dir() -> str:
    """The running interpreter's C headers, ``Python.h`` among them."""
    return sysconfig.get_paths()["include"]


def _key(source: bytes, include: str, suffix: str) -> str:
    """The cache key of a build: the source, the compiler, the flags and
    the include directory and extension suffix of the interpreter it is
    built for."""
    import hashlib

    parts = (source, os.fsencode(_CC), " ".join(_CFLAGS).encode(),
             os.fsencode(include), suffix.encode())
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/gridfreq`` or ``~/.cache/gridfreq``, private to the user."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    path = (Path(base) if os.path.isabs(base)
            else Path.home() / ".cache") / "gridfreq"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError as exc:
        raise OSError(f"cache directory {path} cannot be used "
                      f"({exc.strerror})") from exc
    # a shared object others can replace would run their code
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"cache directory {path} is writable by other "
                              f"users")
    return path


def _build(source: bytes) -> Path:
    """Path of the extension module of ``source``, compiled unless cached.

    It is named by :func:`_key` and the interpreter's extension suffix, and
    published with an atomic rename, so processes that build at once are
    safe.
    """
    include = _include_dir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    cache = _cache_dir()
    target = cache / f"_kernel-{_key(source, include, suffix)}{suffix}"
    if target.exists():
        return target
    header = Path(include) / "Python.h"
    if not header.is_file():
        raise OSError(f"Python headers not found: {header}")
    # only a compile pays for these imports
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache)
    os.close(fd)
    try:
        subprocess.run([_CC, *_CFLAGS, f"-I{include}", "-x", "c", "-", "-o",
                        tmp, "-lm"], input=source, capture_output=True,
                       check=True, timeout=120)
    except OSError as exc:                     # not found, not executable
        raise OSError(f"C compiler {_CC!r} cannot be run "
                      f"({exc.strerror})") from exc
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        raise OSError(f"C compiler {_CC!r} failed on _kernel.c"
                      + (f": {lines[0]}" if lines else "")) from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"C compiler {_CC!r} timed out on _kernel.c") from exc
    else:
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return target


@functools.cache
def _loaded() -> ModuleType | str:
    """The extension module, or why it cannot be built or loaded.  A
    failure is cached too, so no later call runs ``cc`` again."""
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    try:
        loader = ExtensionFileLoader(f"{__package__}._kernel",
                                     str(_build(_source())))
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
    except (OSError, RuntimeError, ImportError) as exc:  # RuntimeError: no home
        return f"cannot build gridfreq's C library: {exc}"
    return module


def library() -> ModuleType:
    """The C library, built on the first call of the process.  Raises
    :class:`OSError` naming the cause when it cannot be built, on that call
    and on every later one."""
    lib = _loaded()
    if isinstance(lib, str):
        raise OSError(lib)
    return lib


@functools.cache
def _pow10_table() -> np.ndarray:
    """The one table of the formatter and the parser: for q in [-342, 324],
    the top 128 bits of 5^q, its leading bit at bit 127, stored as its
    (low, high) 64-bit words.  These are fast_float's entries, truncated
    but rounded up for -27 <= q < 0.  The parser multiplies by 5^q; the
    formatter derives Schubfach's 126-bit approximation of 10^q, 5^q
    rounded down and plus 1, from the entry for q in [-292, 324]."""
    def entry(q: int) -> int:
        if q >= 0:
            shift = (5 ** q).bit_length() - 128
            return 5 ** q >> shift if shift >= 0 else 5 ** q << -shift
        # 5^-q is never a power of 2, so no quotient is exact
        b = 127 + (5 ** -q).bit_length()
        return 2 ** b // 5 ** -q + (q >= -27)

    mask = (1 << 64) - 1
    values = map(entry, range(-342, 325))
    table = np.array([(v & mask, v >> 64) for v in values], np.uint64)
    table.flags.writeable = False     # one copy serves every call
    return table


def format_rows(cells: np.ndarray) -> bytes:
    """The CSV text, CRLF line ends included, of the rows of a C-contiguous
    float64 matrix, each value as ``repr`` writes it."""
    return library().format_rows(cells, _pow10_table())


# the causes gridfreq_parse_rows reports, by their codes 1 to 4
_FAULTS = (None, "malformed", "fields", "not finite", "quote")


def parse_rows(data: bytes, start: int, ncols: int
               ) -> tuple[np.ndarray, tuple[int, int, str] | None]:
    """The float rows of the CSV text ``data[start:]``, ``ncols`` fields
    each, and None; or, where a line is at fault, the rows before it and
    ``(line, field, cause)`` (see ``gridfreq_parse_rows``): the line's index,
    0 at ``start``, the index of the field at fault or, for ``"fields"``,
    the line's field count, and the cause, ``"malformed"``, ``"fields"``,
    ``"not finite"`` or ``"quote"``.  The rows are a read-only view of the
    ``bytes`` the parser returns, their ``base``."""
    rows, line, field, cause = library().parse_rows(data, start, ncols,
                                                    _pow10_table())
    arr = np.frombuffer(rows, (np.float64, (ncols,)))
    return arr, (line, field, _FAULTS[cause]) if cause else None
