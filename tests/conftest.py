import os
import pathlib
import shutil
import sys
import tempfile

import pytest

# make the sibling oracle/helper modules importable as plain modules
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from gridfreq import _native  # noqa: E402

# the XDG_CACHE_HOME the session found, and the cache it uses instead
_cache_key = pytest.StashKey[tuple]()


def pytest_configure(config):
    """Point the C library's cache at a directory of this session before
    collection: a test module that imports ``step`` builds the library
    while it is collected, and must not build it into the user's cache."""
    config.stash[_cache_key] = (os.environ.get("XDG_CACHE_HOME"),
                                tempfile.mkdtemp(prefix="gridfreq-xdg-cache-"))
    os.environ["XDG_CACHE_HOME"] = config.stash[_cache_key][1]
    _native._loaded.cache_clear()


def pytest_unconfigure(config):
    if _cache_key not in config.stash:
        return
    before, cache = config.stash[_cache_key]
    if before is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = before
    _native._loaded.cache_clear()
    shutil.rmtree(cache, ignore_errors=True)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache():
    """Build the C library into the session's cache; where it cannot be
    built, stop the session with the command line's message rather than
    fail every test that needs it."""
    try:
        _native.library()
    except OSError as exc:
        pytest.exit(f"error: {exc}", returncode=2)
