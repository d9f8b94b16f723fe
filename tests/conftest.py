import pathlib
import sys

import pytest

# make the sibling oracle/helper modules importable as plain modules
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from gridfreq import _native  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C library into a cache of this session, not the user's;
    where it cannot be built, stop the session with the command line's
    message rather than fail every test that needs it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        _native._loaded.cache_clear()
        try:
            _native.library()
        except OSError as exc:
            pytest.exit(f"error: {exc}", returncode=2)
        yield
    _native._loaded.cache_clear()
