import pathlib
import sys

import pytest

# make the sibling oracle/helper modules importable as plain modules
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from gridfreq import _native, estimator  # noqa: E402
from cases import HAVE_CC, NO_CC  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C library into a cache of this session, not the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        _native.library.cache_clear()
        yield
    _native.library.cache_clear()


@pytest.fixture
def native_kernel():
    """run() on the C loop and the CSV writers on the C formatter; skipped
    only where no C compiler is installed."""
    if not HAVE_CC:
        pytest.skip(NO_CC)
    assert estimator.run_backend() == "c"


@pytest.fixture
def python_kernel(monkeypatch):
    """run() on the generated Python kernel and the CSV writers on repr:
    the C library is taken as absent."""
    monkeypatch.setattr(_native, "library", lambda: None)
