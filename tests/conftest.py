import pathlib
import shutil
import sys

import pytest

# make the sibling oracle/helper modules importable as plain modules
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from gridfreq import estimator  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C run loop into a cache of this session, not the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        estimator._native_kernel.cache_clear()
        yield
    estimator._native_kernel.cache_clear()


@pytest.fixture
def native_kernel():
    """run() on the C loop; skipped only where no C compiler is installed."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    assert estimator.run_backend() == "c"


@pytest.fixture
def python_kernel(monkeypatch):
    """run() on the generated Python kernel."""
    monkeypatch.setattr(estimator, "_native_kernel", lambda: None)
