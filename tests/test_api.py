"""The package's public name list."""

import gridfreq


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from gridfreq import *", namespace)   # a stale name raises here
    assert set(gridfreq.__all__) <= namespace.keys()
