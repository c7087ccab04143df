"""Fixtures for every test under the repository root: ``tests/`` and the
benchmark's own tests in ``bench/``."""

import pytest


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """An empty XDG_CACHE_HOME of this test alone, so that no test reads or
    writes the user's ~/.cache or sees another test's cache entries; child
    processes inherit it.  It is not under tmp_path, whose listing tests
    compare."""
    home = tmp_path_factory.mktemp("cache_home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
