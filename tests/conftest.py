"""Every test runs on a spectrum cache of its own, so no test writes to the user's cache."""

import pytest

from hochheat.suite import DEFAULT_CACHE_ENV


@pytest.fixture(autouse=True)
def private_cache_dir(monkeypatch, tmp_path_factory):
    """Point the spectrum cache at a fresh temporary directory for each test."""
    monkeypatch.setenv(DEFAULT_CACHE_ENV, str(tmp_path_factory.mktemp("cache")))
