"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _private_result_cache(tmp_path_factory, monkeypatch):
    """Point the CLI's default result cache at a fresh directory per test.

    ``repro run``/``sweep`` without ``--no-cache`` or ``--cache-dir``
    cache into ``$REPRO_CACHE_DIR`` (else ``~/.cache/repro/sweeps``): a
    test must neither fill the user's cache nor be served from it.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))
