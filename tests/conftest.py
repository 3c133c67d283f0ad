"""Every test starts with the per-process subfield caches and the memo
tables of the |H^1| counts empty and leaves them empty: a monkeypatched
build cannot leak into a later test, and a test that counts searches or
memo entries counts them from a cold start."""

import pytest

from exact_reference import clear_subfield_caches


@pytest.fixture(autouse=True)
def cold_subfield_caches():
    clear_subfield_caches()
    yield
    clear_subfield_caches()
