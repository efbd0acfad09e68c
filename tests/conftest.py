import quivermoduli
import pytest


@pytest.fixture(autouse=True)
def _fresh_caches():
    # per-test isolation: clear_caches empties every quiver's ray tables and forms
    quivermoduli.clear_caches()
    yield
