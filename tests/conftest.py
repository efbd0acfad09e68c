import quivermoduli
import pytest


@pytest.fixture(autouse=True)
def _fresh_caches():
    # per-test isolation: clear_caches empties every quiver's table, whose
    # entries hold e's rays and e's right form
    quivermoduli.clear_caches()
    yield
