import pytest

from plethysm import verify


@pytest.fixture(autouse=True)
def fresh_generator_matrices():
    """Verify keeps each rank's generator matrices for the whole run; a test
    that patches the one-row action must neither read matrices built before
    the patch nor leave its own for the tests after it."""
    verify._generator_matrices.cache_clear()
    yield
    verify._generator_matrices.cache_clear()
