import pytest
from hypothesis import settings

from dimspec.acceptance import CloudCache

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cloud_cache():
    """Shared cloud memo: the deep clouds are the expensive part of the
    suite, and several modules look at the same ones."""
    return CloudCache()
