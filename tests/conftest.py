import pytest
from hypothesis import settings

from dimspec.acceptance import CloudCache

# print_blob: a property that fails once in a log prints the
# @reproduce_failure decorator that replays its example.
settings.register_profile("suite", deadline=None, print_blob=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cloud_cache():
    """Shared cloud memo: the deep clouds are the expensive part of the
    suite, and several modules look at the same ones."""
    return CloudCache()
