import pytest

from qprobe.dynamics import clear_model_store


@pytest.fixture
def cold_store():
    """An empty model store, so a test counts the builds of its own calls only."""
    clear_model_store()
