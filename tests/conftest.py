import pytest

from qprobe import protocols
from qprobe.dynamics import clear_model_store


def clear_stores():
    """Empty the model store and the transfer checks and fidelities kept per detuning."""
    clear_model_store()
    protocols._checked_transfer.cache_clear()
    protocols._candidate_fidelity.cache_clear()


@pytest.fixture
def cold_store():
    """Empty stores, so a test counts the builds and fidelities of its own calls only.

    Returns ``clear_stores`` for a test that must go cold again.
    """
    clear_stores()
    return clear_stores
