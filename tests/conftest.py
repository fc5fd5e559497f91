import pytest

from qprobe import protocols
from qprobe.dynamics import clear_model_store


def clear_stores():
    """Empty the model store and the swap fidelities kept per detuning and time."""
    clear_model_store()
    protocols._exchange_swap_fidelity.cache_clear()


@pytest.fixture
def cold_store():
    """Empty stores, so a test counts the builds and fidelities of its own calls only.

    Returns ``clear_stores`` for a test that must go cold again.
    """
    clear_stores()
    return clear_stores
