import pytest

from mono3d import tensor as T


@pytest.fixture(autouse=True)
def no_faults():
    T.clear_faults()
    yield
    T.clear_faults()
