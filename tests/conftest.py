import pytest


@pytest.fixture(scope="session")
def table():
    from latticefmm.green import default_table

    return default_table()
