"""Session fixtures: shared eigenvalue tables.

The large tables dominate suite start-up, so they are session scoped and
sized for every consumer: family_table covers families up to q = 211 plus
the cap-doubling check at q = 101, sweep_table covers the growth sweep up
to q = 1009.  shared_eigenform serves each request as an exact-length view
of whatever bigger table the process already holds, so the order tests run
in only affects build time, never results.
"""

import pytest

from twistmoments import hecke, lvalues


@pytest.fixture(scope="session")
def table_100k():
    return hecke.shared_eigenform(100_000)


@pytest.fixture(scope="session")
def family_table():
    cfg = lvalues.DEFAULT_CONFIG
    need = max(2 * lvalues.required_n_cap(101, cfg),
               lvalues.required_n_cap(211, cfg))
    return hecke.shared_eigenform(need)


@pytest.fixture(scope="session")
def sweep_table():
    return hecke.shared_eigenform(
        lvalues.required_n_cap(1009, lvalues.DEFAULT_CONFIG))
