import pytest
from hypothesis import settings

from murmurations.arith import analytic_conductor, build_factor_sieve
from murmurations.classnum import DiscriminantTable, sieve_class_numbers
from murmurations.trace import TraceContext
from murmurations.window import make_window

# property tests draw the same examples on every run and keep no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def sieve_1m():
    return build_factor_sieve(10**6)


@pytest.fixture(scope="session")
def class_table_20k():
    return sieve_class_numbers(2 * 10**4)


@pytest.fixture(scope="session")
def ctx_small(class_table_20k, sieve_1m):
    return TraceContext(table=class_table_20k, sieve=sieve_1m)


@pytest.fixture(scope="session")
def disc_table(sieve_1m):
    # covers |t^2 - 4n| for the psi-bar brute-force ranges (m1 m2 <= 380)
    return DiscriminantTable(4 * 400 * 400 + 200, sieve_1m)


@pytest.fixture(scope="session")
def window():
    return make_window()


@pytest.fixture(scope="session")
def smoke_context(sieve_1m):
    # class numbers covering primes up to 2 N(600), for K = 600 runs
    n600 = analytic_conductor(600).N
    bound = 4 * int(2 * n600) + 8
    return TraceContext(table=sieve_class_numbers(bound), sieve=sieve_1m)


@pytest.fixture(scope="session")
def desk_context(sieve_1m):
    # class numbers covering primes up to 2 N(3850): the figure-scale runs
    n = analytic_conductor(3850).N
    bound = 4 * int(2 * n) + 8
    ctx = TraceContext(table=sieve_class_numbers(bound), sieve=sieve_1m)
    ctx.l1_array()
    return ctx
