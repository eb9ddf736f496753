import pytest

import edgekit as ek


@pytest.fixture(scope="session")
def identity100():
    return ek.identity_spectrum(100, 100)


@pytest.fixture(scope="session")
def identity_d2():
    return ek.identity_spectrum(100, 200)


@pytest.fixture(scope="session")
def twopoint200():
    return ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200)


@pytest.fixture(scope="session")
def twopoint400():
    return ek.two_point_spectrum(1.0, 2.0, 0.5, 400, 400)


@pytest.fixture(scope="session")
def hm_solution():
    return ek.hastings_mcleod()


@pytest.fixture(scope="session")
def tw_reference(hm_solution):
    return ek.tw_table(sol=hm_solution)
