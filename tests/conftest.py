import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from kmflag.errors import NotSymmetrizable
from kmflag.kl import KLTable
from kmflag.moment_graph import build_moment_graph
from kmflag.root_datum import validate_cartan
from kmflag.weyl import enumerate_ideal, full_weyl_group

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
B2 = [[2, -1], [-2, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
AFFINE_A1 = [[2, -2], [-2, 2]]

# each off-diagonal pair (a_ij, a_ji) of a drawn GCM is zero in both entries
# or negative in both, down to -3: finite, affine and indefinite matrices alike
GCM_PAIRS = st.one_of(
    st.just((0, 0)), st.tuples(st.integers(-3, -1), st.integers(-3, -1))
)


def rank3_datum(pairs):
    """The root datum of the rank-3 GCM with the three drawn off-diagonal
    pairs; a draw that is not symmetrizable is rejected."""
    (a01, a10), (a02, a20), (a12, a21) = pairs
    try:
        return validate_cartan([[2, a01, a02], [a10, 2, a12], [a20, a21, 2]])
    except NotSymmetrizable:
        assume(False)


# every property test draws the same examples on every run, keeps no example
# database and has no per-example deadline
settings.register_profile("kmflag", derandomize=True, deadline=None, database=None)
settings.load_profile("kmflag")


@pytest.fixture(scope="session")
def a1():
    return validate_cartan(A1)


@pytest.fixture(scope="session")
def a2():
    return validate_cartan(A2)


@pytest.fixture(scope="session")
def b2():
    return validate_cartan(B2)


@pytest.fixture(scope="session")
def a3():
    return validate_cartan(A3)


@pytest.fixture(scope="session")
def affine_a1():
    return validate_cartan(AFFINE_A1)


@pytest.fixture(scope="session")
def a1_group(a1):
    return full_weyl_group(a1)


@pytest.fixture(scope="session")
def a2_group(a2):
    return full_weyl_group(a2)


@pytest.fixture(scope="session")
def b2_group(b2):
    return full_weyl_group(b2)


@pytest.fixture(scope="session")
def a3_group(a3):
    return full_weyl_group(a3)


@pytest.fixture(scope="session")
def affine_a1_ideal6(affine_a1):
    return enumerate_ideal(affine_a1, 6)


@pytest.fixture(scope="session")
def a2_table(a2_group):
    return KLTable(a2_group)


@pytest.fixture(scope="session")
def b2_table(b2_group):
    return KLTable(b2_group)


@pytest.fixture(scope="session")
def a3_table(a3_group):
    return KLTable(a3_group)


@pytest.fixture(scope="session")
def affine_a1_table(affine_a1_ideal6):
    return KLTable(affine_a1_ideal6)


@pytest.fixture(scope="session")
def a2_graph(a2, a2_group):
    return build_moment_graph(a2, a2_group)


@pytest.fixture(scope="session")
def b2_graph(b2, b2_group):
    return build_moment_graph(b2, b2_group)


@pytest.fixture(scope="session")
def a3_graph(a3, a3_group):
    return build_moment_graph(a3, a3_group)


@pytest.fixture(scope="session")
def affine_a1_graph(affine_a1, affine_a1_ideal6):
    return build_moment_graph(affine_a1, affine_a1_ideal6)
