import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from kdnf import Dnf, ElementaryConjunction, Interval, KFunction

settings.register_profile(
    "fixed",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("fixed")


# the worked k=3,n=3 regression function: value 1 on five points, else 0
STAR_EXAMPLE_POINTS = ((0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2))


@pytest.fixture(scope="session")
def star_example() -> KFunction:
    return KFunction.from_map(3, 3, {p: 1 for p in STAR_EXAMPLE_POINTS})


def ec(k: int, gamma: int, *factors) -> ElementaryConjunction:
    """Shorthand: factors as value iterables, None meaning the full set."""
    iv = Interval.from_values(k, *(range(k) if f is None else f for f in factors))
    return ElementaryConjunction(iv, gamma)


@pytest.fixture(scope="session")
def handwritten_pair(star_example) -> Dnf:
    """The two-term cover of the example: x2=1,x3=1 plus x1=1,x2=2,x3 in {1,2}."""
    terms = (
        ec(3, 1, None, [1], [1]),
        ec(3, 1, [1], [2], [1, 2]),
    )
    return Dnf(3, 3, terms)


@st.composite
def shapes(draw, min_k=2, max_k=3, max_n=3, max_table=81):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(1, max_n).filter(lambda m: k**m <= max_table))
    return k, n


@st.composite
def kfunctions(draw, **kwargs):
    k, n = draw(shapes(**kwargs))
    table = draw(st.lists(st.integers(0, k - 1), min_size=k**n, max_size=k**n))
    return KFunction(k, n, table)


def point_strategy(k: int, n: int):
    return st.tuples(*(st.integers(0, k - 1),) * n)


def factor_strategy(k: int):
    return st.integers(1, (1 << k) - 1)


@st.composite
def conjunctions(draw, k: int, n: int):
    factors = tuple(draw(factor_strategy(k)) for _ in range(n))
    gamma = draw(st.integers(1, k - 1))
    return ElementaryConjunction(Interval(k, factors), gamma)


@st.composite
def dnf_and_point(draw, max_terms=4, **kwargs):
    k, n = draw(shapes(**kwargs))
    terms = draw(st.lists(conjunctions(k, n), max_size=max_terms))
    p = draw(point_strategy(k, n))
    return Dnf(k, n, tuple(terms)), p


@st.composite
def conjunction_and_point(draw, **kwargs):
    k, n = draw(shapes(**kwargs))
    return draw(conjunctions(k, n)), draw(point_strategy(k, n))
