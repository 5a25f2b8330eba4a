import itertools

import pytest

from kdnf import CapacityError, Dnf, Interval, KFunction
from kdnf.oracle import (
    oracle_absorbs,
    oracle_is_monotone,
    oracle_maximal_intervals,
    oracle_minimize,
)

from .conftest import ec
from .instances import carrier_of, nonzero_points


def test_full_boolean_square_has_one_maximal_interval():
    c = carrier_of(2, 2, itertools.product(range(2), repeat=2))
    assert oracle_maximal_intervals(c) == [Interval(2, (3, 3))]


def test_empty_carrier():
    assert oracle_maximal_intervals(carrier_of(3, 2, ())) == []


def test_star_example_carrier(star_example):
    got = oracle_maximal_intervals(carrier_of(3, 3, nonzero_points(star_example)))
    keys = {i.factors for i in got}
    assert (0b111, 0b010, 0b010) in keys  # x2=1, x3=1, x1 free
    assert (0b010, 0b100, 0b110) in keys  # x1=1, x2=2, x3 in {1,2}
    assert len(got) == 3


def test_maximal_interval_cap():
    with pytest.raises(CapacityError):
        oracle_maximal_intervals(carrier_of(16, 2, ()))


def test_absorbs_accepts_dnf_or_terms(handwritten_pair):
    term = handwritten_pair.terms[0]
    assert oracle_absorbs(handwritten_pair, term)
    assert oracle_absorbs(handwritten_pair.terms, term)


def test_absorbs_cap():
    big = ec(16, 1, *([None] * 5))  # 16**5 points is past the pointwise cap
    with pytest.raises(CapacityError):
        oracle_absorbs([big], big)


def test_minimize_constant_zero():
    res = oracle_minimize(KFunction(2, 2, bytes(2**2)))
    assert res.dnf == Dnf(2, 2) and res.objective_value == 0


def test_minimize_single_point_function():
    f = KFunction.from_map(2, 2, {(1, 1): 1})
    res = oracle_minimize(f)
    assert res.objective_value == 1
    assert [t.interval for t in res.dnf.terms] == [Interval.from_values(2, [1], [1])]


def test_is_monotone_definition_check(star_example):
    from kdnf import star_order, total_order

    assert oracle_is_monotone(KFunction(3, 2, bytes([1]) * 3**2), total_order(3))
    assert oracle_is_monotone(star_example, star_order(3))
