from hypothesis import given

from kdnf import KFunction, decompose, functions_equal, max_representation

from .conftest import STAR_EXAMPLE_POINTS, kfunctions
from .instances import nonzero_points


def identity_fn(k: int) -> KFunction:
    return KFunction.from_table(k, 1, range(k))


def test_constant_zero_has_no_levels():
    assert decompose(KFunction.constant(3, 2)).levels == ()


def test_star_example_single_level(star_example):
    dec = decompose(star_example)
    assert dec.gammas == (1,)
    assert dec.level_set(1) == frozenset(STAR_EXAMPLE_POINTS)


def test_identity_levels():
    dec = decompose(identity_fn(3))
    assert dec.levels == ((1, frozenset({(1,)})), (2, frozenset({(2,)})))


def test_single_level_carrier_is_level_set(star_example):
    rep = max_representation(decompose(star_example))
    assert rep.carriers == ((1, frozenset(STAR_EXAMPLE_POINTS)),)


def test_identity_carriers():
    rep = max_representation(decompose(identity_fn(3)))
    assert rep.carrier(1) == frozenset({(1,), (2,)})
    assert rep.carrier(2) == frozenset({(2,)})


def test_max_of_two_variables_carriers():
    f = KFunction.from_callable(3, 2, lambda p: max(p))
    rep = max_representation(decompose(f))
    assert len(rep.carrier(1)) == 8
    assert len(rep.carrier(2)) == 5
    assert rep.carrier(2) == frozenset(p for p in f.points() if max(p) == 2)


@given(kfunctions())
def test_round_trip(f):
    # f is the pointwise max of its slices
    values = {}
    for g, pts in decompose(f).levels:
        for p in pts:
            values[p] = max(values.get(p, 0), g)
    assert functions_equal(KFunction.from_map(f.k, f.n, values), f)


@given(kfunctions())
def test_levels_partition_the_support(f):
    dec = decompose(f)
    union = set()
    for g, pts in dec.levels:
        assert pts, "empty levels must be omitted"
        assert not union & pts
        union |= pts
    assert union == nonzero_points(f)
    assert list(dec.gammas) == sorted(dec.gammas)


@given(kfunctions())
def test_carriers_nest_downward(f):
    rep = max_representation(decompose(f))
    for (_, outer), (_, inner) in zip(rep.carriers, rep.carriers[1:]):
        assert inner <= outer


@given(kfunctions())
def test_carrier_difference_is_the_level_set(f):
    dec = decompose(f)
    rep = max_representation(dec)
    for i, (g, carrier) in enumerate(rep.carriers):
        higher = rep.carriers[i + 1][1] if i + 1 < len(rep.carriers) else frozenset()
        assert carrier - higher == dec.level_set(g)
