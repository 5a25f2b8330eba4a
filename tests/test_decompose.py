from hypothesis import given

from kdnf import KFunction, all_points, decompose, max_representation

from .conftest import STAR_EXAMPLE_POINTS, kfunctions
from .instances import nonzero_points


def identity_fn(k: int) -> KFunction:
    return KFunction(k, 1, range(k))


def test_constant_zero_has_no_levels():
    assert decompose(KFunction(3, 2, bytes(3**2))).levels == ()


def test_star_example_single_level(star_example):
    dec = decompose(star_example)
    assert dec.levels == ((1, frozenset(STAR_EXAMPLE_POINTS)),)


def test_identity_levels():
    dec = decompose(identity_fn(3))
    assert dec.levels == ((1, frozenset({(1,)})), (2, frozenset({(2,)})))


def test_single_level_carrier_is_level_set(star_example):
    rep = max_representation(decompose(star_example))
    assert rep.carriers == ((1, frozenset(STAR_EXAMPLE_POINTS)),)


def test_identity_carriers():
    rep = max_representation(decompose(identity_fn(3)))
    assert rep.carriers == ((1, frozenset({(1,), (2,)})), (2, frozenset({(2,)})))


def test_max_of_two_variables_carriers():
    f = KFunction(3, 2, [max(p) for p in all_points(3, 2)])
    (g1, carrier1), (g2, carrier2) = max_representation(decompose(f)).carriers
    assert (g1, g2) == (1, 2)
    assert len(carrier1) == 8
    assert len(carrier2) == 5
    assert carrier2 == frozenset(p for p in all_points(3, 2) if max(p) == 2)


@given(kfunctions())
def test_round_trip(f):
    # f is the pointwise max of its slices
    values = {}
    for g, pts in decompose(f).levels:
        for p in pts:
            values[p] = max(values.get(p, 0), g)
    assert KFunction.from_map(f.k, f.n, values) == f


@given(kfunctions())
def test_levels_partition_the_support(f):
    dec = decompose(f)
    union = set()
    for g, pts in dec.levels:
        assert pts, "empty levels must be omitted"
        assert not union & pts
        union |= pts
    assert union == nonzero_points(f)
    gammas = [g for g, _ in dec.levels]
    assert gammas == sorted(gammas)


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
        assert carrier - higher == dict(dec.levels)[g]
