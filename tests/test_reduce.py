import itertools
import random

import pytest
from hypothesis import given, settings

import kdnf.reduce
from kdnf import (
    CapacityError,
    Interval,
    KFunction,
    PartialKFunction,
    maximal_intervals,
    reduced_dnf,
    reduced_dnf_partial,
)
from kdnf.core import UNDEFINED, _Budget
from kdnf.oracle import oracle_maximal_intervals

from .conftest import STAR_EXAMPLE_POINTS, kfunctions
from .instances import carrier_of, dnf_function, points_in, star_up_closure


def iv(k, *factors):
    return Interval.from_values(k, *factors)


EXAMPLE_CARRIER = carrier_of(3, 3, STAR_EXAMPLE_POINTS)


class TestMaximalIntervals:
    def test_full_lattice_single_interval(self):
        full = carrier_of(2, 3, itertools.product(range(2), repeat=3))
        assert maximal_intervals(full) == [Interval(2, (3, 3, 3))]

    def test_star_example_carrier(self):
        got = maximal_intervals(EXAMPLE_CARRIER)
        expected = {
            iv(3, [0, 1, 2], [1], [1]).factors,
            iv(3, [1], [2], [1, 2]).factors,
            iv(3, [1], [1, 2], [1]).factors,
        }
        assert {i.factors for i in got} == expected

    def test_single_point_carrier(self):
        got = maximal_intervals(carrier_of(3, 2, [(1, 2)]))
        assert got == [iv(3, [1], [2])]

    def test_empty_carrier(self):
        assert maximal_intervals(carrier_of(3, 2, [])) == []

    def test_oracle_equivalence_exhaustive_k2_n2(self):
        pts = list(itertools.product(range(2), repeat=2))
        for bits in range(1 << 4):
            c = carrier_of(2, 2, [p for i, p in enumerate(pts) if bits >> i & 1])
            assert maximal_intervals(c) == oracle_maximal_intervals(c)

    def test_oracle_equivalence_random_k3(self):
        assert_random_carriers_match_oracle(3, 2, 60, seed=20240901)

    # k=4 and k=5 carriers exercise intersections of three or more cofactors
    @pytest.mark.parametrize("k, n, count", [(3, 3, 40), (4, 2, 40), (5, 2, 20)])
    def test_oracle_equivalence_random_dense(self, k, n, count):
        assert_random_carriers_match_oracle(k, n, count, seed=k * 10 + n, dense=True)


def assert_random_carriers_match_oracle(k, n, count, seed, dense=False):
    """Seeded random carriers; dense ones keep 60-100% of the lattice."""
    rng = random.Random(seed)
    pts = list(itertools.product(range(k), repeat=n))
    low = (len(pts) * 3) // 5 if dense else 0
    for _ in range(count):
        c = carrier_of(k, n, rng.sample(pts, rng.randint(low, len(pts))))
        assert maximal_intervals(c) == oracle_maximal_intervals(c)


class TestIsMaximalIn:
    def test_full_in_full(self):
        full = carrier_of(3, 2, itertools.product(range(3), repeat=2))
        assert maximal_intervals(full) == [Interval(3, (7, 7))]

    def test_extendable_singleton(self):
        single = iv(3, [1], [1], [1])
        found = maximal_intervals(EXAMPLE_CARRIER)
        assert single not in found
        assert any(m.contains(single) for m in found)

    def test_handwritten_term_is_maximal(self):
        assert iv(3, [1], [2], [1, 2]) in maximal_intervals(EXAMPLE_CARRIER)


class TestReducedDnf:
    def test_constant_zero(self):
        assert reduced_dnf(KFunction(3, 2, bytes(3**2))).dnf.terms == ()

    def test_star_example_terms(self, star_example):
        pool = reduced_dnf(star_example)
        keys = {t.interval.factors for t in pool.dnf.terms}
        assert keys == {i.factors for i in maximal_intervals(EXAMPLE_CARRIER)}
        assert all(t.gamma == 1 for t in pool.dnf.terms)
        # the two handwritten terms are among them
        assert iv(3, [0, 1, 2], [1], [1]).factors in keys
        assert iv(3, [1], [2], [1, 2]).factors in keys

    def test_identity_function(self):
        pool = reduced_dnf(KFunction(3, 1, range(3)))
        rendered = [(t.gamma, t.interval.factors) for t in pool.dnf.terms]
        assert rendered == [(1, (0b110,)), (2, (0b100,))]

    def test_realization_exhaustive_k2(self):
        for n in (1, 2, 3):
            for table in itertools.product(range(2), repeat=2**n):
                f = KFunction(2, n, table)
                assert dnf_function(reduced_dnf(f).dnf) == f

    def test_realization_exhaustive_k3_n1(self):
        for table in itertools.product(range(3), repeat=3):
            f = KFunction(3, 1, table)
            assert dnf_function(reduced_dnf(f).dnf) == f

    def test_realization_random_k3_n3(self):
        rng = random.Random(513)
        for _ in range(500):
            f = KFunction(3, 3, [rng.randrange(3) for _ in range(27)])
            assert dnf_function(reduced_dnf(f).dnf) == f

    @given(kfunctions())
    def test_terms_are_maximal_and_unnested(self, f):
        pool = reduced_dnf(f)
        for lt in pool.levels:
            maximal = oracle_maximal_intervals(lt.carrier)
            for t in lt.terms:
                assert t.interval in maximal
            for a in lt.terms:
                for b in lt.terms:
                    if a is not b:
                        assert not a.interval.contains(b.interval)

    @given(kfunctions())
    def test_every_level_point_is_covered_at_its_level(self, f):
        pool = reduced_dnf(f)
        for lt in pool.levels:
            for p in points_in(lt.level_bits, f.k, f.n):
                assert any(t.interval.contains_point(p) for t in lt.terms)

    @given(kfunctions())
    def test_terms_stay_inside_their_carrier(self, f):
        pool = reduced_dnf(f)
        for lt in pool.levels:
            inside = lt.carrier.points
            for t in lt.terms:
                assert set(t.interval.points()) <= inside


class TestReducedDnfPartial:
    def test_single_point_no_forbidden(self):
        func = PartialKFunction.from_map(3, 2, {(1, 2): 1})
        pool = reduced_dnf_partial(func)
        assert [t.interval for t in pool.dnf.terms] == [Interval(3, (7, 7))]
        assert pool.dnf.terms[0].gamma == 1

    def test_everything_else_zero(self):
        zero = {p: 0 for p in itertools.product(range(3), repeat=2) if p != (1, 2)}
        func = PartialKFunction.from_map(3, 2, {**zero, (1, 2): 1})
        pool = reduced_dnf_partial(func)
        assert [t.interval for t in pool.dnf.terms] == [iv(3, [1], [2])]

    def test_undefined_point_acts_as_dont_care(self):
        func = PartialKFunction.from_map(3, 1, {(0,): 0, (2,): 1})
        pool = reduced_dnf_partial(func)
        assert [(t.gamma, t.interval.factors) for t in pool.dnf.terms] == [(1, (0b110,))]

    def test_agrees_with_function_on_defined_points(self):
        rng = random.Random(99)
        for _ in range(50):
            pts = list(itertools.product(range(3), repeat=2))
            defined = {
                p: rng.randrange(3) for p in rng.sample(pts, rng.randint(1, len(pts)))
            }
            func = PartialKFunction.from_map(3, 2, defined)
            d = reduced_dnf_partial(func).dnf
            for p, v in defined.items():
                assert d.value_at(p) == v

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (3, 3), (4, 2)])
    def test_terms_match_oracle_maximal_intervals(self, k, n):
        rng = random.Random(k * 100 + n)
        pts = list(itertools.product(range(k), repeat=n))
        for _ in range(25):
            defined = {p: rng.randrange(k) for p in rng.sample(pts, rng.randint(1, len(pts)))}
            pool = reduced_dnf_partial(PartialKFunction.from_map(k, n, defined))
            for lt in pool.levels:
                below = {p for p, v in defined.items() if v < lt.gamma}
                c = carrier_of(k, n, set(pts) - below)
                assert lt.carrier == c
                level = points_in(lt.level_bits, k, n)
                expected = [
                    iv for iv in oracle_maximal_intervals(c)
                    if any(iv.contains_point(p) for p in level)
                ]
                assert [t.interval for t in lt.terms] == expected
                assert all(t.gamma == lt.gamma for t in lt.terms)

    @given(kfunctions())
    def test_total_consistency(self, f):
        as_partial = PartialKFunction(f.k, f.n, f.table)
        assert reduced_dnf_partial(as_partial).dnf == reduced_dnf(as_partial).dnf == reduced_dnf(f).dnf


@settings(max_examples=25)
@given(kfunctions(max_k=3, max_n=2))
def test_fast_path_matches_oracle_on_function_carriers(f):
    from kdnf.decompose import decompose, max_representation

    for _, pts in max_representation(decompose(f)).carriers:
        c = carrier_of(f.k, f.n, pts)
        assert maximal_intervals(c) == oracle_maximal_intervals(c)


class TestReduceWorkCap:
    def test_cap_raises_capacity_error_naming_the_stage(self, monkeypatch):
        monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", 20)
        rng = random.Random(7)
        f = KFunction(3, 3, [rng.randrange(3) for _ in range(27)])
        with pytest.raises(CapacityError, match="reduce stage") as info:
            reduced_dnf(f)
        # distinct from the minimization node-cap message
        assert "search exceeded" not in str(info.value)

    def test_cap_applies_to_maximal_intervals(self, monkeypatch):
        monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", 5)
        with pytest.raises(CapacityError, match="reduce stage"):
            maximal_intervals(EXAMPLE_CARRIER)

    def test_cli_reports_the_reduce_cap_as_capacity_exit(self, monkeypatch, tmp_path, capsys):
        from kdnf.cli import main

        monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", 5)
        path = tmp_path / "f.kfn"
        path.write_text("k=3 n=3 mode=total\n0 1 1 -> 1\n1 1 1 -> 2\n1 2 2 -> 1\n")
        assert main(["reduce", str(path)]) == 3
        assert "reduce stage" in capsys.readouterr().err


# (k, n, seed) -> (work units the call uses, terms out).  The first three are
# sieved whole (see kdnf.reduce._sieve) and k=2 n=12 below its two top
# splits; (5, 3, 1) runs the splitting recursion alone and keeps the figure
# it had before the sieve came in
REDUCE_UNITS = {
    (2, 10, 0): (671, 573),
    (3, 5, 0): (342, 226),
    (4, 4, 0): (794, 430),
    (2, 12, 3): (30116, 2930),
    (5, 3, 1): (2635, 193),
}


def _random_table(k, n, seed):
    rng = random.Random(f"s4:{k}:{n}:{seed}")
    return KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])


@pytest.mark.parametrize("k,n,s", sorted(REDUCE_UNITS))
def test_reduce_work_units_are_pinned(k, n, s, monkeypatch):
    units, terms = REDUCE_UNITS[k, n, s]
    f = _random_table(k, n, s)
    monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", units)
    assert len(reduced_dnf(f).dnf) == terms
    monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", units - 1)
    with pytest.raises(CapacityError, match="reduce stage"):
        reduced_dnf(f)


@pytest.mark.parametrize("k,n,table_seed", [(2, 12, "s4:2:12:3"), (3, 7, "s4:3:7:0"), (4, 4, "s4:4:4:0")])
def test_emitted_bits_are_the_terms_maximal_intervals(k, n, table_seed):
    # carriers with blocks of 2048 and 729 points at the top, so an emitted
    # bitset's copies sit far apart, and one that is sieved whole
    from kdnf.reduce import _interval_bits

    rng = random.Random(table_seed)
    f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
    for lt in reduced_dnf(f).levels:
        for t, bits in zip(lt.terms, lt.term_bits):
            masks = t.interval.factors
            assert bits == _interval_bits(k, masks)
            assert bits & lt.level_bits and not bits & ~lt.carrier_bits
            for j, mask in enumerate(masks):
                for v in range(k):
                    if mask >> v & 1:
                        continue
                    wider = masks[:j] + (mask | 1 << v,) + masks[j + 1 :]
                    assert _interval_bits(k, wider) & ~lt.carrier_bits, "a wider interval fits"


@pytest.mark.parametrize("k,n,seed", [(2, 5, 0), (3, 3, 1), (5, 2, 2), (16, 2, 3)])
def test_bits_where_matches_a_per_index_reference(k, n, seed):
    from kdnf.reduce import _bits_where

    rng = random.Random(f"bits-where:{k}:{n}:{seed}")
    table = bytes(rng.choice([*range(k), UNDEFINED]) for _ in range(k**n))
    bounds = [(g, h) for g in range(k) for h in (g, g + 1, k, 256)] + [(k, 256), (0, 256)]
    for lo, hi in bounds:
        expected = sum(1 << i for i, v in enumerate(table) if lo <= v < hi)
        assert _bits_where(table, lo, hi) == expected, (lo, hi)


def test_set_bit_scans_agree():
    from kdnf.reduce import _peeled_bits, _set_bits, _text_bits

    rng = random.Random("set-bits")
    ints = [0, 1, 1 << 16806, (1 << 300) - 1]
    for width in (8, 64, 1000, 16807):
        for count in (1, 2, 127, 128, width // 2):
            ints.append(sum(1 << i for i in rng.sample(range(width), min(count, width))))
    for bits in ints:
        expected = [i for i in range(bits.bit_length()) if bits >> i & 1]
        assert _peeled_bits(bits) == _text_bits(bits) == _set_bits(bits) == expected


@pytest.mark.parametrize("k,n,seed,terms", [(6, 4, 0, 10069), (8, 3, 0, 4460), (2, 14, 0, 14373)])
def test_reduce_answers_under_the_default_cap(k, n, seed, terms):
    assert len(reduced_dnf(_random_table(k, n, seed)).dnf) == terms


@pytest.mark.parametrize("k,n,seed", [(2, 16, 0), (4, 7, 0)])
def test_reduce_refuses_past_the_default_cap(k, n, seed):
    with pytest.raises(CapacityError, match="reduce stage"):
        reduced_dnf(_random_table(k, n, seed))


def _splitting_maximal(k, bits, m, memo):
    """Maximal intervals by cofactor splitting down to one variable, without
    the sieve or the work cap: the reference for kdnf.reduce._maximal."""
    key = (bits, m)
    if key not in memo:
        block = k ** (m - 1)
        found = []
        if m == 1:
            found = [(bits, (bits,))] if bits else []
        else:
            full = (1 << block) - 1
            cofactors = [bits >> v * block & full for v in range(k)]
            base = {c for c in cofactors if c}
            seen, frontier = set(), base
            while frontier:
                seen |= frontier
                frontier = {x & c for x in frontier for c in base} - seen - {0}
            for x in seen:
                own = sum(1 << v for v, c in enumerate(cofactors) if not x & ~c)
                outside = [full ^ c for c in cofactors if x & ~c]
                for sub, masks in _splitting_maximal(k, x, m - 1, memo):
                    if all(sub & o for o in outside):
                        spread = sum(sub << v * block for v in range(k) if own >> v & 1)
                        found.append((spread, (own,) + masks))
        memo[key] = found
    return memo[key]


def _shaped_table(kind, k, n, seed):
    """A table in point-index order: uniform random values, a partial table
    (a third UNDEFINED), the max of up-boxes over random corners (chain
    order) or the max of star-up-closed sets (star order)."""
    rng = random.Random(f"sieve:{kind}:{k}:{n}:{seed}")
    pts = list(itertools.product(range(k), repeat=n))
    if kind == "random":
        return bytes(rng.randrange(k) for _ in pts)
    if kind == "partial":
        return bytes(UNDEFINED if rng.random() < 1 / 3 else rng.randrange(k) for _ in pts)
    if kind == "chain":
        corners = [(rng.choice(pts), rng.randrange(1, k)) for _ in range(4)]
        return bytes(
            max((g for a, g in corners if all(x >= y for x, y in zip(p, a))), default=0) for p in pts
        )
    levels = [(star_up_closure(k, n, rng.sample(pts, 3)), rng.randrange(1, k)) for _ in range(3)]
    return bytes(max((g for up, g in levels if p in up), default=0) for p in pts)


# whole-carrier sieving (k=2 n<=10, k=3 n<=5, k=4 n<=4), splitting down to the
# sieve (k=2 n=11, 12, k=3 n=6, 7, k=4 n=5) and the untouched path (k=5)
SIEVE_SHAPES = [(2, 3), (2, 10), (2, 11), (2, 12), (3, 2), (3, 5), (3, 6), (3, 7),
                (4, 2), (4, 4), (4, 5), (5, 3)]


@pytest.mark.parametrize("kind", ["random", "partial", "chain", "star"])
@pytest.mark.parametrize("k,n", SIEVE_SHAPES)
def test_maximal_matches_the_splitting_recursion(kind, k, n):
    from kdnf.reduce import _bits_where, _maximal

    for seed in range(2):
        table = _shaped_table(kind, k, n, seed)
        memo, reference = {}, {}
        for gamma in sorted(set(table) - {0, UNDEFINED}):
            carrier = _bits_where(table, gamma, 256)
            got = _maximal(k, carrier, n, memo, _Budget(kdnf.reduce.REDUCE_CAP, ""))
            want = _splitting_maximal(k, carrier, n, reference)
            assert len(got) == len(set(got))
            assert set(got) == set(want), (kind, seed, gamma)
