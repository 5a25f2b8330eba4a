import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdnf import (
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    PartialKFunction,
    ValueOrder,
    print_dnf,
    reduced_dnf,
)
from kdnf.core import UNDEFINED, _Record, decode_point, encode_point

from .conftest import STAR_EXAMPLE_POINTS, conjunction_and_point, dnf_and_point, ec
from .instances import dnf_function, orthogonal


class TestJValue:
    # the characteristic formula J_S(x), k-1 when x is in S and 0 otherwise,
    # is the one-factor conjunction of level k-1
    def test_membership_fires(self):
        assert ec(3, 2, [1, 2]).value_at((2,)) == 2

    def test_non_membership(self):
        assert ec(3, 2, [1, 2]).value_at((0,)) == 0

    def test_full_set_always_fires(self):
        assert ec(5, 4, None).value_at((3,)) == 4


class TestConjunctionEval:
    def test_inside_interval(self):
        term = ec(3, 1, None, [1], [1])
        assert term.value_at((0, 1, 1)) == 1

    def test_factor_membership_fails(self):
        term = ec(3, 1, None, [1], [1])
        assert term.value_at((0, 0, 1)) == 0

    def test_three_factor_term(self):
        term = ec(3, 1, [1], [2], [1, 2])
        assert term.value_at((1, 2, 2)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ec(3, 1, [1], [2]).value_at((1,))

    def test_negative_coordinate_is_outside_every_interval(self):
        assert ec(3, 2, None).value_at((-1,)) == 0
        assert not Interval(3, (7, 7)).contains_point((1, -1))

    @given(conjunction_and_point())
    def test_matches_min_formula(self, arg):
        # definition as a literal min over the elementary formulas and gamma
        term, p = arg
        expected = min(
            min(term.k - 1 if f >> x & 1 else 0 for f, x in zip(term.interval.factors, p)),
            term.gamma,
        )
        assert term.value_at(p) == expected

    @given(conjunction_and_point())
    def test_value_is_zero_or_gamma_iff_member(self, arg):
        term, p = arg
        v = term.value_at(p)
        assert v in (0, term.gamma)
        assert (v == term.gamma) == term.interval.contains_point(p)


class TestDnfEval:
    def test_covered_point(self, handwritten_pair):
        assert handwritten_pair.value_at((1, 2, 2)) == 1

    def test_uncovered_point(self, handwritten_pair):
        assert handwritten_pair.value_at((2, 2, 2)) == 0

    def test_empty_dnf_is_zero(self):
        d = Dnf(3, 2)
        assert all(d.value_at(p) == 0 for p in itertools.product(range(3), repeat=2))

    def test_dimension_mismatch(self, handwritten_pair):
        with pytest.raises(ValueError):
            handwritten_pair.value_at((1, 2))

    @given(dnf_and_point(), st.data())
    def test_monotone_under_term_addition(self, arg, data):
        from .conftest import conjunctions

        d, p = arg
        extra = data.draw(conjunctions(d.k, d.n))
        grown = Dnf(d.k, d.n, d.terms + (extra,))
        assert grown.value_at(p) >= d.value_at(p)


class TestRank:
    def test_full_factors_rank_zero(self):
        assert ec(3, 1, None, None, None).rank == 0

    def test_mixed_factors(self):
        assert ec(3, 1, [1], [2], [1, 2]).rank == 5

    def test_all_singletons(self):
        assert ec(3, 1, [1], [0], [2]).rank == 6

    @given(conjunction_and_point())
    def test_bounds_and_extremes(self, arg):
        term, _ = arg
        k, n = term.k, term.n
        assert 0 <= term.rank <= n * (k - 1)
        full = all(f == (1 << k) - 1 for f in term.interval.factors)
        singles = all(f.bit_count() == 1 for f in term.interval.factors)
        assert (term.rank == 0) == full
        assert (term.rank == n * (k - 1)) == singles


class TestIntervalPoints:
    def test_singleton_product(self):
        iv = Interval.from_values(3, [1], [1], [1])
        assert iv.points() == [(1, 1, 1)]

    def test_free_first_axis(self):
        iv = Interval.from_values(3, [0, 1, 2], [1], [1])
        assert set(iv.points()) == {(0, 1, 1), (1, 1, 1), (2, 1, 1)}

    def test_two_by_one(self):
        iv = Interval.from_values(3, [1], [2], [1, 2])
        assert set(iv.points()) == {(1, 2, 1), (1, 2, 2)}

    @given(conjunction_and_point())
    def test_size_is_factor_product(self, arg):
        term, _ = arg
        pts = term.interval.points()
        assert len(pts) == len(set(pts)) == math.prod(f.bit_count() for f in term.interval.factors)


class TestOrthogonal:
    def test_disjoint_singletons(self):
        a, b = ec(3, 1, [1]), ec(3, 1, [2])
        assert orthogonal(a, b)

    def test_handwritten_terms_are_orthogonal(self, handwritten_pair):
        a, b = handwritten_pair.terms
        assert orthogonal(a, b)

    def test_never_orthogonal_to_itself(self):
        a = ec(3, 2, [0, 1], [2])
        assert not orthogonal(a, a)

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_matches_point_disjointness_exhaustively(self, k, n):
        # every pair of intervals: the factor-wise test == point-set disjointness
        masks = range(1, 1 << k)
        ivs = [
            Interval(k, combo)
            for combo in itertools.product(masks, repeat=n)
        ]
        point_sets = [frozenset(u.points()) for u in ivs]
        for u, pu in zip(ivs, point_sets):
            a = ElementaryConjunction(u, 1)
            for v, pv in zip(ivs, point_sets):
                expected = pu.isdisjoint(pv)
                assert orthogonal(a, ElementaryConjunction(v, 1)) == expected


class TestFunctionsEqual:
    def test_reflexive(self, star_example):
        # equality compares k, n and the table, not identity
        assert KFunction(star_example.k, star_example.n, bytearray(star_example.table)) == star_example

    def test_handwritten_pair_realizes_example(self, star_example, handwritten_pair):
        assert dnf_function(handwritten_pair) == star_example

    def test_alternative_pair_differs(self, handwritten_pair):
        # swapping the second term for x1=1, x2 in {1,2}, x3=1 loses (1,2,2)
        alt = Dnf(3, 3, (handwritten_pair.terms[0], ec(3, 1, [1], [1, 2], [1])))
        f, g = dnf_function(handwritten_pair), dnf_function(alt)
        assert f != g
        assert f.value((1, 2, 2)) == 1 and g.value((1, 2, 2)) == 0

    def test_shape_mismatch(self):
        # equal tables under different shapes are different functions
        assert KFunction(2, 2, bytes(4)) != KFunction(4, 1, bytes(4))


class TestValidation:
    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            ec(3, 0, [1])

    def test_gamma_above_alphabet_rejected(self):
        with pytest.raises(ValueError):
            ec(3, 3, [1])

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, (0,))

    @pytest.mark.parametrize("factors", [(-1, 2), (2, -1), (1 << 3,), (2, 0b1001)])
    def test_factor_mask_outside_the_alphabet_rejected(self, factors):
        with pytest.raises(ValueError):
            Interval(3, factors)

    @pytest.mark.parametrize("values", [[-1], [0, -2], [3]])
    def test_from_values_rejects_values_outside_the_alphabet(self, values):
        with pytest.raises(ValueError):
            Interval.from_values(3, [1], values)

    def test_alphabet_bounds(self):
        with pytest.raises(ValueError):
            Interval(1, (1, 1))
        with pytest.raises(ValueError):
            Interval(17, (1, 1))

    def test_table_entries_validated(self):
        with pytest.raises(ValueError):
            KFunction(2, 1, [0, 2])

    def test_table_length_validated(self):
        with pytest.raises(ValueError):
            KFunction(2, 2, [0, 1])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Interval(3, ()), "interval needs at least one factor"),
            (lambda: Interval(3, (1, 2)).contains(Interval(3, (1,))), "interval shape mismatch"),
            (lambda: Interval(3, (1,)).contains(Interval(2, (1,))), "interval shape mismatch"),
            (lambda: KFunction.from_map(3, 2, {}, default=3), "default value 3 outside the alphabet"),
        ],
        ids=["no factor", "contains across dimensions", "contains across alphabets", "from_map default >= k"],
    )
    def test_malformed_arguments_rejected(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_term_shape_must_match_dnf(self):
        with pytest.raises(ValueError):
            Dnf(3, 2, (ec(3, 1, [1]),))


class TestPointLookup:
    @pytest.mark.parametrize("p", [(1,), (0, 0, 1), (0, 1, 0, 0), (0, 3), (-1, 1)])
    def test_total_lookup_rejects_points_off_the_lattice(self, p):
        f = KFunction.from_map(3, 2, {(0, 1): 2})
        with pytest.raises(ValueError):
            f.value(p)

    @pytest.mark.parametrize("p", [(7,), (-1,), (), (0, 0)])
    def test_partial_lookup_rejects_points_off_the_lattice(self, p):
        func = PartialKFunction.from_map(3, 1, {(0,): 0})
        with pytest.raises(ValueError):
            func.value(p)

    def test_lookups_on_the_lattice(self):
        assert KFunction.from_map(3, 2, {(0, 1): 2}).value((0, 1)) == 2
        assert PartialKFunction.from_map(3, 2, {(2, 1): 1}).value([2, 1]) == 1


class TestPartialKFunction:
    ASSIGNED = {(2, 0): 1, (0, 2): 0, (1, 1): 2, (0, 0): 2}

    def test_equality_and_hash_ignore_assignment_order(self):
        forward = PartialKFunction.from_map(3, 2, self.ASSIGNED)
        backward = PartialKFunction.from_map(3, 2, dict(reversed(self.ASSIGNED.items())))
        assert forward == backward and hash(forward) == hash(backward)
        assert forward != PartialKFunction.from_map(3, 2, {**self.ASSIGNED, (2, 2): 0})

    def test_from_map_fills_the_table_in_point_index_order(self):
        func = PartialKFunction.from_map(3, 2, self.ASSIGNED)
        assert func == PartialKFunction(3, 2, bytes([2, UNDEFINED, 0, UNDEFINED, 2, UNDEFINED, 1, UNDEFINED, UNDEFINED]))

    @pytest.mark.parametrize("table, message", [
        (b"\x00\x03\xff", "outside the alphabet and not UNDEFINED"),
        (b"\x00\xfe\xff", "outside the alphabet and not UNDEFINED"),
        (b"\x00\xff", "table length 2"),
    ])
    def test_table_entries_validated(self, table, message):
        with pytest.raises(ValueError, match=message):
            PartialKFunction(3, 1, table)
        with pytest.raises(ValueError, match="value 3 outside the alphabet"):
            PartialKFunction.from_map(3, 1, {(1,): 3})

    def test_pickle_and_copy_round_trip_through_the_constructor(self):
        func = PartialKFunction.from_map(3, 2, self.ASSIGNED)
        assert PartialKFunction.__reduce__ is _Record.__reduce__
        assert func.__reduce__() == (PartialKFunction, (3, 2, func.table))
        for clone in (pickle.loads(pickle.dumps(func)), copy.copy(func), copy.deepcopy(func)):
            assert type(clone) is PartialKFunction and clone == func and clone.table == func.table
            assert clone.value((0, 1)) is None and clone.value((0, 2)) == 0

    def test_fields_cannot_be_assigned(self):
        func = PartialKFunction.from_map(2, 2, {(0, 0): 1})
        before = hash(func)
        for name, value in (("k", 7), ("table", bytes(4))):
            with pytest.raises(AttributeError):
                setattr(func, name, value)
        assert (func.k, func.table, hash(func)) == (2, b"\x01\xff\xff\xff", before)

    def test_repr_shows_the_defined_count(self):
        assert repr(PartialKFunction.from_map(3, 2, self.ASSIGNED)) == "PartialKFunction(k=3, n=2, defined=4)"
        assert repr(PartialKFunction.from_map(2, 3, {})) == "PartialKFunction(k=2, n=3, defined=0)"

    def test_undefined_is_none_and_known_zero_is_zero(self):
        func = PartialKFunction.from_map(3, 2, self.ASSIGNED)
        assert func.value((0, 1)) is None
        assert func.value((0, 2)) == 0
        assert [func.value(p) for p in itertools.product(range(3), repeat=2)].count(None) == 5


class TestEncoding:
    def test_first_coordinate_most_significant(self):
        assert encode_point((1, 0, 0), 3) == 9
        assert encode_point((0, 0, 1), 3) == 1

    @given(st.integers(2, 4), st.integers(1, 4))
    def test_round_trip(self, k, n):
        for idx in range(min(k**n, 64)):
            assert encode_point(decode_point(idx, k, n), k) == idx

    def test_example_support(self, star_example):
        nonzero = {decode_point(i, 3, 3) for i, v in enumerate(star_example.table) if v}
        assert nonzero == set(STAR_EXAMPLE_POINTS)


class TestTableStorage:
    """Both function records keep their table as bytes of their own."""

    @pytest.mark.parametrize("cls", [KFunction, PartialKFunction])
    def test_a_bytearray_is_copied_into_bytes(self, cls):
        source = bytearray([0, 1, 1, 0])
        func = cls(2, 2, source)
        before = hash(func)
        source[0] = 1
        assert type(func.table) is bytes and func.table == b"\x00\x01\x01\x00"
        assert hash(func) == before and func == cls(2, 2, b"\x00\x01\x01\x00")

    @pytest.mark.parametrize("cls", [KFunction, PartialKFunction])
    def test_a_list_is_stored_as_bytes(self, cls):
        func = cls(2, 2, [0, 1, 1, 0])
        assert type(func.table) is bytes
        assert print_dnf(reduced_dnf(func).dnf) == "J{0}(x1)*J{1}(x2)->1\nJ{1}(x1)*J{0}(x2)->1\n"

    def test_bytes_are_kept_as_they_are(self):
        table = bytes([0, 1, 1, 0])
        assert KFunction(2, 2, table).table is table
        assert PartialKFunction(2, 2, table).table is table

    @pytest.mark.parametrize("cls", [KFunction, PartialKFunction])
    @pytest.mark.parametrize("entry", [256, 1000, -1])
    def test_entries_that_are_not_bytes_rejected(self, cls, entry):
        with pytest.raises(ValueError):
            cls(2, 2, [0, 1, 1, entry])

    @pytest.mark.parametrize("cls", [KFunction, PartialKFunction])
    def test_an_int_is_not_a_table(self, cls):
        with pytest.raises(TypeError):
            cls(2, 2, 4)


SEQUENCE_FIELDS = [
    pytest.param(lambda seq: Interval(2, seq), "factors", [1, 2], id="Interval"),
    pytest.param(lambda seq: Dnf(2, 2, seq), "terms", [ec(2, 1, [1], [0]), ec(2, 1, [0], [1])], id="Dnf"),
    pytest.param(lambda seq: ValueOrder(2, seq), "geq", [1, 3], id="ValueOrder"),
]


class TestSequenceStorage:
    """Records keep a sequence field as a tuple of their own, as the function
    records keep their table as bytes."""

    @pytest.mark.parametrize("build,field,items", SEQUENCE_FIELDS)
    def test_a_list_is_stored_as_a_tuple(self, build, field, items):
        source = list(items)
        record = build(source)
        before = hash(record)
        source.clear()
        assert type(getattr(record, field)) is tuple and getattr(record, field) == tuple(items)
        assert record == build(tuple(items)) and hash(record) == before

    @pytest.mark.parametrize("build,field,items", SEQUENCE_FIELDS)
    def test_a_tuple_is_kept_as_it_is(self, build, field, items):
        seq = tuple(items)
        assert getattr(build(seq), field) is seq

    def test_a_dnf_does_not_grow_after_construction(self):
        d = Dnf(2, 2, [ec(2, 1, [1], [0])])
        with pytest.raises(AttributeError):
            d.terms.append(ec(2, 1, [0], [1]))
        assert len(d) == 1
