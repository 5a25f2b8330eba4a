import itertools
import math
import random
from itertools import islice

import mpmath
import pytest

from kdnf import (
    CapacityError,
    KFunction,
    PartialKFunction,
    ValueOrder,
    all_points,
    chain_shape_report,
    count_monotone_exact,
    is_monotone,
    iter_monotone_functions,
    monotone_witness,
    psi_estimate,
    reduced_dnf,
    star_order,
    total_order,
)
from kdnf.core import decode_point, encode_point
from kdnf.monotone import COUNT_CAP, _is_upper_interval, _linear_extension
from kdnf.oracle import oracle_is_monotone


class TestOrders:
    def test_total_is_the_chain(self):
        order = total_order(3)
        assert order.leq(0, 2) and order.leq(1, 2)
        assert not order.leq(2, 1)
        assert order.cover_pairs() == ((0, 1), (1, 2))

    def test_star_shape(self):
        order = star_order(3)
        assert order.leq(0, 1) and order.leq(0, 2)
        assert not order.leq(1, 2) and not order.leq(2, 1)
        assert not order.leq(1, 0)
        assert order.cover_pairs() == ((0, 1), (0, 2))

    def test_star_equals_total_for_k2(self):
        assert star_order(2) == total_order(2)

    def test_boolean_order(self):
        order = total_order(2)
        assert order.leq(0, 1) and not order.leq(1, 0)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ValueOrder.from_relations(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="not antisymmetric"):
            ValueOrder.from_relations(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_closure_of_relations_in_any_order(self):
        # the chain given top step first still closes to the full chain
        order = ValueOrder.from_relations(4, [(2, 3), (1, 2), (0, 1)])
        assert order == total_order(4)
        assert order.geq == (0b0001, 0b0011, 0b0111, 0b1111)
        assert ValueOrder.from_relations(3, [(2, 0)]).geq == (0b101, 0b010, 0b100)

    def test_relation_outside_alphabet(self):
        with pytest.raises(ValueError, match="outside the alphabet"):
            ValueOrder.from_relations(3, [(0, 3)])

    def test_point_comparison(self):
        order = star_order(3)
        assert order.point_leq((0, 1), (2, 1))
        assert not order.point_leq((1, 1), (2, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ValueOrder(2, (0b00, 0b11)), "order is not reflexive at 0"),
        (lambda: ValueOrder(3, (0b001, 0b011, 0b110)), "order is not transitively closed"),  # 0 <= 1 <= 2, not 0 <= 2
        (lambda: psi_estimate(0, 3), "dimension n=0 must be >= 1"),
    ],
    ids=["not reflexive", "not transitive", "psi at n=0"],
)
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestIsMonotone:
    def test_constant_functions(self):
        for order in (total_order(3), star_order(3)):
            assert is_monotone(KFunction(3, 2, bytes([2]) * 3**2), order)

    def test_max_is_chain_monotone(self):
        f = KFunction(3, 2, [max(p) for p in all_points(3, 2)])
        assert is_monotone(f, total_order(3))

    def test_witness_pairs_really_violate(self):
        order = total_order(3)
        f = KFunction.from_map(3, 1, {(0,): 1})  # 1 then 0: not monotone
        witness = monotone_witness(f, order)
        assert witness is not None
        p, q = witness
        assert order.point_leq(p, q)
        assert not order.leq(f.value(p), f.value(q))

    def test_star_example_verdict_matches_oracle(self, star_example):
        # recorded, not presumed: the fast check and the definitional check
        # must say the same thing about the worked example
        verdict = is_monotone(star_example, star_order(3))
        assert verdict == oracle_is_monotone(star_example, star_order(3))

    def test_covering_pairs_equal_all_pairs_exhaustive_k2(self):
        for n in (1, 2):
            for table in itertools.product(range(2), repeat=2**n):
                f = KFunction(2, n, table)
                assert is_monotone(f, total_order(2)) == oracle_is_monotone(
                    f, total_order(2)
                )

    def test_covering_pairs_equal_all_pairs_random_k3(self):
        rng = random.Random(5150)
        for _ in range(120):
            f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            for order in (total_order(3), star_order(3)):
                assert is_monotone(f, order) == oracle_is_monotone(f, order)


class TestChainShapeReport:
    def test_identity_function(self):
        report = chain_shape_report(KFunction(3, 1, range(3)))
        assert report.factors_upper
        assert report.dead_end_count == 1 and report.dead_end_equals_reduced
        rendered = [
            (t.gamma, t.interval.factors) for t in report.reduced.dnf.terms
        ]
        assert rendered == [(1, (0b110,)), (2, (0b100,))]
        assert report.core_points == ((1,), (2,))
        assert report.cores_exclusive

    def test_min_function(self):
        report = chain_shape_report(KFunction(3, 2, [min(p) for p in all_points(3, 2)]))
        assert report.factors_upper and report.dead_end_equals_reduced
        assert report.cores_exclusive

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_upper_interval_masks(self, k):
        # the bit test against the definition: values form [min, k-1]
        for mask in range(1, 1 << k):
            values = [v for v in range(k) if mask >> v & 1]
            assert _is_upper_interval(mask, k) == (values == list(range(values[0], k)))

    def test_constant_level(self):
        report = chain_shape_report(KFunction(3, 2, bytes([2]) * 3**2))
        assert len(report.reduced.dnf.terms) == 1
        assert report.reduced.dnf.terms[0].rank == 0
        assert report.dead_end_count == 1

    def test_refuses_non_monotone(self):
        f = KFunction.from_map(3, 1, {(0,): 1, (2,): 1})
        with pytest.raises(ValueError):
            chain_shape_report(f)


class TestPsiEstimate:
    def test_k3_n1_closed_form(self):
        est = psi_estimate(1, 3)
        assert abs(est.log2_psi - 9 / math.sqrt(4 * math.pi)) < 1e-12
        assert est.d == 2 and abs(est.big_d - 2 / 9) < 1e-15

    def test_k2_n1_closed_form(self):
        est = psi_estimate(1, 2)
        assert abs(est.log2_psi - 4 / math.sqrt(2 * math.pi)) < 1e-12

    def test_strictly_increasing_in_n(self):
        for k in (2, 3, 5):
            values = [psi_estimate(n, k).log2_psi for n in range(1, 21)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_high_precision_recomputation(self):
        mpmath.mp.dps = 50
        for k in range(2, 17):
            for n in (1, 2, 5, 9):
                est = psi_estimate(n, k)
                exact = mpmath.mpf(k) ** (n + 1) / (
                    mpmath.sqrt(2 * mpmath.pi * (k - 1)) * mpmath.sqrt(n)
                )
                assert abs(est.log2_psi - float(exact)) <= 1e-12 * float(exact)

    def test_parameters_for_all_alphabets(self):
        for k in range(2, 17):
            est = psi_estimate(3, k)
            assert est.d == 2
            assert est.big_d == (k - 1) / k**2


def brute_count(n: int, k: int, order) -> int:
    pts = list(itertools.product(range(k), repeat=n))
    count = 0
    for table in itertools.product(range(k), repeat=k**n):
        f = KFunction(k, n, table)
        if all(
            order.leq(f.value(p), f.value(q))
            for p in pts
            for q in pts
            if order.point_leq(p, q)
        ):
            count += 1
    return count


class TestCounting:
    def test_boolean_two_variables(self):
        assert count_monotone_exact(2, 2, total_order(2)) == 6
        assert brute_count(2, 2, total_order(2)) == 6

    def test_boolean_three_variables(self):
        assert count_monotone_exact(3, 2, total_order(2)) == 20
        assert brute_count(3, 2, total_order(2)) == 20

    def test_three_valued_chain(self):
        assert count_monotone_exact(1, 3, total_order(3)) == 10
        assert brute_count(1, 3, total_order(3)) == 10

    def test_boolean_four_variables(self):
        # 168 monotone Boolean functions of four variables
        assert count_monotone_exact(4, 2, total_order(2)) == 168

    def test_four_valued_chain_single_variable(self):
        # weakly increasing maps of a 4-chain into itself: C(7,3) = 35
        assert count_monotone_exact(1, 4, total_order(4)) == 35

    def test_star_count_at_least_chain_count(self):
        for n, k in ((1, 3), (2, 3), (1, 4)):
            star = count_monotone_exact(n, k, star_order(k))
            chain = count_monotone_exact(n, k, total_order(k))
            assert star >= chain

    def test_star_equals_total_for_k2(self):
        for n in (1, 2, 3):
            assert count_monotone_exact(n, 2, star_order(2)) == count_monotone_exact(
                n, 2, total_order(2)
            )

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            count_monotone_exact(3, 3, total_order(3))

    def test_enumerator_yields_exactly_the_monotone_functions(self):
        order = total_order(3)
        got = list(iter_monotone_functions(2, 3, order))
        assert len(got) == len(set(got)) == 175
        assert all(is_monotone(f, order) for f in got)

    def test_enumerator_star_order(self):
        order = star_order(3)
        got = list(iter_monotone_functions(1, 3, order))
        assert len(got) == 11
        assert all(oracle_is_monotone(f, order) for f in got)


class TestChainSweepShape:
    def test_every_chain_monotone_k3_n2(self):
        # reduced factors are upper intervals and the reduced DNF is the
        # unique dead-end; the full acceptance sweep also checks minimize
        for f in iter_monotone_functions(2, 3, total_order(3)):
            report = chain_shape_report(f)
            if reduced_dnf(f).dnf.terms:
                assert report.factors_upper
            assert report.dead_end_count == 1
            assert report.dead_end_equals_reduced
            assert report.cores_exclusive


# References: the per-point check and enumerator that the bitset witness and
# the index enumerator replaced, kept to pin their answers and their order.


def ref_monotone_witness(f, order):
    covers = order.cover_pairs()
    for p in all_points(f.k, f.n):
        fp = f.value(p)
        for i, x in enumerate(p):
            for low, high in covers:
                if x != low:
                    continue
                q = p[:i] + (high,) + p[i + 1 :]
                if not order.leq(fp, f.value(q)):
                    return (p, q)
    return None


def ref_linear_extension(k, n, order):
    depth = [0] * k
    covers = order.cover_pairs()
    changed = True
    while changed:
        changed = False
        for low, high in covers:
            if depth[high] < depth[low] + 1:
                depth[high] = depth[low] + 1
                changed = True
    pts = [decode_point(i, k, n) for i in range(k**n)]
    pts.sort(key=lambda p: (sum(depth[x] for x in p), p))
    return pts


def ref_iter_monotone_functions(n, k, order):
    ext = ref_linear_extension(k, n, order)
    position = {p: i for i, p in enumerate(ext)}
    covers = order.cover_pairs()
    preds = []
    for p in ext:
        below = []
        for i, x in enumerate(p):
            for low, high in covers:
                if x == high:
                    below.append(position[p[:i] + (low,) + p[i + 1 :]])
        preds.append(below)
    assigned = [0] * len(ext)

    def fill(i):
        if i == len(ext):
            yield KFunction.from_map(k, n, dict(zip(ext, assigned)))
            return
        for v in range(k):
            if all(order.leq(assigned[j], v) for j in preds[i]):
                assigned[i] = v
                yield from fill(i + 1)

    return fill(0)


def orders_for(k):
    """Chain, star and reversed chain; at k=3 also the order 2 < 0, whose
    cover pair runs from a higher value to a lower one."""
    out = [total_order(k), star_order(k), ValueOrder.from_relations(k, [(i + 1, i) for i in range(k - 1)])]
    if k == 3:
        out.append(ValueOrder.from_relations(3, [(2, 0)]))
    return out


def near_monotone(k, n, order, rng):
    """A table filled greedily along a linear extension, each point taking a
    random value above its covering predecessors (any value when none is),
    then zero to two random entries overwritten."""
    covers = order.cover_pairs()
    table = {}
    for p in ref_linear_extension(k, n, order):
        below = [table[p[:i] + (low,) + p[i + 1 :]] for i, x in enumerate(p) for low, high in covers if x == high]
        allowed = [v for v in range(k) if all(order.leq(b, v) for b in below)]
        table[p] = rng.choice(allowed or range(k))
    values = [table[p] for p in itertools.product(range(k), repeat=n)]
    for _ in range(rng.randrange(3)):
        values[rng.randrange(k**n)] = rng.randrange(k)
    return KFunction(k, n, values)


SHAPES = [(k, n) for k in range(2, 6) for n in range(1, 5) if k**n <= 625]


class TestBitsetWitness:
    @pytest.mark.parametrize("k,n", SHAPES)
    def test_witness_equals_reference(self, k, n):
        rng = random.Random(f"witness:{k}:{n}")
        for order in orders_for(k):
            for _ in range(25):
                f = near_monotone(k, n, order, rng)
                assert monotone_witness(f, order) == ref_monotone_witness(f, order)

    @pytest.mark.parametrize("k,n", [(k, n) for k, n in SHAPES if k**n <= 64])
    def test_verdict_equals_oracle(self, k, n):
        rng = random.Random(f"oracle:{k}:{n}")
        for order in orders_for(k):
            for _ in range(15):
                f = near_monotone(k, n, order, rng)
                assert is_monotone(f, order) == oracle_is_monotone(f, order)

    def test_both_verdicts_occur(self):
        rng = random.Random("witness:3:2")
        verdicts = {is_monotone(near_monotone(3, 2, order, rng), order) for order in orders_for(3) for _ in range(25)}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("order", [total_order(2), star_order(2)], ids=["total", "star"])
    def test_constant_one_k2_n20(self, order):
        one = KFunction(2, 20, bytes([1]) * 2**20)
        assert monotone_witness(one, order) is None
        top_zero = KFunction(2, 20, one.table[:-1] + bytes(1))
        assert monotone_witness(top_zero, order) == ((0,) + (1,) * 19, (1,) * 20)

    def test_order_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            monotone_witness(KFunction(3, 2, bytes([1]) * 3**2), total_order(2))

    def test_partial_function_refused(self):
        f = PartialKFunction.from_map(3, 2, {(0, 0): 1, (2, 2): 0})
        for call in (lambda: monotone_witness(f, total_order(3)), lambda: is_monotone(f, star_order(3)),
                     lambda: chain_shape_report(f)):
            with pytest.raises(ValueError, match="total function"):
                call()


def admitted():
    """Every (k, n) the counting cap admits, up to k**n = 16 (k=2 n=4)."""
    return [(k, n) for k in range(2, 17) for n in range(1, 5)
            if k**n <= 16 and k**n * math.log2(k) <= math.log2(COUNT_CAP)]


class TestEnumerationSequence:
    @pytest.mark.parametrize("k,n", admitted())
    def test_sequence_equals_reference(self, k, n):
        # star order at k >= 6 lists millions of functions; the first 3000
        # already pin the order
        for order in orders_for(k):
            got = list(islice(iter_monotone_functions(n, k, order), 3000))
            assert got == list(islice(ref_iter_monotone_functions(n, k, order), 3000))

    def test_admitted_shapes(self):
        assert (2, 4) in admitted() and (3, 2) in admitted() and (8, 1) in admitted()
        assert (2, 5) not in admitted() and (9, 1) not in admitted()

    def test_extension_is_ordered_by_depth_then_index(self):
        for order in orders_for(3):
            got = _linear_extension(3, 2, order)
            assert got == [encode_point(p, 3) for p in ref_linear_extension(3, 2, order)]

    @pytest.mark.parametrize("n,k,order", [(2, 3, total_order(2)), (2, 2, star_order(3))],
                             ids=["order-smaller", "order-larger"])
    def test_order_alphabet_mismatch(self, n, k, order):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            count_monotone_exact(n, k, order)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            iter_monotone_functions(n, k, order)
