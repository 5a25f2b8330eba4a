import itertools
import math
import random

import mpmath
import pytest

from kdnf import (
    CapacityError,
    KFunction,
    ValueOrder,
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
from kdnf.monotone import _is_upper_interval
from kdnf.oracle import oracle_is_monotone


class TestOrders:
    def test_total_is_the_chain(self):
        order = total_order(3)
        assert order.dominates(2, 0) and order.dominates(2, 1)
        assert not order.dominates(1, 2)
        assert order.cover_pairs() == ((0, 1), (1, 2))

    def test_star_shape(self):
        order = star_order(3)
        assert order.dominates(1, 0) and order.dominates(2, 0)
        assert not order.dominates(2, 1) and not order.dominates(1, 2)
        assert not order.dominates(0, 1)
        assert order.cover_pairs() == ((0, 1), (0, 2))

    def test_star_equals_total_for_k2(self):
        assert star_order(2) == total_order(2)

    def test_boolean_order(self):
        order = total_order(2)
        assert order.dominates(1, 0) and not order.dominates(0, 1)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ValueOrder.from_relations(3, [(0, 1), (1, 0)])

    def test_point_comparison(self):
        order = star_order(3)
        assert order.point_leq((0, 1), (2, 1))
        assert not order.point_leq((1, 1), (2, 1))


class TestIsMonotone:
    def test_constant_functions(self):
        for order in (total_order(3), star_order(3)):
            assert is_monotone(KFunction.constant(3, 2, 2), order)

    def test_max_is_chain_monotone(self):
        f = KFunction.from_callable(3, 2, lambda p: max(p))
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
                f = KFunction.from_table(2, n, table)
                assert is_monotone(f, total_order(2)) == oracle_is_monotone(
                    f, total_order(2)
                )

    def test_covering_pairs_equal_all_pairs_random_k3(self):
        rng = random.Random(5150)
        for _ in range(120):
            f = KFunction.from_table(3, 2, [rng.randrange(3) for _ in range(9)])
            for order in (total_order(3), star_order(3)):
                assert is_monotone(f, order) == oracle_is_monotone(f, order)


class TestChainShapeReport:
    def test_identity_function(self):
        report = chain_shape_report(KFunction.from_table(3, 1, range(3)))
        assert report.factors_upper
        assert report.dead_end_count == 1 and report.dead_end_equals_reduced
        rendered = [
            (t.gamma, t.interval.factors) for t in report.reduced.dnf.terms
        ]
        assert rendered == [(1, (0b110,)), (2, (0b100,))]
        assert report.core_points == ((1,), (2,))
        assert report.cores_exclusive

    def test_min_function(self):
        report = chain_shape_report(KFunction.from_callable(3, 2, lambda p: min(p)))
        assert report.factors_upper and report.dead_end_equals_reduced
        assert report.cores_exclusive

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_upper_interval_masks(self, k):
        # the bit test against the definition: values form [min, k-1]
        for mask in range(1, 1 << k):
            values = [v for v in range(k) if mask >> v & 1]
            assert _is_upper_interval(mask, k) == (values == list(range(values[0], k)))

    def test_constant_level(self):
        report = chain_shape_report(KFunction.constant(3, 2, 2))
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
        f = KFunction.from_table(k, n, table)
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
