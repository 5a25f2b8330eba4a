import functools
import itertools
import operator
import random

import pytest

from kdnf import (
    METRIC_RANK,
    METRIC_TERMS,
    CapacityError,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    ReducedDnf,
    ValueSet,
    absorbs,
    absorbs_zero_free,
    absorption_witness,
    cover_instance,
    dead_end_dnfs,
    functions_equal,
    minimize_dnf,
    reduced_dnf,
    total_order,
)
from kdnf.core import encode_point
from kdnf.minimize import SUBSET_CAP, _best_cover
from kdnf.monotone import iter_monotone_functions
from kdnf.oracle import oracle_absorbs, oracle_minimize

from .conftest import ec
from .instances import star_absorption_instances


class TestAbsorbs:
    def test_reflexive(self, handwritten_pair):
        for t in handwritten_pair.terms:
            assert absorbs(handwritten_pair, t)

    def test_single_term_does_not_absorb_the_other(self, handwritten_pair):
        first, second = handwritten_pair.terms
        assert not absorbs(Dnf(3, 3, (first,)), second)
        witness = absorption_witness(Dnf(3, 3, (first,)), second)
        assert witness in {(1, 2, 1), (1, 2, 2)}

    def test_higher_level_full_term_absorbs_everything(self):
        top = Dnf(3, 2, (ec(3, 2, None, None),))
        assert absorbs(top, ec(3, 1, [0, 1], [2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            absorbs(Dnf(3, 2), ec(3, 1, [1]))

    @pytest.mark.parametrize("k, n", [(2, 5), (3, 3), (4, 2)])
    def test_witness_is_the_first_exceeding_point(self, k, n):
        rng = random.Random(31 * k + n)

        def term(gamma):
            factors = [ValueSet(rng.randrange(1, 1 << k)) for _ in range(n)]
            return ElementaryConjunction(Interval(k, tuple(factors)), gamma)

        for trial in range(120):
            query = term(rng.randint(1, k - 1))
            # levels above, at and below the query's; the empty DNF included
            d = Dnf(k, n, tuple(term(rng.randint(1, k - 1)) for _ in range(trial % 7)))
            expected = next(
                (p for p in itertools.product(range(k), repeat=n) if query.value_at(p) > d.value_at(p)),
                None,
            )
            assert absorption_witness(d, query) == expected
            assert absorbs(d, query) == oracle_absorbs(d, query)


def widen_nonzero(t: ElementaryConjunction) -> ElementaryConjunction:
    """Every non-full factor of a zero-free term widened to {1..k-1}."""
    nonzero = ValueSet.from_iterable(range(1, t.k))
    factors = tuple(f if f.is_full(t.k) else nonzero for f in t.interval.factors)
    return ElementaryConjunction(Interval(t.k, factors), t.gamma)


def points_nonzero_at(k: int, n: int, positions):
    """Lattice points whose coordinates at the given positions are nonzero."""
    axes = [range(1, k) if j in positions else range(k) for j in range(n)]
    return itertools.product(*axes)


class TestAbsorbsZeroFree:
    def test_self_cover(self):
        term = ec(3, 1, [1], [1, 2])
        assert absorbs_zero_free([term], term)

    def test_strictly_smaller_term_does_not_absorb(self):
        # the widened-coverage shortcut alone would wrongly say yes here
        target = ec(3, 1, [1, 2])
        assert not absorbs_zero_free([ec(3, 1, [1])], target)
        assert not oracle_absorbs([ec(3, 1, [1])], target)

    def test_two_terms_fixed_second_variable(self):
        target = ec(3, 2, [1], None)
        terms = [ec(3, 2, [1, 2], [1]), ec(3, 2, [1, 2], [2])]
        # (1, 0) is reachable by the target but by neither term
        assert not absorbs_zero_free(terms, target)
        assert not oracle_absorbs(terms, target)

    def test_staircase_counterexample_to_naive_widening(self):
        # carrier {(1,1),(1,2),(2,1)}: both maximal terms, one absorbs nothing
        target = ec(3, 1, [1], [1, 2])
        other = [ec(3, 1, [1, 2], [1])]
        assert absorbs_zero_free(other, target) is False
        assert oracle_absorbs(other, target) is False
        # the unconditional widening covers every nonzero point, so as a
        # criterion it is necessary only; this pins why it is not used
        wide = [widen_nonzero(t) for t in other]
        cover = all(
            any(w.value_at(p) == w.gamma for w in wide)
            for p in points_nonzero_at(3, 2, target.support())
        )
        assert cover is True

    def test_full_interval_target(self):
        # empty support: only another full-interval term can absorb
        target = ec(3, 1, None, None)
        assert absorbs_zero_free([ec(3, 1, None, None)], target)
        assert not absorbs_zero_free([ec(3, 1, [1, 2], None)], target)
        assert not oracle_absorbs([ec(3, 1, [1, 2], None)], target)
        assert not absorbs_zero_free([], target)

    def test_rejects_level_mixing(self):
        with pytest.raises(ValueError):
            absorbs_zero_free([ec(3, 2, [1])], ec(3, 1, [1]))

    def test_rejects_non_zero_free_terms(self):
        with pytest.raises(ValueError):
            absorbs_zero_free([ec(3, 1, [0, 1])], ec(3, 1, [1]))
        with pytest.raises(ValueError):
            absorbs_zero_free([ec(3, 1, [1])], ec(3, 1, [0, 1]))

    def test_matches_oracle_on_generated_instances(self):
        rng = random.Random(20250810)
        for terms, target in star_absorption_instances(rng, 120):
            assert absorbs_zero_free(terms, target) == oracle_absorbs(terms, target)

    def test_widened_coverage_is_necessary(self):
        # one direction of the coverage form does hold: absorption implies
        # the widened terms cover the nonzero-at-support point set
        rng = random.Random(77)
        for terms, target in star_absorption_instances(rng, 60):
            if not oracle_absorbs(terms, target):
                continue
            wide = [widen_nonzero(t) for t in terms]
            for p in points_nonzero_at(target.k, target.n, target.support()):
                assert any(w.value_at(p) == w.gamma for w in wide)


class TestDeadEnds:
    def test_single_interval_per_level(self):
        f = KFunction.from_table(3, 1, (0, 1, 2))
        pool = reduced_dnf(f)
        assert dead_end_dnfs(f, pool) == [pool.dnf]

    def test_star_example_has_one_dead_end(self, star_example, handwritten_pair):
        ends = dead_end_dnfs(star_example, reduced_dnf(star_example))
        assert ends == [handwritten_pair.canonical()]

    def test_chain_monotone_functions_have_unique_dead_end(self):
        rng = random.Random(4)
        functions = list(iter_monotone_functions(2, 3, total_order(3)))
        for f in rng.sample(functions, 40):
            pool = reduced_dnf(f)
            assert dead_end_dnfs(f, pool) == [pool.dnf]

    def test_every_dead_end_realizes_and_is_irredundant(self):
        rng = random.Random(11)
        for _ in range(40):
            f = KFunction.from_table(3, 2, [rng.randrange(3) for _ in range(9)])
            pool = reduced_dnf(f)
            ends = dead_end_dnfs(f, pool)
            assert ends
            for d in ends:
                assert functions_equal(d.as_function(), f)
                for i in range(len(d.terms)):
                    smaller = d.without(i)
                    witness = next(
                        p for p in f.points()
                        if smaller.value_at(p) != f.value(p)
                    )
                    assert smaller.value_at(witness) < f.value(witness)

    def test_matches_definition_over_all_pool_subsets(self):
        # every subset of the pool that realizes f and stops realizing it
        # when any one term is dropped, straight from the definition
        rng = random.Random(515)
        seen = 0
        while seen < 12:
            k, n = rng.choice([(2, 4), (3, 2)])
            f = KFunction.from_table(k, n, [rng.randrange(k) for _ in range(k**n)])
            pool = reduced_dnf(f)
            terms = pool.dnf.terms
            if not 6 <= len(terms) <= 10:
                continue
            seen += 1
            expected = []
            for mask in range(1 << len(terms)):
                d = Dnf(k, n, tuple(t for i, t in enumerate(terms) if mask >> i & 1))
                if functions_equal(d.as_function(), f) and not any(
                    functions_equal(d.without(i).as_function(), f) for i in range(len(d.terms))
                ):
                    expected.append(d)
            expected.sort(key=lambda d: tuple(t.sort_key() for t in d.terms))
            assert dead_end_dnfs(f, pool) == expected

    def test_ends_stay_inside_a_pool_that_drops_a_term(self):
        # the candidates are the terms of pool.dnf, not of pool.levels, so a
        # term dropped from the DNF is in no dead end
        rng = random.Random(1)
        checked = 0
        for _ in range(20):
            f = KFunction.from_table(2, 3, [rng.randrange(2) for _ in range(8)])
            pool = reduced_dnf(f)
            for i in range(len(pool.dnf.terms)):
                d = pool.dnf.without(i)
                if functions_equal(d.as_function(), f):
                    checked += 1
                    for end in dead_end_dnfs(f, ReducedDnf(d, pool.levels)):
                        assert set(end.terms) <= set(d.terms)
        assert checked

    def test_pool_must_realize(self, star_example):
        other = KFunction.constant(3, 3)
        with pytest.raises(ValueError):
            dead_end_dnfs(other, reduced_dnf(star_example))

    def test_enumeration_cap(self, star_example):
        with pytest.raises(CapacityError):
            dead_end_dnfs(star_example, reduced_dnf(star_example), cap=2)


class TestMinimize:
    def test_constant_zero(self):
        res = minimize_dnf(KFunction.constant(2, 2))
        assert res.dnf.terms == () and res.objective_value == 0

    def test_star_example_two_terms(self, star_example, handwritten_pair):
        res = minimize_dnf(star_example, METRIC_TERMS)
        assert res.objective_value == 2
        assert res.dnf == handwritten_pair.canonical()
        assert functions_equal(res.dnf.as_function(), star_example)

    def test_star_example_rank_metric(self, star_example, handwritten_pair):
        res = minimize_dnf(star_example, METRIC_RANK)
        assert res.dnf == handwritten_pair.canonical()
        assert res.objective_value == 9

    def test_chain_monotone_optimum_is_the_reduced_dnf(self):
        rng = random.Random(8)
        functions = list(iter_monotone_functions(2, 3, total_order(3)))
        for f in rng.sample(functions, 30):
            pool = reduced_dnf(f)
            assert minimize_dnf(f, METRIC_TERMS).dnf == pool.dnf
            assert minimize_dnf(f, METRIC_RANK).dnf == pool.dnf

    def test_matches_oracle_exhaustively_k2(self):
        for n in (1, 2, 3):
            for table in itertools.product(range(2), repeat=2**n):
                f = KFunction.from_table(2, n, table)
                for metric in (METRIC_TERMS, METRIC_RANK):
                    fast = minimize_dnf(f, metric)
                    slow = oracle_minimize(f, metric)
                    assert fast.dnf == slow.dnf
                    assert fast.objective_value == slow.objective_value

    def test_matches_oracle_random_k3(self):
        rng = random.Random(314)
        for _ in range(60):
            f = KFunction.from_table(3, 2, [rng.randrange(3) for _ in range(9)])
            for metric in (METRIC_TERMS, METRIC_RANK):
                fast = minimize_dnf(f, metric)
                slow = oracle_minimize(f, metric)
                assert (fast.dnf, fast.objective_value) == (slow.dnf, slow.objective_value)

    def test_objective_chain(self):
        # optimum <= any dead-end size <= reduced size
        rng = random.Random(21)
        for _ in range(25):
            f = KFunction.from_table(3, 2, [rng.randrange(3) for _ in range(9)])
            pool = reduced_dnf(f)
            best = minimize_dnf(f, METRIC_TERMS).objective_value
            for d in dead_end_dnfs(f, pool):
                assert best <= len(d.terms) <= len(pool.dnf.terms)

    def test_parity_k2_n11_matches_closed_form(self):
        # 2**10 minterms of rank 11 each; every term is essential, so the
        # search is one path 1024 nodes deep
        f = KFunction.from_callable(2, 11, lambda p: sum(p) % 2)
        assert minimize_dnf(f, METRIC_TERMS).objective_value == 1024
        assert minimize_dnf(f, METRIC_RANK).objective_value == 11264

    def test_unknown_metric(self, star_example):
        with pytest.raises(ValueError):
            minimize_dnf(star_example, "letters")



# _best_cover's node use and chosen candidates per level, (k, n, seed, metric)
# -> ((nodes, chosen), ...), one budget shared by the levels as in
# minimize_dnf.  A change of representation must keep the node order; a change
# of algorithm re-records these on purpose.
SEARCH_PIN = {
    (2, 5, 0, "rank"): ((16, (1, 3, 5, 6, 7)),),
    (2, 5, 0, "terms"): ((16, (1, 3, 5, 6, 7)),),
    (2, 5, 1, "rank"): ((8, (0, 1, 2, 3, 4, 5)),),
    (2, 5, 1, "terms"): ((8, (0, 1, 2, 3, 4, 5)),),
    (2, 5, 2, "rank"): ((119, (0, 1, 2, 3, 4, 8, 10, 15, 16)),),
    (2, 5, 2, "terms"): ((119, (0, 1, 2, 3, 4, 8, 10, 15, 16)),),
    (2, 5, 3, "rank"): ((264, (1, 5, 7, 10, 11, 13, 14, 15)),),
    (2, 5, 3, "terms"): ((264, (1, 5, 7, 10, 11, 13, 14, 15)),),
    (2, 5, 4, "rank"): ((7, (0, 1, 2, 4, 5, 7)),),
    (2, 5, 4, "terms"): ((7, (0, 1, 2, 4, 5, 7)),),
    (2, 6, 0, "rank"): ((795, (0, 1, 3, 7, 9, 13, 16, 18, 19, 20, 21, 22, 24)),),
    (2, 6, 0, "terms"): ((795, (0, 1, 3, 7, 9, 13, 16, 18, 19, 20, 21, 22, 24)),),
    (2, 6, 1, "rank"): ((10366, (0, 1, 4, 6, 9, 10, 12, 13, 15, 17, 21, 23, 24, 26, 27, 29)),),
    (2, 6, 1, "terms"): ((10366, (0, 1, 4, 6, 9, 10, 12, 13, 15, 17, 21, 23, 24, 26, 27, 29)),),
    (2, 6, 2, "rank"): ((183, (0, 4, 6, 7, 9, 11, 12, 13, 14, 16, 17, 19, 20, 21)),),
    (2, 6, 2, "terms"): ((183, (0, 4, 6, 7, 9, 11, 12, 13, 14, 16, 17, 19, 20, 21)),),
    (2, 6, 3, "rank"): ((1269, (0, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 16, 20, 21, 23)),),
    (2, 6, 3, "terms"): ((1269, (0, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 16, 20, 21, 23)),),
    (2, 6, 7, "rank"): ((2858, (0, 1, 4, 7, 8, 13, 16, 17, 18, 20, 21, 24, 25, 29, 30)),),
    (2, 6, 7, "terms"): ((2868, (0, 1, 4, 7, 8, 13, 16, 17, 18, 20, 21, 24, 25, 29, 30)),),
    (3, 3, 0, "rank"): ((24, (0, 3, 6, 9)), (15, (1, 2, 3, 4, 6, 7))),
    (3, 3, 0, "terms"): ((24, (0, 3, 6, 9)), (15, (1, 2, 3, 4, 6, 7))),
    (3, 3, 1, "rank"): ((35, (0, 3, 4, 7, 9)), (5, (0, 1, 2, 3))),
    (3, 3, 1, "terms"): ((35, (0, 3, 4, 7, 9)), (5, (0, 1, 2, 3))),
    (3, 3, 2, "rank"): ((9, (0, 4, 6)), (9, (0, 3, 4, 5, 6))),
    (3, 3, 2, "terms"): ((9, (0, 4, 6)), (9, (0, 3, 4, 5, 6))),
    (3, 3, 3, "rank"): ((20, (0, 1, 3, 7, 8, 9)), (6, (1, 2, 3, 4, 5))),
    (3, 3, 3, "terms"): ((20, (0, 1, 3, 7, 8, 9)), (6, (1, 2, 3, 4, 5))),
    (3, 3, 4, "rank"): ((14, (2, 6, 7)), (7, (0, 1, 3, 4, 5))),
    (3, 3, 4, "terms"): ((14, (2, 6, 7)), (7, (0, 1, 3, 4, 5))),
    (4, 2, 0, "rank"): ((3, (0, 1)), (2, (0,)), (4, (0, 1, 2))),
    (4, 2, 0, "terms"): ((3, (0, 1)), (2, (0,)), (4, (0, 1, 2))),
    (4, 2, 1, "rank"): ((16, (0, 4)), (16, (2, 3, 5, 6)), (3, (0, 1))),
    (4, 2, 1, "terms"): ((16, (0, 4)), (16, (2, 3, 5, 6)), (3, (0, 1))),
    (4, 2, 2, "rank"): ((7, (0, 3)), (3, (0, 1)), (4, (0, 1, 2))),
    (4, 2, 2, "terms"): ((7, (0, 3)), (3, (0, 1)), (4, (0, 1, 2))),
    (4, 2, 3, "rank"): ((4, (0, 2)), (15, (3, 4)), (4, (0, 1, 2))),
    (4, 2, 3, "terms"): ((4, (0, 2)), (15, (3, 4)), (4, (0, 1, 2))),
    (4, 2, 4, "rank"): ((7, (0, 2)), (5, (0, 1, 3)), (3, (0, 1))),
    (4, 2, 4, "terms"): ((7, (0, 2)), (5, (0, 1, 3)), (3, (0, 1))),
}


class TestSearchOrder:
    def test_node_use_and_choice_are_pinned(self):
        for (k, n, seed, metric), expected in SEARCH_PIN.items():
            rng = random.Random(f"{k}:{n}:{seed}")
            f = KFunction.from_table(k, n, [rng.randrange(k) for _ in range(k**n)])
            budget, got = [SUBSET_CAP], []
            for level in cover_instance(f, reduced_dnf(f)).levels:
                before = budget[0]
                chosen = _best_cover(level, metric, budget)
                got.append((before - budget[0], chosen))
            assert tuple(got) == expected, (k, n, seed, metric)

class TestRemoveStep:
    # one step towards a dead-end DNF drops a term that the rest absorb
    def test_duplicate_term_removal_accepted(self):
        term = ec(3, 1, [1], [2])
        d = Dnf(3, 2, (term, term))
        assert absorbs(d.without(0), term)
        assert d.without(0) == Dnf(3, 2, (term,))

    def test_needed_term_rejected_with_witness(self, handwritten_pair):
        witness = absorption_witness(handwritten_pair.without(1), handwritten_pair.terms[1])
        assert witness in {(1, 2, 1), (1, 2, 2)}
        assert handwritten_pair.terms[1].value_at(witness) == 1

    def test_redundant_maximal_term_removal(self, star_example):
        pool = reduced_dnf(star_example).dnf
        # the middle term (x1=1, x2 in {1,2}, x3=1) is covered by the others
        index = next(
            i for i, t in enumerate(pool.terms)
            if t.interval.mask_key() == (0b010, 0b110, 0b010)
        )
        assert absorbs(pool.without(index), pool.terms[index])
        assert functions_equal(pool.without(index).as_function(), star_example)

    def test_acceptance_iff_absorption(self):
        # dropping a term keeps the function exactly when the rest absorb it
        rng = random.Random(37)
        for _ in range(30):
            f = KFunction.from_table(3, 2, [rng.randrange(3) for _ in range(9)])
            pool = reduced_dnf(f).dnf
            for i in range(len(pool.terms)):
                kept = functions_equal(pool.without(i).as_function(), f)
                assert kept == absorbs(pool.without(i), pool.terms[i])

    def test_invalid_index(self, handwritten_pair):
        with pytest.raises(ValueError):
            handwritten_pair.without(2)


class TestCoverInstance:
    def test_levels_cover_their_universe(self, star_example):
        inst = cover_instance(star_example, reduced_dnf(star_example))
        assert [lvl.gamma for lvl in inst.levels] == [1]
        level = inst.levels[0]
        everywhere = sum(1 << encode_point(p, level.k) for p in level.universe)
        assert functools.reduce(operator.or_, level.covers) == everywhere

    def test_rejects_non_realizing_pool(self, star_example):
        with pytest.raises(ValueError):
            cover_instance(KFunction.constant(3, 3, 2), reduced_dnf(star_example))

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 3), (4, 2)])
    def test_covers_match_pointwise_reference(self, k, n):
        rng = random.Random(9000 + 10 * k + n)
        for _ in range(20):
            f = KFunction.from_table(k, n, [rng.randrange(k) for _ in range(k**n)])
            inst = cover_instance(f, reduced_dnf(f))
            for level in inst.levels:
                assert level.universe == tuple(p for p in f.points() if f.value(p) == level.gamma)
                for t, c in zip(level.candidates, level.covers, strict=True):
                    reference = sum(
                        1 << encode_point(p, k) for p in level.universe if t.interval.contains_point(p)
                    )
                    assert c == reference

    def test_raises_exactly_when_the_pool_does_not_realize(self):
        def perturbed(f, d):
            """(function, DNF) pairs one change away from (f, d)."""
            for i in range(len(d.terms)):
                yield f, d.without(i)
            for i, t in enumerate(d.terms):
                for gamma in (t.gamma - 1, t.gamma + 1):
                    if 1 <= gamma < f.k:
                        moved = ElementaryConjunction(t.interval, gamma)
                        yield f, Dnf(f.k, f.n, d.terms[:i] + (moved,) + d.terms[i + 1 :])
            for j, v in enumerate(f.table):
                table = bytearray(f.table)
                table[j] = (v + 1) % f.k
                yield KFunction(f.k, f.n, bytes(table)), d

        rng = random.Random(4242)
        outcomes = set()
        for k, n in [(2, 3), (3, 2), (3, 3), (4, 2)] * 5:
            f = KFunction.from_table(k, n, [rng.randrange(k) for _ in range(k**n)])
            pool = reduced_dnf(f)
            for g, d in perturbed(f, pool.dnf):
                realizes = functions_equal(d.as_function(), g)
                outcomes.add(realizes)
                if realizes:
                    cover_instance(g, ReducedDnf(d, pool.levels))
                else:
                    with pytest.raises(ValueError, match="does not realize"):
                        cover_instance(g, ReducedDnf(d, pool.levels))
        assert outcomes == {True, False}
