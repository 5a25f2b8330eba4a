import collections
import functools
import itertools
import math
import operator
import random
from collections.abc import Sequence

import pytest

import kdnf.minimize
import kdnf.reduce
from kdnf import (
    METRIC_RANK,
    METRIC_TERMS,
    CapacityError,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    PartialKFunction,
    ReducedDnf,
    absorbs,
    absorbs_zero_free,
    absorption_witness,
    all_points,
    cover_instance,
    dead_end_dnfs,
    minimize_dnf,
    reduced_dnf,
    star_order,
    total_order,
)
from kdnf.core import UNDEFINED, _Budget, decode_point, encode_point, mask_values
from kdnf.minimize import SUBSET_CAP, LevelCover, _best_cover, _term_cost
from kdnf.monotone import iter_monotone_functions
from kdnf.oracle import oracle_absorbs, oracle_minimize
from kdnf.reduce import _interval_bits
from kdnf.textio import print_dnf

from .conftest import ec
from .instances import canonical, dnf_function, star_absorption_instances, without


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
            factors = [rng.randrange(1, 1 << k) for _ in range(n)]
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
    full = (1 << t.k) - 1
    factors = tuple(f if f == full else full - 1 for f in t.interval.factors)
    return ElementaryConjunction(Interval(t.k, factors), t.gamma)


def points_nonzero_at(k: int, n: int, positions):
    """Lattice points whose coordinates at the given positions are nonzero."""
    axes = [range(1, k) if j in positions else range(k) for j in range(n)]
    return itertools.product(*axes)


def walk_absorbs_zero_free(terms: Sequence[ElementaryConjunction], ec: ElementaryConjunction) -> bool:
    """absorbs_zero_free as a walk over ec's value combinations on its
    support, each looked for in a support-contained term; the reference for
    the bitset test."""
    support = ec.support()
    pos = frozenset(support)
    relevant = [t for t in terms if set(t.support()) <= pos]
    axes = [mask_values(ec.interval.factors[j]) for j in support]
    for combo in itertools.product(*axes):
        if not any(
            all(t.interval.factors[j] >> x & 1 for x, j in zip(combo, support))
            for t in relevant
        ):
            return False
    return True


def zero_free_cases(rng: random.Random, count: int):
    """(terms, target) pairs of zero-free shaped conjunctions of one level,
    k=2..5 and n=1..6.  Each term factor is full, a widening of the target's
    or a random zero-free set, so that both answers are common."""
    out = []
    while len(out) < count:
        k, n = rng.randint(2, 5), rng.randint(1, 6)
        full = (1 << k) - 1

        def zero_free() -> int:
            return rng.randrange(1, 1 << (k - 1)) << 1

        target = tuple(full if rng.random() < 0.4 else zero_free() for _ in range(n))
        gamma = rng.randint(1, k - 1)
        terms = []
        for _ in range(rng.randint(0, 6)):
            factors = []
            for f in target:
                r = rng.random()
                if r < 0.25 or (f == full and r < 0.8):
                    factors.append(full)
                elif r < 0.6:
                    factors.append(f | zero_free())
                else:
                    factors.append(zero_free())
            terms.append(ElementaryConjunction(Interval(k, tuple(factors)), gamma))
        out.append((terms, ElementaryConjunction(Interval(k, target), gamma)))
    return out


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

    def test_matches_the_value_walk_on_seeded_zero_free_cases(self):
        rng = random.Random(20261018)
        outcomes = collections.Counter()
        for terms, target in zero_free_cases(rng, 5000):
            fast = absorbs_zero_free(terms, target)
            assert fast == walk_absorbs_zero_free(terms, target), (terms, target)
            outcomes[fast] += 1
        assert min(outcomes[True], outcomes[False]) >= 1000, outcomes

    def test_support_past_the_table_cap_refused(self):
        # k**|support| = 2**21 points would not fit a dense table
        target = ec(2, 1, *[[1]] * 21)
        with pytest.raises(CapacityError, match="dense-table cap"):
            absorbs_zero_free([target], target)

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


# The scan that dead_end_dnfs replaced: every subset of a level's candidates,
# its union looked up in two tables of half-subset unions, refused up front
# once 2**m passes the cap.  It is kept as the reference for exactness; the
# two helpers are the ones it had, and reference_dead_end_dnfs is its
# dead_end_dnfs.
def _subset_ors(covers: Sequence[int]) -> list[int]:
    """OR of the covers in every subset, indexed by the subset's bitmask."""
    table = [0]
    for c in covers:
        table += [x | c for x in table]
    return table


def _irredundant_covers(level: LevelCover, budget: list[int]) -> list[tuple[int, ...]]:
    """All irredundant covering candidate subsets of one level, exhaustively.

    The union of a subset is looked up in two tables of 2**(m/2) unions, one
    per half of the candidates, so only covering subsets cost more.
    """
    m = len(level.candidates)
    need = level.level_bits
    if 1 << m > budget[0]:
        raise CapacityError(f"level {level.gamma}: 2**{m} subsets exceed the enumeration cap")
    budget[0] -= 1 << m
    half = m // 2
    low, high = _subset_ors(level.covers[:half]), _subset_ors(level.covers[half:])
    out = []
    for mask in range(1 << m):
        if low[mask & (1 << half) - 1] | high[mask >> half] != need:
            continue
        chosen = [i for i in range(m) if mask >> i & 1]
        twice = once = 0
        for i in chosen:
            twice |= once & level.covers[i]
            once |= level.covers[i]
        # irredundant: every chosen term covers a point no other one covers
        if all(level.covers[i] & ~twice for i in chosen):
            out.append(tuple(chosen))
    return out


def reference_dead_end_dnfs(f: KFunction, pool: ReducedDnf, cap: int = SUBSET_CAP) -> list[Dnf]:
    inst = cover_instance(f, pool)
    budget = [cap]
    per_level = [_irredundant_covers(level, budget) for level in inst.levels]
    combos = math.prod(len(options) for options in per_level)
    if combos > cap:
        raise CapacityError(f"{combos} dead-end combinations exceed the cap {cap}")
    results = []
    for choice in itertools.product(*per_level):
        terms = [level.candidates[i] for level, chosen in zip(inst.levels, choice) for i in chosen]
        results.append(Dnf(f.k, f.n, tuple(sorted(terms, key=ElementaryConjunction.sort_key))))
    results.sort(key=lambda d: tuple(t.sort_key() for t in d.terms))
    return results


class TestDeadEnds:
    def test_single_interval_per_level(self):
        f = KFunction(3, 1, (0, 1, 2))
        pool = reduced_dnf(f)
        assert dead_end_dnfs(f, pool) == [pool.dnf]

    def test_star_example_has_one_dead_end(self, star_example, handwritten_pair):
        ends = dead_end_dnfs(star_example, reduced_dnf(star_example))
        assert ends == [canonical(handwritten_pair)]

    def test_chain_monotone_functions_have_unique_dead_end(self):
        rng = random.Random(4)
        functions = list(iter_monotone_functions(2, 3, total_order(3)))
        for f in rng.sample(functions, 40):
            pool = reduced_dnf(f)
            assert dead_end_dnfs(f, pool) == [pool.dnf]

    def test_every_dead_end_realizes_and_is_irredundant(self):
        rng = random.Random(11)
        for _ in range(40):
            f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            pool = reduced_dnf(f)
            ends = dead_end_dnfs(f, pool)
            assert ends
            for d in ends:
                assert dnf_function(d) == f
                for i in range(len(d.terms)):
                    smaller = without(d, i)
                    witness = next(
                        p for p in all_points(f.k, f.n)
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
            f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            pool = reduced_dnf(f)
            terms = pool.dnf.terms
            if not 6 <= len(terms) <= 10:
                continue
            seen += 1
            expected = []
            for mask in range(1 << len(terms)):
                d = Dnf(k, n, tuple(t for i, t in enumerate(terms) if mask >> i & 1))
                if dnf_function(d) == f and not any(
                    dnf_function(without(d, i)) == f for i in range(len(d.terms))
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
            f = KFunction(2, 3, [rng.randrange(2) for _ in range(8)])
            pool = reduced_dnf(f)
            for i in range(len(pool.dnf.terms)):
                d = without(pool.dnf, i)
                if dnf_function(d) == f:
                    checked += 1
                    for end in dead_end_dnfs(f, ReducedDnf(d, pool.levels)):
                        assert set(end.terms) <= set(d.terms)
        assert checked

    def test_pool_must_realize(self, star_example):
        other = KFunction(3, 3, bytes(3**3))
        with pytest.raises(ValueError):
            dead_end_dnfs(other, reduced_dnf(star_example))

    def test_enumeration_cap(self, monkeypatch):
        # both levels need a search past their essentials: 2 and 5 covers,
        # so 10 dead ends of 46 terms in all
        rng = random.Random(5)
        f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        pool = reduced_dnf(f)
        assert len(dead_end_dnfs(f, pool)) == 10
        monkeypatch.setattr(kdnf.minimize, "SUBSET_CAP", 10)
        with pytest.raises(CapacityError, match="level 1: dead-end enumeration exceeded the work cap 10"):
            dead_end_dnfs(f, pool)
        # the enumeration fits, the product's terms do not
        monkeypatch.setattr(kdnf.minimize, "SUBSET_CAP", 100)
        with pytest.raises(CapacityError, match="10 dead-end DNFs of 46 terms in all exceed the cap 100"):
            dead_end_dnfs(f, pool)

    def test_canonical_order_whatever_the_pool_order(self):
        # each DNF's terms and the list come out in canonical order, also
        # from a pool whose terms are listed in reverse
        compared = 0
        for i in range(30):
            k, n = [(2, 4), (3, 2), (3, 3)][i % 3]
            rng = random.Random(f"order:{i}")
            f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            pool = reduced_dnf(f)
            ends = dead_end_dnfs(f, pool)
            assert all(d == canonical(d) for d in ends)
            assert ends == sorted(ends, key=lambda d: [t.sort_key() for t in d.terms])
            assert dead_end_dnfs(f, ReducedDnf(Dnf(k, n, pool.dnf.terms[::-1]), pool.levels)) == ends
            compared += len(ends) > 1
        assert compared >= 10

    def test_every_refusal_text_is_pinned(self, monkeypatch):
        # each stage's text byte for byte, one unit below its answer: on the
        # table of test_enumeration_cap reduce answers from 40 units and the
        # search from 72; dead_end_dnfs gets past level 1 from 11 units, past
        # level 2 from 88 and past the product's terms from 114
        rng = random.Random(5)
        f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        pool = reduced_dnf(f)
        refusals = [
            (kdnf.reduce, "REDUCE_CAP", 39, lambda: reduced_dnf(f),
             "reduce stage: maximal-interval work passed the cap 39"),
            (kdnf.minimize, "SUBSET_CAP", 71, lambda: minimize_dnf(f),
             "minimization search exceeded the node cap"),
            (kdnf.minimize, "SUBSET_CAP", 10, lambda: dead_end_dnfs(f, pool),
             "level 1: dead-end enumeration exceeded the work cap 10"),
            # level 1 is paid for, so the message names the level that ran out
            (kdnf.minimize, "SUBSET_CAP", 11, lambda: dead_end_dnfs(f, pool),
             "level 2: dead-end enumeration exceeded the work cap 11"),
            (kdnf.minimize, "SUBSET_CAP", 87, lambda: dead_end_dnfs(f, pool),
             "level 2: dead-end enumeration exceeded the work cap 87"),
            (kdnf.minimize, "SUBSET_CAP", 113, lambda: dead_end_dnfs(f, pool),
             "10 dead-end DNFs of 46 terms in all exceed the cap 113"),
        ]
        for module, name, cap, call, text in refusals:
            with monkeypatch.context() as patch, pytest.raises(CapacityError) as info:
                patch.setattr(module, name, cap)
                call()
            assert str(info.value) == text

    def test_matches_the_reference_scan(self):
        # every k=3 n=2 chain- and star-monotone function and 216 seeded
        # random tables; where the scan refuses up front, each answer is
        # checked to be distinct, to realize f and to have no redundant term
        functions = [*iter_monotone_functions(2, 3, total_order(3)), *iter_monotone_functions(2, 3, star_order(3))]
        shapes = [(2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2)]
        for i in range(216):
            k, n = shapes[i % len(shapes)]
            rng = random.Random(f"deadend:{i}")
            functions.append(KFunction(k, n, [rng.randrange(k) for _ in range(k**n)]))
        compared = 0
        for f in functions:
            pool = reduced_dnf(f)
            try:
                expected = reference_dead_end_dnfs(f, pool)
            except CapacityError:
                ends = dead_end_dnfs(f, pool)
                assert len({d.terms for d in ends}) == len(ends)
                for d in ends:  # cover_instance raises unless d realizes f
                    for level in cover_instance(f, ReducedDnf(d, pool.levels)).levels:
                        for i, c in enumerate(level.covers):
                            assert c & ~functools.reduce(operator.or_, level.covers[:i] + level.covers[i + 1:], 0)
                continue
            assert dead_end_dnfs(f, pool) == expected
            compared += 1
        assert compared >= 500


class TestMinimize:
    def test_constant_zero(self):
        res = minimize_dnf(KFunction(2, 2, bytes(2**2)))
        assert res.dnf.terms == () and res.objective_value == 0

    def test_star_example_two_terms(self, star_example, handwritten_pair):
        res = minimize_dnf(star_example, METRIC_TERMS)
        assert res.objective_value == 2
        assert res.dnf == canonical(handwritten_pair)
        assert dnf_function(res.dnf) == star_example

    def test_star_example_rank_metric(self, star_example, handwritten_pair):
        res = minimize_dnf(star_example, METRIC_RANK)
        assert res.dnf == canonical(handwritten_pair)
        assert res.objective_value == 9

    def test_chain_monotone_optimum_is_the_reduced_dnf(self):
        # every term has a point no other term covers, so the essentials
        # alone cover each level: the search spends only the root's unit
        rng = random.Random(8)
        functions = list(iter_monotone_functions(2, 3, total_order(3)))
        for f in rng.sample(functions, 30):
            pool = reduced_dnf(f)
            assert minimize_dnf(f, METRIC_TERMS).dnf == pool.dnf
            assert minimize_dnf(f, METRIC_RANK).dnf == pool.dnf
            for metric in (METRIC_TERMS, METRIC_RANK):
                for level in cover_instance(f, pool).levels:
                    budget = _Budget(SUBSET_CAP, "")
                    assert _best_cover(level, metric, budget) == tuple(range(len(level.candidates)))
                    assert budget.left == SUBSET_CAP - 1

    def test_matches_oracle_exhaustively_k2(self):
        for n in (1, 2, 3):
            for table in itertools.product(range(2), repeat=2**n):
                f = KFunction(2, n, table)
                for metric in (METRIC_TERMS, METRIC_RANK):
                    fast = minimize_dnf(f, metric)
                    slow = oracle_minimize(f, metric)
                    assert fast.dnf == slow.dnf
                    assert fast.objective_value == slow.objective_value

    def test_matches_oracle_random_k3(self):
        rng = random.Random(314)
        for _ in range(60):
            f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            for metric in (METRIC_TERMS, METRIC_RANK):
                fast = minimize_dnf(f, metric)
                slow = oracle_minimize(f, metric)
                assert (fast.dnf, fast.objective_value) == (slow.dnf, slow.objective_value)

    def test_objective_chain(self):
        # optimum <= any dead-end size <= reduced size
        rng = random.Random(21)
        for _ in range(25):
            f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            pool = reduced_dnf(f)
            best = minimize_dnf(f, METRIC_TERMS).objective_value
            for d in dead_end_dnfs(f, pool):
                assert best <= len(d.terms) <= len(pool.dnf.terms)

    def test_parity_k2_n11_matches_closed_form(self):
        # 2**10 minterms of rank 11 each; every term is essential, so the
        # root takes them all and the search never branches
        f = KFunction(2, 11, [sum(p) % 2 for p in all_points(2, 11)])
        assert minimize_dnf(f, METRIC_TERMS).objective_value == 1024
        assert minimize_dnf(f, METRIC_RANK).objective_value == 11264

    def test_unknown_metric(self, star_example):
        with pytest.raises(ValueError):
            minimize_dnf(star_example, "letters")



# The search that _best_cover replaced: plain branch and bound with one budget
# unit per node, no essentials, dominance or lower bound.  It is kept as the
# reference for exactness; its docstring is the one it had.
def reference_best_cover(level, metric: str, budget: list[int]) -> tuple[int, ...]:
    """Exact minimum-cost cover of one level by branch and bound.

    Cost order is lexicographic: primary objective, secondary objective, then
    the canonical term-key tuple, so the winner is deterministic.  The search
    runs in pre-order on an explicit stack, one budget unit per node, and
    branches on the first uncovered point in the order of (number of
    candidates covering it, index).  Holder counts are added bit-sliced into
    binary planes, which split the level into one mask per count; with the
    r-th smallest count's mask shifted r level widths up, the branch point is
    the lowest bit of the uncovered set.  Its holders are the AND over
    variables j of the masks of candidates whose factor j holds x_j.
    """
    keys = [t.sort_key() for t in level.candidates]
    costs = [_term_cost(t, metric) for t in level.candidates]
    planes: list[int] = []  # planes[j]: points whose holder count has bit j set
    for c in level.covers:
        for j, plane in enumerate(planes):
            if not c:
                break
            planes[j], c = plane ^ c, plane & c
        if c:
            planes.append(c)
    groups = [level.level_bits]  # split by count bits, high to low, so ascending
    for plane in reversed(planes):
        groups = [g for x in groups for g in (x & ~plane, x & plane) if g]
    width = level.level_bits.bit_length()
    *covers, need = (
        sum((c & g) << r * width for r, g in enumerate(groups))
        for c in (*level.covers, level.level_bits)
    )
    k, n = level.k, level.n
    masks = [t.interval.factors for t in reversed(level.candidates)]
    # holds[j][x]: the candidates whose factor j holds x, highest first as a binary numeral
    holds = [[int("".join("01"[m[j] >> x & 1] for m in masks), 2) for x in range(k)] for j in range(n)]

    @functools.cache  # children of a branch bit, in reverse so the stack pops them in order
    def children(b: int) -> list:
        held, kids = -1, []
        for j, x in enumerate(decode_point(b % width, k, n)):
            held &= holds[j][x]
        while held:
            i = held.bit_length() - 1
            kids.append((i, need ^ covers[i], *costs[i]))  # need ^ cover: the points it misses
            held ^= 1 << i
        return kids

    best = (math.inf, math.inf, ())  # objectives and sorted term keys of the best cover
    bp, bs = best[:2]
    left = budget[0]
    stack = [(need, (), 0, 0)]  # uncovered, chosen, primary, secondary
    while stack:
        free, chosen, p, s = stack.pop()
        left -= 1
        if left < 0:
            budget[0] = left
            raise CapacityError("minimization search exceeded the node cap")
        if p > bp or (p == bp and s > bs):
            continue
        if not free:
            key = (p, s, tuple(sorted(keys[i] for i in chosen)))
            if key < best:
                best, bp, bs = key, p, s
            continue
        for i, rest, cp, cs in children((free & -free).bit_length() - 1):
            stack.append((free & rest, chosen + (i,), p + cp, s + cs))
    budget[0] = left
    chosen_keys = set(best[2])
    return tuple(i for i in range(len(level.candidates)) if keys[i] in chosen_keys)



def random_levels(label: str, k: int, n: int):
    rng = random.Random(label)
    f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
    return f, cover_instance(f, reduced_dnf(f)).levels


# the input of the benchmark's node-capped op: the reference search needs
# 3,168,899 nodes for it; this is its answer, recorded once, uncapped
CAPPED_K2N7 = """\
J{0}(x1)*J{0}(x2)*J{0}(x3)*J{0}(x4)*J{0}(x5)*J{0}(x6)->1
J{0}(x1)*J{0}(x2)*J{1}(x3)*J{1}(x4)*J{0}(x5)->1
J{0}(x1)*J{0}(x2)*J{1}(x3)*J{0}(x5)*J{1}(x7)->1
J{0}(x1)*J{1}(x2)*J{0}(x3)*J{1}(x4)*J{0}(x5)->1
J{0}(x1)*J{1}(x2)*J{0}(x3)*J{1}(x5)*J{0}(x6)->1
J{0}(x1)*J{1}(x2)*J{1}(x3)*J{1}(x4)*J{1}(x5)*J{1}(x7)->1
J{0}(x1)*J{1}(x2)*J{1}(x3)*J{0}(x5)*J{0}(x6)*J{0}(x7)->1
J{0}(x1)*J{1}(x2)*J{0}(x4)*J{0}(x5)*J{1}(x7)->1
J{0}(x1)*J{0}(x3)*J{1}(x4)*J{1}(x5)*J{0}(x6)*J{0}(x7)->1
J{0}(x1)*J{1}(x3)*J{0}(x4)*J{1}(x5)*J{0}(x6)*J{0}(x7)->1
J{0}(x1)*J{1}(x3)*J{1}(x4)*J{1}(x5)*J{1}(x6)*J{0}(x7)->1
J{1}(x1)*J{0}(x2)*J{0}(x3)*J{0}(x4)*J{0}(x6)*J{0}(x7)->1
J{1}(x1)*J{0}(x2)*J{0}(x3)*J{1}(x4)*J{0}(x5)->1
J{1}(x1)*J{0}(x2)*J{0}(x3)*J{1}(x4)*J{1}(x6)->1
J{1}(x1)*J{0}(x2)*J{1}(x3)*J{1}(x6)*J{0}(x7)->1
J{1}(x1)*J{0}(x2)*J{0}(x4)*J{0}(x5)*J{0}(x7)->1
J{1}(x1)*J{0}(x2)*J{1}(x4)*J{0}(x6)*J{1}(x7)->1
J{1}(x1)*J{1}(x2)*J{0}(x3)*J{0}(x4)*J{1}(x5)*J{1}(x7)->1
J{1}(x1)*J{0}(x3)*J{1}(x4)*J{0}(x6)*J{1}(x7)->1
J{1}(x1)*J{0}(x3)*J{0}(x5)*J{1}(x6)*J{0}(x7)->1
J{1}(x1)*J{1}(x3)*J{0}(x4)*J{1}(x5)*J{0}(x6)*J{1}(x7)->1
J{1}(x1)*J{1}(x4)*J{0}(x5)*J{0}(x6)*J{1}(x7)->1
J{0}(x2)*J{0}(x3)*J{1}(x4)*J{1}(x6)*J{1}(x7)->1
J{0}(x2)*J{0}(x4)*J{1}(x5)*J{1}(x6)*J{1}(x7)->1
J{1}(x2)*J{1}(x3)*J{1}(x4)*J{1}(x5)*J{1}(x6)*J{1}(x7)->1
J{1}(x3)*J{0}(x4)*J{0}(x5)*J{1}(x6)->1
"""


class TestBestCover:
    def test_chooses_what_the_reference_chooses(self):
        # the reference gets a small cap; only searches it finishes count
        compared = 0
        for k, n in [(2, 5), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3)]:
            for seed in range(12):
                _, levels = random_levels(f"exact:{k}:{n}:{seed}", k, n)
                for metric in (METRIC_TERMS, METRIC_RANK):
                    try:
                        budget = [20_000]
                        expected = [reference_best_cover(level, metric, budget) for level in levels]
                    except CapacityError:
                        continue
                    budget = _Budget(SUBSET_CAP, "")
                    assert [_best_cover(level, metric, budget) for level in levels] == expected, (k, n, seed)
                    compared += 1
        assert compared >= 100

    def test_answers_the_input_the_reference_could_not(self):
        f, levels = random_levels("random-k2n7:3", 2, 7)
        budget = _Budget(SUBSET_CAP, "")
        terms = [level.candidates[i] for level in levels for i in _best_cover(level, METRIC_TERMS, budget)]
        assert print_dnf(Dnf(2, 7, tuple(terms))) == CAPPED_K2N7
        assert minimize_dnf(f, METRIC_TERMS).objective_value == 26

    def test_folded_cost_weighs_the_primary_above_every_secondary_sum(self):
        # column 1 covers both points alone at rank 3, columns 3 and 5 cover
        # them at rank 1 each: (1, 3) against (2, 2) terms and ranks.  Under
        # rank the pair wins on its primary, though a weight of 1 on the
        # primary would fold both covers to the same cost 4
        masks = (1, 9, 18, 23, 26, 30)
        candidates = tuple(ElementaryConjunction(Interval(5, (m,)), 1) for m in masks)
        level = LevelCover(5, 1, 1, 9, candidates, tuple(_interval_bits(5, (m,)) & 9 for m in masks))
        for metric, expected in ((METRIC_TERMS, (1,)), (METRIC_RANK, (3, 5))):
            assert _best_cover(level, metric, _Budget(SUBSET_CAP, "")) == expected
            assert reference_best_cover(level, metric, [SUBSET_CAP]) == expected


# _best_cover's budget use and chosen candidates per level, (k, n, seed,
# metric) -> ((units, chosen), ...), one budget shared by the levels as in
# minimize_dnf.  The chosen candidates are the reference search's; the units
# pin the search's order and work, and change only on purpose.
SEARCH_PIN = {
    (2, 5, 0, "rank"): ((41, (1, 3, 5, 6, 7)),),
    (2, 5, 0, "terms"): ((41, (1, 3, 5, 6, 7)),),
    (2, 5, 1, "rank"): ((9, (0, 1, 2, 3, 4, 5)),),
    (2, 5, 1, "terms"): ((9, (0, 1, 2, 3, 4, 5)),),
    (2, 5, 2, "rank"): ((139, (0, 1, 2, 3, 4, 8, 10, 15, 16)),),
    (2, 5, 2, "terms"): ((139, (0, 1, 2, 3, 4, 8, 10, 15, 16)),),
    (2, 5, 3, "rank"): ((293, (1, 5, 7, 10, 11, 13, 14, 15)),),
    (2, 5, 3, "terms"): ((293, (1, 5, 7, 10, 11, 13, 14, 15)),),
    (2, 5, 4, "rank"): ((1, (0, 1, 2, 4, 5, 7)),),
    (2, 5, 4, "terms"): ((1, (0, 1, 2, 4, 5, 7)),),
    (2, 6, 0, "rank"): ((226, (0, 1, 3, 7, 9, 13, 16, 18, 19, 20, 21, 22, 24)),),
    (2, 6, 0, "terms"): ((226, (0, 1, 3, 7, 9, 13, 16, 18, 19, 20, 21, 22, 24)),),
    (2, 6, 1, "rank"): ((828, (0, 1, 4, 6, 9, 10, 12, 13, 15, 17, 21, 23, 24, 26, 27, 29)),),
    (2, 6, 1, "terms"): ((828, (0, 1, 4, 6, 9, 10, 12, 13, 15, 17, 21, 23, 24, 26, 27, 29)),),
    (2, 6, 2, "rank"): ((38, (0, 4, 6, 7, 9, 11, 12, 13, 14, 16, 17, 19, 20, 21)),),
    (2, 6, 2, "terms"): ((38, (0, 4, 6, 7, 9, 11, 12, 13, 14, 16, 17, 19, 20, 21)),),
    (2, 6, 3, "rank"): ((288, (0, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 16, 20, 21, 23)),),
    (2, 6, 3, "terms"): ((288, (0, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 16, 20, 21, 23)),),
    (2, 6, 7, "rank"): ((414, (0, 1, 4, 7, 8, 13, 16, 17, 18, 20, 21, 24, 25, 29, 30)),),
    (2, 6, 7, "terms"): ((414, (0, 1, 4, 7, 8, 13, 16, 17, 18, 20, 21, 24, 25, 29, 30)),),
    (3, 3, 0, "rank"): ((55, (0, 3, 6, 9)), (29, (1, 2, 3, 4, 6, 7))),
    (3, 3, 0, "terms"): ((55, (0, 3, 6, 9)), (29, (1, 2, 3, 4, 6, 7))),
    (3, 3, 1, "rank"): ((79, (0, 3, 4, 7, 9)), (1, (0, 1, 2, 3))),
    (3, 3, 1, "terms"): ((79, (0, 3, 4, 7, 9)), (1, (0, 1, 2, 3))),
    (3, 3, 2, "rank"): ((34, (0, 4, 6)), (17, (0, 3, 4, 5, 6))),
    (3, 3, 2, "terms"): ((34, (0, 4, 6)), (17, (0, 3, 4, 5, 6))),
    (3, 3, 3, "rank"): ((44, (0, 1, 3, 7, 8, 9)), (1, (1, 2, 3, 4, 5))),
    (3, 3, 3, "terms"): ((44, (0, 1, 3, 7, 8, 9)), (1, (1, 2, 3, 4, 5))),
    (3, 3, 4, "rank"): ((23, (2, 6, 7)), (5, (0, 1, 3, 4, 5))),
    (3, 3, 4, "terms"): ((23, (2, 6, 7)), (5, (0, 1, 3, 4, 5))),
    (4, 2, 0, "rank"): ((1, (0, 1)), (1, (0,)), (1, (0, 1, 2))),
    (4, 2, 0, "terms"): ((1, (0, 1)), (1, (0,)), (1, (0, 1, 2))),
    (4, 2, 1, "rank"): ((12, (0, 4)), (43, (2, 3, 5, 6)), (1, (0, 1))),
    (4, 2, 1, "terms"): ((12, (0, 4)), (43, (2, 3, 5, 6)), (1, (0, 1))),
    (4, 2, 2, "rank"): ((29, (0, 3)), (1, (0, 1)), (1, (0, 1, 2))),
    (4, 2, 2, "terms"): ((29, (0, 3)), (1, (0, 1)), (1, (0, 1, 2))),
    (4, 2, 3, "rank"): ((6, (0, 2)), (48, (3, 4)), (1, (0, 1, 2))),
    (4, 2, 3, "terms"): ((6, (0, 2)), (48, (3, 4)), (1, (0, 1, 2))),
    (4, 2, 4, "rank"): ((16, (0, 2)), (5, (0, 1, 3)), (1, (0, 1))),
    (4, 2, 4, "terms"): ((16, (0, 2)), (5, (0, 1, 3)), (1, (0, 1))),
}


class TestSearchOrder:
    def test_node_use_and_choice_are_pinned(self):
        for (k, n, seed, metric), expected in SEARCH_PIN.items():
            rng = random.Random(f"{k}:{n}:{seed}")
            f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            budget, got = _Budget(SUBSET_CAP, ""), []
            for level in cover_instance(f, reduced_dnf(f)).levels:
                before = budget.left
                chosen = _best_cover(level, metric, budget)
                got.append((before - budget.left, chosen))
            assert tuple(got) == expected, (k, n, seed, metric)

class TestRemoveStep:
    # one step towards a dead-end DNF drops a term that the rest absorb
    def test_duplicate_term_removal_accepted(self):
        term = ec(3, 1, [1], [2])
        d = Dnf(3, 2, (term, term))
        assert absorbs(without(d, 0), term)
        assert without(d, 0) == Dnf(3, 2, (term,))

    def test_needed_term_rejected_with_witness(self, handwritten_pair):
        witness = absorption_witness(without(handwritten_pair, 1), handwritten_pair.terms[1])
        assert witness in {(1, 2, 1), (1, 2, 2)}
        assert handwritten_pair.terms[1].value_at(witness) == 1

    def test_redundant_maximal_term_removal(self, star_example):
        pool = reduced_dnf(star_example).dnf
        # the middle term (x1=1, x2 in {1,2}, x3=1) is covered by the others
        index = next(
            i for i, t in enumerate(pool.terms)
            if t.interval.factors == (0b010, 0b110, 0b010)
        )
        assert absorbs(without(pool, index), pool.terms[index])
        assert dnf_function(without(pool, index)) == star_example

    def test_acceptance_iff_absorption(self):
        # dropping a term keeps the function exactly when the rest absorb it
        rng = random.Random(37)
        for _ in range(30):
            f = KFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            pool = reduced_dnf(f).dnf
            for i in range(len(pool.terms)):
                kept = dnf_function(without(pool, i)) == f
                assert kept == absorbs(without(pool, i), pool.terms[i])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: absorbs_zero_free([ec(3, 1, [1], [1])], ec(3, 1, [1])), "term and conjunction shape mismatch"),
        (lambda f: absorbs_zero_free([ec(4, 1, [1])], ec(3, 1, [1])), "term and conjunction shape mismatch"),
        (lambda f: cover_instance(KFunction(3, 2, bytes(9)), reduced_dnf(f)), "pool and function shape mismatch"),
        (lambda f: cover_instance(KFunction(2, 3, bytes(8)), reduced_dnf(f)), "pool and function shape mismatch"),
    ],
    ids=["term of another dimension", "term of another alphabet", "pool of another dimension",
         "pool of another alphabet"],
)
def test_shape_mismatches_rejected(star_example, call, message):
    with pytest.raises(ValueError) as err:
        call(star_example)
    assert str(err.value) == message


class TestCoverInstance:
    def test_levels_cover_their_universe(self, star_example):
        inst = cover_instance(star_example, reduced_dnf(star_example))
        assert [lvl.gamma for lvl in inst.levels] == [1]
        level = inst.levels[0]
        everywhere = sum(1 << encode_point(p, level.k) for p in level.universe)
        assert functools.reduce(operator.or_, level.covers) == everywhere

    def test_rejects_non_realizing_pool(self, star_example):
        with pytest.raises(ValueError):
            cover_instance(KFunction(3, 3, bytes([2]) * 3**3), reduced_dnf(star_example))

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 3), (4, 2)])
    def test_covers_match_pointwise_reference(self, k, n):
        rng = random.Random(9000 + 10 * k + n)
        for _ in range(20):
            f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            inst = cover_instance(f, reduced_dnf(f))
            for level in inst.levels:
                assert level.universe == tuple(p for p in all_points(k, n) if f.value(p) == level.gamma)
                for t, c in zip(level.candidates, level.covers, strict=True):
                    reference = sum(
                        1 << encode_point(p, k) for p in level.universe if t.interval.contains_point(p)
                    )
                    assert c == reference

    @pytest.mark.parametrize("undefined", [0, 1, 27])
    def test_partial_functions_refused_by_every_entry_point(self, star_example, undefined):
        # undefined=0 is a partial function defined at every point
        func = PartialKFunction(3, 3, star_example.table[: 27 - undefined] + bytes([UNDEFINED]) * undefined)
        pool = reduced_dnf(func)
        for call in (lambda: cover_instance(func, pool), lambda: dead_end_dnfs(func, pool),
                     lambda: minimize_dnf(func), lambda: minimize_dnf(func, METRIC_RANK)):
            with pytest.raises(ValueError, match=r"needs a total function \(KFunction\)"):
                call()

    @pytest.mark.parametrize("metric", [METRIC_TERMS, METRIC_RANK])
    def test_minimize_refuses_a_partial_function_before_reducing(self, star_example, monkeypatch, metric):
        def no_reduce(f):
            raise AssertionError("reduced a function that minimize_dnf refuses")

        monkeypatch.setattr(kdnf.minimize, "reduced_dnf", no_reduce)
        func = PartialKFunction(3, 3, star_example.table)
        with pytest.raises(ValueError, match=r"needs a total function \(KFunction\)"):
            minimize_dnf(func, metric)

    def test_raises_exactly_when_the_pool_does_not_realize(self):
        def perturbed(f, d):
            """(function, DNF) pairs one change away from (f, d)."""
            for i in range(len(d.terms)):
                yield f, without(d, i)
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
            f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            pool = reduced_dnf(f)
            for g, d in perturbed(f, pool.dnf):
                realizes = dnf_function(d) == g
                outcomes.add(realizes)
                if realizes:
                    cover_instance(g, ReducedDnf(d, pool.levels))
                else:
                    with pytest.raises(ValueError, match="does not realize"):
                        cover_instance(g, ReducedDnf(d, pool.levels))
        assert outcomes == {True, False}
