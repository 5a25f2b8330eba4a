"""Tests of the benchmark's answer checker: it accepts right answers and
rejects the wrong ones a broken kdnf could print.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import instances as I  # noqa: E402

# value 1 on five points of the k=3 n=3 lattice, 0 elsewhere
EXAMPLE = I.from_callable(
    3, 3, lambda p: int(p in {(0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2)})
)
REDUCED = [
    "J{1}(x1)*J{2}(x2)*J{1,2}(x3)->1",
    "J{1}(x1)*J{1,2}(x2)*J{1}(x3)->1",
    "J{1}(x2)*J{1}(x3)->1",
]
DEAD_END = [REDUCED[0], REDUCED[2]]


def text(lines):
    return "".join(line + "\n" for line in lines)


def test_accepts_the_reduced_dnf():
    assert checker.check_reduce(EXAMPLE, text(REDUCED)) is None


def test_rejects_a_reduced_dnf_with_one_term_dropped():
    reason = checker.check_reduce(EXAMPLE, text(REDUCED[1:]))
    assert reason is not None and "DNF gives 0 at (1, 2, 2)" in reason


def test_rejects_a_non_maximal_term():
    # constant 1 at k=2 n=1 realized by two half terms: right values, but
    # neither term is maximal in the carrier
    reason = checker.check_reduce(I.constant(2, 1), "J{0}(x1)->1\nJ{1}(x1)->1\n")
    assert reason is not None and "not maximal" in reason


def test_rejects_a_term_outside_its_carrier():
    reason = checker.check_reduce(EXAMPLE, text(REDUCED[:2] + ["J{1}(x3)->1"]))
    assert reason is not None and "leaves its carrier" in reason


def test_partial_functions_treat_undefined_points_as_free():
    t = I.Table(2, 2, defined=(((0, 0), 0), ((1, 1), 1)))
    assert checker.check_reduce(t, "J{1}(x1)->1\nJ{1}(x2)->1\n") is None
    assert "not maximal" in checker.check_reduce(t, "J{1}(x1)*J{1}(x2)->1\n")


def test_accepts_the_dead_end_dnf():
    assert checker.check_deadend(EXAMPLE, "# dead-end dnfs: 1\n# 1\n" + text(DEAD_END)) is None


def test_rejects_a_redundant_dead_end_term():
    reason = checker.check_deadend(EXAMPLE, "# dead-end dnfs: 1\n# 1\n" + text(REDUCED))
    assert reason == "a dead-end DNF has a redundant term"


def test_rejects_a_dead_end_count_that_disagrees_with_the_list():
    reason = checker.check_deadend(EXAMPLE, "# dead-end dnfs: 2\n# 1\n" + text(DEAD_END))
    assert reason is not None


def test_minimize_checks_the_objective_and_the_reference():
    out = text(DEAD_END) + "objective: 9\n"
    assert checker.check_minimize(EXAMPLE, out, "rank", 9) is None
    assert "reference" in checker.check_minimize(EXAMPLE, out, "rank", 8)
    assert "printed objective" in checker.check_minimize(EXAMPLE, text(DEAD_END) + "objective: 2\n", "rank", None)
    assert "DNF gives" in checker.check_minimize(EXAMPLE, text(DEAD_END[1:]) + "objective: 1\n", "terms", None)


def test_monotone_verdicts_follow_the_pair_scan():
    no = "monotone: no\nbelow: 0 1 1 -> 1\nabove: 0 2 1 -> 0\n"
    assert checker.check_monotone(EXAMPLE, "total", no) is None
    assert checker.check_monotone(EXAMPLE, "total", "monotone: yes\n") is not None
    fake = "monotone: no\nbelow: 0 0 0 -> 0\nabove: 0 1 1 -> 1\n"
    assert checker.check_monotone(EXAMPLE, "total", fake) == "witness pair is not a violation"
    assert checker.check_monotone(I.constant(3, 2), "star", "monotone: yes\n") is None


def test_counts_match_the_enumerations():
    assert checker.star_count_k3n2() == 197 == len(I.all_star_monotone(3, 2))
    assert len(I.all_chain_monotone(3, 2)) == checker.KNOWN_COUNTS[("total", 3, 2)]
    assert len(I.all_chain_monotone(2, 4)) == checker.KNOWN_COUNTS[("total", 2, 4)]


def test_absorb_needs_the_first_uncovered_point():
    terms = [((2, 7), 1), ((4, 2), 1)]  # J{1}(x1) and J{2}(x1)*J{1}(x2) at k=3 n=2
    query = ((6, 2), 1)  # J{1,2}(x1)*J{1}(x2): covered by the two terms together
    assert checker.check_absorb(3, 2, terms, query, "yes\n") is None
    assert checker.check_absorbs_zero_free(3, 2, terms, query, "True\n") is None
    wider = ((6, 6), 1)  # J{1,2}(x1)*J{1,2}(x2): (2, 2) is left uncovered
    assert checker.check_absorb(3, 2, terms, wider, "no\nwitness: 2 2\n") is None
    assert checker.check_absorb(3, 2, terms, wider, "yes\n") is not None


def test_closed_forms():
    chain = I.chain_from_corners(3, 2, [((1, 0), 1), ((0, 2), 2), ((2, 1), 2)])
    # level 1: minimal points (1,0) and (0,2); (0,2) has value 2, so one term
    # at level 1; level 2: corners (0,2) and (2,1)
    assert checker.chain_closed_form(chain) == (3, 1 + 2 + 3)
    assert checker.closed_form("parity", I.parity(4)) == (8, 32)
