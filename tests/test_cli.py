import random
import re
import time
from pathlib import Path

import pytest

import kdnf.reduce
from kdnf import KFunction, PartialKFunction, dead_end_dnfs, reduced_dnf
from kdnf.cli import main
from kdnf.core import UNDEFINED
from kdnf.monotone import star_order, total_order
from kdnf.oracle import oracle_is_monotone
from kdnf.textio import parse_dnf, parse_function, print_dnf, print_function

from .instances import dnf_function, without

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "star_example.kfn")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_constant_one(capsys, tmp_path, command):
    """Stdout and seconds of a command on constant 1 over 2**20 points: a
    one-term answer, so no stage may build a per-point set."""
    path = tmp_path / "one.kfn"
    path.write_text("k=2 n=20 mode=total default=1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    return out, time.perf_counter() - start


class TestReduce:
    def test_star_example(self, capsys):
        code, out, _ = run(capsys, "reduce", EXAMPLE)
        assert code == 0
        assert "J{1}(x2)*J{1}(x3)->1\n" in out
        assert "J{1}(x1)*J{2}(x2)*J{1,2}(x3)->1\n" in out

    def test_partial_file(self, capsys, tmp_path):
        path = tmp_path / "p.kfn"
        path.write_text("k=3 n=1 mode=partial\n0 -> 0\n2 -> 1\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert out == "J{1,2}(x1)->1\n"

    def test_deterministic(self, capsys):
        first = run(capsys, "reduce", EXAMPLE)
        second = run(capsys, "reduce", EXAMPLE)
        assert first == second

    def test_constant_one_on_the_largest_lattice(self, capsys, tmp_path):
        out, seconds = run_on_constant_one(capsys, tmp_path, "reduce")
        assert out == "TRUE->1\n"
        assert seconds < 2.0


def seeded_file(tmp_path, k, n, defined, label):
    """A random table written as a file: total when defined is None, else
    partial with that share of its points defined."""
    rng = random.Random(label)
    table = [rng.randrange(k) for _ in range(k**n)]
    if defined is None:
        f = KFunction(k, n, table)
    else:
        keep = set(rng.sample(range(k**n), round(defined * k**n)))
        f = PartialKFunction(k, n, [v if i in keep else UNDEFINED for i, v in enumerate(table)])
    path = tmp_path / "f.kfn"
    path.write_text(print_function(f))
    return path


class TestReducePrintsTheLibraryAnswer:
    """kdnf reduce prints from the reduce stage's masks and builds no record;
    its bytes must be print_dnf's on the records reduced_dnf builds."""

    # k=16 has two-digit values; k=5 and k=8 are split and never sieved
    @pytest.mark.parametrize("k, n", [(2, 7), (3, 4), (4, 3), (5, 3), (16, 2), (8, 3), (2, 1), (16, 1)])
    @pytest.mark.parametrize("defined", [None, 0.3, 0.7])
    def test_seeded_tables(self, capsys, tmp_path, k, n, defined):
        path = seeded_file(tmp_path, k, n, defined, f"cli-reduce:{k}:{n}:{defined}")
        f = parse_function(path.read_text())
        assert run(capsys, "reduce", str(path)) == (0, print_dnf(reduced_dnf(f).dnf), "")

    @pytest.mark.parametrize(
        "text, out",
        [
            ("k=3 n=2 mode=total\n", "0\n"),
            ("k=5 n=3 mode=total default=1\n", "TRUE->1\n"),
            ("k=4 n=2 mode=partial\n", "0\n"),
            ("k=2 n=1 mode=partial\n1 -> 1\n", "TRUE->1\n"),
        ],
    )
    def test_constants(self, capsys, tmp_path, text, out):
        path = tmp_path / "c.kfn"
        path.write_text(text)
        assert run(capsys, "reduce", str(path)) == (0, out, "")
        assert print_dnf(reduced_dnf(parse_function(text)).dnf) == out

    def test_cap_is_charged_as_in_the_library(self, capsys, tmp_path, monkeypatch):
        # random k=5 n=3 (s4 seed 1) takes exactly 2635 units and has 193 terms
        # (tests/test_reduce.py pins both)
        rng = random.Random("s4:5:3:1")
        path = tmp_path / "f.kfn"
        path.write_text(print_function(KFunction(5, 3, [rng.randrange(5) for _ in range(125)])))
        monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", 2635)
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0 and out.count("\n") == 193
        monkeypatch.setattr(kdnf.reduce, "REDUCE_CAP", 2634)
        assert run(capsys, "reduce", str(path)) == (
            3, "", "kdnf: capacity error: reduce stage: maximal-interval work passed the cap 2634\n")

    def test_table_past_the_cap_exits_3(self, capsys, tmp_path):
        # k=16 n=3, 1 on a random 90% of the lattice: the cofactor closure passes the cap
        rng = random.Random("cli-reduce-cap")
        path = tmp_path / "f.kfn"
        path.write_text(print_function(KFunction(16, 3, [int(rng.random() < 0.9) for _ in range(16**3)])))
        assert run(capsys, "reduce", str(path)) == (
            3, "", "kdnf: capacity error: reduce stage: maximal-interval work passed the cap 1000000\n")


class TestMinimize:
    def test_objective_two(self, capsys):
        code, out, _ = run(capsys, "minimize",EXAMPLE, "--metric", "terms")
        assert code == 0
        assert out.endswith("objective: 2\n")
        assert out.count("->1\n") == 2

    def test_rank_metric(self, capsys):
        code, out, _ = run(capsys, "minimize", EXAMPLE, "--metric", "rank")
        assert code == 0
        assert out.endswith("objective: 9\n")

    def test_partial_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.kfn"
        path.write_text("k=2 n=1 mode=partial\n0 -> 0\n")
        code, _, err = run(capsys, "minimize", str(path))
        assert code == 1 and "total" in err

    def test_constant_one_on_the_largest_lattice(self, capsys, tmp_path):
        out, seconds = run_on_constant_one(capsys, tmp_path, "minimize")
        assert out == "TRUE->1\nobjective: 1\n"
        assert seconds < 2.0

    @pytest.mark.parametrize(
        "k, n, label", [(2, 8, "2:8:4"), (3, 5, "3:5:1"), (4, 4, "4:4:0"), (2, 13, "2:13:0")]
    )
    def test_dense_random_answers_or_refuses_in_bounded_time(self, capsys, tmp_path, k, n, label):
        # the budget counts the search's work, so the call ends soon either
        # way; every table but the k=2 n=8 one passes the cap, so refusals
        # are timed too, the n=13 one on 6398 candidate terms
        rng = random.Random(label)
        f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
        path = tmp_path / "dense.kfn"
        path.write_text(print_function(f))
        start = time.perf_counter()
        code, out, err = run(capsys, "minimize", str(path))
        assert time.perf_counter() - start < 3.0
        if code == 0:
            *terms, objective = out.splitlines()
            d = parse_dnf(f"k={k} n={n}\n" + "\n".join(terms) + "\n")
            assert dnf_function(d) == f
            assert objective == f"objective: {len(terms)}"
        else:
            assert code == 3
            assert "minimization search exceeded the node cap" in err


class TestDeadend:
    def test_star_example(self, capsys):
        code, out, _ = run(capsys, "deadend", EXAMPLE)
        assert code == 0
        assert out.startswith("# dead-end dnfs: 1\n# 1\n")
        assert "J{1}(x2)*J{1}(x3)->1\n" in out

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "deadend", EXAMPLE, "--limit", "0")
        assert code == 0
        assert out == "# dead-end dnfs: 1\n"

    def test_negative_limit_is_usage_error(self, capsys):
        code, _, err = run(capsys, "deadend", EXAMPLE, "--limit", "-3")
        assert code == 1 and "--limit" in err

    def test_constant_one_on_the_largest_lattice(self, capsys, tmp_path):
        out, seconds = run_on_constant_one(capsys, tmp_path, "deadend")
        assert out == "# dead-end dnfs: 1\n# 1\nTRUE->1\n"
        assert seconds < 2.0

    @pytest.mark.parametrize("n", [8, 10])
    def test_parity_has_the_reduced_dnf_as_its_one_dead_end(self, capsys, tmp_path, n):
        # every term is essential, though the level has 2**(n-1) candidates
        path = tmp_path / "parity.kfn"
        path.write_text(print_function(KFunction(2, n, [bin(p).count("1") % 2 for p in range(2**n)])))
        code, reduced, _ = run(capsys, "reduce", str(path))
        assert code == 0
        code, out, _ = run(capsys, "deadend", str(path))
        assert code == 0
        assert out == "# dead-end dnfs: 1\n# 1\n" + reduced

    @pytest.mark.parametrize("k, n, label", [(2, 8, "2:8:0"), (2, 8, "2:8:1"), (4, 3, "4:3:0"), (4, 3, "4:3:2")])
    def test_dense_random_answers_or_refuses_in_bounded_time(self, capsys, tmp_path, k, n, label):
        # the budget counts search nodes, scanned rows and the terms of the
        # DNFs to be built, so the call ends soon either way
        rng = random.Random(label)
        f = KFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
        path = tmp_path / "dense.kfn"
        path.write_text(print_function(f))
        start = time.perf_counter()
        code, out, err = run(capsys, "deadend", str(path))
        assert time.perf_counter() - start < 3.0
        if code == 0:
            lines = out.splitlines()
            assert lines[0].startswith("# dead-end dnfs: ") and lines[1] == "# 1"
            end = next((i for i, line in enumerate(lines[2:], 2) if line.startswith("# ")), len(lines))
            d = parse_dnf(f"k={k} n={n}\n" + "\n".join(lines[2:end]) + "\n")
            assert dnf_function(d) == f
        else:
            assert code == 3
            assert "dead-end" in err and "cap 1000000" in err


class TestDeadendLimit:
    """--limit L prints the full answer's header and its first L dead ends,
    and charges only their terms, so it answers past the product cap."""

    @pytest.mark.parametrize(
        "text",
        [
            "k=3 n=2 mode=total\n",  # constant 0: one dead end, printed as 0
            "k=4 n=2 mode=total default=3\n",
            (DATA / "star_example.kfn").read_text(),
            print_function(KFunction(3, 3, [random.Random("limit:3:3").randrange(3) for _ in range(27)])),
            print_function(KFunction(2, 5, [random.Random("limit:2:5").randrange(2) for _ in range(32)])),
            print_function(KFunction(4, 2, [random.Random("limit:4:2").randrange(4) for _ in range(16)])),
        ],
    )
    def test_first_blocks_of_the_full_answer(self, capsys, tmp_path, text):
        path = tmp_path / "f.kfn"
        path.write_text(text)
        code, out, _ = run(capsys, "deadend", str(path))
        assert code == 0
        header, *blocks = re.split(r"(?m)^(?=# \d+$)", out)
        assert header == f"# dead-end dnfs: {len(blocks)}\n"
        for limit in sorted({0, 1, 2, 5, len(blocks) - 1, len(blocks), len(blocks) + 3}):
            assert run(capsys, "deadend", str(path), "--limit", str(limit)) == (0, header + "".join(blocks[:limit]), "")

    def test_answers_past_the_product_cap(self, capsys, tmp_path):
        rng = random.Random("s4:4:3:0")
        f = KFunction(4, 3, [rng.randrange(4) for _ in range(64)])
        path = tmp_path / "f.kfn"
        path.write_text(print_function(f))
        assert run(capsys, "deadend", str(path)) == (3, "", "kdnf: capacity error: 3970512 dead-end DNFs of "
                                                             "103049568 terms in all exceed the cap 1000000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "deadend", str(path), "--limit", "5")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        header, *blocks = re.split(r"(?m)^(?=# \d+$)", out)
        assert header == "# dead-end dnfs: 3970512\n" and len(blocks) == 5
        assert [block.split("\n", 1)[0] for block in blocks] == [f"# {i}" for i in range(1, 6)]
        ends = [parse_dnf("k=4 n=3\n" + block.split("\n", 1)[1]) for block in blocks]
        # each realizes f, loses it without any one term, and comes in canonical order
        assert all(dnf_function(d) == f for d in ends)
        assert all(dnf_function(without(d, i)) != f for d in ends for i in range(len(d.terms)))
        keys = [[t.sort_key() for t in d.terms] for d in ends]
        assert all(key == sorted(key) for key in keys) and all(a < b for a, b in zip(keys, keys[1:]))

    def test_a_level_past_the_cap_still_refuses(self, capsys, tmp_path):
        rng = random.Random("s4:3:4:0")
        path = tmp_path / "f.kfn"
        path.write_text(print_function(KFunction(3, 4, [rng.randrange(3) for _ in range(81)])))
        assert run(capsys, "deadend", str(path), "--limit", "5") == (
            3, "", "kdnf: capacity error: level 1: dead-end enumeration exceeded the work cap 1000000\n")


class TestDeadendPrintsTheLibraryAnswer:
    @staticmethod
    def reference(f, limit):
        ends = dead_end_dnfs(f, reduced_dnf(f))
        shown = "".join(f"# {i}\n" + print_dnf(d) for i, d in enumerate(ends[:limit], 1))
        return f"# dead-end dnfs: {len(ends)}\n" + shown

    # 40, 56 and 20 dead ends
    @pytest.mark.parametrize("k, n, label", [(2, 6, "deadend:2:6:0"), (3, 3, "deadend:3:3:0"), (4, 2, "deadend:4:2:3")])
    @pytest.mark.parametrize("limit", [None, 0, 1, 7, 100])
    def test_seeded_tables(self, capsys, tmp_path, k, n, label, limit):
        path = seeded_file(tmp_path, k, n, None, label)
        f = parse_function(path.read_text())
        argv = ["deadend", str(path)] + ([] if limit is None else ["--limit", str(limit)])
        assert run(capsys, *argv) == (0, self.reference(f, limit), "")


class TestAbsorb:
    def test_yes(self, capsys, tmp_path):
        path = tmp_path / "d.dnf"
        path.write_text("k=3 n=3\nJ{1}(x2)*J{1}(x3)->1\nJ{1}(x1)*J{2}(x2)*J{1,2}(x3)->1\n")
        code, out, _ = run(capsys, "absorb", str(path), "J{1}(x1)*J{1,2}(x2)*J{1}(x3)->1")
        assert code == 0 and out == "yes\n"

    @pytest.mark.parametrize("term", ["J{1}(x2)->one", "TRUE->", "TRUE->1.5"])
    def test_gamma_that_is_not_an_integer_is_a_parse_error(self, capsys, tmp_path, term):
        path = tmp_path / "d.dnf"
        path.write_text("k=3 n=3\nJ{1}(x2)*J{1}(x3)->1\n")
        assert run(capsys, "absorb", str(path), term) == (2, "", "kdnf: parse error: line 1: gamma must be an integer\n")

    def test_no_with_witness(self, capsys, tmp_path):
        path = tmp_path / "d.dnf"
        path.write_text("k=3 n=3\nJ{1}(x2)*J{1}(x3)->1\n")
        code, out, _ = run(capsys, "absorb", str(path), "J{1}(x1)*J{2}(x2)*J{1,2}(x3)->1")
        assert code == 0
        assert out.splitlines()[0] == "no"
        assert out.splitlines()[1] in ("witness: 1 2 1", "witness: 1 2 2")


class TestMonotone:
    def test_star_order_verdict_matches_oracle(self, capsys, star_example):
        code, out, _ = run(capsys, "monotone", EXAMPLE, "--order", "star")
        assert code == 0
        expected = oracle_is_monotone(star_example, star_order(3))
        assert out.splitlines()[0] == f"monotone: {'yes' if expected else 'no'}"

    def test_total_order_verdict_matches_oracle(self, capsys, star_example):
        code, out, _ = run(capsys, "monotone", EXAMPLE)
        assert code == 0
        expected = oracle_is_monotone(star_example, total_order(3))
        verdict = out.splitlines()[0]
        assert verdict == f"monotone: {'yes' if expected else 'no'}"
        if not expected:
            assert out.splitlines()[1].startswith("below: ")
            assert out.splitlines()[2].startswith("above: ")


class TestCountEstimate:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "-k", "2", "-n", "2")
        assert code == 0 and out == "count: 6\n"

    def test_count_star(self, capsys):
        code, out, _ = run(capsys, "count", "-k", "3", "-n", "1", "--order", "star")
        assert code == 0 and out == "count: 11\n"

    def test_count_capacity(self, capsys):
        code, _, err = run(capsys, "count", "-k", "3", "-n", "3")
        assert code == 3 and "capacity" in err

    def test_estimate(self, capsys):
        code, out, _ = run(capsys, "estimate", "-k", "3", "-n", "1")
        assert code == 0
        assert out.splitlines()[0] == "log2(psi) ≈ 2.53885 (d=2, D=0.222222)"

    def test_count_past_the_table_cap(self, capsys):
        code, out, err = run(capsys, "count", "-k", "2", "-n", "2000")
        assert code == 3 and out == ""
        assert err.startswith("kdnf: capacity error: ")

    def test_count_negative_dimension_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "-k", "3", "-n", "-1")
        assert code == 1 and out == ""
        assert err == "kdnf: error: dimension n=-1 must be >= 1\n"

    def test_estimate_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "estimate", "-k", "3", "-n", "1000")
        assert code == 3 and out == ""
        assert err.startswith("kdnf: capacity error: ")


class TestExitCodes:
    def test_usage_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_usage_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", EXAMPLE, "--metric", "letters"])
        assert exc.value.code == 1

    def test_usage_missing_file(self, capsys):
        code, _, err = run(capsys, "reduce", "/nonexistent/path.kfn")
        assert code == 1 and "cannot read" in err

    @pytest.mark.parametrize("name", ["missing.kfn", "."])
    def test_unreadable_file_names_the_os_error(self, capsys, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(OSError) as exc:
            path.read_text(encoding="utf-8")
        assert run(capsys, "reduce", str(path)) == (1, "", f"kdnf: error: cannot read {path}: {exc.value}\n")

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.kfn"
        path.write_text("k=3 n=2 mode=total\n9 9 -> 1\n")
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 2 and "parse error" in err

    def test_huge_dimension_refused_before_any_table(self, capsys, tmp_path):
        path = tmp_path / "huge.kfn"
        path.write_text("k=3 n=10000000 mode=total\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 3 and "dense-table cap" in err
        assert time.perf_counter() - start < 1.0

    def test_success_code(self, capsys):
        code, _, _ = run(capsys, "estimate", "-k", "2", "-n", "1")
        assert code == 0
