import random
import re

import pytest
from hypothesis import given

from kdnf import (
    CapacityError,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    PartialKFunction,
    ParseError,
    parse_dnf,
    parse_function,
    parse_term,
    print_dnf,
    print_function,
    reduced_dnf,
)
import kdnf.textio
from kdnf.cli import main
from kdnf.core import all_points, check_shape, mask_values
from kdnf.textio import _parse_canonical

from .conftest import STAR_EXAMPLE_POINTS, ec, kfunctions
from .instances import canonical

EXAMPLE_TEXT = (
    "k=3 n=3 mode=total\n"
    "0 1 1 -> 1\n"
    "1 1 1 -> 1\n"
    "1 2 1 -> 1\n"
    "2 1 1 -> 1\n"
    "1 2 2 -> 1\n"
)


class TestParseFunction:
    def test_star_example(self, star_example):
        assert parse_function(EXAMPLE_TEXT) == star_example

    def test_empty_body_is_constant_default(self):
        f = parse_function("k=2 n=1 mode=total\n")
        assert f == KFunction(2, 1, bytes(2**1))

    def test_total_default_value(self):
        f = parse_function("k=3 n=1 mode=total default=2\n0 -> 1\n")
        assert f.table == bytes([1, 2, 2])

    def test_partial(self):
        func = parse_function("k=3 n=1 mode=partial\n0 -> 0\n2 -> 1\n")
        assert isinstance(func, PartialKFunction)
        assert func.value((0,)) == 0 and func.value((2,)) == 1
        assert func.value((1,)) is None

    def test_comments_and_blanks(self):
        f = parse_function("# a function\nk=2 n=1 mode=total\n\n1 -> 1  # top point\n")
        assert f.table == bytes([0, 1])

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "header"),
            ("k=3 n=2\n", "malformed header"),
            ("k=1 n=2 mode=total\n", "outside"),
            ("k=40 n=2 mode=total\n", "outside"),
            ("k=3 n=0 mode=total\n", ">= 1"),
            ("k=3 n=2 mode=partial default=1\n", "total mode"),
            ("k=3 n=2 mode=total default=3\n", ">= k"),
            ("k=3 n=2 mode=total\n1 -> 1\n", "expected 2 coordinates"),
            ("k=3 n=2 mode=total\n1 3 -> 1\n", "coordinate 3 >= k"),
            ("k=3 n=2 mode=total\n1 1 -> 3\n", "value 3 >= k"),
            ("k=3 n=2 mode=total\n-1 2 -> 1\n", "line 2: coordinate -1 outside [0, 2]"),
            ("k=3 n=2 mode=total\n1 1 -> -1\n", "line 2: value -1 outside [0, 2]"),
            ("k=3 n=2 mode=total\n1 1 -> 1\n1 1 -> 2\n", "duplicate point"),
            ("k=3 n=2 mode=total\na b -> 1\n", "integers"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_function(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_function("k=3 n=2 mode=total\n0 0 -> 1\n0 9 -> 1\n")
        assert err.value.line_no == 3


def _reference_parse(text):
    """The validating loop parse_function had before it read canonical files
    straight into the table: every file takes it, and it names the first
    fault found.  A header past the table cap is refused before the body."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((i, line))
    if not lines:
        raise ParseError(1, "missing header")
    line_no, header = lines[0]
    m = re.match(r"k=(\d+)\s+n=(\d+)\s+mode=(total|partial)(?:\s+default=(\d+))?\s*$", header)
    if not m:
        raise ParseError(line_no, "malformed header, expected 'k=K n=N mode=total|partial'")
    k, n, mode = int(m.group(1)), int(m.group(2)), m.group(3)
    default = int(m.group(4)) if m.group(4) is not None else None
    if not 2 <= k <= 16:
        raise ParseError(line_no, f"k={k} outside [2, 16]")
    if n < 1:
        raise ParseError(line_no, f"n={n} must be >= 1")
    if mode == "partial" and default is not None:
        raise ParseError(line_no, "default= is only meaningful in total mode")
    if default is None:
        default = 0
    if not 0 <= default < k:
        raise ParseError(line_no, f"default value {default} >= k")
    check_shape(k, n)
    assignments = {}
    for line_no, line in lines[1:]:
        if "->" not in line:
            raise ParseError(line_no, "expected 'x1 ... xn -> value'")
        left, _, right = line.partition("->")
        try:
            coords = tuple(int(tok) for tok in left.split())
            value = int(right.strip())
        except ValueError:
            raise ParseError(line_no, "coordinates and value must be integers") from None
        if len(coords) != n:
            raise ParseError(line_no, f"expected {n} coordinates, got {len(coords)}")
        for x in coords:
            if not 0 <= x < k:
                raise ParseError(line_no, f"coordinate {x} " + (">= k" if x >= k else f"outside [0, {k - 1}]"))
        if not 0 <= value < k:
            raise ParseError(line_no, f"value {value} " + (">= k" if value >= k else f"outside [0, {k - 1}]"))
        if coords in assignments:
            raise ParseError(line_no, f"duplicate point {' '.join(map(str, coords))}")
        assignments[coords] = value
    if mode == "total":
        return KFunction.from_map(k, n, assignments, default=default)
    return PartialKFunction.from_map(k, n, assignments)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, CapacityError) as err:
        return type(err), str(err)


def _canonical_files(k, seed):
    """Seeded canonical files of one alphabet, n <= 4: total with and without
    default=, partial, and header-only, listing points in a shuffled order."""
    rng = random.Random(f"canonical:{k}:{seed}")
    n = rng.choice([n for n in range(1, 5) if k**n <= 1000])
    points = rng.sample(list(all_points(k, n)), rng.randint(0, min(k**n, 40)))
    body = "".join(f"{' '.join(map(str, p))} -> {rng.randrange(k)}\n" for p in points)
    return [
        f"k={k} n={n} mode=total\n" + body,
        f"k={k} n={n} mode=total default={rng.randrange(k)}\n" + body,
        f"k={k} n={n} mode=partial\n" + body,
        f"k={k} n={n} mode=total\n",
        f"k={k} n={n} mode=partial\n",
    ]


def _corruptions(text, rng, count):
    """Copies of text with one byte replaced or deleted, or one line repeated."""
    alphabet = "0123456789 ->#\t\r\n+=kndx"
    lines = text.splitlines(keepends=True)
    for _ in range(count):
        i = rng.randrange(len(text))
        yield text[:i] + rng.choice(alphabet) + text[i + 1 :]
        yield text[:i] + text[i + 1 :]
        j = rng.randrange(len(lines))
        yield "".join(lines[: j + 1] + lines[j:])


class TestCanonicalPath:
    """parse_function reads canonical files straight into the table and
    must agree with the validating loop on every input."""

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("seed", range(3))
    def test_valid_files_read_directly_match_the_loop(self, k, seed, monkeypatch):
        expected = [_reference_parse(text) for text in _canonical_files(k, seed)]
        monkeypatch.setattr(kdnf.textio, "_parse_validating", None)  # the loop must not run
        for text, func in zip(_canonical_files(k, seed), expected):
            parsed = parse_function(text)
            assert type(parsed) is type(func) and parsed == func, text

    @pytest.mark.parametrize("k", range(2, 11))
    def test_corrupted_files_match_the_loop(self, k):
        rng = random.Random(f"corrupt:{k}")
        for text in _canonical_files(k, 0):
            for bad in _corruptions(text, rng, 30):
                assert _outcome(parse_function, bad) == _outcome(_reference_parse, bad), bad

    @pytest.mark.parametrize(
        "text",
        [
            "# comment\nk=2 n=2 mode=total\n1 1 -> 1\n",
            "k=2 n=2 mode=total  # header\n1 1 -> 1\n",
            "k=2 n=2 mode=total\n\n1 1 -> 1\n",
            "k=2 n=2 mode=total\r\n1 1 -> 1\r\n",
            "k=2 n=2 mode=total\n1\t1 -> 1\n",
            "k=2 n=2 mode=total\n+1 1 -> 1\n",
            "k=2 n=2 mode=total\n1 1 -> 1",
            "k=2  n=2 mode=total\n1 1 -> 1\n",
        ],
    )
    def test_irregular_valid_files_take_the_loop(self, text):
        assert _parse_canonical(text) is None
        assert parse_function(text) == _reference_parse(text) == KFunction(2, 2, bytes([0, 0, 0, 1]))

    @pytest.mark.parametrize("k", range(11, 17))
    def test_two_digit_alphabets_still_parse(self, k):
        rng = random.Random(f"wide:{k}")
        table = bytes(rng.randrange(k) for _ in range(k * k))
        text = print_function(KFunction(k, 2, table))
        assert _parse_canonical(text) is None
        assert parse_function(text) == _reference_parse(text) == KFunction(k, 2, table)

    def test_table_cap_is_checked_before_reading(self):
        with pytest.raises(CapacityError, match=r"^k\*\*n = 2\*\*30 exceeds the dense-table cap 1048576$"):
            parse_function("k=2 n=30 mode=total\n")

    def test_table_cap_is_checked_before_the_body(self):
        # the header's own faults come first, then the cap, then the body's
        text = "k=2 n=30 mode=total\n" + "0 " * 30 + "-> 1\n1 -> 1 -> 1\n"  # line 3 is malformed
        for parse in (parse_function, _reference_parse):
            with pytest.raises(CapacityError, match=r"^k\*\*n = 2\*\*30 exceeds the dense-table cap 1048576$"):
                parse(text)
        with pytest.raises(ParseError, match=r"^line 1: default value 2 >= k$"):
            parse_function("k=2 n=30 mode=total default=2\n1 -> 1 -> 1\n")
        with pytest.raises(ParseError, match=r"^line 1: default= is only meaningful in total mode$"):
            parse_function("k=2 n=30 mode=partial default=1\n1 -> 1 -> 1\n")


class TestPrintFunction:
    def test_canonical_sorted_body(self, star_example):
        text = print_function(star_example)
        assert text.splitlines()[0] == "k=3 n=3 mode=total"
        body = text.splitlines()[1:]
        assert body == sorted(body)
        assert len(body) == len(STAR_EXAMPLE_POINTS)

    def test_canonical_fixed_point(self, star_example):
        text = print_function(star_example)
        assert print_function(parse_function(text)) == text

    @given(kfunctions())
    def test_round_trip_total(self, f):
        assert parse_function(print_function(f)) == f

    def test_round_trip_partial(self):
        func = PartialKFunction.from_map(3, 2, {(0, 1): 2, (2, 2): 0})
        assert parse_function(print_function(func)) == func


class TestPrintDnf:
    def test_star_example_contains_handwritten_lines(self, star_example):
        out = print_dnf(reduced_dnf(star_example).dnf)
        assert "J{1}(x2)*J{1}(x3)->1\n" in out
        assert "J{1}(x1)*J{2}(x2)*J{1,2}(x3)->1\n" in out

    def test_canonical_order(self, star_example):
        out = print_dnf(reduced_dnf(star_example).dnf)
        assert out == (
            "J{1}(x1)*J{2}(x2)*J{1,2}(x3)->1\n"
            "J{1}(x1)*J{1,2}(x2)*J{1}(x3)->1\n"
            "J{1}(x2)*J{1}(x3)->1\n"
        )

    def test_empty_dnf(self):
        assert print_dnf(Dnf(3, 2)) == "0\n"

    def test_full_interval_term(self):
        assert print_dnf(Dnf(3, 2, (ec(3, 2, None, None),))) == "TRUE->2\n"


def reference_format_term(ec):
    """The printer before the per-call factor text cache: one f-string per factor."""
    full = (1 << ec.k) - 1
    parts = [
        f"J{{{','.join(map(str, mask_values(f)))}}}(x{j + 1})"
        for j, f in enumerate(ec.interval.factors)
        if f != full
    ]
    head = "*".join(parts) if parts else "TRUE"
    return f"{head}->{ec.gamma}"


def reference_print_dnf(d):
    if not d.terms:
        return "0\n"
    return "".join(reference_format_term(t) + "\n" for t in canonical(d).terms)


def seeded_dnf(k, n, seed, count):
    """Shuffled random terms, some repeated and some TRUE, over several gammas."""
    rng = random.Random(f"print:{k}:{n}:{seed}")
    full = (1 << k) - 1
    terms = []
    for _ in range(count):
        masks = tuple(full if rng.random() < 0.4 else rng.randrange(1, full + 1) for _ in range(n))
        if rng.random() < 0.05:
            masks = (full,) * n
        terms.append(ElementaryConjunction(Interval(k, masks), rng.randrange(1, k)))
    terms += rng.sample(terms, count // 10)
    rng.shuffle(terms)
    return Dnf(k, n, tuple(terms))


class TestPrintMatchesReference:
    @pytest.mark.parametrize("k,n", [(2, 3), (3, 4), (5, 2), (16, 5), (4, 10), (2, 20)])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_dnfs_print_byte_identically(self, k, n, seed):
        d = seeded_dnf(k, n, seed, 60)
        assert print_dnf(d) == reference_print_dnf(d)
        for t in d.terms:
            assert print_dnf(Dnf(k, n, (t,))) == reference_format_term(t) + "\n"

    def test_text_covers_two_digit_values_and_variables(self):
        values, variables = print_dnf(seeded_dnf(16, 5, 0, 60)), print_dnf(seeded_dnf(2, 20, 0, 60))
        assert "TRUE->" in values and "15}" in values and "->15" in values
        assert "(x10)" in variables and "(x20)" in variables

    def test_reversed_canonical_dnf_still_prints_sorted(self):
        d = canonical(seeded_dnf(16, 5, 1, 60))
        backwards = Dnf(d.k, d.n, d.terms[::-1])
        assert print_dnf(backwards) == print_dnf(d) == reference_print_dnf(d)
        assert print_dnf(d).splitlines() != [reference_format_term(t) for t in backwards.terms]

    def test_format_term_text(self):
        assert print_dnf(Dnf(16, 3, (ec(16, 15, [10, 15], None, [0, 9, 12]),))) == "J{10,15}(x1)*J{0,9,12}(x3)->15\n"
        assert print_dnf(Dnf(3, 2, (ec(3, 2, None, None),))) == "TRUE->2\n"


class TestParseDnf:
    def test_round_trip(self, star_example):
        d = reduced_dnf(star_example).dnf
        text = "k=3 n=3\n" + print_dnf(d)
        assert parse_dnf(text) == canonical(d)

    def test_empty(self):
        assert parse_dnf("k=3 n=2\n0\n") == Dnf(3, 2)
        assert parse_dnf("k=3 n=2\n") == Dnf(3, 2)

    def test_table_cap_is_checked_before_the_body(self, tmp_path, capsys):
        # the header's own faults come first, then the cap, then the body's
        text = "k=2 n=1000000\nTRUE->1\nTRUE->\n"  # line 3 is malformed
        with pytest.raises(CapacityError, match=r"^k\*\*n = 2\*\*1000000 exceeds the dense-table cap 1048576$"):
            parse_dnf(text)
        with pytest.raises(ParseError, match=r"^line 1: k=17 outside \[2, 16\]$"):
            parse_dnf("k=17 n=1000000\nTRUE->\n")
        path = tmp_path / "overcap.dnf"
        path.write_text(text)
        assert main(["absorb", str(path), "TRUE->1"]) == 3
        assert capsys.readouterr().err == "kdnf: capacity error: k**n = 2**1000000 exceeds the dense-table cap 1048576\n"

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_dnf, "", "line 1: missing header"),
            (parse_dnf, "# comments only\n\n", "line 1: missing header"),
            (parse_dnf, "\nk=3\nTRUE->1\n", "line 2: malformed header, expected 'k=K n=N'"),
            (parse_dnf, "k=3 n=2 mode=total\n", "line 1: malformed header, expected 'k=K n=N'"),
            (parse_dnf, "# c\nk=3 n=0\nTRUE->1\n", "line 2: n=0 must be >= 1"),
            (parse_dnf, "k=3 n=2\nJ{1}(x1)->one\n", "line 2: gamma must be an integer"),
            (lambda text: parse_term(text, 3, 2), "TRUE->", "line 1: gamma must be an integer"),
            (lambda text: parse_term(text, 3, 2, 7), "J{1}(x2)->1.0", "line 7: gamma must be an integer"),
        ],
    )
    def test_header_and_gamma_faults_name_their_line(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_term_round_trip(self):
        term = ec(4, 3, [1, 3], None, [0, 2])
        assert parse_term(print_dnf(Dnf(4, 3, (term,))), 4, 3) == term

    @pytest.mark.parametrize(
        "text",
        [
            "k=3 n=2\nJ{1}(x3)->1\n",      # variable out of range
            "k=3 n=2\nJ{3}(x1)->1\n",      # value >= k
            "k=3 n=2\nJ{1}(x1)->0\n",      # gamma 0 is identically zero
            "k=3 n=2\nJ{1}(x1)->3\n",      # gamma >= k
            "k=3 n=2\nJ{1}(x1)*J{2}(x1)->1\n",  # repeated variable
            "k=3 n=2\nJ{}(x1)->1\n",       # empty factor
            "k=3 n=2\nnonsense\n",
            "k=3 n=2\n0\nJ{1}(x1)->1\n",   # 0 must stand alone
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_dnf(text)
