"""Line-oriented text formats for functions, DNFs, and terms.

Function file:
    header   :=  "k=" int " n=" int " mode=" ("total" | "partial") ["default=" int]
    line     :=  int{n, space separated} " -> " int
    comments start with "#"; blank lines are ignored.
In total mode unlisted points take the header default (0 when absent); in
partial mode unlisted points are undefined and "default=" is rejected.
A canonical file (k <= 10, the header alone on the first line, every body
line as print_function writes it, no point listed twice) is read straight
into the dense table.  Any other file goes through a loop that validates
line by line, which also gives every ParseError its text and line number.

DNF file:
    header   :=  "k=" int " n=" int
    term     :=  ("TRUE" | factor ("*" factor)*) "->" gamma
    factor   :=  "J{" int ("," int)* "}(x" index ")"
Variables are 1-indexed; full factors are omitted when printing and a term
with no factors prints as "TRUE".  The empty DNF prints as the single line
"0".  Printing is canonical (sorted terms, sorted body lines) so equal
objects render byte-identically.  print_dnf prints a Dnf's records; the CLI's
reduce prints the reduce stage's factor masks and builds no record.
"""

from __future__ import annotations

import itertools
import re

from .core import (
    UNDEFINED,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    PartialKFunction,
    _fits_table,
    all_points,
    check_shape,
    mask_values,
)

_HEADER_RE = re.compile(
    r"k=(\d+)\s+n=(\d+)\s+mode=(total|partial)(?:\s+default=(\d+))?\s*$"
)
_CANONICAL_HEADER_RE = re.compile(r"k=([0-9]{1,2}) n=([0-9]{1,2}) mode=(?:total(?: default=([0-9]))?|(partial))")
_DNF_HEADER_RE = re.compile(r"k=(\d+)\s+n=(\d+)\s*$")
_FACTOR_RE = re.compile(r"J\{(\d+(?:,\d+)*)\}\(x(\d+)\)$")


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _header(text: str, pattern: re.Pattern, expected: str) -> tuple[list[tuple[int, str]], re.Match, int, int]:
    """A file's numbered content lines, its header's match, and the k and n it names, checked."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((i, line))
    if not lines:
        raise ParseError(1, "missing header")
    line_no, header = lines[0]
    m = pattern.match(header)
    if not m:
        raise ParseError(line_no, f"malformed header, expected '{expected}'")
    k, n = int(m.group(1)), int(m.group(2))
    if not 2 <= k <= 16:
        raise ParseError(line_no, f"k={k} outside [2, 16]")
    if n < 1:
        raise ParseError(line_no, f"n={n} must be >= 1")
    return lines, m, k, n


def parse_function(text: str) -> KFunction | PartialKFunction:
    """Parse a function file into a total or partially defined function."""
    func = _parse_canonical(text)
    return _parse_validating(text) if func is None else func


def _body_pattern(k: int, n: int) -> str:
    """Body of canonical lines: n digits below k, " -> ", a digit below k.

    Each line is spelled out digit by digit, so the regex engine repeats one
    fixed-width item and keeps no backtracking state per line."""
    digit = f"[0-{k - 1}]"
    return f"(?:{' '.join([digit] * n)} -> {digit}\n)*"


def _parse_canonical(text: str) -> KFunction | PartialKFunction | None:
    """The function of a canonical file, read straight into its table; None
    when anything is irregular, so that _parse_validating judges the file.

    Canonical means k <= 10, the header alone on the first line, and every
    body line as print_function writes it, with no point listed twice."""
    header, _, body = text.partition("\n")
    m = _CANONICAL_HEADER_RE.fullmatch(header)
    if m is None:
        return None
    k, n, partial = int(m[1]), int(m[2]), m[4] is not None
    fill = UNDEFINED if partial else int(m[3] or 0)
    if not (2 <= k <= 10 and n >= 1 and _fits_table(k, n) and (partial or fill < k)):
        return None
    if re.fullmatch(_body_pattern(k, n), body) is None:
        return None
    rows = body.replace(" -> ", "").replace(" ", "").split()
    values = {x // k: x % k for x in map(int, rows, itertools.repeat(k))}
    if len(values) != len(rows):
        return None  # a point listed twice
    table = bytearray([fill]) * k**n
    for i, v in values.items():
        table[i] = v
    return (PartialKFunction if partial else KFunction)(k, n, table)


def _parse_validating(text: str) -> KFunction | PartialKFunction:
    """Parse any function file line by line, naming the first fault found."""
    lines, m, k, n = _header(text, _HEADER_RE, "k=K n=N mode=total|partial")
    line_no, mode, default = lines[0][0], m.group(3), int(m.group(4) or 0)
    if mode == "partial" and m.group(4) is not None:
        raise ParseError(line_no, "default= is only meaningful in total mode")
    if not 0 <= default < k:
        raise ParseError(line_no, f"default value {default} >= k")
    check_shape(k, n)  # the table cap, before any body line is read

    table = bytearray([UNDEFINED if mode == "partial" else default]) * k**n
    seen = bytearray(k**n)
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
        idx = 0
        for x in coords:
            if not 0 <= x < k:
                raise ParseError(line_no, f"coordinate {x} {_out_of_range(x, k)}")
            idx = idx * k + x
        if not 0 <= value < k:
            raise ParseError(line_no, f"value {value} {_out_of_range(value, k)}")
        if seen[idx]:
            raise ParseError(line_no, f"duplicate point {' '.join(map(str, coords))}")
        seen[idx] = 1
        table[idx] = value
    return (KFunction if mode == "total" else PartialKFunction)(k, n, table)


def _out_of_range(x: int, k: int) -> str:
    return ">= k" if x >= k else f"outside [0, {k - 1}]"


def print_function(func: KFunction | PartialKFunction) -> str:
    """Canonical text: header plus one body line per listed point, in point
    order.  A total function lists its nonzero points, a partial one its
    defined points."""
    mode, skip = ("total", 0) if isinstance(func, KFunction) else ("partial", UNDEFINED)
    lines = [f"k={func.k} n={func.n} mode={mode}"]
    for p, v in zip(all_points(func.k, func.n), func.table):
        if v != skip:
            lines.append(f"{' '.join(map(str, p))} -> {v}")
    return "\n".join(lines) + "\n"


class _AxisTexts(dict):
    """Text of each factor mask of one variable: "*J{...}(xj)", empty when full."""

    def __init__(self, j: int, k: int):
        self.variable, self.full = f"(x{j + 1})", (1 << k) - 1

    def __missing__(self, mask: int) -> str:
        text = self[mask] = "" if mask == self.full else f"*J{{{','.join(map(str, mask_values(mask)))}}}{self.variable}"
        return text


def _term_printer(k: int, n: int):
    """print_dnf's text of (gamma, factor masks) pairs in canonical order, from
    one factor-text cache per variable that lives as long as the printer."""
    axes = [_AxisTexts(j, k) for j in range(n)]
    return lambda terms: "".join(
        [f"{''.join(map(dict.__getitem__, axes, masks))[1:] or 'TRUE'}->{gamma}\n" for gamma, masks in terms]
    ) or "0\n"


def print_dnf(d: Dnf) -> str:
    """One canonical-order term per line; the empty DNF prints as '0'."""
    return _term_printer(d.k, d.n)(sorted((t.gamma, t.interval.factors) for t in d.terms))


def parse_term(text: str, k: int, n: int, line_no: int = 1) -> ElementaryConjunction:
    """Parse one term in the print_dnf syntax against a known shape."""
    body = text.strip()
    head, sep, gamma_text = body.rpartition("->")
    if not sep:
        raise ParseError(line_no, "term is missing '->gamma'")
    try:
        gamma = int(gamma_text.strip())
    except ValueError:
        raise ParseError(line_no, "gamma must be an integer") from None
    if not 1 <= gamma <= k - 1:
        raise ParseError(line_no, f"gamma {gamma} outside [1, {k - 1}]")
    factors = [(1 << k) - 1] * n
    head = head.strip()
    if head != "TRUE":
        seen: set[int] = set()
        for chunk in head.split("*"):
            m = _FACTOR_RE.match(chunk.strip())
            if not m:
                raise ParseError(line_no, f"malformed factor {chunk.strip()!r}")
            values = [int(v) for v in m.group(1).split(",")]
            var = int(m.group(2))
            if not 1 <= var <= n:
                raise ParseError(line_no, f"variable x{var} outside x1..x{n}")
            if var in seen:
                raise ParseError(line_no, f"variable x{var} appears twice")
            seen.add(var)
            if any(not 0 <= v < k for v in values):
                raise ParseError(line_no, "factor value >= k")
            factors[var - 1] = sum(1 << v for v in set(values))
    return ElementaryConjunction(Interval(k, factors), gamma)


def parse_dnf(text: str) -> Dnf:
    """Parse a DNF file: 'k=K n=N' header, then one term per line."""
    lines, _, k, n = _header(text, _DNF_HEADER_RE, "k=K n=N")
    check_shape(k, n)  # the table cap, before any body line is read
    terms = []
    for line_no, line in lines[1:]:
        if line == "0":
            if len(lines) > 2:
                raise ParseError(line_no, "'0' must be the only body line")
            break
        terms.append(parse_term(line, k, n, line_no))
    return Dnf(k, n, terms)
