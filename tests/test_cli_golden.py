"""Golden CLI bytes: every command over a seeded corpus, one hash per call.

Each call's argv, exit code, stdout and stderr are hashed with sha256 and
compared with tests/data/cli_golden.json, so any change to what the CLI
prints fails here.  The input files are generated from a fixed seed inside
this module and the calls run in a temporary directory with relative paths,
so the hashes do not depend on where the suite runs.  Usage errors are the
ones kdnf raises itself, not argparse's, whose wording varies across Python
versions.  After an intended output change, rewrite the golden file with
`PYTHONPATH=src python -m tests.test_cli_golden` from the repository root.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

from kdnf.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
SEED = 5


def _function_text(rng, k, n, mode, values, defined=1.0, default=None):
    header = f"k={k} n={n} mode={mode}" + ("" if default is None else f" default={default}")
    body = [
        f"{' '.join(map(str, p))} -> {values(p)}"
        for p in itertools.product(range(k), repeat=n)
        if rng.random() < defined
    ]
    rng.shuffle(body)
    return "\n".join([header, *body]) + "\n"


def _term_text(rng, k, n):
    gamma = rng.randint(1, k - 1)
    factors = []
    for j in range(n):
        if rng.random() < 0.4:
            vals = sorted(rng.sample(range(k), rng.randint(1, k - 1)))
            factors.append(f"J{{{','.join(map(str, vals))}}}(x{j + 1})")
    return f"{'*'.join(factors) or 'TRUE'}->{gamma}"


def corpus() -> tuple[dict[str, str], list[list[str]]]:
    """Input files by name and the argv of every call, from SEED."""
    rng = random.Random(SEED)
    files: dict[str, str] = {}
    calls: list[list[str]] = []

    def add(name, text):
        files[name] = text
        return name

    shapes = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]
    for i, (k, n) in enumerate(shapes * 3):
        dense = rng.random() < 0.5
        rand = add(f"r{i}.kfn", _function_text(
            rng, k, n, "total",
            lambda p: rng.randrange(k) if dense else rng.choice([0, 0, 0, rng.randrange(k)]),
            default=rng.choice([None, 0]),
        ))
        part = add(f"p{i}.kfn", _function_text(
            rng, k, n, "partial", lambda p: rng.randrange(k), defined=rng.choice([0.3, 0.6, 0.9]),
        ))
        calls += [
            ["reduce", rand],
            ["reduce", part],
            ["minimize", rand],
            ["minimize", rand, "--metric", "rank"],
            ["deadend", rand],
            ["deadend", rand, "--limit", str(rng.randint(0, 2))],
            ["monotone", rand],
            ["monotone", rand, "--order", "star"],
        ]
    for k, n in [(2, 4), (3, 2), (3, 3), (4, 2)]:
        chain = add(f"chain{k}{n}.kfn", _function_text(rng, k, n, "total", lambda p: min(k - 1, sum(p) // 2)))
        star = add(f"star{k}{n}.kfn", _function_text(
            rng, k, n, "total", lambda p: k - 1 if sum(x != 0 for x in p) >= n - 1 else 0,
        ))
        ones = add(f"ones{k}{n}.kfn", f"k={k} n={n} mode=total default=1\n")
        for name in (chain, star, ones):
            calls += [["reduce", name], ["minimize", name], ["deadend", name],
                      ["monotone", name], ["monotone", name, "--order", "star"]]
    parity = add("parity26.kfn", _function_text(rng, 2, 6, "total", lambda p: sum(p) % 2))
    calls += [["reduce", parity], ["minimize", parity], ["deadend", parity]]
    calls += [["reduce", add("empty_partial.kfn", "k=3 n=2 mode=partial\n")]]

    for i, (k, n) in enumerate([(2, 5), (3, 3), (4, 2), (3, 2), (3, 6)] * 2):
        terms = [_term_text(rng, k, n) for _ in range(rng.randint(0, 6))]
        dnf = add(f"d{i}.dnf", "\n".join([f"k={k} n={n}", *(terms or ["0"])]) + "\n")
        for _ in range(5 if k**n < 500 else 2):
            calls.append(["absorb", dnf, _term_text(rng, k, n)])
        calls.append(["absorb", dnf, rng.choice(terms) if terms else "TRUE->1"])

    empty = add("empty.dnf", "k=3 n=2\n0\n")
    calls += [["absorb", empty, "TRUE->1"], ["absorb", empty, "J{2}(x1)*J{0,1}(x2)->2"]]

    calls += [
        ["count", "-k", "2", "-n", "2"],
        ["count", "-k", "2", "-n", "3", "--order", "star"],
        ["count", "-k", "3", "-n", "1", "--order", "star"],
        ["count", "-k", "3", "-n", "2"],
        ["count", "-k", "4", "-n", "1", "--order", "star"],
        ["estimate", "-k", "2", "-n", "5"],
        ["estimate", "-k", "3", "-n", "1"],
        ["estimate", "-k", "16", "-n", "9"],
    ]

    # usage (exit 1), parse (exit 2) and capacity (exit 3) errors
    calls += [
        ["minimize", "p0.kfn"],
        ["deadend", "p1.kfn"],
        ["monotone", "p2.kfn", "--order", "star"],
        ["deadend", "r0.kfn", "--limit", "-1"],
        ["reduce", "missing.kfn"],
        ["absorb", "missing.dnf", "TRUE->1"],
        ["count", "-k", "3", "-n", "0"],
        ["count", "-k", "1", "-n", "2"],
        ["estimate", "-k", "17", "-n", "2"],
        ["absorb", "d0.dnf", "J{7}(x1)->1"],
        ["absorb", "d0.dnf", "J{1}(x9)->1"],
        ["absorb", "d0.dnf", "TRUE"],
        ["count", "-k", "3", "-n", "3"],
        ["count", "-k", "2", "-n", "2000"],
        ["estimate", "-k", "3", "-n", "1000"],
    ]
    bad = {
        "no_header.kfn": "0 1 -> 1\n",
        "bad_header.kfn": "k=3 n=2 mode=sometimes\n",
        "big_k.kfn": "k=17 n=2 mode=total\n",
        "bad_coord.kfn": "k=3 n=2 mode=total\n9 9 -> 1\n",
        "bad_value.kfn": "k=3 n=2 mode=total\n0 0 -> 3\n",
        "short_point.kfn": "k=3 n=2 mode=total\n0 -> 1\n",
        "duplicate.kfn": "k=2 n=2 mode=total\n0 1 -> 1\n0 1 -> 0\n",
        "partial_default.kfn": "k=2 n=2 mode=partial default=1\n",
        "no_arrow.kfn": "k=2 n=2 mode=total\n0 1 1\n",
        "huge.kfn": "k=2 n=21 mode=total\n",
        "bad_dnf.dnf": "k=3 n=2\nJ{1}(x3)->1\n",
        "zero_mixed.dnf": "k=3 n=2\n0\nTRUE->1\n",
    }
    for name, text in bad.items():
        add(name, text)
        calls.append(["absorb", name, "TRUE->1"] if name.endswith(".dnf") else ["reduce", name])
    calls.append(["minimize", "huge.kfn"])
    return files, calls


def call_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def digests(workdir: Path) -> list[list]:
    """[argv, sha256] per call, run inside workdir."""
    files, calls = corpus()
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [[argv, call_digest(argv)] for argv in calls]
    finally:
        os.chdir(cwd)


def test_cli_bytes_match_the_golden_file(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert [argv for argv, _ in got] == [argv for argv, _ in expected]
    changed = [argv for (argv, h), (_, want) in zip(got, expected) if h != want]
    assert not changed, f"{len(changed)} of {len(got)} calls print other bytes, first {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = digests(Path(tmp))
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in result) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(result)} digests to {GOLDEN}", file=sys.stderr)
