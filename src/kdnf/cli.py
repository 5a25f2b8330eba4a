"""Command-line front end.

Commands: reduce, minimize, deadend, absorb, monotone, count, estimate.
Exit codes: 0 success, 1 usage error, 2 parse error, 3 capacity error.
Output is deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .core import CapacityError, KFunction
from .minimize import METRIC_RANK, METRIC_TERMS, _dead_end_covers, absorption_witness, minimize_dnf
from .monotone import count_monotone_exact, monotone_witness, psi_estimate, star_order, total_order
from .reduce import _levels, reduced_dnf
from .textio import ParseError, _term_printer, parse_dnf, parse_function, parse_term, print_dnf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract reserves 2 for
    # parse errors, so route usage problems through exit code 1 instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _total_function(path: str, command: str) -> KFunction:
    func = parse_function(_read(path))
    if not isinstance(func, KFunction):
        raise UsageError(f"{command} requires a total-mode function file")
    return func


def _order(name: str, k: int):
    return total_order(k) if name == "total" else star_order(k)


def _cmd_reduce(args) -> int:
    f = parse_function(_read(args.file))
    levels = _levels(f.k, f.n, f.table)  # the reduce stage's masks, printed with no record built
    sys.stdout.write(_term_printer(f.k, f.n)((gamma, masks) for gamma, _, _, found in levels for _, masks in found))
    return EXIT_OK


def _cmd_minimize(args) -> int:
    func = _total_function(args.file, "minimize")
    result = minimize_dnf(func, args.metric)
    sys.stdout.write(print_dnf(result.dnf))
    sys.stdout.write(f"objective: {result.objective_value}\n")
    return EXIT_OK


def _cmd_deadend(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    func = _total_function(args.file, "deadend")
    per_level, count = _dead_end_covers(func, reduced_dnf(func), args.limit)
    print_terms = _term_printer(func.k, func.n)
    blocks = [[print_terms((t.gamma, t.interval.factors) for t in cover) for cover in covers] for covers in per_level]
    sys.stdout.write(f"# dead-end dnfs: {count}\n")
    for i, choice in enumerate(itertools.islice(itertools.product(*blocks), args.limit), start=1):
        sys.stdout.write(f"# {i}\n" + ("".join(choice) or "0\n"))  # no level: one empty dead end
    return EXIT_OK


def _cmd_absorb(args) -> int:
    dnf = parse_dnf(_read(args.dnf_file))
    term = parse_term(args.term, dnf.k, dnf.n)
    witness = absorption_witness(dnf, term)
    if witness is None:
        sys.stdout.write("yes\n")
    else:
        sys.stdout.write("no\n")
        sys.stdout.write(f"witness: {' '.join(map(str, witness))}\n")
    return EXIT_OK


def _cmd_monotone(args) -> int:
    func = _total_function(args.file, "monotone")
    witness = monotone_witness(func, _order(args.order, func.k))
    if witness is None:
        sys.stdout.write("monotone: yes\n")
    else:
        p, q = witness
        sys.stdout.write("monotone: no\n")
        sys.stdout.write(f"below: {' '.join(map(str, p))} -> {func.value(p)}\n")
        sys.stdout.write(f"above: {' '.join(map(str, q))} -> {func.value(q)}\n")
    return EXIT_OK


def _cmd_count(args) -> int:
    count = count_monotone_exact(args.n, args.k, _order(args.order, args.k))
    sys.stdout.write(f"count: {count}\n")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    est = psi_estimate(args.n, args.k)
    sys.stdout.write(
        f"log2(psi) ≈ {est.log2_psi:.5f} (d={est.d}, D={est.big_d:.6f})\n"
    )
    sys.stdout.write("# leading term only; the (1+o(1)) exponent factor is omitted\n")
    return EXIT_OK


@functools.cache  # built once per process: it costs more than a small command's own work
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kdnf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("reduce", help="print the reduced DNF of a function file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("minimize", help="print an exact optimal DNF and its objective")
    p.add_argument("file")
    p.add_argument("--metric", choices=[METRIC_TERMS, METRIC_RANK], default=METRIC_TERMS)
    p.set_defaults(run=_cmd_minimize)

    p = sub.add_parser("deadend", help="print every dead-end DNF")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(run=_cmd_deadend)

    p = sub.add_parser("absorb", help="test whether a DNF file absorbs a term")
    p.add_argument("dnf_file")
    p.add_argument("term")
    p.set_defaults(run=_cmd_absorb)

    p = sub.add_parser("monotone", help="check monotonicity under an order")
    p.add_argument("file")
    p.add_argument("--order", choices=["total", "star"], default="total")
    p.set_defaults(run=_cmd_monotone)

    p = sub.add_parser("count", help="exact count of monotone functions (capped)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--order", choices=["total", "star"], default="total")
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("estimate", help="closed-form growth estimate of the star-monotone class")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(run=_cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"kdnf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"kdnf: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"kdnf: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"kdnf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
