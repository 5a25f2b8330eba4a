"""Running one op, untraced through kdnf.cli.main or traced as a replay.

An untraced op is one `kdnf.cli.main` call with stdout and stderr captured,
or, for the two ops the CLI has no command for (absorbs_zero_free and
chain_shape_report), the library calls a user would make.  A traced op
replays the same sequence of public calls the CLI makes, one span per call,
and prints the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

_clock = time.perf_counter

# CapacityError message fragment -> the stage that refused
_STAGES = (
    ("search exceeded", "search"),
    ("subsets exceed", "deadend"),
    ("dead-end combinations", "deadend"),
    ("dense-table", "table"),
    ("counting cap", "count"),
)


@dataclass
class Outcome:
    status: str  # ok | capped | crashed; the checker may turn ok into wrong
    detail: str  # cap stage, crash reason or checker verdict
    out: str
    seconds: float


def cap_stage(message: str) -> str:
    return next((stage for frag, stage in _STAGES if frag in message), "other")


def cli_argv(op, path: str) -> list[str] | None:
    """The kdnf command line of an op, or None for a library-only op."""
    mode = op.mode
    if mode in ("reduce", "deadend"):
        return [mode, path]
    if mode.startswith("minimize-"):
        return ["minimize", path, "--metric", mode.split("-", 1)[1]]
    if mode.startswith("monotone-"):
        return ["monotone", path, "--order", mode.split("-", 1)[1]]
    if mode == "count":
        c = op.input
        return ["count", "-k", str(c.k), "-n", str(c.n), "--order", c.order]
    if mode == "absorb":
        return ["absorb", path, op.input.query.text(op.input.k)]
    return None


def _order(kd, name: str, k: int):
    return kd.total_order(k) if name == "total" else kd.star_order(k)


def shape_text(r) -> str:
    """First line of a rendered chain_shape_report; the reduced DNF follows."""
    return (
        f"factors_upper={r.factors_upper} dead_end_count={r.dead_end_count} "
        f"dead_end_equals_reduced={r.dead_end_equals_reduced} cores_exclusive={r.cores_exclusive}\n"
    )


def _library(kd, op, path: str) -> str:
    text = Path(path).read_text(encoding="utf-8")
    if op.mode == "absorbs_zero_free":
        d = kd.parse_dnf(text)
        term = kd.parse_term(op.input.query.text(op.input.k), d.k, d.n)
        return f"{kd.absorbs_zero_free(d.terms, term)}\n"
    report = kd.chain_shape_report(kd.parse_function(text))
    return shape_text(report) + kd.print_dnf(report.reduced.dnf)


def run_untraced(kd, op, path: str) -> Outcome:
    argv = cli_argv(op, path)
    out, err = io.StringIO(), io.StringIO()
    t0 = _clock()
    try:
        if argv is None:
            text = _library(kd, op, path)
            return Outcome("ok", "", text, _clock() - t0)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = kd.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit this way
                code = exc.code
        seconds = _clock() - t0
    except kd.CapacityError as exc:
        return Outcome("capped", cap_stage(str(exc)), "", _clock() - t0)
    except Exception as exc:  # any escape from the program is a crash, RecursionError included
        return Outcome("crashed", type(exc).__name__, "", _clock() - t0)
    if code == 0:
        return Outcome("ok", "", out.getvalue(), seconds)
    if code == 3:
        return Outcome("capped", cap_stage(err.getvalue()), out.getvalue(), seconds)
    return Outcome("crashed", f"exit {code}: {err.getvalue().strip()[:80]}", out.getvalue(), seconds)


def _count_reduce(c, pool) -> None:
    c["reduce.terms_out"] += len(pool.dnf.terms)
    c["reduce.carrier_points"] += sum(len(lt.carrier.points) for lt in pool.levels)


def _replay(kd, op, path: str, tr: Tracer, ctx: dict) -> str:
    """The op's public calls in the CLI's order, one span each; returns stdout."""
    c, mode = tr.counts, op.mode
    if mode == "count":
        cc = op.input
        order = _order(kd, cc.order, cc.k)
        with tr.span("monotone.count"):
            count = kd.count_monotone_exact(cc.n, cc.k, order)
        c["monotone.functions_counted"] += count
        return f"count: {count}\n"
    with tr.span("textio.parse"):
        text = Path(path).read_text(encoding="utf-8")
        if mode in ("absorb", "absorbs_zero_free"):
            query = op.input.query.text(op.input.k)
            d = kd.parse_dnf(text)
            term = kd.parse_term(query, d.k, d.n)
        else:
            f = kd.parse_function(text)
    c["textio.bytes_in"] += len(text.encode()) + (len(query) if mode.startswith("absorb") else 0)
    if mode in ("absorb", "absorbs_zero_free"):
        c["minimize.absorb_calls"] += 1
        with tr.span("minimize.absorb"):
            if mode == "absorbs_zero_free":
                return f"{kd.absorbs_zero_free(d.terms, term)}\n"
            witness = kd.absorption_witness(d, term)
        return "yes\n" if witness is None else f"no\nwitness: {' '.join(map(str, witness))}\n"
    ctx["f"] = f
    if mode.startswith("monotone-"):
        order = _order(kd, mode.split("-", 1)[1], f.k)
        with tr.span("monotone.witness"):
            witness = kd.monotone_witness(f, order)
        if witness is None:
            return "monotone: yes\n"
        p, q = witness
        return (
            f"monotone: no\nbelow: {' '.join(map(str, p))} -> {f.value(p)}\n"
            f"above: {' '.join(map(str, q))} -> {f.value(q)}\n"
        )
    if mode == "chain_shape":
        with tr.span("monotone.shape"):
            report = kd.chain_shape_report(f)
        with tr.span("textio.print"):
            return shape_text(report) + kd.print_dnf(report.reduced.dnf)
    if mode == "reduce":
        with tr.span("reduce"):
            pool = kd.reduced_dnf(f) if isinstance(f, kd.KFunction) else kd.reduced_dnf_partial(f)
        _count_reduce(c, pool)
        with tr.span("textio.print"):
            return kd.print_dnf(pool.dnf)
    if mode.startswith("minimize-"):
        try:
            with tr.span("minimize") as sp:
                result = kd.minimize_dnf(f, mode.split("-", 1)[1])
        finally:
            ctx["minimize"] = sp
        with tr.span("textio.print"):
            return kd.print_dnf(result.dnf) + f"objective: {result.objective_value}\n"
    # deadend
    with tr.span("reduce"):
        pool = kd.reduced_dnf(f)
    _count_reduce(c, pool)
    ctx["pool"] = pool
    with tr.span("minimize.deadend"):
        ends = kd.dead_end_dnfs(f, pool)
    c["minimize.deadend_out"] += len(ends)
    with tr.span("textio.print"):
        return f"# dead-end dnfs: {len(ends)}\n" + "".join(
            f"# {i}\n" + kd.print_dnf(d) for i, d in enumerate(ends, start=1)
        )


def _breakdown(kd, op, tr: Tracer, ctx: dict) -> None:
    """Extra calls splitting a stage into its parts, in their own span tree."""
    f = ctx.get("f")
    if not isinstance(f, kd.KFunction) or op.mode not in ("reduce", "deadend", "minimize-terms", "minimize-rank"):
        return
    c = tr.counts
    with tr.breakdown():
        with tr.span("decompose"):
            kd.max_representation(kd.decompose(f))
        if op.mode == "reduce":
            return
        pool = ctx.get("pool")
        reduce_s = 0.0
        if pool is None:
            with tr.span("reduce") as sp:
                pool = kd.reduced_dnf(f)
            _count_reduce(c, pool)
            reduce_s = sp.rec[4] - sp.rec[3]
        with tr.span("minimize.cover_instance") as sp:
            inst = kd.cover_instance(f, pool)
        c["minimize.cover_points"] += sum(len(lv.universe) for lv in inst.levels)
        c["minimize.cover_candidates"] += sum(len(lv.candidates) for lv in inst.levels)
        if "minimize" in ctx:
            whole = ctx["minimize"].rec
            c["minimize.search_s"] += (whole[4] - whole[3]) - reduce_s - (sp.rec[4] - sp.rec[3])


def run_traced(kd, op, path: str, tr: Tracer) -> Outcome:
    ctx: dict = {}
    t0 = _clock()
    try:
        with tr.span("op"):
            text = _replay(kd, op, path, tr, ctx)
        outcome = Outcome("ok", "", text, _clock() - t0)
    except kd.CapacityError as exc:
        outcome = Outcome("capped", cap_stage(str(exc)), "", _clock() - t0)
        if op.mode.startswith("minimize-"):
            tr.counts["minimize.capped"] += 1
        elif op.mode == "deadend":
            tr.counts["minimize.deadend_capped"] += 1
    except Exception as exc:
        return Outcome("crashed", type(exc).__name__, "", _clock() - t0)
    tr.counts["textio.bytes_out"] += len(outcome.out.encode())
    _breakdown(kd, op, tr, ctx)
    return outcome
