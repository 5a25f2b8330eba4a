"""kdnf benchmark: seeded workloads run through the CLI, checked independently.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --baseline     # one-shot ROADMAP baseline table
    python3 perfbench/run.py --record       # re-record seed_record.json

Run from the repository root; kdnf is imported from ./src.  A run writes its
generated input files under .perfbench_work/ and removes them on exit.

Per op it prints one row; then every metric by name and unit; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured on a pass of
`kdnf.cli.main` calls; with --trace 1 they are the per-layer ones, from a
pass that replays each op as the CLI's public calls with one span per call.
Each op is timed once per process.  Answers are checked after the pass, by
checker.py, outside every timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import instances as I  # noqa: E402
import workloads as W  # noqa: E402
from ops import Outcome, run_traced, run_untraced  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
RECORD = HERE / "seed_record.json"
SETUP_REPEATS = 21
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_kdnf() -> SimpleNamespace:
    """A fresh import of kdnf (every kdnf module dropped first)."""
    for name in [m for m in sys.modules if m == "kdnf" or m.startswith("kdnf.")]:
        del sys.modules[name]
    kdnf = importlib.import_module("kdnf")
    return SimpleNamespace(**{n: getattr(kdnf, n) for n in kdnf.__all__}, cli=importlib.import_module("kdnf.cli"))


def input_files(ops) -> dict[str, str]:
    """File name -> text for every generated input of the ops."""
    files = {}
    for op in ops:
        inp = op.input
        if isinstance(inp, I.Table):
            files[op.input_id + ".kfn"] = inp.text()
        elif isinstance(inp, W.AbsorbCase):
            files[op.input_id + ".dnf"] = I.dnf_text(inp.k, inp.n, inp.terms)
    return files


def input_path(directory: Path, op) -> str:
    suffix = ".dnf" if isinstance(op.input, W.AbsorbCase) else ".kfn"
    return str(directory / (op.input_id + suffix))


def write_files(directory: Path, files: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def setup(work: Path, files: dict[str, str]):
    """Import kdnf and write the inputs, SETUP_REPEATS times; returns the
    last import, the input directory and the median time.  The first round
    creates the files and later rounds rewrite them, so file-system noise
    from creating inodes does not swamp the import time."""
    times = []
    directory = work / "inputs"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        kd = import_kdnf()
        write_files(directory, files)
        times.append(time.perf_counter() - t0)
    return kd, directory, statistics.median(times)


# ---------------------------------------------------------------- checking

def _masks(term: I.Term):
    return tuple(sum(1 << v for v in f) for f in term.factors), term.gamma


def reference(kd, op, record: dict) -> tuple[str, int | None]:
    """Reference objective of a minimize op: closed form, else the oracle
    where its per-level candidate cap allows, else the seed's value."""
    metric = op.mode.split("-", 1)[1]
    cf = checker.closed_form(op.family.closed_form, op.input)
    if cf is not None:
        return "closed", cf[0] if metric == "terms" else cf[1]
    if op.family.oracle:
        oracle = importlib.import_module("kdnf.oracle")
        t = op.input
        try:
            return "oracle", oracle.oracle_minimize(kd.KFunction(t.k, t.n, bytes(t.values)), metric).objective_value
        except kd.CapacityError:
            pass
    seen = record.get(op.id, {}).get("objective")
    return ("seed-recorded", seen) if seen is not None else ("none", None)


def check(kd, op, out: str, record: dict, count_known: dict) -> tuple[str | None, str]:
    """(reason the answer is wrong or None, reference label)."""
    inp, mode = op.input, op.mode
    if mode == "reduce":
        bad = checker.check_reduce(inp, out)
        cf = checker.closed_form(op.family.closed_form, inp)
        if bad is None and cf is not None and len(out.splitlines()) != cf[0]:
            bad = f"{len(out.splitlines())} terms, closed form says {cf[0]}"
        return bad, ""
    if mode.startswith("minimize-"):
        kind, ref = reference(kd, op, record)
        return checker.check_minimize(inp, out, mode.split("-", 1)[1], ref), f"ref={kind}:{ref}"
    if mode == "deadend":
        return checker.check_deadend(inp, out), ""
    if mode.startswith("monotone-"):
        return checker.check_monotone(inp, mode.split("-", 1)[1], out), ""
    if mode == "count":
        return checker.check_count((inp.order, inp.k, inp.n), out, count_known), ""
    terms = [_masks(t) for t in inp.terms] if isinstance(inp, W.AbsorbCase) else None
    if mode == "absorb":
        return checker.check_absorb(inp.k, inp.n, terms, _masks(inp.query), out), ""
    if mode == "absorbs_zero_free":
        return checker.check_absorbs_zero_free(inp.k, inp.n, terms, _masks(inp.query), out), ""
    return checker.check_chain_shape(inp, out), ""


def known_counts(ops) -> dict:
    known = dict(checker.KNOWN_COUNTS)
    if any(op.mode == "count" and op.input.order == "star" for op in ops):
        known[("star", 3, 2)] = checker.star_count_k3n2()
    return known


def judge(kd, ops, outcomes, record: dict) -> list[tuple[str, str]]:
    """Final (status, note) per op: ok, wrong, capped:<stage> or crashed:<why>."""
    known = known_counts(ops)
    out = []
    for op, oc in zip(ops, outcomes):
        if oc.status != "ok":
            out.append((f"{oc.status}:{oc.detail}", ""))
            continue
        bad, note = check(kd, op, oc.out, record, known)
        out.append(("ok", note) if bad is None else ("wrong", f"{note} {bad}".strip()))
    return out


# ---------------------------------------------------------------- reporting

def load_record() -> dict:
    return json.loads(RECORD.read_text()) if RECORD.is_file() else {}


def pool_size(op, oc: Outcome, record: dict) -> str:
    if op.mode == "reduce" and oc.status == "ok":
        return str(len(oc.out.splitlines()))
    if isinstance(op.input, W.AbsorbCase):
        return str(len(op.input.terms))
    pool = record.get(op.id, {}).get("pool")
    return "-" if pool is None else str(sum(pool))


def print_rows(ops, outcomes, verdicts, record: dict) -> int:
    """One row per op; returns how many outputs differ from the seed's."""
    changed = 0
    for op, oc, (status, note) in zip(ops, outcomes, verdicts):
        digest = hashlib.sha256(oc.out.encode()).hexdigest()
        seen = record.get(op.id, {}).get("sha256")
        flag = "unrecorded" if seen is None else ("same" if seen == digest else "output_changed")
        changed += flag == "output_changed"
        inp = op.input
        shape = f"(k={inp.k},n={inp.n},{op.family.file_mode(inp)})" if hasattr(inp, "k") else "(-)"
        print(
            f"op {op.workload} {op.family.name}/{op.variant} {shape} {op.mode} {status} "
            f"{oc.seconds * 1000:.3f}ms pool={pool_size(op, oc, record)} sha256={digest} {flag}"
            + (f" {note}" if note else "")
        )
    return changed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    ops beyond it, nearest-rank; the maximum when there are fewer than 20."""
    lat = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(lat))
        if len(lat) - rank >= 10:
            return p, lat[rank - 1]
    return 100.0, lat[-1]


def metric(name: str, value: float, unit: str) -> tuple[str, dict]:
    print(f"metric {name} = {value:.6g} {unit}")
    return name, {"value": value, "unit": unit}


def end_to_end(ops, outcomes, verdicts, wall: float, setup_s: float, rss_mb: float) -> dict:
    lat = [oc.seconds for oc in outcomes]
    p, tail_s = tail(lat)
    failed = sum(status != "ok" for status, _ in verdicts)
    capped = sum(status.startswith("capped") for status, _ in verdicts)
    print(f"call_tail_ms is p{p:g} over {len(lat)} ops")
    print(
        f"fail_frac = {failed}/{len(ops)} = {failed / len(ops):.4f} "
        f"(capped {capped}, crashed {sum(s.startswith('crashed') for s, _ in verdicts)}, "
        f"wrong {sum(s == 'wrong' for s, _ in verdicts)}); ok_frac = 1 - fail_frac"
    )
    return dict([
        metric("setup_s", setup_s, "s"),
        metric("wall_s", wall, "s"),
        metric("call_p50_ms", statistics.median(lat) * 1000, "ms"),
        metric("call_tail_ms", tail_s * 1000, "ms"),
        metric("ok_frac", 1 - failed / len(ops), "frac"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ])


def per_layer(tr: Tracer, verdicts, wall: float) -> dict:
    st, c = tr.self_times(), tr.counts
    reduce_s = st["reduce"]
    terms_out = c["reduce.terms_out"]
    # traced wall over the untraced wall of the same main-tree calls, minus 1;
    # the untraced wall is the traced one less the tracer's own measured cost,
    # since timing an op twice in one process is not allowed
    main_wall = wall - sum(tr.duration(i) for i, s in enumerate(tr.spans) if s[0] == "breakdown")
    rows = [
        ("textio.parse_s", st["textio.parse"], "s"),
        ("textio.print_s", st["textio.print"], "s"),
        ("textio.bytes_in", c["textio.bytes_in"], "bytes"),
        ("textio.bytes_out", c["textio.bytes_out"], "bytes"),
        ("decompose.s", st["decompose"], "s"),
        ("reduce.s", reduce_s, "s"),
        ("reduce.calls", sum(s[0] == "reduce" for s in tr.spans), "count"),
        ("reduce.terms_out", terms_out, "count"),
        ("reduce.carrier_points", c["reduce.carrier_points"], "count"),
        ("reduce.ms_per_term", reduce_s * 1000 / terms_out if terms_out else 0.0, "ms/term"),
        ("minimize.cover_instance_s", st["minimize.cover_instance"], "s"),
        ("minimize.cover_points", c["minimize.cover_points"], "count"),
        ("minimize.cover_candidates", c["minimize.cover_candidates"], "count"),
        ("minimize.minimize_s", st["minimize"], "s"),
        ("minimize.search_s", c["minimize.search_s"], "s"),
        ("minimize.capped", c["minimize.capped"], "count"),
        ("minimize.deadend_s", st["minimize.deadend"], "s"),
        ("minimize.deadend_out", c["minimize.deadend_out"], "count"),
        ("minimize.deadend_capped", c["minimize.deadend_capped"], "count"),
        ("minimize.absorb_s", st["minimize.absorb"], "s"),
        ("minimize.absorb_calls", c["minimize.absorb_calls"], "count"),
        ("monotone.witness_s", st["monotone.witness"], "s"),
        ("monotone.count_s", st["monotone.count"], "s"),
        ("monotone.shape_s", st["monotone.shape"], "s"),
        ("monotone.functions_counted", c["monotone.functions_counted"], "count"),
        ("ops.crashed", sum(s.startswith("crashed") for s, _ in verdicts), "count"),
        ("ops.wrong", sum(s == "wrong" for s, _ in verdicts), "count"),
        ("trace.overhead_frac", tr.cost / (main_wall - tr.cost), "frac"),
    ]
    return dict(metric(name, value, unit) for name, value, unit in rows)


# ---------------------------------------------------------------- modes

def bench(args, work: Path) -> int:
    ops = W.select(args.workload, args.seed, args.seconds)
    kd, directory, setup_s = setup(work, input_files(ops))
    paths = [input_path(directory, op) for op in ops]
    tr = Tracer() if args.trace else None
    outcomes = []
    # long-lived set-up objects are frozen out of the collector, and garbage
    # left by one op is collected before the next, so an op's time does not
    # depend on what ran before it
    gc.collect()
    gc.freeze()
    wall = 0.0
    for op, path in zip(ops, paths):
        gc.collect()
        t0 = time.perf_counter()
        outcomes.append(run_traced(kd, op, path, tr) if tr else run_untraced(kd, op, path))
        wall += time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = load_record()
    verdicts = judge(kd, ops, outcomes, record)
    changed = print_rows(ops, outcomes, verdicts, record)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {changed} output_changed")
    metrics = per_layer(tr, verdicts, wall) if tr else end_to_end(ops, outcomes, verdicts, wall, setup_s, rss_mb)
    bad = sum(s == "wrong" or s.startswith("crashed") for s, _ in verdicts)
    print(json.dumps({"correct": bad == 0, "attempted": len(ops), "failed": bad, "metrics": metrics}))
    return 0


def record_seed(work: Path) -> int:
    """Run every catalogue op once and store status, digest, objective and
    reduced-pool sizes per level in seed_record.json."""
    kd = import_kdnf()
    rec, wrong = {}, 0
    for name in W.WORKLOADS:
        ops = W.catalogue(name)
        directory = work / name
        write_files(directory, input_files(ops))
        outcomes = [run_untraced(kd, op, input_path(directory, op)) for op in ops]
        verdicts = judge(kd, ops, outcomes, {})
        for op, oc, (status, note) in zip(ops, outcomes, verdicts):
            wrong += status == "wrong" or status.startswith("crashed")
            entry = {"status": status, "sha256": hashlib.sha256(oc.out.encode()).hexdigest(),
                     "seconds": round(oc.seconds, 3)}
            if op.mode.startswith("minimize-") and status == "ok":
                entry["objective"] = int(oc.out.splitlines()[-1].split(": ", 1)[1])
            if isinstance(op.input, I.Table) and op.mode in ("minimize-terms", "minimize-rank", "deadend"):
                t = op.input
                f = kd.KFunction(t.k, t.n, bytes(t.values))
                entry["pool"] = [len(lt.terms) for lt in kd.reduced_dnf(f).levels]
            rec[op.id] = entry
            print(f"record {op.id} {status} {oc.seconds:.3f}s {note}", flush=True)
    RECORD.write_text(json.dumps(rec, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(rec)} ops, {wrong} wrong or crashed")
    return 1 if wrong else 0


BASELINE = (
    ("reduce, constant 1, k=2 n=8", "reduce", lambda: I.constant(2, 8), "constant"),
    ("reduce, constant 1, k=2 n=10", "reduce", lambda: I.constant(2, 10), "constant"),
    ("reduce, constant 1, k=3 n=5", "reduce", lambda: I.constant(3, 5), "constant"),
    ("reduce, constant 1, k=4 n=4", "reduce", lambda: I.constant(4, 4), "constant"),
    ("reduce, random, k=2 n=10", "reduce", lambda: I.random_total(W._rng("baseline-k2n10", 0), 2, 10), None),
    ("reduce, random, k=3 n=6", "reduce", lambda: I.random_total(W._rng("baseline-k3n6", 0), 3, 6), None),
    ("minimize, random, k=2 n=8", "minimize-terms", lambda: I.random_total(W._rng("baseline-k2n8", 0), 2, 8), None),
    ("minimize, random, k=3 n=5", "minimize-terms", lambda: I.random_total(W._rng("baseline-k3n5", 0), 3, 5), None),
    ("minimize, random, k=4 n=4", "minimize-terms", lambda: I.random_total(W._rng("baseline-k4n4", 0), 4, 4), None),
    ("minimize, parity, k=2 n=8", "minimize-terms", lambda: I.parity(8), "parity"),
    ("minimize, parity, k=2 n=11", "minimize-terms", lambda: I.parity(11), "parity"),
)


def baseline(work: Path) -> int:
    """Regenerate the ROADMAP baseline table, slow rows included; one run
    each, not used for gating."""
    kd = import_kdnf()
    print("| case | result | seconds |\n|---|---|---|")
    for i, (label, mode, make, closed) in enumerate(BASELINE):
        fam = W.Family(f"baseline{i}", 0, 0, None, (0,), 1, (mode,), closed)
        op = W.Op("baseline", fam, 0, mode, make())
        write_files(work / op.input_id, input_files([op]))
        oc = run_untraced(kd, op, input_path(work / op.input_id, op))
        if oc.status == "ok":
            bad, _ = check(kd, op, oc.out, {}, {})
            lines = oc.out.splitlines()
            result = lines[-1] if mode.startswith("minimize") else f"{len(lines)} terms"
            result += "" if bad is None else f" WRONG: {bad}"
        else:
            result = f"{oc.status} ({oc.detail})"
        print(f"| {label} | {result} | {oc.seconds:.2f} |", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=W.REFERENCE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (args.baseline or args.record or args.workload):
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    src = ROOT / "src"
    if not (src / "kdnf" / "__init__.py").is_file():
        print(f"perfbench: kdnf sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.baseline:
            return baseline(work)
        if args.record:
            return record_seed(work)
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
