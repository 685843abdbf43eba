"""Benchmark of singulens through its public API, in one process, no threads.

    python3 perfbench/run.py --workload corpus-graded --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The workloads are defined in ``workloads.py`` and
documented in WORKLOADS.md.  A run is a closed loop over the workload's
pool: one op at a time, each op run through the library and checked by an
oracle of the benchmark's own.  The pool is repeated in whole passes for
as long as another pass still fits in ``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics.  Latency metrics are taken
over the pool's items, each item's latency being its median over passes,
so every run has the same sample count.  The set-up probes are spread
over the run, between ops, so that they meet the same host speed as the
ops do.  ``--trace 1`` makes one pass in
which every op runs untraced and then traced, and prints the per-layer
metrics; the spans are written to ``.bench_out/`` in the checkout.

Stderr gets a readable summary; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
MUST_DECIDE = {"corpus-graded", "witness-suite"}
TAIL_BEYOND = 10


class OpTimeout(BaseException):
    """Raised by the per-op timer.

    A BaseException, so that the library's own ``except Exception`` and
    ``except ValueError`` handlers cannot swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def innermost_public(tb) -> str | None:
    """The innermost public singulens function on a traceback."""
    found = None
    for frame, _ in traceback.walk_tb(tb):
        mod = frame.f_globals.get("__name__", "")
        qual = frame.f_code.co_qualname
        if mod.split(".")[0] != "singulens" or "<" in qual:
            continue
        if not any(part.startswith("_") for part in qual.split(".")):
            found = f"{mod}.{qual}"
    return found


@dataclass
class Outcome:
    item: int
    latency: float
    status: str  # ok, wrong, error or timeout
    detail: str = ""


def setup(workload: str, seed: int):
    """Import the library, generate the pool and parse its germs."""
    import singulens
    import singulens.cli  # noqa: F401  (part of the measured start-up)
    import workloads

    items = workloads.WORKLOADS[workload](seed)
    ring = singulens.RingContext(workloads.VARS)
    polys = [None if it.text is None else singulens.parse(it.text, ring) for it in items]
    return items, polys


def probe_setup(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the pool being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        err = child.stderr.read()
        child.wait()
    if line.strip() != "ready" or child.returncode:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return elapsed


def run_op(idx, item, f, p, limit, tracer=None) -> Outcome:
    if tracer is not None:
        tracer.start_op(idx)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            report = item.run(f, p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
    except OpTimeout as err:
        return Outcome(idx, limit, "timeout", f"in {innermost_public(err.__traceback__)}")
    except Exception as err:
        where = innermost_public(err.__traceback__)
        return Outcome(idx, time.perf_counter() - t0, "error",
                       f"{type(err).__name__} in {where}: {err}")
    finally:
        if tracer is not None:
            tracer.end_op()
    try:
        mismatches = item.check(report)
    except Exception as err:  # a report the oracle cannot read is a wrong answer
        mismatches = [f"unreadable report: {type(err).__name__}: {err}"]
    if mismatches:
        return Outcome(idx, latency, "wrong", "; ".join(mismatches))
    return Outcome(idx, latency, "ok")


def run_passes(workload, seed, items, polys, limit, seconds):
    """Whole passes over the pool, with the set-up probes spread between ops.

    Returns one list of outcomes per pass, the set-up probe times, and the
    wall time of the passes without the probes.
    """
    done, probes = [], []
    t_start = time.perf_counter()
    probing = 0.0
    longest = 0.0

    def probe():
        nonlocal probing
        t0 = time.perf_counter()
        probes.append(probe_setup(workload, seed))
        probing += time.perf_counter() - t0

    while not done or time.perf_counter() - t_start + longest <= seconds:
        t_pass = time.perf_counter()
        outcomes = []
        for i, it in enumerate(items):
            due = t_start + len(probes) * seconds / SETUP_PROBES
            if len(probes) < SETUP_PROBES and time.perf_counter() >= due:
                probe()
            outcomes.append(run_op(i, it, polys[i], len(done), limit))
        done.append(outcomes)
        longest = max(longest, time.perf_counter() - t_pass)
    while len(probes) < SETUP_PROBES:
        probe()
    return done, probes, time.perf_counter() - t_start - probing


def judge(workload, items, passes) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, failure lines) over every op of every pass."""
    flat = [o for done in passes for o in done]
    bad = [o for o in flat if o.status != "ok"]
    wrong = any(o.status == "wrong" for o in bad)
    correct = not wrong and not (workload in MUST_DECIDE and bad)
    seen = set()
    lines = []
    for o in bad:
        key = (o.item, o.status, o.detail)
        if key not in seen:
            seen.add(key)
            lines.append(f"{o.status}: {items[o.item].text or items[o.item].label}: {o.detail}")
    return correct, len(flat), len(bad), lines


def end_to_end(items, passes, probes, wall_s) -> tuple[dict, str]:
    n = len(items)
    per_item = sorted(
        statistics.median(done[i].latency for done in passes) for i in range(n)
    )
    flat = [o for done in passes for o in done]
    ok = sum(o.status == "ok" for o in flat)
    k = max(n - TAIL_BEYOND, 1)
    slowest = max((o.latency for o in flat if o.status == "ok"), default=0.0)
    metrics = {
        "op_p50_s": (statistics.median(per_item), "s"),
        "op_tail_s": (per_item[k - 1], "s"),
        "ops_per_s": (ok / wall_s, "1/s"),
        "decided_share": (ok / len(flat), "ratio"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (
        f"{n} items x {len(passes)} passes; tail = p{100 * k / n:.0f} "
        f"({n - k} of {n} item medians beyond); failed_ratio = "
        f"{1 - ok / len(flat):.4f} ({len(flat) - ok} of {len(flat)} ops); "
        f"slowest decided op {slowest:.3f} s; passes took {wall_s:.3f} s; "
        f"set-up probes {min(probes):.3f}-{max(probes):.3f} s"
    )
    return metrics, note


def coverage(workload, items, outcomes, spans) -> tuple[float, list[str]]:
    """Share of ops whose spans show the layers the workload must reach."""
    import tracer as tr

    need = {
        "corpus-graded": {"analyzer.analyze": 1, "ideals.groebner_basis": 1,
                          "sections.jk_ideal": 1, "invariants.milnor_number": 1},
        "sqh-local": {"analyzer.analyze": 1},
        "witness-suite": {"analyzer.counterexample_suite": 1, "ideals.quotient": 1,
                          **{f"{tr.CERT_SPAN}.C{i}": 1 for i in range(1, 8)}},
    }[workload]
    counts = {name: tr.op_counts(spans, name) for name in
              list(need) + ["ideals.local_colength"]}
    good, missing = 0, []
    for o in outcomes:
        want = dict(need)
        if workload == "sqh-local" and items[o.item].isolated and o.status == "ok":
            want["ideals.local_colength"] = 2
        short = [n for n, c in want.items() if counts[n].get(o.item, 0) < c]
        if short:
            missing.append(f"op {o.item}: too few spans of {', '.join(short)}")
        else:
            good += 1
    return good / len(outcomes), missing


def traced_run(workload, seed, items, polys, limit, cli_import_s):
    """One pass in which every op runs untraced and then traced."""
    import tracer as tr

    tracer = tr.Tracer()
    plain, traced = [], []
    for i, it in enumerate(items):
        plain.append(run_op(i, it, polys[i], 0, limit))
        tracer.install()
        try:
            traced.append(run_op(i, it, polys[i], 0, limit, tracer))
        finally:
            tracer.uninstall()
    spans = tracer.spans
    skip = {o.item for o in traced if o.status == "timeout"}
    both = {i for i in range(len(items))
            if i not in skip and plain[i].status != "timeout"}
    traced_s = sum(traced[i].latency for i in both)
    plain_s = sum(plain[i].latency for i in both)
    metrics = tr.per_layer(spans, skip | {None})
    metrics["cli.import_s"] = cli_import_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    cov, missing = coverage(workload, items, [o for o in traced if o.item not in skip], spans)
    metrics["trace.coverage"] = cov
    self_sum = sum(
        r[tr.END] - r[tr.START] for r in spans
        if r[tr.PARENT] < 0 and r[tr.OP] in both
    )
    note = (
        f"traced ops {traced_s:.3f} s, untraced {plain_s:.3f} s, overhead "
        f"{traced_s - plain_s:.3f} s; self times sum to {self_sum:.3f} s over "
        f"{len(both)} ops; {len(skip)} timed-out ops left out; "
        f"{len(spans)} spans"
    )
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tr.dump(spans, out / f"spans-{workload}-{seed}.jsonl")
    for line in missing:
        print(f"coverage: {line}", file=sys.stderr)
    return [plain, traced], metrics, note


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "singulens" / "__init__.py").is_file():
        print(f"singulens sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    limit = workloads.OP_LIMIT_S[args.workload]
    if args.trace:
        t0 = time.perf_counter()
        import singulens.cli  # noqa: F401
        cli_import_s = time.perf_counter() - t0
        import tracer as tr

        parse_tracer = tr.Tracer()
        parse_tracer.install()
        try:
            parse_tracer.start_op("setup")
            items, polys = setup(args.workload, args.seed)
        finally:
            parse_tracer.uninstall()
        passes, metrics, note = traced_run(
            args.workload, args.seed, items, polys, limit, cli_import_s
        )
        parse = tr.per_layer(parse_tracer.spans, set())
        metrics["polyring.parse.calls"] = parse["polyring.parse.calls"]
        metrics["polyring.parse.s"] = parse["polyring.parse.s"]
        units = {name: unit for name, unit, _ in tr.PER_LAYER}
        result = {name: (value, units[name]) for name, value in metrics.items()}
    else:
        items, polys = setup(args.workload, args.seed)
        passes, probes, wall_s = run_passes(
            args.workload, args.seed, items, polys, limit, args.seconds
        )
        result, note = end_to_end(items, passes, probes, wall_s)
    correct, attempted, failed, lines = judge(args.workload, items, passes)
    if args.trace and result["trace.coverage"][0] < 1:
        correct = False
    print(f"{args.workload} seed {args.seed}: {note}", file=sys.stderr)
    for line in lines:
        print(f"  {line}", file=sys.stderr)
    for name, (value, unit) in result.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
