"""phasekit benchmark: one workload as a closed loop, one client, one process.

    python3 perfbench/run.py --workload {figures,rk4,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src/``.
Each op is checked against ``perfbench/reference.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See ``perfbench/NOTES.md``.

Untraced run: one untimed warm-up round, then whole rounds until
``--seconds`` of round time have passed, each op timed from call to return.
Spread over that period, ``Workload.probes`` fresh interpreters each time
``import phasekit, phasekit.cli`` and then run the workload's first op.

Traced run: the same warm-up, then rounds alternate between untraced and
traced (wrappers installed only for the traced ones) until ``--seconds``
have passed; per-layer values are per traced round, and the tracing overhead
is the traced rounds' mean op time minus the untraced rounds'.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads (probes inherit it): the program's
# matrices are at most 2001x16, too small for a second BLAS thread to help,
# and an idle OpenBLAS worker spins on the other core, which doubled CPU time
# and made run-to-run medians unsteady on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
SPANS = wl.ROOT / ".perfbench-out"
SPAN_ROUNDS = 3  # a verify run traces ~300 000 spans; the file keeps 3 rounds
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILE = 90

END_TO_END = (
    ("setup_s", "s"),
    ("first_op_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, failure) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)


def probe(workload: str, seed: int) -> dict:
    """One fresh interpreter: import time, then the first op's latency."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
           "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failure": f"probe timed out after {PROBE_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"failure": f"probe exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"failure": f"probe printed no result: {lines[-1][:300]}"}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at p90, or at the highest percentile with at least 10 samples
    beyond it where p90 has fewer: (value, percentile, sample count).

    A higher percentile of a few hundred ops is set by the few seconds in a
    run when the shared host is busiest, and spread past its bound between
    runs of the same code; p90 needs a tenth of the run to be slow to move.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(n * TAIL_PERCENTILE / 100), n - 10))
    return ordered[rank - 1], 100.0 * rank / n, n


def timed_run(workload: wl.Workload, args, tally: Tally) -> tuple[dict, list[str]]:
    for op in workload.rounds(0):  # warm-up, untimed
        tally.add(wl.run_op(op)[1])

    # The machine's speed drifts over seconds, so the fresh-process probes are
    # spread evenly over the measured period instead of run back to back; the
    # period counts only the time spent in rounds, not in probes.
    probes: list[dict] = []
    latencies: list[float] = []
    succeeded = 0
    rounds = 0
    measured = 0.0
    while rounds == 0 or measured < args.seconds:
        while (len(probes) < workload.probes
               and measured >= len(probes) * args.seconds / workload.probes):
            probes.append(probe(args.workload, args.seed))
        rounds += 1
        start = time.perf_counter()
        for op in workload.rounds(rounds):
            elapsed, failure = wl.run_op(op)
            tally.add(failure)
            if elapsed is not None:
                latencies.append(elapsed)
                succeeded += failure is None
        measured += time.perf_counter() - start
    while len(probes) < workload.probes:
        probes.append(probe(args.workload, args.seed))

    for p in probes:
        tally.add(p.get("failure"))
    import_s = [p["import_s"] for p in probes if "import_s" in p]
    first_s = [p["first_op_s"] for p in probes if p.get("first_op_s") is not None]
    if not import_s or not first_s or not latencies:
        raise RuntimeError("no op or no fresh-process probe completed: "
                           + "; ".join(tally.failures[:3]))

    tail_s, pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(import_s),
        "first_op_s": statistics.median(first_s),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": succeeded / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"{len(latencies)} warm ops in {rounds} rounds, {measured:.1f} s",
        "setup_s: median of fresh imports " + " ".join(f"{t:.4f}" for t in import_s),
        f"first_op_s: median of fresh processes ({workload.first_op.label}) "
        + " ".join(f"{t:.4f}" for t in first_s),
        f"op_tail_s: p{pct:.2f} of {n} samples, {n - round(n * pct / 100)} beyond",
    ]
    return metrics, notes


def traced_run(workload: wl.Workload, args, tally: Tally) -> tuple[dict, list[str]]:
    tracer = tr.Tracer()
    for op in workload.rounds(0):  # warm-up, untimed and untraced
        tally.add(wl.run_op(op)[1])

    plain: list[float] = []
    traced: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < args.seconds:
        rounds += 1
        tracing = rounds % 2 == 0
        total = 0.0
        if tracing:
            tracer.install()
        try:
            for index, op in enumerate(workload.rounds(rounds)):
                before = after = None
                if tracing:
                    def before(op_id=(rounds, index)):
                        tracer.op = op_id

                    def after():
                        tracer.op = None
                elapsed, failure = wl.run_op(op, before, after)
                tally.add(failure)
                total += elapsed or 0.0
        finally:
            tracer.uninstall()
        (traced if tracing else plain).append(total)

    metrics = tr.layer_metrics(tracer, len(traced))
    metrics["trace.round_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    shares = tr.layer_shares(tracer, len(traced))
    spanned = sum(self_s for _, self_s, _, _ in shares) or 1.0
    notes = [f"{len(traced)} traced and {len(plain)} untraced rounds, "
             f"{len(tracer.spans)} spans, {tracer.hook_errors} count errors",
             f"per traced round: {spanned:.4f} s inside spans, untraced round "
             f"{statistics.fmean(plain):.4f} s; shares are of the time inside spans",
             "  layer          self_s  share   busy_s  share   calls"]
    for layer, self_s, busy_s, calls in shares:
        notes.append(f"  {layer:<13}{self_s:9.4f} {100 * self_s / spanned:5.1f}%"
                     f" {busy_s:9.4f} {100 * busy_s / spanned:5.1f}% {calls:7g}")
    notes.append(f"spans of {SPAN_ROUNDS} traced rounds written to {write_spans(tracer, args)}")
    return metrics, notes


def write_spans(tracer: tr.Tracer, args) -> Path:
    """Write the spans of the first SPAN_ROUNDS traced rounds, one per line."""
    SPANS.mkdir(exist_ok=True)
    path = SPANS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    kept = set(sorted({s.op[0] for s in tracer.spans if s.op})[:SPAN_ROUNDS])
    spans = [s for s in tracer.spans if s.op and s.op[0] in kept]
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "self_s": s.self_time,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "op": s.op}) + "\n")
    return path


def metric_units(trace: bool) -> dict[str, str]:
    if trace:
        units = {name: unit for name, unit, *_ in tr.METRICS}
        units.update({name: unit for name, unit, _ in tr.RUNNER_METRICS})
        return units
    return dict(END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasekit benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = wl.load_program()
    except (wl.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load phasekit: {exc}", file=sys.stderr)
        return 2

    work = wl.WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        ctx = wl.Context(program, wl.load_reference(), work)
        workload = wl.build(args.workload, ctx, args.seed)
        run = traced_run if args.trace else timed_run
        metrics, notes = run(workload, args, tally)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            wl.WORK.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    if args.workload == "figures":
        print(f"csv byte-identical to the reference: {ctx.csv_identical}/{ctx.csv_files}")
    print(f"ops_attempted {tally.attempted}")
    print(f"ops_failed {len(tally.failures)}")
    for failure in tally.failures[:5]:
        print(f"  failed: {failure}", file=sys.stderr)
    units = metric_units(bool(args.trace))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
