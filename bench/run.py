"""Benchmark for ltlwb: whole rounds of rows, timed, checked, one JSON line.

    python3 bench/run.py --workload mc-tiling --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ltlwb from its src/.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
from a traced run (see spans.py).  A run repeats whole rounds, at least
MIN_ROUNDS, and starts none that would end after --seconds.  End-to-end
times are corrected for the host's speed of the moment (hostspeed.py).
Result and trace files go to bench/results/.

    python3 bench/run.py --reference

prints the reference figures of README.md instead.
"""

import time

_CLOCK_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# a run starts no new round after this much wall time, so that even a
# traced run with its untraced reference round ends well inside 180 s
WALL_LIMIT_S = 100.0
# a row's time is the median of its calls, one per round
MIN_ROUNDS = 3


def since_process_start():
    """Seconds since this process started, interpreter start-up included
    where /proc tells when that was."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _CLOCK_START


def import_program():
    """ltlwb from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ltlwb", "__init__.py")):
        raise SystemExit("error: no ltlwb sources under %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import ltlwb
    import ltlwb.cli  # noqa: F401  (the reduce certificate text)

    if os.path.dirname(os.path.abspath(ltlwb.__file__)) != os.path.join(src, "ltlwb"):
        raise SystemExit("error: imported ltlwb from %s" % ltlwb.__file__)
    return ltlwb


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


class Outcome:
    """Everything one pass over whole rounds produced."""

    def __init__(self):
        self.row_s = []      # row index -> its timed calls, one per round
        self.row_at = []     # row index -> when each of those calls started
        self.round_s = []
        self.timed_s = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_verdicts = None
        self.reports = []


def run_rounds(workload, seconds, pace, tracer=None, max_rounds=None, min_rounds=1):
    """Whole rounds, at least min_rounds, starting none that would end, at
    the last round's pace, more than `seconds` after the first began.  Each
    row is checked, with the tracer paused, as soon as its timed call
    returns, so no round keeps its outputs alive."""
    out = Outcome()
    out.row_s = [[] for _ in workload.rows]
    out.row_at = [[] for _ in workload.rows]
    out.pace = pace
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        verdicts = []
        round_s = 0.0
        for i, row in enumerate(workload.rows):
            pace.maybe_sample()
            t = time.perf_counter()
            try:
                result, exc = row.run(), None
            except Exception as e:  # a row that raises is a failed row
                result, exc = None, e
            elapsed = time.perf_counter() - t
            out.row_s[i].append(elapsed)
            out.row_at[i].append(t)
            round_s += elapsed
            if tracer is not None:
                tracer.paused = True
            if exc is not None:
                problems = ["raised %s" % "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()]
                verdict = ("raised", type(exc).__name__)
            else:
                verdict, problems = row.check(result)
            del result
            if tracer is not None:
                tracer.paused = False
            verdicts.append(verdict)
            out.attempted += 1
            if problems:
                out.failed += 1
                out.wrong += exc is None
                if len(out.reports) < 5:
                    out.reports.append("%s: %s" % (row.label, "; ".join(problems)))
        out.round_s.append(round_s)
        out.timed_s += round_s
        out.rounds += 1
        if out.first_verdicts is None:
            out.first_verdicts = verdicts
        elif verdicts != out.first_verdicts:
            out.wrong += 1
            out.reports.append("round %d gave other verdicts than round 1" % out.rounds)
        if max_rounds is not None and out.rounds >= max_rounds:
            return out
        if time.perf_counter() - _CLOCK_START > WALL_LIMIT_S:
            return out
        # start no round that the last one says would end after `seconds`
        now = time.perf_counter()
        if out.rounds >= min_rounds and now + (now - round_start) - start > seconds:
            return out


def corrected(out):
    """Row index -> its calls' times divided by the host's slowdown around
    each (hostspeed.py)."""
    return [[t / out.pace.slowdown(at) for t, at in zip(ts, ats)]
            for ts, ats in zip(out.row_s, out.row_at)]


def end_to_end(workload, out, setup_s):
    """Each row counts with the median of its corrected calls over the
    run's rounds.  Set-up is one cold start, timed as it is."""
    per_row = sorted(statistics.median(c) for c in corrected(out))
    ok_share = (out.attempted - out.failed) / out.attempted
    return {
        "rows_per_s": (ok_share * len(per_row) / sum(per_row), "rows/s"),
        "row_ms_p50": (statistics.median(per_row) * 1e3, "ms"),
        "row_ms_tail": (percentile(per_row, workload.tail_pct) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="print the reference figures of README.md and exit")
    args = ap.parse_args(argv)

    ltlwb = import_program()
    import workloads

    if args.reference:
        import reference

        reference.main(ltlwb)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))

    workload = workloads.WORKLOADS[args.workload](ltlwb, args.seed)
    setup_s = since_process_start()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, ltlwb)
    try:
        t0 = time.perf_counter()
        pace = hostspeed.Pace()
        out = run_rounds(workload, args.seconds, pace, tracer,
                         min_rounds=1 if tracer else MIN_ROUNDS)
    finally:
        if tracer is not None:
            tracer.restore()

    # a row that raises is failed; one that answers wrongly is also incorrect
    correct = out.wrong == 0
    report = {"workload": args.workload, "seed": args.seed, "rounds": out.rounds,
              "rows_per_round": len(workload.rows), "round_s": out.round_s,
              "problems": out.reports}
    if tracer is None:
        metrics = end_to_end(workload, out, setup_s)
        # the same figures from plain wall times, every call counted
        calls = sorted(t for ts in out.row_s for t in ts)
        report["uncorrected"] = {
            "rows_per_s": (out.attempted - out.failed) / out.timed_s,
            "row_ms_p50": statistics.median(calls) * 1e3,
            "row_ms_tail": percentile(calls, workload.tail_pct) * 1e3}
        report["calibrations"] = len(out.pace.took)
        report["median_slowdown"] = statistics.median(out.pace.took) / hostspeed.REFERENCE_S
    else:
        # the same rows once more with the wrappers removed: verdicts must
        # match, and the time of one round gives the tracing overhead
        plain = run_rounds(workload, 0.0, pace, max_rounds=1)
        match = plain.first_verdicts == out.first_verdicts
        correct = correct and match and plain.wrong == 0
        overhead = (sum(map(sum, corrected(out))) / out.rounds) / sum(map(sum, corrected(plain)))
        print("traced verdicts %s the untraced ones on all %d rows of a round; "
              "traced/untraced corrected round time %.3f"
              % ("match" if match else "DIFFER from", len(workload.rows), overhead),
              file=sys.stderr)
        report.update(verdicts_match=match, trace_overhead=overhead)
        units = spans.per_layer_units()
        metrics = {k: (v, units[k]) for k, v in tracer.metrics(out.rounds).items()}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(
            RESULTS, "trace-%s-seed%d.csv.gz" % (args.workload, args.seed)), t0)
    for line in out.reports:
        print("failed row: " + line, file=sys.stderr)

    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
