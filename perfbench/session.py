"""One benchmark session in a fresh interpreter: set up, then timed passes.

Started by run.py, never by hand.  The session writes its measurements as
JSON to ``--result``.  With ``--trace 1`` every call into bipkit, in the
set-up and in each pass, is recorded as a span, and the spans are written to
``--trace-file``.  Passes repeat until ``--budget`` seconds of passes have
run, with at least one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import NullTracer, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

REF_SLICE_ITERATIONS = 5000
REF_SLICE_S = 0.02  # nominal slice time that scaled seconds refer to
PROBE_INTERVAL_S = 0.2
MIN_SLICES = 3


def peak_rss_kb() -> int:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


def reference_slice() -> None:
    """A fixed slice of pure-Python work (bit tricks, tuple keys, a dict)."""
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    for i in range(REF_SLICE_ITERATIONS):
        x = i * 2654435761 & 0xFFFFFFFF
        while x:
            low = x & -x
            x ^= low
            acc += low.bit_length()
        key = (i & 1023, acc & 7)
        seen[key] = seen.get(key, 0) + 1


class SpeedProbe:
    """Samples the machine's current speed while a measurement runs.

    Every PROBE_INTERVAL_S of this process's CPU time, a SIGPROF handler runs
    one reference slice and times it; a measurement too short for MIN_SLICES
    slices is topped up right after.  ``spent`` is the slices' total time,
    which the caller takes out of the interval it measures, and which is
    also added to the tracer's ``paused`` so that spans can leave it out.
    ``scale`` rescales the rest to a machine on which one slice takes
    REF_SLICE_S; this removes most of the speed drift a shared host shows.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.slices = 0
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        reference_slice()
        dt = perf_counter() - t0
        self.spent += dt
        self.tracer.paused += dt
        self.slices += 1

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        while self.slices < MIN_SLICES:  # short intervals: sample the speed right after
            self._tick()

    def scale(self, seconds: float) -> float:
        """``seconds`` of work measured under the probe, at reference speed."""
        return seconds * REF_SLICE_S * self.slices / self.spent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when run.py started us")
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    report = {"traced": bool(args.trace), "setup_s": None, "passes": [], "attempted": 0, "failed": 0, "messages": []}
    try:
        tracer.run_id = "setup"
        with SpeedProbe(tracer) as probe:
            st = wl.setup(args.seed, tracer, args.work_dir)
            setup_raw = time.monotonic() - args.spawned - probe.spent
        report["setup_raw_s"] = setup_raw
        report["setup_s"] = probe.scale(setup_raw)
        wl.prepare(st, bool(args.first))
        body = 0.0
        while not report["passes"] or body < args.budget:
            tracer.run_id = f"pass{len(report['passes'])}"
            latencies: list[float] = []
            with SpeedProbe(tracer) as probe:
                t0, spent0 = perf_counter(), probe.spent
                out = wl.run_pass(st, tracer, latencies)
                raw = perf_counter() - t0 - (probe.spent - spent0)
            body += raw
            chk = Checks()
            wl.check(st, out, chk)
            del out
            report["passes"].append(
                {
                    "raw_wall_s": raw,
                    "wall_s": probe.scale(raw),
                    "units": len(latencies) if wl.latency_name else wl.units(st),
                    "latencies_s": latencies,
                }
            )
            report["attempted"] += chk.attempted
            report["failed"] += chk.failed
            report["messages"] += chk.messages
    except Exception:  # a crash is a failed check, reported with its traceback
        report["attempted"] += 1
        report["failed"] += 1
        report["messages"].append(traceback.format_exc())
    report["peak_rss_kb"] = peak_rss_kb()
    if isinstance(tracer, Tracer):
        report["trace_units"] = aggregate(tracer.spans)
        if args.trace_file:
            tracer.dump(args.trace_file)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
