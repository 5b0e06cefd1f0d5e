"""bipkit benchmark runner.

    python3 perfbench/run.py --workload lemma-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs as sessions, each a fresh interpreter (perfbench/session.py),
because the enumeration level cache is global to a process.  A run starts at
least three sessions; cold workloads (one pass per session) keep starting
sessions until ``--seconds`` have passed, warm workloads share ``--seconds``
of passes among their three sessions.  With ``--trace 1`` every second
session is traced.

With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric.
Lines before it are a readable report.  Every run also writes a result file
under perfbench/out/results (or ``--results-dir``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

from stats import percentile, percentile_label, tail_percentile  # noqa: E402
from tracing import LAYER_METRICS, TRACE_OVERHEAD, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit, better): the metrics every untraced run reports, in order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS} | {TRACE_OVERHEAD[0]: TRACE_OVERHEAD[1]}

MIN_SESSIONS = 3
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s


class SessionError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_session(name: str, seed: int, budget: float, trace: bool, first: bool, deadline: float, tag: str) -> dict:
    """Start one session interpreter, wait for it, and return its report."""
    work = os.path.join(OUT, "work", tag)
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", name,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--trace", str(int(trace)),
        "--first", str(int(first)),
        "--work-dir", work,
        "--result", result,
    ]
    if trace:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        cmd += ["--trace-file", os.path.join(OUT, "traces", f"{tag}.json")]
    try:
        spawned = time.monotonic()
        # a process group of its own, so that anything it leaves behind can be killed with it
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.wait()
            raise SessionError(f"{tag} did not finish before the run deadline") from None
        finally:
            _kill_group(proc.pid)
        if code != 0:
            raise SessionError(f"{tag} exited with {code}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, stamp: str) -> dict:
    wl = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    budget = 0.0 if wl.cold else seconds / MIN_SESSIONS
    sessions = []
    while len(sessions) < MIN_SESSIONS or (wl.cold and time.monotonic() - start < seconds):
        i = len(sessions)
        tag = f"{name}-seed{seed}-{stamp}-s{i}"
        sessions.append(run_session(name, seed, budget, trace and i % 2 == 1, i == 0, deadline, tag))
    return summarise(wl, sessions, trace)


def summarise(wl, sessions: list[dict], trace: bool) -> dict:
    plain = [s for s in sessions if not s["traced"]]
    plain_passes = [p for s in plain for p in s["passes"]]
    traced_passes = [p for s in sessions if s["traced"] for p in s["passes"]]
    setups = [s["setup_s"] for s in plain if s["setup_s"] is not None]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "messages": [m for s in sessions for m in s["messages"]][:20],
        "samples": {
            "sessions": len(sessions),
            "setups": len(setups),
            "plain_passes": len(plain_passes),
            "traced_passes": len(traced_passes),
        },
        "raw": {
            "setup_s": setups,
            "setup_raw_s": [s["setup_raw_s"] for s in plain if "setup_raw_s" in s],
            "wall_s": [p["wall_s"] for p in plain_passes],
            "wall_raw_s": [p["raw_wall_s"] for p in plain_passes],
            "traced_wall_s": [p["wall_s"] for p in traced_passes],
            "peak_rss_kb": [s["peak_rss_kb"] for s in sessions],
        },
        "metrics": {},
        "extra": {},
    }
    if not plain_passes or not setups:
        return summary
    wall = statistics.median(p["wall_s"] for p in plain_passes)
    units = statistics.median(p["units"] for p in plain_passes)
    summary["metrics"] = {
        "wall_s": wall,
        "units_per_s": units / wall,
        "peak_rss_mb": max(s["peak_rss_kb"] for s in plain) / 1024,
        "setup_s": statistics.median(setups),
    }
    raw_wall = statistics.median(summary["raw"]["wall_raw_s"])
    extra = {
        wl.throughput_name: (units / wall, "1/s"),
        "raw_wall_s": (raw_wall, "s"),
        "raw_setup_s": (statistics.median(summary["raw"]["setup_raw_s"]), "s"),
    }
    if wl.latency_name:
        lat = [x * 1000 for p in plain_passes for x in p["latencies_s"]]
        summary["samples"]["latency"] = len(lat)
        extra[f"{wl.latency_name}_p50_ms"] = (percentile(lat, 50), "ms")
        tail = tail_percentile(lat)
        if tail is not None:
            p, value, beyond = tail
            extra[f"{wl.latency_name}_{percentile_label(p)}_ms"] = (value, "ms")
            summary["samples"]["latency_beyond_tail"] = beyond
    summary["extra"] = extra
    if trace and traced_passes:
        layers = layer_metrics([unit for s in sessions for unit in s.get("trace_units", {}).values()])
        layers[TRACE_OVERHEAD[0]] = statistics.median(summary["raw"]["traced_wall_s"]) - wall
        summary["layers"] = layers
    return summary


def report(name: str, seed: int, summary: dict, trace: bool) -> None:
    print(f"== {name}  seed {seed}  trace {int(trace)}")
    samples, m = summary["samples"], summary["metrics"]
    if m:
        print(f"  {'setup_s':24s} {m['setup_s']:12.4f} s     reference-scaled median of {samples['setups']} set-ups")
        print(f"  {'wall_s':24s} {m['wall_s']:12.4f} s     reference-scaled median of {samples['plain_passes']} passes")
        print(f"  {'units_per_s':24s} {m['units_per_s']:12.4f} 1/s")
        print(f"  {'peak_rss_mb':24s} {m['peak_rss_mb']:12.2f} MB    own process + largest child")
        for metric, (value, unit) in summary["extra"].items():
            print(f"  {metric:24s} {value:12.4f} {unit}")
        if "latency" in samples:
            print(f"  {'latency samples':24s} {samples['latency']:12d}       "
                  f"{samples.get('latency_beyond_tail', 0)} beyond the tail percentile")
    print(f"  {'failed_ratio':24s} {summary['failed_ratio']:12.4f}       "
          f"{summary['failed']} of {summary['attempted']} checks")
    for msg in summary["messages"]:
        print(f"  FAILED: {msg.rstrip()}")
    for metric, value in summary.get("layers", {}).items():
        print(f"  {metric:36s} {value:14.6f} {LAYER_UNITS[metric]}")


def write_result(results_dir: str, name: str, args, summary: dict, stamp: str) -> None:
    os.makedirs(results_dir, exist_ok=True)
    record = {
        "workload": name,
        "seed": args.seed,
        "args": {"seconds": args.seconds, "trace": args.trace},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "time_utc": stamp,
        **summary,
    }
    path = os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description="bipkit benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", default=os.path.join(OUT, "results"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "bipkit", "__init__.py")):
        print(f"error: bipkit sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + f"-{os.getpid()}"
    results = {}
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, trace, stamp)
            report(name, args.seed, summary, trace)
            write_result(args.results_dir, name, args, summary, stamp)
            results[name] = summary
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, summary in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        values = summary.get("layers", {}) if trace else summary["metrics"]
        units = LAYER_UNITS if trace else {metric: unit for metric, unit, _ in END_TO_END}
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(s["failed"] for s in results.values())
    complete = all(s.get("layers") if trace else s["metrics"] for s in results.values())
    correct = failed == 0 and complete
    attempted = max(1, sum(s["attempted"] for s in results.values()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
