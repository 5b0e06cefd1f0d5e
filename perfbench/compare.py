"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files of untraced runs (``run.py
--results-dir DIR``), ideally ten seeds per workload, with base and new runs
alternated.  For every workload and metric the command prints both sides'
medians and quartiles, the fraction of seed-matched pairs that the new side
wins (ties count for neither), and a verdict against the metric's bound in
BENCHMARK.json:

- unresolved: either side's quartile spread exceeds the bound, and not every
  new run beats every base run;
- improved: the new side wins at least nine tenths of the pairs and its
  median beats the base median by more than the base's quartile distance;
- worse: the new median is worse than the base median by more than the bound;
- no worse: otherwise.

Metrics without a bound (the per-unit latencies) get medians and pair wins
but no verdict.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from stats import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict[str, list[dict]]:
    """workload -> untraced result records, ordered by seed then time."""
    out: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["args"]["trace"] == 0 and rec["metrics"]:
            out.setdefault(rec["workload"], []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: (r["seed"], r["time_utc"]))
    return out


def values(rec: dict) -> dict[str, float]:
    vals = dict(rec["metrics"])
    vals.update({name: v for name, (v, _unit) in rec["extra"].items()})
    return vals


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_wins(base: list[tuple[int, float]], new: list[tuple[int, float]], better: str) -> tuple[int, int]:
    """(new wins, pairs) over runs matched by seed, in order within a seed."""
    by_seed: dict[int, list[float]] = {}
    for seed, v in base:
        by_seed.setdefault(seed, []).append(v)
    wins = pairs = 0
    for seed, v in new:
        if by_seed.get(seed):
            b = by_seed[seed].pop(0)
            pairs += 1
            wins += beats(v, b, better)
    return wins, pairs


def verdict(base: list[float], new: list[float], better: str, bound: float, win_fraction: float) -> str:
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    all_better = all(beats(n, b, better) for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if win_fraction >= 0.9 and beats(nmed, bmed, better) and abs(nmed - bmed) > bq3 - bq1:
        return "improved"
    worse_by = (nmed - bmed) / bmed if better == "lower" else (bmed - nmed) / bmed
    return "worse" if worse_by > bound else "no worse"


def main() -> int:
    ap = argparse.ArgumentParser(description="compare two directories of benchmark results")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load(args.base), load(args.new)
    worst = 0
    rank = {"improved": 0, "no worse": 0, "-": 0, "unresolved": 1, "worse": 2}
    print(f"{'workload':14s} {'metric':18s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s} {'wins':>7s}  verdict")
    for workload in sorted(set(base) & set(new)):
        names = sorted(set(values(base[workload][0])) & set(values(new[workload][0])))
        for name in names:
            b = [(r["seed"], values(r)[name]) for r in base[workload]]
            n = [(r["seed"], values(r)[name]) for r in new[workload]]
            better = spec[name]["better"] if name in spec else ("higher" if name.endswith("_per_s") else "lower")
            wins, pairs = pair_wins(b, n, better)
            fraction = wins / pairs if pairs else 0.0
            bvals, nvals = [v for _, v in b], [v for _, v in n]
            word = verdict(bvals, nvals, better, spec[name]["bound"], fraction) if name in spec else "-"
            worst = max(worst, rank[word])
            bq, nq = quartiles(bvals), quartiles(nvals)
            print(
                f"{workload:14s} {name:18s} {'/'.join(f'{x:.4g}' for x in bq):>30s} "
                f"{'/'.join(f'{x:.4g}' for x in nq):>30s} {wins:>3d}/{pairs:<3d}  {word}"
            )
    return worst


if __name__ == "__main__":
    sys.exit(main())
