"""Compare two revisions on one benchmark workload, in alternated pairs.

    python3 tools/ab_pairs.py REV_A REV_B --workload W [--pairs N]
        [--seed N] [--smoke]

REV_A is the base (the parent commit) and REV_B the change.  Each
revision's committed files are extracted with `git archive` into a
temporary directory, and perfbench/run.py runs there untraced for
BENCHMARK.json's run_seconds, so each side measures its own sources with
its own benchmark code.  Pair i runs seed SEED + i on both sides, REV_A
first in even pairs and REV_B first in odd ones, so that a drift in the
host's load falls on both alike.

Prints every run, then for each end-to-end metric of BENCHMARK.json, in
its own better direction: the pairs where REV_B is better and worse (ties
count for neither), both medians and quartiles, the change of the median
against the metric's bound, and whether a gain is shown: REV_B better in
at least nine tenths of the pairs, and the medians apart by more than
REV_A's interquartile range.  Exits 1 when any operation fails.  --smoke
passes --smoke to run.py (small inputs) with one second per run, for
checking this script.
"""

from __future__ import annotations

import argparse
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_trend import BENCHMARK, ROOT, run


def checkout(rev: str, into: Path) -> Path:
    """The committed files of rev, extracted under into; SystemExit when
    rev names no commit."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: git archive {rev}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); all three are the value itself for a single run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """One metric's summary over the pairs (a[i], b[i])."""
    lower = metric["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    gain = a2 - b2 if lower else b2 - a2
    shown = wins >= 0.9 * len(a) and gain > a3 - a1
    change = (b2 - a2) / a2 if a2 else 0.0
    return (f"{metric['name']} ({metric['better']} is better): B better in {wins}, worse in "
            f"{losses} of {len(a)} pairs; median {a2:.4g} -> {b2:.4g} {metric['unit']} "
            f"({change:+.1%}, bound {metric['bound']:.0%}); quartiles A {a1:.4g}-{a3:.4g}, "
            f"B {b1:.4g}-{b3:.4g}; gain {'shown' if shown else 'not shown'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a", help="the base revision, such as the parent commit")
    ap.add_argument("rev_b", help="the changed revision")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101, help="the seed of the first pair")
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and one second per run")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = 1.0 if args.smoke else BENCHMARK["run_seconds"]
    results: dict[str, list[dict]] = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {side: checkout(rev, Path(tmp) / side)
                 for side, rev in (("A", args.rev_a), ("B", args.rev_b))}
        for i in range(args.pairs):
            seed = args.seed + i
            order = "AB" if i % 2 == 0 else "BA"
            print(f"pair {i}, seed {seed}: {order[0]} first", flush=True)
            for side in order:
                results[side].append(run(args.workload, seed, seconds, args.smoke, trees[side]))
    print(f"A = {args.rev_a}, B = {args.rev_b}, {args.workload}:")
    for metric in BENCHMARK["end_to_end"]:
        a, b = ([r["metrics"][metric["name"]]["value"] for r in results[side]] for side in "AB")
        print(verdict(metric, a, b))
    failed = sum(r["failed"] for runs in results.values() for r in runs)
    if failed:
        print(f"ab_pairs: {failed} operations failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
