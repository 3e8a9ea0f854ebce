"""Write one point of the benchmark trend: BENCH_<short-sha>.json.

    python3 tools/bench_trend.py [--out PATH] [--smoke]

Runs perfbench/run.py untraced for the library and session workloads on
each of SEEDS, for BENCHMARK.json's run_seconds each, and writes
BENCH_<short-sha>.json at the repo root for the commit checked out: per
workload the four gated end-to-end metrics of BENCHMARK.json (every run
and the median over the seeds), the attempted and failed operation
counts, and the run settings and machine.  A run
measures the sources on disk, so the file is written only when src/ and
perfbench/ match HEAD; --out writes elsewhere and lifts that check.
--smoke passes --smoke to run.py (small inputs, one seed, one second per
run), for checking this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = (11, 12, 13)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run(workload: str, seed: int, seconds: float, smoke: bool, root: Path = ROOT) -> dict:
    """One perfbench run of the checkout at root: its JSON result line,
    with the seed added."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)] + ["--smoke"] * smoke
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_trend: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    missing = set(METRICS) - set(result["metrics"])
    if missing:
        raise SystemExit(f"bench_trend: {workload} seed {seed} reported no {sorted(missing)}")
    print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}  " +
          "  ".join(f"{m} {result['metrics'][m]['value']:.4g}" for m in METRICS), flush=True)
    return {"seed": seed, **result}


def summary(runs: list[dict]) -> dict:
    return {
        "metrics": {
            m: {"unit": runs[0]["metrics"][m]["unit"],
                "median": statistics.median(r["metrics"][m]["value"] for r in runs),
                "runs": [r["metrics"][m]["value"] for r in runs]}
            for m in METRICS
        },
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write here instead of BENCH_<short-sha>.json")
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one seed and one second per run")
    args = ap.parse_args(argv)
    sha = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    if dirty and args.out is None:
        print("bench_trend: src/ or perfbench/ differ from HEAD; commit them or pass --out",
              file=sys.stderr)
        return 2
    seeds, seconds = (SEEDS[:1], 1.0) if args.smoke else (SEEDS, BENCHMARK["run_seconds"])
    workloads = {w: summary([run(w, s, seconds, args.smoke) for s in seeds])
                 for w in WORKLOADS}
    point = {
        "commit": sha,
        "sources_match_commit": not dirty,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S"
                   + " --smoke" * args.smoke,
        "settings": {"seeds": list(seeds), "seconds": seconds, "smoke": args.smoke},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "sympy": version("sympy"),
            "platform": platform.platform(),
        },
        "workloads": workloads,
    }
    out = args.out or ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
