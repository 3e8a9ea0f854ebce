"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/record.py

Runs library and session untraced and traced on each of SEEDS, and each
once more with the operations known to fail at the seed commit added (see
workloads.KNOWN_FAILING_*).  Every run lasts
BENCHMARK.json's run_seconds.  Prints every run as run.py does and writes
the medians, the per-layer table (medians over the traced runs), the
tracing overhead, the known failures, the map from each layer metric to
the end-to-end metric it should move, and the machine's facts.

The tracing overhead is the median traced wall_s minus the median
untraced wall_s, set beside the range of the untraced wall_s: an overhead
inside that range cannot be told apart from run-to-run noise.  Both wall_s
figures cover the timed sections only, so the replays that the traced run
adds are not in them; the overhead is that of the spans.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from config import ROOT, WORKLOADS
from run import END_TO_END, HERE, BenchError, measure, report
from tracing import LAYER_METRICS

SEEDS = (1, 2, 3)
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def machine() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, sympy; print(numpy.__version__, sympy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "sympy": versions[1],
        "platform": platform.platform(),
    }


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_and_print(*args, **kw) -> dict:
    r = measure(*args, **kw)
    report(r)
    print(flush=True)
    return r


def record_workload(workload: str) -> dict:
    runs = [run_and_print(workload, seed, RUN_SECONDS) for seed in SEEDS]
    traced = [run_and_print(workload, seed, RUN_SECONDS, trace=1) for seed in SEEDS]
    untraced_walls = [r["metrics"]["wall_s"][0] for r in runs]
    traced_walls = [r["metrics"]["trace.wall_s"][0] for r in traced]
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    run_to_run = max(untraced_walls) - min(untraced_walls)
    entry = {
        "end_to_end": {
            name: {"unit": unit,
                   "median": statistics.median(r["metrics"][name][0] for r in runs),
                   "runs": [r["metrics"][name][0] for r in runs]}
            for name, unit in END_TO_END
        },
        "op_tail_s": [{"percentile": r["op_tail"][0], "value": r["op_tail"][1]}
                      if r["op_tail"] else None for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "failed": [len(r["failures"]) for r in runs],
        "op_list_sha256": {
            "seeds": {str(r["seed"]): r["op_list_sha256"] for r in runs},
            "same_seed_same_inputs": all(t["op_list_sha256"] == r["op_list_sha256"]
                                         for t, r in zip(traced, runs)),
        },
        "per_layer": {name: statistics.median(t["metrics"][name][0] for t in traced)
                      for name in traced[0]["metrics"]},
        "traced_failed": [len(t["failures"]) for t in traced],
        "tracing_overhead": {
            "traced_wall_s": traced_walls,
            "untraced_wall_s": untraced_walls,
            "median_traced_minus_untraced_s": overhead,
            "untraced_range_s": run_to_run,
            "below_run_to_run_range": abs(overhead) < run_to_run,
        },
    }
    probe = run_and_print(workload, SEEDS[0], RUN_SECONDS, known_failures=True)
    entry["known_failures"] = {
        "attempted": probe["attempted"],
        "failed": len(probe["failures"]),
        "failed_frac": len(probe["failures"]) / probe["attempted"],
        "failures": [{"op": op, "error": err} for op, err in probe["failures"]],
    }
    return entry


def main() -> int:
    try:
        workloads = {w: record_workload(w) for w in WORKLOADS}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    baseline = {
        "command": "python3 perfbench/record.py",
        "seeds": list(SEEDS),
        "run_seconds": RUN_SECONDS,
        "commit": commit(),
        "machine": machine(),
        "layer_targets": {name: moves for name, *_, moves in LAYER_METRICS},
        "workloads": workloads,
    }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
