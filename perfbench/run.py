"""Benchmark for the twovalued library and CLI: one workload, one seed.

    python3 perfbench/run.py --workload {library,session} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from src/ next to this
directory.  The workload runs in a child process (worker.py) under a 3 GiB
address-space cap, closed loop with one client: after a few untimed
warm-up operations, whole passes over the seeded operation list, as many
as fit in S seconds by the length of the last one, at least one.  Every
answer is checked outside the timed sections; a failed operation counts in
`failed` and ranks as +inf in the latency percentiles.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones:

    setup_s      median wall time of `import twovalued` in a fresh
                 interpreter, over six interpreters, three started
                 before the workload and three after it
    wall_s       median over passes of the time to finish the operation
                 list (timed sections only, failed operations included)
    op_p50_s     median over the operations of each one's latency, which
                 is the median of its timed seconds over the passes
    peak_rss_mb  peak resident memory of the worker; for session, of the
                 largest CLI process

The lines before it also give op_tail_s (the highest percentile with at
least ten operations beyond it, where the count allows), failed_frac and
the sha256 of the generated operation list.  With --trace 1 the metrics
are the per-layer ones of tracing.LAYER_METRICS, per pass, and the spans
are written to .perfbench-out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from config import ENV, ROOT, SRC, WORKLOADS
from tracing import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
MEM_CAP_BYTES = 3 << 30
SETUP_SAMPLES = 6
SYMPY_SAMPLES = 4
WORKER_TIMEOUT_S = 155

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def fresh_import_seconds(module: str) -> float:
    """Wall time of `import module` in a new interpreter."""
    code = ("import sys, time; t = time.perf_counter(); import " + module +
            " as m; print(time.perf_counter() - t); print(m.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import {module} failed:\n{proc.stderr[-2000:]}")
    seconds, path = proc.stdout.splitlines()[:2]
    if module == "twovalued" and not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"twovalued was imported from {path}, not from {SRC}")
    return float(seconds)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               known_failures: bool, workdir: Path) -> dict:
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    cmd += ["--smoke"] * smoke + ["--known-failures"] * known_failures
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, preexec_fn=_cap_memory,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """(p, value) for the highest whole percentile p that has at least ten
    operations beyond it (nearest rank), or None below p50."""
    n = len(latencies)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, sorted(latencies)[math.ceil(p * n / 100) - 1]


def op_latencies(records) -> list[float]:
    """Each operation's latency: the median over the passes of its timed
    seconds, where a failed attempt counts as +inf."""
    per_op: dict[int, list[float]] = {}
    for _, i, t, err in records:
        per_op.setdefault(i, []).append(math.inf if err else t)
    return [statistics.median(v) for v in per_op.values()]


def measure(workload: str, seed: int, seconds: float, trace: int = 0,
            smoke: bool = False, known_failures: bool = False) -> dict:
    """One benchmark run.  Raises BenchError when it cannot run."""
    if not (SRC / "twovalued" / "__init__.py").is_file():
        raise BenchError(f"no twovalued sources under {SRC}")
    # import times drift with the host's load over tens of seconds, so half
    # the fresh interpreters start before the worker and half after it
    module, samples = ("sympy", SYMPY_SAMPLES) if trace else ("twovalued", SETUP_SAMPLES)
    import_s = [fresh_import_seconds(module) for _ in range(samples // 2)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result = run_worker(workload, seed, seconds, trace, smoke, known_failures, Path(tmp))
    import_s += [fresh_import_seconds(module) for _ in range(samples - samples // 2)]
    records = result["records"]
    latencies = op_latencies(records)
    walls = [sum(t for p, _, t, _ in records if p == k) for k in range(result["passes"])]
    wall_s = statistics.median(walls)
    if trace:
        metrics = layer_metrics(result["spans"], result["counts"], result["passes"],
                                statistics.median(import_s), wall_s)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = {"setup_s": statistics.median(import_s), "wall_s": wall_s,
                   "op_p50_s": statistics.median(latencies),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": result["passes"],
        "ops_per_pass": len(result["ops"]),
        "op_list_sha256": result["digest"],
        "attempted": len(records),
        "failures": [(result["ops"][i], err) for _, i, _, err in records if err],
        "op_tail": tail_percentile(latencies),
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
        "spans": result["spans"],
        "counts": result["counts"],
    }


def report(r: dict):
    """Print a run's figures, the last line being the JSON result."""
    n, nfail = r["attempted"], len(r["failures"])
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"passes {r['passes']}  ops {n} ({r['ops_per_pass']} per pass)")
    print(f"op_list_sha256 {r['op_list_sha256']}")
    print(f"failed_frac {nfail / n:.4f} ({nfail}/{n})")
    for op, err in r["failures"][:10]:
        print(f"  failed: {json.dumps(op)}: {err}")
    if r["op_tail"]:
        p, v = r["op_tail"]
        print(f"op_tail_s {v:.6f} s (p{p}, of {r['ops_per_pass']} ops)")
    else:
        print(f"op_tail_s not reported: {r['ops_per_pass']} ops leave no tail percentile "
              "with ten beyond it")
    for name, (value, unit) in r["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": nfail == 0,
        "attempted": n,
        "failed": nfail,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in r["metrics"].items()},
    }))


def write_spans(r: dict) -> Path:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{r['workload']}-seed{r['seed']}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": r["spans"], "counts": r["counts"], "passes": r["passes"],
    }), encoding="utf-8")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        r = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print(f"spans written to {write_spans(r).relative_to(ROOT)}")
    report(r)
    return 0


if __name__ == "__main__":
    sys.exit(main())
