"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from config import WORKLOADS  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names_have_units_and_match_the_code():
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            assert NAME.fullmatch(m["name"]) and m["unit"], m
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(name, unit) for name, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "library", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_planted_wrong_label_counts_as_a_failure(tmp_path):
    ops = workloads.library(1, smoke=True)[:4]
    ops[2] = {**ops[2], "expect": "Principal(7)"}
    result = worker.run(ops, "library", tmp_path, seconds=0, traced=False)
    errors = [err for _, _, _, err in result["records"]]
    assert errors[2].startswith("WrongAnswer") and errors.count(None) == 3


def test_a_planted_wrong_cli_answer_counts_as_a_failure(tmp_path):
    ops = [op for op in workloads.session(1, tmp_path, smoke=True)
           if op["op"] in ("classify", "verify")]
    planted = next(i for i, op in enumerate(ops) if op["op"] == "classify")
    ops[planted] = {**ops[planted], "expect": "Special(9,0)"}
    result = worker.run(ops, "session", tmp_path, seconds=0, traced=False)
    errors = [err for _, _, _, err in result["records"]]
    assert errors[planted].startswith("WrongAnswer")
    assert errors.count(None) == len(ops) - 1


def test_a_failed_operation_is_timed_and_ranks_as_inf(tmp_path):
    ops = [op for op in workloads.library(1, smoke=True) if not op["verify"]]
    ops[0] = {**ops[0], "family": "unipotent", "param": 0}  # unipotent(0) raises
    result = worker.run(ops, "library", tmp_path, seconds=0, traced=True)
    (_, _, t_failed, err), ok = result["records"]
    assert err is not None and ok[3] is None and t_failed > 0
    assert run.op_latencies(result["records"]) == [math.inf, ok[2]]


def test_tail_percentile_leaves_ten_operations_beyond_it():
    assert run.tail_percentile([1.0] * 20) is None
    p, value = run.tail_percentile([float(i) for i in range(372)])
    assert p == 97 and sum(1 for i in range(372) if i > value) >= 10


def test_the_seed_alone_fixes_the_inputs(tmp_path):
    digests = {}
    for name, seed in [("a", 1), ("b", 1), ("c", 2)]:
        workdir = tmp_path / name
        workdir.mkdir()
        ops = workloads.session(seed, workdir, smoke=True)
        digests[name] = workloads.digest(ops, workdir)
    assert digests["a"] == digests["b"] != digests["c"]
    assert workloads.library(3) == workloads.library(3) != workloads.library(4)
    assert len(workloads.library(3)) == 372 + len(workloads.LARGE_SPECS)
