"""Run one workload's operations and write down what happened.

run.py starts this file as a child process under an address-space cap, so
an operation that runs out of memory fails here and is counted, instead of
taking the machine's memory.  The child runs passes over the seeded
operation list for at most --seconds (at least one pass), times each
operation, checks its answer outside the timed sections, and writes one
JSON result file:

    python3 perfbench/worker.py --workload library --seed 1 --seconds 50 \\
        --trace 0 --workdir DIR --out DIR/result.json

A failure is an exception (MemoryError included), a timeout, a wrong
answer, or an unexpected exit code or stdout.  With --trace 1, spans are
recorded around each public call into `twovalued`, and every classify is
replayed through its public steps, which must give the same label.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from config import ENV, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

from twovalued import (  # noqa: E402
    ClassLabel,
    TwoValuedGroup,
    all_labels_of_size,
    classify,
    cohomology_invariant,
    extract_quasicocycle,
    is_homomorphism,
    is_special,
    merge_chains,
    order,
    reconstruct_abelian,
    split_direct_factor,
    verify_axioms,
    witness_isomorphism,
)
from twovalued.classify import Timeout  # noqa: E402
from twovalued.cli import enumerate_all, group_from_json, read_group, write_group  # noqa: E402
from twovalued.formal import random_sample_suite  # noqa: E402

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

OP_TIMEOUT_S = 60
RUN_DEADLINE_S = 140  # run.py must exit within 180 s
WITNESS_BUDGET = 200_000
ELLIPTIC_SAMPLES = 100
CLI = [sys.executable, "-m", "twovalued.cli"]

class WrongAnswer(Exception):
    """The program's output differs from the expected one."""


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation ran past {OP_TIMEOUT_S} s")


class Stopwatch:
    """Sums the time spent inside its `with` blocks, exceptions included."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = perf_counter()

    def __exit__(self, *exc):
        self.total += perf_counter() - self._t0
        return False


def expect(cond: bool, what: str):
    if not cond:
        raise WrongAnswer(what)


def traced_verify(X: TwoValuedGroup, tr):
    with tr.span("core.verify_axioms"):
        rep = verify_axioms(X)
    tr.count("core.verify_triples", len(X) ** 3)
    return rep


def replay_classify(X: TwoValuedGroup, label: ClassLabel, tr):
    """classify(X) again, one public step at a time, on a fresh copy of X
    (no cached orders); the label must agree with classify's."""
    X = TwoValuedGroup(names=X.names, table=X.table)
    with tr.span("classify.replay"):
        with tr.span("structure.split_direct_factor"):
            Xp, m, _ = split_direct_factor(X)
        tr.count("structure.c2_factors", m)
        with tr.span("structure.is_special"):
            special, _ = is_special(Xp)
        if special:
            got = ClassLabel.special_label((len(Xp) - 1).bit_length() - 1, m)
        else:
            with tr.span("core.order"):
                orders = [order(Xp, x) for x in range(len(Xp))]
            if any(o not in (1, 2, 4) for o in orders):
                with tr.span("classify.reconstruct_abelian"):
                    rec = reconstruct_abelian(Xp)
                tr.count("classify.check_cells", len(rec.pairs) ** 3)
                got = ClassLabel.principal_label(merge_chains(rec.chain, (2,) * m))
            elif len(Xp) == 1:
                got = ClassLabel.principal_label((2,) * m)
            else:
                with tr.span("cocycle.extract_quasicocycle"):
                    data = extract_quasicocycle(Xp)
                with tr.span("cocycle.cohomology_invariant"):
                    inv = cohomology_invariant(data.phi)
                got = (ClassLabel.principal_label(merge_chains((4,) * data.dim, (2,) * m))
                       if inv else ClassLabel.unipotent_label(data.dim, m))
    tr.count("classify.replays")
    expect(got == label, f"replay gave {got}, classify gave {label}")


def run_build(op: dict, tr, sw: Stopwatch, traced: bool):
    """construct -> (untimed relabel) -> [verify_axioms] -> classify."""
    with sw:
        X = workloads.construct(op["family"], op["param"], op["m"], tr)
    Y = workloads.relabel(X, op["relabel"])
    del X
    gc.collect()
    with sw:
        rep = traced_verify(Y, tr) if op["verify"] else None
        with tr.span("classify.classify"):
            label = classify(Y)
    if rep is not None:
        expect(rep.is_two_valued_group and rep.is_commutative and rep.is_involutive,
               f"verify_axioms rejects {op['family']}{op['param']} x C2^{op['m']}")
    expect(str(label) == op["expect"], f"classify gave {label}, expected {op['expect']}")
    if traced:
        replay_classify(Y, label, tr)


# --- session ---------------------------------------------------------------

def _reap(*procs):
    for p in procs:
        if p.poll() is None:
            p.kill()
        p.wait()


def cli(args: list[str], workdir: Path, sw: Stopwatch, tr, timeout: float):
    with sw, tr.span("cli.process"):
        return subprocess.run(CLI + args, cwd=workdir, env=ENV, capture_output=True,
                              text=True, timeout=timeout)


def cli_pipe(first: list[str], second: list[str], workdir: Path, sw: Stopwatch, tr,
             timeout: float):
    """`first | second`; returns (exit codes, second's stdout)."""
    with sw, tr.span("cli.process"):
        p1 = subprocess.Popen(CLI + first, cwd=workdir, env=ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            p2 = subprocess.Popen(CLI + second, cwd=workdir, env=ENV, stdin=p1.stdout,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            p1.stdout.close()
            try:
                out, _ = p2.communicate(timeout=timeout)
            finally:
                _reap(p2)
        finally:
            _reap(p1)
    return (p1.returncode, p2.returncode), out


def traced_read(path: Path, tr) -> TwoValuedGroup:
    with tr.span("cli.read_group"):
        X = read_group(str(path))
    tr.count("cli.read_bytes", path.stat().st_size)
    return X


def check_group_text(text: str, op: dict):
    X = group_from_json(text)
    rep = verify_axioms(X)
    expect(rep.is_two_valued_group and rep.is_commutative and rep.is_involutive,
           "constructed GroupFile fails the axioms")
    expect(str(classify(X)) == op["expect"], f"constructed GroupFile is not {op['expect']}")


def parse_witness(stdout: str, X: TwoValuedGroup, Z: TwoValuedGroup) -> list[int]:
    lines = stdout.splitlines()[1:]
    expect(len(lines) == len(X), f"witness map has {len(lines)} lines, expected {len(X)}")
    f = [-1] * len(X)
    for line in lines:
        src, _, dst = line.partition(" -> ")
        f[X.index(src)] = Z.index(dst)
    return f


def check_witness(X: TwoValuedGroup, Z: TwoValuedGroup, f: list[int], tr):
    expect(sorted(f) == list(range(len(Z))), "witness map is not a bijection")
    with tr.span("structure.is_homomorphism"):
        ok = is_homomorphism(X, Z, f).is_homomorphism
    expect(ok, "witness map is not a homomorphism")


def run_session_op(op: dict, workdir: Path, tr, sw: Stopwatch, timeout: float):
    """One CLI command in a fresh process, then its answer check."""
    kind = op["op"]
    files = [workdir / name for name in op.get("files", ())]
    if kind == "construct":
        out = workdir / "constructed.json"
        args = op["args"] + (["-o", out.name] if op["to"] == "file" else [])
        proc = cli(args, workdir, sw, tr, timeout)
        expect(proc.returncode == 0, f"construct exited {proc.returncode}")
        check_group_text(out.read_text(encoding="utf-8") if op["to"] == "file"
                         else proc.stdout, op)
    elif kind == "pipe":
        codes, out = cli_pipe(op["args"], ["classify", "-"], workdir, sw, tr, timeout)
        expect(codes == (0, 0), f"pipe exited {codes}")
        expect(out.strip() == op["expect"], f"pipe printed {out.strip()!r}")
    elif kind == "verify":
        proc = cli(["verify", files[0].name], workdir, sw, tr, timeout)
        expect(proc.returncode == op["expect_exit"], f"verify exited {proc.returncode}")
        flags = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                     if ": " in line and not line.startswith("violation"))
        valid = "true" if op["expect_exit"] == 0 else "false"
        expect(flags.get("two_valued_group") == valid, f"verify printed {proc.stdout[:200]!r}")
        if valid == "true":
            expect(flags.get("commutative") == flags.get("involutive") == "true",
                   f"verify printed {proc.stdout[:200]!r}")
    elif kind == "classify":
        proc = cli(["classify", files[0].name], workdir, sw, tr, timeout)
        expect(proc.returncode == 0, f"classify exited {proc.returncode}")
        expect(proc.stdout.strip() == op["expect"], f"classify printed {proc.stdout.strip()!r}")
    elif kind == "iso":
        proc = cli(["iso", "--witness", "--budget", str(WITNESS_BUDGET),
                    files[0].name, files[1].name], workdir, sw, tr, timeout)
        expect(proc.returncode == 0 and proc.stdout.startswith("isomorphic\n"),
               f"iso exited {proc.returncode} with {proc.stdout[:80]!r}")
        X, Z = read_group(str(files[0])), read_group(str(files[1]))
        expect(len(proc.stdout.splitlines()) > 1, "iso printed no witness map")
        check_witness(X, Z, parse_witness(proc.stdout, X, Z), NullTracer())
    elif kind == "enumerate":
        proc = cli(["enumerate", str(op["k"])], workdir, sw, tr, timeout)
        expect(proc.returncode == 0, f"enumerate exited {proc.returncode}")
        got = sorted(line.split(": ", 1)[1] for line in proc.stdout.splitlines()[1:])
        want = sorted(str(label) for label in all_labels_of_size(op["k"]))
        expect(got == want, f"enumerate {op['k']} found {got}, expected {want}")
    elif kind == "elliptic":
        proc = cli(["elliptic", "--seed", str(op["seed"])], workdir, sw, tr, timeout)
        m = re.match(r"associativity: (\d+)/(\d+) samples passed", proc.stdout)
        expect(proc.returncode == 0 and m is not None
               and m.group(1) == m.group(2) == str(ELLIPTIC_SAMPLES),
               f"elliptic exited {proc.returncode} with {proc.stdout.strip()!r}")
    else:
        raise ValueError(f"unknown session op {kind!r}")


def replay_session_op(op: dict, workdir: Path, tr):
    """The command again, in-process, through the public functions the CLI
    calls, so the traced run can split its time by layer."""
    kind = op["op"]
    files = [workdir / name for name in op.get("files", ())]
    if kind in ("construct", "pipe"):
        X = workloads.construct(op["family"], op["param"], op["m"], tr)
        with tr.span("cli.write_group"):
            write_group(X, str(workdir / "replayed.json"))
        files = [workdir / "replayed.json"]
    if kind == "enumerate":
        with tr.span("cli.enumerate_all"):
            enumerate_all(op["k"])
    elif kind == "elliptic":
        with tr.span("formal.random_sample_suite"):
            random_sample_suite(n_samples=ELLIPTIC_SAMPLES, seed=op["seed"])
        tr.count("formal.samples", ELLIPTIC_SAMPLES)
    elif kind in ("pipe", "verify", "classify", "iso"):
        groups = [traced_read(path, tr) for path in files]
        reports = [traced_verify(X, tr) for X in groups]
        if kind == "verify":
            return
        expect(all(r.is_two_valued_group for r in reports), "input fails the axioms")
        labels = []
        for X in groups:
            with tr.span("classify.classify"):
                labels.append(classify(X))
            replay_classify(X, labels[-1], tr)
        if kind == "iso":
            X, Z = groups
            try:
                with tr.span("classify.witness_isomorphism"):
                    f = witness_isomorphism(X, Z, node_budget=WITNESS_BUDGET)
            except Timeout:
                tr.count("classify.witness_timeouts")
            else:
                tr.count("classify.witness_found")
                check_witness(X, Z, f, tr)


# --- run loop ---------------------------------------------------------------

def warm_up(workload: str, workdir: Path):
    """A few small operations, untimed and unchecked, so that one-time costs
    (first calls, first allocations, a cold file cache) land in no timed
    operation.  A failure here is left for the timed operations to count."""
    for op in workloads.warm_up_ops(workload):
        try:
            if workload == "session":
                run_session_op(op, workdir, NullTracer(), Stopwatch(), OP_TIMEOUT_S)
            else:
                run_build(op, NullTracer(), Stopwatch(), traced=False)
        except Exception:
            pass


def run(ops: list[dict], workload: str, workdir: Path, seconds: float, traced: bool) -> dict:
    """Whole passes over ops, as many as fit in `seconds`, at least one; one
    record per op: [pass, op index, timed seconds, error or None]."""
    tr = Tracer() if traced else NullTracer()
    records = []
    # the heap left by imports and input generation is no operation's
    # garbage: keep collections before each op (and inside it) from
    # rescanning it
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _on_alarm)
    warm_up(workload, workdir)
    start = perf_counter()
    passes = 0
    pass_s = 0.0
    # no pass is started that, by the length of the last one, would end
    # past `seconds`: a run never overshoots its time by most of a pass
    while passes == 0 or perf_counter() - start + pass_s <= seconds:
        pass_start = perf_counter()
        for i, op in enumerate(ops):
            left = RUN_DEADLINE_S - (perf_counter() - start)
            if left <= 1:
                records.append([passes, i, 0.0, "OpTimeout: run deadline reached"])
                continue
            sw = Stopwatch()
            error = None
            gc.collect()
            signal.setitimer(signal.ITIMER_REAL, min(OP_TIMEOUT_S, left))
            try:
                with tr.span("op"):
                    if workload == "session":
                        run_session_op(op, workdir, tr, sw, min(OP_TIMEOUT_S, left))
                        if traced:
                            replay_session_op(op, workdir, tr)
                    else:
                        run_build(op, tr, sw, traced)
            except Exception as exc:  # MemoryError and timeouts too: every failure is counted
                error = f"{type(exc).__name__}: {str(exc)[:300]}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            records.append([passes, i, sw.total, error])
        pass_s = perf_counter() - pass_start
        passes += 1
    gc.unfreeze()
    who = resource.RUSAGE_CHILDREN if workload == "session" else resource.RUSAGE_SELF
    return {
        "passes": passes,
        "records": records,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "spans": tr.spans,
        "counts": dict(tr.counts),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--known-failures", action="store_true")
    args = ap.parse_args(argv)
    ops = workloads.make(args.workload, args.seed, args.workdir, args.smoke,
                         args.known_failures)
    result = run(ops, args.workload, args.workdir, args.seconds, bool(args.trace))
    result["ops"] = ops
    result["digest"] = workloads.digest(ops, args.workdir)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
