"""Seeded operation lists for the two benchmark workloads.

All inputs of a run come from its seed: the operation order, the element
relabellings, the corrupted table and the elliptic sample seed.  An
operation is a plain dict, so `digest` can hash the whole list and show
that one seed gives identical inputs on every run.

The workloads follow the classification's decision procedure (strip C2
factors, then the special, reconstruction or cocycle branch) and the n^3
cost of checking multiset associativity:

- library: in one seeded order, every label of the acceptance sweep,
  construct -> verify_axioms -> classify (many small-to-mid groups, n <= 256,
  median n = 32), and the large groups, construct -> classify without
  verify (n from 122 to 264, together taking every classify branch).
- session: scripted CLI commands, each in a fresh process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from twovalued import (
    ClassLabel,
    Pair,
    TwoValuedGroup,
    merge_chains,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
    verify_axioms,
)
from twovalued.cli import group_to_json

from tracing import NullTracer

# construct -> classify on large groups; together they take every classify
# branch: reconstruction (principal), C2 splitting, cocycle (unipotent) and
# special pairs
LARGE_SPECS = [
    ("principal", (16, 16), 0),
    ("principal", (16, 32), 0),
    ("principal", (3, 9, 9), 0),
    ("principal", (255,), 0),
    ("principal", (64,), 2),
    ("unipotent", 4, 0),
    ("unipotent", 3, 2),
    ("special", 5, 3),
]
# classify(principal(32,32)) raises MemoryError at the seed commit (the
# 1024^3 associativity gather of the reconstructed table)
KNOWN_FAILING_LARGE = [("principal", (32, 32), 0)]

# witness search pairs that can hit the 200,000-node budget at the seed
# commit, depending on the labelling
KNOWN_FAILING_ISO = [("principal", (3, 9, 9), 0), ("unipotent", 3, 1)]

CORRUPT_SPEC = ("principal", (58,), 0)  # 30 elements


def divisibility_chains(bound: int) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... | dk with di >= 2 and product <= bound."""
    out = [()]

    def rec(prefix, prod):
        step = prefix[-1] if prefix else 1
        d = step if prefix else 2
        while prod * d <= bound:
            nxt = prefix + (d,)
            out.append(nxt)
            rec(nxt, prod * d)
            d += step

    rec((), 1)
    return out


def sweep_specs() -> list[tuple]:
    """The 372 labels of the acceptance sweep: three families times C2^0..2."""
    specs = [("principal", c, m) for c in divisibility_chains(64) for m in range(3)]
    specs += [("unipotent", n, m) for n in (1, 2, 3) for m in range(3)]
    specs += [("special", n, m) for n in (1, 2, 3, 4) for m in range(3)]
    return specs


CONSTRUCTORS = {
    "principal": ("constructions.principal", lambda chain: principal(*chain)),
    "unipotent": ("constructions.unipotent", unipotent),
    "special": ("constructions.special_series", special_series),
}


def construct(family: str, param, m: int, tr=NullTracer()) -> TwoValuedGroup:
    """The group a spec names, with a span around each construction call."""
    span, ctor = CONSTRUCTORS[family]
    with tr.span(span):
        X = ctor(param)
    if m:
        with tr.span("constructions.product_with_boolean"):
            X = product_with_boolean(X, m)
    tr.count("constructions.cells", len(X) ** 2)
    return X


def expected_label(family: str, param, m: int) -> ClassLabel:
    """The class label the construction parameters determine."""
    if family == "principal":
        return ClassLabel.principal_label(merge_chains(tuple(param), (2,) * m))
    if family == "unipotent":
        return ClassLabel.unipotent_label(param, m)
    return ClassLabel.special_label(param, m)


def relabel(X: TwoValuedGroup, seed: int) -> TwoValuedGroup:
    """A copy of X with its non-identity elements permuted by the seed.

    Built through the public constructor, so nothing a construction may
    have attached to X survives into the copy."""
    n = len(X)
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)  # old -> new
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    t = X.table
    table = tuple(
        tuple(Pair.of(perm[t[a][b].lo], perm[t[a][b].hi]) for b in inv) for a in inv
    )
    return TwoValuedGroup(names=tuple(X.names[a] for a in inv), table=table)


def _build_op(spec, rng: random.Random, verify: bool) -> dict:
    family, param, m = spec
    return {
        "op": "build",
        "family": family,
        "param": param,
        "m": m,
        "verify": verify,
        "relabel": rng.randrange(2**32),
        "expect": str(expected_label(family, param, m)),
    }


def library(seed: int, smoke: bool = False, known_failures: bool = False) -> list[dict]:
    """The acceptance sweep (verified) and the large groups (not verified),
    shuffled together."""
    rng = random.Random(f"library:{seed}")
    sweep = sweep_specs()
    large = list(LARGE_SPECS) + (KNOWN_FAILING_LARGE if known_failures else [])
    if smoke:
        sweep = [s for s in sweep if expected_label(*s).size() <= 10]
        large = [("principal", (15,), 0), ("special", 3, 1)]
    ops = [_build_op(s, rng, verify=True) for s in sweep]
    ops += [_build_op(s, rng, verify=False) for s in large]
    rng.shuffle(ops)
    return ops


def _cli_construct_args(family: str, param, m: int) -> list[str]:
    value = ",".join(map(str, param)) if family == "principal" else str(param)
    return ["construct", f"--{family}", value] + (["-m", str(m)] if m else [])


def _corrupt(X: TwoValuedGroup, rng: random.Random) -> TwoValuedGroup:
    """X with one symmetric pair of cells changed so that the axioms fail."""
    n = len(X)
    while True:
        i, j = rng.sample(range(1, n), 2)
        new = Pair.of(rng.randrange(n), rng.randrange(n))
        if new == X.table[i][j]:
            continue
        rows = [list(r) for r in X.table]
        rows[i][j] = rows[j][i] = new
        Y = TwoValuedGroup(names=X.names, table=tuple(map(tuple, rows)))
        if not verify_axioms(Y).is_two_valued_group:
            return Y


def session(seed: int, workdir: Path, smoke: bool = False,
            known_failures: bool = False) -> list[dict]:
    """CLI commands and the GroupFiles they read, written into workdir.

    Each op names its command line, the files it reads, and the exit code
    and answer the benchmark expects."""
    rng = random.Random(f"session:{seed}")
    ops: list[dict] = []
    file_ids = itertools.count()

    def group_file(spec, corrupt=False) -> str:
        X = relabel(construct(*spec), rng.randrange(2**32))
        if corrupt:
            X = _corrupt(X, rng)
        name = f"input{next(file_ids)}.json"
        (workdir / name).write_text(group_to_json(X), encoding="utf-8")
        return name

    def add(kind, spec=None, **kw):
        op = {"op": kind, **kw}
        if spec is not None:
            op.update(family=spec[0], param=spec[1], m=spec[2],
                      expect=str(expected_label(*spec)))
        ops.append(op)

    full = not smoke
    for spec, to in [(("principal", (5, 10), 0), "file"),
                     (("unipotent", 2, 1), "stdout"),
                     (("special", 3, 1), "file")][: 3 if full else 1]:
        add("construct", spec, args=_cli_construct_args(*spec), to=to)
    add("pipe", ("principal", (3, 9), 0), args=_cli_construct_args("principal", (3, 9), 0))
    for spec in [("principal", (4, 8), 0), ("unipotent", 3, 0)][: 2 if full else 1]:
        add("verify", spec, files=[group_file(spec)], expect_exit=0)
    add("verify", CORRUPT_SPEC, files=[group_file(CORRUPT_SPEC, corrupt=True)], expect_exit=1)
    for spec in [("special", 4, 1), ("unipotent", 3, 1), ("principal", (2, 4, 8), 0)][: 3 if full else 1]:
        add("classify", spec, files=[group_file(spec)])
    iso_specs = [("principal", (2, 4, 8), 0), ("unipotent", 3, 0)][: 2 if full else 1]
    # whether the search misses its budget depends on the labelling, so each
    # known-failing pair is tried with three relabellings
    for spec in iso_specs + (KNOWN_FAILING_ISO * 3 if known_failures else []):
        add("iso", spec, files=[group_file(spec), group_file(spec)])
    for k in (5, 6) if full else (4,):
        add("enumerate", k=k)
    add("elliptic", seed=rng.randrange(2**31))
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order]


# untimed before the timed passes: one small group per classify branch
WARM_UP_SPECS = [("principal", (3, 9), 1), ("unipotent", 2, 1), ("special", 3, 1)]


def warm_up_ops(workload: str) -> list[dict]:
    rng = random.Random("warm-up")
    if workload == "session":
        spec = WARM_UP_SPECS[0]
        return [{"op": "construct", "family": spec[0], "param": spec[1], "m": spec[2],
                 "expect": str(expected_label(*spec)),
                 "args": _cli_construct_args(*spec), "to": "stdout"}]
    return [_build_op(s, rng, verify=True) for s in WARM_UP_SPECS]


def make(workload: str, seed: int, workdir: Path, smoke: bool = False,
         known_failures: bool = False) -> list[dict]:
    if workload == "library":
        return library(seed, smoke, known_failures)
    return session(seed, workdir, smoke, known_failures)


def digest(ops: list[dict], workdir: Path) -> str:
    """sha256 of the operation list and of every input file it reads."""
    h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for op in ops:
        for name in op.get("files", ()):
            h.update((workdir / name).read_bytes())
    return h.hexdigest()
