"""File format and the command-line interface.

GroupFile is a small JSON document:

    {
      "format_version": 1,
      "elements": ["e", "a", "b"],
      "identity": "e",
      "table": [[["e","e"], ...], ...]
    }

The identity must be listed first; cells are 2-element arrays of element
names.  write_group emits a canonical form (cells ordered by element index,
2-space indent, trailing newline) so read/write round trips are
byte-stable.  Both go straight between the text and the lo/hi index arrays:
the reader checks each cell once, and the writer builds no Pair view.

Each command imports only the submodules it runs.  enumerate_all and
BudgetExceeded live in twovalued.enumeration; a module __getattr__
re-exports them here for existing importers.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import TwoValuedGroup

__all__ = [
    "ParseError",
    "NonSquareTable",
    "BudgetExceeded",
    "read_group",
    "write_group",
    "group_to_json",
    "group_from_json",
    "enumerate_all",
    "cli_main",
]

FORMAT_VERSION = 1


class ParseError(Exception):
    pass


class NonSquareTable(ParseError):
    pass


def __getattr__(name: str):
    if name in ("BudgetExceeded", "enumerate_all"):
        from . import enumeration

        return getattr(enumeration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def group_to_json(X: TwoValuedGroup) -> str:
    """Canonical GroupFile text: json.dumps(doc, indent=2) + "\n" for the
    GroupFile document, put together from the lo/hi rows, as CPython's json
    encoder is pure Python once indent is set."""
    names = [json.dumps(s) for s in X.names]
    opening = [f"      [\n        {q},\n        " for q in names]
    closing = [f"{q}\n      ]" for q in names]
    rows = ",\n".join(
        "    [\n" + ",\n".join(map(str.__add__, map(opening.__getitem__, lr.tolist()),
                                  map(closing.__getitem__, hr.tolist()))) + "\n    ]"
        for lr, hr in zip(X.lo, X.hi)
    )
    elements = ",\n    ".join(names)
    return (f'{{\n  "format_version": {FORMAT_VERSION},\n  "elements": [\n    {elements}\n  ],\n'
            f'  "identity": {names[X.identity]},\n  "table": [\n{rows}\n  ]\n}}\n')


def group_from_json(text: str) -> TwoValuedGroup:
    # the cyclic collector would run many times over the millions of lists
    # that json.loads allocates, and they hold no cycles.  It stays paused
    # until the document is dropped, with _parse_group's frame: resumed
    # earlier, its first collection would scan the whole young tree
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse_group(text)
    finally:
        if collecting:
            gc.enable()


def _parse_group(text: str) -> TwoValuedGroup:
    from .core import TwoValuedGroup

    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    version = doc.get("format_version")
    # exactly the JSON integer: True and 1.0 compare equal to 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    elements = doc.get("elements")
    if (
        not isinstance(elements, list)
        or not elements
        or not all(isinstance(s, str) for s in elements)
    ):
        raise ParseError("'elements' must be a non-empty list of strings")
    if len(set(elements)) != len(elements):
        raise ParseError("element names must be unique")
    if doc.get("identity") != elements[0]:
        raise ParseError("'identity' must be the first listed element")
    table = doc.get("table")
    n = len(elements)
    if not isinstance(table, list) or len(table) != n:
        raise NonSquareTable(f"table must have {n} rows")
    idx = {s: i for i, s in enumerate(elements)}
    cells = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise NonSquareTable(f"row {i} must have {n} cells")
        for j, cell in enumerate(row):
            try:
                a, b = cell if isinstance(cell, list) else ()
                cells += idx[a], idx[b]  # KeyError or TypeError unless both are names
            except (TypeError, ValueError, KeyError):
                raise ParseError(
                    f"cell ({i},{j}) must be a 2-element list of element names"
                ) from None
    return TwoValuedGroup.from_pairs(elements, cells)


def read_group(path: str) -> TwoValuedGroup:
    """Read a GroupFile, UTF-8 JSON text; '-' reads stdin."""
    try:
        with open(0 if path == "-" else path, encoding="utf-8", closefd=path != "-") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return group_from_json(text)


def write_group(X: TwoValuedGroup, path: str):
    """Write canonical GroupFile text; '-' writes stdout.  A file that
    cannot be written raises ParseError, as one that cannot be read does."""
    text = group_to_json(X)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


# --- command line -----------------------------------------------------------

def _cmd_construct(args) -> int:
    from .constructions import principal, product_with_boolean, special_series, unipotent

    if args.principal is not None:
        text = args.principal.strip()
        chain = tuple(int(s) for s in text.split(",")) if text else ()
        X = principal(*chain)
    elif args.unipotent is not None:
        X = unipotent(args.unipotent)
    else:
        X = special_series(args.special)
    if args.times_c2:
        X = product_with_boolean(X, args.times_c2)
    write_group(X, args.output)
    return 0


def _cmd_verify(args) -> int:
    from .core import verify_axioms

    X = read_group(args.group)
    rep = verify_axioms(X)
    print(f"elements: {len(X)}")
    print(f"two_valued_group: {str(rep.is_two_valued_group).lower()}")
    print(f"commutative: {str(rep.is_commutative).lower()}")
    print(f"involutive: {str(rep.is_involutive).lower()}")
    shown = rep.violations[: args.max_violations]
    for tag, witness in shown:
        names = ",".join(X.names[w] for w in witness)
        print(f"violation: {tag} at ({names})")
    extra = sum(rep.counts.values()) - len(shown)
    if extra > 0:
        print(f"... and {extra} more violations")
    return 0 if rep.is_two_valued_group else 1


def _require_valid(X: TwoValuedGroup, label: str) -> bool:
    from .core import verify_axioms

    rep = verify_axioms(X)
    if not (rep.is_two_valued_group and rep.is_commutative and rep.is_involutive):
        print(
            f"{label} is not a valid involutive commutative two-valued group",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_classify(args) -> int:
    from .classify import classify

    X = read_group(args.group)
    if not _require_valid(X, args.group):
        return 1
    print(str(classify(X)))
    return 0


def _cmd_iso(args) -> int:
    from .classify import Timeout, classify, witness_isomorphism

    X = read_group(args.left)
    Z = read_group(args.right)
    if not _require_valid(X, args.left) or not _require_valid(Z, args.right):
        return 1
    same = classify(X) == classify(Z)
    print("isomorphic" if same else "not isomorphic")
    if same and args.witness:
        try:
            f = witness_isomorphism(X, Z, node_budget=args.budget)
        except Timeout:
            print("witness search hit the node budget", file=sys.stderr)
            f = None
        if f is not None:
            for x, z in enumerate(f):
                print(f"{X.names[x]} -> {Z.names[z]}")
    return 0 if same else 1


def _cmd_enumerate(args) -> int:
    from .classify import classify
    from .enumeration import BudgetExceeded, enumerate_all

    try:
        groups = enumerate_all(
            args.size,
            involutive_commutative=not args.all,
            budget=args.budget,
        )
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    if args.json:
        docs = [json.loads(group_to_json(X)) for X in groups]
        print(json.dumps(docs, indent=2))
        return 0
    mode = "two-valued groups" if args.all else "involutive commutative two-valued groups"
    print(f"found {len(groups)} {mode} of size {args.size}")
    for i, X in enumerate(groups, 1):
        if args.all:  # the GroupFile's table on one line
            desc = json.dumps(json.loads(group_to_json(X))["table"], separators=(",", ":"))
        else:
            desc = str(classify(X))
        print(f"{i}: {desc}")
    return 0


def _parse_params(text: str) -> list[complex]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated values")
    # a trailing i is the imaginary unit; the i of inf and nan is not
    params = [complex(s[:-1] + "j" if s.endswith("i") else s) for s in parts]
    if bad := [s for s, z in zip(parts, params) if not cmath.isfinite(z)]:
        raise ValueError(f"{bad[0]} is not a finite number")
    return params


def _cmd_elliptic(args) -> int:
    from .formal import LawParams, random_sample_suite

    params = None
    if args.params is not None:
        try:
            params = LawParams(*_parse_params(args.params))
        except ValueError as exc:
            print(f"bad --params: {exc}", file=sys.stderr)
            return 2
    passed, total, redrawn = random_sample_suite(
        n_samples=args.samples, tol=args.tol, seed=args.seed, params=params
    )
    print(
        f"associativity: {passed}/{total} samples passed "
        f"(tol={args.tol:g}, redrawn {redrawn} near-degenerate)"
    )
    return 0 if passed == total else 1


def _at_least(least: int, kind=int):
    """An argparse type: a finite int (or float) no smaller than least."""

    def parse(text: str):
        value = kind(text)
        if not least <= value < math.inf:  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be a finite number >= {least}, not {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twovalued",
        description="Finite involutive commutative two-valued groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a standard-series group")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--principal", metavar="D1,D2,..",
                      help="invariant-factor chain, comma separated (empty = trivial group)")
    kind.add_argument("--unipotent", type=int, metavar="N", help="unipotent rank")
    kind.add_argument("--special", type=int, metavar="N", help="special rank")
    p.add_argument("-m", "--times-c2", type=int, default=0, metavar="M",
                   help="multiply by the Boolean group of rank M")
    p.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run the axiom sweep on a GroupFile")
    p.add_argument("group", help="GroupFile path ('-' = stdin)")
    p.add_argument("--max-violations", type=_at_least(0), default=20)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("classify", help="print the isomorphism-class label")
    p.add_argument("group", help="GroupFile path ('-' = stdin)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("iso", help="decide isomorphism of two GroupFiles")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--witness", action="store_true",
                   help="also print an explicit isomorphism")
    p.add_argument("--budget", type=_at_least(0), default=10_000_000,
                   help="node budget for the witness search")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("enumerate", help="list all groups of a given size")
    p.add_argument("size", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="drop the involutivity/commutativity restriction")
    mode.add_argument("--involutive-commutative", action="store_true",
                      help="restrict to involutive commutative groups (the default)")
    p.add_argument("--budget", type=_at_least(0), default=None,
                   help="search node budget (default 50M)")
    p.add_argument("--json", action="store_true",
                   help="also print each group as a GroupFile")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("elliptic", help="check the algebraic addition law numerically")
    p.add_argument("--params", default=None, metavar="A1,A2,A3",
                   help="law parameters as three complex numbers (default: random per sample)")
    p.add_argument("--samples", type=_at_least(1), default=100)
    p.add_argument("--tol", type=_at_least(0, float), default=1e-6)
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(fn=_cmd_elliptic)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); send what is left in
        # the buffer to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
