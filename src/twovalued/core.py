"""Core data model for finite two-valued groups.

A two-valued group multiplies two elements into an *unordered pair* (a
2-element multiset).  Everything downstream works with element indices into a
fixed tuple of names; index 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from operator import index, itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Pair",
    "TwoValuedGroup",
    "ValidationReport",
    "AmbiguousPower",
    "product",
    "product_fold",
    "verify_axioms",
    "power",
    "order",
]

# Axiom tags whose violation disqualifies a table from being a two-valued
# group at all.  Commutativity and involutivity are reported as flags, not
# disqualifying violations.
AXIOM_TAGS = (
    "square_table",
    "strong_identity",
    "associativity",
    "inverse_existence",
    "inverse_uniqueness",
)

# Deterministic cap on recorded witnesses per tag; verdicts always come from
# the full sweep.
MAX_WITNESSES_PER_TAG = 1000

# Bytes per gathered (x, y, z) block of an n^3 sweep.  Blocks this small stay
# in cache; the associativity sweep holds about 20 such arrays at a time.
_SWEEP_BLOCK_BYTES = 1 << 17


class Pair(NamedTuple):
    """Unordered pair of element indices, stored sorted (lo <= hi)."""

    lo: int
    hi: int

    @classmethod
    def of(cls, a: int, b: int) -> "Pair":
        return cls(a, b) if a <= b else cls(b, a)

    def as_multiset(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def __contains__(self, x: object) -> bool:
        return x == self.lo or x == self.hi

    def other(self, x: int) -> int:
        """The companion of x in this pair (x itself if the pair is [x,x])."""
        if x == self.lo:
            return self.hi
        if x == self.hi:
            return self.lo
        raise ValueError(f"{x} not in pair {self}")

    @property
    def is_doubled(self) -> bool:
        return self.lo == self.hi

    def support(self) -> tuple[int, ...]:
        return (self.lo,) if self.lo == self.hi else (self.lo, self.hi)


class AmbiguousPower(Exception):
    """Raised when the power recurrence does not determine x^k uniquely.

    For involutive elements the sequence x^0, x^1, x^2, ... is uniquely
    determined by x * x^k = [x^(k-1), x^(k+1)]; without involutivity the
    recurrence can branch, and we refuse to guess.
    """


class TwoValuedGroup:
    """A finite two-valued group as an explicit multiplication table.

    The table is stored once, as two read-only index_dtype(n) arrays: i*j is
    the unordered pair [lo[i, j], hi[i, j]] with lo <= hi.  table[i][j] is
    the same pair as a Pair; that view is built on first access (or kept
    from the table= argument).  names are unique display labels; names[0]
    is the identity.  Construction validates shape only -- use verify_axioms
    to check the actual axioms.
    """

    identity = 0

    def __init__(self, names: Sequence[str], table, identity: int = 0):
        names = tuple(names)
        n = len(names)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("multiplication table must be n x n")
        table = tuple(map(tuple, table))
        if not all(map(isinstance, chain.from_iterable(table), repeat(Pair))):
            raise ValueError("table cells must be Pairs")
        try:
            lo, hi = (
                np.fromiter(
                    map(itemgetter(k), chain.from_iterable(table)),
                    dtype=index_dtype(n), count=n * n,
                ).reshape(n, n)
                for k in (0, 1)
            )
        except (OverflowError, TypeError, ValueError):
            raise ValueError("table cells must hold element indices") from None
        self._init(names, lo, hi, identity)
        vars(self)["table"] = table

    @classmethod
    def from_arrays(cls, names: Sequence[str], lo, hi) -> "TwoValuedGroup":
        """The group whose product i*j is [lo[i, j], hi[i, j]]; lo and hi are
        n x n integer arrays with lo <= hi, copied into index_dtype(n)."""
        X = cls.__new__(cls)
        X._init(tuple(names), np.array(lo, order="C"), np.array(hi, order="C"), 0)
        return X

    def _init(self, names, lo, hi, identity):
        """Validate the cells and keep lo and hi, which the group owns."""
        n = len(names)
        if n == 0:
            raise ValueError("empty element set")
        if len(set(names)) != n:
            raise ValueError("element names must be unique")
        if identity != 0:
            raise ValueError("identity must sit at index 0")
        if lo.shape != (n, n) or hi.shape != (n, n):
            raise ValueError("multiplication table must be n x n")
        if lo.dtype.kind not in "iu" or hi.dtype.kind not in "iu":
            raise ValueError("table cells must hold element indices")
        unsorted = np.argwhere(lo > hi)
        if len(unsorted):
            i, j = unsorted[0]
            raise ValueError(
                f"table cell ({i}, {j}) = [{lo[i, j]}, {hi[i, j]}] is not sorted"
            )
        if lo.min() < 0 or hi.max() >= n:
            raise ValueError(f"table cell out of range 0..{n - 1}")
        lo, hi = (a.astype(index_dtype(n), copy=False) for a in (lo, hi))
        lo.setflags(write=False)
        hi.setflags(write=False)
        vars(self).update(names=names, lo=lo, hi=hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def table(self) -> tuple[tuple[Pair, ...], ...]:
        """table[i][j] is the Pair i*j.  Each read of X.table looks past
        this descriptor to the cached view, so loops bind it to a local."""
        pair = partial(tuple.__new__, Pair)
        return tuple(
            tuple(map(pair, zip(lr.tolist(), hr.tolist())))
            for lr, hr in zip(self.lo, self.hi)
        )

    @cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
        """(seq, reach, orders, faults) from the recurrence x * x^k =
        [x^(k-1), x^(k+1)] stepped for all x at once: seq[k, x] = x^k for
        k <= reach[x], and x^k = x^(orders[x] - k) beyond.  A walk stops at
        x^(k+1) = e or where it turns: after x^(k+1) = x^(k-1) or x^k the
        recurrence retraces its steps to e, so the order is 2k or 2k+1.
        faults maps each x whose recurrence branches before that to the
        reason: x*x^k and x^k*x differ, x^(k-1) is missing from x*x^k, or
        there is no return to e within 2n+2 steps."""
        n = len(self)
        lo, hi = self.lo.ravel(), self.hi.ravel()
        every = np.arange(n)
        rows = every * n
        seq = [np.zeros(n, lo.dtype), every.astype(lo.dtype)]
        done = every == 0
        for _ in range(2 * n + 1):
            prev, cur = seq[-2], seq[-1]
            at = rows + cur
            l = lo[at]
            seq.append(np.where(l == prev, hi[at], l))
            done |= (seq[-1] == prev) | (seq[-1] == cur)
            if done.all():
                break
        seq = np.array(seq)
        # row k - 1 of these is step k, from x^(k-1) and x^k to x^(k+1)
        prev, cur, nxt = seq[:-2], seq[1:-1], seq[2:]
        at = rows + cur
        l, h = lo[at], hi[at]
        stop = (nxt == 0) | (nxt == prev) | (nxt == cur)
        stop[:, 0] = True
        last = stop.argmax(axis=0)
        stopped = stop[last, every]
        last[~stopped] = len(stop) - 1
        k, end = last + 1, nxt[last, every]
        orders = np.where(end == 0, k + 1, 2 * k + (end != prev[last, every]))
        orders[0] = 1
        asym = ((self.lo != self.lo.T) | (self.hi != self.hi.T)).ravel()[at]
        branch = (asym | ((l != prev) & (h != prev))) & (np.arange(len(stop))[:, None] <= last)
        branch[:, 0] = False
        first = branch.argmax(axis=0)
        faults: dict[int, str] = {}
        for x in branch.any(axis=0).nonzero()[0].tolist():
            why = ("x*x^k and x^k*x differ" if asym[first[x], x]
                   else "x^(k-1) missing from x*x^k")
            faults[x] = f"{why} for x={x}, k={first[x] + 1}"
        stopped &= orders <= 2 * n + 2
        for x in (~stopped).nonzero()[0].tolist():
            faults.setdefault(x, f"power sequence of x={x} never returns to e")
        return seq, k + 1, orders, faults

    def __eq__(self, other):
        if not isinstance(other, TwoValuedGroup):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self):
        return hash((self.names, self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self):
        return f"TwoValuedGroup(names={self.names!r}, table={self.table!r})"

    @classmethod
    def from_pairs(
        cls,
        names: Sequence[str],
        cells: Sequence[Sequence[tuple[int, int]]],
    ) -> "TwoValuedGroup":
        table = tuple(tuple(Pair.of(a, b) for (a, b) in row) for row in cells)
        return cls(names=tuple(names), table=table)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None


def product(X: TwoValuedGroup, x: int, y: int) -> Pair:
    """The unordered pair x*y."""
    return Pair(int(X.lo[x, y]), int(X.hi[x, y]))


def product_fold(X: TwoValuedGroup, m: Iterable[int], b: int) -> tuple[int, ...]:
    """Multiply every element of the multiset m by b and merge the results.

    A multiset of size 2^k folds to one of size 2^(k+1); the result is a
    sorted tuple of indices (our multiset normal form).
    """
    m = np.fromiter(m, dtype=np.intp)
    return tuple(sorted(X.lo[m, b].tolist() + X.hi[m, b].tolist()))


def index_dtype(n: int) -> np.dtype:
    """The narrowest dtype that holds the element indices 0..n-1: uint8 up
    to 256 elements, uint16 up to 65,536, int32 beyond."""
    if n <= 1 << 8:
        return np.dtype(np.uint8)
    if n <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def x_blocks(n: int) -> list[slice]:
    """Blocks of consecutive x for an n^3 sweep over index_dtype(n) tables:
    one (x, y, z) gather of a block takes about _SWEEP_BLOCK_BYTES, and
    every block holds at least one x."""
    step = max(1, _SWEEP_BLOCK_BYTES // (n * n * index_dtype(n).itemsize))
    return [slice(x0, min(n, x0 + step)) for x0 in range(0, n, step)]


def _merge_pairs(a, b, c, d) -> tuple[np.ndarray, ...]:
    """The sorted multiset {a, b, c, d} of two sorted pairs a <= b, c <= d,
    by Batcher's odd-even merge: min and max of the lows and of the highs,
    then one compare-exchange of the two middle values."""
    mid_lo = np.maximum(a, c)
    mid_hi = np.minimum(b, d)
    return (
        np.minimum(a, c),
        np.minimum(mid_lo, mid_hi),
        np.maximum(mid_lo, mid_hi),
        np.maximum(b, d),
    )


def _associativity_violations(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[int, list[tuple[int, int, int]]]:
    """The number of triples (x, y, z) with (x*y)*z != x*(y*z) as
    4-element multisets, and the lexicographically first
    MAX_WITNESSES_PER_TAG of them.

    The sweep runs over x_blocks, so the witnesses come out in global
    (x, y, z) order.
    """
    total = 0
    witnesses: list[tuple[int, int, int]] = []
    for xs in x_blocks(len(lo)):
        lxy = lo[xs]
        hxy = hi[xs]
        # (x*y)*z: the pairs a*z for a in x*y, rows of the table
        left = _merge_pairs(
            np.take(lo, lxy, axis=0),
            np.take(hi, lxy, axis=0),
            np.take(lo, hxy, axis=0),
            np.take(hi, hxy, axis=0),
        )
        # x*(y*z): the pairs x*b for b in y*z
        right = _merge_pairs(
            np.take(lxy, lo, axis=1),
            np.take(hxy, lo, axis=1),
            np.take(lxy, hi, axis=1),
            np.take(hxy, hi, axis=1),
        )
        bad = left[0] != right[0]
        for a, b in zip(left[1:], right[1:]):
            bad |= a != b
        k = int(np.count_nonzero(bad))
        total += k
        if k and len(witnesses) < MAX_WITNESSES_PER_TAG:
            for x, y, z in np.argwhere(bad)[: MAX_WITNESSES_PER_TAG - len(witnesses)]:
                witnesses.append((xs.start + int(x), int(y), int(z)))
    return total, witnesses


@dataclass
class ValidationReport:
    """Outcome of the exhaustive axiom sweep.

    violations holds (tag, witness) entries where witness is a tuple of the
    element indices involved.  Witness lists are capped at
    MAX_WITNESSES_PER_TAG per tag (lexicographically first kept); counts
    holds the true number of violations per tag, and the boolean verdicts
    always reflect the full sweep.
    """

    size: int
    violations: list[tuple[str, tuple[int, ...]]]
    is_commutative: bool
    is_involutive: bool
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def is_two_valued_group(self) -> bool:
        return not any(self.counts.values())

    def violations_for(self, tag: str) -> list[tuple[int, ...]]:
        return [w for t, w in self.violations if t == tag]


def verify_axioms(X: TwoValuedGroup) -> ValidationReport:
    """Exhaustively check the two-valued group axioms on the full table.

    Checks, in order: strong identity (e*x = x*e = [x,x]), associativity as
    equality of 4-element multisets over all n^3 triples, and the inverse
    axiom: for each x the set C_x = {y : e in x*y or e in y*x} must be a
    single element x' with e contained in both x*x' and x'*x.  Commutativity
    and involutivity (e in x*x for every x) are reported as flags.

    Associativity is done with vectorized gathers on index_dtype tables, in
    blocks of x so memory stays bounded for large tables; each side of a
    triple is two sorted pairs, merged with three compare-exchanges.
    Violations are collected, not raised.
    """
    n = len(X)
    e = X.identity
    lo, hi = X.lo, X.hi
    violations: list[tuple[str, tuple[int, ...]]] = []
    counts = {tag: 0 for tag in AXIOM_TAGS}

    def record(tag: str, witness: tuple[int, ...]):
        counts[tag] += 1
        if counts[tag] <= MAX_WITNESSES_PER_TAG:
            violations.append((tag, witness))

    # strong identity
    for x in range(n):
        if not (lo[e, x] == x and hi[e, x] == x):
            record("strong_identity", (e, x))
        if x != e and not (lo[x, e] == x and hi[x, e] == x):
            record("strong_identity", (x, e))

    # commutativity (flag only)
    comm_mismatch = (lo != lo.T) | (hi != hi.T)
    is_commutative = not comm_mismatch.any()

    # involutivity (flag only): e in x*x for all x
    diag_lo = lo.diagonal()
    diag_hi = hi.diagonal()
    is_involutive = bool(np.all((diag_lo == e) | (diag_hi == e)))

    # associativity
    counts["associativity"], witnesses = _associativity_violations(lo, hi)
    violations += [("associativity", w) for w in witnesses]

    # inverse axiom: C_x = {y : e in x*y or e in y*x} must be exactly one
    # element, with e in both x*y and y*x for that element.
    e_in_xy = (lo == e) | (hi == e)  # [x, y] -> e in x*y
    cand = e_in_xy | e_in_xy.T  # e in x*y or y*x
    for x in range(n):
        ys = np.nonzero(cand[x])[0]
        if len(ys) == 0:
            record("inverse_existence", (x,))
        elif len(ys) > 1:
            record("inverse_uniqueness", (x, *map(int, ys)))
        else:
            y = int(ys[0])
            if not (e_in_xy[x, y] and e_in_xy[y, x]):
                record("inverse_existence", (x, y))

    return ValidationReport(
        size=n,
        violations=violations,
        is_commutative=is_commutative,
        is_involutive=is_involutive,
        counts=counts,
    )


def _element(X: TwoValuedGroup, x) -> int:
    """x as an element index of X; ValueError outside 0..n-1."""
    i = index(x)
    if not 0 <= i < len(X):
        raise ValueError(f"element index {x} out of range 0..{len(X) - 1}")
    return i


def _orders(X: TwoValuedGroup) -> np.ndarray:
    """Every element's order; AmbiguousPower for the first that branches."""
    faults = X._walk[3]
    if faults:
        raise AmbiguousPower(faults[min(faults)])
    return X._walk[2]


def _powers(X: TwoValuedGroup, k: int) -> np.ndarray:
    """x^k for every element x, as an index array."""
    seq, reach, orders, _ = X._walk
    j = abs(k) % _orders(X)
    return seq[np.where(j <= reach, j, orders - j), np.arange(len(X))]


def power(X: TwoValuedGroup, x: int, k: int) -> int:
    """x^k, defined through the unique power sequence.

    Powers satisfy x^(-k) = x^k and are periodic with period ord(x), so any
    integer exponent is accepted.  AmbiguousPower when the sequence of x
    branches; ValueError when x is not an element index.

    >>> from twovalued.constructions import principal
    >>> X = principal(5)  # the classes of 0, 1, 2 in C5
    >>> [power(X, 1, k) for k in range(6)]
    [0, 1, 2, 2, 1, 0]
    """
    m = order(X, x)
    seq, reach = X._walk[:2]
    j = abs(k) % m
    return int(seq[j if j <= reach[x] else m - j, x])


def order(X: TwoValuedGroup, x: int) -> int:
    """Least k >= 1 with x^k = e.

    >>> from twovalued.constructions import principal
    >>> X = principal(6)
    >>> [order(X, x) for x in range(len(X))]
    [1, 6, 3, 2]
    """
    x = _element(X, x)
    _, _, orders, faults = X._walk
    if x in faults:
        raise AmbiguousPower(faults[x])
    return int(orders[x])
