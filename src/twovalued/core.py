"""Core data model for finite two-valued groups.

A two-valued group multiplies two elements into an *unordered pair* (a
2-element multiset).  Everything downstream works with element indices into a
fixed tuple of names; index 0 is always the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain, repeat
from math import isqrt
from operator import index
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

# Deterministic cap on recorded witnesses per tag; counts and verdicts are
# always exact.
MAX_WITNESSES_PER_TAG = 1000

# Bytes per (y, x, z) block of 8-byte codes in an n^3 sweep: small enough to
# stay in cache, as the associativity sweep reuses three such blocks.
_SWEEP_BLOCK_BYTES = 1 << 17

# The largest prime q with 4q <= 2^16, so that a sum of four power-sum codes
# does not carry out of a 16-bit field: the associativity sweep's size limit.
_MAX_CODED_ELEMENTS = 16_381

# Below this many elements verify_axioms sweeps all n^3 triples rather than
# run Light's test first: on the relabelled groups of the acceptance sweep,
# best of 9 per group, the test took 0.49 ms against the sweep's 0.43 ms at
# n = 42..47, and 0.50 against 0.53 ms at n = 48..53.
_LIGHT_TEST_MIN_SIZE = 48


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
    is the identity.  Construction checks shape and cells only -- use
    verify_axioms to check the actual axioms.
    """

    identity = 0

    def __init__(self, names: Sequence[str], table):
        """The group whose product i*j is the Pair table[i][j].  table is an
        n x n grid of Pairs of element indices; its cells follow the one rule
        of from_arrays and from_pairs, so a float, a string, None or an
        integer past 64 bits raises ValueError rather than being truncated."""
        names = tuple(names)
        n = len(names)
        try:
            square = len(table) == n and all(len(row) == n for row in table)
        except TypeError:  # the table or a row is no sequence
            square = False
        if not square:
            raise _shape_error(n)
        table = tuple(map(tuple, table))
        if not all(map(isinstance, chain.from_iterable(table), repeat(Pair))):
            raise ValueError("table cells must be Pairs")
        lo, hi = np.empty((n, n), index_dtype(n)), np.empty((n, n), index_dtype(n))
        for i, row in enumerate(table):
            # one row at a time, and flat: numpy reads a row of Pairs, tuple
            # subclasses, about 7x slower; True is index 1, in a row of bools too
            cells = np.array([*chain.from_iterable(row)])
            cells = cells.view(np.uint8) if cells.dtype == bool else cells
            a, b = cells.reshape(n, 2).T
            _check_cells(n, a, b, i)
            lo[i], hi[i] = a, b
        X = self._adopt(names, lo, hi)
        vars(self).update(vars(X), table=table)

    @classmethod
    def from_arrays(cls, names: Sequence[str], lo, hi) -> "TwoValuedGroup":
        """The group whose product i*j is [lo[i, j], hi[i, j]]; lo and hi are
        n x n integer arrays with lo <= hi, copied into index_dtype(n)."""
        names = tuple(names)
        n = len(names)
        try:
            lo, hi = np.array(lo, order="C"), np.array(hi, order="C")
        except ValueError:  # numpy's word for a ragged row
            raise _shape_error(n) from None
        if lo.shape != (n, n) or hi.shape != (n, n):
            raise _shape_error(n)
        _check_cells(n, lo, hi)
        return cls._adopt(names, lo, hi)

    @classmethod
    def _adopt(cls, names: Sequence[str], lo: np.ndarray, hi: np.ndarray) -> "TwoValuedGroup":
        """The group of the n x n tables lo and hi, kept uncopied where they
        are index_dtype(n) already.  The caller vouches for the cells: integers
        with lo <= hi in 0..n-1, checked by _check_cells or built so.  Only the
        names are checked here."""
        names = tuple(names)
        n = len(names)
        if n == 0:
            raise ValueError("empty element set")
        if len(set(names)) != n:
            raise ValueError("element names must be unique")
        lo, hi = (a.astype(index_dtype(n), copy=False) for a in (lo, hi))
        lo.setflags(write=False)
        hi.setflags(write=False)
        X = cls.__new__(cls)
        vars(X).update(names=names, lo=lo, hi=hi)
        return X

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
    def from_pairs(cls, names: Sequence[str], cells) -> "TwoValuedGroup":
        """The group whose product i*j is the pair cells[i][j] = (a, b) of
        indices in either order; cells may also list the 2n^2 indices flat.
        Cells that are not integers (names, floats, None) raise the same
        ValueError as in from_arrays and the table= constructor."""
        n = len(names)
        try:
            cells = np.asarray(cells)
        except ValueError:  # numpy's word for a ragged grid
            raise _shape_error(n) from None
        if cells.size != 2 * n * n:
            raise _shape_error(n)
        _check_cells(n, cells, cells)  # type and range; minimum and maximum sort
        cells = np.moveaxis(cells.astype(index_dtype(n), copy=False).reshape(n, n, 2), 2, 0)
        return cls._adopt(names, np.minimum(*cells), np.maximum(*cells))

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
    x, y = _element(X, x), _element(X, y)
    return Pair(int(X.lo[x, y]), int(X.hi[x, y]))


def product_fold(X: TwoValuedGroup, m: Iterable[int], b: int) -> tuple[int, ...]:
    """Multiply every element of the multiset m by b and merge the results.

    A multiset of size 2^k folds to one of size 2^(k+1); the result is a
    sorted tuple of indices (our multiset normal form).
    """
    m, b = np.fromiter(map(partial(_element, X), m), dtype=np.intp), _element(X, b)
    return tuple(sorted(X.lo[m, b].tolist() + X.hi[m, b].tolist()))


def _shape_error(n: int) -> ValueError:
    """The error of every table constructor for cells that do not make an
    n x n table."""
    return ValueError(f"multiplication table must be {n} x {n}")


def _check_cells(n: int, lo: np.ndarray, hi: np.ndarray, row: int = 0) -> None:
    """The cell rule of every table constructor, for a table lo/hi or its
    row `row`: ValueError at the first fault unless the cells are integers
    (floats, strings, None and integers past 64 bits convert to other dtypes
    and are refused, not truncated) with lo <= hi in 0..n-1."""
    if lo.dtype.kind not in "iu" or hi.dtype.kind not in "iu":
        raise ValueError("table cells must hold element indices")
    if not lo.size:  # no cells: _adopt refuses the empty element set
        return
    if lo is not hi and lo.flat[k := int((lo > hi).argmax())] > hi.flat[k]:
        i, j = divmod(k, n)
        raise ValueError(f"table cell ({row + i}, {j}) = [{lo.flat[k]}, {hi.flat[k]}] is not sorted")
    if lo.min() < 0 or hi.max() >= n:
        raise ValueError(f"table cell out of range 0..{n - 1}")


def index_dtype(n: int) -> np.dtype:
    """The narrowest dtype that holds the element indices 0..n-1: uint8 up
    to 256 elements, uint16 up to 65,536, int32 beyond."""
    if n <= 1 << 8:
        return np.dtype(np.uint8)
    if n <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


@lru_cache(maxsize=128)
def _power_sum_codes(n: int) -> np.ndarray:
    """uint64 codes of the elements 0..n-1 whose sums over 4-element
    multisets are equal only for equal multisets: v, v^2, v^3 and v^4 mod
    the least prime q >= max(n, 5), in four 16-bit fields.

    Equal sums fix the power sums p1..p4 mod q.  As q > 4, Newton's
    identities turn them into the elementary symmetric functions, whose
    polynomial over F_q has the multiset as its roots.  A sum of four codes
    stays below 4q <= 2^16 in each field, so no field carries into the
    next, for n up to _MAX_CODED_ELEMENTS (verify_axioms checks n).
    The codes are cached per n, at most 128 sizes, and read-only."""
    q = max(n, 5)
    while any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        q += 1
    v = np.arange(n, dtype=np.uint64)
    codes = v | (v**2 % q) << 16 | (v**3 % q) << 32 | (v**4 % q) << 48
    codes.setflags(write=False)
    return codes


def _associativity_violations(
    lo: np.ndarray, hi: np.ndarray, commutative: bool, middles: np.ndarray | slice
) -> tuple[int, list[tuple[int, int, int]]]:
    """The number of triples (x, y, z) with y in middles and
    (x*y)*z != x*(y*z) as 4-element multisets, and the lexicographically
    first MAX_WITNESSES_PER_TAG of them.  middles is an increasing intp
    index array, possibly empty, or a slice (slice(None) for all n);
    commutative says lo and hi are symmetric.

    With middles = {e} and a generating set (_generating_set), this is
    Light's test: the count is 0 exactly when the table is associative.
    Multiset associativity is associativity of Q[X] (Buchstaber's n-valued
    group ring); the e_y of the y that pass lie in its middle nucleus, a
    subalgebra (Schafer, 1966), and those of e and the generating set
    generate Q[X].  e is tested as well because the closure starts from it,
    unless the strong identity makes e_e / 2 the unit, which passes.

    A multiset is compared by its sum of _power_sum_codes: pair[a, b] is
    the code sum of a*b, and each side of a triple is the sum of two
    pair codes, so one uint64 compare decides the triple.  The sweep runs
    over blocks of middles of about _SWEEP_BLOCK_BYTES.  Each block
    gathers whole rows only: left[y, x, z] = (x*y)*z from the rows of the
    pair x*y, and right[y, z, x] = x*(y*z) from the rows of the pair y*z in
    pair transposed.  On a commutative table x*(y*z) = (z*y)*x, so right is
    left itself and costs nothing.  Both are compared through
    right.transpose(0, 2, 1), every triple once.

    Blocks run in increasing y, so a triple of a later block precedes a
    kept witness only if its x is smaller: once MAX_WITNESSES_PER_TAG are
    kept, only the rows x below the last one are read for witnesses.
    """
    n = len(lo)
    total = 0
    kept = np.empty(0, np.int64)  # witnesses as sorted keys (x*n + y)*n + z
    code = _power_sum_codes(n)
    pair = code.take(lo) + code.take(hi)
    pair_t = pair if commutative else pair.T.copy()
    ys = np.arange(n)[middles]
    # row k: the pairs x*y and y*z for the k-th middle y; views for a slice,
    # which spares the full sweep a fancy index per block
    xy_lo, xy_hi = lo[:, middles].T, hi[:, middles].T
    yz_lo, yz_hi = (xy_lo, xy_hi) if commutative else (lo[middles], hi[middles])
    step = max(1, _SWEEP_BLOCK_BYTES // (n * n * 8))  # middles per block
    # One buffer per array, reused by every block: fresh n^2 arrays per y
    # page-fault at large n.  take fills out= unbuffered only in a mode other
    # than "raise"; the indices are in range, so "clip" changes nothing.
    left_buf = np.empty((min(step, len(ys)), n, n), np.uint64)
    part_buf = np.empty_like(left_buf)
    right_buf = left_buf if commutative else np.empty_like(left_buf)
    bad_buf = np.empty(left_buf.shape, bool)
    for b0 in range(0, len(ys), step):
        block = slice(b0, b0 + step)
        m = len(ys[block])
        left, part, right, bad = left_buf[:m], part_buf[:m], right_buf[:m], bad_buf[:m]
        np.take(pair, xy_lo[block], 0, out=left, mode="clip")
        left += np.take(pair, xy_hi[block], 0, out=part, mode="clip")
        if not commutative:
            np.take(pair_t, yz_lo[block], 0, out=right, mode="clip")
            right += np.take(pair_t, yz_hi[block], 0, out=part, mode="clip")
        np.not_equal(left, right.transpose(0, 2, 1), out=bad)
        k = int(np.count_nonzero(bad))
        total += k
        rows = n if len(kept) < MAX_WITNESSES_PER_TAG else int(kept[-1]) // (n * n)
        if not (k and rows):
            continue
        by_x = bad.transpose(1, 0, 2)[:rows]
        if k > MAX_WITNESSES_PER_TAG:
            # the fewest rows that hold MAX_WITNESSES_PER_TAG of the triples
            per_x = np.cumsum(np.count_nonzero(by_x, axis=(1, 2)))
            by_x = by_x[: np.searchsorted(per_x, MAX_WITNESSES_PER_TAG) + 1]
        x, y, z = np.nonzero(by_x)
        found = (x.astype(np.int64) * n + ys[b0 + y]) * n + z
        kept = np.sort(np.concatenate([kept, found[:MAX_WITNESSES_PER_TAG]]))
        kept = kept[:MAX_WITNESSES_PER_TAG]
    return total, [(key // (n * n), key // n % n, key % n) for key in kept.tolist()]


def _generating_set(lo: np.ndarray, hi: np.ndarray, commutative: bool) -> list[int]:
    """Elements G whose basis vectors, with e's, generate the algebra Q[X]
    with e_a * e_b = e_lo[a, b] + e_hi[a, b]; for a single-valued table
    (lo = hi), generators of the closure of e under products.  commutative
    says lo and hi are symmetric, so that a*b need not be read as b*a too.

    e = 0 starts reached.  For reached a and b with a*b = [u, v], u = v
    makes u reached (2 e_u is a product), and one of u, v reached makes the
    other reached (e_u + e_v is).  Each round reads only the products of the
    elements reached in the last round with all reached ones, plus the
    links: the earlier products [u, v] with neither element reached, each
    kept until one of them is.  When a round reaches nothing new, the first
    unreached element joins G.  The reached set is the least one closed
    under the rules, however the products are ordered, so G is the same as
    when each round reads every reached pair.
    """
    n = len(lo)
    lo, hi = lo.ravel(), hi.ravel()
    rows = np.arange(n) * n
    reached = rows == 0
    count = 1
    fresh = np.zeros(1, np.intp)
    links = fresh[:0]
    gens = []
    while count < n:
        was = reached.copy()
        at = was.nonzero()[0]
        cells = [(rows[fresh][:, None] + at).ravel(), links]
        if not commutative:
            cells.append((rows[at][:, None] + fresh).ravel())
        cells = np.concatenate(cells)
        # each product [u, v] reaches both when one of them is reached or
        # u = v; take, unlike [], reads by a narrow index without a slow path
        u, v = lo[cells], hi[cells]
        ru = reached.take(u)
        hit = ru | reached.take(v) | (u == v)
        # the element of each hit product not known to be reached
        reached[np.where(ru, v, u)[hit]] = True
        links = cells[~hit]
        fresh = (reached > was).nonzero()[0]
        if not len(fresh):
            fresh = reached.argmin(keepdims=True)
            reached[fresh] = True
            gens.append(int(fresh[0]))
        count += len(fresh)
    return gens


@dataclass
class ValidationReport:
    """Outcome of the axiom checks on the full table.

    violations holds (tag, witness) entries where witness is a tuple of the
    element indices involved.  Witness lists are capped at
    MAX_WITNESSES_PER_TAG per tag (lexicographically first kept); counts
    holds the true number of violations per tag, and the boolean verdicts
    are exact.
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
    """Check the two-valued group axioms on the full table.

    Checks, in order: strong identity (e*x = x*e = [x,x]), associativity as
    equality of 4-element multisets over all n^3 triples, and the inverse
    axiom: for each x the set C_x = {y : e in x*y or e in y*x} must be a
    single element x' with e contained in both x*x' and x'*x.  Commutativity
    and involutivity (e in x*x for every x) are reported as flags.

    Every check reads the lo/hi arrays whole; as every table keeps 0 <= lo <= hi,
    e = 0 is in x*y exactly where lo[x, y] is.  On a commutative table the
    identity's column is its row, and a single inverse candidate in every
    row passes the inverse axiom.  Associativity is counted by one kernel,
    _associativity_violations, which compares (x*y)*z with x*(y*z) for
    every x, z and every y of a given set of middle elements.  From
    _LIGHT_TEST_MIN_SIZE elements on, it runs first on the middles {e}
    (kept only where the strong identity fails) and a generating set: that
    is Light's test, exact at O(|G| n^2) cost, and when it finds no
    violation the table is associative and the count is 0.  When it finds
    some, or on a smaller table, the kernel runs on all n middles, and the
    count and the witnesses come from that sweep, which runs in blocks of
    the middle element y, so memory stays bounded for large tables.  Tables
    of more than 16,381 elements raise MemoryError before any check.
    Violations are collected, not raised; each tag keeps its first
    MAX_WITNESSES_PER_TAG witnesses in the order below.
    """
    n = len(X)
    if n > _MAX_CODED_ELEMENTS:
        raise MemoryError(f"the associativity sweep handles at most "
                          f"{_MAX_CODED_ELEMENTS:,} elements, not {n}")
    e = X.identity
    lo, hi = X.lo, X.hi
    every = np.arange(n)
    violations: list[tuple[str, tuple[int, ...]]] = []
    counts = dict.fromkeys(AXIOM_TAGS, 0)

    # commutativity (flag only)
    is_commutative = bool((lo == lo.T).all() and (hi == hi.T).all())

    # strong identity: for each x, e*x and then x*e must be [x, x]; e*e is
    # one cell, and on a commutative table the column is the row
    row = (lo[e] != every) | (hi[e] != every)
    col = row if is_commutative else (lo[:, e] != every) | (hi[:, e] != every)
    counts["strong_identity"] = int(np.count_nonzero(row) + np.count_nonzero(col[1:]))
    if counts["strong_identity"]:
        unit = np.stack([row, col], axis=1)
        unit[e, 1] = False
        violations += [
            ("strong_identity", (x, e) if x_first else (e, x))
            for x, x_first in np.argwhere(unit)[:MAX_WITNESSES_PER_TAG].tolist()
        ]

    # involutivity (flag only): e in x*x for all x
    e_in_xy = lo == e  # [x, y] -> e in x*y
    is_involutive = bool(e_in_xy.diagonal().all())

    # associativity: Light's test on the middles {e} and G, then the full
    # sweep where it finds violations or the table is too small for it to pay
    count = None
    if n >= _LIGHT_TEST_MIN_SIZE:
        middles = _generating_set(lo, hi, is_commutative)
        if counts["strong_identity"]:  # else e passes: (x*e)*z = 2 (x*z) = x*(e*z)
            middles.insert(0, e)
        middles = np.array(middles, dtype=np.intp)
        count, witnesses = _associativity_violations(lo, hi, is_commutative, middles)
    if count != 0:
        count, witnesses = _associativity_violations(lo, hi, is_commutative, slice(None))
    counts["associativity"] = count
    violations += [("associativity", w) for w in witnesses]

    # inverse axiom: C_x = {y : e in x*y or e in y*x} must be exactly one
    # element, with e in both x*y and y*x for that element.
    cand = e_in_xy if is_commutative else e_in_xy | e_in_xy.T
    size = np.count_nonzero(cand, axis=1)
    if not (is_commutative and (size == 1).all()):
        y = cand.argmax(axis=1)  # the only y of C_x where size is 1
        missing = (size == 0) | ((size == 1) & ~(e_in_xy[every, y] & e_in_xy[y, every]))
        many = size > 1
        counts["inverse_existence"] = int(np.count_nonzero(missing))
        counts["inverse_uniqueness"] = int(np.count_nonzero(many))
        keep = ((missing & (np.cumsum(missing) <= MAX_WITNESSES_PER_TAG))
                | (many & (np.cumsum(many) <= MAX_WITNESSES_PER_TAG)))
        for x in keep.nonzero()[0].tolist():
            if many[x]:
                violations.append(("inverse_uniqueness", (x, *cand[x].nonzero()[0].tolist())))
            else:
                violations.append(("inverse_existence", (x, int(y[x])) if size[x] else (x,)))

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


def _squares(X: TwoValuedGroup) -> np.ndarray:
    """x^2 for every element x, the high diagonal: x * x = [e, x^2], and
    e = 0 is the low element of a cell that holds it.  AmbiguousPower for
    the first x whose x * x does not hold e, with the walk's message."""
    if (stray := X.lo.diagonal() != 0).any():
        raise AmbiguousPower(f"x^(k-1) missing from x*x^k for x={stray.argmax()}, k=1")
    return X.hi.diagonal()


def _walk(X: TwoValuedGroup, x: int) -> tuple[list[int], int]:
    """(seq, m): seq = [x^0, x^1, ...] from the recurrence x * x^k =
    [x^(k-1), x^(k+1)], and m the order of x.  The walk stops at
    x^(k+1) = e, where m = k + 1, or where it turns: after x^(k+1) = x^(k-1)
    or x^k the recurrence retraces its steps to e, so m is 2k or 2k + 1 and
    x^j = x^(m-j) beyond seq.  AmbiguousPower where the recurrence branches
    first: x*x^k and x^k*x differ, x^(k-1) is missing from x*x^k, or there
    is no return to e within 2n+2 steps.  Plain Python over x's row and
    column: a step costs a few list reads, not a numpy call."""
    if x == X.identity:
        return [x, x], 1
    n = len(X)
    lo, hi = X.lo[x].tolist(), X.hi[x].tolist()
    lo_t, hi_t = X.lo[:, x].tolist(), X.hi[:, x].tolist()
    seq = [0, x]
    for k in range(1, 2 * n + 2):
        prev, cur = seq[k - 1], seq[k]
        l, h = lo[cur], hi[cur]
        if l != lo_t[cur] or h != hi_t[cur]:
            raise AmbiguousPower(f"x*x^k and x^k*x differ for x={x}, k={k}")
        if prev != l and prev != h:
            raise AmbiguousPower(f"x^(k-1) missing from x*x^k for x={x}, k={k}")
        seq.append(nxt := h if l == prev else l)
        if nxt == 0:
            return seq, k + 1
        if nxt == prev or nxt == cur:
            m = 2 * k + (nxt == cur)
            if m <= 2 * n + 2:
                return seq, m
            break
    raise AmbiguousPower(f"power sequence of x={x} never returns to e")


def power(X: TwoValuedGroup, x: int, k: int) -> int:
    """x^k, defined through the unique power sequence.

    Powers satisfy x^(-k) = x^k and are periodic with period ord(x), so any
    integer exponent is accepted.  AmbiguousPower when the sequence of x
    branches; ValueError when x is no element index, TypeError for a non-integer.

    >>> from twovalued.constructions import principal
    >>> X = principal(5)  # the classes of 0, 1, 2 in C5
    >>> [power(X, 1, k) for k in range(6)]
    [0, 1, 2, 2, 1, 0]
    """
    x, k = _element(X, x), index(k)
    seq, m = _walk(X, x)
    j = abs(k) % m
    return seq[j] if j < len(seq) else seq[m - j]


def order(X: TwoValuedGroup, x: int) -> int:
    """Least k >= 1 with x^k = e.

    >>> from twovalued.constructions import principal
    >>> X = principal(6)
    >>> [order(X, x) for x in range(len(X))]
    [1, 6, 3, 2]
    """
    return _walk(X, _element(X, x))[1]
