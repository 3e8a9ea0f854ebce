"""Classification of finite involutive commutative two-valued groups.

Every such group is isomorphic to exactly one of

* Principal(d1,...,dk): a finite abelian group modulo negation,
* Unipotent(n, m) with n >= 3: the rank-n unipotent group times C2^m,
* Special(n, m) with n >= 2: the rank-n special group times C2^m,

where the principal chain is in invariant-factor form.  The low-rank
unipotent and special groups coincide with principal ones and are
canonicalized away (rank 1 and the rank-2 unipotent case).

classify() runs the decision procedure on X = X' x C2^m, where X' has no
single-valued C2 factor: detect special pairs (read n and m off |X|); when an
element of order outside {1,2,4} exists, read the invariant factors of A
(with X = A modulo negation) off the counts #{a : a^k = e}; otherwise
the cocycle branch reads k and m off |X|, and only rank >= 3 splits and reads
the cohomology bit: Principal(4^k, 2^m) and Unipotent(k, m) both have
2^(m+k-1) (2^k + 1) elements, and they differ only from k = 3 on.  The first
two steps need no split, because X and X' agree on special pairs and on
orders outside {1,2,4}.  reconstruct_abelian rebuilds A as an
explicit group table and is the independent certificate for the principal
branch; classify does not call it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .constructions import (
    FinAbelianGroup,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from .core import TwoValuedGroup, _element, _generating_set, _squares, index_dtype
from .cocycle import cohomology_invariant, extract_quasicocycle
from .structure import _mismatches, _special_rows, split_direct_factor

__all__ = [
    "ClassLabel",
    "ReconstructionResult",
    "NonUniquePair",
    "NotAssociative",
    "NotAbelian",
    "Timeout",
    "merge_chains",
    "reconstruct_abelian",
    "invariant_factors",
    "classify",
    "realize",
    "all_labels_of_size",
    "are_isomorphic",
    "witness_isomorphism",
]


class NonUniquePair(Exception):
    pass


class NotAssociative(Exception):
    pass


class NotAbelian(Exception):
    pass


class Timeout(Exception):
    """Witness search exceeded its node budget."""


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _chain_from_counts(n: int, count) -> tuple[int, ...]:
    """Invariant-factor chain of the abelian group of order n in which
    count(k) elements have order dividing k.

    For a prime p, count(p^j) / count(p^(j-1)) = p^r where r is the number of
    cyclic p-factors of exponent >= j; the i-th largest invariant factor takes
    one factor p for each j with r > i.
    """
    top: list[int] = []  # invariant factors, largest first
    for p in _factorint(n):
        prev, q = 1, p
        while (c := count(q)) != prev:
            ratio, r = c // prev, 0
            while ratio > 1:
                ratio //= p
                r += 1
            top.extend([1] * (r - len(top)))
            for i in range(r):
                top[i] *= p
            prev, q = c, q * p
    return tuple(reversed(top))


def merge_chains(c1, c2) -> tuple[int, ...]:
    """Invariant factors of the direct product of two abelian groups given
    by invariant-factor chains."""
    ds = tuple(c1) + tuple(c2)
    return _chain_from_counts(
        math.prod(ds), lambda k: math.prod(math.gcd(k, d) for d in ds)
    )


@dataclass(frozen=True)
class ClassLabel:
    """Canonical isomorphism-class label.  Use the constructors principal /
    unipotent / special; they fold the exceptional low-rank coincidences
    into principal form, so label equality is isomorphism."""

    kind: str
    chain: tuple[int, ...] = ()
    n: int = 0
    m: int = 0

    @classmethod
    def principal_label(cls, chain) -> "ClassLabel":
        chain = tuple(chain)
        for a, b in zip(chain, chain[1:]):
            if b % a != 0:
                raise ValueError(f"chain {chain} not ordered by divisibility")
        if any(d < 2 for d in chain):
            raise ValueError("chain entries must be >= 2")
        return cls(kind="principal", chain=chain)

    @classmethod
    def unipotent_label(cls, n: int, m: int) -> "ClassLabel":
        if n < 1 or m < 0:
            raise ValueError("need n >= 1, m >= 0")
        if n <= 2:
            return cls.principal_label((2,) * m + (4,) * n)
        return cls(kind="unipotent", n=n, m=m)

    @classmethod
    def special_label(cls, n: int, m: int) -> "ClassLabel":
        if n < 1 or m < 0:
            raise ValueError("need n >= 1, m >= 0")
        if n == 1:
            # the 3-element special group is the 3-element unipotent one
            return cls.principal_label((2,) * m + (4,))
        return cls(kind="special", n=n, m=m)

    def size(self) -> int:
        if self.kind == "principal":
            prod = 1
            r = 0
            for d in self.chain:
                prod *= d
                r += 1 - d % 2
            return (prod + 2 ** r) // 2
        if self.kind == "unipotent":
            return (2 ** (2 * self.n - 1) + 2 ** (self.n - 1)) << self.m
        return (2 ** self.n + 1) << self.m

    def __str__(self) -> str:
        if self.kind == "principal":
            return f"Principal({','.join(map(str, self.chain))})"
        return f"{self.kind.capitalize()}({self.n},{self.m})"


def realize(label: ClassLabel) -> TwoValuedGroup:
    """Construct a group in the given isomorphism class."""
    if label.kind == "principal":
        return principal(*label.chain)
    if label.kind == "unipotent":
        return product_with_boolean(unipotent(label.n), label.m)
    return product_with_boolean(special_series(label.n), label.m)


def _chains_with_product(p: int, base: int = 1) -> list[tuple[int, ...]]:
    """All divisibility chains d1 | ... | dk, di >= 2, of product p with
    entries multiples of base; only (p,) has d1 > sqrt(p), as d1^2 <= d1 d2."""
    if p == 1:
        return [()]
    out = [(p,)] if p % base == 0 else []
    for d in range(max(base, 2), math.isqrt(p) + 1, base):
        if p % (d * d) == 0:
            out += [(d, *rest) for rest in _chains_with_product(p // d, d)]
    return out


def all_labels_of_size(k: int) -> set[ClassLabel]:
    """Every isomorphism class of the given cardinality, by label
    arithmetic: a principal chain with r even entries has product 2k - 2^r,
    and the canonical constructors dedup the three series."""
    products = [2 * k - (1 << r) for r in range(k.bit_length() + 1)]
    labels = [ClassLabel.principal_label(c) for p in products if p > 0
              for c in _chains_with_product(p)]
    for family in (ClassLabel.unipotent_label, ClassLabel.special_label):
        n = 1
        while family(n, 0).size() <= k:
            labels += [family(n, m) for m in range(k.bit_length())]
            n += 1
    return {lab for lab in labels if lab.size() == k}


def _table_chain(t: np.ndarray) -> tuple[int, ...]:
    """Invariant-factor chain of the abelian group with n x n table t of
    indices 0..n-1, after checking identity, inverses, commutativity and
    associativity, which make rows permutations: NotAbelian or NotAssociative."""
    n = len(t)
    every = np.arange(n)
    bad = np.flatnonzero((t[0] != every) | (t[:, 0] != every))
    if len(bad):
        raise NotAbelian(f"index 0 is not an identity (element {bad[0]})")
    t = t.astype(index_dtype(n), copy=False)
    bad = np.flatnonzero(t.min(axis=1))
    if len(bad):
        raise NotAbelian(f"element {bad[0]} has no inverse")
    if not np.array_equal(t, t.T):
        raise NotAbelian("multiplication is not commutative")
    # Light's test: the g with (xg)y = x(gy) for all x, y are closed under
    # products, so checking g in a generating set covers every g; x(gy) = (gy)x
    for g in _generating_set(t, t, commutative=True):
        bad = t[t[:, g]] != t[t[g]].T
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            raise NotAssociative(f"first failing triple: {(x, g, y)}")

    return _counted_chain(t, t, np.ones(n, np.intp))


def _counted_chain(lo: np.ndarray, hi: np.ndarray, weight: np.ndarray) -> tuple[int, ...]:
    """Invariant-factor chain of the abelian group A in which element x of
    the table lo/hi stands for weight[x] elements: A's table (lo = hi) or
    A modulo negation.  Each count #{a : a^k = e} runs Montgomery's ladder
    on (y^K, y^(K+1)) for all y at once: y^(2K) is the high element of
    y^K * y^K, one take from the diagonal, and y^(2K+1) the element of
    y^K * y^(K+1) other than y (square-and-multiply on a group table).
    As x^(pq) = (x^q)^p, it climbs from the last counted q dividing k."""
    square = hi.diagonal()
    every = np.arange(len(lo))
    last = (1, every)

    def count(k: int) -> int:
        nonlocal last
        q, y = last if k % last[0] == 0 else (1, every)
        a, b = y, square.take(y)  # y^K and y^(K+1), from K = 1
        for bit in bin(k // q)[3:]:
            l, h = lo[a, b], hi[a, b]
            ab = np.where(l == y, h, l)
            a, b = (ab, square.take(b)) if bit == "1" else (square.take(a), ab)
        last = (k, a)
        return int(weight[a == 0].sum())

    return _chain_from_counts(int(weight.sum()), count)


def invariant_factors(G) -> tuple[int, ...]:
    """Invariant-factor chain (d1 | d2 | ... | dk) of a finite abelian group
    given by a FinAbelianGroup or by its n x n index table, an integer array
    of 0..n-1 with identity 0 (such as ReconstructionResult.table).  NotAbelian
    or NotAssociative when the table is no abelian group.

    Works by order counting: for each prime p, the number of elements whose
    order divides p^j determines the partition of the p-primary component.
    """
    if isinstance(G, FinAbelianGroup):
        return merge_chains(G.factors, ())
    t = np.asarray(G)
    if t.ndim != 2 or len(t) != t.shape[1] or not len(t) or t.dtype.kind not in "iu":
        raise ValueError(f"a group table is a square integer array holding at least the "
                         f"identity, not {t.dtype} of {t.shape}")
    if t.min() < 0 or t.max() >= len(t):
        raise ValueError(f"group table entries must lie in 0..{len(t) - 1}")
    return _table_chain(t)


@dataclass
class ReconstructionResult:
    """Output of reconstruct_abelian: the abelian group in invariant-factor
    form, the reconstructed table on the pairs (x, p) as a read-only index
    array, a label per pair, and bookkeeping."""

    abelian: FinAbelianGroup
    chain: tuple[int, ...]
    table: np.ndarray
    labels: tuple[str, ...]
    t: int
    pairs: tuple[tuple[int, int], ...]


def reconstruct_abelian(X: TwoValuedGroup, t: int | None = None) -> ReconstructionResult:
    """Rebuild a single-valued abelian group A with X = A modulo negation.

    Requires a non-special group and an element t of order outside
    {1, 2, 4}.  The group lives on pairs A = {(x, p) : p in t*x}; the product
    of (x, p) and (y, q) is the unique (z, r) in A with

      (i)   z in x*y, z in p*q', z in p'*q
      (ii)  r in t*z, r in x*q, r in p*y
      (iii) r' in x*q', r' in p'*y   for t*z = [r, r']

    where p', q' are the companions of p, q in t*x, t*y.  NonUniquePair if a
    product is not pinned down, NotAssociative if the result fails the group
    axioms.  With t omitted, the smallest admissible element index is used.
    The conditions are tested on blocks of rows of the pair table, for the
    at most four candidates z in x*y, r in t*z of each product.
    """
    square = _squares(X)
    for a, mask in _special_rows(X, square != 0):
        if mask.any():
            i, y = np.argwhere(mask)[0].tolist()
            raise ValueError(f"group has special pairs, e.g. {(a + i, y)}")
    if t is None:
        admissible = np.flatnonzero(square.take(square))
        if not len(admissible):
            raise ValueError("no element of order outside {1, 2, 4}")
        t = int(admissible[0])
    else:
        t = _element(X, t)
        if not square[square[t]]:
            raise ValueError(f"t = {t} has order in {{1, 2, 4}}")

    L, H = X.lo, X.hi
    t_lo, t_hi = L[t], H[t]
    # A in order of x, then p = lo before p = hi; (x, t_lo[x]) sits at start[x]
    width = 1 + (t_lo != t_hi)
    start = np.cumsum(width) - width
    y = np.repeat(np.arange(len(X)), width)
    second = np.arange(len(y)) - start[y]
    q = np.where(second, t_hi[y], t_lo[y])
    qq = np.where(second, t_lo[y], t_hi[y])  # the companion q'
    pairs = tuple(zip(y.tolist(), q.tolist()))
    na = len(pairs)

    def has(cell, z):
        """z in u*v, cellwise, for cell = (lo, hi) gathered at (u, v)."""
        return (cell[0] == z) | (cell[1] == z)

    table = np.empty((na, na), dtype=index_dtype(na))
    step = max(1, (1 << 16) // na)  # rows per block of about 64K cells
    for a0 in range(0, na, step):
        rows = slice(a0, a0 + step)
        x, p, pp = y[rows, None], q[rows, None], qq[rows, None]
        # the six products the conditions read, each gathered once
        p_qq, pp_q, x_q, p_y, x_qq, pp_y = (
            (L[u, v], H[u, v]) for u, v in ((p, qq), (pp, q), (x, q), (p, y), (x, qq), (pp, y))
        )
        hits = []  # (ok, z, r, index of (z, r) in A) per candidate
        z_lo, z_hi = L[x, y], H[x, y]
        for z, new_z in ((z_lo, True), (z_hi, z_lo != z_hi)):
            ok_z = new_z & has(p_qq, z) & has(pp_q, z)
            r_lo, r_hi = t_lo[z], t_hi[z]
            for r, rr, u in ((r_lo, r_hi, 0), (r_hi, r_lo, 1)):
                ok = ok_z & (r_lo != r_hi) if u else ok_z
                ok = ok & has(x_q, r) & has(p_y, r) & has(x_qq, rr) & has(pp_y, rr)
                hits.append((ok, z, r, start[z] + u))
        count = sum(ok for ok, *_ in hits)
        if (count != 1).any():
            i, j = np.argwhere(count != 1)[0]
            found = sorted((int(z[i, j]), int(r[i, j])) for ok, z, r, _ in hits if ok[i, j])
            raise NonUniquePair(f"product of {pairs[a0 + i]} and {pairs[j]}: candidates {found}")
        table[rows] = sum(np.where(ok, pos, 0) for ok, _, _, pos in hits)

    # (0, t) sits at index 0, as t*e = [t, t] gives one pair; the entries are
    # indices of A, and _table_chain checks the group axioms on the table
    chain = _table_chain(table)
    table.flags.writeable = False
    labels = tuple(f"({X.names[x]};{X.names[p]})" for x, p in pairs)
    return ReconstructionResult(
        abelian=FinAbelianGroup(chain), chain=chain, table=table, labels=labels, t=t, pairs=pairs
    )


def classify(X: TwoValuedGroup) -> ClassLabel:
    """Decide the isomorphism class of a finite involutive commutative
    two-valued group (assumed valid; run verify_axioms first for untrusted
    input).

    Steps, in order: special pairs (|X| = 2^m (2^n + 1)); counts by
    _counted_chain, when an order lies outside {1, 2, 4} (X' = A/+- makes
    X = (A x C2^m)/+-); otherwise the cocycle branch reads k and m off |X|,
    and only rank >= 3 splits and reads the cohomology bit.  Every step
    reads the squares off the diagonal (core._squares): no power walk.
    """
    n = len(X)
    square = _squares(X)
    big = square != 0
    if any(mask.any() for _, mask in _special_rows(X, big)):
        m = (n & -n).bit_length() - 1
        sz = n >> m
        k = (sz - 1).bit_length() - 1
        if k < 2 or sz != (1 << k) + 1:
            raise ValueError(
                f"special part has size {sz}, not of the form 2^n + 1 with n >= 2"
            )
        return ClassLabel.special_label(k, m)
    # an order outside {1, 2, 4} is some x^4 != e, and x^4 = (x^2)^2: in
    # A/+- the powers of x = [a] are x^k = [k a]
    if square.take(square).any():
        chain = _counted_chain(X.lo, X.hi, 1 + big)
        if ClassLabel.principal_label(chain).size() != n:
            raise ValueError(f"order counts give {chain}, not a group of size {n}")
        return ClassLabel.principal_label(chain)
    # Principal(4^k, 2^m) and Unipotent(k, m) both have 2^(m+k-1) (2^k + 1)
    # elements, 2^m for k = 0, so n = 2^t o with o odd gives k and m
    t = (n & -n).bit_length() - 1
    o = n >> t
    k = (o >> 1).bit_length()
    m = t - max(k - 1, 0)
    if (o > 1 and o != (1 << k) + 1) or m < 0:
        raise ValueError(f"orders in {{1,2,4}} but size {n} is not 2^(m+k-1) (2^k + 1)")
    if k >= 3:
        # from rank 3 on the cohomology bit separates the two forms
        Xp, split_m, _witnesses = split_direct_factor(X)
        data = extract_quasicocycle(Xp)
        if data.dim != k or split_m != m:
            raise ValueError(
                f"size {n} gives rank {k} and {m} C2 factors; the split gives "
                f"{split_m} and rank {data.dim}"
            )
        if not cohomology_invariant(data.phi):
            return ClassLabel.unipotent_label(k, m)
    return ClassLabel.principal_label((2,) * m + (4,) * k)


def are_isomorphic(X: TwoValuedGroup, Z: TwoValuedGroup) -> bool:
    """Label equality; the classification makes this a complete invariant."""
    return classify(X) == classify(Z)


# --- explicit isomorphism search -------------------------------------------

def _rank_rows(keys: np.ndarray) -> np.ndarray:
    """The dense rank of each row of a 2-d integer array, in lexicographic
    order of the rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    step = np.zeros(len(keys), dtype=np.intp)
    step[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step)
    return ranks


def _initial_colors(X: TwoValuedGroup) -> np.ndarray:
    """Colours from six invariants of each row: identity, x*x doubled, e in
    x*x, and per row the doubled cells, cells holding e and cells holding x.
    Orders are no key: they cost a power walk per element, and as keys,
    with the special-partner counts, they saved the search 0.3 % of its
    nodes over relabelled pairs of the acceptance-sweep groups of n <= 72."""
    lo, hi = X.lo, X.hi
    every = np.arange(len(X))
    doubled = lo == hi
    mine = every[:, None]
    keys = [
        every == 0,
        doubled.diagonal(),
        lo.diagonal() == 0,
        doubled.sum(axis=1),
        (lo == 0).sum(axis=1),
        ((lo == mine) | (hi == mine)).sum(axis=1),
    ]
    return _rank_rows(np.column_stack(keys).astype(np.int64))


def _refine(X: TwoValuedGroup, cols: np.ndarray) -> np.ndarray:
    """Refine colours until stable: the new colour of x ranks its old colour
    and the sorted multiset of triples (colour of y, sorted colours of x*y)."""
    lo, hi = X.lo, X.hi
    while True:
        k = int(cols.max()) + 1
        a, b = cols[lo], cols[hi]
        # each triple as one base-k number, so sorting the numbers sorts them
        cells = (cols * k + np.minimum(a, b)) * k + np.maximum(a, b)
        new = _rank_rows(np.column_stack([cols, np.sort(cells, axis=1)]))
        if np.array_equal(new, cols):
            return cols
        cols = new


def witness_isomorphism(
    X: TwoValuedGroup, Z: TwoValuedGroup, node_budget: int = 10_000_000
) -> list[int] | None:
    """Search for an explicit isomorphism (a list mapping X indices to Z
    indices).  Color refinement prunes the search; assignments propagate
    forced values through half-known product cells.  Returns None when no
    isomorphism exists; raises Timeout when the node budget runs out."""
    n = len(X)
    if len(Z) != n:
        return None
    cx = _refine(X, _initial_colors(X)).tolist()
    cz = _refine(Z, _initial_colors(Z)).tolist()
    if sorted(cx) != sorted(cz):
        return None
    lx, hx, lz, hz = X.lo.tolist(), X.hi.tolist(), Z.lo.tolist(), Z.hi.tolist()
    cand = {c: [z for z in range(n) if cz[z] == c] for c in set(cz)}
    f = [-1] * n
    finv = [-1] * n
    # the mapped elements in increasing order; the trail holds them in the
    # order they were mapped, for undo
    mapped: list[int] = []
    budget = node_budget

    def propagate(x: int, z: int, trail: list[int]) -> bool:
        nonlocal budget
        queue = [(x, z)]
        while queue:
            a, b = queue.pop()
            if f[a] == b:
                continue
            if f[a] != -1 or finv[b] != -1 or cx[a] != cz[b]:
                return False
            budget -= 1
            if budget < 0:
                raise Timeout(f"node budget exhausted ({node_budget})")
            f[a] = b
            finv[b] = a
            trail.append(a)
            insort(mapped, a)
            for y in mapped:
                fy = f[y]
                # the cells a*y and y*a against their images b*f(y), f(y)*b
                for l1, l2, q1, q2 in (
                    (lx[a][y], hx[a][y], lz[b][fy], hz[b][fy]),
                    (lx[y][a], hx[y][a], lz[fy][b], hz[fy][b]),
                ):
                    m1, m2 = f[l1], f[l2]
                    if m1 != -1 and m2 != -1:
                        if (min(m1, m2), max(m1, m2)) != (q1, q2):
                            return False
                    elif m1 != -1 or m2 != -1:
                        # the unmapped one goes to the companion of the image
                        m, rest = (m1, l2) if m1 != -1 else (m2, l1)
                        if m == q1:
                            queue.append((rest, q2))
                        elif m == q2:
                            queue.append((rest, q1))
                        else:
                            return False
                    elif l1 == l2:
                        if q1 != q2:
                            return False
                        queue.append((l1, q1))
        return True

    def undo(trail: list[int], mark: int):
        while len(trail) > mark:
            a = trail.pop()
            finv[f[a]] = -1
            f[a] = -1
            del mapped[bisect_left(mapped, a)]

    # static order: rare colors first, identity is its own color class
    by_class = sorted(range(n), key=lambda x: (len(cand[cx[x]]), cx[x], x))
    trail: list[int] = []

    def search(depth: int) -> bool:
        while depth < n and f[by_class[depth]] != -1:
            depth += 1
        if depth == n:
            return not _mismatches(X, Z, np.array(f)).any()
        x = by_class[depth]
        for z in cand[cx[x]]:
            if finv[z] != -1:
                continue
            mark = len(trail)
            if propagate(x, z, trail) and search(depth + 1):
                return True
            undo(trail, mark)
        return False

    if search(0):
        return list(f)
    return None
