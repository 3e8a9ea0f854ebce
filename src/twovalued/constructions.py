"""Constructions of two-valued groups from single-valued abelian groups.

The workhorse is the coset construction: given a finite abelian group A and
an involutive automorphism i, the orbit space A/i multiplies by
[g]*[h] = [[g+h], [g+i(h)]].  Three ready-made families are exposed:

* principal(d1,...,dk): A = C_d1 x ... x C_dk modulo negation,
* unipotent(n): (V x V)/i with V Boolean of rank n and i(a,b) = (a, a+b),
* special_series(n): a Boolean group of rank n plus one extra element s.

All constructors put the identity at index 0 and name elements
deterministically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TwoValuedGroup, index_dtype

__all__ = [
    "FinAbelianGroup",
    "InvolutiveAutomorphism",
    "NotAutomorphism",
    "NotInvolutive",
    "coset_group",
    "principal",
    "unipotent",
    "special_series",
    "product_with_boolean",
    "double",
]


class NotAutomorphism(Exception):
    pass


class NotInvolutive(Exception):
    pass


@dataclass(frozen=True)
class FinAbelianGroup:
    """Direct product of cyclic groups C_d1 x ... x C_dk, written additively.

    Elements are tuples (a1,...,ak) with 0 <= ai < di, indexed in
    lexicographic order, so index 0 is the zero element.  factors may be any
    integers >= 2 (the empty product is the trivial group).

    >>> A = FinAbelianGroup((2, 3))
    >>> A.size
    6
    >>> A.add(1, 5)  # (0,1) + (1,2) = (1,0)
    3
    >>> A.order_of(A.add(1, 1))
    3
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(d < 2 for d in self.factors):
            raise ValueError("cyclic factors must be >= 2")

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    def __len__(self) -> int:
        return self.size

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[range(d) for d in self.factors]))

    def index(self, el: tuple[int, ...]) -> int:
        idx = 0
        for a, d in zip(el, self.factors):
            idx = idx * d + a
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.factors):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    def add(self, i: int, j: int) -> int:
        a = self.element(i)
        b = self.element(j)
        return self.index(tuple((x + y) % d for x, y, d in zip(a, b, self.factors)))

    def neg(self, i: int) -> int:
        a = self.element(i)
        return self.index(tuple((-x) % d for x, d in zip(a, self.factors)))

    def order_of(self, i: int) -> int:
        el = self.element(i)
        return math.lcm(*(d // math.gcd(a, d) for a, d in zip(el, self.factors)))

    def _places(self) -> list[int]:
        """The index step of each coordinate (the product of the factors
        after it); the unit vectors' indices, in coordinate order."""
        return [math.prod(self.factors[k + 1:]) for k in range(len(self.factors))]

    def _add_indices(self, a, b) -> np.ndarray:
        """Elementwise index of a + b over broadcastable index arrays, from
        the sum of each mixed-radix digit pair modulo its factor."""
        return sum((a // place % d + b // place % d) % d * place
                   for d, place in zip(self.factors, self._places()))

    def _neg_indices(self) -> np.ndarray:
        """The index of -g for every element index g, digit by digit."""
        g = np.arange(self.size)
        return sum((-(g // place) % d * place for d, place in zip(self.factors, self._places())),
                   np.zeros_like(g))

    def name_of(self, idx: int) -> str:
        return ",".join(map(str, self.element(idx))) if self.factors else "0"


@dataclass(frozen=True)
class InvolutiveAutomorphism:
    """An automorphism i of a FinAbelianGroup with i(i(g)) = g, stored as an
    explicit permutation of element indices."""

    group: FinAbelianGroup
    perm: tuple[int, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = self.group
        n = A.size
        p = np.asarray(self.perm)
        if (
            p.shape != (n,)
            or p.dtype.kind not in "iu"
            or not np.array_equal(np.sort(p), np.arange(n))
        ):
            raise NotAutomorphism("not a permutation of the element indices")
        p = p.astype(np.intp)
        object.__setattr__(self, "perm", tuple(p.tolist()))
        object.__setattr__(self, "_array", p)
        # p(a + g) = p(a) + p(g) on the unit vectors g gives additivity on
        # all pairs by induction on word length, and p(0) = 0 from a = 0
        every = np.arange(n)
        for g in A._places():
            bad = p[A._add_indices(every, g)] != A._add_indices(p, p[g])
            if bad.any():
                raise NotAutomorphism(
                    f"additivity fails at elements {int(np.argmax(bad))}, {g}"
                )
        bad = p[p] != every
        if bad.any():
            raise NotInvolutive(f"square of the map moves element {int(np.argmax(bad))}")

    def __call__(self, i: int) -> int:
        return self.perm[i]

    @classmethod
    def negation(cls, A: FinAbelianGroup) -> "InvolutiveAutomorphism":
        return cls(A, A._neg_indices())

    @classmethod
    def from_map(cls, A: FinAbelianGroup, f) -> "InvolutiveAutomorphism":
        """Build from a callable on element tuples."""
        return cls(A, tuple(A.index(f(A.element(i))) for i in range(A.size)))


def _reserve_table(group: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised n x n lo and hi index tables, which the named group fills
    and keeps: MemoryError here when they cannot fit, before the work."""
    try:
        return np.empty((n, n), dtype=index_dtype(n)), np.empty((n, n), dtype=index_dtype(n))
    except (MemoryError, ValueError):  # ValueError: the byte count overflows
        size = f"{n:,}" if n < 1 << 64 else f"at least 2^{n.bit_length() - 1:,}"
        raise MemoryError(f"the table of {group}, {size} elements, does not fit") from None


def coset_group(A: FinAbelianGroup, iota: InvolutiveAutomorphism) -> TwoValuedGroup:
    """The orbit space A/iota with [g]*[h] = [[g+h], [g+iota(h)]].

    Orbits are labeled by their lexicographically smallest representative
    tuple; since iota fixes 0, the zero orbit sorts first and the identity
    lands at index 0.
    """
    if iota.group != A:
        raise ValueError("automorphism belongs to a different group")
    fixed = np.count_nonzero(iota._array == np.arange(A.size))
    return _orbit_space(A, iota._array, *_reserve_table(f"{A}/iota", (A.size + fixed) // 2))


def _orbit_space(A: FinAbelianGroup, p: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> TwoValuedGroup:
    """coset_group for the involutive automorphism with index map p, which
    the caller vouches for: the families build their own maps and skip the
    InvolutiveAutomorphism checks.  lo and hi come from _reserve_table, and
    are filled in blocks of rows of about 64K cells, then kept.

    Each factor's digits are read once, for the names and for a spread
    index: the digits in the radix 2d - 1 per factor d, in which an index
    sum carries nothing, so that cell maps it to the orbit of g + h."""
    # the orbit of g is {g, iota(g)}; its smallest index is its smallest
    # tuple, since A.element is lex-increasing in the index
    every = np.arange(A.size)
    rep = np.minimum(every, p)
    reps = np.flatnonzero(rep == every)
    spread, cell, digits = np.zeros_like(every), np.zeros(1, index_dtype(A.size)), []
    for d, place in zip(A.factors[::-1], A._places()[::-1]):
        digit = every // place % d
        spread += digit * len(cell)
        cell = ((np.arange(2 * d - 1) % d * place).astype(cell.dtype)[:, None] + cell).ravel()
        digits.insert(0, digit[reps].astype(str).tolist())
    cell = np.searchsorted(reps, rep).astype(lo.dtype)[cell]
    g, h = spread[reps], spread[p[reps]]
    step = max(1, (1 << 16) // len(reps))
    for a0 in range(0, len(reps), step):
        rows = slice(a0, a0 + step)
        z1, z2 = cell.take(g[rows, None] + g), cell.take(g[rows, None] + h)
        np.minimum(z1, z2, out=lo[rows])
        np.maximum(z1, z2, out=hi[rows])
    return TwoValuedGroup._adopt(map(",".join, zip(*digits)) if digits else ("0",), lo, hi)


def principal(*chain: int) -> TwoValuedGroup:
    """X^a over C_d1 x ... x C_dk: the quotient by negation.

    The chain must satisfy d1 | d2 | ... | dk (the invariant-factor normal
    form); an empty chain gives the one-element group.
    """
    for a, b in zip(chain, chain[1:]):
        if b % a != 0:
            raise ValueError(f"chain {chain} is not ordered by divisibility")
    A = FinAbelianGroup(tuple(chain))
    # negation fixes the 2^r elements of order <= 2, r the even factors
    tables = _reserve_table(f"principal({','.join(map(str, chain))})",
                            (A.size + 2 ** sum(d % 2 == 0 for d in chain)) // 2)
    return _orbit_space(A, A._neg_indices(), *tables)


def unipotent(n: int) -> TwoValuedGroup:
    """X^u of rank n >= 1: (V x V)/iota with V = C_2^n, iota(a,b) = (a, a+b).

    Every element of the underlying group is its own inverse, so the orbit
    space is involutive even though iota is not negation.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    A = FinAbelianGroup((2,) * (2 * n))
    # iota fixes the 2^n elements (0, b)
    tables = _reserve_table(f"unipotent({n})", 2 ** (2 * n - 1) + 2 ** (n - 1))
    # the index is the bit string a|b, first n coordinates a (high bits) and
    # last n coordinates b; iota(a, b) = (a, a + b) xors a into the low bits
    g = np.arange(A.size)
    return _orbit_space(A, g ^ (g >> n), *tables)


def special_series(n: int) -> TwoValuedGroup:
    """Y of rank n >= 1: a Boolean group V = C_2^n together with one extra
    element s.  Multiplication:

        x*y = [x+y, x+y]   for distinct nonzero x, y in V
        x*x = [e, s]       for nonzero x in V
        s*x = [x, x]       for nonzero x in V
        s*s = [e, e]
        e*anything is doubled as always.

    Elements are ordered e, then nonzero V in lex order, then s; nonzero V
    elements are named by their coordinate strings.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    nv = 2 ** n
    s = nv  # index of the extra element
    size = nv + 1
    lo, hi = _reserve_table(f"special_series({n})", size)
    # V x V: x*y = [x+y, x+y], the xor of the masks (e doubles, x*x = [e, .]),
    # in the table's dtype and straight into it
    v = np.arange(nv, dtype=lo.dtype)
    np.bitwise_xor.outer(v, v, out=lo[:nv, :nv])
    # row and column of s: s*e = [s, s], s*x = [x, x], s*s = [e, e]
    edge = np.arange(size)
    edge[0], edge[s] = s, 0
    lo[s, :] = lo[:, s] = edge
    hi[...] = lo
    x = np.arange(1, nv)
    hi[x, x] = s  # x*x = [e, s]
    names = ["e", *(format(v, f"0{n}b") for v in range(1, nv)), "s"]
    return TwoValuedGroup._adopt(names, lo, hi)


def product_with_boolean(X: TwoValuedGroup, m: int) -> TwoValuedGroup:
    """X x C_2^m with coordinatewise multiplication
    (x1,w1)*(x2,w2) = [(z1, w1+w2), (z2, w1+w2)] where x1*x2 = [z1, z2].

    Indexing is row-major with the X index varying fastest, so (x, w) sits at
    index w * |X| + x and m = 0 returns X itself.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return X
    n = len(X)
    nw = 1 << m
    # the tables first: a size that does not fit fails here, before the
    # 2^m x 2^m shift table and the names
    lo, hi = _reserve_table(f"a {n}-element group x C2^{m}", n * nw)
    dt = lo.dtype
    shift = np.bitwise_xor.outer(np.arange(nw), np.arange(nw)).astype(dt) * dt.type(n)
    shift = shift[:, None, :, None]  # (w1, ., w2, .) -> (w1 ^ w2) * n
    for table, part in ((lo, X.lo), (hi, X.hi)):
        np.add(shift, part.astype(dt, copy=False)[:, None, :], out=table.reshape(nw, n, nw, n))
    bits = [format(w, f"0{m}b") for w in range(nw)]  # the coordinates of each w
    names = [f"{x}|{b}" for b in bits for x in X.names]
    return TwoValuedGroup._adopt(names, lo, hi)


def double(A: FinAbelianGroup) -> TwoValuedGroup:
    """The doubled single-valued group: identity automorphism, so every
    product is a doubled pair [g+h, g+h].  Involutive only when A is
    Boolean."""
    return _orbit_space(A, np.arange(A.size), *_reserve_table(f"double({A})", A.size))
