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
from dataclasses import dataclass

from .core import Pair, TwoValuedGroup

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
        n = 1
        for d in self.factors:
            n *= d
        return n

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
        k, acc = 1, i
        while acc != 0:
            acc = self.add(acc, i)
            k += 1
        return k

    def name_of(self, idx: int) -> str:
        return ",".join(map(str, self.element(idx))) if self.factors else "0"


@dataclass(frozen=True)
class InvolutiveAutomorphism:
    """An automorphism i of a FinAbelianGroup with i(i(g)) = g, stored as an
    explicit permutation of element indices."""

    group: FinAbelianGroup
    perm: tuple[int, ...]

    def __post_init__(self):
        A = self.group
        n = A.size
        if len(self.perm) != n or sorted(self.perm) != list(range(n)):
            raise NotAutomorphism("not a permutation of the element indices")
        p = self.perm
        # p(a + g) = p(a) + p(g) on the unit vectors g gives additivity on
        # all pairs by induction on word length, and p(0) = 0 from a = 0
        k = len(A.factors)
        units = [A.index(tuple(int(c == u) for c in range(k))) for u in range(k)]
        for g in units:
            for i in range(n):
                if p[A.add(i, g)] != A.add(p[i], p[g]):
                    raise NotAutomorphism(
                        f"additivity fails at elements {i}, {g}"
                    )
        for i in range(n):
            if p[p[i]] != i:
                raise NotInvolutive(f"square of the map moves element {i}")

    def __call__(self, i: int) -> int:
        return self.perm[i]

    @classmethod
    def negation(cls, A: FinAbelianGroup) -> "InvolutiveAutomorphism":
        return cls(A, tuple(A.neg(i) for i in range(A.size)))

    @classmethod
    def from_map(cls, A: FinAbelianGroup, f) -> "InvolutiveAutomorphism":
        """Build from a callable on element tuples."""
        return cls(A, tuple(A.index(f(A.element(i))) for i in range(A.size)))


def coset_group(A: FinAbelianGroup, iota: InvolutiveAutomorphism) -> TwoValuedGroup:
    """The orbit space A/iota with [g]*[h] = [[g+h], [g+iota(h)]].

    Orbits are labeled by their lexicographically smallest representative
    tuple; since iota fixes 0, the zero orbit sorts first and the identity
    lands at index 0.
    """
    if iota.group != A:
        raise ValueError("automorphism belongs to a different group")
    n = A.size
    orbit_of = [-1] * n
    reps: list[int] = []
    # A.element is lex-increasing in the index, so scanning indices in order
    # makes each orbit's first-seen member its smallest representative.
    for i in range(n):
        if orbit_of[i] == -1:
            k = len(reps)
            orbit_of[i] = k
            orbit_of[iota(i)] = k
            reps.append(i)
    names = tuple(A.name_of(r) for r in reps)
    table = []
    for gi in reps:
        row = []
        for hi in reps:
            z1 = orbit_of[A.add(gi, hi)]
            z2 = orbit_of[A.add(gi, iota(hi))]
            row.append(Pair.of(z1, z2))
        table.append(tuple(row))
    return TwoValuedGroup(names=names, table=tuple(table))


def principal(*chain: int) -> TwoValuedGroup:
    """X^a over C_d1 x ... x C_dk: the quotient by negation.

    The chain must satisfy d1 | d2 | ... | dk (the invariant-factor normal
    form); an empty chain gives the one-element group.
    """
    for a, b in zip(chain, chain[1:]):
        if b % a != 0:
            raise ValueError(f"chain {chain} is not ordered by divisibility")
    A = FinAbelianGroup(tuple(chain))
    return coset_group(A, InvolutiveAutomorphism.negation(A))


def unipotent(n: int) -> TwoValuedGroup:
    """X^u of rank n >= 1: (V x V)/iota with V = C_2^n, iota(a,b) = (a, a+b).

    Every element of the underlying group is its own inverse, so the orbit
    space is involutive even though iota is not negation.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    A = FinAbelianGroup((2,) * (2 * n))
    # first n coordinates are a, last n are b; iota(a, b) = (a, a + b)
    def f(el: tuple[int, ...]) -> tuple[int, ...]:
        a, b = el[:n], el[n:]
        return a + tuple((x + y) % 2 for x, y in zip(a, b))

    return coset_group(A, InvolutiveAutomorphism.from_map(A, f))


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
    names = ["e"]
    names += ["".join(map(str, _bits(v, n))) for v in range(1, nv)]
    names.append("s")
    size = nv + 1

    def cell(i: int, j: int) -> Pair:
        if i == 0:
            return Pair.of(j, j)
        if j == 0:
            return Pair.of(i, i)
        if i == s and j == s:
            return Pair.of(0, 0)
        if i == s:
            return Pair.of(j, j)
        if j == s:
            return Pair.of(i, i)
        if i == j:
            return Pair.of(0, s)
        z = i ^ j  # xor of masks = sum in V
        return Pair.of(z, z)

    table = tuple(tuple(cell(i, j) for j in range(size)) for i in range(size))
    return TwoValuedGroup(names=tuple(names), table=table)


def _bits(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> (n - 1 - k)) & 1 for k in range(n))


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
    nw = 2 ** m
    names = tuple(
        f"{X.names[x]}|{''.join(map(str, _bits(w, m)))}"
        for w in range(nw)
        for x in range(n)
    )
    table = []
    for w1 in range(nw):
        for x1 in range(n):
            row = []
            for w2 in range(nw):
                w = w1 ^ w2
                for x2 in range(n):
                    p = X.table[x1][x2]
                    row.append(Pair.of(w * n + p.lo, w * n + p.hi))
            table.append(tuple(row))
    return TwoValuedGroup(names=names, table=tuple(table))


def double(A: FinAbelianGroup) -> TwoValuedGroup:
    """The doubled single-valued group: identity automorphism, so every
    product is a doubled pair [g+h, g+h].  Involutive only when A is
    Boolean."""
    ident = InvolutiveAutomorphism(A, tuple(range(A.size)))
    return coset_group(A, ident)
