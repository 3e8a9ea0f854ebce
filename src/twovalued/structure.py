"""Structural analysis of involutive commutative two-valued groups.

Tools here assume their input passed verify_axioms with the commutative and
involutive flags set; they raise on inputs that visibly break that contract
but do not re-run the full sweep.  Orders are read off x^2, the diagonal
x * x = [e, x^2] (core._squares), which raises AmbiguousPower only where e is
not in x * x: order <= 2 is x^2 = e, order 4 is x^2 != e = (x^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TwoValuedGroup, _element, _squares, index_dtype, product

__all__ = [
    "UNDEFINED",
    "BooleanSubgroup",
    "HomomorphismReport",
    "BranchingData",
    "ClosureViolation",
    "NotSubgroup",
    "NotOrderTwo",
    "InconsistentSystem",
    "boolean_subgroup",
    "v_dot",
    "is_special",
    "squares_subgroup",
    "subgroup_closure",
    "quotient",
    "is_homomorphism",
    "split_direct_factor",
    "branching_set",
]


class ClosureViolation(Exception):
    pass


class NotSubgroup(Exception):
    pass


class NotOrderTwo(Exception):
    pass


class InconsistentSystem(Exception):
    pass


class _Undefined:
    """Sentinel for a partial operation's missing value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


def v_dot(X: TwoValuedGroup, v: int, x: int):
    """The single-valued partial product: v . x = z when v*x = [z, z],
    UNDEFINED otherwise.  Total in v whenever v has order <= 2."""
    v, x = _element(X, v), _element(X, x)
    z = int(X.lo[v, x])
    return z if z == X.hi[v, x] else UNDEFINED


def _escape(X: TwoValuedGroup, members, doubled: bool = False) -> tuple[int, int] | None:
    """The first (a, b) of members x members, in row-major order, whose
    product leaves members or, with doubled, is not a doubled pair; None if
    there is none, at once when members are all of X and doubled is unset."""
    if len(members) == len(X) and not doubled:
        return None
    m = np.array(sorted(members), dtype=np.intp)
    inside = np.zeros(len(X), dtype=bool)
    inside[m] = True
    lo, hi = X.lo[m[:, None], m], X.hi[m[:, None], m]
    bad = ~(inside[lo] & inside[hi])
    if doubled:
        bad |= lo != hi
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(m[i]), int(m[j])


@dataclass(frozen=True)
class BooleanSubgroup:
    """V = {e} union {order-2 elements} with its (single-valued) group
    structure.  members are element ids of the ambient group in ascending
    order, members[0] the identity; table is the product in member
    positions."""

    members: tuple[int, ...]
    dim: int
    table: tuple[tuple[int, ...], ...]

    def position(self, el: int) -> int:
        return self.members.index(el)

    def dot(self, a: int, b: int) -> int:
        """Product of two members, as ambient element ids."""
        return self.members[self.table[self.position(a)][self.position(b)]]


def boolean_subgroup(X: TwoValuedGroup) -> BooleanSubgroup:
    """Collect the identity and all order-2 elements; they form an elementary
    abelian 2-group under the dot product.  Raises ClosureViolation if the
    dot lands outside the set (impossible for a valid involutive commutative
    group)."""
    members = np.flatnonzero(_squares(X) == 0)
    k = len(members)
    if k & (k - 1):
        raise ClosureViolation(f"|V| = {k} is not a power of two")
    if leak := _escape(X, members, doubled=True):
        raise ClosureViolation(f"dot product {leak[0]}.{leak[1]} leaves V")
    table = np.searchsorted(members, X.lo[np.ix_(members, members)]).tolist()
    return BooleanSubgroup(tuple(members.tolist()), k.bit_length() - 1, tuple(map(tuple, table)))


def is_special(X: TwoValuedGroup) -> tuple[bool, list[tuple[int, int]]]:
    """A special pair is x, y of order > 2 whose product is a doubled pair.
    Returns the verdict and every witness pair (x <= y, sorted).

    >>> from twovalued.constructions import special_series
    >>> is_special(special_series(2))  # 01*10 = [11, 11], and so on
    (True, [(1, 2), (1, 3), (2, 3)])
    """
    big = _squares(X) != 0
    witnesses = [(a + i, y) for a, mask in _special_rows(X, big)
                 for i, y in np.argwhere(np.triu(mask, a)).tolist()]
    return (bool(witnesses), witnesses)


def _special_rows(X: TwoValuedGroup, big: np.ndarray):
    """(a, mask) for blocks of about 2^17 cells in row order: mask[i, y] says
    that a + i, y is a special pair of X, for big[x] that says x has order > 2."""
    step = max(1, (1 << 17) // len(X))
    for a in range(0, len(X), step):
        yield a, (X.lo[a:a + step] == X.hi[a:a + step]) & big[a:a + step, None] & big


def squares_subgroup(X: TwoValuedGroup) -> frozenset[int]:
    """Q = {x^2 : x in X}.  Verified closed; ClosureViolation otherwise."""
    Q = frozenset(_squares(X).tolist())
    if leak := _escape(X, Q):
        raise ClosureViolation(
            f"squares not closed: {leak[0]}*{leak[1]} = {product(X, *leak)} leaves the set"
        )
    return Q


def subgroup_closure(X: TwoValuedGroup, seed) -> frozenset[int]:
    """Smallest subset containing the seed and the identity that is closed
    under taking both elements of every pairwise product."""
    closed = np.zeros(len(X), dtype=bool)
    closed[[X.identity, *(_element(X, x) for x in seed)]] = True
    while True:
        m = np.flatnonzero(closed)
        closed[X.lo[m[:, None], m]] = True
        closed[X.hi[m[:, None], m]] = True
        if np.count_nonzero(closed) == len(m):
            return frozenset(m.tolist())


def _is_subgroup(X: TwoValuedGroup, members: frozenset[int]) -> bool:
    return X.identity in members and not _escape(X, members)


def _check_subgroup(X: TwoValuedGroup, members: frozenset[int]):
    for a in members:
        _element(X, a)
    if X.identity not in members:
        raise NotSubgroup("subgroup must contain the identity")
    if leak := _escape(X, members):
        raise NotSubgroup(f"{leak[0]}*{leak[1]} = {product(X, *leak)} leaves the subset")


def quotient(
    X: TwoValuedGroup, Y
) -> tuple[TwoValuedGroup, list[int]]:
    """Quotient by a subgroup Y: classes of the relation "x' appears in x*y
    for some y in Y" (an equivalence for valid input).  Returns the quotient
    group and the projection list.

    Classes are labeled by their smallest member, in ascending order of that
    member, so the identity class is index 0.  A class is named after its
    smallest member.
    """
    members = frozenset(Y)
    _check_subgroup(X, members)
    reps, cls = _classes(X, members)
    names = tuple(X.names[r] for r in reps)
    proj = np.array(cls, index_dtype(len(reps)))
    block = np.ix_(reps, reps)
    lo, hi = proj[X.lo[block]], proj[X.hi[block]]
    hi, lo = np.maximum(lo, hi), np.minimum(lo, hi, out=lo)  # max first: min overwrites lo
    return TwoValuedGroup._adopt(names, lo, hi), cls


def _classes(X: TwoValuedGroup, members) -> tuple[list[int], list[int]]:
    """(reps, cls) for the classes of quotient(X, members): reps[k] is the
    smallest member of class k, ascending, and cls[x] the class of x."""
    m = sorted(members)
    # the products x*y, y in members, as one list of neighbours per x
    near = np.concatenate([X.lo[:, m], X.hi[:, m]], axis=1).tolist()
    cls = [-1] * len(X)
    reps: list[int] = []
    for x in range(len(X)):
        if cls[x] != -1:
            continue
        k = len(reps)
        reps.append(x)
        cls[x] = k
        stack = [x]
        while stack:
            for b in near[stack.pop()]:
                if cls[b] == -1:
                    cls[b] = k
                    stack.append(b)
    return reps, cls


@dataclass
class HomomorphismReport:
    is_homomorphism: bool
    mismatches: list[tuple[int, int]]
    kernel: frozenset | None = None
    image: frozenset | None = None
    kernel_is_subgroup: bool | None = None
    image_is_subgroup: bool | None = None
    quotient_matches_image: bool | None = None

    def __bool__(self):
        return self.is_homomorphism


def _mismatches(X: TwoValuedGroup, Z: TwoValuedGroup, f: np.ndarray) -> np.ndarray:
    """The cells (x, y) where the multiset f(x*y) differs from f(x)*f(y),
    for an index array f from X to Z, as an n x n mask."""
    a, b = f[X.lo], f[X.hi]
    image = np.ix_(f, f)
    return (np.minimum(a, b) != Z.lo[image]) | (np.maximum(a, b) != Z.hi[image])


def is_homomorphism(X: TwoValuedGroup, Z: TwoValuedGroup, f) -> HomomorphismReport:
    """Check that f (a list of Z-indices, one per X-element) satisfies
    f(x*y) = f(x)*f(y) as multisets, and if so verify the homomorphism
    theorem: the kernel and image are subgroups and X/ker is isomorphic to
    the image via the map induced by f.  Read off the kernel's classes, that
    map is defined when f is constant on each, bijective when there are
    |image|, and sends cell (i, j) of X/ker to f(r_i * r_j) = f(r_i) * f(r_j)
    for the least members r_i, r_j: no quotient needs building or comparing."""
    fa = np.array(list(f))
    valid = fa.shape == (len(X),) and fa.dtype.kind in "iu"
    if not (valid and ((fa >= 0) & (fa < len(Z))).all()):
        raise ValueError("f must map every X element to a Z element")
    fa = fa.astype(index_dtype(len(Z)))
    bad = _mismatches(X, Z, fa)
    if bad.any():
        return HomomorphismReport(False, list(map(tuple, np.argwhere(bad).tolist())))
    if fa[X.identity] != Z.identity:
        return HomomorphismReport(False, [(X.identity, X.identity)])

    kernel = frozenset(np.flatnonzero(fa == Z.identity).tolist())
    image = frozenset(fa.tolist())
    report = HomomorphismReport(
        True, [], kernel, image, _is_subgroup(X, kernel), _is_subgroup(Z, image)
    )
    if report.kernel_is_subgroup:
        reps, cls = _classes(X, kernel)
        report.quotient_matches_image = bool(
            np.array_equal(fa[reps][cls], fa) and len(reps) == len(image)
        )
    return report


def _f2_pivots(rows, pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Leading-bit elimination over F2 on int bitmask rows: each row is
    reduced by the pivots and, unless it reduces to 0, becomes the pivot of
    its leading bit.  Returns the pivots, extended in place when given; their
    number is the rank."""
    pivots = {} if pivots is None else pivots
    for row in rows:
        while row and (lead := row.bit_length()) in pivots:
            row ^= pivots[lead]
        if row:
            pivots[lead] = row
    return pivots


def _sign_forms(lo: np.ndarray, hi: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Generators G and a uint64 form per element, bit i standing for G[i]:
    every f: X -> F2 with f(e) = 0 and f(z) = f(x) + f(y), z in x*y, x <= y,
    sends x to the sum of f over the bits of forms[x].  Closing from e, an
    unreached element of a*b, a <= b reached, gets forms[a] ^ forms[b]; when
    nothing new is reached, the first unreached element joins G.  ValueError
    past 64 generators."""
    # not core._generating_set: Light's test needs the algebra rule, under
    # which [u, v] reaches u only when u = v or v is reached (14 generators
    # against 10 for unipotent(3) x C2^4), and verify has no generator cap
    n = len(lo)
    forms = np.zeros(n, np.uint64)
    reached = np.arange(n) == 0
    gens: list[int] = []
    fresh = np.zeros(1, np.intp)
    while not reached.all():
        was = reached.copy()
        at = was.nonzero()[0]
        a, b = np.minimum.outer(at, fresh).ravel(), np.maximum.outer(at, fresh).ravel()
        ab = forms[a] ^ forms[b]
        z = np.concatenate((lo[a, b], hi[a, b]))
        new = ~reached[z]
        forms[z[new]] = np.concatenate((ab, ab))[new]
        reached[z[new]] = True
        fresh = (reached > was).nonzero()[0]
        if not len(fresh):
            if len(gens) == 64:
                raise ValueError("a sign form holds at most 64 generators; this table needs more")
            fresh = reached.argmin(keepdims=True)
            forms[fresh] = 1 << len(gens)
            reached[fresh] = True
            gens.append(int(fresh[0]))
    return gens, forms


def split_direct_factor(X: TwoValuedGroup) -> tuple[TwoValuedGroup, int, list[str]]:
    """Strip off single-valued C2 direct factors one at a time.

    A C2 factor exists iff some order-2 element w is not a square; the
    split is certified by a sign homomorphism f with f(w) = 1 and
    f(z) = f(x) + f(y) over F2 for every z in x*y.  f is fixed by its
    values on the generators of _sign_forms, so the equations are the
    distinct rows forms[x] ^ forms[y] ^ forms[z], in at most 64 variables;
    InconsistentSystem when they admit no such f.  Then we pass to the
    quotient by {e, w}.  Returns (X', m, witness names), where X' has
    no single-valued direct factor and X is isomorphic to X' x C2^m.

    >>> from twovalued.constructions import principal, product_with_boolean
    >>> Xp, m, witnesses = split_direct_factor(product_with_boolean(principal(5), 2))
    >>> Xp.names, m, witnesses
    (('0|00', '1|00', '2|00'), 2, ['0|01', '0|10'])
    """
    cur = X
    witnesses: list[str] = []
    while True:
        # the order-2 elements that are not squares; e = e^2 drops out
        lone = (square := _squares(cur)) == 0
        lone[square] = False
        if not lone.any():
            return cur, len(witnesses), witnesses
        w = int(np.argmax(lone))
        _, forms = _sign_forms(cur.lo, cur.hi)
        x, y = np.triu_indices(len(cur))
        rows = np.concatenate([forms[x] ^ forms[y] ^ forms[z[x, y]] for z in (cur.lo, cur.hi)])
        pivots = _f2_pivots(set(rows[rows != 0].tolist()))
        rank = len(pivots)
        # f(w) = 1 is possible when forms[w] is not a sum of the rows
        if len(_f2_pivots([int(forms[w])], pivots)) == rank:
            raise InconsistentSystem(f"no sign homomorphism separates element {cur.names[w]}")
        witnesses.append(cur.names[w])
        cur, _ = quotient(cur, frozenset({cur.identity, w}))


@dataclass(frozen=True)
class BranchingData:
    quotient: TwoValuedGroup
    projection: tuple[int, ...]
    R: frozenset[int]


def branching_set(Xhat: TwoValuedGroup, u: int) -> BranchingData:
    """For an order-2 element u, pass to X = Xhat/{e,u} and collect the
    branching set R: order-2 classes with a single preimage, that preimage
    having order 4 (equivalently, squaring to u).  The complement of R inside
    the Boolean part of the quotient is checked to be closed."""
    square = _squares(Xhat)
    if u == Xhat.identity or square[_element(Xhat, u)]:
        raise NotOrderTwo(f"element {u} does not have order 2")
    Q, proj = quotient(Xhat, frozenset({Xhat.identity, u}))
    cls = np.array(proj)
    q_square = _squares(Q)
    # x is the single preimage of its class (not e's), has order 4 and lands on order 2
    single = np.bincount(cls, minlength=len(Q))[cls] == 1
    branch = cls[single & (square != 0) & (square.take(square) == 0) & (q_square.take(cls) == 0)]
    keep = np.setdiff1d(np.flatnonzero(q_square == 0), branch)
    if _escape(Q, keep, doubled=True):
        raise ValueError(
            "complement of the branching set is not closed; "
            "input is not a valid involutive commutative group"
        )
    return BranchingData(quotient=Q, projection=tuple(proj), R=frozenset(branch.tolist()))
