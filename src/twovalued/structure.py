"""Structural analysis of involutive commutative two-valued groups.

Tools here assume their input passed verify_axioms with the commutative and
involutive flags set; they raise on inputs that visibly break that contract
but do not re-run the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AmbiguousPower, TwoValuedGroup, order, power

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
    p = X.table[v][x]
    return p.lo if p.lo == p.hi else UNDEFINED


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
    members = [X.identity]
    for x in range(len(X)):
        if x != X.identity and order(X, x) == 2:
            members.append(x)
    members.sort()
    k = len(members)
    if k & (k - 1):
        raise ClosureViolation(f"|V| = {k} is not a power of two")
    pos = {el: i for i, el in enumerate(members)}
    table = []
    for a in members:
        row = []
        for b in members:
            z = v_dot(X, a, b)
            if z is UNDEFINED or z not in pos:
                raise ClosureViolation(f"dot product {a}.{b} leaves V")
            row.append(pos[z])
        table.append(tuple(row))
    return BooleanSubgroup(members=tuple(members), dim=k.bit_length() - 1, table=tuple(table))


def is_special(X: TwoValuedGroup) -> tuple[bool, list[tuple[int, int]]]:
    """A special pair is x, y of order > 2 whose product is a doubled pair.
    Returns the verdict and every witness pair (x <= y, sorted)."""
    n = len(X)
    big = [x for x in range(n) if order(X, x) > 2]
    t = X.table
    witnesses = []
    for i, x in enumerate(big):
        for y in big[i:]:
            if t[x][y].is_doubled:
                witnesses.append((x, y))
    return (bool(witnesses), witnesses)


def squares_subgroup(X: TwoValuedGroup) -> frozenset[int]:
    """Q = {x^2 : x in X}.  Verified closed; ClosureViolation otherwise."""
    Q = frozenset(power(X, x, 2) for x in range(len(X)))
    for a in Q:
        for b in Q:
            p = X.table[a][b]
            if p.lo not in Q or p.hi not in Q:
                raise ClosureViolation(
                    f"squares not closed: {a}*{b} = {p} leaves the set"
                )
    return Q


def subgroup_closure(X: TwoValuedGroup, seed) -> frozenset[int]:
    """Smallest subset containing the seed and the identity that is closed
    under taking both elements of every pairwise product."""
    closed = {X.identity} | set(seed)
    frontier = list(closed)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            for p in (X.table[a][b], X.table[b][a]):
                for z in (p.lo, p.hi):
                    if z not in closed:
                        closed.add(z)
                        frontier.append(z)
    return frozenset(closed)


def _check_subgroup(X: TwoValuedGroup, members: frozenset[int]):
    if X.identity not in members:
        raise NotSubgroup("subgroup must contain the identity")
    for a in members:
        for b in members:
            p = X.table[a][b]
            if p.lo not in members or p.hi not in members:
                raise NotSubgroup(f"{a}*{b} = {p} leaves the subset")


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
    n = len(X)
    m = sorted(members)
    # the products x*y, y in Y, as one list of neighbours per x
    near = np.concatenate([X.lo[:, m], X.hi[:, m]], axis=1).tolist()
    cls = [-1] * n
    reps: list[int] = []
    for x in range(n):
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
    names = tuple(X.names[r] for r in reps)
    proj = np.array(cls)
    block = np.ix_(reps, reps)
    z1, z2 = proj[X.lo[block]], proj[X.hi[block]]
    return TwoValuedGroup.from_arrays(names, np.minimum(z1, z2), np.maximum(z1, z2)), cls


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


def is_homomorphism(X: TwoValuedGroup, Z: TwoValuedGroup, f) -> HomomorphismReport:
    """Check that f (a list of Z-indices, one per X-element) satisfies
    f(x*y) = f(x)*f(y) as multisets, and if so verify the homomorphism
    theorem: the kernel and image are subgroups and X/ker is isomorphic to
    the image via the map induced by f."""
    n = len(X)
    fv = list(f)
    if len(fv) != n or any(not (0 <= v < len(Z)) for v in fv):
        raise ValueError("f must map every X element to a Z element")
    mismatches = []
    for x in range(n):
        for y in range(n):
            p = X.table[x][y]
            img = tuple(sorted((fv[p.lo], fv[p.hi])))
            if img != Z.table[fv[x]][fv[y]].as_multiset():
                mismatches.append((x, y))
    if mismatches:
        return HomomorphismReport(False, mismatches)
    if fv[X.identity] != Z.identity:
        return HomomorphismReport(False, [(X.identity, X.identity)])

    report = HomomorphismReport(True, [])
    kernel = frozenset(x for x in range(n) if fv[x] == Z.identity)
    image = frozenset(fv)
    report.kernel = kernel
    report.image = image
    try:
        _check_subgroup(X, kernel)
        report.kernel_is_subgroup = True
    except NotSubgroup:
        report.kernel_is_subgroup = False
    try:
        _check_subgroup(Z, image)
        report.image_is_subgroup = True
    except NotSubgroup:
        report.image_is_subgroup = False
    if report.kernel_is_subgroup:
        Q, proj = quotient(X, kernel)
        # classes must map bijectively onto the image, transporting the table
        cls_img = {}
        ok = True
        for x in range(n):
            c = proj[x]
            if c in cls_img and cls_img[c] != fv[x]:
                ok = False
                break
            cls_img[c] = fv[x]
        if ok:
            ok = len(set(cls_img.values())) == len(Q) == len(image)
        if ok:
            for i in range(len(Q)):
                for j in range(len(Q)):
                    p = Q.table[i][j]
                    lhs = tuple(sorted((cls_img[p.lo], cls_img[p.hi])))
                    if lhs != Z.table[cls_img[i]][cls_img[j]].as_multiset():
                        ok = False
                        break
                if not ok:
                    break
        report.quotient_matches_image = ok
    return report


def _f2_pivots(rows, mask: int = -1) -> dict[int, int] | None:
    """Leading-bit Gaussian elimination over F2 on the bits in mask (all
    bits by default).  Returns the pivot rows keyed by leading bit, or None
    when a row reduces to zero on mask but not outside it."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row & mask:
            lead = (row & mask).bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
        else:
            if row:
                return None
    return pivots


def _solve_f2(rows, nvars: int):
    """Solve a linear system over F2.  Each row is an int whose low nvars
    bits are coefficients and whose bit nvars is the right-hand side.
    Returns a solution bitmask with free variables set to 0, or None if
    inconsistent."""
    mask = (1 << nvars) - 1
    rhs_bit = 1 << nvars
    pivots = _f2_pivots(rows, mask)
    if pivots is None:
        return None  # coefficients eliminated but rhs = 1
    # each pivot row's leading coefficient bit is its highest, so its
    # equation expresses the pivot variable through strictly lower columns:
    # solve low to high
    sol = 0
    for col in sorted(pivots):
        row = pivots[col]
        acc = 1 if (row & rhs_bit) else 0
        acc ^= ((row & mask & ~(1 << col)) & sol).bit_count() & 1
        if acc:
            sol |= 1 << col
    return sol


def _sign_rows(X: TwoValuedGroup) -> list[int]:
    """The equations f(x) f(y) f(z) = 1, z in x*y, x <= y, of a sign
    homomorphism f as distinct F2 rows (bit x ^ bit y ^ bit z), sorted.

    Each triple is reduced to the elements of odd multiplicity before any
    Python int is made: (u, u, u) stands for a single bit u."""
    n = len(X)
    dt = np.int32 if n ** 3 < 1 << 31 else np.int64
    x, y = (v.astype(dt) for v in np.triu_indices(n))
    keys = []
    for z in (X.lo[x, y].astype(dt), X.hi[x, y].astype(dt)):
        # an element that appears twice cancels
        cancels = (x == y) | (z == x) | (z == y)
        single = np.where(x == y, z, np.where(z == x, y, x))
        a, c = np.minimum(x, z), np.maximum(y, z)
        b = x + y + z - a - c
        keys.append(np.where(cancels, single * (n * n + n + 1), (a * n + b) * n + c))
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    a, b, c = keys // (n * n), keys // n % n, keys % n
    return sorted(
        (1 << i) ^ (1 << j) ^ (1 << k)
        for i, j, k in zip(a.tolist(), b.tolist(), c.tolist())
    )


def split_direct_factor(X: TwoValuedGroup) -> tuple[TwoValuedGroup, int, list[str]]:
    """Strip off single-valued C2 direct factors one at a time.

    A C2 factor exists iff some order-2 element w is not a square; the
    obstruction is phrased as an F2-linear system for a sign homomorphism f
    with f(w) = -1 (equations f(x)f(y)f(z) = 1 for every z in x*y).  We
    solve the system to certify the split, then pass to the quotient by
    {e, w}.  Returns (X', m, witness names), where X' has no single-valued
    direct factor and X is isomorphic to X' x C2^m.
    """
    cur = X
    m = 0
    witnesses: list[str] = []
    while True:
        n = len(cur)
        sq = {power(cur, x, 2) for x in range(n)}
        w = None
        for x in range(n):
            if x != cur.identity and order(cur, x) == 2 and x not in sq:
                w = x
                break
        if w is None:
            return cur, m, witnesses
        rows = _sign_rows(cur)
        rows.append((1 << w) | (1 << n))  # f(w) = -1
        sol = _solve_f2(rows, n)
        if sol is None:
            raise InconsistentSystem(
                f"no sign homomorphism separates element {cur.names[w]}"
            )
        witnesses.append(cur.names[w])
        cur, _ = quotient(cur, frozenset({cur.identity, w}))
        m += 1


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
    if u == Xhat.identity or order(Xhat, u) != 2:
        raise NotOrderTwo(f"element {u} does not have order 2")
    Q, proj = quotient(Xhat, frozenset({Xhat.identity, u}))
    nhat = len(Xhat)
    pre: dict[int, list[int]] = {}
    for x in range(nhat):
        pre.setdefault(proj[x], []).append(x)
    R = set()
    for c in range(len(Q)):
        if order(Q, c) == 2 and len(pre[c]) == 1 and order(Xhat, pre[c][0]) == 4:
            R.add(c)
    V = {c for c in range(len(Q)) if order(Q, c) <= 2}
    keep = V - R
    for a in keep:
        for b in keep:
            z = v_dot(Q, a, b)
            if z is UNDEFINED or z not in keep:
                raise ValueError(
                    "complement of the branching set is not closed; "
                    "input is not a valid involutive commutative group"
                )
    return BranchingData(quotient=Q, projection=tuple(proj), R=frozenset(R))
