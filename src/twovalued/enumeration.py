"""Exhaustive enumeration of small two-valued groups.

enumerate_all fills the multiplication table cell by cell, depth first, and
returns one group per isomorphism class.  Both modes run one search: it
keeps the table in flat int lists, prunes with a partial associativity
check and takes a cell's value from the equations that force it:

* forcing: when the cell being filled is the only unknown term of an
  associativity equation (x*y)*z = x*(y*z), the equation fixes its value.
  Forcing drops only values that the check would reject at the same cell.

A mode supplies the cells to fill: the involutive commutative mode the
upper triangle, each cell with its mirror, where an equation and its mirror
count once; the general mode every off-identity cell.  The involutive
commutative mode also prunes with two consequences of the axioms, so no
class is lost:

* exchange: z in x*y implies x in y*z (e is in z*z, which lies in
  (x*y)*z = x*(y*z); so e is in x*w for some w in y*z, and the inverse of x
  is unique, so w = x).  Together with commutativity, "z in x*y" is a
  symmetric relation on {x, y, z}.
* type order: write x*x = [e, w]; the type of x is 0 for w = e, 1 for
  w = x and 2 otherwise.  Types are invariant under relabelling, so it is
  enough to search tables whose non-identity elements come in non-decreasing
  type.

Completed tables pass verify_axioms.  The involutive commutative mode
keeps one per classify label.  The general mode (any two-valued group)
keeps a table only when witness_isomorphism finds no isomorphism to a
table already kept, so it lists its classes in the order it finds them.
"""

from __future__ import annotations

import numpy as np

from .classify import classify, witness_isomorphism
from .core import TwoValuedGroup, verify_axioms

__all__ = ["BudgetExceeded", "enumerate_all"]

DEFAULT_BUDGET = 50_000_000
MAX_SIZE_INVOLUTIVE = 7
MAX_SIZE_GENERAL = 4


class BudgetExceeded(Exception):
    pass


def enumerate_all(
    k: int,
    involutive_commutative: bool = True,
    budget: int | None = None,
) -> list[TwoValuedGroup]:
    """All two-valued groups of size k up to isomorphism.

    A node is one value tried in one cell.  The default node budget is 50M;
    the budget argument overrides it, and BudgetExceeded is raised when the
    nodes run out.
    Sizes go up to 7 in involutive commutative mode and up to 4 in general
    mode.

    >>> sorted(str(classify(X)) for X in enumerate_all(4))
    ['Principal(2,2)', 'Principal(6)', 'Principal(7)']
    """
    if k < 1:
        raise ValueError("size must be >= 1")
    maxk = MAX_SIZE_INVOLUTIVE if involutive_commutative else MAX_SIZE_GENERAL
    if k > maxk:
        raise ValueError(f"enumeration supported up to size {maxk} in this mode")
    if budget is None:
        budget = DEFAULT_BUDGET
    elif budget < 0:
        raise ValueError(f"node budget must be >= 0, not {budget}")
    return _search(k, budget, involutive_commutative)


def _blank_table(n: int) -> tuple[list[int], list[int], list[int]]:
    """An n x n table with row and column e filled, as flat lists lo, hi
    and code indexed by x*n + y: lo and hi hold the pair x*y (-1 while
    unknown) and code holds its multiset code (0 while unknown).  A pair
    [a, b] has code 256^a + 256^b, so a multiset of pairs is the sum of
    their codes and multiset equality is integer equality."""
    lo, hi, code = [-1] * (n * n), [-1] * (n * n), [0] * (n * n)
    for x in range(n):
        for c in (x, x * n):
            lo[c] = hi[c] = x
            code[c] = 2 << (8 * x)
    return lo, hi, code


def _group(n: int, lo: list[int], hi: list[int]) -> TwoValuedGroup:
    """The completed table as a group on e, x1, x2, ..."""
    names = ["e"] + [f"x{i}" for i in range(1, n)]
    return TwoValuedGroup.from_arrays(names, np.reshape(lo, (n, n)), np.reshape(hi, (n, n)))


def _checker(n: int, lo: list[int], hi: list[int], code: list[int]):
    """consistent(eqs) for the table of _blank_table(n).  Each equation
    (x*y)*z = x*(y*z) in eqs is given as (x*n + y, y*n + z, x*n, z), with
    x*y and y*z known; consistent is true when every one holds, or is still
    satisfiable where one side is known and the other half known."""
    # guard bits for the per-byte >= test: counts stay below 0x80, so after
    # (big | G) - small each byte keeps its guard bit iff big_byte >= small_byte
    G = sum(0x80 << (8 * b) for b in range(n))

    def consistent(eqs) -> bool:
        for xy, yz, xr, z in eqs:
            l1, l2 = code[lo[xy] * n + z], code[hi[xy] * n + z]
            r1, r2 = code[xr + lo[yz]], code[xr + hi[yz]]
            if l1 and l2:
                if r1 and r2:
                    if l1 + l2 != r1 + r2:
                        return False
                elif r1 or r2:
                    if (((l1 + l2) | G) - (r1 or r2)) & G != G:
                        return False
            elif r1 and r2 and (l1 or l2):
                if (((r1 + r2) | G) - (l1 or l2)) & G != G:
                    return False
        return True

    return consistent


def _search(n: int, budget: int, involutive: bool) -> list[TwoValuedGroup]:
    """The search of both modes, within budget nodes.

    The table is that of _blank_table.  The involutive commutative mode
    fills the cells (i, j) with 1 <= i <= j, each with its mirror (j, i);
    the general mode fills every off-identity cell.  Both go in row-major
    order.
    """
    lo, hi, code = _blank_table(n)
    consistent = _checker(n, lo, hi, code)
    cells = [(i, j) for i in range(1, n) for j in range(i if involutive else 1, n)]
    # flat[ci] holds the flat indices that cell ci sets: the cell and its
    # mirror, or the cell twice; pos[x*n + y] is the fill position of cell
    # (x, y), -1 on row and column e, which are known from the start
    flat = [(i * n + j, j * n + i if involutive else i * n + j) for i, j in cells]
    pos = [-1] * (n * n)
    for ci, (ij, ji) in enumerate(flat):
        pos[ij] = pos[ji] = ci
    pair_of_code = {(1 << (8 * a)) + (1 << (8 * b)): (a, b) for a in range(n) for b in range(a, n)}
    diag_domain = [(0, w) for w in range(n)]
    offd_domain = [(a, b) for a in range(1, n) for b in range(a, n)]
    every_pair = list(pair_of_code.values())

    # Equations to check at cell (i, j): the identity-free triples (x, y, z)
    # with i or j in {x, z} -- each cell of an equation contains x or z --
    # whose cells x*y and y*z are known by then.  For a symmetric table
    # (x, y, z) and (z, y, x) give the same equation, so there x <= z.
    # The ones known before cell (i, j) is filled can force its value.
    checks: list[list[tuple[int, int, int, int]]] = [[] for _ in cells]
    settled: list[list[tuple[int, int, int, int]]] = [[] for _ in cells]
    for x in range(1, n):
        for y in range(1, n):
            for z in range(x if involutive else 1, n):
                ready = max(pos[x * n + y], pos[y * n + z])
                for ci in range(ready, len(cells)):
                    if {x, z} & set(cells[ci]):
                        checks[ci].append((x * n + y, y * n + z, x * n, z))
                        if ci > ready:
                            settled[ci].append(checks[ci][-1])

    def type_of(x: int, w: int) -> int:
        """The type of x when x*x = [e, w]."""
        return 0 if w == 0 else 1 if w == x else 2

    def candidates(ci: int) -> list[tuple[int, int]]:
        """The values cell ci may take, given the known cells."""
        i, j = cells[ci]
        # forcing: an equation whose only unknown cell is (i, j), appearing
        # s times on the left and t times on the right, reads
        # (s - t) * v = known right - known left
        forced = None
        for xy, yz, xr, z in settled[ci]:
            a, b, c, d = lo[xy] * n + z, hi[xy] * n + z, xr + lo[yz], xr + hi[yz]
            ca, cb, cc, cd = code[a], code[b], code[c], code[d]
            if ca and cb and cc and cd:
                continue  # checked when its last cell was placed
            if (ca or pos[a] == ci) and (cb or pos[b] == ci) and (cc or pos[c] == ci) and (
                cd or pos[d] == ci
            ):
                mult = (not ca) + (not cb) - (not cc) - (not cd)
                diff = cc + cd - ca - cb
                if mult == 0:
                    if diff:
                        return []
                    continue
                v, rem = divmod(diff, mult)
                if rem or v not in pair_of_code or forced not in (None, v):
                    return []
                forced = v
        if not involutive:
            return every_pair if forced is None else [pair_of_code[forced]]
        # exchange: x must lie in i*j whenever j is in x*i or i is in x*j,
        # and c may lie in i*j only if i is in j*c and j in i*c
        need = set()
        ok = [True] * n
        for x in range(n):
            xi, xj = x * n + i, x * n + j
            if (lo[xi] == j or hi[xi] == j) or (lo[xj] == i or hi[xj] == i):
                need.add(x)
            ok[x] = (lo[xj] < 0 or lo[xj] == i or hi[xj] == i) and (
                lo[xi] < 0 or lo[xi] == j or hi[xi] == j
            )
        if len(need) > 2:
            return []
        if i == j:
            # type order: x_i may not have a smaller type than x_(i-1)
            least = type_of(i - 1, hi[(i - 1) * (n + 1)]) if i > 1 else 0
            domain = [(e, w) for e, w in diag_domain if type_of(i, w) >= least]
        else:
            domain = offd_domain
        if forced is not None:
            domain = [pair_of_code[forced]] if pair_of_code[forced] in domain else []
        return [(a, b) for a, b in domain if ok[a] and ok[b] and need <= {a, b}]

    # the involutive mode keys its groups by classify label and lists them
    # in label order; the general mode keys them by the order found
    found: dict = {}
    nodes = 0

    def place(ci: int):
        nonlocal nodes
        if ci == len(cells):
            X = _group(n, lo, hi)
            rep = verify_axioms(X)
            if not rep.is_two_valued_group:
                return
            if involutive:
                if rep.is_commutative and rep.is_involutive:
                    found.setdefault(str(classify(X)), X)
            elif all(witness_isomorphism(X, R) is None for R in found.values()):
                found[len(found)] = X
            return
        ij, ji = flat[ci]
        for a, b in candidates(ci):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"node budget {budget} exhausted")
            lo[ij] = lo[ji] = a
            hi[ij] = hi[ji] = b
            code[ij] = code[ji] = (1 << (8 * a)) + (1 << (8 * b))
            if consistent(checks[ci]):
                place(ci + 1)
        lo[ij] = lo[ji] = hi[ij] = hi[ji] = -1
        code[ij] = code[ji] = 0

    place(0)
    return [found[key] for key in sorted(found)]
