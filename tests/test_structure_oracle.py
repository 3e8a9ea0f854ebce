"""The array structure, cocycle and certificate layers against Pair-cell
references.

The references are the routines as they were written before these layers
read the lo/hi arrays: the per-element power walk on the Pair view, the
double loop of is_special, the mul-closure reconstruction of A from
X = A/+-, the per-cell loop of is_homomorphism and the per-row colour
refinement of the witness search, together with the loop
versions of the Boolean part, the quotient by a subgroup's cosets, the
squares, the C2 split with its per-cell sign system and the cocycle
extraction built on them.  The split
reference reads x^2 off the Pair cell x*x = [e, x^2], as the valid-group
routines do, and the sweep holds that cell to the walk.  Every
acceptance-sweep label is checked with one seeded relabelling.  The mul
closure checks every product of a reconstructed table of at most
CHECKED_PRODUCTS cells and that many seeded products of a larger one; the
chain is recomputed from the whole table.  The power walk is also checked
on the three groups of perfbench with the longest walks and on random
involutive tables, and classify's principal chain against the one read
off the orders.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from test_acceptance import build, sweep_labels
from twovalued.classify import (
    ClassLabel,
    NonUniquePair,
    Timeout,
    _chain_from_counts,
    _initial_colors,
    _refine,
    classify,
    reconstruct_abelian,
    witness_isomorphism,
)
from twovalued.cocycle import (
    ExtractionData,
    PreconditionViolated,
    QuasiCocycle,
    extract_quasicocycle,
)
from twovalued.constructions import FinAbelianGroup, double, principal, product_with_boolean
from twovalued.core import AmbiguousPower, Pair, TwoValuedGroup, order, power, product
from twovalued.enumeration import enumerate_all
from twovalued.structure import (
    BooleanSubgroup,
    HomomorphismReport,
    InconsistentSystem,
    boolean_subgroup,
    branching_set,
    is_homomorphism,
    is_special,
    quotient,
    split_direct_factor,
    squares_subgroup,
)


CHECKED_PRODUCTS = 1024


# --- references --------------------------------------------------------------

def reference_power_sequence(X: TwoValuedGroup, x: int) -> list[int]:
    """e = x^0, x^1, ... up to the first return to e, one Pair cell at a
    time; AmbiguousPower when the recurrence branches."""
    e = X.identity
    if x == e:
        return [e]
    seq = [e, x]
    cap = 2 * len(X) + 2
    t = X.table
    while len(seq) <= cap:
        prev, cur = seq[-2], seq[-1]
        p = t[x][cur]
        if p != t[cur][x]:
            raise AmbiguousPower(f"x*x^k and x^k*x differ for x={x}, k={len(seq) - 1}")
        if prev not in p:
            raise AmbiguousPower(f"x^(k-1) missing from x*x^k for x={x}, k={len(seq) - 1}")
        seq.append(p.other(prev))
        if seq[-1] == e:
            return seq
    raise AmbiguousPower(f"power sequence of x={x} never returns to e")


def reference_walk(X: TwoValuedGroup) -> list[list[int]]:
    return [reference_power_sequence(X, x) for x in range(len(X))]


def orders_of(walk) -> list[int]:
    return [max(1, len(seq) - 1) for seq in walk]


def square_of(seq) -> int:
    m = len(seq) - 1
    return seq[2 % m] if m else seq[0]


def reference_is_special(X: TwoValuedGroup, orders) -> tuple[bool, list]:
    big = [x for x in range(len(X)) if orders[x] > 2]
    t = X.table
    witnesses = []
    for i, x in enumerate(big):
        for y in big[i:]:
            if t[x][y].is_doubled:
                witnesses.append((x, y))
    return (bool(witnesses), witnesses)


def reference_boolean_subgroup(X: TwoValuedGroup, orders) -> BooleanSubgroup:
    members = [x for x in range(len(X)) if orders[x] <= 2]
    pos = {el: i for i, el in enumerate(members)}
    t = X.table
    table = tuple(
        tuple(pos[t[a][b].lo] if t[a][b].is_doubled else None for b in members)
        for a in members
    )
    return BooleanSubgroup(tuple(members), len(members).bit_length() - 1, table)


def reference_sign_rows(X: TwoValuedGroup) -> list[int]:
    """The equations f(x) + f(y) + f(z) = 0, z in x*y, x <= y, of a sign
    homomorphism f, as distinct nonzero rows of n bits, one cell at a time."""
    rows = set()
    n = len(X)
    for x in range(n):
        for y in range(x, n):
            p = X.table[x][y]
            for z in (p.lo, p.hi):
                rows.add((1 << x) ^ (1 << y) ^ (1 << z))
    rows.discard(0)
    return sorted(rows)


def reference_in_span(v: int, rows) -> bool:
    """Whether v is an F2 sum of rows: each row is reduced by the basis
    rows with its leading bit until it is zero or leads a new basis row."""
    basis = {}
    for r in [*rows, v]:
        while r and (top := r.bit_length()) in basis:
            r ^= basis[top]
        if r:
            basis[top] = r
    return not r


def reference_squares(X: TwoValuedGroup) -> list[int]:
    """x^2 for every x, off its Pair cell x*x = [e, x^2]; AmbiguousPower
    for the first x whose x*x does not hold e."""
    e = X.identity
    squares = []
    for x, row in enumerate(X.table):
        if e not in row[x]:
            raise AmbiguousPower(f"x^(k-1) missing from x*x^k for x={x}, k=1")
        squares.append(row[x].other(e))
    return squares


def reference_split(X: TwoValuedGroup):
    cur, m, witnesses = X, 0, []
    while True:
        squares = reference_squares(cur)
        # order 2 is x^2 = e with x != e
        order_two = {x for x in range(1, len(cur)) if squares[x] == cur.identity}
        lone = sorted(order_two - set(squares))
        if not lone:
            return cur, m, witnesses
        # no f with f(w) = 1 when bit w is a sum of the equations
        if reference_in_span(1 << lone[0], reference_sign_rows(cur)):
            raise InconsistentSystem(f"no sign homomorphism separates element {cur.names[lone[0]]}")
        witnesses.append(cur.names[lone[0]])
        cur, _ = quotient(cur, frozenset({cur.identity, lone[0]}))
        m += 1


def reference_extract(X: TwoValuedGroup) -> ExtractionData:
    walk = reference_walk(X)
    orders = orders_of(walk)
    for x in range(len(X)):
        if orders[x] not in (1, 2, 4):
            raise PreconditionViolated(f"element {X.names[x]} has order {orders[x]}")
    if reference_is_special(X, orders)[0]:
        raise PreconditionViolated("special pairs present")
    V = reference_boolean_subgroup(X, orders)
    squares = {square_of(seq) for seq in walk}
    if not set(V.members) <= squares:
        raise PreconditionViolated("single-valued factor present")
    coords = {X.identity: 0}
    nbasis = 0
    for m in V.members:
        if m in coords:
            continue
        bit = 1 << (V.dim - 1 - nbasis)
        nbasis += 1
        for el, vec in list(coords.items()):
            coords[V.dot(m, el)] = vec ^ bit
    orbits: dict[int, list[int]] = {}
    for x in range(len(X)):
        orbits.setdefault(coords[square_of(walk[x])], []).append(x)
    reps = {vec: min(orb) for vec, orb in orbits.items()}
    t = X.table

    def phi_fn(u, v):
        z1 = t[reps[u]][reps[v]].lo
        target = reps[u ^ v]
        for c_el, c_vec in coords.items():
            p = t[c_el][target]
            if p.is_doubled and p.lo == z1:
                return c_vec
        raise PreconditionViolated("V does not act transitively")

    phi = QuasiCocycle.from_function(V.dim, phi_fn)
    return ExtractionData(group=X, dim=V.dim, coords=coords, representatives=reps, phi=phi)


def reference_reconstruct(X: TwoValuedGroup, t: int):
    """The pairs (x, p), p in t*x, that carry A, and the mul closure: the
    index in A of the product of the pairs at two indices."""
    tab = X.table
    A = []
    for x in range(len(X)):
        A += [(x, p) for p in tab[t][x].support()]
    pos = {a: i for i, a in enumerate(A)}

    def mul(i, j):
        a, b = A[i], A[j]
        (x, p), (y, q) = a, b
        pp, qq = tab[t][x].other(p), tab[t][y].other(q)
        zs = (
            set(tab[x][y].support())
            & set(tab[p][qq].support())
            & set(tab[pp][q].support())
        )
        found = []
        for z in zs:
            for r in tab[t][z].support():
                rr = tab[t][z].other(r)
                if r in tab[x][q] and r in tab[p][y] and rr in tab[x][qq] and rr in tab[pp][y]:
                    found.append((z, r))
        if len(found) != 1:
            raise NonUniquePair(f"product of {a} and {b}: candidates {sorted(found)}")
        return pos[found[0]]

    return tuple(A), mul


def reference_chain(table) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group table, from orders found
    by repeated multiplication."""
    orders = []
    for x in range(len(table)):
        k, acc = 1, x
        while acc != 0:
            acc = table[acc][x]
            k += 1
        orders.append(k)
    return _chain_from_counts(len(table), lambda k: sum(1 for o in orders if k % o == 0))


def reference_is_subgroup(X: TwoValuedGroup, members) -> bool:
    t = X.table
    return X.identity in members and all(
        t[a][b].lo in members and t[a][b].hi in members for a in members for b in members
    )


def reference_quotient(X: TwoValuedGroup, members) -> tuple[tuple, tuple, list[int]]:
    """(names, table, proj) of X/members on a valid group: the class of x
    is its coset, every element of the products x*y with y in members."""
    t = X.table
    proj, reps = [None] * len(X), []
    for x in range(len(X)):
        if proj[x] is None:
            for y in members:
                for z in t[x][y].support():
                    proj[z] = len(reps)
            reps.append(x)
    table = tuple(tuple(Pair.of(proj[t[a][b].lo], proj[t[a][b].hi]) for b in reps) for a in reps)
    return tuple(X.names[r] for r in reps), table, proj


def reference_is_homomorphism(X: TwoValuedGroup, Z: TwoValuedGroup, f) -> HomomorphismReport:
    n = len(X)
    tx, tz = X.table, Z.table
    mismatches = []
    for x in range(n):
        row, image_row = tx[x], tz[f[x]]
        for y in range(n):
            p = row[y]
            if tuple(sorted((f[p.lo], f[p.hi]))) != image_row[f[y]].as_multiset():
                mismatches.append((x, y))
    if mismatches:
        return HomomorphismReport(False, mismatches)
    if f[X.identity] != Z.identity:
        return HomomorphismReport(False, [(X.identity, X.identity)])
    kernel = frozenset(x for x in range(n) if f[x] == Z.identity)
    image = frozenset(f)
    report = HomomorphismReport(
        True, [], kernel, image, reference_is_subgroup(X, kernel), reference_is_subgroup(Z, image)
    )
    if report.kernel_is_subgroup:
        Q, proj = quotient(X, kernel)
        cls_img = {}
        ok = True
        for x in range(n):
            ok &= cls_img.setdefault(proj[x], f[x]) == f[x]
        ok = ok and len(set(cls_img.values())) == len(Q) == len(image)
        tq = Q.table
        report.quotient_matches_image = ok and all(
            tuple(sorted((cls_img[tq[i][j].lo], cls_img[tq[i][j].hi])))
            == tz[cls_img[i]][cls_img[j]].as_multiset()
            for i in range(len(Q))
            for j in range(len(Q))
        )
    return report


def reference_colors(X: TwoValuedGroup) -> list[int]:
    """The colour refinement of witness_isomorphism, one Pair row at a time,
    with each round's keys ranked by sorting them."""
    n = len(X)
    t = X.table

    def rank(keys):
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [ranks[k] for k in keys]

    cols = rank([
        (x == 0, row[x].is_doubled, 0 in row[x], sum(p.is_doubled for p in row),
         sum(0 in p for p in row), sum(x in p for p in row))
        for x, row in enumerate(t)
    ])
    while True:
        new = rank([
            (cols[x], tuple(sorted((cols[y], tuple(sorted((cols[p.lo], cols[p.hi]))))
                                   for y, p in enumerate(t[x]))))
            for x in range(n)
        ])
        if new == cols:
            return cols
        cols = new


# --- checks ------------------------------------------------------------------

def relabel(X: TwoValuedGroup, seed: int) -> tuple[TwoValuedGroup, list[int]]:
    """A copy of X with its non-identity elements permuted, and the map
    old -> new index, which is an isomorphism from X to the copy."""
    n = len(X)
    perm = np.array([0] + random.Random(seed).sample(range(1, n), n - 1))
    inv = np.argsort(perm)
    lo, hi = (perm[a[np.ix_(inv, inv)]] for a in (X.lo, X.hi))
    names = [X.names[a] for a in inv]
    return TwoValuedGroup.from_arrays(names, np.minimum(lo, hi), np.maximum(lo, hi)), perm.tolist()


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (
        ValueError, PreconditionViolated, AmbiguousPower, NonUniquePair, InconsistentSystem
    ) as exc:
        return type(exc)


def check_walk(X: TwoValuedGroup, walk):
    # the diagonal contract of the valid-group routines: x*x = [e, x^2]
    t = X.table
    assert all(t[x][x] == Pair(X.identity, square_of(seq)) for x, seq in enumerate(walk))
    orders = orders_of(walk)
    assert [order(X, x) for x in range(len(X))] == orders
    for x, seq in enumerate(walk):
        m = orders[x]
        assert [power(X, x, k) for k in range(m + 1)] == [seq[k % m] for k in range(m + 1)]
        for k in (-1, -m - 1, 3 * m + 2):
            assert power(X, x, k) == seq[abs(k) % m]
    assert is_special(X) == reference_is_special(X, orders)
    assert squares_subgroup(X) == frozenset(square_of(seq) for seq in walk)
    if not is_special(X)[0]:
        assert boolean_subgroup(X) == reference_boolean_subgroup(X, orders)


def check_split_and_cocycle(X: TwoValuedGroup):
    Xp, m, witnesses = split_direct_factor(X)
    assert (Xp, m, witnesses) == reference_split(X)
    assert outcome(extract_quasicocycle, Xp) == outcome(reference_extract, Xp)


def check_reconstruction(X: TwoValuedGroup, orders, rng: random.Random):
    admissible = [x for x in range(len(X)) if orders[x] not in (1, 2, 4)]
    if not admissible or is_special(X)[0]:
        assert outcome(reconstruct_abelian, X) is ValueError
        return
    res = reconstruct_abelian(X)
    assert res.t == admissible[0]
    pairs, mul = reference_reconstruct(X, res.t)
    assert res.pairs == pairs
    na = len(pairs)
    if na * na <= CHECKED_PRODUCTS:
        cells = itertools.product(range(na), repeat=2)
    else:
        cells = [(rng.randrange(na), rng.randrange(na)) for _ in range(CHECKED_PRODUCTS)]
    table = res.table.tolist()
    assert all(table[a][b] == mul(a, b) for a, b in cells)
    assert res.chain == reference_chain(table)


def check_homomorphisms(X: TwoValuedGroup, Y: TwoValuedGroup, perm, rng: random.Random):
    maps = [(Y, perm)]
    if len(X) > 1:
        bent = list(perm)
        a = rng.randrange(1, len(X))
        bent[a] = rng.choice([v for v in range(len(X)) if v != perm[a]])
        maps.append((Y, bent))
    V = boolean_subgroup(X) if not is_special(X)[0] else None
    if V is not None and V.dim:
        Q, proj = quotient(X, frozenset({X.identity, V.members[1]}))
        assert (Q.names, Q.table, proj) == reference_quotient(X, (X.identity, V.members[1]))
        maps.append((Q, proj))
    for Z, f in maps:
        assert is_homomorphism(X, Z, f) == reference_is_homomorphism(X, Z, f)


def test_sweep_matches_pair_references():
    for i, (kind, param, m) in enumerate(sweep_labels()):
        X = build(kind, param, m)
        Y, perm = relabel(X, seed=i)
        walk = reference_walk(Y)
        check_walk(Y, walk)
        check_split_and_cocycle(Y)
        check_reconstruction(Y, orders_of(walk), random.Random(i))
        check_homomorphisms(X, Y, perm, random.Random(i))


def test_homomorphism_theorem_fails_on_a_broken_identity():
    # e*2 = 2*e = [2, 3] puts 2 and 3 in one class of the kernel {e}, on
    # which the identity map is not constant
    X = principal(7)
    lo, hi = X.lo.copy(), X.hi.copy()
    lo[0, 2] = lo[2, 0] = 2
    hi[0, 2] = hi[2, 0] = 3
    Y = TwoValuedGroup.from_arrays(X.names, lo, hi)
    identity = list(range(len(Y)))
    assert is_homomorphism(Y, Y, identity).quotient_matches_image is False
    check_homomorphisms(Y, Y, identity, random.Random("broken identity"))


def test_cocycle_branch_rank_and_c2_count_are_read_off_the_size():
    # a group with no special pair and every order in {1, 2, 4} is
    # Principal(4^k, 2^m) or Unipotent(k, m), of size 2^(m+k-1) (2^k + 1),
    # 2^m for k = 0: the split strips m factors and X' has rank k.  The
    # sweep has 60 such labels; two larger ones take k to 4 and m to 2 at k = 3
    sizes = {(2**m if k == 0 else 2 ** (m + k - 1) * (2**k + 1)): (k, m)
             for k in range(6) for m in range(12)}
    seen = 0
    specs = sweep_labels() + [("unipotent", 4, 0), ("unipotent", 3, 2)]
    for i, (kind, param, m) in enumerate(specs):
        Y, _ = relabel(build(kind, param, m), seed=i)
        orders = [order(Y, x) for x in range(len(Y))]
        if is_special(Y)[0] or max(orders) > 4 or 3 in orders:
            continue
        seen += 1
        k, m_read = sizes[len(Y)]
        Xp, m_split, _ = split_direct_factor(Y)
        assert m_split == m_read, (kind, param, m)
        if k:
            assert extract_quasicocycle(Xp).dim == k, (kind, param, m)
    assert seen == 62


def corrupted(X: TwoValuedGroup, cells: int, rng: random.Random, symmetric: bool):
    """X with `cells` cells off the identity row and column overwritten by
    random pairs, each mirrored across the diagonal when symmetric."""
    n = len(X)
    lo, hi = X.lo.astype(np.intp), X.hi.astype(np.intp)
    for _ in range(cells):
        i, j = rng.randrange(1, n), rng.randrange(1, n)
        a, b = sorted((rng.randrange(n), rng.randrange(n)))
        lo[i, j], hi[i, j] = a, b
        if symmetric:
            lo[j, i], hi[j, i] = a, b
    return TwoValuedGroup.from_arrays(X.names, lo, hi)


def random_involutive_table(n: int, rng: random.Random) -> TwoValuedGroup:
    """A symmetric table with a strong identity and e in every x*x, the
    other entries random: its power walks end in every possible way."""
    lo = np.zeros((n, n), dtype=np.intp)
    lo[0], lo[:, 0] = np.arange(n), np.arange(n)
    hi = lo.copy()
    for i in range(1, n):
        for j in range(i, n):
            a, b = sorted((0 if i == j else rng.randrange(n), rng.randrange(n)))
            lo[i, j] = lo[j, i] = a
            hi[i, j] = hi[j, i] = b
    return TwoValuedGroup.from_arrays([str(i) for i in range(n)], lo, hi)


def assert_walk_matches_reference(X: TwoValuedGroup):
    """order and power against the Pair-cell power sequence of every
    element, AmbiguousPower messages included."""
    for x in range(len(X)):
        try:
            seq = reference_power_sequence(X, x)
        except AmbiguousPower as exc:
            for call in (lambda: order(X, x), lambda: power(X, x, 1)):
                with pytest.raises(AmbiguousPower) as got:
                    call()
                assert str(got.value) == str(exc)
            continue
        m = max(1, len(seq) - 1)
        assert order(X, x) == m
        exponents = range(-m, 2 * m + 1)
        assert [power(X, x, k) for k in exponents] == [seq[abs(k) % m] for k in exponents]


@pytest.mark.parametrize("seed", range(60))
def test_walk_matches_reference_on_broken_tables(seed):
    rng = random.Random(seed)
    if seed % 3 == 2:
        X = random_involutive_table(rng.randrange(2, 12), rng)
    else:
        label = rng.choice([lab for lab in sweep_labels() if lab != ("principal", (), 0)])
        X = corrupted(build(*label), rng.randrange(1, 4), rng, symmetric=seed % 3 == 0)
    assert_walk_matches_reference(X)


# the longest walks of perfbench's large groups: orders up to 255, 64 and 9
HIGH_ORDER = [("principal", (255,), 0), ("principal", (64,), 2), ("principal", (3, 9, 9), 0)]


@pytest.mark.parametrize("label", HIGH_ORDER, ids=["principal255", "principal64xC2^2",
                                                   "principal3_9_9"])
def test_walk_matches_reference_on_high_order_groups(label):
    # valid groups, plain and relabelled, and with cells corrupted
    X = build(*label)
    Y, _ = relabel(X, seed=len(X))
    for T in (X, Y):
        assert_walk_matches_reference(T)
    rng = random.Random(len(X))
    for symmetric in (True, False):
        assert_walk_matches_reference(corrupted(Y, rng.randrange(1, 4), rng, symmetric))


def test_walk_matches_reference_on_random_involutive_tables():
    # tables of 2 to 5 elements whose walks end in every possible way
    rng = random.Random("rerun")
    for _ in range(60):
        assert_walk_matches_reference(random_involutive_table(rng.randrange(2, 6), rng))


def test_walk_memory_holds_no_power_table():
    # n = 1,020, and every walk takes 1,019 steps: order and power walk one
    # element over its row and column as lists, O(n), and keep no K x n table
    X = principal(2039)
    tracemalloc.start()
    try:
        for x in (1, 500, 1019):
            assert order(X, x) == 2039
            power(X, x, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.lo.nbytes / 5, f"traced peak {peak / X.lo.nbytes:.2f}x a table"


def reference_principal_chain(orders) -> tuple[int, ...]:
    """The chain of X = A/+- off its orders: the orbit of a has order ord(a)
    and 1 or 2 elements."""
    orders = np.array(orders)
    sizes = 1 + (orders > 2)
    return _chain_from_counts(int(sizes.sum()), lambda k: int(sizes[k % orders == 0].sum()))


def test_counted_chain_matches_order_counts():
    # classify counts the principal chain by its ladder, not off the orders
    seen = 0
    for i, label in enumerate(sweep_labels() + HIGH_ORDER):
        X = build(*label)
        for T in (X, relabel(X, seed=i)[0]):
            orders = [order(T, x) for x in range(len(T))]
            if is_special(T)[0] or not set(orders) - {1, 2, 4}:
                continue
            seen += 1
            assert classify(T) == ClassLabel.principal_label(reference_principal_chain(orders))
    assert seen == 612


def split_outcome(fn, X: TwoValuedGroup):
    """The arrays and names of X', m and the witnesses from fn(X), or the
    type of the exception it raised."""
    got = outcome(fn, X)
    if isinstance(got, type):
        return got
    Xp, m, witnesses = got
    return Xp.names, Xp.lo.tolist(), Xp.hi.tolist(), m, witnesses


@pytest.mark.parametrize("chunk", range(8))
def test_split_matches_reference_on_broken_tables(chunk):
    # every sweep label of 3 to 80 elements, plain and relabelled, and each
    # of those with 1-3 cells corrupted, symmetric and one-sided: 1,866
    # tables over all chunks, of which 1,201 split, 536 raise
    # InconsistentSystem and 129, with e missing from some x*x, AmbiguousPower
    labels = [lab for lab in sweep_labels() if 3 <= len(build(*lab)) <= 80]
    for i, label in enumerate(labels[chunk::8]):
        rng = random.Random(f"split:{chunk}:{i}")
        X = build(*label)
        Y, _ = relabel(X, seed=i)
        tables = [X, Y] + [
            corrupted(Z, rng.randrange(1, 4), rng, symmetric=symmetric)
            for Z in (X, Y)
            for symmetric in (True, False)
        ]
        for T in tables:
            assert split_outcome(split_direct_factor, T) == split_outcome(reference_split, T)


def test_ambiguous_power_is_per_element():
    X = double(FinAbelianGroup((3,)))
    assert order(X, 0) == 1
    with pytest.raises(AmbiguousPower):
        power(X, 1, 2)
    with pytest.raises(AmbiguousPower):
        reference_power_sequence(X, 1)


@pytest.mark.parametrize("seed", range(15))
def test_colors_match_reference(seed):
    rng = random.Random(seed)
    if seed % 3 == 2:
        X = random_involutive_table(rng.randrange(2, 12), rng)
    else:
        X, _ = relabel(build(*rng.choice(sweep_labels())), seed)
        if seed % 3 == 1:
            X = corrupted(X, rng.randrange(1, 4), rng, symmetric=seed % 2 == 0)
    assert _refine(X, _initial_colors(X)).tolist() == reference_colors(X)


@pytest.mark.parametrize("label, seed, nodes", [
    (("principal", (2, 6), 1), 17, 16),
    (("unipotent", 3, 0), 5, 73),
    (("principal", (3, 9), 0), 3, 19),
])
def test_witness_search_spends_the_nodes_of_the_full_scan(label, seed, nodes):
    # each propagation step reads the mapped elements in increasing order,
    # as the scan over all n elements did, so a map costs the nodes it cost
    # with the scan (counted then; principal(3, 9) counted again once the
    # colours read no orders): one node less runs out of budget
    X = build(*label)
    Z, _ = relabel(X, seed)
    f = witness_isomorphism(X, Z, node_budget=nodes)
    assert is_homomorphism(X, Z, f).is_homomorphism
    with pytest.raises(Timeout):
        witness_isomorphism(X, Z, node_budget=nodes - 1)


@pytest.mark.parametrize("label", [("principal", (3, 9), 1), ("special", 3, 1),
                                   ("principal", (4, 4), 1), ("unipotent", 2, 2)],
                         ids=["principal", "special", "rank2", "unipotent2"])
def test_classify_builds_no_walk(label, monkeypatch):
    # classify and the structure, cocycle and reconstruction routines read
    # x^2 off the diagonal, so none of them walks a power sequence
    def no_walk(X, x):
        raise AssertionError(f"power walk of x={x}")

    monkeypatch.setattr("twovalued.core._walk", no_walk)
    X = build(*label)
    with pytest.raises(AssertionError):
        order(X, 1)
    for T in (X, relabel(X, seed=len(X))[0]):
        classify(T)
        is_special(T)
        u = boolean_subgroup(T).members[1]
        squares_subgroup(T)
        outcome(extract_quasicocycle, split_direct_factor(T)[0])
        branching_set(T, u)
        outcome(reconstruct_abelian, T)


def test_valid_group_routines_raise_where_e_is_not_in_x_x():
    # 3 * 3 = [1, 1] holds no e: every reader of the diagonal refuses the
    # table with the message the walk gives 3 at k = 1
    X = product_with_boolean(principal(2, 6), 1)
    lo, hi = X.lo.copy(), X.hi.copy()
    lo[3, 3] = hi[3, 3] = 1
    T = TwoValuedGroup.from_arrays(X.names, lo, hi)
    with pytest.raises(AmbiguousPower) as walk:
        order(T, 3)
    u = next(x for x in range(1, len(X)) if order(X, x) == 2)
    for fn in (classify, is_special, boolean_subgroup, squares_subgroup, split_direct_factor,
               extract_quasicocycle, lambda T: branching_set(T, u), reconstruct_abelian):
        with pytest.raises(AmbiguousPower) as got:
            fn(T)
        assert str(got.value) == str(walk.value)


def test_array_paths_never_build_the_pair_view():
    X = product_with_boolean(principal(2, 6), 1)
    assert "table" not in vars(X)
    classify(X)
    reconstruct_abelian(X)
    is_homomorphism(X, X, list(range(len(X))))
    u = next(x for x in range(1, len(X)) if order(X, x) == 2)
    branching_set(X, u)
    assert product(X, 1, 2) == Pair(int(X.lo[1, 2]), int(X.hi[1, 2]))
    assert witness_isomorphism(X, X) is not None
    assert "table" not in vars(X)
    for G in enumerate_all(3, involutive_commutative=False):
        assert "table" not in vars(G)
