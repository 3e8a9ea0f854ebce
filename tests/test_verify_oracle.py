"""The power-sum-code associativity sweep against a sort-based reference.

The reference is the sweep verify_axioms used before the merge network:
int32 tables, chunks of z holding about 4M cells, and both sides of every
triple sorted with ndarray.sort on a length-4 axis.  It counts every
violating triple and keeps the first ones of each chunk, so the tests
compare the true count and the lexicographically first witnesses.  The
strong-identity and inverse records are compared with the per-element
loops verify_axioms used before they were vectorized.  The codes
themselves are checked for injectivity on small sizes and for carry-free
fields at the largest size.  The sweep on a subset of the middle elements
y is checked against a per-y reference, and Light's test (that sweep on
{e} and a generating set) against the full sweep: it must accept exactly
the tables the full sweep finds associative.  The generating set, whose
rounds read only the elements new to the last round, is checked against
the closure that read every reached pair each round.
"""

import os
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from twovalued import core
from twovalued.classify import all_labels_of_size, realize
from twovalued.constructions import principal, product_with_boolean, special_series
from twovalued.core import (
    MAX_WITNESSES_PER_TAG,
    Pair,
    TwoValuedGroup,
    index_dtype,
    verify_axioms,
)


def reference_violations(X: TwoValuedGroup) -> tuple[int, np.ndarray]:
    """The number of triples (x, y, z) with (x*y)*z != x*(y*z), and the
    first MAX_WITNESSES_PER_TAG of them in each chunk of z as keys
    (x*n + y)*n + z, in the order the sweep finds them: chunk by chunk, and
    in lexicographic (x, y, z) order within a chunk.  The first
    MAX_WITNESSES_PER_TAG triples overall are among the keys."""
    n = len(X)
    lo = np.array([[p.lo for p in row] for row in X.table], dtype=np.int32)
    hi = np.array([[p.hi for p in row] for row in X.table], dtype=np.int32)
    chunk = max(1, 4_000_000 // (n * n))
    count, keys = 0, []
    for z0 in range(0, n, chunk):
        z1 = min(n, z0 + chunk)
        lhs = np.stack(
            [lo[lo, z0:z1], hi[lo, z0:z1], lo[hi, z0:z1], hi[hi, z0:z1]], axis=-1
        )
        lhs.sort(axis=-1)
        lyz = lo[:, z0:z1]
        hyz = hi[:, z0:z1]
        rhs = np.stack([lo[:, lyz], lo[:, hyz], hi[:, lyz], hi[:, hyz]], axis=-1)
        rhs.sort(axis=-1)
        bad = (lhs != rhs).any(axis=-1)
        del lhs, rhs
        count += int(np.count_nonzero(bad))
        first = np.flatnonzero(bad)[:MAX_WITNESSES_PER_TAG]
        x, y, dz = np.unravel_index(first, bad.shape)
        keys.append((x.astype(np.int64) * n + y) * n + z0 + dz)
    return count, np.concatenate(keys)


def first_triples(keys: np.ndarray, n: int) -> list[tuple[int, int, int]]:
    """sorted(triples)[:MAX_WITNESSES_PER_TAG] for the triples the keys
    stand for."""
    first = np.sort(keys)[:MAX_WITNESSES_PER_TAG]
    return [(int(k // (n * n)), int(k // n % n), int(k % n)) for k in first]


def corrupted(X: TwoValuedGroup, cells: int, seed: int) -> TwoValuedGroup:
    """X with `cells` symmetric pairs of cells off the identity row and
    column overwritten by random pairs."""
    rng = np.random.default_rng(seed)
    n = len(X)
    rows = [list(row) for row in X.table]
    for _ in range(cells):
        i, j = (int(v) for v in rng.integers(1, n, size=2))
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        rows[i][j] = rows[j][i] = Pair.of(a, b)
    return TwoValuedGroup(names=X.names, table=tuple(map(tuple, rows)))


def random_symmetric(n: int, seed: int) -> TwoValuedGroup:
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, n, size=(n, n, 2))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Pair.of(int(cells[i, j, 0]), int(cells[i, j, 1]))
    return TwoValuedGroup(
        names=tuple(str(i) for i in range(n)), table=tuple(map(tuple, rows))
    )


def assert_matches_reference(X: TwoValuedGroup):
    rep = verify_axioms(X)
    count, keys = reference_violations(X)
    assert count > 0
    assert rep.counts["associativity"] == count
    assert rep.violations_for("associativity") == first_triples(keys, len(X))


@pytest.mark.parametrize(
    "build, size, dtype",
    [
        (lambda: principal(58), 30, np.uint8),
        # the last uint8 size
        (lambda: product_with_boolean(principal(2, 2, 2, 2, 2, 2), 2), 256, np.uint8),
        # the first uint16 size
        (lambda: special_series(8), 257, np.uint16),
    ],
    ids=["principal58", "boolean256", "special257"],
)
def test_corrupted_tables_match_sort_reference(build, size, dtype):
    X = build()
    assert len(X) == size and index_dtype(size) == dtype
    assert verify_axioms(X).is_two_valued_group
    assert_matches_reference(corrupted(X, 3, seed=1))


def test_random_table_keeps_lexicographically_first_witnesses():
    # the reference splits z into two chunks here; the witnesses must still
    # be the first MAX_WITNESSES_PER_TAG triples in (x, y, z) order
    X = random_symmetric(200, seed=3)
    rep = verify_axioms(X)
    count, keys = reference_violations(X)
    assert count > MAX_WITNESSES_PER_TAG
    assert rep.counts["associativity"] == count
    # the reference's own order is not (x, y, z) order on this table
    first = keys[:MAX_WITNESSES_PER_TAG]
    assert not np.array_equal(first, np.sort(keys)[:MAX_WITNESSES_PER_TAG])
    assert rep.violations_for("associativity") == first_triples(keys, 200)


# The non-commutative path: the right side is gathered from the transposed
# tables instead of being the left side itself.


def doubled_dihedral(m: int) -> TwoValuedGroup:
    """The dihedral group of order 2m as a two-valued group x*y = [xy, xy]:
    element i + m*j stands for r^i s^j, and (r^a s^b)(r^c s^d) is
    r^(a + (-1)^b c) s^(b + d)."""
    n = 2 * m
    i, j = np.arange(n) % m, np.arange(n) // m
    a, b, c, d = i[:, None], j[:, None], i[None, :], j[None, :]
    prod = (a + np.where(b == 1, -c, c)) % m + m * ((b + d) % 2)
    return TwoValuedGroup.from_arrays(tuple(map(str, range(n))), prod, prod)


def corrupted_one_sided(X: TwoValuedGroup, cells: int, seed: int) -> TwoValuedGroup:
    """X with `cells` cells (i, j), i != j, off the identity row and column
    overwritten by random pairs that differ from the mirror cell (j, i),
    which is left as it is."""
    rng = np.random.default_rng(seed)
    n = len(X)
    lo, hi = X.lo.astype(np.int64), X.hi.astype(np.int64)
    done = 0
    while done < cells:
        i, j = (int(v) for v in rng.integers(1, n, size=2))
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        if i != j and (a, b) != (lo[j, i], hi[j, i]):
            lo[i, j], hi[i, j] = a, b
            done += 1
    return TwoValuedGroup.from_arrays(X.names, lo, hi)


def random_table(n: int, seed: int, unit: bool = False) -> TwoValuedGroup:
    """A random table with sorted cells; with unit, e*x = x*e = [x, x]."""
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.integers(0, n, size=(2, n, n)), axis=0)
    if unit:
        lo[0, :] = hi[0, :] = lo[:, 0] = hi[:, 0] = np.arange(n)
    return TwoValuedGroup.from_arrays(tuple(map(str, range(n))), lo, hi)


@pytest.mark.parametrize("m", [60, 128])
def test_doubled_dihedral_group_is_valid_and_not_commutative(m):
    X = doubled_dihedral(m)
    rep = verify_axioms(X)
    assert len(X) == 2 * m
    assert rep.is_two_valued_group and rep.violations == []
    assert not rep.is_commutative


@pytest.mark.parametrize(
    "build",
    [
        lambda: principal(58),
        lambda: product_with_boolean(principal(2, 2, 2, 2, 2, 2), 2),
        lambda: special_series(8),
    ],
    ids=["principal58", "boolean256", "special257"],
)
def test_one_sided_corruptions_match_sort_reference(build):
    Y = corrupted_one_sided(build(), 3, seed=2)
    assert not verify_axioms(Y).is_commutative
    assert_matches_reference(Y)


def test_random_non_symmetric_table_keeps_first_witnesses_across_blocks():
    # the first witnesses in (x, y, z) order come from several blocks of y,
    # and later blocks must be merged in front of witnesses already kept
    # from larger x
    n = 200
    step = max(1, core._SWEEP_BLOCK_BYTES // (n * n * 8))  # y per block
    assert step < n
    X = random_table(n, seed=4)
    rep = verify_axioms(X)
    assert not rep.is_commutative
    count, keys = reference_violations(X)
    assert count > MAX_WITNESSES_PER_TAG
    assert rep.counts["associativity"] == count
    witnesses = rep.violations_for("associativity")
    assert witnesses == first_triples(keys, n)
    assert len({y // step for _, y, _ in witnesses}) > 1


# The sweep on a subset of the middle elements y, which Light's test is.


def reference_at_middles(X: TwoValuedGroup, ys) -> tuple[int, list[tuple[int, int, int]]]:
    """The number of triples (x, y, z) with y in ys and (x*y)*z != x*(y*z),
    both sides sorted as 4-element multisets, and the first
    MAX_WITNESSES_PER_TAG of them in (x, y, z) order."""
    lo, hi = X.lo.astype(np.intp), X.hi.astype(np.intp)
    triples = []
    for y in ys:
        a, b = lo[:, y], hi[:, y]  # x*y for every x
        c, d = lo[y], hi[y]  # y*z for every z
        lhs = np.sort(np.stack([lo[a], hi[a], lo[b], hi[b]], axis=-1), axis=-1)
        rhs = np.sort(np.stack([lo[:, c], hi[:, c], lo[:, d], hi[:, d]], axis=-1), axis=-1)
        x, z = (lhs != rhs).any(axis=-1).nonzero()
        triples += [(i, int(y), k) for i, k in zip(x.tolist(), z.tolist())]
    return len(triples), sorted(triples)[:MAX_WITNESSES_PER_TAG]


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_sweep_on_middles_matches_reference_on_random_tables(symmetric):
    rng = np.random.default_rng(7)
    for n in range(3, 41):
        X = random_symmetric(n, seed=200 + n) if symmetric else random_table(n, seed=200 + n)
        ys = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        got = core._associativity_violations(X.lo, X.hi, symmetric, ys)
        assert got == reference_at_middles(X, ys.tolist()), (n, ys)


def test_sweep_on_middles_keeps_first_witnesses_across_blocks():
    # one y per block at n = 200; the first witnesses come from several y
    n = 200
    assert core._SWEEP_BLOCK_BYTES // (n * n * 8) <= 1
    X = random_table(n, seed=9)
    ys = np.array([0, 3, 17, 18, 60, 61, 120, 199])
    count, witnesses = core._associativity_violations(X.lo, X.hi, False, ys)
    assert count > MAX_WITNESSES_PER_TAG
    assert (count, witnesses) == reference_at_middles(X, ys.tolist())
    assert len({y for _, y, _ in witnesses}) > 1


def reference_identity_and_inverse(X: TwoValuedGroup, cap: int):
    """The strong-identity and inverse-axiom records of verify_axioms, by
    the per-element loops it used before they were vectorized."""
    n, e = len(X), X.identity
    lo, hi = X.lo, X.hi
    counts = {"strong_identity": 0, "inverse_existence": 0, "inverse_uniqueness": 0}
    first, last = [], []

    def record(out, tag, witness):
        counts[tag] += 1
        if counts[tag] <= cap:
            out.append((tag, witness))

    for x in range(n):
        if not (lo[e, x] == x and hi[e, x] == x):
            record(first, "strong_identity", (e, x))
        if x != e and not (lo[x, e] == x and hi[x, e] == x):
            record(first, "strong_identity", (x, e))
    e_in_xy = (lo == e) | (hi == e)
    cand = e_in_xy | e_in_xy.T
    for x in range(n):
        ys = np.nonzero(cand[x])[0]
        if len(ys) == 0:
            record(last, "inverse_existence", (x,))
        elif len(ys) > 1:
            record(last, "inverse_uniqueness", (x, *map(int, ys)))
        elif not (e_in_xy[x, ys[0]] and e_in_xy[ys[0], x]):
            record(last, "inverse_existence", (x, int(ys[0])))
    return counts, first, last


IDENTITY_AND_INVERSE_CASES = {
    "random": lambda: random_table(45, seed=5),
    "random_unit": lambda: random_table(52, seed=6, unit=True),
    "random_symmetric": lambda: random_symmetric(47, seed=7),
    "special33_one_sided": lambda: corrupted_one_sided(special_series(5), 12, seed=8),
}


@pytest.mark.parametrize("cap", [3, MAX_WITNESSES_PER_TAG])
@pytest.mark.parametrize("case", IDENTITY_AND_INVERSE_CASES)
def test_identity_and_inverse_records_match_loop_reference(monkeypatch, cap, case):
    # a small cap also drives the witness merge of the associativity sweep
    # through its branch for a full witness list
    monkeypatch.setattr(core, "MAX_WITNESSES_PER_TAG", cap)
    X = IDENTITY_AND_INVERSE_CASES[case]()
    rep = verify_axioms(X)
    counts, first, last = reference_identity_and_inverse(X, cap)
    assert {tag: rep.counts[tag] for tag in counts} == counts
    sweep = [v for v in rep.violations if v[0] == "associativity"]
    assert rep.violations == first + sweep + last
    count, keys = reference_violations(X)
    assert rep.counts["associativity"] == count
    assert [w for _, w in sweep] == first_triples(keys, len(X))[:cap]


# The power-sum codes: one uint64 sum stands for a 4-element multiset.


@pytest.mark.parametrize("n", range(1, 13))
def test_code_sums_are_injective_on_four_element_multisets(n):
    code = core._power_sum_codes(n).tolist()
    sums = {sum(code[v] for v in m) for m in combinations_with_replacement(range(n), 4)}
    assert len(sums) == comb(n + 3, 4)


def test_code_sums_do_not_carry_at_the_largest_size():
    code = core._power_sum_codes(16_381)
    for shift in (0, 16, 32, 48):
        field = (code >> np.uint64(shift)) & np.uint64(0xFFFF)
        assert 4 * int(field.max()) < 1 << 16


def test_verify_past_the_largest_size_raises_before_any_check(monkeypatch):
    # 49 elements: past the cap, not even Light's generating set is built
    X = principal(96)
    monkeypatch.setattr(core, "_MAX_CODED_ELEMENTS", len(X))
    assert verify_axioms(X).is_two_valued_group

    def forbidden(*args):
        raise AssertionError("verify_axioms ran past the size cap")

    monkeypatch.setattr(core, "_MAX_CODED_ELEMENTS", len(X) - 1)
    monkeypatch.setattr(core, "_generating_set", forbidden)
    monkeypatch.setattr(core, "_power_sum_codes", forbidden)
    with pytest.raises(MemoryError, match="handles at most 48 elements, not 49$"):
        verify_axioms(X)


@pytest.mark.parametrize("n", [5, 61, 255, 256, 257])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_random_tables_match_sort_reference(n, symmetric):
    # 256 is the last uint8 size and 257 the first uint16 size
    X = random_symmetric(n, seed=n) if symmetric else random_table(n, seed=n)
    assert verify_axioms(X).is_commutative == symmetric
    assert_matches_reference(X)


# Light's test on a generating set: it accepts exactly the tables on which
# the sweep finds no associativity violation, at every size, including the
# sizes where verify_axioms sweeps without it.


def moved_identity(X: TwoValuedGroup, seed: int) -> TwoValuedGroup:
    """X with all its elements permuted by the seed, e included, so that
    index 0 is not the identity (unless the permutation keeps it there)."""
    n = len(X)
    perm = np.random.default_rng(seed).permutation(n)  # old -> new
    inv = np.argsort(perm)
    lo, hi = perm[X.lo[np.ix_(inv, inv)]], perm[X.hi[np.ix_(inv, inv)]]
    return TwoValuedGroup.from_arrays(X.names, np.minimum(lo, hi), np.maximum(lo, hi))


def from_cells(n: int, cells: dict[tuple[int, int], tuple[int, int]]) -> TwoValuedGroup:
    """The commutative table with e*x = [x, x] and a*b = cells[a, b] for
    1 <= a <= b."""
    lo = np.zeros((n, n), np.int64)
    lo[0, :] = lo[:, 0] = np.arange(n)
    hi = lo.copy()
    for (a, b), (u, v) in cells.items():
        lo[a, b] = lo[b, a] = u
        hi[a, b] = hi[b, a] = v
    return TwoValuedGroup.from_arrays(tuple(map(str, range(n))), lo, hi)


# 1*1 = [2, 3] and 1 passes Light's test, but 2 and 3 fail it in opposite
# ways: e_2 + e_3 lies in the middle nucleus while e_2 does not.  A closure
# that marks both 2 and 3 reached from 1*1 never tests 2.
HALF_NUCLEUS = {(1, 1): (2, 3), (1, 2): (1, 1), (1, 3): (2, 3),
                (2, 2): (2, 3), (2, 3): (2, 3), (3, 3): (1, 1)}


def light_count(X: TwoValuedGroup, commutative: bool) -> int:
    """The violations Light's test finds: the sweep on the middles {e}
    and the generating set."""
    middles = np.array([0, *core._generating_set(X.lo, X.hi, commutative)])
    return core._associativity_violations(X.lo, X.hi, commutative, middles)[0]


def light_agrees_with_sweep(X: TwoValuedGroup, monkeypatch) -> bool:
    """Whether Light's test says what the full sweep says, and
    verify_axioms reports the same with the test as with the sweep alone."""
    lo, hi = X.lo, X.hi
    commutative = bool(np.array_equal(lo, lo.T) and np.array_equal(hi, hi.T))
    count, _ = core._associativity_violations(lo, hi, commutative, slice(None))
    monkeypatch.setattr(core, "_LIGHT_TEST_MIN_SIZE", 1)
    tested = verify_axioms(X)
    monkeypatch.setattr(core, "_LIGHT_TEST_MIN_SIZE", core._MAX_CODED_ELEMENTS + 1)
    swept = verify_axioms(X)
    return (light_count(X, commutative) == 0) == (count == 0) and tested == swept


@pytest.mark.parametrize("size", range(1, 60))
def test_light_test_matches_sweep_on_labels(size, monkeypatch):
    # every label of the size: plain, with every element permuted (e moved
    # off index 0), and with 1 to 3 cells corrupted, symmetrically and on
    # one side only
    for i, label in enumerate(sorted(all_labels_of_size(size), key=str)):
        X = realize(label)
        tables = [X, moved_identity(X, seed=size + i)]
        if size >= 3:
            tables += [corrupted(X, c, seed=size * c + i) for c in (1, 2, 3)]
            tables += [corrupted_one_sided(X, c, seed=size * c + i) for c in (1, 2, 3)]
        for k, Y in enumerate(tables):
            assert light_agrees_with_sweep(Y, monkeypatch), (label, k)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_light_test_matches_sweep_on_random_tables(symmetric, monkeypatch):
    # index 0 is no identity on most of these
    for n in range(3, 41):
        X = random_symmetric(n, seed=100 + n) if symmetric else random_table(n, seed=100 + n)
        assert light_agrees_with_sweep(X, monkeypatch), n


@pytest.mark.parametrize("m", [60, 128])
def test_light_test_accepts_doubled_dihedral_groups(m, monkeypatch):
    X = doubled_dihedral(m)
    assert light_count(X, commutative=False) == 0
    assert light_agrees_with_sweep(X, monkeypatch)
    assert light_agrees_with_sweep(corrupted_one_sided(X, 1, seed=m), monkeypatch)


def test_light_test_rejects_a_half_nucleus_table(monkeypatch):
    X = from_cells(4, HALF_NUCLEUS)
    assert core._generating_set(X.lo, X.hi, False) == [1, 2]
    assert light_count(X, commutative=True) > 0
    assert verify_axioms(X).counts["associativity"] > 0
    assert light_agrees_with_sweep(X, monkeypatch)


def test_light_test_keeps_e_where_the_identity_fails(monkeypatch):
    # e*2 = [1, 2] breaks the identity row, and every product but e*e and
    # e*2 is [1, 1]: both failing triples have y = e, and the generating
    # set {1, 2} alone passes, so e must stay a middle
    X = TwoValuedGroup.from_arrays(
        ("e", "1", "2"), [[0, 1, 1], [1, 1, 1], [1, 1, 1]], [[0, 1, 2], [1, 1, 1], [2, 1, 1]]
    )
    swept, witnesses = core._associativity_violations(X.lo, X.hi, True, slice(None))
    assert swept == 2 and {y for _, y, _ in witnesses} == {0}
    assert core._generating_set(X.lo, X.hi, True) == [1, 2]
    assert core._associativity_violations(X.lo, X.hi, True, np.array([1, 2]))[0] == 0
    monkeypatch.setattr(core, "_LIGHT_TEST_MIN_SIZE", 1)
    report = verify_axioms(X)
    assert report.counts["strong_identity"] > 0
    assert report.counts["associativity"] == swept
    assert light_agrees_with_sweep(X, monkeypatch)


def reference_generating_set(lo: np.ndarray, hi: np.ndarray) -> list[int]:
    """_generating_set as it was before it read only the new elements of
    each round: every round applies the closure rules to every pair of
    reached elements at once."""
    n = len(lo)
    lo, hi = lo.ravel(), hi.ravel()
    reached = np.zeros(n, bool)
    reached[0] = True
    gens = []
    while len(at := reached.nonzero()[0]) < n:
        cells = at[:, None] * n + at
        u, v = lo[cells], hi[cells]
        ru, rv = reached[u], reached[v]
        reached[u[~ru & ((u == v) | rv)]] = True
        reached[v[ru & ~rv]] = True
        if np.count_nonzero(reached) == len(at):
            gens.append(int(reached.argmin()))
            reached[gens[-1]] = True
    return gens


@pytest.mark.parametrize("chunk", range(4))
def test_generating_set_matches_all_pairs_closure(chunk):
    # every acceptance-sweep label with its elements permuted (e moved off
    # index 0), and with 1 or 3 cells corrupted, symmetrically and on one
    # side only; on the symmetric tables also read as commutative
    from test_acceptance import build, sweep_labels

    for i, label in enumerate(sweep_labels()[chunk::4]):
        X = build(*label)
        tables = [moved_identity(X, seed=i)]
        if len(X) >= 3:
            tables += [corrupted(X, c, seed=c + i) for c in (1, 3)]
            tables += [corrupted_one_sided(X, c, seed=c + i) for c in (1, 3)]
        for k, Y in enumerate(tables):
            expected = reference_generating_set(Y.lo, Y.hi)
            assert core._generating_set(Y.lo, Y.hi, False) == expected, (label, k)
            if np.array_equal(Y.lo, Y.lo.T) and np.array_equal(Y.hi, Y.hi.T):
                assert core._generating_set(Y.lo, Y.hi, commutative=True) == expected


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_generating_set_matches_all_pairs_closure_on_random_tables(symmetric):
    # links: products [u, v] with neither element reached abound here
    for n in range(1, 41):
        X = random_symmetric(n, seed=n) if symmetric else random_table(n, seed=n, unit=True)
        assert core._generating_set(X.lo, X.hi, symmetric) == reference_generating_set(X.lo, X.hi)


def test_generating_set_takes_the_least_unreached_element():
    # n = 514: three generators; each new generator is the least element
    # the earlier ones do not reach
    X = principal(32, 32)
    assert core._generating_set(X.lo, X.hi, False) == [1, 17, 18]
    one = np.zeros((1, 1), np.uint8)
    assert core._generating_set(one, one, False) == []


def test_special_series_11_verifies_within_one_gib():
    # n = 2,049; the child caps its own address space before it starts
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = ("from twovalued.constructions import special_series\n"
            "from twovalued.core import verify_axioms\n"
            "r = verify_axioms(special_series(11))\n"
            "print(r.size, r.is_two_valued_group, r.is_commutative, r.is_involutive,"
            " r.violations)\n")
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, preexec_fn=cap, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2049", "True", "True", "True", "[]"]
