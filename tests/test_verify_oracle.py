"""The merge-network associativity sweep against a sort-based reference.

The reference is the sweep verify_axioms used before the merge network:
int32 tables, chunks of z holding about 4M cells, and both sides of every
triple sorted with ndarray.sort on a length-4 axis.  It records every
violating triple, so the tests compare the true count and the
lexicographically first witnesses.
"""

import numpy as np
import pytest

from twovalued.constructions import principal, product_with_boolean, special_series
from twovalued.core import (
    MAX_WITNESSES_PER_TAG,
    Pair,
    TwoValuedGroup,
    index_dtype,
    verify_axioms,
)


def reference_violations(X: TwoValuedGroup) -> np.ndarray:
    """All triples (x, y, z) with (x*y)*z != x*(y*z), as keys
    (x*n + y)*n + z in the order the sweep finds them.  Key order is
    lexicographic (x, y, z) order."""
    n = len(X)
    lo = np.array([[p.lo for p in row] for row in X.table], dtype=np.int32)
    hi = np.array([[p.hi for p in row] for row in X.table], dtype=np.int32)
    chunk = max(1, 4_000_000 // (n * n))
    keys = []
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
        x, y, dz = np.nonzero((lhs != rhs).any(axis=-1))
        keys.append((x.astype(np.int64) * n + y) * n + z0 + dz)
    return np.concatenate(keys)


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
    keys = reference_violations(X)
    assert len(keys) > 0
    assert rep.counts["associativity"] == len(keys)
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
    keys = reference_violations(X)
    assert len(keys) > MAX_WITNESSES_PER_TAG
    assert rep.counts["associativity"] == len(keys)
    # the reference's own order is not (x, y, z) order on this table
    first = keys[:MAX_WITNESSES_PER_TAG]
    assert not np.array_equal(first, np.sort(keys)[:MAX_WITNESSES_PER_TAG])
    assert rep.violations_for("associativity") == first_triples(keys, 200)
