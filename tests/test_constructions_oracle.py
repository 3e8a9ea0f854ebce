"""The array-native constructions against per-cell references.

The references are the constructions as they were written before the
tables became lo/hi arrays: coset_group filling every cell with two
FinAbelianGroup.add calls, product_with_boolean and special_series building
one Pair per cell; double is the coset group of the identity map.  They
return (names, table) with table a tuple of Pair rows, so the tests compare
names and the Pair view cell for cell.
"""

import numpy as np
import pytest

from test_acceptance import sweep_labels
from twovalued.classify import all_labels_of_size, realize
from twovalued.constructions import (
    FinAbelianGroup,
    double,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from twovalued.core import Pair, TwoValuedGroup, index_dtype


def reference_coset_group(A: FinAbelianGroup, perm):
    n = A.size
    orbit_of = [-1] * n
    reps = []
    for i in range(n):
        if orbit_of[i] == -1:
            k = len(reps)
            orbit_of[i] = k
            orbit_of[perm[i]] = k
            reps.append(i)
    names = tuple(A.name_of(r) for r in reps)
    table = tuple(
        tuple(
            Pair.of(orbit_of[A.add(g, h)], orbit_of[A.add(g, perm[h])])
            for h in reps
        )
        for g in reps
    )
    return names, table


def reference_principal(*chain):
    A = FinAbelianGroup(tuple(chain))
    return reference_coset_group(A, [A.neg(i) for i in range(A.size)])


def reference_unipotent(n):
    A = FinAbelianGroup((2,) * (2 * n))

    def f(el):
        a, b = el[:n], el[n:]
        return a + tuple((x + y) % 2 for x, y in zip(a, b))

    return reference_coset_group(A, [A.index(f(A.element(i))) for i in range(A.size)])


def _bits(v, n):
    return tuple((v >> (n - 1 - k)) & 1 for k in range(n))


def reference_special_series(n):
    nv = 2 ** n
    s = nv
    names = ["e"]
    names += ["".join(map(str, _bits(v, n))) for v in range(1, nv)]
    names.append("s")

    def cell(i, j):
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
        z = i ^ j
        return Pair.of(z, z)

    size = nv + 1
    return tuple(names), tuple(tuple(cell(i, j) for j in range(size)) for i in range(size))


def reference_product_with_boolean(names, table, m):
    if m == 0:
        return names, table
    n = len(names)
    nw = 2 ** m
    new_names = tuple(
        f"{names[x]}|{''.join(map(str, _bits(w, m)))}" for w in range(nw) for x in range(n)
    )
    rows = []
    for w1 in range(nw):
        for x1 in range(n):
            row = []
            for w2 in range(nw):
                w = w1 ^ w2
                for x2 in range(n):
                    p = table[x1][x2]
                    row.append(Pair.of(w * n + p.lo, w * n + p.hi))
            rows.append(tuple(row))
    return new_names, tuple(rows)


def build(kind, param, m):
    if kind == "principal":
        X, ref = principal(*param), reference_principal(*param)
    elif kind == "unipotent":
        X, ref = unipotent(param), reference_unipotent(param)
    elif kind == "double":
        A = FinAbelianGroup(param)
        X, ref = double(A), reference_coset_group(A, range(A.size))
    else:
        X, ref = special_series(param), reference_special_series(param)
    return product_with_boolean(X, m), reference_product_with_boolean(*ref, m)


def assert_matches(X: TwoValuedGroup, ref):
    names, table = ref
    assert X.names == names
    assert X.table == table
    assert X.lo.dtype == index_dtype(len(X))
    Y = TwoValuedGroup(names=X.names, table=X.table)
    assert Y == X
    assert hash(Y) == hash(X)


def test_sweep_constructions_match_reference():
    for kind, param, m in sweep_labels():
        assert_matches(*build(kind, param, m))


@pytest.mark.parametrize(
    "kind, param",
    [("principal", (32, 32)), ("unipotent", 4), ("double", (2, 6, 12))],
    ids=["principal32x32", "unipotent4", "double2x6x12"],
)
def test_large_constructions_match_reference(kind, param):
    assert_matches(*build(kind, param, 0))


@pytest.mark.parametrize("m", range(5))
def test_product_with_boolean_matches_reference(m):
    assert_matches(*build("principal", (3, 3), m))


def reference_label_names(label):
    """The element names of realize(label), built one element at a time."""
    if label.kind == "principal":
        A = FinAbelianGroup(label.chain)
        return tuple(A.name_of(r) for r in range(A.size) if r <= A.neg(r))
    series = reference_unipotent if label.kind == "unipotent" else reference_special_series
    names = series(label.n)[0]
    return tuple(
        f"{x}|{''.join(map(str, _bits(w, label.m)))}" for w in range(2**label.m) for x in names
    ) if label.m else names


def test_label_names_match_reference():
    for k in range(1, 60):
        for label in all_labels_of_size(k):
            assert realize(label).names == reference_label_names(label), label


def test_tables_are_read_only():
    X = principal(6, 6)
    with pytest.raises(ValueError):
        X.lo[1, 1] = 0
    with pytest.raises(ValueError):
        X.hi[1, 1] = 0
    assert np.all(X.lo <= X.hi)
