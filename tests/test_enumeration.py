"""The pruned enumeration engine against label arithmetic, a reference
search, and the exchange property it prunes with."""

import functools

import numpy as np
import pytest

from test_acceptance import sweep_groups
from twovalued.classify import all_labels_of_size, classify
from twovalued.cli import cli_main
from twovalued.core import Pair, TwoValuedGroup, verify_axioms
from twovalued.enumeration import BudgetExceeded, enumerate_all


@functools.lru_cache(maxsize=None)
def enumerated(k):
    return tuple(enumerate_all(k))


def reference_enumerate(n):
    """Every valid involutive commutative table of size n, found by the
    search that enumerate_all used before exchange pruning, forcing and type
    order: a row-major fill of the upper triangle with partial associativity
    checks only.  No isomorph removal."""
    T = [[None] * n for _ in range(n)]
    # a pair [a, b] has code 256^a + 256^b, so multisets compare as sums
    C = [[None] * n for _ in range(n)]

    def code(p):
        return (1 << (8 * p.lo)) + (1 << (8 * p.hi))

    for x in range(n):
        T[0][x] = T[x][0] = Pair(x, x)
        C[0][x] = C[x][0] = code(Pair(x, x))
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    diag_domain = [Pair.of(0, w) for w in range(n)]
    offd_domain = [Pair.of(a, b) for a in range(1, n) for b in range(a, n)]
    triples = [(x, y, z) for x in range(1, n) for y in range(1, n) for z in range(x, n)]
    per_cell = {(i, j): [tr for tr in triples if i in tr or j in tr] for (i, j) in cells}
    H = sum(0x80 << (8 * b) for b in range(n))

    def partial_ok(i, j):
        for (x, y, z) in per_cell[(i, j)]:
            pxy, pyz = T[x][y], T[y][z]
            if pxy is None or pyz is None:
                continue
            l1, l2 = C[pxy.lo][z], C[pxy.hi][z]
            r1, r2 = C[x][pyz.lo], C[x][pyz.hi]
            if l1 is not None and l2 is not None:
                if r1 is not None and r2 is not None:
                    if l1 + l2 != r1 + r2:
                        return False
                else:
                    half = r1 if r1 is not None else r2
                    if half is not None and (((l1 + l2) | H) - half) & H != H:
                        return False
            elif r1 is not None and r2 is not None:
                half = l1 if l1 is not None else l2
                if half is not None and (((r1 + r2) | H) - half) & H != H:
                    return False
        return True

    names = tuple(["e"] + [f"x{i}" for i in range(1, n)])
    found = []

    def place(ci):
        if ci == len(cells):
            X = TwoValuedGroup(names=names, table=tuple(tuple(row) for row in T))
            rep = verify_axioms(X)
            if rep.is_two_valued_group and rep.is_commutative and rep.is_involutive:
                found.append(X)
            return
        i, j = cells[ci]
        for p in diag_domain if i == j else offd_domain:
            T[i][j] = T[j][i] = p
            C[i][j] = C[j][i] = code(p)
            if partial_ok(i, j):
                place(ci + 1)
            T[i][j] = T[j][i] = None
            C[i][j] = C[j][i] = None

    if n == 1:
        return [TwoValuedGroup(names=names, table=((Pair(0, 0),),))]
    place(0)
    return found


def exchange_failures(X):
    """(x, y, z) with z in x*y but x not in y*z, for each z of x*y."""
    lo, hi = X.lo.astype(np.intp), X.hi.astype(np.intp)
    x, y = np.indices(lo.shape)
    fails = []
    for z in (lo, hi):
        bad = (lo[y, z] != x) & (hi[y, z] != x)
        fails += [(int(a), int(b), int(z[a, b])) for a, b in np.argwhere(bad)]
    return fails


@pytest.mark.parametrize("k", range(1, 8))
def test_one_group_per_label(k):
    labels = [classify(X) for X in enumerated(k)]
    assert len(labels) == len(set(labels))
    assert set(labels) == all_labels_of_size(k)


@pytest.mark.parametrize("k", range(1, 8))
def test_groups_verify_commutative_involutive(k):
    for X in enumerated(k):
        rep = verify_axioms(X)
        assert rep.is_two_valued_group and rep.is_commutative and rep.is_involutive


@pytest.mark.parametrize("k", range(1, 6))
def test_reference_search_finds_the_same_classes(k):
    want = {classify(X) for X in reference_enumerate(k)}
    assert {classify(X) for X in enumerated(k)} == want


def test_exchange_holds_on_the_sweep():
    groups = sweep_groups()
    assert len(groups) == 372
    bad = [(kind, param, m, fails[:3]) for kind, param, m, X in groups
           if (fails := exchange_failures(X))]
    assert not bad


def test_exchange_check_sees_a_broken_table():
    # 1*1 = [e, 1], 1*2 = [1, 1], 2*2 = [e, 2]: 1 is in 2*1 but 2 is not in 1*1
    lo = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    hi = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
    assert (2, 1, 1) in exchange_failures(TwoValuedGroup.from_arrays("eab", lo, hi))


@pytest.mark.parametrize("k, involutive, budget, groups", [
    pytest.param(5, True, 10, None, id="5-10"),
    pytest.param(6, True, 1000, None, id="6-1000"),
    pytest.param(7, True, 10_000, None, id="7-10000"),
    # the fewest nodes the involutive searches need: one less runs out
    pytest.param(5, True, 422, None, id="5-422"),
    pytest.param(5, True, 423, 4, id="5-423"),
    pytest.param(6, True, 5384, None, id="6-5384"),
    pytest.param(6, True, 5385, 3, id="6-5385"),
    # the general search forces values too (it needs 19,254 nodes)
    pytest.param(4, False, 20_000, 7, id="general-4-20000"),
])
def test_budget_exhaustion_raises(k, involutive, budget, groups):
    if groups is None:
        with pytest.raises(BudgetExceeded):
            enumerate_all(k, involutive, budget)
    else:
        assert len(enumerate_all(k, involutive, budget)) == groups


def test_size_eight_is_a_usage_error(capsys):
    assert cli_main(["enumerate", "8"]) == 2
    assert "up to size 7" in capsys.readouterr().err
