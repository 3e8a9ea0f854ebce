"""Construction layer: abelian groups, involutions, the three series."""

import itertools
import tracemalloc

import pytest

from twovalued.core import Pair, order, verify_axioms
from twovalued.constructions import (
    FinAbelianGroup,
    InvolutiveAutomorphism,
    NotAutomorphism,
    NotInvolutive,
    coset_group,
    double,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)


class TestFinAbelianGroup:
    def test_index_element_round_trip(self):
        A = FinAbelianGroup((2, 3, 4))
        assert A.size == 24
        for i in range(A.size):
            assert A.index(A.element(i)) == i

    def test_zero_is_index_zero(self):
        A = FinAbelianGroup((5, 7))
        assert A.element(0) == (0, 0)

    def test_add_neg(self):
        A = FinAbelianGroup((4,))
        assert A.add(1, 3) == 0
        assert A.neg(1) == 3
        assert A.neg(0) == 0

    def test_orders_in_c6(self):
        A = FinAbelianGroup((6,))
        assert [A.order_of(i) for i in range(6)] == [1, 6, 3, 2, 3, 6]

    def test_trivial_group(self):
        A = FinAbelianGroup(())
        assert A.size == 1
        assert A.add(0, 0) == 0

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            FinAbelianGroup((1, 4))

    def test_names(self):
        A = FinAbelianGroup((2, 2))
        assert A.name_of(3) == "1,1"


class TestInvolutiveAutomorphism:
    def test_negation_on_c5(self):
        A = FinAbelianGroup((5,))
        iota = InvolutiveAutomorphism.negation(A)
        assert iota.perm == (0, 4, 3, 2, 1)

    def test_from_map_round_trip(self):
        A = FinAbelianGroup((2, 2))
        swap = InvolutiveAutomorphism.from_map(A, lambda t: (t[1], t[0]))
        assert swap.perm == (0, 2, 1, 3)

    def test_rejects_non_permutation(self):
        A = FinAbelianGroup((3,))
        with pytest.raises(NotAutomorphism):
            InvolutiveAutomorphism(A, (0, 0, 0))

    def test_rejects_non_additive_permutation(self):
        A = FinAbelianGroup((3,))
        # transposition moving 0 cannot be additive
        with pytest.raises(NotAutomorphism):
            InvolutiveAutomorphism(A, (1, 0, 2))

    def test_rejects_non_involutive_automorphism(self):
        A = FinAbelianGroup((5,))
        # x -> 2x is an automorphism of C5 of multiplicative order 4
        with pytest.raises(NotInvolutive):
            InvolutiveAutomorphism.from_map(A, lambda t: ((2 * t[0]) % 5,))


def principal_size(chain):
    prod = 1
    for d in chain:
        prod *= d
    r = sum(1 for d in chain if d % 2 == 0)
    return (prod + 2**r) // 2


@pytest.mark.parametrize(
    "chain",
    [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (4, 4), (3, 3), (2, 6), (8,), (2, 2, 2)],
)
def test_principal_sizes(chain):
    assert len(principal(*chain).names) == principal_size(chain)


def test_principal_rejects_non_divisor_chain():
    with pytest.raises(ValueError):
        principal(4, 2)  # chain must be ascending under divisibility


def test_principal_accepts_empty_chain():
    X = principal()
    assert len(X.names) == 1


@pytest.mark.parametrize("n,size", [(1, 3), (2, 10), (3, 36)])
def test_unipotent_sizes(n, size):
    assert len(unipotent(n).names) == size


@pytest.mark.parametrize("n,size", [(1, 3), (2, 5), (3, 9), (4, 17)])
def test_special_sizes(n, size):
    assert len(special_series(n).names) == size


def test_unipotent_rank_one_table():
    # 3 elements: identity, the fixed class (0,1), the fused class {(1,0),(1,1)}
    U = unipotent(1)
    assert U.names == ("0,0", "0,1", "1,0")
    assert U.table == (
        (Pair(0, 0), Pair(1, 1), Pair(2, 2)),
        (Pair(1, 1), Pair(0, 0), Pair(2, 2)),
        (Pair(2, 2), Pair(2, 2), Pair(0, 1)),
    )


def test_special_series_rank_two_table():
    # e, three involutions x,y,z of the Boolean group, extra element s
    Y = special_series(2)
    assert Y.names == ("e", "01", "10", "11", "s")
    e, x, y, z, s = range(5)
    assert Y.table[x][x] == Pair(e, s)
    assert Y.table[s][s] == Pair(e, e)
    assert Y.table[s][x] == Pair(x, x)
    assert Y.table[x][y] == Pair(z, z)
    assert Y.table[x][z] == Pair(y, y)


def test_special_rejects_rank_zero():
    with pytest.raises(ValueError):
        special_series(0)


def test_coset_group_equals_principal_for_negation():
    A = FinAbelianGroup((6,))
    X = coset_group(A, InvolutiveAutomorphism.negation(A))
    assert X.table == principal(6).table


def test_coset_group_identity_orbit_is_index_zero():
    A = FinAbelianGroup((2, 4))
    X = coset_group(A, InvolutiveAutomorphism.negation(A))
    assert X.names[0] == "0,0"


def test_product_with_boolean_size_and_names():
    X = product_with_boolean(principal(5), 2)
    assert len(X.names) == 12
    assert X.names[0] == "0|00"
    assert all("|" in nm for nm in X.names)
    assert verify_axioms(X).is_two_valued_group


def test_product_with_boolean_zero_factors_is_identity_op():
    X = principal(5)
    assert product_with_boolean(X, 0) is X


def test_product_with_boolean_projects_onto_factor():
    # products in X x C2^m restrict to products of X on the first block
    X = principal(6)
    P = product_with_boolean(X, 1)
    n = len(X.names)
    for i, j in itertools.product(range(n), repeat=2):
        p, q = X.table[i][j], P.table[i][j]
        assert (p.lo, p.hi) == (q.lo, q.hi)


def test_double_tables_are_doubled():
    X = double(FinAbelianGroup((4,)))
    assert all(p.is_doubled for row in X.table for p in row)
    assert verify_axioms(X).is_two_valued_group


def test_double_of_boolean_group_is_involutive():
    X = double(FinAbelianGroup((2, 2)))
    rep = verify_axioms(X)
    assert rep.is_two_valued_group and rep.is_involutive


@pytest.mark.parametrize(
    "build",
    [lambda: principal(5999), lambda: unipotent(6), lambda: special_series(11)],
    ids=["principal5999", "unipotent6", "special11"],
)
def test_construction_peaks_near_its_output(build):
    # n = 3,000, 2,080 and 2,049 in uint16: the tables are filled in row
    # blocks or in place, and no check reads them again, so the peak is the
    # output, a block and the spread index of the orbit space
    tracemalloc.start()
    try:
        X = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (X.lo.nbytes + X.hi.nbytes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unipotent_order_profile(n):
    # identity, |V|-1 strong involutions, the rest of order 4
    U = unipotent(n)
    orders = sorted(order(U, i) for i in range(len(U.names)))
    v = 2**n
    assert orders == [1] + [2] * (v - 1) + [4] * (len(U.names) - v)


@pytest.mark.parametrize("factors", [(4,), (2, 2), (6,), (2, 4)])
def test_generator_check_matches_all_pairs(factors):
    # checking additivity on the unit generators accepts exactly the
    # permutations that are additive on all pairs
    A = FinAbelianGroup(factors)
    n = A.size
    perms = list(itertools.permutations(range(n)))
    if len(perms) > 2000:
        perms = [p for p in perms if p[0] == 0][::7]
    found = 0
    for p in perms:
        additive = all(
            p[A.add(i, j)] == A.add(p[i], p[j]) for i in range(n) for j in range(n)
        )
        try:
            InvolutiveAutomorphism(A, p)
            accepted = True
        except NotAutomorphism:
            accepted = False
        except NotInvolutive:
            accepted = True
        assert accepted == additive, p
        found += additive
    assert found > 0
