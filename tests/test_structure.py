"""Structural analysis: Boolean subgroup action, quotients, splitting."""

import tracemalloc

import numpy as np
import pytest

from test_structure_oracle import reference_in_span, reference_sign_rows
from twovalued.cli import cli_main, write_group
from twovalued.core import TwoValuedGroup, order, verify_axioms
from twovalued.constructions import (
    FinAbelianGroup,
    double,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from twovalued.structure import (
    UNDEFINED,
    NotOrderTwo,
    NotSubgroup,
    boolean_subgroup,
    branching_set,
    is_homomorphism,
    is_special,
    quotient,
    split_direct_factor,
    squares_subgroup,
    subgroup_closure,
    v_dot,
    _sign_forms,
)
from twovalued.classify import are_isomorphic, classify


def test_v_dot_identity_acts_trivially():
    X = principal(5)
    for x in range(3):
        assert v_dot(X, 0, x) == x


def test_v_dot_undefined_on_genuine_pair():
    X = principal(5)
    assert v_dot(X, 1, 2) is UNDEFINED


def test_undefined_is_falsy_singleton():
    assert not UNDEFINED
    assert UNDEFINED is not None


def test_v_dot_defined_for_order_two_elements():
    # an order-2 element acts on every element single-valuedly
    X = principal(2, 6)
    V = [x for x in range(len(X.names)) if order(X, x) <= 2]
    for v in V:
        for x in range(len(X.names)):
            assert v_dot(X, v, x) is not UNDEFINED


def test_boolean_subgroup_of_unipotent():
    U = unipotent(2)
    V = boolean_subgroup(U)
    assert V.dim == 2
    assert len(V.members) == 4
    assert 0 in V.members


def test_boolean_subgroup_of_special_is_e_s():
    Y = special_series(2)
    V = boolean_subgroup(Y)
    assert set(V.members) == {0, 4}
    assert V.dim == 1


def test_boolean_subgroup_dot_table():
    # the order-<=2 elements form an F2-space under the dot action
    X = principal(2, 2)
    V = boolean_subgroup(X)
    assert V.dim == 2
    assert V.dot(1, 1) == 0


@pytest.mark.parametrize(
    "X,expected",
    [
        (special_series(2), True),
        (special_series(1), False),   # only one nontrivial V element: no pair
        (unipotent(2), False),
        (principal(5), False),
        (principal(4, 4), False),
    ],
)
def test_is_special_flag(X, expected):
    flag, witnesses = is_special(X)
    assert flag is expected
    assert (len(witnesses) > 0) is expected


def test_is_special_witnesses_are_doubled_high_order_pairs():
    Y = special_series(3)
    flag, witnesses = is_special(Y)
    assert flag
    for x, y in witnesses:
        assert order(Y, x) > 2 and order(Y, y) > 2
        assert Y.table[x][y].is_doubled


def test_squares_subgroup_examples():
    Y = special_series(2)
    assert squares_subgroup(Y) == frozenset({0, 4})
    assert squares_subgroup(double(FinAbelianGroup((2, 2)))) == frozenset({0})
    X6 = principal(6)
    assert {X6.names[i] for i in squares_subgroup(X6)} == {"0", "2"}


def test_subgroup_closure_grows_to_closed_set():
    X = principal(8)  # classes of 0..4
    S = subgroup_closure(X, {2})
    # 2*2 = [0,4] pulls in 4; closed afterwards
    assert S == frozenset({0, 2, 4})


def test_quotient_by_squares_of_special():
    Y = special_series(2)
    Q, cls = quotient(Y, {0, 4})
    assert len(Q.names) == 4
    assert cls[0] == cls[4]
    # the quotient is the doubled Boolean group of rank 2
    assert are_isomorphic(Q, double(FinAbelianGroup((2, 2))))


def test_quotient_class_names_use_smallest_member():
    Y = special_series(2)
    Q, cls = quotient(Y, {0, 4})
    assert Q.names[0] == "e"
    assert set(Q.names) == {"e", "01", "10", "11"}


def test_quotient_rejects_non_subgroup():
    X = principal(8)
    with pytest.raises(NotSubgroup):
        quotient(X, {0, 2})  # not closed: 2*2 = [0,4]


def test_quotient_projection_is_homomorphism():
    X = product_with_boolean(principal(5), 1)
    Y = subgroup_closure(X, {3})  # the C2 coordinate
    Q, cls = quotient(X, Y)
    rep = is_homomorphism(X, Q, cls)
    assert rep.is_homomorphism
    assert rep
    assert rep.kernel == frozenset(Y)
    assert rep.kernel_is_subgroup
    assert rep.image_is_subgroup
    assert rep.quotient_matches_image


def test_is_homomorphism_rejects_wrong_map():
    X = principal(5)
    # collapsing 2 onto 1 breaks products: f(2*2)=[0,1] but f(2)*f(2)=[0,2]
    rep = is_homomorphism(X, X, [0, 1, 1])
    assert not rep.is_homomorphism
    assert rep.mismatches
    assert not rep


def test_identity_map_is_homomorphism():
    X = principal(6)
    rep = is_homomorphism(X, X, list(range(4)))
    assert rep.is_homomorphism
    assert rep.kernel == frozenset({0})


@pytest.mark.parametrize(
    "run, bound",
    [
        (lambda X, u: is_homomorphism(X, X, list(range(len(X)))), 4),
        (lambda X, u: quotient(X, {X.identity, u}), 1),
        (lambda X, u: quotient(X, {X.identity}), 1.75),
    ],
    ids=["is_homomorphism", "quotient", "quotient_by_identity"],
)
def test_homomorphism_theorem_memory(run, bound):
    # n = 512: the theorem is read off the kernel's classes, with no quotient
    # group; a quotient gathers its table in the quotient's index dtype and
    # sorts its cells with one table more than its own
    X = product_with_boolean(principal(255), 2)
    u = boolean_subgroup(X).members[1]
    tracemalloc.start()
    try:
        run(X, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = X.lo.nbytes + X.hi.nbytes
    assert peak < bound * tables, f"traced peak {peak / tables:.2f}x the tables"


class TestSplitDirectFactor:
    def test_no_factor_on_odd_group(self):
        X = principal(5)
        base, m, names = split_direct_factor(X)
        assert m == 0
        assert base is X
        assert names == []

    def test_full_split_of_doubled_boolean(self):
        X = double(FinAbelianGroup((2, 2)))
        base, m, names = split_direct_factor(X)
        assert m == 2
        assert len(base.names) == 1

    def test_recovers_attached_boolean_factors(self):
        X = product_with_boolean(principal(5), 2)
        base, m, names = split_direct_factor(X)
        assert m == 2
        assert are_isomorphic(base, principal(5))
        assert len(names) == 2

    def test_square_order_two_element_does_not_split(self):
        # in the 3-element quotient of C4 the order-2 class is a square
        X = principal(4)
        base, m, _ = split_direct_factor(X)
        assert m == 0
        assert base is X

    def test_split_preserves_isomorphism_class(self):
        X = product_with_boolean(unipotent(2), 1)
        base, m, _ = split_direct_factor(X)
        assert m == 1
        Y = product_with_boolean(base, 1)
        assert are_isomorphic(X, Y)


class TestBranchingSet:
    def test_order_four_preimage_is_branch_point(self):
        X = principal(4)  # orders 1, 4, 2
        data = branching_set(X, 2)
        assert len(data.quotient.names) == 2
        assert data.R == frozenset({1})

    def test_product_extension_has_empty_branching_set(self):
        X = product_with_boolean(principal(5), 1)
        u = X.names.index("0|1")
        data = branching_set(X, u)
        assert data.R == frozenset()

    def test_projection_is_consistent(self):
        X = principal(4)
        data = branching_set(X, 2)
        assert data.projection[0] == data.projection[2]
        assert data.projection[1] != data.projection[0]

    def test_rejects_non_order_two_element(self):
        X = principal(4)
        with pytest.raises(NotOrderTwo):
            branching_set(X, 1)  # order 4
        with pytest.raises(NotOrderTwo):
            branching_set(X, 0)  # identity


def test_quotient_of_unipotent_by_v_is_doubled_boolean():
    U = unipotent(2)
    V = boolean_subgroup(U)
    Q, _ = quotient(U, set(V.members))
    rep = verify_axioms(Q)
    assert rep.is_two_valued_group
    assert all(p.is_doubled for row in Q.table for p in row)


@pytest.mark.parametrize(
    "X",
    [
        principal(2),
        principal(5),
        product_with_boolean(principal(4, 8), 1),
        product_with_boolean(principal(3, 9), 2),
        product_with_boolean(unipotent(3), 1),
        product_with_boolean(special_series(3), 2),
    ],
    ids=["p2", "p5", "p4x8_m1", "p3x9_m2", "u3_m1", "s3_m2"],
)
def test_sign_rows_match_per_cell_loop(X):
    # the rows in generator forms admit a sign homomorphism with f(w) = 1
    # for exactly the elements w that the per-cell rows of n bits do
    _, forms = _sign_forms(X.lo, X.hi)
    x, y = np.triu_indices(len(X))
    xy = forms[x] ^ forms[y]
    rows = [int(r) for z in (X.lo[x, y], X.hi[x, y]) for r in xy ^ forms[z]]
    cell_rows = reference_sign_rows(X)
    split = [w for w in range(len(X)) if not reference_in_span(1 << w, cell_rows)]
    assert [w for w in range(len(X)) if not reference_in_span(int(forms[w]), rows)] == split


def _flat_table(n: int) -> TwoValuedGroup:
    """n elements, every product of two non-identity elements [e, e]."""
    lo = np.zeros((n, n), np.intp)
    lo[0] = lo[:, 0] = np.arange(n)
    return TwoValuedGroup.from_arrays([str(i) for i in range(n)], lo, lo)


def test_sign_forms_hold_at_most_64_generators(tmp_path, capsys):
    # each non-identity element of a flat table is a generator of its own
    Y = _flat_table(65)
    gens, forms = _sign_forms(Y.lo, Y.hi)
    assert gens == list(range(1, 65))
    assert int(forms[64]) == 1 << 63
    X = _flat_table(70)
    with pytest.raises(ValueError, match="at most 64 generators"):
        split_direct_factor(X)
    # classify reads rank 3 and one C2 factor off 72 = 2^3 (2^3 + 1), so it
    # splits; it refuses 70, a size of no label, before splitting
    with pytest.raises(ValueError, match="at most 64 generators"):
        classify(_flat_table(72))
    assert verify_axioms(X).counts["associativity"] == 323_748
    # the command line verifies first and refuses the table
    path = tmp_path / "flat.json"
    write_group(X, str(path))
    assert cli_main(["classify", str(path)]) == 1
    assert "not a valid" in capsys.readouterr().err


@pytest.mark.parametrize("n", [7, 70])
def test_classify_refuses_a_flat_table_of_no_labelled_size(n):
    # every order is <= 2 and no pair is special, but n is not
    # 2^(m+k-1) (2^k + 1)
    with pytest.raises(ValueError, match=rf"orders in \{{1,2,4\}} but size {n} "):
        classify(_flat_table(n))


@pytest.mark.parametrize("i", [-1, 7], ids=["minus_one", "n"])
def test_out_of_range_element_index_is_value_error(i):
    from twovalued.classify import reconstruct_abelian
    from twovalued.core import power

    X = principal(12)
    assert len(X) == 7
    calls = [
        lambda: power(X, i, 2),
        lambda: order(X, i),
        lambda: v_dot(X, i, 0),
        lambda: v_dot(X, 0, i),
        lambda: branching_set(X, i),
        lambda: reconstruct_abelian(X, i),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="out of range"):
            call()
