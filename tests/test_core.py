"""Core pair/table machinery: products, axiom checks, powers and orders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twovalued.core import (
    AmbiguousPower,
    Pair,
    TwoValuedGroup,
    order,
    power,
    product,
    product_fold,
    verify_axioms,
)
from twovalued.constructions import (
    FinAbelianGroup,
    double,
    principal,
    special_series,
    unipotent,
)


def test_pair_of_sorts():
    assert Pair.of(3, 1) == Pair(1, 3)
    assert Pair.of(2, 2) == Pair(2, 2)


def test_pair_other():
    p = Pair(1, 3)
    assert p.other(1) == 3
    assert p.other(3) == 1
    assert Pair(2, 2).other(2) == 2


def test_pair_other_rejects_foreign_element():
    with pytest.raises(ValueError):
        Pair(1, 3).other(2)


def test_pair_support_and_contains():
    assert Pair(1, 3).support() == (1, 3)
    assert Pair(2, 2).support() == (2,)
    assert 1 in Pair(1, 3)
    assert 2 not in Pair(1, 3)
    assert Pair(2, 2).is_doubled
    assert not Pair(1, 3).is_doubled


def test_table_must_be_square_with_sorted_cells():
    with pytest.raises(ValueError):
        TwoValuedGroup(names=("e", "x"), table=((Pair(0, 0),),))
    with pytest.raises(ValueError):
        TwoValuedGroup(
            names=("e", "x"),
            table=(
                (Pair(0, 0), Pair(1, 1)),
                (Pair(1, 1), Pair(1, 0)),  # unsorted cell
            ),
        )


def test_names_must_be_unique():
    with pytest.raises(ValueError):
        TwoValuedGroup(
            names=("e", "e"),
            table=(
                (Pair(0, 0), Pair(1, 1)),
                (Pair(1, 1), Pair(0, 0)),
            ),
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoValuedGroup(("e", "x"), ((Pair(0, 0), Pair(0, 1.7)), (Pair(1, 1), Pair(0, 0)))),
        lambda: TwoValuedGroup(("e", "x"), ((Pair(0, 0), Pair(1, 1)), (Pair(1, 1), Pair(0.9, 0.9)))),
        lambda: TwoValuedGroup.from_pairs(("e", "x"), [[("e", "e"), ("x", "x")], [("x", "x"), ("e", "e")]]),
    ],
    ids=["pair_float", "pair_float_truncating_to_0", "from_pairs_names"],
)
def test_constructors_refuse_cells_that_are_not_indices(build):
    with pytest.raises(ValueError, match="must hold element indices"):
        build()


CELL_MUTANTS = [0.5, 1.7, True, -1, 2**70, "g0", None]


@st.composite
def mutated_grids(draw):
    """An n x n grid of sorted index pairs, n <= 6, with up to three entries
    replaced by CELL_MUTANTS, and perhaps one row made ragged or dropped."""
    n = draw(st.integers(1, 6))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2).map(sorted)
    grid = draw(st.lists(st.lists(pairs, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
        grid[i][j][k] = draw(st.sampled_from(CELL_MUTANTS))
    i = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from([None, "longer row", "shorter row", "missing row"]))
    if defect == "longer row":
        grid[i].append([0, 0])
    elif defect == "shorter row":
        grid[i].pop()
    elif defect == "missing row":
        del grid[i]
    return [f"g{i}" for i in range(n)], grid


def reference_cells(n, grid, either_order):
    """(lo, hi) as nested lists when grid is an n x n table of index pairs,
    each sorted unless either_order is set; None when a constructor must
    refuse it.  An index is any int, True included, in 0..n-1."""
    if len(grid) != n or any(len(row) != n for row in grid):
        return None
    cells = [c for row in grid for c in row]
    if not all(isinstance(v, int) and 0 <= v < n for c in cells for v in c):
        return None
    if not either_order and any(a > b for a, b in cells):
        return None
    lo = [[min(c) for c in row] for row in grid]
    hi = [[max(c) for c in row] for row in grid]
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(mutated_grids())
def test_table_constructors_build_the_reference_or_raise_value_error(case):
    names, grid = case
    n = len(names)
    calls = [
        (False, lambda: TwoValuedGroup(names, [[Pair(*c) for c in row] for row in grid])),
        (True, lambda: TwoValuedGroup.from_pairs(names, grid)),
        (False, lambda: TwoValuedGroup.from_arrays(
            names, [[c[0] for c in row] for row in grid], [[c[1] for c in row] for row in grid])),
    ]
    for either_order, build in calls:
        expected = reference_cells(n, grid, either_order)
        if expected is None:
            with pytest.raises(ValueError):
                build()
        else:
            X = build()
            assert X.names == tuple(names)
            assert (X.lo.tolist(), X.hi.tolist()) == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoValuedGroup(("e", "x"), [[Pair(0, 0), Pair(1, 1)], None]),
        lambda: TwoValuedGroup(("e", "x"), [[Pair(0, 0), Pair(1, 1)], 3]),
        lambda: TwoValuedGroup(("e", "x"), None),
        lambda: TwoValuedGroup.from_pairs(("e", "x"), [[(0, 0), (1, 1)], None]),
        lambda: TwoValuedGroup.from_arrays(("e", "x"), [[0, 1], None], [[0, 1], None]),
    ],
    ids=["row_none", "row_int", "table_none", "from_pairs_row_none", "from_arrays_row_none"],
)
def test_table_constructors_refuse_rows_that_are_not_sequences(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoValuedGroup.from_pairs(["e", "a"], [0, 0, 1, 1, 1, 1]),
        lambda: TwoValuedGroup.from_arrays(["e", "a"], [[0, 1], [1]], [[0, 1], [1, 0]]),
        lambda: TwoValuedGroup.from_pairs(["e", "a"], [[(0, 0), (1, 1)], [(1, 1)]]),
    ],
    ids=["from_pairs_six_indices", "from_arrays_ragged_row", "from_pairs_ragged_grid"],
)
def test_table_constructors_name_the_shape_they_need(build):
    # the library's own message, not numpy's reshape or inhomogeneous-shape one
    with pytest.raises(ValueError, match=r"^multiplication table must be 2 x 2$"):
        build()


# 3-element quotient of C5 by negation; classes {0},{1,4},{2,3}.
# Hand check: 1+1=2, 1-1=0; 1+2=3~2, 1-2=-1~1; 2+2=4~1, 2-2=0.
X5_TABLE = (
    (Pair(0, 0), Pair(1, 1), Pair(2, 2)),
    (Pair(1, 1), Pair(0, 2), Pair(1, 2)),
    (Pair(2, 2), Pair(1, 2), Pair(0, 1)),
)


def test_product_matches_hand_table():
    X = principal(5)
    assert X.table == X5_TABLE
    assert product(X, 1, 1) == Pair(0, 2)
    assert product(X, 2, 2) == Pair(0, 1)
    assert product(X, 1, 2) == Pair(1, 2)


def test_product_fold_is_sorted_multiset():
    X = principal(5)
    # (1*1) folded with 2: supports of 0*2 and 2*2 merged
    assert product_fold(X, product(X, 1, 1), 2) == (0, 1, 2, 2)
    Y = special_series(2)
    # x*(x*x) in the 5-element special group: e*x and s*x both double x
    assert product_fold(Y, (0, 4), 1) == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "X",
    [
        principal(2),
        principal(5),
        principal(6),
        principal(4, 4),
        principal(2, 2, 2),
        unipotent(1),
        unipotent(2),
        special_series(1),
        special_series(3),
    ],
)
def test_verify_axioms_accepts_valid_groups(X):
    rep = verify_axioms(X)
    assert rep.is_two_valued_group
    assert rep.is_commutative
    assert rep.is_involutive
    assert rep.violations == []


def test_doubled_group_is_two_valued_but_not_involutive():
    X = double(FinAbelianGroup((3,)))
    rep = verify_axioms(X)
    assert rep.is_two_valued_group
    assert rep.is_commutative
    assert not rep.is_involutive


def test_verify_axioms_flags_broken_identity():
    bad = (
        (Pair(0, 0), Pair(0, 1)),  # e*x should be [x,x]
        (Pair(0, 1), Pair(0, 0)),
    )
    rep = verify_axioms(TwoValuedGroup(names=("e", "x"), table=bad))
    assert not rep.is_two_valued_group
    assert rep.violations_for("strong_identity")


def test_verify_axioms_flags_broken_associativity():
    # tamper one off-diagonal cell of the 4-element principal group
    X = principal(6)
    rows = [list(r) for r in X.table]
    rows[1][2] = rows[2][1] = Pair(1, 1)
    rep = verify_axioms(TwoValuedGroup(names=X.names, table=tuple(map(tuple, rows))))
    assert not rep.is_two_valued_group
    assert rep.violations_for("associativity")


def test_verify_axioms_flags_nonunique_inverse():
    # x*x and x*y both contain e: two inverse candidates for x
    bad = (
        (Pair(0, 0), Pair(1, 1), Pair(2, 2)),
        (Pair(1, 1), Pair(0, 0), Pair(0, 2)),
        (Pair(2, 2), Pair(0, 2), Pair(0, 0)),
    )
    rep = verify_axioms(TwoValuedGroup(names=("e", "x", "y"), table=bad))
    assert rep.violations_for("inverse_uniqueness")


def test_power_sequence_cyclic_case():
    X = principal(5)  # classes of 0,1,2 in C5
    assert [power(X, 1, k) for k in range(6)] == [0, 1, 2, 2, 1, 0]
    # negative exponents fold back onto the same sequence
    assert power(X, 1, -1) == 1
    assert power(X, 1, 7) == power(X, 1, 2)


def test_orders_match_underlying_cyclic_group():
    X = principal(6)
    assert [order(X, i) for i in range(4)] == [1, 6, 3, 2]
    Y = special_series(2)
    assert [order(Y, i) for i in range(5)] == [1, 4, 4, 4, 2]


def test_power_ambiguous_on_noninvolutive_double():
    X = double(FinAbelianGroup((3,)))
    with pytest.raises(AmbiguousPower):
        power(X, 1, 2)


def test_identity_power_and_order():
    X = principal(5)
    assert order(X, 0) == 1
    assert power(X, 0, 12345) == 0


def test_power_takes_integer_exponents_only():
    # k goes through operator.index, as the element x does
    X = principal(5)
    for x, k in ((1, 2.0), (2.0, 1), (1, "2")):
        with pytest.raises(TypeError):
            power(X, x, k)
    assert power(X, 1, np.int64(2)) == 2


@pytest.mark.parametrize(
    "x, index",
    [(-1, ValueError), (3, ValueError), (1.5, TypeError), ("1", TypeError), (True, 1), (np.int64(2), 2)],
    ids=["negative", "past_n", "float", "str", "bool", "numpy_int"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda X, x: product(X, x, 0),
        lambda X, x: product(X, 0, x),
        lambda X, x: product_fold(X, [0, x], 1),
        lambda X, x: product_fold(X, [1], x),
        lambda X, x: power(X, x, 2),
        lambda X, x: order(X, x),
    ],
    ids=["product_x", "product_y", "product_fold_m", "product_fold_b", "power", "order"],
)
def test_element_arguments_follow_one_rule(call, x, index):
    # an element goes through operator.index and must lie in 0..n-1: a
    # negative index does not wrap, and a float or a str is no element
    X = principal(5)
    if isinstance(index, type):
        with pytest.raises(index):
            call(X, x)
    else:
        assert call(X, x) == call(X, index)
