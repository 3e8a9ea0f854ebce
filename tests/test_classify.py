"""Classification: labels, reconstruction, isomorphism decision, search."""

import importlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import twovalued
from twovalued.core import TwoValuedGroup, _generating_set, verify_axioms
from twovalued.constructions import (
    FinAbelianGroup,
    double,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from twovalued.classify import (
    ClassLabel,
    NotAbelian,
    NotAssociative,
    Timeout,
    all_labels_of_size,
    are_isomorphic,
    classify,
    invariant_factors,
    merge_chains,
    realize,
    reconstruct_abelian,
    witness_isomorphism,
)

SRC = os.path.dirname(os.path.dirname(twovalued.__file__))


class TestMergeChains:
    def test_single_primes(self):
        assert merge_chains((4,), (2,)) == (2, 4)
        assert merge_chains((3,), (3,)) == (3, 3)

    def test_mixed_primes_collapse(self):
        # C6 x C4 = C2 x C12 in invariant factor form
        assert merge_chains((6,), (4,)) == (2, 12)

    def test_empty_chain_is_neutral(self):
        assert merge_chains((), (2, 6)) == (2, 6)
        assert merge_chains((4, 4), ()) == (4, 4)

    def test_boolean_merge(self):
        assert merge_chains((4, 4), (2, 2, 2)) == (2, 2, 2, 4, 4)


class TestClassLabel:
    def test_principal_requires_divisibility_chain(self):
        with pytest.raises(ValueError):
            ClassLabel.principal_label((4, 2))
        with pytest.raises(ValueError):
            ClassLabel.principal_label((3, 4))

    def test_small_unipotent_ranks_fold_into_principal(self):
        assert ClassLabel.unipotent_label(1, 0) == ClassLabel.principal_label((4,))
        assert ClassLabel.unipotent_label(2, 1) == ClassLabel.principal_label((2, 4, 4))
        lab = ClassLabel.unipotent_label(3, 0)
        assert lab.kind == "unipotent" and lab.n == 3

    def test_small_special_rank_folds_into_principal(self):
        assert ClassLabel.special_label(1, 0) == ClassLabel.principal_label((4,))
        lab = ClassLabel.special_label(2, 2)
        assert lab.kind == "special" and (lab.n, lab.m) == (2, 2)

    def test_size_formulas(self):
        assert ClassLabel.principal_label((4, 4)).size() == 10
        assert ClassLabel.unipotent_label(3, 1).size() == 72
        assert ClassLabel.special_label(2, 1).size() == 10

    def test_str_forms(self):
        assert str(ClassLabel.principal_label((2, 6))) == "Principal(2,6)"
        assert str(ClassLabel.unipotent_label(3, 0)) == "Unipotent(3,0)"
        assert str(ClassLabel.special_label(2, 1)) == "Special(2,1)"


@pytest.mark.parametrize(
    "label",
    [
        ClassLabel.principal_label(()),
        ClassLabel.principal_label((5,)),
        ClassLabel.principal_label((2, 6)),
        ClassLabel.unipotent_label(3, 0),
        ClassLabel.special_label(2, 0),
        ClassLabel.special_label(2, 2),
    ],
)
def test_realize_then_classify_round_trip(label):
    X = realize(label)
    assert len(X.names) == label.size()
    assert classify(X) == label


class TestClassify:
    def test_trivial_group(self):
        assert classify(principal()) == ClassLabel.principal_label(())

    def test_odd_cyclic(self):
        assert str(classify(principal(9))) == "Principal(9)"

    def test_boolean_only(self):
        X = double(FinAbelianGroup((2, 2, 2)))
        assert str(classify(X)) == "Principal(2,2,2)"

    def test_exceptional_unipotent_rank_two(self):
        assert str(classify(unipotent(2))) == "Principal(4,4)"

    def test_exceptional_special_rank_one(self):
        assert str(classify(special_series(1))) == "Principal(4)"

    def test_unipotent_rank_three_survives(self):
        assert str(classify(unipotent(3))) == "Unipotent(3,0)"

    def test_principal_chain_444_stays_principal(self):
        assert str(classify(principal(4, 4, 4))) == "Principal(4,4,4)"

    def test_special_with_boolean_factor(self):
        X = product_with_boolean(special_series(2), 2)
        assert str(classify(X)) == "Special(2,2)"

    def test_mixed_order_chain(self):
        assert str(classify(principal(2, 12))) == "Principal(2,12)"

    def test_attached_factors_merge_into_chain(self):
        X = product_with_boolean(principal(4), 1)
        assert str(classify(X)) == "Principal(2,4)"

    def test_unipotent_with_factor(self):
        X = product_with_boolean(unipotent(3), 1)
        assert str(classify(X)) == "Unipotent(3,1)"

    def test_special_part_of_size_one_is_a_named_error(self):
        # a 4-element table, no group, whose a*b = [c, c] is a special pair:
        # the special part 4 / 2^2 = 1 has no rank, and 1 << -1 is not taken
        lo = [[0, 1, 2, 3], [1, 0, 3, 1], [2, 3, 0, 1], [3, 1, 1, 0]]
        hi = [[0, 1, 2, 3], [1, 3, 3, 2], [2, 3, 3, 2], [3, 2, 2, 0]]
        X = TwoValuedGroup.from_arrays("eabc", lo, hi)
        with pytest.raises(ValueError, match="special part has size 1, not of the form"):
            classify(X)

    def test_only_cocycle_branch_splits_c2_factors(self, monkeypatch):
        # X = X' x C2^m has the special pairs of X' and its orders outside
        # {1, 2, 4}, so the principal and special branches never split
        module = importlib.import_module("twovalued.classify")
        real = module.split_direct_factor

        def refuse(X):
            raise AssertionError("split_direct_factor called")

        monkeypatch.setattr(module, "split_direct_factor", refuse)
        X = product_with_boolean(principal(3, 9), 2)
        assert str(classify(X)) == "Principal(6,18)"
        assert str(classify(product_with_boolean(special_series(3), 2))) == "Special(3,2)"
        # the cocycle branch reads rank k <= 2 and m off |X| without a split
        assert str(classify(principal(2, 2, 2))) == "Principal(2,2,2)"
        assert str(classify(product_with_boolean(principal(4), 3))) == "Principal(2,2,2,4)"
        assert str(classify(product_with_boolean(principal(4, 4), 2))) == "Principal(2,2,4,4)"
        assert str(classify(principal())) == "Principal()"

        calls = []
        monkeypatch.setattr(
            module, "split_direct_factor", lambda X: calls.append(X) or real(X)
        )
        for X, label in [
            (product_with_boolean(unipotent(3), 1), "Unipotent(3,1)"),
            (product_with_boolean(principal(4, 4, 4), 1), "Principal(2,4,4,4)"),
        ]:
            calls.clear()
            assert str(classify(X)) == label
            assert len(calls) == 1

    def test_principal_branch_fits_in_one_gib(self):
        # the chain comes from order counts, so no |A| x |A| table (or its
        # |A|^3 associativity gather) is built for |A| = 512
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from twovalued import classify, principal\n"
            "print(classify(principal(16, 32)))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Principal(16,32)"

    def test_cyclic_principal_branch_peaks_below_four_bytes_a_cell(self):
        # the squares are a view of the diagonal and the counts gather n
        # cells a step, so only the special-pair mask is n x n
        X = principal(2047)
        n = len(X)
        tracemalloc.start()
        try:
            assert str(classify(X)) == "Principal(2047)"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n


def chains_with_product_up_to(limit: int):
    """Reference: every divisibility chain (d1 | ... | dk), di >= 2, with
    product <= limit, the empty chain included, by search over all d."""
    out = [()]
    stack = [((), 1)]
    while stack:
        chain, prod = stack.pop()
        last = chain[-1] if chain else 1
        for d in range(2, limit // prod + 1):
            if d % last == 0:
                nxt = chain + (d,)
                out.append(nxt)
                stack.append((nxt, prod * d))
    return out


def reference_labels_of_size(k: int) -> set[ClassLabel]:
    """Every label of size k from every chain with product <= 2k and every
    family member up to size k."""
    labels = [ClassLabel.principal_label(chain) for chain in chains_with_product_up_to(2 * k)]
    for family in (ClassLabel.unipotent_label, ClassLabel.special_label):
        n = 1
        while family(n, 0).size() <= k:
            labels += [family(n, m) for m in range(k.bit_length())]
            n += 1
    return {lab for lab in labels if lab.size() == k}


class TestAllLabelsOfSize:
    # label counts by size, cross-checked against the exhaustive search
    @pytest.mark.parametrize(
        "k,count", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (6, 3), (10, 6)]
    )
    def test_counts(self, k, count):
        assert len(all_labels_of_size(k)) == count

    def test_size_five_contents(self):
        labels = {str(l) for l in all_labels_of_size(5)}
        assert labels == {
            "Principal(8)",
            "Principal(9)",
            "Principal(3,3)",
            "Special(2,0)",
        }

    def test_sizes_are_consistent(self):
        for k in range(1, 12):
            for lab in all_labels_of_size(k):
                assert lab.size() == k

    def test_matches_the_chain_search(self):
        for k in range(1, 501):
            assert all_labels_of_size(k) == reference_labels_of_size(k), k

    def test_size_of_a_billion_in_one_gib(self):
        # only the chains of the 31 candidate products 2k - 2^r are listed,
        # not every chain with product <= 2k
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from twovalued import all_labels_of_size\n"
            "for label in sorted(map(str, all_labels_of_size(10**9))):\n"
            "    print(label)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        labels = proc.stdout.split()
        assert len(labels) == 17
        assert {"Principal(1999999998)", "Principal(1999999999)"} <= set(labels)

    def test_no_duplicate_canonical_forms(self):
        # exceptional identifications must already be canonicalized away
        for k in (3, 10, 36):
            labels = all_labels_of_size(k)
            assert len({str(l) for l in labels}) == len(labels)
            for lab in labels:
                if lab.kind == "unipotent":
                    assert lab.n >= 3
                if lab.kind == "special":
                    assert lab.n >= 2


class TestInvariantFactors:
    def test_of_fin_abelian_group(self):
        assert invariant_factors(FinAbelianGroup((4, 6))) == (2, 12)
        assert invariant_factors(FinAbelianGroup(())) == ()
        assert invariant_factors(FinAbelianGroup((2, 3))) == (6,)

    def test_of_reconstruction_table(self):
        res = reconstruct_abelian(principal(3, 3))
        assert isinstance(res.table, np.ndarray) and not res.table.flags.writeable
        assert invariant_factors(res.table) == (3, 3)
        assert invariant_factors(res.table.tolist()) == (3, 3)

    @pytest.mark.parametrize("table", [[[0, 1]], [0, 1], [[0.0, 1.0], [1.0, 0.0]],
                                       np.zeros((0, 0), dtype=int)],
                             ids=["not_square", "one_dimensional", "float", "empty"])
    def test_rejects_a_table_that_is_no_square_integer_array(self, table):
        with pytest.raises(ValueError, match="square integer array"):
            invariant_factors(table)


def _entry_out_of_range(t):
    t[1][2] = len(t)


def _row_without_identity(t):
    # row 1 holds 0 off column 0, so index 0 stays an identity
    t[1][t[1].index(0)] = 1


def _rows_repeating_an_entry(t):
    # t[1][b] = t[b][1] = 1 keeps the table commutative and a 0 in every row,
    # as t[1][b] != 0, but rows 1 and b no longer are permutations
    b = next(b for b in range(2, len(t)) if t[1][b])
    t[1][b] = t[b][1] = 1
    assert t == [list(col) for col in zip(*t)] and all(0 in row for row in t)
    assert sorted(t[1]) != list(range(len(t)))


class TestReconstruction:
    @pytest.mark.parametrize("chain", [(3,), (5,), (6,), (8,), (2, 6)])
    def test_recovers_invariant_factors(self, chain):
        X = principal(*chain)
        res = reconstruct_abelian(X)
        assert res.chain == chain

    def test_every_admissible_seed_gives_same_answer(self):
        X = principal(2, 6)
        from twovalued.core import order

        seeds = [t for t in range(len(X.names)) if order(X, t) not in (1, 2, 4)]
        assert seeds
        for t in seeds:
            assert reconstruct_abelian(X, t).chain == (2, 6)

    def test_rejects_inadmissible_seed(self):
        X = principal(6)
        with pytest.raises(ValueError):
            reconstruct_abelian(X, 0)  # identity has order 1

    def test_rejects_special_group(self):
        with pytest.raises(ValueError):
            reconstruct_abelian(special_series(2))

    def test_corrupted_table_with_permutation_rows_is_not_associative(self):
        # for d of order 2, swap the values 2a and 2a + d in the cells
        # (a, a), (a, a + d), (a + d, a), (a + d, a + d): the table stays
        # commutative with permutation rows, but is no group table any more
        t = reconstruct_abelian(principal(4, 8)).table.tolist()
        n = len(t)
        d = next(x for x in range(1, n) if t[x][x] == 0)
        a = next(x for x in range(1, n) if x != d)
        ad = t[a][d]
        t[a][a], t[a][ad] = t[a][ad], t[a][a]
        t[ad][a], t[ad][ad] = t[a][ad], t[a][a]
        assert all(sorted(row) == list(range(n)) for row in t)
        with pytest.raises(NotAssociative):
            invariant_factors(t)

    @pytest.mark.parametrize(
        "corrupt, error, match",
        [
            (_entry_out_of_range, ValueError, r"^group table entries must lie in 0\.\.31$"),
            (_row_without_identity, NotAbelian, r"^element 1 has no inverse$"),
            (_rows_repeating_an_entry, NotAssociative, r"^first failing triple: "),
        ],
        ids=["out_of_range", "no_inverse", "rows_not_permutations"],
    )
    def test_corrupted_table_is_refused(self, corrupt, error, match):
        t = reconstruct_abelian(principal(4, 8)).table.tolist()
        corrupt(t)
        with pytest.raises(error, match=match):
            invariant_factors(t)

    def test_table_that_fails_only_at_a_later_generator(self):
        # t'(x, y) = x + y + f(x + H, y + H) for H = <1> and f nonzero on
        # one pair of cosets only: 1 passes Light's test, the second
        # generator 8 does not.  Generators and message are those of the
        # greedy right-multiplication closure this test used before.
        t = np.array(reconstruct_abelian(principal(4, 8)).table)
        H = [0]
        while t[H[-1], 1] != 0:
            H.append(int(t[H[-1], 1]))
        coset = np.full(len(t), -1)
        for x in range(len(t)):
            if coset[x] < 0:
                coset[t[x, H]] = x
        assert sorted(set(coset.tolist())) == [0, 8, 9, 24]
        u = t.copy()
        for p, q in ((8, 9), (9, 8)):
            cells = np.ix_(coset == p, coset == q)
            u[cells] = t[t[cells], 1]
        assert _generating_set(t, t, False) == _generating_set(u, u, False) == [1, 8]
        with pytest.raises(NotAssociative, match=r"^first failing triple: \(8, 8, 9\)$"):
            invariant_factors(u)

    def test_table_is_group_with_doubling_pairs(self):
        X = principal(5)
        res = reconstruct_abelian(X)
        n = len(res.labels)
        assert n == 5
        # elements are pairs (x, p) with p a component of t*x
        for x, p in res.pairs:
            assert p in X.table[res.t][x]
        # identity class appears once, every other class exactly twice
        from collections import Counter

        first = Counter(x for x, _ in res.pairs)
        assert first[0] == 1
        assert all(first[x] == 2 for x in range(1, len(X.names)))


class TestIsomorphism:
    def test_exceptional_pair_is_isomorphic(self):
        assert are_isomorphic(principal(4, 4), unipotent(2))

    def test_same_size_different_structure(self):
        assert not are_isomorphic(principal(9), principal(3, 3))

    def test_witness_on_exceptional_pair(self):
        A, B = principal(4, 4), unipotent(2)
        f = witness_isomorphism(A, B)
        assert f is not None
        assert sorted(f) == list(range(10))
        for x in range(10):
            for y in range(10):
                p = A.table[x][y]
                q = B.table[f[x]][f[y]]
                assert sorted((f[p.lo], f[p.hi])) == [q.lo, q.hi]

    def test_witness_none_when_colors_differ(self):
        assert witness_isomorphism(principal(9), principal(3, 3)) is None

    def test_witness_budget_exhaustion_raises(self):
        A, B = principal(4, 4, 4), unipotent(3)  # same colors, not isomorphic
        with pytest.raises(Timeout):
            witness_isomorphism(A, B, node_budget=50)

    def test_witness_under_relabeling(self):
        import random

        import numpy as np

        from twovalued.core import TwoValuedGroup
        from twovalued.structure import is_homomorphism

        X = principal(2, 6)
        n = len(X.names)
        rng = random.Random(17)
        perm = list(range(1, n))
        rng.shuffle(perm)
        perm = np.array([0] + perm)  # keep identity at 0
        inv = np.ix_(np.argsort(perm), np.argsort(perm))
        a, b = perm[X.lo[inv]], perm[X.hi[inv]]
        Y = TwoValuedGroup.from_arrays(
            [f"g{i}" for i in range(n)], np.minimum(a, b), np.maximum(a, b)
        )
        assert verify_axioms(Y).is_two_valued_group
        f = witness_isomorphism(Y, X)
        assert f is not None
        assert is_homomorphism(Y, X, f).is_homomorphism
        assert classify(Y) == classify(X)
