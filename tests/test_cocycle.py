"""Quasi-cocycles: helpers, validation, extraction, cohomology invariant."""

import random

import pytest

from twovalued.constructions import (
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from twovalued.cocycle import (
    InvalidCocycle,
    PreconditionViolated,
    QuasiCocycle,
    apply_linear,
    canonical_rep,
    change_basis,
    cohomology_invariant,
    extract_quasicocycle,
    f2_span,
    linear_rank,
    perturb,
    phi_basis,
    restrict_along,
    trivial_cocycle,
    tuple_to_vec,
    validate_quasicocycle,
    vec_to_tuple,
)


def test_vec_tuple_round_trip():
    for v in range(16):
        assert tuple_to_vec(vec_to_tuple(v, 4)) == v
    # coordinate 0 is the most significant bit
    assert vec_to_tuple(0b100, 3) == (1, 0, 0)
    assert tuple_to_vec((0, 1, 1)) == 0b011


def test_f2_span():
    assert f2_span([]) == frozenset({0})
    assert f2_span([0b101, 0b011]) == frozenset({0, 0b101, 0b011, 0b110})


def test_canonical_rep_is_min_of_coset():
    span = f2_span([0b100])
    assert canonical_rep(0b110, span) == 0b010
    assert canonical_rep(0b010, span) == 0b010


def test_apply_linear_on_basis():
    M = (0b011, 0b101, 0b110)
    assert apply_linear(M, 0b100) == 0b011
    assert apply_linear(M, 0b110) == 0b011 ^ 0b101


def test_linear_rank():
    assert linear_rank([0b100, 0b010, 0b110], 3) == 2
    assert linear_rank([0b100, 0b010, 0b001], 3) == 3
    assert linear_rank([], 3) == 0


@pytest.mark.parametrize("vectors", [[0b1000, 2, 1], [-1, 2, 1]], ids=["wide", "negative"])
def test_linear_rank_rejects_vectors_outside_dim_bits(vectors):
    with pytest.raises(ValueError, match="vectors must lie in"):
        linear_rank(vectors, 3)
    # the callers raise their documented ValueError, not a KeyError
    with pytest.raises(ValueError):
        change_basis(phi_basis(3), vectors)
    with pytest.raises(ValueError):
        restrict_along(phi_basis(3), vectors[:2], vectors[2:])


def test_from_function_canonicalizes():
    phi = QuasiCocycle.from_function(3, lambda u, v: u | v)
    for (u, v), w in phi.values.items():
        assert canonical_rep(w, (0, u, v, u ^ v)) == w


def test_trivial_and_basis_cocycles_validate():
    for dim in range(0, 5):
        assert validate_quasicocycle(trivial_cocycle(dim))
        assert validate_quasicocycle(phi_basis(dim))


def test_validate_rejects_noncanonical_storage():
    phi = trivial_cocycle(2)
    values = dict(phi.values)
    values[(1, 2)] = 1  # 1 is in span(1,2): canonical rep is 0
    assert not validate_quasicocycle(QuasiCocycle(dim=2, values=values))


def test_validate_rejects_missing_normalization():
    phi = trivial_cocycle(2)
    values = dict(phi.values)
    values[(0, 1)] = 2
    assert not validate_quasicocycle(QuasiCocycle(dim=2, values=values))


def test_validate_rejects_asymmetry_only_when_required():
    # cook a dim-3 map symmetric except at one off-diagonal pair
    phi = trivial_cocycle(3)
    values = dict(phi.values)
    values[(1, 2)] = 4  # canonical mod span{1,2,3}; (2,1) stays 0
    cand = QuasiCocycle(dim=3, values=values)
    assert not validate_quasicocycle(cand)
    assert not validate_quasicocycle(cand, require_symmetric=False)  # cocycle id fails too


def test_validate_rejects_broken_cocycle_identity():
    base = phi_basis(3)
    values = dict(base.values)
    # flip one symmetric pair of values to a vector outside span-corrections
    values[(1, 2)] = values[(2, 1)] = canonical_rep(4 ^ values[(1, 2)], (0, 1, 2, 3))
    cand = QuasiCocycle(dim=3, values=values)
    assert not validate_quasicocycle(cand)


def test_as_tuples_view():
    phi = phi_basis(2)
    view = phi.as_tuples()
    assert view[((1, 0), (1, 0))] == (0, 0)  # values canonical mod span(u)
    assert len(view) == 16


def test_invariant_trivial_is_zero_all_dims():
    for dim in range(0, 6):
        assert cohomology_invariant(trivial_cocycle(dim)) == 0


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_invariant_basis_cocycle_is_one(dim):
    assert cohomology_invariant(phi_basis(dim)) == 1


def test_invariant_low_dims_are_zero():
    assert cohomology_invariant(phi_basis(1)) == 0
    assert cohomology_invariant(phi_basis(2)) == 0


def test_invariant_rejects_invalid_input():
    phi = trivial_cocycle(3)
    values = dict(phi.values)
    values[(1, 2)] = 4
    with pytest.raises(InvalidCocycle):
        cohomology_invariant(QuasiCocycle(dim=3, values=values))


def random_chi(dim, rng):
    chi = {0: 0}
    for u in range(1, 1 << dim):
        chi[u] = rng.randrange(1 << dim)
    return chi


def random_invertible(dim, rng):
    while True:
        M = tuple(rng.randrange(1, 1 << dim) for _ in range(dim))
        if linear_rank(M, dim) == dim:
            return M


@pytest.mark.parametrize("dim", [3, 4])
def test_invariant_stable_under_perturbation(dim):
    rng = random.Random(99 + dim)
    for phi, expect in ((trivial_cocycle(dim), 0), (phi_basis(dim), 1)):
        for _ in range(20):
            assert cohomology_invariant(perturb(phi, random_chi(dim, rng))) == expect


@pytest.mark.parametrize("dim", [3, 4])
def test_invariant_stable_under_basis_change(dim):
    rng = random.Random(7 + dim)
    for phi, expect in ((trivial_cocycle(dim), 0), (phi_basis(dim), 1)):
        for _ in range(20):
            M = random_invertible(dim, rng)
            assert cohomology_invariant(change_basis(phi, M)) == expect


def test_perturb_requires_normalized_chi():
    with pytest.raises(ValueError):
        perturb(trivial_cocycle(2), {0: 1, 1: 0, 2: 0, 3: 0})


def test_perturbed_cocycle_still_validates():
    rng = random.Random(5)
    phi = perturb(phi_basis(3), random_chi(3, rng))
    assert validate_quasicocycle(phi)


def test_change_basis_rejects_singular_map():
    with pytest.raises(ValueError):
        change_basis(trivial_cocycle(3), (0b100, 0b010, 0b110))


def test_restrict_along_standard_split():
    phi = phi_basis(4)
    sub = restrict_along(phi, (0b1000, 0b0100, 0b0010), (0b0001,))
    assert sub.dim == 3
    assert validate_quasicocycle(sub)
    assert cohomology_invariant(sub) == 1


def test_restrict_along_requires_joint_basis():
    with pytest.raises(ValueError):
        restrict_along(phi_basis(3), (0b100, 0b010), (0b110,))


class TestExtraction:
    def test_unipotent_rank_two_gives_dim_two(self):
        data = extract_quasicocycle(unipotent(2))
        assert data.dim == 2
        assert validate_quasicocycle(data.phi)
        assert cohomology_invariant(data.phi) == 0

    def test_unipotent_rank_three_gives_zero_invariant(self):
        data = extract_quasicocycle(unipotent(3))
        assert data.dim == 3
        assert cohomology_invariant(data.phi) == 0

    def test_principal_chain_444_gives_one(self):
        data = extract_quasicocycle(principal(4, 4, 4))
        assert data.dim == 3
        assert cohomology_invariant(data.phi) == 1

    def test_principal_chain_44_gives_dim_two(self):
        data = extract_quasicocycle(principal(4, 4))
        assert data.dim == 2
        assert cohomology_invariant(data.phi) == 0

    def test_representatives_square_correctly(self):
        from twovalued.core import power

        data = extract_quasicocycle(principal(4, 4))
        for vec, x in data.representatives.items():
            assert data.coords[power(data.group, x, 2)] == vec

    def test_rejects_wrong_orders(self):
        with pytest.raises(PreconditionViolated):
            extract_quasicocycle(principal(5))

    def test_rejects_special_groups(self):
        with pytest.raises(PreconditionViolated):
            extract_quasicocycle(special_series(2))

    def test_rejects_single_valued_factor(self):
        with pytest.raises(PreconditionViolated):
            extract_quasicocycle(product_with_boolean(principal(4), 1))
