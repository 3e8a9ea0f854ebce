"""Quasi-cocycles: helpers, validation, extraction, cohomology invariant.

The array operations on QuasiCocycle.values are checked against pure-Python
references on dicts of canonical values, as the cocycle was once stored."""

import random

import numpy as np
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
    change_basis,
    cohomology_invariant,
    extract_quasicocycle,
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


def ref_canonical(w: int, u: int, v: int) -> int:
    """Lex-smallest element of the coset w + span(u, v)."""
    return min(w ^ s for s in (0, u, v, u ^ v))


def test_canonical_rep_is_min_of_coset():
    phi = QuasiCocycle.from_function(3, lambda u, v: 0b110)
    assert phi.phi(0b100, 0) == 0b010  # 0b110 + span(0b100)
    assert phi.phi(0b001, 0) == 0b110
    assert phi.phi(0b010, 0b100) == 0  # 0b110 lies in span(0b010, 0b100)


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
    assert phi.values.shape == (8, 8) and phi.values.dtype.kind == "u"
    assert not phi.values.flags.writeable
    for (u, v), w in np.ndenumerate(phi.values):
        assert w == ref_canonical(u | v, u, v)


def test_equality_compares_dim_and_values():
    assert phi_basis(3) == phi_basis(3)
    assert phi_basis(3) != trivial_cocycle(3)
    assert trivial_cocycle(2) != trivial_cocycle(3)
    assert phi_basis(3) != "phi_basis(3)"


def test_trivial_and_basis_cocycles_validate():
    for dim in range(0, 5):
        assert validate_quasicocycle(trivial_cocycle(dim))
        assert validate_quasicocycle(phi_basis(dim))


def edited(phi: QuasiCocycle, cells: dict) -> QuasiCocycle:
    """phi with the values at the given (u, v) replaced."""
    values = phi.values.copy()
    for (u, v), w in cells.items():
        values[u, v] = w
    return QuasiCocycle(dim=phi.dim, values=values)


def test_validate_rejects_noncanonical_storage():
    # 1 is in span(1,2): canonical rep is 0
    assert not validate_quasicocycle(edited(trivial_cocycle(2), {(1, 2): 1}))


def test_validate_rejects_missing_normalization():
    assert not validate_quasicocycle(edited(trivial_cocycle(2), {(0, 1): 2}))


def test_validate_rejects_asymmetry_only_when_required():
    # cook a dim-3 map symmetric except at one off-diagonal pair:
    # 4 is canonical mod span{1,2,3}; (2,1) stays 0
    cand = edited(trivial_cocycle(3), {(1, 2): 4})
    assert not validate_quasicocycle(cand)
    assert not validate_quasicocycle(cand, require_symmetric=False)  # cocycle id fails too


def test_validate_rejects_broken_cocycle_identity():
    base = phi_basis(3)
    # flip one symmetric pair of values to a vector outside span-corrections
    w = ref_canonical(4 ^ base.phi(1, 2), 1, 2)
    cand = edited(base, {(1, 2): w, (2, 1): w})
    assert validate_quasicocycle(edited(cand, {(1, 2): base.phi(1, 2), (2, 1): base.phi(2, 1)}))
    assert not validate_quasicocycle(cand)


@pytest.mark.parametrize(
    "values",
    [np.zeros((4, 4), np.uint32), np.zeros((8, 8, 1), np.uint32), np.zeros((8, 8)),
     np.full((8, 8), 8, np.uint32), np.full((8, 8), -1), {(0, 0): 0}],
    ids=["dim_2_shape", "three_axes", "float", "out_of_range", "negative", "dict"],
)
def test_validate_rejects_a_wrongly_shaped_array(values):
    assert not validate_quasicocycle(QuasiCocycle(dim=3, values=values))


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
    with pytest.raises(InvalidCocycle):
        cohomology_invariant(edited(trivial_cocycle(3), {(1, 2): 4}))


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


# --- the array operations against per-pair references ------------------------

def ref_apply(M, v: int) -> int:
    dim = len(M)
    out = 0
    for i in range(dim):
        if v >> (dim - 1 - i) & 1:
            out ^= M[i]
    return out


def ref_perturb(val, chi, dim):
    n = 1 << dim
    return [[ref_canonical(val[u][v] ^ chi[u] ^ chi[v] ^ chi[u ^ v], u, v) for v in range(n)]
            for u in range(n)]


def ref_change_basis(val, M, dim):
    n = 1 << dim
    inv = {ref_apply(M, v): v for v in range(n)}
    return [[ref_canonical(ref_apply(M, val[inv[u]][inv[v]]), u, v) for v in range(n)]
            for u in range(n)]


def ref_restrict(val, u_basis, k_basis, dim):
    k = len(u_basis)
    embed = [ref_apply(u_basis, a) for a in range(1 << k)]
    comp = [ref_apply(k_basis, b) for b in range(1 << (dim - k))]
    proj = {w ^ c: a for a, w in enumerate(embed) for c in comp}
    return [[ref_canonical(proj[val[embed[a]][embed[b]]], a, b) for b in range(1 << k)]
            for a in range(1 << k)]


def ref_validate(val, dim, symmetric, involutive):
    """The per-triple loops validate_quasicocycle ran on the dict storage."""
    n = 1 << dim
    if any(val[u][v] != ref_canonical(val[u][v], u, v) for u in range(n) for v in range(n)):
        return False
    for u in range(n):
        if val[0][u] or val[u][0] or (involutive and val[u][u]):
            return False
    if symmetric and any(val[u][v] != val[v][u] for u in range(n) for v in range(n)):
        return False
    for u in range(n):
        for v in range(n):
            for w in range(n):
                acc = val[u][v] ^ val[u ^ v][w] ^ val[u][v ^ w] ^ val[v][w]
                if acc not in (0, u, v, w, u ^ v, u ^ w, v ^ w, u ^ v ^ w):
                    return False
    return True


def random_cocycles(dim, rng):
    """Valid cocycles in both classes, each with one cell moved, and
    arbitrary canonical tables."""
    n = 1 << dim
    for base in (trivial_cocycle(dim), phi_basis(dim)):
        phi = change_basis(perturb(base, random_chi(dim, rng)), random_invertible(dim, rng))
        yield phi
        u, v = rng.randrange(n), rng.randrange(n)
        yield edited(phi, {(u, v): ref_canonical(rng.randrange(n), u, v)})
    yield QuasiCocycle.from_function(dim, lambda u, v: rng.randrange(n))


@pytest.mark.parametrize("dim", [3, 4])
def test_array_operations_match_references(dim):
    rng = random.Random(31 + dim)
    verdicts = set()
    for _ in range(6):
        for phi in random_cocycles(dim, rng):
            val = phi.values.tolist()
            chi = random_chi(dim, rng)
            assert perturb(phi, chi).values.tolist() == ref_perturb(val, chi, dim)
            M = random_invertible(dim, rng)
            assert change_basis(phi, M).values.tolist() == ref_change_basis(val, M, dim)
            basis = random_invertible(dim, rng)
            k = rng.randrange(dim + 1)
            sub = restrict_along(phi, basis[:k], basis[k:])
            assert sub.dim == k
            assert sub.values.tolist() == ref_restrict(val, basis[:k], basis[k:], dim)
            for symmetric in (True, False):
                for involutive in (True, False):
                    got = validate_quasicocycle(
                        phi, require_symmetric=symmetric, require_involutive=involutive
                    )
                    assert got == ref_validate(val, dim, symmetric, involutive)
                    verdicts.add(got)
    assert verdicts == {True, False}
