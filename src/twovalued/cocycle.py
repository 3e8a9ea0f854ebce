"""Quasi-cocycles on Boolean groups and their cohomology invariant.

A group X with orders in {1, 2, 4}, no special pairs and no single-valued
direct factor is determined by a map phi: V x V -> V on its Boolean subgroup
V, defined modulo span(u, v) and satisfying a relaxed cocycle identity.  This
module extracts phi from a group table, validates the identities, and
computes the one-bit cohomology class that separates the two families with
the same order spectrum.

F2 vectors are Python ints used as bitmasks, with coordinate 0 the most
significant bit of `dim` bits, so integer order coincides with lexicographic
order on coordinate tuples and the canonical (lex smallest) coset
representative is plain min().  vec_to_tuple / tuple_to_vec convert.  A
quasi-cocycle is stored as the 2^dim x 2^dim array of its canonical values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TwoValuedGroup, _squares
from .structure import _f2_pivots, _sign_forms, boolean_subgroup, is_special, squares_subgroup

__all__ = [
    "QuasiCocycle",
    "ExtractionData",
    "PreconditionViolated",
    "InvalidCocycle",
    "vec_to_tuple",
    "tuple_to_vec",
    "apply_linear",
    "linear_rank",
    "validate_quasicocycle",
    "phi_basis",
    "trivial_cocycle",
    "extract_quasicocycle",
    "cohomology_invariant",
    "perturb",
    "change_basis",
    "restrict_along",
]


class PreconditionViolated(Exception):
    pass


class InvalidCocycle(Exception):
    pass


def vec_to_tuple(v: int, dim: int) -> tuple[int, ...]:
    return tuple((v >> (dim - 1 - i)) & 1 for i in range(dim))


def tuple_to_vec(bits) -> int:
    v = 0
    for b in bits:
        v = (v << 1) | (1 if b else 0)
    return v


def apply_linear(M, v: int) -> int:
    """Apply the linear map sending basis vector i to M[i]."""
    dim = len(M)
    out = 0
    for i in range(dim):
        if (v >> (dim - 1 - i)) & 1:
            out ^= M[i]
    return out


def linear_rank(vectors, dim: int) -> int:
    """Rank over F2 of dim-bit vectors; ValueError for any other vector."""
    vectors = list(vectors)
    if not all(0 <= v < 1 << dim for v in vectors):
        raise ValueError(f"vectors must lie in [0, 2**{dim})")
    return len(_f2_pivots(vectors))


def _canonical(w) -> np.ndarray:
    """The canonical representative of each w[u, v] modulo span(u, v),
    min(w, w^u, w^v, w^u^v), as a read-only uint32 array."""
    w = np.asarray(w, dtype=np.int64)
    u, v = np.ogrid[: len(w), : len(w)]
    out = np.minimum.reduce([w, w ^ u, w ^ v, w ^ u ^ v]).astype(np.uint32)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class QuasiCocycle:
    """A map phi on pairs of F2 vectors, with values defined modulo
    span(u, v) and stored as the canonical coset representative.

    values[u, v] = phi(u, v) for every ordered pair of dim-bit vectors, a
    2^dim x 2^dim unsigned array.  The value space equals the domain space
    (a deliberate simplification: every operation in this library preserves
    that, including restriction, which re-expresses values in subspace
    coordinates).
    """

    dim: int
    values: np.ndarray

    def phi(self, u: int, v: int) -> int:
        return int(self.values[u, v])

    def __eq__(self, other):
        if not isinstance(other, QuasiCocycle):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.values, other.values)

    @classmethod
    def from_function(cls, dim: int, fn) -> "QuasiCocycle":
        n = 1 << dim
        return cls(dim, _canonical([[fn(u, v) for v in range(n)] for u in range(n)]))

    def as_tuples(self) -> dict:
        """values keyed/valued by coordinate tuples, for display."""
        vecs = [vec_to_tuple(v, self.dim) for v in range(1 << self.dim)]
        return {(vecs[u], vecs[v]): vecs[w] for (u, v), w in np.ndenumerate(self.values)}


def trivial_cocycle(dim: int) -> QuasiCocycle:
    return QuasiCocycle(dim, _canonical(np.zeros((1 << dim, 1 << dim), dtype=np.int64)))


def phi_basis(dim: int) -> QuasiCocycle:
    """The coordinatewise-AND quasi-cocycle; its class generates the
    cohomology group in every dimension >= 3."""
    u, v = np.ogrid[: 1 << dim, : 1 << dim]
    return QuasiCocycle(dim, _canonical(u & v))


def validate_quasicocycle(
    phi: QuasiCocycle,
    *,
    require_symmetric: bool = True,
    require_involutive: bool = True,
) -> bool:
    """Exhaustive check of the quasi-cocycle identities.

    Always checked: normalization phi(e,u) = phi(u,e) = e mod span(u), and
    the cocycle identity
        phi(u,v) + phi(u+v,w) + phi(u,v+w) + phi(v,w)  in  span(u,v,w)
    for all triples.  Symmetry (phi(u,v) = phi(v,u) mod span(u,v)) and
    involutivity (phi(u,u) = e mod span(u)) are on by default.  The checks
    are independent of coset representatives, but values other than a
    2^dim x 2^dim integer array of canonical representatives fail.  O(8^dim)
    time and memory.
    """
    n = 1 << phi.dim
    val = np.asarray(phi.values)
    if val.shape != (n, n) or val.dtype.kind not in "iu" or not ((val >= 0) & (val < n)).all():
        return False
    if not np.array_equal(_canonical(val), val):
        return False
    if val[0].any() or val[:, 0].any():
        return False
    if require_involutive and val.diagonal().any():
        return False
    if require_symmetric and not np.array_equal(val, val.T):
        return False
    u, v, w = np.ogrid[:n, :n, :n]
    acc = val[u, v] ^ val[u ^ v, w] ^ val[u, v ^ w] ^ val[v, w]
    # span(u, v, w) = {s, s + w : s in span(u, v)}
    ok = np.zeros(acc.shape, dtype=bool)
    for s in (0, u, v, u ^ v):
        ok |= (acc == s) | (acc == s ^ w)
    return bool(ok.all())


@dataclass(frozen=True)
class ExtractionData:
    """Result of reading a quasi-cocycle off a group table.

    coords maps each element of the Boolean subgroup V to its F2 coordinate
    vector; representatives maps each vector v to the chosen representative
    of the orbit X_v = {x : x^2 = v} (identity for v = 0, smallest index
    otherwise)."""

    group: TwoValuedGroup
    dim: int
    coords: dict
    representatives: dict
    phi: QuasiCocycle


def extract_quasicocycle(X: TwoValuedGroup) -> ExtractionData:
    """Read the multiplication cocycle off a group whose orders lie in
    {1, 2, 4}, with no special pair and no single-valued direct factor.

    V acts on each orbit X_v transitively with stabilizer {e, v}; picking the
    smallest-index representative x_v of each orbit, the product
    x_u * x_v = [c . x_uv, (c+u) . x_uv] defines phi(u, v) = c modulo
    span(u, v).  Raises PreconditionViolated when the structural assumptions
    fail.
    """
    square = _squares(X)
    odd = np.flatnonzero(square.take(square))
    if len(odd):
        raise PreconditionViolated(f"element {X.names[odd[0]]} has order outside {{1, 2, 4}}")
    special, pairs = is_special(X)
    if special:
        raise PreconditionViolated(f"special pairs present: {pairs[:3]}")
    V = boolean_subgroup(X)
    sq = squares_subgroup(X)
    for v in V.members:
        if v not in sq:
            raise PreconditionViolated(
                f"order-2 element {X.names[v]} is not a square "
                "(single-valued factor present)"
            )
    dim = V.dim
    members = np.array(V.members)
    dot = np.array(V.table)
    # coordinates of V on its generators by member position, the first as
    # the most significant bit
    gens, forms = _sign_forms(dot, dot)
    if len(gens) != dim:
        raise PreconditionViolated("order-2 elements do not span as expected")
    vec = ((forms.astype(np.int64)[:, None] >> np.arange(dim)) & 1) @ (1 << np.arange(dim))[::-1]
    coords = dict(zip(V.members, vec.tolist()))

    # the orbit X_v = {x : x^2 = v}, represented by its smallest element
    vec_of = np.full(len(X), -1)
    vec_of[members] = vec
    found, reps = np.unique(vec_of[square], return_index=True)
    if found[0] < 0 or len(found) != 1 << dim:
        raise PreconditionViolated("the squares do not fill the 2^dim square classes")

    # phi(u, v) = c for the member c with c . x_(u+v) = z1, x_u * x_v = [z1, z2]
    u, v = np.indices((1 << dim, 1 << dim))
    z1 = X.lo[reps[u], reps[v]]
    target = reps[u ^ v]
    c = members[:, None, None]
    hits = (X.lo[c, target] == z1) & (X.hi[c, target] == z1)
    lost = target[~hits.any(axis=0)]
    if len(lost):
        raise PreconditionViolated(
            f"V does not act transitively on the orbit of {X.names[lost[0]]}"
        )
    phi = QuasiCocycle(dim, _canonical(vec[np.argmax(hits, axis=0)]))
    reps = dict(enumerate(reps.tolist()))
    return ExtractionData(
        group=X, dim=dim, coords=coords, representatives=reps, phi=phi
    )


def cohomology_invariant(phi: QuasiCocycle) -> int:
    """The one-bit cohomology class of a symmetric involutive quasi-cocycle.

    dim <= 2: always 0 (everything is cohomologous to the trivial cocycle).
    dim == 3: the parity of lambda summed over the seven 2-dimensional
    subspaces P, lambda(P) = 1 iff phi(u, v) lies outside P = span(u, v);
    cohomologous cocycles give equal parity and the basis cocycle gives 1.
    It is counted over the pairs 0 < u < v: each P is spanned by three of
    them, an odd count, and the validated identities make the three agree
    (at (u, v, v) and (u, u, v) they put phi(u, v) + phi(u+v, v) and
    phi(u, v) + phi(u, u+v) in P).
    dim > 3: restrict to the span of the first three standard coordinates
    (projecting values along the remaining ones) and recurse; restriction is
    a bijection on classes in these dimensions.

    Validation: full identity check for dim <= 4; above that only the dim-3
    restriction is validated.  InvalidCocycle on failure.
    """
    if phi.dim <= 4 and not validate_quasicocycle(phi):
        raise InvalidCocycle("quasi-cocycle identities fail")
    if phi.dim <= 2:
        return 0
    cur = phi
    if cur.dim > 3:
        unit = [1 << (cur.dim - 1 - i) for i in range(cur.dim)]
        cur = restrict_along(cur, unit[:3], unit[3:])
        if not validate_quasicocycle(cur):
            raise InvalidCocycle("restriction to dim 3 is not a quasi-cocycle")
    # canonical values: phi(u, v) is 0 exactly when it lies in span(u, v)
    return np.count_nonzero(np.triu(cur.values[1:, 1:], 1)) & 1


def perturb(phi: QuasiCocycle, chi: dict) -> QuasiCocycle:
    """The cohomologous cocycle phi'(u,v) = phi(u,v) + chi(u) + chi(v) +
    chi(u+v); chi must send 0 to 0."""
    if chi.get(0, 0) != 0:
        raise ValueError("chi must fix the zero vector")
    n = 1 << phi.dim
    c = np.array([chi[u] for u in range(n)], dtype=np.int64)
    u, v = np.ogrid[:n, :n]
    return QuasiCocycle(phi.dim, _canonical(phi.values ^ c[u] ^ c[v] ^ c[u ^ v]))


def change_basis(phi: QuasiCocycle, M) -> QuasiCocycle:
    """Push phi forward along the invertible linear map with basis images M
    (f(e_i) = M[i]): phi'(u, v) = f(phi(f^-1 u, f^-1 v))."""
    dim = phi.dim
    if len(M) != dim or linear_rank(M, dim) != dim:
        raise ValueError("basis images must be linearly independent")
    f = np.array([apply_linear(M, v) for v in range(1 << dim)])
    inv = np.argsort(f)  # f is a bijection
    return QuasiCocycle(dim, _canonical(f[phi.values[np.ix_(inv, inv)]]))


def restrict_along(phi: QuasiCocycle, u_basis, k_basis) -> QuasiCocycle:
    """Restrict phi to the subspace U spanned by u_basis, projecting values
    along the complement spanned by k_basis; the result is expressed in
    u_basis coordinates.  u_basis + k_basis must be a basis of the whole
    space."""
    dim = phi.dim
    k = len(u_basis)
    if linear_rank(list(u_basis) + list(k_basis), dim) != dim or k + len(
        k_basis
    ) != dim:
        raise ValueError("u_basis and k_basis must jointly form a basis")
    # embed: U-coords -> ambient vector with zero complement part; proj
    # sends every U-part + complement vector back to its U-coords
    embed = np.array([apply_linear(u_basis, a) for a in range(1 << k)])
    comp = np.array([apply_linear(k_basis, b) for b in range(1 << (dim - k))])
    proj = np.empty(1 << dim, dtype=np.int64)
    proj[embed[:, None] ^ comp] = np.arange(1 << k)[:, None]
    return QuasiCocycle(k, _canonical(proj[phi.values[np.ix_(embed, embed)]]))
