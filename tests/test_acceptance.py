"""Acceptance gate: eleven checks covering construction, structure theory,
classification, enumeration and the algebraic addition law.

Each test prints exactly one [PASS]/[FAIL] line (run with -s to see them all
on success).  Timed criteria assert their wall-clock budget as part of the
check.
"""

import itertools
import random
import time
from collections import Counter

import pytest
import sympy as sp

from twovalued.core import order, verify_axioms
from twovalued.constructions import (
    FinAbelianGroup,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from twovalued.structure import UNDEFINED, squares_subgroup, v_dot
from twovalued.cocycle import (
    change_basis,
    cohomology_invariant,
    extract_quasicocycle,
    linear_rank,
    perturb,
    phi_basis,
    trivial_cocycle,
)
from twovalued.classify import (
    ClassLabel,
    all_labels_of_size,
    classify,
    invariant_factors,
    reconstruct_abelian,
    witness_isomorphism,
)
from twovalued.enumeration import enumerate_all
from twovalued.formal import (
    F_sym,
    LawParams,
    canonical_operator_polys,
    mul2,
    random_sample_suite,
)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {num}. {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def divisibility_chains(bound):
    """All chains d1 | d2 | ... | dk with di >= 2 and product <= bound."""
    out = [()]

    def rec(prefix, prod):
        if prefix:
            step = prefix[-1]
            d = step
        else:
            step = 1
            d = 2
        while prod * d <= bound:
            nxt = prefix + (d,)
            out.append(nxt)
            rec(nxt, prod * d)
            d += step

    rec((), 1)
    return out


def sweep_labels():
    """The full acceptance sweep: (kind, params, m) triples."""
    labels = []
    for chain in divisibility_chains(64):
        for m in range(3):
            labels.append(("principal", chain, m))
    for n in (1, 2, 3):
        for m in range(3):
            labels.append(("unipotent", n, m))
    for n in (1, 2, 3, 4):
        for m in range(3):
            labels.append(("special", n, m))
    return labels


def build(kind, param, m):
    if kind == "principal":
        X = principal(*param)
    elif kind == "unipotent":
        X = unipotent(param)
    else:
        X = special_series(param)
    return product_with_boolean(X, m)


_SWEEP_CACHE = {}


def sweep_groups():
    if "groups" not in _SWEEP_CACHE:
        t0 = time.time()
        _SWEEP_CACHE["groups"] = [
            (kind, param, m, build(kind, param, m)) for kind, param, m in sweep_labels()
        ]
        _SWEEP_CACHE["build_time"] = time.time() - t0
    return _SWEEP_CACHE["groups"]


def test_01_axiom_sweep():
    t0 = time.time()
    groups = sweep_groups()
    bad = []
    for kind, param, m, X in groups:
        rep = verify_axioms(X)
        if not (rep.is_two_valued_group and rep.is_commutative and rep.is_involutive):
            bad.append((kind, param, m))
    elapsed = time.time() - t0 + _SWEEP_CACHE["build_time"]
    ok = not bad and elapsed < 60
    report(
        1,
        "axiom sweep: every constructed group is an involutive commutative "
        "two-valued group",
        ok,
        f"{len(groups)} groups, {elapsed:.1f}s" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_02_cardinalities():
    groups = sweep_groups()
    bad = []
    for kind, param, m, X in groups:
        if kind == "principal":
            prod = 1
            r = 0
            for d in param:
                prod *= d
                r += d % 2 == 0
            base = (prod + 2**r) // 2
        elif kind == "unipotent":
            base = 2 ** (2 * param - 1) + 2 ** (param - 1)
        else:
            base = 2**param + 1
        if len(X.names) != base * 2**m:
            bad.append((kind, param, m, len(X.names)))
    report(
        2,
        "cardinalities match the closed-form size of each series",
        not bad,
        f"{len(groups)} groups" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_03_classification_round_trip():
    groups = sweep_groups()
    bad = []
    for kind, param, m, X in groups:
        if kind == "principal":
            expected = ClassLabel.principal_label(param)
            if m:
                from twovalued.classify import merge_chains

                expected = ClassLabel.principal_label(merge_chains(param, (2,) * m))
        elif kind == "unipotent":
            expected = ClassLabel.unipotent_label(param, m)
        else:
            expected = ClassLabel.special_label(param, m)
        got = classify(X)
        if got != expected:
            bad.append((kind, param, m, str(got), str(expected)))
    report(
        3,
        "classify inverts construction on every sweep label, with the "
        "low-rank identifications applied",
        not bad,
        f"{len(groups)} labels" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_04_explicit_isomorphism():
    # f(a1^k a2^l) = (b1^k b2^l, b1^[k/2] b2^[l/2]) on representatives,
    # transported to the 10-element quotients by name lookup
    A = FinAbelianGroup((4, 4))
    Xa = principal(4, 4)
    Xu = unipotent(2)

    def iota_u(t):
        a, b = t[:2], t[2:]
        return a + tuple((x + y) % 2 for x, y in zip(a, b))

    def cls_a(t):
        g = A.index(t)
        rep = min(g, A.neg(g))
        return Xa.names.index(",".join(map(str, A.element(rep))))

    def cls_u(t):
        rep = min(t, iota_u(t))
        return Xu.names.index(",".join(map(str, rep)))

    f = {}
    well_defined = True
    for k in range(4):
        for l in range(4):
            src = cls_a((k, l))
            tgt = cls_u((k % 2, l % 2, k // 2, l // 2))
            if src in f and f[src] != tgt:
                well_defined = False
            f[src] = tgt
    bijective = sorted(f.values()) == list(range(10)) and len(f) == 10
    hom = all(
        sorted((f[p.lo], f[p.hi])) == list(Xu.table[f[x]][f[y]])
        for x in range(10)
        for y in range(10)
        for p in (Xa.table[x][y],)
    )
    report(
        4,
        "the explicit degree-respecting map is a bijective homomorphism "
        "between the two 10-element groups",
        well_defined and bijective and hom,
        f"well-defined={well_defined}, bijective={bijective}, homomorphism={hom}",
    )


def test_05_rank_three_separation():
    t0 = time.time()
    Xa = principal(4, 4, 4)
    Xu = unipotent(3)
    ia = cohomology_invariant(extract_quasicocycle(Xa).phi)
    iu = cohomology_invariant(extract_quasicocycle(Xu).phi)
    la, lu = classify(Xa), classify(Xu)
    elapsed = time.time() - t0
    ok = ia == 1 and iu == 0 and la != lu and elapsed < 10
    report(
        5,
        "the two 36-element groups separate: cohomology invariants 1 vs 0 "
        "and distinct labels",
        ok,
        f"invariants ({ia},{iu}), labels ({la},{lu}), {elapsed:.2f}s",
    )


def test_06_order_spectra():
    cases = [(5,), (6,), (2, 4), (3, 3), (8,)]
    bad = []
    for factors in cases:
        A = FinAbelianGroup(factors)
        X = principal(*factors)
        na = Counter(A.order_of(i) for i in range(A.size))
        nx = Counter(order(X, i) for i in range(len(X.names)))
        for k in set(na) | set(nx):
            if k <= 2:
                if nx.get(k, 0) != na.get(k, 0):
                    bad.append((factors, k, nx.get(k, 0), na.get(k, 0)))
            else:
                if 2 * nx.get(k, 0) != na.get(k, 0):
                    bad.append((factors, k, nx.get(k, 0), na.get(k, 0)))
    report(
        6,
        "order spectra: involutions match the base group, higher orders "
        "appear at exactly half multiplicity",
        not bad,
        f"{len(cases)} base groups" + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_07_reconstruction_inverse():
    cases = [(3,), (5,), (6,), (2, 6), (8,)]
    bad = []
    checked = 0
    for factors in cases:
        A = FinAbelianGroup(factors)
        expected = invariant_factors(A)
        X = principal(*factors)
        seeds = [t for t in range(len(X.names)) if order(X, t) not in (1, 2, 4)]
        if not seeds:
            bad.append((factors, "no admissible seed"))
            continue
        for t in seeds:
            res = reconstruct_abelian(X, t)
            checked += 1
            if res.chain != expected:
                bad.append((factors, t, res.chain, expected))
    report(
        7,
        "reconstruction recovers the invariant factors of the base group "
        "from every admissible seed",
        not bad,
        f"{checked} seed choices over {len(cases)} groups"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_08_cocycle_suite():
    t0 = time.time()
    ok = cohomology_invariant(phi_basis(3)) == 1
    ok = ok and cohomology_invariant(trivial_cocycle(3)) == 0
    rng = random.Random(20240801)
    stable = True
    for dim in (3, 4, 5):
        bases = [(trivial_cocycle(dim), 0), (phi_basis(dim), 1)]
        for i in range(100):
            phi, expect = bases[i % 2]
            chi = {0: 0}
            for u in range(1, 1 << dim):
                chi[u] = rng.randrange(1 << dim)
            if cohomology_invariant(perturb(phi, chi)) != expect:
                stable = False
        for i in range(100):
            phi, expect = bases[i % 2]
            while True:
                M = tuple(rng.randrange(1, 1 << dim) for _ in range(dim))
                if linear_rank(M, dim) == dim:
                    break
            if cohomology_invariant(change_basis(phi, M)) != expect:
                stable = False
    elapsed = time.time() - t0
    ok = ok and stable and elapsed < 30
    report(
        8,
        "cohomology invariant: 1 on the coordinatewise-AND cocycle, 0 on "
        "the trivial one, stable under perturbation and basis change",
        ok,
        f"dims 3-5, 100 perturbations + 100 basis changes each, {elapsed:.1f}s",
    )


def test_09_enumeration_oracle():
    t0 = time.time()
    bad = []
    pairwise_ok = True
    for k in range(1, 8):
        groups = enumerate_all(k)
        found = sorted(str(classify(g)) for g in groups)
        expected = sorted(str(l) for l in all_labels_of_size(k))
        if found != expected:
            bad.append((k, found, expected))
        for g in groups:
            if not verify_axioms(g).is_two_valued_group:
                bad.append((k, "axioms fail"))
        for a, b in itertools.combinations(groups, 2):
            if witness_isomorphism(a, b) is not None:
                pairwise_ok = False
    elapsed = time.time() - t0
    ok = not bad and pairwise_ok and elapsed < 600
    report(
        9,
        "exhaustive search at sizes 1..7 agrees with the label arithmetic, "
        "outputs verified and pairwise non-isomorphic",
        ok,
        f"counts by size {[len(all_labels_of_size(k)) for k in range(1, 8)]}, "
        f"{elapsed:.1f}s" + (f", failures: {bad[:2]}" if bad else ""),
    )


def lemma_failures(X):
    """Exhaustive structural identities on a non-special group."""
    n = len(X.names)
    fails = []
    # exchange: z in x*y iff x in y*z
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (z in X.table[x][y]) != (x in X.table[y][z]):
                    fails.append(("exchange", x, y, z))
    # product components multiply back to the two squares
    sq = {x: X.table[x][x].other(0) if 0 in X.table[x][x] else None for x in range(n)}
    for x in range(n):
        for y in range(n):
            z1, z2 = X.table[x][y]
            want = sorted((sq[x], sq[y]))
            if sorted(X.table[z1][z2]) != want:
                fails.append(("square-product", x, y))
    # equal squares exactly on the orbit of the order-<=2 subgroup
    V = [v for v in range(n) if order(X, v) <= 2]
    orbit = {
        x: frozenset(v_dot(X, v, x) for v in V if v_dot(X, v, x) is not UNDEFINED)
        for x in range(n)
    }
    for x in range(n):
        for y in range(n):
            if (sq[x] == sq[y]) != (y in orbit[x]):
                fails.append(("equal-squares", x, y))
    # squares form a closed subgroup
    try:
        squares_subgroup(X)
    except Exception:
        fails.append(("squares-closed",))
    # power law: x^k * x^l = [x^(k+l), x^|k-l|]
    from twovalued.core import power

    for x in range(n):
        o = order(X, x)
        for k in range(2 * o + 1):
            for l in range(2 * o + 1):
                lhs = X.table[power(X, x, k)][power(X, x, l)]
                rhs = sorted((power(X, x, k + l), power(X, x, abs(k - l))))
                if sorted(lhs) != rhs:
                    fails.append(("power-law", x, k, l))
    return fails


def test_10_lemma_properties():
    cases = [principal(5), principal(2, 6), unipotent(2)]
    bad = []
    for X in cases:
        fails = lemma_failures(X)
        if fails:
            bad.append((len(X.names), fails[:3]))
    report(
        10,
        "exchange, square-product, equal-squares, squares-subgroup and "
        "power-law identities hold exhaustively on three non-special groups",
        not bad,
        f"{len(cases)} groups" + (f", failures: {bad}" if bad else ""),
    )


def test_11_formal_module():
    t0 = time.time()
    y, z, a1, a2, a3 = sp.symbols("y z a1 a2 a3")
    symbolic_ok = sp.expand(F_sym(0, y, z, a1, a2, a3) - (z - y) ** 2) == 0

    passed, total, _ = random_sample_suite(n_samples=100, tol=1e-6)
    samples_ok = passed == total == 100

    lo, hi = mul2(LawParams(0, 0, 0), 1, 1)
    degen_ok = abs(lo - 0) < 1e-12 and abs(hi - 4) < 1e-12

    phi1, phi2 = canonical_operator_polys(LawParams(0, 0, 0))
    x = sp.Symbol("x")
    canon_ok = sp.expand(phi1 - 2) == 0 and sp.expand(phi2 - 16 * x) == 0

    elapsed = time.time() - t0
    ok = symbolic_ok and samples_ok and degen_ok and canon_ok and elapsed < 5
    report(
        11,
        "addition law: boundary identity symbolic, associativity sampled "
        "at 1e-6, degenerate product exact, canonical operator (2, 16x)",
        ok,
        f"samples {passed}/{total}, {elapsed:.2f}s",
    )
