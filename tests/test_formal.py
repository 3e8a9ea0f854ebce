"""One-parameter algebraic addition law: coefficients, roots, associativity."""

import cmath
import os
import subprocess
import sys

import pytest
import sympy as sp

import twovalued
from twovalued.formal import (
    LawParams,
    NearDegenerate,
    canonical_operator_coeffs,
    canonical_operator_polys,
    check_associativity,
    eval_F,
    law_coefficients,
    mul2,
    random_sample_suite,
)

ZERO = LawParams(0, 0, 0)


def test_spot_values_with_zero_argument():
    # F(0,y,z) = (z-y)^2 and F(x,y,0) = (x-y)^2 for every parameter choice
    assert eval_F(ZERO, 0, 2, 5) == pytest.approx(9)
    assert eval_F(LawParams(1, 1, 0), 0, 2, 5) == pytest.approx(9)
    assert eval_F(ZERO, 3, 1, 0) == pytest.approx(4)
    assert eval_F(LawParams(2, -1, 3), 3, 1, 0) == pytest.approx(4)
    assert eval_F(LawParams(1, 1, 0), 0, 0, 0) == pytest.approx(0)


def test_law_coefficients_reassemble_F():
    p = LawParams(0.5, -1.25, 2.0)
    for x, y, z in [(1.5, -2.0, 0.75), (0.1, 0.2, 0.3), (2j, 1 + 1j, -3)]:
        A, B, C = law_coefficients(p, x, y)
        assert A * z**2 - B * z + C == pytest.approx(eval_F(p, x, y, z))


def test_mul2_degenerate_case():
    lo, hi = mul2(ZERO, 1, 1)
    assert abs(lo - 0) < 1e-12
    assert abs(hi - 4) < 1e-12


def test_mul2_roots_satisfy_F():
    p = LawParams(0.3, 0.7, -0.2)
    for x, y in [(1.0, 2.0), (0.5 + 0.5j, -1.2), (3.0, -0.25j)]:
        for z in mul2(p, x, y):
            assert abs(eval_F(p, x, y, z)) < 1e-7 * max(1, abs(x), abs(y)) ** 4


def test_mul2_with_zero_is_doubling():
    # multiplying by 0 must return [x, x]
    p = LawParams(0.3, 0.7, -0.2)
    for x in (2.0, -1.5 + 0.5j):
        lo, hi = mul2(p, x, 0)
        assert lo == pytest.approx(x) and hi == pytest.approx(x)


def test_mul2_near_degenerate_leading_coefficient():
    # at a1=a2=0, a3=1 the z^2 coefficient is 1 - 4xy(x+y): zero at x=y=1/2
    p = LawParams(0, 0, 1.0)
    A, _, _ = law_coefficients(p, 0.5, 0.5)
    assert abs(A) < 1e-15
    with pytest.raises(NearDegenerate):
        mul2(p, 0.5, 0.5)


def test_check_associativity_on_good_samples():
    p = LawParams(0.1, -0.3, 0.05)
    assert check_associativity(p, 0.4, -1.1, 0.9)
    assert check_associativity(p, 1 + 0.2j, -0.7j, 0.3)


def test_associativity_sample_suite_deterministic():
    passed, total, redrawn = random_sample_suite(n_samples=25, tol=1e-6)
    assert (passed, total) == (25, 25)
    again = random_sample_suite(n_samples=25, tol=1e-6)
    assert again == (passed, total, redrawn)


def test_sample_suite_with_fixed_params():
    p = LawParams(0.2, 0.1, -0.15)
    passed, total, _ = random_sample_suite(n_samples=25, tol=1e-6, params=p)
    assert passed == total == 25


def test_canonical_operator_polys_at_zero_params():
    phi1, phi2 = canonical_operator_polys(ZERO)
    x = sp.Symbol("x")
    assert sp.expand(phi1 - 2) == 0
    assert sp.expand(phi2 - 16 * x) == 0


def test_canonical_operator_polys_symbolic_params():
    # with free parameters both coefficients stay polynomial in x
    phi1, phi2 = canonical_operator_polys()
    x = sp.Symbol("x")
    assert phi1.free_symbols <= {x, *sp.symbols("a1 a2 a3")}
    assert phi2.free_symbols <= {x, *sp.symbols("a1 a2 a3")}


def test_canonical_operator_coeffs_numeric():
    c1, c2 = canonical_operator_coeffs(ZERO, 2.5)
    assert c1 == pytest.approx(2.0)
    assert c2 == pytest.approx(40.0)


def test_zero_argument_identity_symbolic():
    # F(0,y,z) - (z-y)^2 vanishes identically in y, z and the parameters
    y, z, a1, a2, a3 = sp.symbols("y z a1 a2 a3")
    from twovalued.formal import F_sym

    expr = F_sym(0, y, z, a1, a2, a3) - (z - y) ** 2
    assert sp.expand(expr) == 0


def test_commutativity_of_mul2():
    # the root pair is unordered; swapping arguments must give the same pair
    p = LawParams(0.4, -0.2, 0.1)
    for x, y in [(1.3, -0.8), (0.2 + 1j, 0.5)]:
        a1, a2 = mul2(p, x, y)
        b1, b2 = mul2(p, y, x)
        direct = abs(a1 - b1) + abs(a2 - b2)
        crossed = abs(a1 - b2) + abs(a2 - b1)
        assert min(direct, crossed) < 1e-9


def test_import_leaves_sympy_unloaded():
    # only the symbolic routines import sympy, so a fresh import of the
    # package must not load it
    code = "import sys, twovalued; print('sympy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(twovalued.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
