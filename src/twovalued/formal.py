"""A one-parameter-family algebraic two-valued addition law on the complex
line, and a numeric verifier for its axioms.

The law is defined by a symmetric polynomial F(x, y, z; a1, a2, a3): the two
values of x (+) y are the roots in z of F = 0.  F is quadratic in z with unit
leading coefficient at y = 0, the identity is 0 (F(0, y, z) = (z - y)^2), and
inverses are trivial (x (+) x always contains 0).  Associativity cannot hold
exactly in floating point, so it is checked as matching of the two 4-element
value multisets up to a tolerance.

The quadratic coefficients A, B, C (with F = A z^2 - B z + C) are written
out by hand in one function that works on complex numbers and on sympy
symbols alike; sympy is imported only by the symbolic routines, and nothing
here differentiates numerically.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass

__all__ = [
    "LawParams",
    "NearDegenerate",
    "eval_F",
    "law_coefficients",
    "mul2",
    "check_associativity",
    "canonical_operator_polys",
    "canonical_operator_coeffs",
    "random_sample_suite",
]

DEGENERACY_EPS = 1e-12
ABS_TOL = 1e-9


class NearDegenerate(Exception):
    """The leading z-coefficient is too small for a stable quadratic solve."""


@dataclass(frozen=True)
class LawParams:
    """The three complex parameters of the addition law."""

    a1: complex = 0
    a2: complex = 0
    a3: complex = 0


def _F(x, y, z, a1, a2, a3):
    return (x + y + z - a2 * x * y * z) ** 2 - 4 * (1 + a3 * x * y * z) * (
        x * y + x * z + y * z + a1 * x * y * z
    )


def _coefficients(x, y, a1, a2, a3):
    """(A, B, C) with F(x, y, z) = A z^2 - B z + C, from s = x + y, P = xy."""
    s, P = x + y, x * y
    A = (1 - a2 * P) ** 2 - 4 * a3 * P * (s + a1 * P)
    B = 4 * (s + a1 * P) + 4 * a3 * P**2 - 2 * s * (1 - a2 * P)
    C = s**2 - 4 * P
    return A, B, C


def F_sym(x=None, y=None, z=None, a1=None, a2=None, a3=None):
    """The defining polynomial as a sympy expression; arguments left out
    are the symbols x, y, z, a1, a2, a3."""
    import sympy as sp

    args = (x, y, z, a1, a2, a3)
    syms = sp.symbols("x y z a1 a2 a3")
    return _F(*(s if v is None else v for v, s in zip(args, syms)))


def eval_F(p: LawParams, x: complex, y: complex, z: complex) -> complex:
    """Direct evaluation of F at numeric arguments."""
    return _F(x, y, z, p.a1, p.a2, p.a3)


def law_coefficients(p: LawParams, x: complex, y: complex) -> tuple[complex, complex, complex]:
    """(A, B, C) with F(x, y, z) = A z^2 - B z + C."""
    return _coefficients(x, y, p.a1, p.a2, p.a3)


def mul2(p: LawParams, x: complex, y: complex) -> tuple[complex, complex]:
    """The two values of x (+) y, as roots of the z-quadratic.

    Stable solve: the larger-magnitude root from the non-cancelling branch of
    the formula, the companion from Vieta (C / (A r1)).  Raises
    NearDegenerate when |A| <= 1e-12 relative to max(1, |B|, |C|).
    """
    A, B, C = law_coefficients(p, x, y)
    scale = max(1.0, abs(B), abs(C))
    if abs(A) <= DEGENERACY_EPS * scale:
        raise NearDegenerate(f"leading coefficient {A} at x={x}, y={y}")
    if C == 0:
        r1 = B / A
        return _ordered(r1, 0j)
    sq = cmath.sqrt(B * B - 4 * A * C)
    # pick the sign that avoids cancellation in B +/- sq
    if abs(B + sq) >= abs(B - sq):
        num = B + sq
    else:
        num = B - sq
    if num == 0:
        # B = sq = 0: double root at 0, but C != 0 was excluded above
        r1 = 0j
        return _ordered(r1, r1)
    r1 = num / (2 * A)
    r2 = C / (A * r1)
    return _ordered(r1, r2)


def _ordered(r1: complex, r2: complex) -> tuple[complex, complex]:
    a, b = sorted((complex(r1), complex(r2)), key=lambda w: (w.real, w.imag))
    return (a, b)


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * (1 + max(abs(a), abs(b))) + ABS_TOL


def check_associativity(
    p: LawParams, x: complex, y: complex, z: complex, tol: float = 1e-6
) -> bool:
    """Compare (x (+) y) (+) z and x (+) (y (+) z) as 4-element multisets.

    Matching is the best pairing over permutations at relative tolerance tol
    (plus a small absolute floor).  NearDegenerate propagates from mul2.
    """
    u1, u2 = mul2(p, x, y)
    lhs = [*mul2(p, u1, z), *mul2(p, u2, z)]
    v1, v2 = mul2(p, y, z)
    rhs = [*mul2(p, x, v1), *mul2(p, x, v2)]
    for perm in itertools.permutations(range(4)):
        if all(_close(lhs[i], rhs[perm[i]], tol) for i in range(4)):
            return True
    return False


def canonical_operator_polys(p: LawParams | None = None):
    """The two polynomials (phi1(x), phi2(x)) attached to the law:
    with D = B^2 - 4AC (the z-discriminant), which vanishes at y = 0,

        phi1 = dB/dy(x, 0) - 2x * dA/dy(x, 0)
        phi2 = dD/dy(x, 0)

    computed symbolically (sympy exprs in x).  With p = None the parameters
    stay symbolic.  For every parameter value, phi1(0) = 2 and phi2(0) = 0;
    at zero parameters phi1 = 2 and phi2 = 16x exactly.
    """
    import sympy as sp

    x, y, a1, a2, a3 = sp.symbols("x y a1 a2 a3")
    A, B, C = map(sp.expand, _coefficients(x, y, a1, a2, a3))
    D = sp.expand(B * B - 4 * A * C)
    A0 = sp.expand(A.subs(y, 0))
    if A0 != 1:
        raise AssertionError("leading coefficient at y = 0 must be 1")
    dA = sp.diff(A, y).subs(y, 0)
    dB = sp.diff(B, y).subs(y, 0)
    dD = sp.diff(D, y).subs(y, 0)
    B0 = B.subs(y, 0)
    if sp.expand(B0 - 2 * x) != 0:
        raise AssertionError("B(x, 0) must equal 2x")
    if sp.expand(D.subs(y, 0)) != 0:
        raise AssertionError("the discriminant must vanish at y = 0")
    phi1 = sp.expand(dB - B0 * dA)
    phi2 = sp.expand(dD)
    if p is not None:
        conv = {a1: _to_sym(p.a1), a2: _to_sym(p.a2), a3: _to_sym(p.a3)}
        phi1 = sp.expand(phi1.subs(conv))
        phi2 = sp.expand(phi2.subs(conv))
    return phi1, phi2


def _to_sym(v: complex):
    import sympy as sp

    v = complex(v)
    if v.imag == 0 and v.real == int(v.real):
        return sp.Integer(int(v.real))
    return sp.sympify(v)


def canonical_operator_coeffs(p: LawParams, x: complex) -> tuple[complex, complex]:
    """Numeric values (phi1(x), phi2(x)) of the canonical operator
    coefficients: the operator is (phi1/2) d/dx + (phi2/8) d^2/dx^2."""
    import sympy as sp

    phi1, phi2 = canonical_operator_polys(p)
    xv = _to_sym(x)
    X = sp.Symbol("x")
    return (complex(phi1.subs(X, xv)), complex(phi2.subs(X, xv)))


def _unit_disk(rng: random.Random) -> complex:
    r = math.sqrt(rng.random())
    t = 2 * math.pi * rng.random()
    return complex(r * math.cos(t), r * math.sin(t))


def random_sample_suite(
    n_samples: int = 100,
    tol: float = 1e-6,
    seed: int = 20240801,
    params: LawParams | None = None,
) -> tuple[int, int, int]:
    """Run associativity checks on random samples in the unit polydisk.

    With params = None each sample draws its own (a1, a2, a3) as well.
    Near-degenerate draws are redrawn (counted separately).  Returns
    (passed, total, redrawn).
    """
    rng = random.Random(seed)
    passed = 0
    redrawn = 0
    done = 0
    while done < n_samples:
        p = params or LawParams(
            _unit_disk(rng), _unit_disk(rng), _unit_disk(rng)
        )
        x, y, z = (_unit_disk(rng) for _ in range(3))
        try:
            ok = check_associativity(p, x, y, z, tol=tol)
        except NearDegenerate:
            redrawn += 1
            if redrawn > 100 * n_samples:
                raise
            continue
        done += 1
        if ok:
            passed += 1
    return passed, n_samples, redrawn
