"""Finite involutive commutative two-valued groups.

Construction of the three standard series, axiom verification, structure
analysis, the full classification algorithm, brute-force enumeration of
small groups, and a numeric verifier for a one-parameter algebraic
two-valued addition law on the complex line.
"""

from .core import (
    AmbiguousPower,
    Pair,
    TwoValuedGroup,
    ValidationReport,
    order,
    power,
    product,
    product_fold,
    verify_axioms,
)
from .constructions import (
    FinAbelianGroup,
    InvolutiveAutomorphism,
    coset_group,
    double,
    principal,
    product_with_boolean,
    special_series,
    unipotent,
)
from .structure import (
    UNDEFINED,
    boolean_subgroup,
    branching_set,
    is_homomorphism,
    is_special,
    quotient,
    split_direct_factor,
    squares_subgroup,
    subgroup_closure,
    v_dot,
)
from .cocycle import (
    QuasiCocycle,
    change_basis,
    cohomology_invariant,
    extract_quasicocycle,
    linear_rank,
    perturb,
    phi_basis,
    restrict_along,
    trivial_cocycle,
    validate_quasicocycle,
)
from .classify import (
    ClassLabel,
    all_labels_of_size,
    are_isomorphic,
    classify,
    invariant_factors,
    merge_chains,
    realize,
    reconstruct_abelian,
    witness_isomorphism,
)
from .formal import (
    LawParams,
    canonical_operator_coeffs,
    canonical_operator_polys,
    check_associativity,
    eval_F,
    law_coefficients,
    mul2,
    random_sample_suite,
)

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so that `python -m twovalued.cli` does not
# find the module already imported by the package.
_CLI_NAMES = ("enumerate_all", "group_from_json", "group_to_json", "read_group", "write_group")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
