"""Finite involutive commutative two-valued groups.

Construction of the three standard series, axiom verification, structure
analysis, the full classification algorithm, brute-force enumeration of
small groups, and a numeric verifier for a one-parameter algebraic
two-valued addition law on the complex line.

`import twovalued` loads none of the submodules, and so not numpy: each
name below is imported from its submodule on first use (PEP 562) and then
kept in the package namespace.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "core": ("AmbiguousPower", "Pair", "TwoValuedGroup", "ValidationReport", "order",
             "power", "product", "product_fold", "verify_axioms"),
    "constructions": ("FinAbelianGroup", "InvolutiveAutomorphism", "coset_group", "double",
                      "principal", "product_with_boolean", "special_series", "unipotent"),
    "structure": ("UNDEFINED", "boolean_subgroup", "branching_set", "is_homomorphism",
                  "is_special", "quotient", "split_direct_factor", "squares_subgroup",
                  "subgroup_closure", "v_dot"),
    "cocycle": ("QuasiCocycle", "change_basis", "cohomology_invariant", "extract_quasicocycle",
                "linear_rank", "perturb", "phi_basis", "restrict_along", "trivial_cocycle",
                "validate_quasicocycle"),
    "classify": ("ClassLabel", "all_labels_of_size", "are_isomorphic", "classify",
                 "invariant_factors", "merge_chains", "realize", "reconstruct_abelian",
                 "witness_isomorphism"),
    "formal": ("LawParams", "canonical_operator_coeffs", "canonical_operator_polys",
               "check_associativity", "eval_F", "law_coefficients", "mul2",
               "random_sample_suite"),
    # not in __all__; `python -m twovalued.cli` must not find cli imported
    "cli": ("enumerate_all", "group_from_json", "group_to_json", "read_group", "write_group"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# what the eager imports bound: every name but cli's, and five submodules
__all__ = [name for name, module in _HOME.items() if module != "cli"]
__all__ += ["core", "constructions", "structure", "cocycle", "formal"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})


class _Package(types.ModuleType):
    # `classify` names a submodule and a function.  Loading a submodule
    # binds it on its package; keep the function, as eager imports did.
    def __setattr__(self, name, value):
        if name != "classify" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
