"""What `import twovalued` and each CLI command load, and the lazy package
namespace: every exported name resolves, and `twovalued.classify` stays the
function whichever way the `classify` submodule was first imported.

Each check of sys.modules runs in a fresh interpreter."""

import os
import subprocess
import sys
import types
from importlib import import_module

import pytest

import twovalued
from twovalued.cli import group_to_json
from twovalued.constructions import principal

SRC = os.path.dirname(os.path.dirname(twovalued.__file__))
SUBMODULES = ["classify", "cli", "cocycle", "constructions", "core", "enumeration",
              "formal", "structure"]

# what `from twovalued import *` bound when the package imported its
# submodules eagerly: their public names, and five of the submodules
STAR_NAMES = sorted("""
    AmbiguousPower ClassLabel FinAbelianGroup InvolutiveAutomorphism LawParams Pair
    QuasiCocycle TwoValuedGroup UNDEFINED ValidationReport all_labels_of_size
    are_isomorphic boolean_subgroup branching_set canonical_operator_coeffs
    canonical_operator_polys change_basis check_associativity classify cocycle
    cohomology_invariant constructions core coset_group double eval_F
    extract_quasicocycle formal invariant_factors is_homomorphism is_special
    law_coefficients linear_rank merge_chains mul2 order perturb phi_basis power
    principal product product_fold product_with_boolean quotient
    random_sample_suite realize reconstruct_abelian restrict_along special_series
    split_direct_factor squares_subgroup structure subgroup_closure
    trivial_cocycle unipotent v_dot validate_quasicocycle verify_axioms
    witness_isomorphism
""".split())


def run_fresh(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    """numpy and the twovalued submodules in sys.modules after `code`."""
    out = run_fresh(code + "\nimport sys\nprint(' '.join(sys.modules))")
    loaded = set(out.split())
    return {m for m in SUBMODULES if "twovalued." + m in loaded} | {"numpy"} & loaded


def loaded_by_command(*argv: str) -> set[str]:
    code = ("import contextlib, io\nfrom twovalued.cli import cli_main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli_main({list(argv)!r}) == 0")
    return loaded_after(code) - {"cli"}


@pytest.fixture(scope="module")
def group_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "g.json"
    path.write_text(group_to_json(principal(4, 4)))
    return str(path)


def test_package_import_loads_nothing():
    assert loaded_after("import twovalued") == set()


def test_elliptic_loads_only_formal():
    assert loaded_by_command("elliptic", "--samples", "3") == {"formal"}


def test_verify_loads_only_core(group_file):
    assert loaded_by_command("verify", group_file) == {"core", "numpy"}


def test_construct_loads_core_and_constructions(tmp_path):
    loaded = loaded_by_command("construct", "--principal", "4,4", "-o", str(tmp_path / "g.json"))
    assert loaded == {"constructions", "core", "numpy"}


@pytest.mark.parametrize("command", ["classify", "iso"])
def test_classify_and_iso_load_the_classify_chain_only(command, group_file):
    files = [group_file] * (2 if command == "iso" else 1)
    loaded = loaded_by_command(command, *files)
    assert loaded == {"classify", "cocycle", "constructions", "core", "numpy", "structure"}


@pytest.mark.parametrize(
    "first",
    [
        "import twovalued.classify",
        "from twovalued.classify import Timeout",
        "import importlib; importlib.import_module('twovalued.classify')",
        "import twovalued.enumeration",
        "import contextlib, io\nfrom twovalued.cli import cli_main, write_group\n"
        "from twovalued.constructions import principal\nimport tempfile, os\n"
        "path = os.path.join(tempfile.mkdtemp(), 'g.json')\nwrite_group(principal(5), path)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli_main(['classify', path]) == 0",
    ],
    ids=["import", "from_import", "import_module", "enumeration", "cli_classify"],
)
def test_classify_stays_the_function(first):
    # the import system binds a submodule on its package when it first loads
    # it; here that must not replace the function
    out = run_fresh(
        first + "\nimport sys, twovalued\nfrom twovalued import classify\n"
        "module = sys.modules['twovalued.classify']\n"
        "print(classify is module.classify, twovalued.classify is module.classify)"
    )
    assert out.split() == ["True", "True"]


def test_star_import_binds_the_eager_names():
    out = run_fresh("from twovalued import *\nprint(' '.join(dir()))")
    assert sorted(k for k in out.split() if not k.startswith("__")) == STAR_NAMES
    assert sorted(twovalued.__all__) == STAR_NAMES


def test_every_name_is_its_submodules_object():
    modules = [import_module("twovalued." + m) for m in SUBMODULES]
    for name in [*twovalued.__all__, "enumerate_all", "read_group", "write_group"]:
        value = getattr(twovalued, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules["twovalued." + name]
        else:
            assert any(getattr(m, name, None) is value for m in modules), name
    assert twovalued.classify is sys.modules["twovalued.classify"].classify


def test_dir_lists_the_lazy_names():
    listed = dir(twovalued)
    assert set(STAR_NAMES) <= set(listed)
    assert {"__version__", "enumerate_all", "group_to_json"} <= set(listed)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        twovalued.nope
    with pytest.raises(ImportError):
        exec("from twovalued import nope", {})


def test_cli_reexports_enumeration_names():
    import twovalued.cli as cli
    from twovalued import enumeration

    assert cli.BudgetExceeded is enumeration.BudgetExceeded
    assert cli.enumerate_all is enumeration.enumerate_all
    with pytest.raises(AttributeError):
        cli.nope


def test_group_file_round_trips_in_a_fresh_interpreter(group_file):
    # the GroupFile reader imports core itself
    out = run_fresh("from twovalued.cli import read_group\n"
                    f"print(len(read_group({group_file!r})))")
    assert int(out) == 10
