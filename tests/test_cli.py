"""GroupFile serialization and the command-line front end."""

import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import twovalued
from twovalued.cli import (
    BudgetExceeded,
    NonSquareTable,
    ParseError,
    cli_main,
    enumerate_all,
    group_from_json,
    group_to_json,
    read_group,
    write_group,
)
from test_structure_oracle import relabel
from twovalued.classify import all_labels_of_size, classify, realize
from twovalued.constructions import principal, product_with_boolean, special_series, unipotent
from twovalued.core import MAX_WITNESSES_PER_TAG, Pair, TwoValuedGroup, verify_axioms


class TestSerialization:
    def test_round_trip_identity(self):
        for X in (principal(5), unipotent(2), special_series(2)):
            text = group_to_json(X)
            Y = group_from_json(text)
            assert Y.names == X.names
            assert Y.table == X.table
            # canonical output is byte-stable
            assert group_to_json(Y) == text

    def test_serialized_form_is_versioned_json(self):
        doc = json.loads(group_to_json(principal(5)))
        assert doc["format_version"] == 1
        assert doc["elements"] == ["0", "1", "2"]
        # cells carry element names, pair-sorted
        assert doc["table"][1][1] == ["0", "2"]

    def test_doubled_cells_repeat_the_name(self):
        doc = json.loads(group_to_json(special_series(2)))
        assert doc["table"][1][2] == ["11", "11"]

    def test_text_ends_with_newline(self):
        assert group_to_json(principal(2)).endswith("\n")

    def test_rejects_wrong_version(self):
        doc = json.loads(group_to_json(principal(2)))
        doc["format_version"] = 99
        with pytest.raises(ParseError):
            group_from_json(json.dumps(doc))

    def test_rejects_non_square_table(self):
        doc = json.loads(group_to_json(principal(5)))
        doc["table"] = doc["table"][:2]
        with pytest.raises(NonSquareTable):
            group_from_json(json.dumps(doc))

    def test_rejects_three_entry_cell(self):
        doc = json.loads(group_to_json(principal(5)))
        doc["table"][1][1] = ["0", "1", "2"]
        with pytest.raises(ParseError):
            group_from_json(json.dumps(doc))

    def test_rejects_unknown_element_name(self):
        doc = json.loads(group_to_json(principal(5)))
        doc["table"][1][1] = ["0", "bogus"]
        with pytest.raises(ParseError):
            group_from_json(json.dumps(doc))

    def test_rejects_duplicate_names(self):
        doc = json.loads(group_to_json(principal(2)))
        doc["elements"] = ["e", "e"]
        with pytest.raises(ParseError):
            group_from_json(json.dumps(doc))

    def test_rejects_malformed_json(self):
        with pytest.raises(ParseError):
            group_from_json("{not json")

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    def test_reader_restores_the_collector_setting(self, enabled, monkeypatch):
        # the cyclic collector stays paused from json.loads through from_pairs
        seen = []
        loads, from_pairs = json.loads, TwoValuedGroup.from_pairs
        monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled()) or loads(text))
        monkeypatch.setattr(TwoValuedGroup, "from_pairs", lambda names, cells: (
            seen.append(gc.isenabled()) or from_pairs(names, cells)))
        (gc.enable if enabled else gc.disable)()
        try:
            group_from_json(group_to_json(principal(5)))
            assert gc.isenabled() == enabled
            with pytest.raises(ParseError):
                group_from_json("{not json")
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [False, False, False]

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json")
        write_group(unipotent(2), path)
        Y = read_group(path)
        assert Y.table == unipotent(2).table


def reference_to_json(X: TwoValuedGroup) -> str:
    """The GroupFile writer as json.dumps of the document, from the Pair
    view: the canonical form group_to_json must reproduce byte for byte."""
    doc = {
        "format_version": 1,
        "elements": list(X.names),
        "identity": X.names[X.identity],
        "table": [
            [[X.names[p.lo], X.names[p.hi]] for p in row] for row in X.table
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_from_json(text: str) -> TwoValuedGroup:
    """A valid GroupFile read into Pair cells and the table= constructor."""
    doc = json.loads(text)
    idx = {s: i for i, s in enumerate(doc["elements"])}
    table = [[Pair.of(idx[a], idx[b]) for a, b in row] for row in doc["table"]]
    return TwoValuedGroup(names=doc["elements"], table=table)


def labelled_groups(relabelled=True):
    """Every class of size 1 to 59, as constructed and, unless relabelled
    is False, with its non-identity elements permuted."""
    for k in range(1, 60):
        for i, label in enumerate(sorted(all_labels_of_size(k), key=str)):
            X = realize(label)
            yield X
            if relabelled and k > 2:
                yield relabel(X, seed=k * 100 + i)[0]


class TestArrayGroupFiles:
    def test_writer_matches_json_dumps(self):
        for X in labelled_groups():
            text = group_to_json(X)
            assert text == reference_to_json(X)
            assert group_to_json(group_from_json(text)) == text

    def test_writer_escapes_names_like_json_dumps(self):
        names = ["e", 'a"b', "c\\d", "\u00e9", "tab\there", "\U0001d11e"]
        X = TwoValuedGroup.from_arrays(names, principal(2, 4).lo, principal(2, 4).hi)
        text = group_to_json(X)
        assert text == reference_to_json(X)
        assert group_from_json(text) == X

    def test_reader_matches_pair_reference(self):
        for X in labelled_groups(relabelled=False):
            doc = json.loads(group_to_json(X))
            # every other cell with its names swapped, which the reader sorts
            doc["table"] = [
                [cell[::-1] if (i + j) % 2 else cell for j, cell in enumerate(row)]
                for i, row in enumerate(doc["table"])
            ]
            text = json.dumps(doc)
            assert group_from_json(text) == reference_from_json(text) == X

    def test_group_file_path_builds_no_pair_view(self, capsys, monkeypatch):
        X = special_series(3)
        Y = group_from_json(group_to_json(X))
        assert "table" not in vars(X)
        assert "table" not in vars(Y)
        groups = []  # the groups the listing names its cells from

        def kept(*args, **kwargs):
            groups.extend(enumerate_all(*args, **kwargs))
            return groups

        monkeypatch.setattr(twovalued.enumeration, "enumerate_all", kept)
        assert cli_main(["enumerate", "3", "--all"]) == 0
        listing = capsys.readouterr().out.splitlines()[1:]
        assert len(listing) == len(groups) == 4
        for X, line in zip(groups, listing):
            assert "table" not in vars(X)
            cells = json.loads(line.split(": ", 1)[1])
            assert cells == json.loads(reference_to_json(X))["table"]


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstructVerifyClassify:
    def test_construct_principal_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code, out, _ = run(capsys, "construct", "--principal", "4,4", "-o", path)
        assert code == 0
        assert classify(read_group(path)).size() == 10

    def test_construct_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "--special", "2")
        assert code == 0
        assert group_from_json(out).names == special_series(2).names

    def test_construct_with_boolean_factors(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code, _, _ = run(capsys, "construct", "--unipotent", "2", "--times-c2", "1", "-o", path)
        assert code == 0
        assert len(read_group(path).names) == 20

    @pytest.mark.parametrize("target", ["missing/g.json", "."], ids=["missing_dir", "directory"])
    def test_construct_unwritable_output_is_an_error(self, target, tmp_path, capsys):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "construct", "--principal", "3", "-o", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    def test_construct_requires_exactly_one_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["construct", "--principal", "4", "--special", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_construct_rejects_bad_chain(self, capsys):
        code, _, err = run(capsys, "construct", "--principal", "4,2")
        assert code == 2

    def test_verify_valid_group(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        write_group(principal(6), path)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "two_valued_group: true" in out

    def test_verify_broken_identity_exits_one(self, tmp_path, capsys):
        doc = json.loads(group_to_json(principal(2)))
        doc["table"][0][1] = ["0", "1"]  # identity must double
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "strong_identity" in out

    def test_verify_reports_true_violation_count(self, tmp_path, capsys):
        # a seeded random table with identity row and inverses intact, but
        # more associativity violations than verify keeps as witnesses
        rng = random.Random(11)
        n = 14
        cells = [[(0, 0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                if a == 0:
                    cell = (b, b)
                elif a == b:
                    cell = (0, rng.randrange(n))
                else:
                    cell = tuple(rng.sample(range(1, n), 2))
                cells[a][b] = cells[b][a] = cell
        X = TwoValuedGroup.from_pairs([f"g{i}" for i in range(n)], cells)
        t = X.table
        bad = 0
        for x, y, z in itertools.product(range(n), repeat=3):
            lhs = sorted(w for u in t[x][y] for w in t[u][z])
            rhs = sorted(w for v in t[y][z] for w in t[x][v])
            bad += lhs != rhs
        assert bad > MAX_WITNESSES_PER_TAG
        path = str(tmp_path / "random.json")
        write_group(X, path)
        code, out, _ = run(capsys, "verify", path, "--max-violations", "5")
        assert code == 1
        assert out.count("violation: associativity") == 5
        assert out.splitlines()[-1] == f"... and {bad - 5} more violations"

    def test_verify_rejects_negative_max_violations(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        write_group(principal(6), path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", path, "--max-violations", "-3"])
        assert exc.value.code == 2
        assert "--max-violations" in capsys.readouterr().err

    def test_classify_prints_label(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        write_group(unipotent(2), path)
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert out.strip() == "Principal(4,4)"

    def test_classify_rejects_invalid_group(self, tmp_path, capsys):
        doc = json.loads(group_to_json(principal(2)))
        doc["table"][0][1] = ["0", "1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/nowhere.json")
        assert code == 1


class TestIso:
    def test_isomorphic_pair_exits_zero(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_group(principal(4, 4), a)
        write_group(unipotent(2), b)
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        assert "isomorphic" in out

    def test_non_isomorphic_pair_exits_one(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_group(principal(9), a)
        write_group(principal(3, 3), b)
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 1

    def test_witness_mode_prints_map(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_group(principal(4, 4), a)
        write_group(unipotent(2), b)
        code, out, _ = run(capsys, "iso", a, b, "--witness")
        assert code == 0
        assert "->" in out

    def test_negative_witness_budget_is_usage_error(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        write_group(principal(6), a)
        with pytest.raises(SystemExit) as exc:
            cli_main(["iso", a, a, "--witness", "--budget", "-1"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestEnumerate:
    def test_counts_match_search(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--involutive-commutative")
        assert code == 0
        assert "2" in out.splitlines()[0]

    def test_labels_listed(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "--involutive-commutative")
        assert code == 0
        for lab in ("Principal(8)", "Principal(9)", "Principal(3,3)", "Special(2,0)"):
            assert lab in out

    def test_json_mode_emits_group_files(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--involutive-commutative", "--json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 2
        for doc in docs:
            X = group_from_json(json.dumps(doc))
            assert verify_axioms(X).is_two_valued_group

    def test_general_mode(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--all")
        assert code == 0
        assert "4" in out.splitlines()[0]

    def test_budget_exhaustion_exits_one(self, capsys):
        code, _, err = run(capsys, "enumerate", "5", "--involutive-commutative", "--budget", "10")
        assert code == 1

    def test_oversized_request_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "9", "--involutive-commutative")
        assert code == 2

    def test_negative_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["enumerate", "5", "--budget", "-5"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestEnumerateLibrary:
    def test_budget_argument_caps_the_search(self):
        with pytest.raises(BudgetExceeded):
            enumerate_all(6, budget=10)

    def test_small_sizes_need_no_budget(self):
        assert [len(enumerate_all(k)) for k in range(1, 5)] == [1, 2, 2, 3]

    def test_general_mode_class_counts(self):
        counts = [len(enumerate_all(k, involutive_commutative=False)) for k in range(1, 5)]
        assert counts == [1, 2, 4, 7]

    def test_general_search_contains_ic_groups(self):
        gs = enumerate_all(3, involutive_commutative=False)
        flags = [
            (r.is_commutative and r.is_involutive)
            for r in map(verify_axioms, gs)
        ]
        assert len(gs) == 4
        assert sum(flags) == 2

    def test_enumerated_groups_all_verify(self):
        for g in enumerate_all(5):
            assert verify_axioms(g).is_two_valued_group


class TestElliptic:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "elliptic", "--samples", "20")
        assert code == 0
        assert "20/20" in out

    def test_fixed_params(self, capsys):
        code, out, _ = run(capsys, "elliptic", "--params", "0.1,0.2,-0.3", "--samples", "10")
        assert code == 0

    def test_complex_params_with_i_notation(self, capsys):
        code, out, _ = run(capsys, "elliptic", "--params", "0.1+0.1i,0,0", "--samples", "5")
        assert code == 0

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_too_few_samples_is_usage_error(self, samples, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["elliptic", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_malformed_params_usage_error(self, capsys):
        code, _, err = run(capsys, "elliptic", "--params", "1,2")
        assert code == 2

    @pytest.mark.parametrize("params", ["nan,0,0", "1e999,0,0", "0,0,nanj", "inf,0,0",
                                        "0,-infi,0"])
    def test_non_finite_params_are_usage_error(self, params, capsys):
        # refused as input, before any sample gives a verdict
        code, out, err = run(capsys, "elliptic", "--params", params, "--samples", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("bad --params: ") and "not a finite number" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-0.5", "x"])
    def test_bad_tolerance_is_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["elliptic", "--samples", "3", f"--tol={tol}"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_zero_tolerance_is_valid(self, capsys):
        # the comparison adds an absolute tolerance of its own
        code, out, _ = run(capsys, "elliptic", "--samples", "3", "--tol", "0")
        assert code == 0
        assert "3/3" in out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_run_prints_no_runtime_warning():
    # `python -m twovalued.cli` must not find the module already imported
    # by the package
    src = os.path.dirname(os.path.dirname(twovalued.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "twovalued.cli",
         "construct", "--principal", "5"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_oversized_construct_fails_with_exit_two():
    # the child caps its own address space at 1 GiB before it starts; the
    # 2^40-element underlying group cannot be allocated, which must end in
    # a message and exit code 2, not a traceback (the timeout only guards
    # against a hang)
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(twovalued.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "twovalued.cli", "construct", "--unipotent", "20"],
        env=env, capture_output=True, text=True, preexec_fn=cap, timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, group",
    [(["--special", "40"], "special_series(40), 1,099,511,627,777 elements"),
     (["--principal", "2", "-m", "40"], "a 2-element group x C2^40, 2,199,023,255,552 elements"),
     (["--unipotent", "11"], "unipotent(11), 2,098,176 elements"),
     (["--unipotent", "12"], "unipotent(12), 8,390,656 elements"),
     (["--unipotent", "20"], "unipotent(20), 549,756,338,176 elements"),
     (["--principal", "1048576,1048576"], "principal(1048576,1048576), 549,755,813,890 elements"),
     # counts of more than 4,300 digits, which str() refuses, by their power of two
     (["--special", "100000"], "special_series(100000), at least 2^100,000 elements"),
     (["--unipotent", "10000"], "unipotent(10000), at least 2^19,999 elements"),
     (["--principal", "3", "-m", "1000000000"],
      "a 2-element group x C2^1000000000, at least 2^1,000,000,001 elements")],
    ids=["special40", "principal2_m40", "unipotent11", "unipotent12", "unipotent20",
         "principal2^20x2^20", "special100000", "unipotent10000", "principal3_m10^9"],
)
def test_huge_construct_fails_fast(argv, group):
    # the table is allocated before the 2^40 element names are built, before
    # the 2^m x 2^m table of product_with_boolean, or before the automorphism
    # checks over the 4^rank underlying elements, so numpy refuses at once
    # and the message names the group; the child caps its address space at 2 GiB,
    # and the timeout makes a hang fail the test instead of stalling it
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = _cli_child("construct", *argv, stdout=subprocess.DEVNULL, preexec_fn=cap, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr == f"error: out of memory (the table of {group}, does not fit)\n"


def _cli_child(*argv, timeout=300, **kwargs):
    src = os.path.dirname(os.path.dirname(twovalued.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "twovalued.cli", *argv],
        env=env, stderr=subprocess.PIPE, text=True, timeout=timeout, **kwargs,
    )


def test_non_string_cell_entry_is_parse_error(tmp_path):
    doc = json.loads(group_to_json(principal(5)))
    doc["table"][0][0] = [["e"], "e"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = _cli_child("verify", str(path), stdout=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cell (0,0)")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_non_integer_format_version_is_parse_error(version, tmp_path, capsys):
    # True == 1 and 1.0 == 1 in Python, but only the JSON integer 1 is valid
    doc = json.loads(group_to_json(principal(5)))
    doc["format_version"] = version
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("error: unsupported format_version")
    assert "Traceback" not in err


def test_non_utf8_group_file_is_parse_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + group_to_json(principal(5)).encode("utf-16-le"))
    for arg in (str(path), "-"):
        with open(path, "rb") as fh:
            proc = _cli_child("verify", arg, stdin=fh, stdout=subprocess.PIPE)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: cannot read {arg}: 'utf-8' codec can't decode")
        assert len(proc.stderr.splitlines()) == 1


def test_deeply_nested_group_file_is_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    proc = _cli_child("verify", str(path), stdout=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


FUZZ_GROUPS = [principal(5), special_series(2), principal(2, 4), product_with_boolean(principal(3), 2)]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 300), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def fuzz_group_file(draw) -> bytes:
    """A GroupFile of a group of at most 8 elements with one mutation."""
    doc = json.loads(group_to_json(draw(st.sampled_from(FUZZ_GROUPS))))
    n = len(doc["elements"])
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    row, cell = doc["table"][i], doc["table"][i][j]
    name = st.sampled_from(doc["elements"])
    kind = draw(st.sampled_from([
        "type", "ragged", "cell size", "element name", "cell name", "version",
        "missing key", "truncated", "not utf-8",
    ]))
    if kind == "type":  # a value of another JSON type at some level
        junk = draw(JUNK)
        where = draw(st.sampled_from(["doc", "key", "row", "cell", "entry", "element"]))
        if where == "doc":
            doc = junk
        elif where == "key":
            doc[draw(st.sampled_from(sorted(doc)))] = junk
        elif where == "row":
            doc["table"][i] = junk
        elif where == "cell":
            row[j] = junk
        elif where == "entry":
            cell[draw(st.integers(0, 1))] = junk
        else:
            doc["elements"][i] = junk
    elif kind == "ragged":
        if draw(st.booleans()):
            del row[j]
        else:
            row.append(cell)
    elif kind == "cell size":
        row[j] = draw(st.lists(name, min_size=0, max_size=3).filter(lambda c: len(c) != 2))
    elif kind == "element name":  # unknown to the table, or a duplicate
        doc["elements"][i] = draw(st.one_of(st.text(max_size=3), name))
    elif kind == "cell name":
        cell[draw(st.integers(0, 1))] = draw(st.text(max_size=3))
    elif kind == "missing key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    if kind == "version":
        version = draw(st.sampled_from(["true", "1.0", '"1"', "2", "1" * 5000]))
        text = text.replace('"format_version": 1', '"format_version": ' + version)
    data = text.encode()
    if kind == "truncated":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif kind == "not utf-8":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[k:]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "g.json")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_group_files_fail_cleanly(data, fuzz_path):
    with open(fuzz_path, "wb") as fh:
        fh.write(fuzz_group_file(data.draw))
    try:
        read_group(fuzz_path)
        parses = True
    except ParseError:
        parses = False
    for command in ("verify", "classify"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([command, fuzz_path])
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if not parses:
            assert code == 1
            assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_closed_stdout_pipe_exits_quietly():
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE, as under `twovalued enumerate 4 --all | head -1`
    # once head has exited
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _cli_child("enumerate", "4", "--all", stdout=w)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
