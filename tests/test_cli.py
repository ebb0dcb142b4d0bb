import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import argparse

import pytest
from hypothesis import given, settings, strategies as st

from reidemeister.cli import (
    DEFAULT_BOUND,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNDECIDED,
    FAMILY_TABLE,
    MAX_BOUND,
    run,
)
from reidemeister import groups, spectra
from reidemeister.exactlin import parse_matrix
from reidemeister.groups import MAX_BALL_SITES, family_from_json

GOLDEN = Path(__file__).parent / "golden"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def payload(text):
    return json.loads(text)


def _python(*args, stdin=None):
    """A fresh interpreter on the package's source tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=60)


def test_spectrum_hyperbolic_example():
    code, out, err = invoke(["spectrum", "--family", "z2-semidirect", "--matrix", "2,3;3,5"])
    assert code == EXIT_OK and err == ""
    env = payload(out)
    assert env["result"]["spectrum"] == {"kind": "finite", "values": [4]}
    assert env["trace"]
    assert env["version"]


def test_rnumber_witness_example():
    code, out, _ = invoke(
        ["rnumber", "--family", "heisenberg-times-z", "--n", "1", "--witness", "phi_m", "--param", "3"]
    )
    assert code == EXIT_OK
    assert payload(out)["result"]["rnumber"] == 12


def test_spectrum_identity_is_full():
    code, out, _ = invoke(["spectrum", "--family", "z2-semidirect", "--matrix", "1,0;0,1"])
    assert code == EXIT_OK
    assert payload(out)["result"]["spectrum"] == {"kind": "full"}


def test_json_output_is_byte_deterministic():
    argv = ["spectrum", "--family", "z3-semidirect", "--matrix", "1,0,1;0,5,2;0,2,1"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second


def test_decide_outcomes_and_exit_codes():
    code, out, _ = invoke(["decide", "--matrix", "2,3;3,5"])
    assert code == EXIT_OK
    body = payload(out)["result"]
    assert body["outcome"] == "witness"
    assert body["witness"]["matrix"] == [[0, -1], [1, 0]]

    code, out, _ = invoke(["decide", "--matrix", "0,-1;1,0"])
    assert code == EXIT_OK
    assert payload(out)["result"]["outcome"] == "proven-empty"

    # no solution with |m| <= 1 for this matrix, so the bounded search is inconclusive
    code, out, _ = invoke(["decide", "--matrix", "1,1;3,4", "--bound", "1"])
    assert code == EXIT_UNDECIDED
    assert payload(out)["result"]["outcome"] == "none-up-to-bound"


def test_parse_errors_name_token_and_position():
    code, out, err = invoke(["spectrum", "--family", "z2-semidirect", "--matrix", "2,x;3,5"])
    assert code == EXIT_ERROR and out == ""
    assert "row 1, entry 2" in err and "'x'" in err


def test_dimension_errors_exit_one():
    code, _, err = invoke(["spectrum", "--family", "z3-semidirect", "--matrix", "2,3;3,5"])
    assert code == EXIT_ERROR and "3x3" in err


ARGUMENT_ERRORS = [
    (["spectrum", "--bogus"], "unrecognized arguments: --bogus"),
    (["spectrum", "--family", "heisenberg", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["mystery"], "invalid choice: 'mystery'"),
    ([], "the following arguments are required: command"),
    (["oracle", "--family", "heisenberg", "--n", "1"], "the following arguments are required: --radius"),
    (["spectrum", "--family", "hn-semidirect", "--n", "2", "--matrix=-1,0;0,-1", "--twists", "1,0"],
     "unrecognized arguments: --twists 1,0"),
]


@pytest.mark.parametrize(
    "argv, message", ARGUMENT_ERRORS, ids=["bogus", "n-not-int", "command", "none", "radius", "twists"]
)
def test_argument_errors_end_in_one_error_line(argv, message, capsys):
    code, out, err = invoke(argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    # no usage block leaks to the process streams
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_rnumber_refuses_a_heisenberg_parameter_below_one(n):
    code, out, err = invoke(["rnumber", "--family", "heisenberg", "--n=" + n, "--witness", "phi_m", "--param", "1"])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: Heisenberg parameter must be >= 1\n"


def test_help_and_version_still_exit_zero(capsys):
    code, out, err = invoke(["--version"])
    assert code == EXIT_OK and out.strip() and err == ""
    code, out, err = invoke(["spectrum", "--help"])
    assert code == EXIT_OK and "--family" in out and err == ""
    # both go to the stream run() was given, not to the process's stdout
    assert capsys.readouterr() == ("", "")


def test_unknown_family_exit_one():
    code, _, err = invoke(["spectrum", "--family", "mystery", "--matrix", "1,0;0,1"])
    assert code == EXIT_ERROR and "mystery" in err


def test_spectrum_undecided_exit_code():
    code, out, _ = invoke(
        ["spectrum", "--family", "z2-semidirect", "--matrix", "1,1;3,4", "--bound", "1"]
    )
    assert code == EXIT_UNDECIDED
    body = payload(out)["result"]["spectrum"]
    assert body["kind"] == "undecided" and body["bound"] == 1


def test_double_ext_and_hn_families():
    code, out, _ = invoke(
        ["spectrum", "--family", "double-ext", "--matrix", "5,2;2,1", "--n0", "1,0"]
    )
    assert code == EXIT_OK
    assert payload(out)["result"]["spectrum"] == {"kind": "r_infinity"}

    code, out, _ = invoke(["spectrum", "--family", "hn-semidirect", "--n", "2", "--k", "1", "--l", "0"])
    assert code == EXIT_OK
    assert payload(out)["result"]["spectrum"] == {"kind": "multiples", "c": 8}

    code, out, _ = invoke(["spectrum", "--family", "heisenberg", "--n", "5"])
    assert payload(out)["result"]["spectrum"] == {"kind": "multiples", "c": 2}

    code, out, _ = invoke(["spectrum", "--family", "three-step"])
    assert payload(out)["result"]["spectrum"] == {"kind": "r_infinity"}


def test_hn_semidirect_reads_its_twists_with_the_inverting_matrix():
    # --matrix=-I is the default action, and --k/--l are its twists for
    # every command: this group is 8N, never the untwisted 4N
    for extra in ([], ["--matrix=-1,0;0,-1"]):
        code, out, _ = invoke(["spectrum", "--family", "hn-semidirect", "--n", "2", "--k", "1", "--l", "0"] + extra)
        assert code == EXIT_OK
        assert payload(out)["result"]["spectrum"] == {"kind": "multiples", "c": 8}
    code, out, _ = invoke(["spectrum", "--family", "hn-semidirect", "--n", "2"])
    assert code == EXIT_OK
    assert payload(out)["result"]["spectrum"] == {"kind": "multiples", "c": 4}


@pytest.mark.parametrize("command", ["rnumber", "oracle"])
def test_hn_semidirect_witnesses_refuse_an_action_other_than_minus_identity(command):
    # the spectrum of this action is {oo}, so no witness with R = 8 exists on it
    code, out, _ = invoke(["spectrum", "--family", "hn-semidirect", "--n", "2", "--matrix", "0,1;1,0"])
    assert payload(out)["result"]["spectrum"] == {"kind": "r_infinity"}
    argv = [command, "--family", "hn-semidirect", "--n", "2", "--matrix", "0,1;1,0", "--witness", "M_r", "--param", "2"]
    code, out, err = invoke(argv + (["--radius", "1"] if command == "oracle" else []))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "inverting action" in err


def test_three_step_group_takes_a_spec_json(tmp_path):
    # e_i -> the columns of (-1,-1,-1; 0,1,0; 0,0,-1), t -> t^-1, on Z^3 x|_J Z
    doc = {
        "family": {"tag": "zn-semidirect-z", "matrix": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]},
        "images": {"e1": [-1, 0, 0, 0], "e2": [-1, 1, 0, 0], "e3": [-1, 0, -1, 0], "t": [0, 0, 0, -1]},
    }
    assert family_from_json(doc["family"]) == FAMILY_TABLE["three-step"][0](groups, argparse.Namespace())
    spec_file = tmp_path / "three_step.json"
    spec_file.write_text(json.dumps(doc))
    code, out, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert code == EXIT_OK and err == ""
    assert payload(out)["result"]["rnumber"] == "infinity"


def test_three_step_witness_request_ends_in_one_error_line():
    code, out, err = invoke(["rnumber", "--family", "three-step", "--witness", "M_m", "--param", "1"])
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tables_match_golden_json():
    _, out, _ = invoke(["tables", "--format", "json"])
    assert out == (GOLDEN / "tables.json").read_text()


def test_tables_match_golden_text():
    _, out, _ = invoke(["tables", "--format", "text"])
    assert out == (GOLDEN / "tables.txt").read_text()


def test_oracle_exit_codes():
    code, out, _ = invoke(
        ["oracle", "--family", "z2-semidirect", "--matrix=-1,0;0,-1",
         "--witness", "M_m", "--param", "2", "--radius", "3"]
    )
    assert code == EXIT_OK
    body = payload(out)["result"]
    assert body["complete"] is True and body["classes"] == 4 and body["formula"] == 4

    code, out, _ = invoke(
        ["oracle", "--family", "free-abelian", "--n", "1", "--witness", "negation",
         "--param", "1", "--radius", "2"]
    )
    assert code == EXIT_OK and payload(out)["result"]["classes"] == 2


def test_oracle_radius_beyond_the_ball_cap_exits_at_once():
    started = time.perf_counter()
    code, out, err = invoke(
        ["oracle", "--family", "heisenberg-times-z", "--n", "1", "--witness", "phi_m",
         "--param", "1", "--radius", "50"]
    )
    assert time.perf_counter() - started < 5.0
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "101^4 = 104060401 sites" in err and str(MAX_BALL_SITES) in err
    assert MAX_BALL_SITES >= 13 ** 4  # the largest labelled ball in the tests: radius 6, four slots


@pytest.mark.parametrize(
    "matrix, n0, rule",
    [("5,2;2,1", "1,0", "ext:parity-obstruction"), ("3,1;2,1", "0,0", "system2:proven-empty")],
    ids=["parity", "empty"],
)
@pytest.mark.parametrize("param", ["1", "1000000000000"], ids=["1", "1e12"])
def test_phi_eight_without_a_lifting_solution_names_the_proof(matrix, n0, rule, param):
    # no search and no cap: the error line names the proof of {oo}, at any --param
    started = time.perf_counter()
    code, out, err = invoke(
        ["rnumber", "--family", "double-ext", "--matrix", matrix, "--n0", n0, "--witness", "phi_eight", "--param", param]
    )
    assert time.perf_counter() - started < 5.0
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert rule in err and "{oo}" in err


@pytest.mark.parametrize("matrix", ["1,0;0,-1", "0,1;1,0", "1,1;1,0"])
def test_phi_eight_refuses_a_determinant_minus_one_action(matrix):
    code, out, err = invoke(
        ["rnumber", "--family", "double-ext", "--matrix", matrix, "--n0", "0,0",
         "--witness", "phi_eight", "--param", "1"]
    )
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "internal error" not in err and "determinant -1" in err


@pytest.mark.parametrize(
    "matrix, rule",
    [
        ("1,1;0,1", "ext:repeated-eigenvalue"),
        ("-1,1;0,-1", "ext:repeated-eigenvalue"),
        ("0,-1;1,0", "z3:block-order-four-or-six"),
        ("0,-1;1,-1", "z3:block-order-four-or-six"),
        ("1,-1;1,0", "z3:block-order-four-or-six"),
    ],
)
def test_phi_eight_refuses_a_non_hyperbolic_action_before_the_search(matrix, rule):
    code, out, err = invoke(
        ["rnumber", "--family", "double-ext", "--matrix=" + matrix, "--n0", "1,0",
         "--witness", "phi_eight", "--param", "1"]
    )
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert rule in err and "{oo}" in err


def test_double_ext_spectrum_of_a_finite_order_action():
    code, out, err = invoke(["spectrum", "--family", "double-ext", "--matrix=0,-1;1,0", "--n0", "1,0"])
    assert (code, err) == (EXIT_OK, "")
    assert payload(out)["result"]["spectrum"] == {"kind": "r_infinity"}


def test_double_ext_spectrum_of_a_large_hyperbolic_action():
    # (2,1;1,1)^50 has entries near 10^20; the lifting test reads the block
    # mod 2, so no Smith form of large entries stands before the answer
    matrix = (parse_matrix("2,1;1,1") ** 50).to_text()
    started = time.perf_counter()
    code, out, err = invoke(["spectrum", "--family", "double-ext", "--matrix", matrix, "--n0", "1,0"])
    assert time.perf_counter() - started < 5.0
    assert (code, err) == (EXIT_OK, "")
    env = payload(out)
    assert env["trace"][-1] == "ext:lifting-witness"
    assert env["result"]["spectrum"] == {"kind": "finite", "values": [8]}


def test_z3_spectrum_of_a_conjugated_large_hyperbolic_block():
    # P (1, (1,0); 0, (2,1;1,1)^70) P^-1 has entries near 10^29; the
    # eigenvector of 1 and its basis completion are closed forms
    a_prime = parse_matrix("2,1;1,1") ** 70
    block = parse_matrix("1,1,0;0,%d,%d;0,%d,%d" % a_prime.entries)
    p = parse_matrix("1,1,0;0,1,1;1,1,1")
    matrix = (p * block * p.inverse_unimodular()).to_text()
    started = time.perf_counter()
    code, out, err = invoke(["spectrum", "--family", "z3-semidirect", "--matrix", matrix])
    assert time.perf_counter() - started < 5.0
    assert (code, err) == (EXIT_OK, "")
    assert payload(out)["trace"][0] == "z3:hyperbolic-block"


def test_double_ext_rnumber_counts_a_large_quotient_by_class(tmp_path):
    # Q = (a, 2; (a^2-1)/2, a) has |det(I - Q)| = 2(a - 1) cosets; they are
    # counted by class, not listed
    a = 10**12 + 1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(
            {
                "family": {"tag": "z2-minusi-ext", "matrix": [[1, 0], [0, 1]], "n0": [0, 0]},
                "images": {"e1": [2, 1, 0, 0], "e2": [1, 1, 0, 0], "t": [0, 0, a, (a * a - 1) // 2], "u": [0, 0, 2, a]},
            }
        )
    )
    started = time.perf_counter()
    code, out, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert time.perf_counter() - started < 5.0
    assert (code, err) == (EXIT_OK, "")
    assert payload(out)["result"]["rnumber"] == 6 * 10**12


def test_double_ext_small_actions_end_in_a_result_or_one_error_line():
    # every det +-1 action in [-2,2]^4 and n0 in [-1,1]^2, spectrum and phi_eight
    rows = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3) for d in range(-2, 3)]
    for a, b, c, d in rows:
        if a * d - b * c not in (1, -1):
            continue
        for n0 in ("-1,-1", "-1,0", "-1,1", "0,-1", "0,0", "0,1", "1,-1", "1,0", "1,1"):
            common = ["--family", "double-ext", "--matrix=%d,%d;%d,%d" % (a, b, c, d), "--n0=" + n0, "--bound", "50"]
            for argv in (["spectrum"] + common, ["rnumber"] + common + ["--witness", "phi_eight", "--param", "1"]):
                code, out, err = invoke(argv)
                if code == EXIT_ERROR:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                    assert "internal error" not in err, argv
                else:
                    assert code in (EXIT_OK, EXIT_UNDECIDED) and err == "", argv
                    payload(out)


@pytest.mark.parametrize("matrix", ["0,1;1,0", "5,2;2,1"])
def test_double_ext_spectrum_rejects_an_n0_of_three_entries(matrix):
    code, out, err = invoke(["spectrum", "--family", "double-ext", "--matrix", matrix, "--n0", "1,2,3"])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: n0 must have exactly two entries, got 3\n"


def test_oracle_incomplete_exit_code(tmp_path):
    spec_file = tmp_path / "identity.json"
    spec_file.write_text(
        json.dumps({"family": {"tag": "free-abelian", "n": 1}, "images": {"e1": [1]}})
    )
    code, out, _ = invoke(["oracle", "--spec-json", str(spec_file), "--radius", "3"])
    assert code == EXIT_UNDECIDED
    body = payload(out)["result"]
    assert body["complete"] is False and body["formula"] == "infinity"


def test_oracle_far_translation_has_no_edges_and_exits_at_once(tmp_path):
    # e1 -> e1 + 10^12 e2: (I - M) Z^2 = 10^12 Z e2, so the 25 sites of the
    # radius-2 ball lie in 25 classes, of infinitely many
    spec_file = tmp_path / "far.json"
    spec_file.write_text(
        json.dumps({"family": {"tag": "free-abelian", "n": 2}, "images": {"e1": [1, 10**12], "e2": [0, 1]}})
    )
    start = time.perf_counter()
    code, out, _ = invoke(["oracle", "--spec-json", str(spec_file), "--radius", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_UNDECIDED
    body = payload(out)["result"]
    assert body["classes"] == 5 ** 2
    assert body["complete"] is False and body["formula"] == "infinity"


def test_rnumber_from_spec_json(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(
            {
                "family": {"tag": "heisenberg-times-z", "n": 1},
                "images": {"x": [0, 1, 0, 0], "y": [1, 2, 0, 0], "z": [0, 0, -1, 0], "u": [0, 0, 0, -1]},
            }
        )
    )
    code, out, _ = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert code == EXIT_OK
    assert payload(out)["result"]["rnumber"] == 8


def test_rnumber_spec_json_rejects_non_automorphism(tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(
        json.dumps(
            {
                "family": {"tag": "heisenberg", "n": 1},
                "images": {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 2]},
            }
        )
    )
    code, _, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert code == EXIT_ERROR and "verification failed" in err


@pytest.mark.parametrize(
    "data, missing",
    [
        ({"images": {"e1": [1]}}, "family"),
        ({"family": {"tag": "free-abelian", "n": 1}}, "images"),
        ({"family": {"tag": "zn-semidirect-z"}, "images": {"e1": [1], "e2": [0, 1], "t": [0, 0, 1]}}, "matrix"),
        ([{"tag": "free-abelian", "n": 1}], "object"),
        ({"family": {"tag": "free-abelian", "n": 2}, "images": {"e1": "10", "e2": "01"}}, "images"),
        ({"family": {"tag": "free-abelian", "n": 2}, "images": {"e1": [0, 1], "e2": [-1, 3], "e3": [5, 5]}}, "'e3'"),
    ],
)
def test_rnumber_spec_json_rejects_malformed_json(tmp_path, data, missing):
    spec_file = tmp_path / "malformed.json"
    spec_file.write_text(json.dumps(data))
    code, out, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err


def test_rnumber_spec_json_refuses_a_family_key_the_family_lacks(tmp_path):
    # ignoring the key would print the count of the -I group, exit 0
    doc = groups.witness(groups.HnSemidirectZ(1, 0, 0), "M_r", 1).to_json_dict()
    doc["family"]["matrix"] = [[0, 1], [1, 0]]
    spec_file = tmp_path / "extra.json"
    spec_file.write_text(json.dumps(doc))
    code, out, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert (code, out, err) == (EXIT_ERROR, "", "error: family 'hn-semidirect-z' has no field 'matrix'\n")


@pytest.mark.parametrize("key", ["imagez", "verified"])
def test_rnumber_spec_json_refuses_a_top_level_key_it_lacks(tmp_path, key):
    # ignoring the key would print {"rnumber":4}, exit 0
    doc = groups.witness(groups.FreeAbelian(2), "negation", 1).to_json_dict()
    doc[key] = True
    spec_file = tmp_path / "extra.json"
    spec_file.write_text(json.dumps(doc))
    code, out, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert (code, out, err) == (EXIT_ERROR, "", "error: automorphism JSON has no key %r\n" % key)


# valid automorphism documents of each JSON family; every one answers exit 0
SPEC_DOCS = [
    {
        "family": {"tag": "heisenberg-times-z", "n": 1},
        "images": {"x": [0, 1, 0, 0], "y": [1, 2, 0, 0], "z": [0, 0, -1, 0], "u": [0, 0, 0, -1]},
    },
    {"family": {"tag": "free-abelian", "n": 2}, "images": {"e1": [0, 1], "e2": [-1, 3]}},
    {"family": {"tag": "heisenberg", "n": 2}, "images": {"x": [0, 1, 0], "y": [1, 1, 0], "z": [0, 0, -1]}},
    {
        "family": {"tag": "zn-semidirect-z", "matrix": [[2, 3], [3, 5]]},
        "images": {"e1": [1, 0, 0], "e2": [0, 1, 0], "t": [0, 0, 1]},
    },
    {
        "family": {"tag": "z2-minusi-ext", "matrix": [[2, 1], [1, 1]], "n0": [1, 0]},
        "images": {"e1": [1, 0, 0, 0], "e2": [0, 1, 0, 0], "t": [0, 0, 1, 0], "u": [0, 0, 0, 1]},
    },
    {
        "family": {"tag": "hn-semidirect-z", "n": 1, "k": 0, "l": 0},
        "images": {"x": [1, 0, 0, 0], "y": [0, 1, 0, 0], "z": [0, 0, 1, 0], "t": [0, 0, 0, 1]},
    },
]


def _with(doc, path, value):
    """A deep copy of doc with the value at path replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _slots(doc):
    """Every path of doc below its two top-level keys, each with whether
    it holds an integer."""
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            paths.append((path + (key,), type(value) is int))
            if isinstance(value, (dict, list)):
                walk(value, path + (key,))

    walk(doc, ())
    return paths


def _spec_stdin(doc, command="rnumber"):
    argv = [command, "--spec-json", "-"] + (["--radius", "1"] if command == "oracle" else [])
    stdin = io.StringIO(json.dumps(doc))
    saved, sys.stdin = sys.stdin, stdin
    try:
        return invoke(argv)
    finally:
        sys.stdin = saved


@pytest.mark.parametrize("doc", SPEC_DOCS, ids=[d["family"]["tag"] for d in SPEC_DOCS])
def test_spec_docs_are_valid_automorphisms(doc):
    code, out, err = _spec_stdin(doc)
    assert code == EXIT_OK and err == "" and payload(out)["result"]["rnumber"]


NON_INTEGERS = [
    (SPEC_DOCS[0], ("family", "n"), 1.9, "'n'"),
    (SPEC_DOCS[0], ("family", "n"), "1", "'n'"),
    (SPEC_DOCS[0], ("family", "n"), True, "'n'"),
    (SPEC_DOCS[0], ("images", "y", 1), 2.7, "'y'"),
    (SPEC_DOCS[0], ("images", "u", 3), "-1", "'u'"),
    (SPEC_DOCS[1], ("images", "e2", 0), True, "'e2'"),
    (SPEC_DOCS[3], ("family", "matrix", 1, 0), "3", "'matrix'"),
    (SPEC_DOCS[3], ("family", "matrix", 0, 0), 2.0, "'matrix'"),
    (SPEC_DOCS[4], ("family", "matrix", 1, 1), True, "'matrix'"),
    (SPEC_DOCS[4], ("family", "n0"), "10", "n0"),
    (SPEC_DOCS[4], ("family", "n0", 0), "1", "n0"),
    (SPEC_DOCS[4], ("family", "n0", 1), 0.5, "n0"),
    (SPEC_DOCS[5], ("family", "k"), 1.5, "'k'"),
    (SPEC_DOCS[5], ("family", "l"), 1e400, "'l'"),
]


@pytest.mark.parametrize(
    "doc, path, value, field",
    NON_INTEGERS,
    ids=["%s:%s=%r" % (d["family"]["tag"], ".".join(map(str, p)), v) for d, p, v, _ in NON_INTEGERS],
)
def test_spec_json_refuses_a_non_integer_in_an_integer_field(doc, path, value, field):
    code, out, err = _spec_stdin(_with(doc, path, value))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


RANK_ABOVE_FOUR = [
    ["spectrum", "--family", "free-abelian", "--n", "5"],
    ["spectrum", "--family", "free-abelian", "--n", "1000000"],
    ["rnumber", "--family", "free-abelian", "--n", "5", "--witness", "negation", "--param", "1"],
    ["oracle", "--family", "free-abelian", "--n", "6", "--witness", "target", "--param", "2", "--radius", "1"],
]


@pytest.mark.parametrize("argv", RANK_ABOVE_FOUR, ids=[" ".join(a[:1] + a[4:6]) for a in RANK_ABOVE_FOUR])
def test_free_abelian_rank_above_four_ends_in_one_error_line(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "MAX_RANK = 4" in err


def test_spec_json_refuses_a_free_abelian_rank_above_four():
    doc = {"family": {"tag": "free-abelian", "n": 5}, "images": {"e%d" % i: [0] * 5 for i in range(1, 6)}}
    code, out, err = _spec_stdin(doc)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "MAX_RANK = 4" in err


@pytest.mark.parametrize("n", [4, 32])
def test_spec_json_refuses_a_zn_semidirect_z_action_above_the_hirsch_length_in_scope(n):
    names = ["e%d" % i for i in range(1, n + 1)] + ["t"]
    units = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    doc = {
        "family": {"tag": "zn-semidirect-z", "matrix": [row[:n] for row in units[:n]]},
        "images": dict(zip(names, units)),
    }
    code, out, err = _spec_stdin(doc)
    assert code == EXIT_ERROR and out == ""
    assert err == (
        "error: a %dx%d action gives Hirsch length %d, above MAX_RANK = 4, the largest Hirsch length in scope\n"
        % (n, n, n + 1)
    )


def test_spec_json_verification_failure_names_the_violated_relation(tmp_path):
    spec_file = tmp_path / "swap.json"
    spec_file.write_text(
        json.dumps({"family": {"tag": "heisenberg", "n": 1}, "images": {"x": [0, 1, 0], "y": [1, 0, 0], "z": [0, 0, 1]}})
    )
    code, out, err = invoke(["rnumber", "--spec-json", str(spec_file)])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: automorphism verification failed: relation violated: y x = <x^1 y^1 z^1>\n"


DEEP_JSON = "[" * 50000 + "]" * 50000


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["spectrum", "--family", "z2-semidirect", "--matrix", DEEP_JSON], None, "JSON matrix is nested too deeply"),
        (["rnumber", "--spec-json", "{deep}"], None, "automorphism JSON is nested too deeply"),
        (["rnumber", "--spec-json", "-"], DEEP_JSON, "automorphism JSON is nested too deeply"),
    ],
    ids=["matrix", "spec-json-file", "spec-json-stdin"],
)
def test_deeply_nested_json_ends_in_one_error_line(argv, stdin, message, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = [str(deep) if a == "{deep}" else a for a in argv]
    done = _python("-m", "reidemeister.cli", *argv, stdin=stdin)
    assert done.returncode == EXIT_ERROR and done.stdout == ""
    assert done.stderr == "error: %s\n" % message
    assert "Traceback" not in done.stderr


HUGE_EXPONENTS = [
    (SPEC_DOCS[3], ("images", "t", 2), "quotient exponent of t is not +-1"),
    (SPEC_DOCS[3], ("images", "e1", 2), "images leave the lattice subgroup"),
    (SPEC_DOCS[4], ("images", "t", 3), "u-exponent of the image of t is not 0"),
]


@pytest.mark.parametrize(
    "doc, path, failure",
    HUGE_EXPONENTS,
    ids=["%s:%s" % (d["family"]["tag"], ".".join(map(str, p))) for d, p, _ in HUGE_EXPONENTS],
)
@pytest.mark.parametrize("value", [10 ** 6, -(10 ** 12)])
def test_spec_json_refuses_a_huge_image_exponent_at_once(doc, path, failure, value):
    # the relation words power the hyperbolic action by the exponent, for
    # seconds at 10^6 and without end at 10^12: the layer check refuses first
    started = time.perf_counter()
    code, out, err = _spec_stdin(_with(doc, path, value))
    assert time.perf_counter() - started < 5.0
    assert code == EXIT_ERROR and out == ""
    assert err == "error: automorphism verification failed: %s\n" % failure


# huge integers too: the layer check bounds the exponents that the
# relation words power a hyperbolic action by
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.integers(-3, 3)
    | st.sampled_from((10 ** 6, -(10 ** 6), 10 ** 12, -(10 ** 12))),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_spec_json_fuzz_ends_in_a_result_or_one_error_line(data):
    doc = data.draw(st.sampled_from(SPEC_DOCS))
    path, integer_slot = data.draw(st.sampled_from(_slots(doc)))
    value = data.draw(JSON_VALUES)
    command = data.draw(st.sampled_from(("rnumber", "oracle")))
    code, out, err = _spec_stdin(_with(doc, path, value), command)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_UNDECIDED)
    assert "Traceback" not in err
    if code == EXIT_ERROR:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if integer_slot and type(value) is not int:
        assert code == EXIT_ERROR, (path, value, out)


SLUG_ARGS = {
    "z2-semidirect": {"matrix": "2,3;3,5"},
    "z3-semidirect": {"matrix": "1,0,1;0,-1,0;0,0,-1"},
    "double-ext": {"matrix": "5,2;2,1", "n0": "1,1"},
    "hn-semidirect": {"n": 2, "k": 1, "l": 0},
    "free-abelian": {"n": 2},
    "heisenberg": {"n": 3},
    "heisenberg-times-z": {"n": 1},
    "three-step": {},
}


def test_every_slug_builds_and_classifies_through_the_table():
    assert set(FAMILY_TABLE) == set(SLUG_ARGS)
    for slug, extra in SLUG_ARGS.items():
        fields = {"family": slug, "matrix": None, "n0": None, "n": None, "k": 0, "l": 0}
        args = argparse.Namespace(**{**fields, **extra})
        make, spectrum = FAMILY_TABLE[slug]
        fam = make(groups, args)
        # the four nilpotent rows classify the group they build
        assert (spectrum is None) == (slug in ("free-abelian", "heisenberg", "heisenberg-times-z", "three-step"))
        res = spectra.classify_nilpotent(fam) if spectrum is None else spectrum(spectra, args, 50)
        assert res.trace
        assert family_from_json(json.loads(json.dumps(fam.to_json_dict()))) == fam


def test_text_format_renders():
    code, out, _ = invoke(["spectrum", "--family", "z2-semidirect", "--matrix", "2,3;3,5", "--format", "text"])
    assert code == EXIT_OK
    assert "spectrum: {4,oo}" in out
    assert "trace:" in out


@pytest.mark.parametrize(
    "argv, line, exit_code",
    [
        (["--family", "free-abelian", "--n", "2"], "spectrum: N u {oo}", EXIT_OK),
        (["--family", "z2-semidirect", "--matrix=-6,1;-1,0"], "spectrum: undecided({oo} | {4,oo}, bound 10000)",
         EXIT_UNDECIDED),
    ],
    ids=["full", "undecided"],
)
def test_text_format_renders_every_spectrum_kind(argv, line, exit_code):
    code, out, err = invoke(["spectrum", *argv, "--format", "text"])
    assert code == exit_code and err == ""
    assert line in out.splitlines()


DEEP_ARRAY = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rnumber", "--family", "heisenberg", "--n", "1", "--witness", "phi_m", "--param", "1", "--bound", "0"],
         "bound must be >= 1"),
        (["rnumber", "--spec-json", "{deep}"], "automorphism JSON is nested too deeply"),
        (["spectrum", "--family", "z2-semidirect", "--matrix", "[[1,2],[3"],
         "invalid JSON matrix at position 9: Expecting ',' delimiter"),
        (["spectrum", "--family", "z2-semidirect", "--matrix", DEEP_ARRAY], "JSON matrix is nested too deeply"),
        (["spectrum", "--family", "double-ext", "--matrix", "5,2;2,1", "--n0", "1;2"],
         "expected a single row vector, got 2 rows"),
    ],
    ids=["bound-zero", "spec-json-deep", "matrix-json-truncated", "matrix-json-deep", "n0-two-rows"],
)
def test_input_mistakes_end_in_their_one_error_line(argv, message, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_ARRAY)
    code, out, err = invoke([str(deep) if a == "{deep}" else a for a in argv])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: %s\n" % message


# each mistake in the flags that build a group, and the one line that refuses it
GROUP_MISTAKES = [
    (["--family", "double-ext", "--matrix", "5,2;2,1", "--n0", "1,2,3"], "phi_eight",
     "n0 must have exactly two entries, got 3"),
    (["--family", "hn-semidirect", "--n", "0"], "M_r", "Heisenberg parameter must be >= 1"),
    (["--family", "z2-semidirect", "--matrix", "2,0;0,1"], "M_m", "the acting matrix must be unimodular"),
    (["--family", "z3-semidirect", "--matrix", "2,0,0;0,1,0;0,0,1"], "M_m", "the acting matrix must be unimodular"),
    (["--family", "double-ext", "--matrix", "2,0;0,1", "--n0", "1,0"], "phi_eight",
     "the outer action must be unimodular"),
]


@pytest.mark.parametrize(
    "flags, witness_id, message", GROUP_MISTAKES, ids=["n0-three-entries", "hn-n-zero", "z2-det", "z3-det", "ext-det"]
)
def test_a_group_mistake_ends_in_the_same_line_whatever_the_subcommand(flags, witness_id, message):
    witness_flags = ["--witness", witness_id, "--param", "1"]
    for argv in (["spectrum", *flags], ["rnumber", *flags, *witness_flags],
                 ["oracle", *flags, *witness_flags, "--radius", "1"]):
        code, out, err = invoke(argv)
        assert (code, out, err) == (EXIT_ERROR, "", "error: %s\n" % message), argv


@pytest.mark.parametrize("source", ["--bound"])
def test_bound_above_the_cap_exits_at_once(source):
    started = time.perf_counter()
    code, out, err = invoke(["decide", "--matrix=-6,1;-1,0", source, "1000000000000"])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert source in err and "1000000000000" in err and "MAX_BOUND = %d" % MAX_BOUND in err


def test_bound_at_the_cap_is_accepted():
    code, out, _ = invoke(["decide", "--matrix", "2,3;3,5", "--bound", str(MAX_BOUND)])
    assert code == EXIT_OK and payload(out)["bound"] == MAX_BOUND


def test_internal_failure_is_one_error_line(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("basis change failed to produce the block form")

    monkeypatch.setattr(spectra, "classify_z3_semidirect", broken)
    code, out, err = invoke(["spectrum", "--family", "z3-semidirect", "--matrix", "1,0,1;0,5,2;0,2,1"])
    assert code == EXIT_ERROR and out == ""
    assert err == "error: internal error: basis change failed to produce the block form\n"
    assert "Traceback" not in err


def test_readme_searches_never_import_sympy():
    # the README's z3 and double-extension examples run the hyperbolic
    # search at the default bound; nothing on that path may need sympy
    script = textwrap.dedent(
        """
        import io, json, sys
        from reidemeister import cli
        answers = []
        for argv in (
            ["spectrum", "--family", "z3-semidirect", "--matrix", "1,0,1;0,5,2;0,2,1"],
            ["spectrum", "--family", "double-ext", "--matrix", "5,2;2,1", "--n0", "1,0"],
        ):
            out = io.StringIO()
            code = cli.run(argv, out, io.StringIO())
            envelope = json.loads(out.getvalue())
            answers.append([code, envelope["bound"], envelope["result"]["spectrum"], envelope["trace"]])
        print(json.dumps({"answers": answers, "sympy": "sympy" in sys.modules}))
        """
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["sympy"] is False
    (z3_code, z3_bound, z3_spectrum, z3_trace), (ext_code, ext_bound, ext_spectrum, ext_trace) = report["answers"]
    assert z3_code == ext_code == EXIT_OK and z3_bound == ext_bound == DEFAULT_BOUND
    assert z3_spectrum == ext_spectrum == {"kind": "r_infinity"}
    assert z3_trace[-1] == "z3:parity-obstruction" and ext_trace[-1] == "ext:parity-obstruction"
