"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wordlogic.cli import main


def run(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse errors exit directly
        rc = exc.code
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# evaluation and model listing


def test_eval_true(capsys):
    rc, out, _ = run(capsys, ["eval", "--alphabet", "ab", "--word", "ab",
                              "--marks", "x=1", "--formula", "P[a](x)"])
    assert rc == 0
    assert out.strip() == "true"


def test_eval_false(capsys):
    rc, out, _ = run(capsys, ["eval", "--alphabet", "ab", "--word", "bb",
                              "--formula", "E x. P[a](x)"])
    assert rc == 0
    assert out.strip() == "false"


def test_models_lists_words_shortlex(capsys):
    rc, out, _ = run(capsys, ["models", "--alphabet", "ab", "--maxlen", "2",
                              "--formula", "E x. P[a](x)"])
    assert rc == 0
    assert out.splitlines()[:4] == ["a", "aa", "ab", "ba"]
    assert "4 models" in out


def test_equiv_agreeing(capsys):
    rc, out, _ = run(capsys, ["equiv", "--alphabet", "a", "--maxlen", "3",
                              "E x. P[a](x)", "E x. P[a](x)"])
    assert rc == 0
    assert "equivalent" in out


def test_equiv_differing_reports_a_witness(capsys):
    rc, out, _ = run(capsys, ["equiv", "--alphabet", "a", "--maxlen", "3",
                              "E x. P[a](x)", "E1 x. P[a](x)"])
    assert rc == 1
    assert "differ on aa" in out


# ---------------------------------------------------------------------------
# letter algebras


def test_atoms_of_a_letter_generator(capsys):
    rc, out, _ = run(capsys, ["atoms", "--alphabet", "ab", "--var", "x",
                              "--generator", "P[a](x)", "--maxlen", "4"])
    assert rc == 0
    assert "c0: P[a](x)" in out
    assert "c1: ~P[a](x)" in out
    assert "2 atoms" in out


def test_substitute_rewrites_atom_letters(capsys):
    rc, out, _ = run(capsys, ["substitute", "--alphabet", "ab", "--var", "x",
                              "--generator", "P[a](x)", "--maxlen", "4",
                              "--sentence", "E z. P[c0](z)"])
    assert rc == 0
    assert out.strip() == "E z0. P[a](z0)"


def test_tau_spells_a_word_in_atom_letters(capsys):
    rc, out, _ = run(capsys, ["tau", "--alphabet", "ab", "--var", "x",
                              "--generator", "P[a](x)", "--maxlen", "4",
                              "--word", "ab"])
    assert rc == 0
    assert out.strip() == "c0.c1"


def test_encode_and_decode(capsys):
    rc, out, _ = run(capsys, ["encode", "--alphabet", "ab", "--var", "x",
                              "--formula", "P[a](x)"])
    assert rc == 0
    assert "P[a{x}]" in out
    rc, out, _ = run(capsys, ["decode", "--alphabet", "ab", "--var", "x",
                              "--formula", "P[a{x}](z)"])
    assert rc == 0
    assert out.strip() == "P[a](z) & x = z"


# ---------------------------------------------------------------------------
# monoids and closures


def test_synmon_of_the_marked_universe(capsys):
    rc, out, _ = run(capsys, ["synmon", "--alphabet", "a",
                              "--marked-universe"])
    assert rc == 0
    assert "syntactic monoid: 3 elements" in out
    assert "letters: a{}->ε  a{x}->a{x}" in out
    assert "accepting: {a{x}}" in out


def test_quotient_closure_of_the_marked_universe(capsys):
    rc, out, _ = run(capsys, ["quotient-closure", "--alphabet", "a",
                              "--language", "@marked", "--maxlen", "4"])
    assert rc == 0
    assert "3 atoms, 8 elements" in out


def test_compile_exists(capsys):
    rc, out, _ = run(capsys, ["compile", "--alphabet", "ab", "--maxlen", "5",
                              "--formula", "E x. P[a](x)"])
    assert rc == 0
    assert "2 states" in out


def test_inference_refusal_names_the_bound_and_largest_hypothesis(capsys):
    rc, out, _ = run(capsys, ["compile", "--formula",
                              "E x. E y. x < y & P[a](y)", "--alphabet", "ab",
                              "-L", "4", "--format", "json"])
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["code"] == "bound"
    assert err["info"] == {"stage": "automaton inference", "bound": 4,
                           "states": 3}
    assert "bound 4" in err["message"]
    assert "3 states" in err["message"]


def test_compile_oracle_quantifier_fails_with_structured_error(capsys):
    rc, _, err = run(capsys, ["compile", "--alphabet", "ab", "--maxlen", "5",
                              "--formula", "maj x. P[a](x)"])
    assert rc == 2
    assert "oracle-quantifier" in err


def test_sdp_from_json_input(capsys, tmp_path):
    payload = {"S": {"table": [[0, 1], [1, 1]], "identity": 0},
               "M": {"table": [[0, 1], [1, 0]], "identity": 0},
               "lambda": [[0, 1], [0, 1]],
               "rho": [[0, 0], [1, 1]]}
    path = tmp_path / "product.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    rc, out, _ = run(capsys, ["sdp", "--input", str(path)])
    assert rc == 0
    assert "semidirect product: 4 elements" in out


@pytest.mark.parametrize("text", [
    "{not json",
    '["S", "M"]',
    '{"S": {"table": [[0]]}, "M": {"table": [[0]]}, "lambda": [[0]]}',
    '{"S": {"table": [[0]], "identity": "one"}, "M": {"table": [[0]]}, '
    '"lambda": [[0]], "rho": [[0]]}',
    '{"S": {"table": [[0, 1], [1, 1]]}, "M": {"table": [[0, 1], [1, 0]]}, '
    '"lambda": [[1, 0], [0, 1]], "rho": [[0, 0], [1, 1]]}',
    '{"S": {"table": [[0]]}, "M": {"table": [[0]]}, '
    '"lambda": [["s"]], "rho": [[0]]}',
    '{"S": {"table": [[0]]}, "M": {"table": [[0]]}, '
    '"lambda": [[3]], "rho": [[0]]}',
])
def test_sdp_refuses_malformed_input_with_exit_2(capsys, tmp_path, text):
    path = tmp_path / "product.json"
    path.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, ["sdp", "--input", str(path)])
    assert rc == 2
    assert err.startswith("error [parse]")


@pytest.mark.parametrize("text", [
    "{not json",
    '{"quantifiers": [{"name": "Q"}]}',
    '["quantifiers"]',
    '{"quantifiers": 3}',
    '{"quantifiers": [{"name": "Q", "table": [["a"]], "images": [0, 0], '
    '"accept": [0]}]}',
    '{"predicates": [{"name": "p", "arity": "one", "tuples": []}]}',
])
def test_malformed_registry_exits_2(capsys, tmp_path, text):
    path = tmp_path / "registry.json"
    path.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, ["eval", "--word", "ab", "--formula",
                              "E x. P[a](x)", "--registry", str(path)])
    assert rc == 2
    assert err.startswith("error [parse]")


def test_registry_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "registry.json"
    path.write_bytes(b"\xff\xfe{}")
    rc, _, err = run(capsys, ["eval", "--word", "ab", "--formula",
                              "E x. P[a](x)", "--registry", str(path)])
    assert rc == 2
    assert err.startswith("error [parse]: registry file is not JSON")


# ---------------------------------------------------------------------------
# suites and fragments


def test_verify_words_suite(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "words",
                              "--alphabet", "ab", "--maxlen", "4"])
    assert rc == 0
    assert "[PASS]" in out
    assert "2/2 checks passed" in out


def test_depth_fragment_with_cross_check(capsys):
    rc, out, _ = run(capsys, ["depth-fragment", "--alphabet", "ab",
                              "--quantifiers", "E", "--depth", "1",
                              "--maxlen", "5", "--check"])
    assert rc == 0
    assert "4 atoms" in out
    assert "direct enumeration agrees" in out


@pytest.mark.parametrize("flags", [["--quantifiers", "E,mod[2,0]"],
                                   ["--quantifiers", "E",
                                    "--predicates", "<,mod[2,1]"]])
def test_depth_fragment_reads_bracketed_name_lists(capsys, flags):
    rc, out, err = run(capsys, ["depth-fragment", "--alphabet", "ab",
                                "--depth", "1", "--maxlen", "4", "--check",
                                *flags])
    assert rc == 0, err
    assert "mod[2," in out
    assert "direct enumeration agrees" in out


# ---------------------------------------------------------------------------
# output format and failure modes


def test_json_output_is_deterministic(capsys):
    argv = ["models", "--alphabet", "a", "--maxlen", "2",
            "--formula", "E x. P[a](x)", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "wordlogic/1"
    assert payload["count"] == 2


def test_parse_error_exits_two(capsys):
    rc, _, err = run(capsys, ["eval", "--alphabet", "ab", "--word", "a",
                              "--formula", "("])
    assert rc == 2
    assert "error [parse]" in err


def test_unknown_argument_exits_two(capsys):
    rc, _, _ = run(capsys, ["models", "--alphabet", "ab", "--no-such-flag"])
    assert rc == 2


def test_missing_language_inputs_exit_two(capsys):
    rc, _, err = run(capsys, ["synmon", "--alphabet", "ab"])
    assert rc == 2
    assert "no languages given" in err


@pytest.mark.parametrize("argv", [
    ["models", "--formula", "P[a](x)", "--alphabet", "ab", "-L", "-3"],
    ["compile", "--formula", "E x. P[a](x)", "--alphabet", "ab", "-L", "-3"],
], ids=["models", "compile"])
def test_a_negative_bound_exits_two_naming_it(capsys, argv):
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["code"] == "parse"
    assert err["info"] == {"bound": -3}
    assert "got -3" in err["message"]


@pytest.mark.parametrize("spec", [",", ",,"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "-L", "3"],
    ["models", "--formula", "P[a](x)", "-L", "3"],
    ["compile", "--formula", "E x. P[a](x)", "-L", "3"],
    ["depth-fragment", "--quantifiers", "E", "--depth", "1", "-L", "3"],
], ids=lambda argv: argv[0])
def test_an_alphabet_without_symbols_exits_two(capsys, argv, spec):
    rc, _, err = run(capsys, argv + ["--alphabet", spec])
    assert rc == 2
    assert "names no symbols" in err
    assert "Traceback" not in err


def test_a_non_integer_cap_exits_two_naming_key_and_value():
    # a fresh interpreter running the module as a program shows that the
    # refusal reaches stderr without a traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "wordlogic.cli", "compile", "--formula",
         "E x. P[a](x)", "--alphabet", "ab"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "WORDLOGIC_CAPS": "monoid=abc"},
        timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error [parse]" in proc.stderr
    assert "monoid" in proc.stderr and "'abc'" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["models", "--formula", "P[a](x)", "--alphabet", "ab", "-L", "5"],
    ["equiv", "P[a](x)", "~P[b](x)", "--alphabet", "ab", "-L", "5"],
], ids=["models", "equiv"])
def test_the_enumeration_cap_refuses_a_large_marked_word_table(capsys,
                                                               monkeypatch,
                                                               argv):
    monkeypatch.setenv("WORDLOGIC_CAPS", "enumeration=10")
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["code"] == "cap"
    # 2*1 + 4*2 + 8*3 + 16*4 + 32*5 marked words with one mark each
    assert err["info"] == {"stage": "marked word table", "size": 258,
                           "cap": 10}


@pytest.mark.parametrize("command", ["synmon", "quotient-closure"])
def test_language_formulas_honour_the_enumeration_cap(capsys, monkeypatch,
                                                      command):
    monkeypatch.setenv("WORDLOGIC_CAPS", "enumeration=10")
    rc, out, _ = run(capsys, [command, "--formula", "P[a](x)", "--alphabet",
                              "ab", "-L", "5", "--format", "json"])
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["code"] == "cap"
    assert err["info"]["stage"] == "inference word table"


def test_sdp_honours_the_sdp_elements_cap(capsys, monkeypatch, tmp_path):
    payload = {"S": {"table": [[0, 1], [1, 1]], "identity": 0},
               "M": {"table": [[0, 1], [1, 0]], "identity": 0},
               "lambda": [[0, 1], [0, 1]],
               "rho": [[0, 0], [1, 1]]}
    path = tmp_path / "product.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.setenv("WORDLOGIC_CAPS", "sdp_elements=3")
    rc, out, _ = run(capsys, ["sdp", "--input", str(path), "--format", "json"])
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["code"] == "cap"
    assert err["info"]["cap"] == "sdp_elements"


@pytest.mark.parametrize("key", ["enumaration", "monoid_assoc", "__doc__"])
def test_an_unknown_cap_exits_two_naming_it(capsys, monkeypatch, key):
    monkeypatch.setenv("WORDLOGIC_CAPS", f"{key}=10")
    rc, out, err = run(capsys, ["models", "--formula", "P[a](x)",
                                "--alphabet", "ab", "-L", "5"])
    assert (rc, out) == (2, "")
    assert err.startswith("error [parse]")
    assert repr(key) in err
