"""End-to-end checks of the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic import (Alphabet, Dfa, MarkedWord, NumPredDef, Registry, parse,
                       satisfies)
from wordlogic import cli
from wordlogic.cli import main
from wordlogic.regular import ASSOC_CHECK_LIMIT
from wordlogic.words import enumerate_words

from conftest import off_by_one_table


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


def test_substitute_through_a_generator_that_binds_the_variable(capsys):
    rc, out, _ = run(capsys, ["substitute", "--alphabet", "ab",
                              "--generator", "E x. P[a](x)",
                              "--sentence", "E y. P[c0](y)"])
    assert rc == 0
    assert out.strip() == "E z0. E x. P[a](x)"


def test_substitute_refuses_a_capture(capsys):
    # the atom formula of c1 binds z, the variable its letter test is at
    rc, out, err = run(capsys, ["substitute", "--alphabet", "ab",
                                "--generator", "E z. z < x & P[a](z)",
                                "--sentence", "P[c1](z)"])
    assert rc == 2
    assert out == ""
    assert "variable 'x' renamed to 'z' would be captured" in err


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


def compile_json(capsys, formula, bound):
    rc, out, _ = run(capsys, ["compile", "--alphabet", "ab", "--formula",
                              formula, "-L", str(bound), "--format", "json"])
    assert rc == 0, out
    return json.loads(out)


@pytest.mark.parametrize("formula, bounds, shortest", [
    ("E x. E y. x < y", (0, 1), 2),
    ("E x. E y. x < y & P[a](y)", (4,), None),
], ids=["two-positions", "a-after-a-position"])
def test_compile_does_not_depend_on_the_bound(capsys, formula, bounds,
                                              shortest):
    want = compile_json(capsys, formula, 6)
    for bound in bounds:
        assert compile_json(capsys, formula, bound) == want
    dfa = Dfa(tuple(want["alphabet"]), tuple(map(tuple, want["delta"])),
              want["initial"], frozenset(want["accepting"]))
    phi = parse(formula)
    for w in enumerate_words(Alphabet.of("ab"), 8):
        assert dfa.accepts(w) == satisfies(MarkedWord(w, ()), phi), w
        if shortest is not None:
            assert dfa.accepts(w) == (len(w) >= shortest)


def refusal(capsys, argv):
    rc, out, err = run(capsys, argv + ["--format", "json"])
    assert rc == 2
    assert "Traceback" not in out + err
    return json.loads(out)["error"]


def test_an_oracle_quantifier_inside_a_body_is_refused(capsys):
    err = refusal(capsys, ["compile", "--alphabet", "ab", "--formula",
                           "E x. maj y. x < y & P[a](y)"])
    assert err["code"] == "oracle-quantifier"
    assert err["info"] == {"quantifier": "maj", "stage": "formula compilation"}


def test_a_predicate_with_only_a_python_function_is_refused(capsys,
                                                            monkeypatch):
    reg = Registry()
    reg.register_numpred(NumPredDef("near", 2, lambda p, n: abs(p[0] - p[1]) < 2))
    monkeypatch.setattr(cli, "_registry", lambda args: reg)
    err = refusal(capsys, ["compile", "--alphabet", "ab", "--formula",
                           "E x. E y. R[near](x,y) & P[a](y)"])
    assert err["code"] == "oracle-quantifier"
    assert err["info"] == {"predicate": "near", "stage": "formula compilation"}
    assert "near" in err["message"]


def test_compile_honours_the_dfa_states_cap(capsys, monkeypatch):
    monkeypatch.setenv("WORDLOGIC_CAPS", "dfa_states=2")
    err = refusal(capsys, ["compile", "--alphabet", "ab", "--formula",
                           "E x. P[a](x)"])
    assert err["code"] == "cap"
    assert err["info"] == {"stage": "compiled atom", "size": 3, "cap": 2}


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


@pytest.mark.parametrize("kind", ["registry", "sdp"])
def test_an_input_table_past_the_associativity_check_exits_2(capsys, tmp_path,
                                                            kind):
    n = ASSOC_CHECK_LIMIT + 1
    table = {"table": off_by_one_table(n), "identity": 0}
    document = ({"quantifiers": [{**PARITY, **table}]} if kind == "registry"
                else {**SDP, "S": table})
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    err = refusal(capsys, FILE_COMMANDS[kind] + [str(path)])
    assert err["code"] == "cap"
    stage = "quantifier monoid" if kind == "registry" else "sdp input"
    assert err["info"] == {"stage": stage, "size": n, "cap": ASSOC_CHECK_LIMIT}


def test_registry_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "registry.json"
    path.write_bytes(b"\xff\xfe{}")
    rc, _, err = run(capsys, ["eval", "--word", "ab", "--formula",
                              "E x. P[a](x)", "--registry", str(path)])
    assert rc == 2
    assert err.startswith("error [parse]: registry file is not JSON")


@pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe{}"],
                         ids=["syntax", "not-utf8"])
def test_a_dfa_file_that_is_not_json_exits_2(capsys, tmp_path, raw):
    path = tmp_path / "dfa.json"
    path.write_bytes(raw)
    rc, _, err = run(capsys, ["synmon", "--alphabet", "ab", "--dfa",
                              str(path)])
    assert rc == 2
    assert err.startswith("error [parse]: DFA file is not JSON")


@pytest.mark.parametrize("command", ["synmon", "quotient-closure"])
def test_a_dfa_over_another_alphabet_exits_2_naming_both(capsys, tmp_path,
                                                         command):
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps({"alphabet": ["p", "q"],
                                "delta": [[0, 1], [1, 1]], "initial": 0,
                                "accepting": [1]}), encoding="utf-8")
    rc, out, err = run(capsys, [command, "--alphabet", "ab", "--dfa",
                                str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith("error [parse]")
    assert "p,q" in err and "a{},a{x},b{},b{x}" in err


SDP = {"S": {"table": [[0, 1], [1, 1]], "identity": 0},
       "M": {"table": [[0, 1], [1, 0]], "identity": 0},
       "lambda": [[0, 1], [0, 1]], "rho": [[0, 0], [1, 1]]}
#: the two-state automaton of "some position is a{x}" over ab x {x}
MARKED_A = {"alphabet": ["a{}", "a{x}", "b{}", "b{x}"],
            "delta": [[0, 1, 0, 0], [1, 1, 1, 1]], "initial": 0,
            "accepting": [1]}
PARITY = {"name": "par", "table": [[0, 1], [1, 0]], "identity": 0,
          "images": [0, 1], "accept": [1]}
#: per input file: the command reading it, and the formula a registry serves
FILE_COMMANDS = {
    "sdp": ["sdp", "--input"],
    "dfa": ["synmon", "--alphabet", "ab", "--dfa"],
    "registry": ["models", "--alphabet", "ab", "-L", "2", "--formula",
                 "par x. P[a](x) & R[two](x)", "--registry"],
}


def run_on_file(kind, document, tmp_path):
    """Run the command of ``kind`` on ``document`` written to a file,
    returning the exit code and everything printed."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(FILE_COMMANDS[kind] + [str(path)])
    return rc, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("kind, document", [
    ("sdp", {**SDP, "lambda": [[0.9, 1.2], [0, 1]]}),
    ("sdp", {**SDP, "lambda": [[10 ** 30, 1], [0, 1]]}),
    ("sdp", {**SDP, "S": {"table": [[0, 1], [1, 1]], "identity": 0.9}}),
    ("dfa", {**MARKED_A, "delta": [[0.5, 0, 0, 0], [1, 1, 1, 1]]}),
    ("dfa", {**MARKED_A, "initial": 0.7}),
    ("registry", {"quantifiers": [{**PARITY, "images": [0, 0.5]}]}),
    ("registry", {"quantifiers": [{**PARITY, "accept": [0.0]}]}),
    ("registry", {"predicates": [{"name": "two", "arity": 1.5,
                                  "tuples": [[2]]}]}),
], ids=["biaction-float", "biaction-huge", "monoid-identity", "dfa-delta",
        "dfa-initial", "quantifier-images", "quantifier-accept",
        "predicate-arity"])
def test_a_non_integer_field_of_an_input_file_exits_2(tmp_path, kind,
                                                      document):
    rc, printed = run_on_file(kind, document, tmp_path)
    assert rc == 2
    assert printed.startswith("error [parse]")
    assert "must be an integer" in printed or "of integers" in printed
    assert "Traceback" not in printed


SCALARS = st.one_of(st.none(), st.booleans(), st.floats(),
                    st.integers(-2, 4), st.integers(min_value=2 ** 62),
                    st.integers(max_value=-2 ** 62), st.text(max_size=3))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=12)


def keyed(required, optional=None):
    return st.fixed_dictionaries({k: VALUES for k in required},
                                 optional={k: VALUES for k in optional or ()})


def nodes(doc, path=()):
    """The paths of every key and list entry inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from nodes(value, path + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def perturbed(valid):
    """A valid document with one entry or field replaced by a random
    value."""
    return st.builds(replaced, st.just(valid),
                     st.sampled_from(list(nodes(valid))), VALUES)


MONOID = keyed(["table"], ["identity", "names"])
REGISTRY = {"quantifiers": [PARITY],
            "predicates": [{"name": "two", "arity": 1, "tuples": [[2]]}]}
FILE_DOCUMENTS = {
    "sdp": perturbed(SDP) | st.fixed_dictionaries({
        "S": MONOID | VALUES, "M": MONOID, "lambda": VALUES, "rho": VALUES}),
    "dfa": perturbed(MARKED_A) | keyed(["alphabet", "delta", "initial",
                                        "accepting"]),
    "registry": perturbed(REGISTRY) | st.fixed_dictionaries({}, optional={
        "quantifiers": st.lists(keyed(["table", "images", "accept"],
                                      ["identity"]).map(
            lambda q: {"name": "par", **q}), max_size=2) | VALUES,
        "predicates": st.lists(keyed(["arity", "tuples"], ["finite"]).map(
            lambda p: {"name": "two", **p}), max_size=2) | VALUES}),
}


def test_the_valid_input_files_run(tmp_path):
    for kind, document in (("sdp", SDP), ("dfa", MARKED_A),
                           ("registry", REGISTRY)):
        assert run_on_file(kind, document, tmp_path)[0] == 0, kind


@pytest.mark.parametrize("kind", sorted(FILE_DOCUMENTS))
def test_random_input_files_exit_0_or_2_without_a_traceback(tmp_path_factory,
                                                            kind):
    tmp_path = tmp_path_factory.mktemp(kind)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(FILE_DOCUMENTS[kind])
    def check(document):
        rc, printed = run_on_file(kind, document, tmp_path)
        assert rc in (0, 2), printed
        assert "Traceback" not in printed

    check()


# ---------------------------------------------------------------------------
# argv fuzz: any command line exits 0, 1 or 2 without a traceback


#: each subcommand with the flags it requires (a leading "" is a positional)
SUBCOMMANDS = {
    "eval": ("--word", "--formula"), "models": ("--alphabet", "--formula"),
    "equiv": ("", "", "--alphabet"), "atoms": ("--alphabet", "--generator"),
    "substitute": ("--alphabet", "--generator", "--sentence"),
    "tau": ("--alphabet", "--generator", "--word"),
    "encode": ("--var", "--alphabet", "--formula"),
    "decode": ("--var", "--alphabet", "--formula"),
    "synmon": ("--alphabet", "--language"),
    "quotient-closure": ("--alphabet", "--formula"),
    "compile": ("--alphabet", "--formula"), "sdp": ("--input",),
    "verify": ("--suite",),
    "depth-fragment": ("--alphabet", "--quantifiers", "--depth"),
}
FORMULAS = ("P[a](x)", "E x. P[a](x)", "E x. E y. x < y", "maj x. P[a](x)",
            "E1 y. R[succ](x,y) & P[b](y)", "mod[2,1] x. P[b](x)", "R[two](x)",
            "par x. P[a](x)", "~P[a](x) | x = x", "E u. R[c0](u)", "E y. R[last](y)",
            "~", "E x.", "P[a](", "x < ", "P[z](x)", "E x. R[<](x)")
#: plausible values per flag; any flag may also get any value
FLAG_VALUES = {
    "--alphabet": ("a", "ab", "abc", "aa,bb", "", "a,a", ",", "a b", "{x}", "\u00e9"),
    "--formula": FORMULAS, "--generator": FORMULAS, "--sentence": FORMULAS,
    "--word": ("", "ab", "a{x}b", "a{x,y}", "ba{y}", "c", "{x}", "a{"),
    "--marks": ("x=1", "x=0", "x=9", "y=2", "x", "x=a", "x=" + "9" * 20, "x=1,x=2"),
    "--maxlen": ("0", "1", "3", "-1", "40", "9" * 20), "-L": ("2", "5", "-2"),
    "--var": ("x", "y", "u", ""), "--vars": ("x", "x,y", ""),
    "--mark-var": ("x", "y"), "--prior": ("y", "y,z", "x"),
    "--quantifiers": ("E", "E,mod[2,0]", "maj", "mod[0,0]", "E1,par", ""),
    "--predicates": ("<,succ", "first,last", "two", "nope"),
    "--depth": ("0", "1", "2", "-1", "9", "9" * 20), "--seed": ("0", "3", "-5", "9" * 20),
    "--suite": ("words", "finba", "logic", "substitution", "varcode",
                "semidirect", "layers", "all", "none"),
    "--language": ("@plain", "@marked", "@zero", "@none"),
    "--format": ("json", "text", "xml"),
}
#: the flags that each subcommand's parser declares
OWN_FLAGS = {name: sorted(f for f in parser._option_string_actions if f != "-h")
             for name, parser in next(
                 a for a in cli.build_parser()._actions
                 if isinstance(a.choices, dict)).choices.items()}
FLAGS = tuple(FLAG_VALUES) + ("--check", "--marked-universe", "--help",
                              "--dfa", "--formulas", "--generators", "--input",
                              "--registry")
#: small caps, so that every command line finishes or is refused quickly
FUZZ_CAPS = ("enumeration=3000,dfa_states=300,monoid=300,sentence_budget=64,"
             "finba_atoms=64,finba_elements=4096,hom_count=300,sdp_elements=64")


@st.composite
def argv_lines(draw, files):
    """A subcommand, mostly with its required flags, then more flags, mostly
    with plausible values; file flags take one of ``files``."""
    def value(flag):
        pool = FLAG_VALUES.get(flag, tuple(files))
        if draw(st.integers(0, 5)):
            return draw(st.sampled_from(pool))
        return draw(st.sampled_from(FORMULAS + tuple(files) + ("", "1", "x")))

    cmd = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [cmd]
    if draw(st.integers(0, 4)):
        for flag in SUBCOMMANDS[cmd]:
            argv += [flag, value(flag)] if flag else [value("--formula")]
    own = st.sampled_from(OWN_FLAGS[cmd])
    for flag in draw(st.lists(own | own | own | st.sampled_from(FLAGS), max_size=4)):
        argv += [flag] if flag in ("--check", "--marked-universe", "--help") \
            or not draw(st.integers(0, 7)) else [flag, value(flag)]
    return argv


def test_random_command_lines_exit_0_1_or_2_without_a_traceback(
        tmp_path, monkeypatch):
    monkeypatch.setenv("WORDLOGIC_CAPS", FUZZ_CAPS)
    files = []
    for name, document in (("sdp.json", SDP), ("dfa.json", MARKED_A),
                           ("registry.json", REGISTRY)):
        files.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(document))
    files.append(str(tmp_path / "formulas.txt"))
    (tmp_path / "formulas.txt").write_text("# two\nP[a](x)\nE y. x < y\n")
    files.append(str(tmp_path / "missing.json"))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(argv_lines(files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                rc = exc.code
        printed = out.getvalue() + err.getvalue()
        assert rc in (0, 1, 2), (argv, printed)
        assert "Traceback" not in printed, argv

    check()


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
    assert err["info"]["stage"] == "formula compilation"


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


def test_the_sdp_refusal_names_stage_and_size(capsys, monkeypatch, tmp_path):
    path = tmp_path / "product.json"
    path.write_text(json.dumps(SDP), encoding="utf-8")
    monkeypatch.setenv("WORDLOGIC_CAPS", "sdp_elements=3")
    rc, out, _ = run(capsys, ["sdp", "--input", str(path), "--format", "json"])
    assert rc == 2
    assert json.loads(out)["error"]["info"] == {
        "stage": "semidirect product", "size": 4, "cap": "sdp_elements"}


@pytest.mark.parametrize("key", ["enumaration", "monoid_assoc", "__doc__"])
def test_an_unknown_cap_exits_two_naming_it(capsys, monkeypatch, key):
    monkeypatch.setenv("WORDLOGIC_CAPS", f"{key}=10")
    rc, out, err = run(capsys, ["models", "--formula", "P[a](x)",
                                "--alphabet", "ab", "-L", "5"])
    assert (rc, out) == (2, "")
    assert err.startswith("error [parse]")
    assert repr(key) in err
