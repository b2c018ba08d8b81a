"""The package's public names and what loading them costs.

``wordlogic`` resolves its public names on first use.  These tests pin the
names themselves (each is the object its module defines) and, in fresh
interpreters, which modules a bare import, the recognizer pipeline, the
compile path, CLI commands and the benchmark's recognizer jobs load.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordlogic

ROOT = Path(__file__).resolve().parents[1]

#: every public name of the package, by the module that defines it
#: (``caps_from_env`` is ``caps.from_env``)
PUBLIC = {
    "caps": "Caps caps_from_env",
    "errors": "BoundTooSmall CapExceeded InvariantViolated NotDecomposable "
              "NotMonoidPresentable ParseError WordlogicError",
    "finba": "FinBA check_adjunction common_refinement dual_of_inclusion "
             "generate is_subalgebra",
    "layers": "FragmentResult FragmentSpec check_fragment_against_direct "
              "check_gamma_laws check_monotone depth_direct depth_fragment "
              "dump_fragment gamma_q same_language_algebra",
    "logic": "DEFAULT_REGISTRY FALSE And Falsum LetterPred Not NumPred "
             "NumPredDef Or Quant Quantifier Registry TRUE Truth bound_vars "
             "check_hygiene conj counterexample_bounded disj equiv_bounded "
             "formula_dfa free_vars letters_of map_vars models neg parse "
             "parse_formula_file registry_from_json relabel rename_bound "
             "satisfies to_dsl",
    "regular": "Dfa FinMonoid RegularBA Stamp empty_dfa factor_stamp "
               "generate_monoid image_dfa mark_count_dfa named_monoid "
               "plain_universe_dfa quotient_closure recognized_languages "
               "syntactic_stamp syntactic_stamp_of_family universal_dfa "
               "zero_part_dfa",
    "report": "Report",
    "semidirect": "Biaction DecomposedD EtaQuotient HMorphism SdpMonoid "
                  "compile_layer decompose eta_quotient h_morphism sdp "
                  "transfer_dfa verify_recognizer",
    "substitution": "DeltaAlgebra SentenceClass atom_transduction "
                    "check_substitution_principle delta_algebra sigma "
                    "substitute_letters tau tau_compat tau_word w_odot_c xi",
    "suites": "run_suite",
    "varcode": "LiftedAlgebra decode decode_multi encode encode_multi "
               "lift_delta phi_sentence roundtrip_check sigma_source "
               "zeta_relabel",
    "words": "Alphabet ExtendedAlphabet MarkedWord decode_marks embed_marked "
             "encode_marks enumerate_marked enumerate_words format_word "
             "in_marked_image mark_alphabet parse_marks parse_word "
             "subsets_in_order",
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names.split()]

#: what the decomposition theorem's pipeline needs
RECOGNIZER_MODULES = {"caps", "errors", "words", "regular", "report",
                      "semidirect"}


def test_the_public_names_are_the_125_of_the_eager_package():
    assert len(NAMES) == 125
    assert sorted(wordlogic.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=lambda x: x)
def test_each_name_is_the_object_its_module_defines(module, name):
    mod = importlib.import_module(f"wordlogic.{module}")
    attr = "from_env" if name == "caps_from_env" else name
    assert getattr(wordlogic, name) is getattr(mod, attr)
    assert vars(wordlogic)[name] is getattr(mod, attr)  # kept after one read


def test_dir_lists_every_public_name():
    assert set(wordlogic.__all__) <= set(dir(wordlogic))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wordlogic import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wordlogic.__all__)
    from wordlogic import caps_from_env
    assert caps_from_env is wordlogic.caps.from_env


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'wordlogic' has no attribute 'nope'$"):
        wordlogic.nope
    assert not hasattr(wordlogic, "product_closure")  # in regular, not exported
    with pytest.raises(ImportError):
        exec("from wordlogic import nope", {})


# ---------------------------------------------------------------------------
# fresh interpreters: which modules load


def loaded_after(*steps) -> list:
    """Run ``steps`` (source texts) one after another in a fresh interpreter
    that writes no bytecode; after each, the set of ``wordlogic``
    submodules loaded so far."""
    code = ["import json, sys", "loaded = []"]
    for step in steps:
        code += [step, "loaded.append(sorted(m.split('.', 1)[1] for m in "
                       "sys.modules if m.startswith('wordlogic.')))"]
    code.append("print(json.dumps(loaded))")
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-B", "-c", "\n".join(code)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return [set(step) for step in json.loads(proc.stdout.splitlines()[-1])]


RECOGNIZE = """
import wordlogic as wl
ext = wl.ExtendedAlphabet(wl.Alphabet.of("ab"), ("x",))
ba = wl.quotient_closure([wl.image_dfa(ext)])
dd = wl.decompose(ba, ext)
assert wl.verify_recognizer(dd, wl.named_monoid("Z2"), hbound=3).passed
"""

COMPILE = """
import wordlogic as wl
reg = wl.DEFAULT_REGISTRY
ext, body = wl.formula_dfa(wl.parse("P[a](x) & E y. P[b](y)"),
                           wl.Alphabet.of("ab"), ("x",), 4, reg)
wl.compile_layer(reg.quantifier("E"), body, ext)
"""


def test_a_bare_import_loads_no_submodule():
    assert loaded_after("import wordlogic") == [set()]


def test_the_recognizer_pipeline_loads_six_modules_and_compiling_adds_logic():
    recognize, compile_too = loaded_after(RECOGNIZE, COMPILE)
    assert recognize == RECOGNIZER_MODULES
    assert compile_too == RECOGNIZER_MODULES | {"logic"}
    assert loaded_after(COMPILE) == [RECOGNIZER_MODULES | {"logic"}]


@pytest.mark.parametrize("argv", [
    ["compile", "--formula", "E x. P[a](x)", "--alphabet", "ab"],
    ["synmon", "--language", "@marked", "--alphabet", "ab"],
], ids=lambda argv: argv[0])
def test_a_cli_command_loads_only_what_it_runs(argv):
    [loaded] = loaded_after(f"from wordlogic import cli\n"
                            f"assert cli.main({argv!r}) == 0")
    assert loaded == RECOGNIZER_MODULES | {"logic", "cli"}


def test_recognizer_jobs_load_nothing_their_set_up_left_out():
    # the benchmark's workload file, read with bytecode off: set-up builds
    # automata and target monoids; the first jobs and their checks then add
    # the block product's module and nothing else
    bench = str(ROOT / "perfbench")
    setup, jobs = loaded_after(
        f"import random\nsys.path.insert(0, {bench!r})\nimport wordlogic\n"
        "from workloads import WORKLOADS\n"
        "jobs = WORKLOADS['recognizers'](wordlogic, random.Random(7))",
        "for job in jobs[:2]:\n    assert job.check(job.run()) is None")
    assert setup == {"caps", "errors", "words", "regular"}
    assert jobs == RECOGNIZER_MODULES
