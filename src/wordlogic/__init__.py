"""Logic on words at desk scale: formulas with generalized quantifiers,
finite Boolean algebras of languages, substitution, variable codecs, and
two-sided semidirect product recognizers — everything exact, everything
checked against brute force.

Each public name loads its module on first use (PEP 562): ``import
wordlogic`` imports no submodule, and a name once read is kept here."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it defines
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
_MODULE_OF = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(  # caps_from_env is caps.from_env
        module, "from_env" if name == "caps_from_env" else name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
