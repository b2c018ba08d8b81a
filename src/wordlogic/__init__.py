"""Logic on words at desk scale: formulas with generalized quantifiers,
finite Boolean algebras of languages, substitution, variable codecs, and
two-sided semidirect product recognizers — everything exact, everything
checked against brute force."""

__version__ = "0.1.0"

from .caps import Caps, from_env as caps_from_env
from .errors import (BoundTooSmall, CapExceeded, InvariantViolated,
                     NotDecomposable, NotMonoidPresentable, ParseError,
                     WordlogicError)
from .finba import (FinBA, check_adjunction, common_refinement,
                    dual_of_inclusion, generate, is_subalgebra)
from .layers import (FragmentResult, FragmentSpec,
                     check_fragment_against_direct, check_gamma_laws,
                     check_monotone, depth_direct, depth_fragment,
                     dump_fragment, gamma_q, same_language_algebra)
from .logic import (DEFAULT_REGISTRY, FALSE, And, Falsum, LetterPred, Not,
                    NumPred, NumPredDef, Or, Quant, Quantifier, Registry,
                    TRUE, Truth, bound_vars, check_hygiene, conj,
                    counterexample_bounded, disj, equiv_bounded, formula_dfa,
                    free_vars, letters_of, map_vars, models, neg, parse,
                    parse_formula_file, registry_from_json, relabel,
                    rename_bound, satisfies, to_dsl)
from .regular import (Dfa, FinMonoid, RegularBA, Stamp, empty_dfa,
                      factor_stamp, generate_monoid, image_dfa,
                      mark_count_dfa, plain_universe_dfa, quotient_closure,
                      recognized_languages, syntactic_stamp,
                      syntactic_stamp_of_family, universal_dfa, zero_part_dfa)
from .report import Report
from .semidirect import (Biaction, DecomposedD, EtaQuotient, HMorphism,
                         SdpMonoid, compile_layer, decompose, eta_quotient,
                         h_morphism, sdp, transfer_dfa, verify_recognizer)
from .substitution import (DeltaAlgebra, SentenceClass, atom_transduction,
                           check_substitution_principle, delta_algebra, sigma,
                           substitute_letters, tau, tau_compat, tau_word,
                           w_odot_c, xi)
from .suites import named_monoid, run_suite
from .varcode import (LiftedAlgebra, decode, decode_multi, encode,
                      encode_multi, lift_delta, phi_sentence, roundtrip_check,
                      sigma_source, zeta_relabel)
from .words import (Alphabet, ExtendedAlphabet, MarkedWord, decode_marks,
                    embed_marked, encode_marks, enumerate_marked,
                    enumerate_words, format_word, in_marked_image,
                    mark_alphabet, parse_marks, parse_word, subsets_in_order)
