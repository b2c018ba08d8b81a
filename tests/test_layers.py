"""Sentence classes over atoms and quantifier-depth stratification."""

import pytest

from wordlogic import (
    Alphabet,
    CapExceeded,
    MarkedWord,
    ParseError,
    check_fragment_against_direct,
    check_gamma_laws,
    check_monotone,
    depth_direct,
    depth_fragment,
    dump_fragment,
    gamma_q,
    satisfies,
    to_dsl,
)
from wordlogic.caps import Caps
from wordlogic.layers import FragmentSpec, same_language_algebra
from wordlogic.logic import all_vars, letters_of, registry_from_json
from wordlogic.words import enumerate_words

from conftest import LASTBIT, model_words


# ---------------------------------------------------------------------------
# quantifier sentence classes


def test_gamma_exists_one_letter_generators():
    gamma = gamma_q(("E",))
    A = Alphabet.of("a")
    gens = gamma.generator(A)
    texts = sorted(to_dsl(g) for g in gens)
    assert texts == ["E x. 0", "E x. P[a](x)"]


def test_gamma_two_letters_has_a_generator_per_subset():
    gamma = gamma_q(("E",))
    gens = list(gamma.generator(Alphabet.of("ab")))
    assert len(gens) == 4  # one per subset of the alphabet


def test_gamma_two_quantifiers_concatenates_generators():
    g1 = list(gamma_q(("E",)).generator(Alphabet.of("ab")))
    g2 = list(gamma_q(("E", "mod[2,0]")).generator(Alphabet.of("ab")))
    assert len(g2) == 2 * len(g1)


def test_gamma_laws_hold_for_a_merging_relabeling():
    report = check_gamma_laws(("E",), {"a": "c", "b": "c"}, bound=4)
    assert report.passed, report.counterexample


def test_gamma_laws_hold_for_parity():
    report = check_gamma_laws(("mod[2,0]",), {"a": "c", "b": "c"}, bound=4)
    assert report.passed, report.counterexample


# ---------------------------------------------------------------------------
# fragment construction


def test_fragment_spec_validation():
    with pytest.raises(ParseError):
        depth_fragment(FragmentSpec(Alphabet.of("ab"), ("nosuch",)))
    with pytest.raises(ParseError):
        depth_fragment(FragmentSpec(Alphabet.of("ab"), ("E",), depth=-1))


def test_depth_zero_has_a_single_atom():
    spec = FragmentSpec(Alphabet.of("ab"), ("E",), depth=0)
    result = depth_fragment(spec)
    assert len(result.ba.atoms) == 1


def test_depth_one_exists_is_the_letter_occurrence_algebra():
    spec = FragmentSpec(Alphabet.of("ab"), ("E",), depth=1, bound=6)
    result = depth_fragment(spec)
    assert len(result.ba.atoms) == 4
    # atoms are exactly the cells of (has an a, has a b)
    cells = {}
    for w in enumerate_words(Alphabet.of("ab"), 6):
        cells.setdefault(("a" in w, "b" in w), set()).add(w)
    assert set(map(frozenset, cells.values())) == set(result.ba.atoms)


def test_depth_one_parity_is_the_letter_count_algebra():
    spec = FragmentSpec(Alphabet.of("ab"), ("mod[2,0]",), depth=1, bound=6)
    result = depth_fragment(spec)
    cells = {}
    for w in enumerate_words(Alphabet.of("ab"), 6):
        key = (w.count("a") % 2, w.count("b") % 2)
        cells.setdefault(key, set()).add(w)
    assert set(map(frozenset, cells.values())) == set(result.ba.atoms)


def test_depth_two_refines_depth_one():
    A = Alphabet.of("a")
    b1 = depth_fragment(FragmentSpec(A, ("E",), depth=1, bound=6))
    b2 = depth_fragment(FragmentSpec(A, ("E",), depth=2, bound=6))
    report = check_monotone(FragmentSpec(A, ("E",), depth=2, bound=6))
    assert report.passed, report.counterexample
    assert len(b2.ba.atoms) >= len(b1.ba.atoms)


def test_fragment_matches_direct_enumeration():
    report = check_fragment_against_direct(
        FragmentSpec(Alphabet.of("ab"), ("E",), depth=1, bound=6))
    assert report.passed, report.counterexample


def test_fragment_matches_direct_enumeration_with_parity():
    report = check_fragment_against_direct(
        FragmentSpec(Alphabet.of("a"), ("E", "mod[2,0]"), depth=2, bound=6))
    assert report.passed, report.counterexample


@pytest.mark.parametrize("letters, depth, bound", [("ab", 1, 4), ("ab", 2, 3),
                                                    ("a", 2, 5)])
def test_fragment_matches_direct_enumeration_under_a_non_commuting_quantifier(
        letters, depth, bound):
    reg = registry_from_json({"quantifiers": [LASTBIT]})
    spec = FragmentSpec(Alphabet.of(letters), ("lastbit", "E"), depth=depth,
                        bound=bound)
    report = check_fragment_against_direct(spec, reg)
    assert report.passed, report.counterexample
    # the per-word interpreter is the oracle for the sentences' languages
    words = tuple(enumerate_words(spec.alphabet, bound))
    frag = depth_fragment(spec, reg)
    for phi, lang in zip(frag.formulas, frag.languages):
        assert frozenset(lang) == {w for w in words
                                   if satisfies(MarkedWord(w, ()), phi, reg)}


def test_same_language_algebra_identifies_equal_fragments():
    A = Alphabet.of("a")
    b1 = depth_fragment(FragmentSpec(A, ("E",), depth=1, bound=6))
    b2 = depth_fragment(FragmentSpec(A, ("E",), depth=1, bound=6))
    assert same_language_algebra(b1.ba, b2.ba)


def test_fragment_attaches_formulas_with_true_model_sets():
    spec = FragmentSpec(Alphabet.of("ab"), ("E",), depth=1, bound=6)
    result = depth_fragment(spec)
    assert result.formulas
    for phi, lang in zip(result.formulas, result.languages):
        assert model_words(phi, Alphabet.of("ab"), 6) == lang


def test_depth_four_over_one_letter_binds_more_variables_than_array_axes():
    # the deepest fragment the guard allows: its formulas bind hundreds of
    # variables, far more than the 64 axes of an array
    spec = FragmentSpec(Alphabet.of("a"), ("E", "mod[2,0]"), depth=4, bound=2)
    result = depth_fragment(spec)
    assert max(len(all_vars(phi)) for phi in result.formulas) > 64
    for phi, lang in zip(result.formulas, result.languages):
        assert lang == {w for w in enumerate_words(("a",), 2)
                        if satisfies(MarkedWord(w, ()), phi)}


# specs whose last layer is built from the previous layer's masks; over
# (a, E) at depth 2, layer 0 keeps no sentence, so the last layer has no
# generator at all
LAST_LAYER_SPECS = [("ab", ("E", "mod[2,0]"), 2, 3),
                    ("a", ("E", "mod[2,0]"), 3, 4), ("a", ("E",), 2, 4)]


@pytest.mark.parametrize("letters, quantifiers, depth, bound",
                         LAST_LAYER_SPECS[:2])
def test_the_last_layer_evaluates_no_layer_generator(monkeypatch, letters,
                                                     quantifiers, depth, bound):
    import wordlogic.layers as layers
    import wordlogic.logic as logic
    import wordlogic.substitution as substitution

    events = []
    lift, table = layers.lift_delta, logic.truth_table

    def spy_lift(generators, var, enc_vars, *args, **kwargs):
        out = lift(generators, var, enc_vars, *args, **kwargs)
        events.append(("lift", var, enc_vars))
        return out

    def spy_table(phi, symbols, *args, **kwargs):
        events.append(("table", letters_of(phi), tuple(symbols)))
        return table(phi, symbols, *args, **kwargs)

    monkeypatch.setattr(layers, "lift_delta", spy_lift)
    for module in (logic, substitution, layers):
        monkeypatch.setattr(module, "truth_table", spy_table)
    spec = FragmentSpec(Alphabet.of(letters), quantifiers, depth=depth,
                        bound=bound)
    depth_fragment(spec)
    # layers 0 .. depth-2 are lifted, each with its spare variables encoded
    lifts = [i for i, e in enumerate(events) if e[0] == "lift"]
    xs = tuple(f"x{i}" for i in range(1, depth + 1))
    assert [events[i][1:] for i in lifts] == [(xs[k], xs[k + 1:])
                                              for k in range(depth - 1)]
    # after them only sentences over the atom letters are evaluated
    last = events[lifts[-1] + 1:]
    assert last
    for _, used, symbols in last:
        assert all(c.startswith("c") for c in symbols)
        assert used <= set(symbols)


@pytest.mark.parametrize("letters, quantifiers, depth, bound",
                         LAST_LAYER_SPECS)
def test_every_fragment_formula_defines_its_language(letters, quantifiers,
                                                     depth, bound):
    # the last layer never reads its formulas, so the per-word interpreter
    # and the direct enumeration are what tie them to their languages
    spec = FragmentSpec(Alphabet.of(letters), quantifiers, depth=depth,
                        bound=bound)
    frag = depth_fragment(spec)
    words = tuple(enumerate_words(spec.alphabet, bound))
    assert frag.formulas
    for phi, lang in zip(frag.formulas, frag.languages):
        assert frozenset(lang) == {w for w in words
                                   if satisfies(MarkedWord(w, ()), phi)}
    if depth <= 2:
        report = check_fragment_against_direct(spec)
    else:
        report = check_monotone(FragmentSpec(spec.alphabet, quantifiers,
                                             depth=depth - 1, bound=bound))
    assert report.passed, report.counterexample
    if (letters, quantifiers) == ("a", ("E",)):
        assert frag.stats["layers"][0]["kept"] == 0


def test_dump_fragment_shape():
    spec = FragmentSpec(Alphabet.of("a"), ("E",), depth=1, bound=5)
    payload = dump_fragment(depth_fragment(spec))
    assert payload["schema"] == "wordlogic/1"
    assert payload["kind"] == "fragment"
    assert payload["generators"]
    assert payload["atoms"] >= 2
    assert payload["stats"]["layers"]


# ---------------------------------------------------------------------------
# guards


def test_direct_enumeration_refuses_deep_nesting():
    with pytest.raises(CapExceeded):
        depth_direct(FragmentSpec(Alphabet.of("a"), ("E",), depth=3))


def test_direct_enumeration_refuses_a_marked_table_over_the_cap():
    # 3,450 marked words with two marks over ab up to length 6
    spec = FragmentSpec(Alphabet.of("ab"), ("E",), depth=2, bound=6)
    with pytest.raises(CapExceeded, match="3450 words"):
        depth_direct(spec, caps=Caps(enumeration=1000))


def test_fragment_guard_refuses_large_products():
    with pytest.raises(CapExceeded):
        depth_fragment(FragmentSpec(Alphabet.of("ab"), ("E",), depth=3))
