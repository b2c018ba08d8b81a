"""Sentence classes over atoms and quantifier-depth stratification."""

import time

import numpy as np
import pytest

from wordlogic import (
    Alphabet,
    CapExceeded,
    InvariantViolated,
    MarkedWord,
    ParseError,
    check_fragment_against_direct,
    check_gamma_laws,
    check_monotone,
    depth_direct,
    depth_fragment,
    dump_fragment,
    finba,
    gamma_q,
    parse,
    satisfies,
    to_dsl,
)
from wordlogic.caps import Caps
from wordlogic.layers import (FragmentSpec, _refining_rows,
                              same_language_algebra)
from wordlogic.logic import (NumPred, letters_of, map_atoms,
                             registry_from_json, scope)
from wordlogic.substitution import distinct_rows
from wordlogic.words import enumerate_words

from conftest import LASTBIT, model_words, nesting_depth


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
    assert report.stats == {"generators": 4, "relabeled": 2}


def test_gamma_laws_name_the_first_sentence_that_breaks_a_law(monkeypatch):
    import wordlogic.layers as layers
    from wordlogic.substitution import SentenceClass

    merge = {"a": "c", "b": "c", "d": "e"}
    starts_a = parse("E x. (P[a](x) & R[first](x))")
    monkeypatch.setattr(layers, "neg", lambda phi: starts_a)
    report = check_gamma_laws(("E",), {"a": "c", "b": "c"}, bound=4)
    assert (report.passed, report.stats) == (False, {"generators": 4, "relabeled": 0})
    assert report.counterexample == (f"Boolean combination {to_dsl(starts_a)} "
                                     "left the generated algebra")
    monkeypatch.undo()

    # the relabeling of the second destination generator, E x. P[c](x), is
    # replaced by a sentence that is not its preimage
    relabel = layers.relabel
    monkeypatch.setattr(layers, "relabel", lambda zeta, g: parse("E x. P[a](x)")
                        if to_dsl(g) == "E x. P[c](x)" else relabel(zeta, g))
    report = check_gamma_laws(("E",), merge, bound=3)
    assert (report.passed, report.stats) == (False, {"generators": 8, "relabeled": 2})
    assert report.counterexample == ("relabeling of E x. P[c](x) is not the "
                                     "letterwise preimage")
    monkeypatch.undo()

    # a destination sentence whose preimage, "starts with a or b", no
    # generator over a, b, d separates from the others
    generator = SentenceClass.generator
    starts_c = parse("E x. (P[c](x) & R[first](x))")
    monkeypatch.setattr(SentenceClass, "generator", lambda self, alphabet: [
        *generator(self, alphabet), *[starts_c] * ("c" in alphabet.symbols)])
    report = check_gamma_laws(("E",), merge, bound=3)
    assert (report.passed, report.stats) == (False, {"generators": 8, "relabeled": 5})
    assert report.counterexample == (f"relabeling of {to_dsl(starts_c)} left the "
                                     "generated algebra")


def test_gamma_laws_refuse_more_atoms_than_the_cap():
    with pytest.raises(CapExceeded) as exc:
        check_gamma_laws(("E", "mod[2,0]"), {"a": "c", "b": "c", "d": "e"},
                         bound=3, caps=Caps(finba_atoms=5))
    assert exc.value.info["stage"] == "algebra atoms"


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


@pytest.mark.parametrize("letters, depth", [("ba", 0), ("bca", 0), ("bca", 1)])
def test_monotone_over_an_unsorted_alphabet(letters, depth):
    # every bounded algebra of plain words has its carrier in the order of
    # the alphabet's words, whatever the depth
    spec = FragmentSpec(Alphabet.of(letters), ("E",), depth=depth, bound=2)
    report = check_monotone(spec)
    assert report.passed, report.counterexample
    assert depth_fragment(spec).ba.carrier == \
        tuple(enumerate_words(spec.alphabet, 2))


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


def test_depth_four_over_one_letter_formulas_define_their_languages():
    # the deepest fragment the guard allows
    spec = FragmentSpec(Alphabet.of("a"), ("E", "mod[2,0]"), depth=4, bound=2)
    result = depth_fragment(spec)
    for phi, lang in zip(result.formulas, result.languages):
        assert lang == {w for w in enumerate_words(("a",), 2)
                        if satisfies(MarkedWord(w, ()), phi)}


# specs whose later layers are built from the layer below's rows; over
# (a, E) at depth 2, layer 0 keeps no sentence, so the last layer has no
# generator at all
LAST_LAYER_SPECS = [("ab", ("E", "mod[2,0]"), 2, 3),
                    ("a", ("E", "mod[2,0]"), 3, 4), ("a", ("E",), 2, 4)]


@pytest.mark.parametrize("letters, quantifiers, depth, bound",
                         LAST_LAYER_SPECS[:2])
def test_no_layer_encodes_or_evaluates_a_layer_generator(monkeypatch, letters,
                                                         quantifiers, depth,
                                                         bound):
    import wordlogic.layers as layers
    import wordlogic.logic as logic
    import wordlogic.substitution as substitution
    import wordlogic.varcode as varcode

    def refuse(*args, **kwargs):
        raise AssertionError("a layer left the layer loop's one step")

    for name in ("lift_delta", "encode", "decode", "encode_multi",
                 "decode_multi"):
        monkeypatch.setattr(varcode, name, refuse)
    # every layer, the last one too, is cut and substituted by the loop
    # itself, without a one-variable formula algebra, and builds only the
    # sentences it keeps
    for name in ("delta_algebra", "DeltaAlgebra"):
        monkeypatch.setattr(substitution, name, refuse)
    monkeypatch.setattr(substitution.SentenceClass, "generator", refuse)
    events = []
    table = logic.truth_table

    def spy_table(phis, symbols, context, *args, **kwargs):
        events.append((tuple(phis), tuple(symbols), tuple(context)))
        return table(phis, symbols, context, *args, **kwargs)

    for module in (logic, substitution, layers):
        monkeypatch.setattr(module, "truth_table", spy_table)
    spec = FragmentSpec(Alphabet.of(letters), quantifiers, depth=depth,
                        bound=bound)
    result = depth_fragment(spec)
    assert result.formulas
    # two family evaluations: layer 0 evaluates the quantifier-free
    # generators in all the variables first
    xs = tuple(f"x{i}" for i in range(1, depth + 1))
    assert len(events) == 2
    (qf, symbols, context), (rest, atom_symbols, rest_context) = events
    assert qf and context == xs and symbols == spec.alphabet.symbols
    assert all(nesting_depth(phi) == 0 for phi in qf)
    # after it only the last layer's sentences, over its atom letters, on
    # the atom words of the plain words
    assert len(rest) == len(result.formulas) and rest_context == ()
    assert all(c.startswith("c") for c in atom_symbols)
    for phi in rest:
        assert letters_of(phi) <= set(atom_symbols)


def test_a_last_layer_row_that_its_sentence_does_not_give_is_refused(
        monkeypatch):
    from wordlogic.substitution import SentenceClass

    enumerate_layer = SentenceClass.rows
    calls = []

    def flip_last(*args, **kwargs):
        rows = enumerate_layer(*args, **kwargs)
        calls.append(rows.shape)
        if len(calls) == 2:
            # the first sentence is constant on the words, so the flipped
            # row splits them and is kept
            rows[0, 0] = not rows[0, 0]
        return rows

    monkeypatch.setattr(SentenceClass, "rows", flip_last)
    spec = FragmentSpec(Alphabet.of("ab"), ("E",), depth=2, bound=3)
    with pytest.raises(InvariantViolated) as exc:
        depth_fragment(spec)
    assert exc.value.info["stage"] == "depth_fragment"
    assert len(calls) == 2


def greedy_refining_rows(truth) -> list:
    """Reference for ``_refining_rows``: every row scanned in order against
    the partition of the columns as a block number per column, kept when it
    splits a block."""
    block = np.zeros(truth.shape[1], dtype=np.int64)
    blocks = min(1, truth.shape[1])
    kept = []
    for i in range(len(truth)):
        key = 2 * block + truth[i]
        seen = np.zeros(2 * blocks, dtype=bool)
        seen[key] = True
        if seen.sum() > blocks:
            kept.append(i)
            rank = np.cumsum(seen)
            block, blocks = rank[key] - 1, int(rank[-1])
    return kept


@pytest.mark.parametrize("rows, cols, distinct_cols",
                         [(0, 0, 0), (0, 6, 3), (5, 0, 0), (1, 1, 1),
                          (30, 7, 5), (60, 70, 40), (200, 130, 130),
                          (300, 12, 12)])
def test_refining_rows_match_the_greedy_scan(rows, cols, distinct_cols):
    # repeated columns keep the partition coarser than the columns, and
    # repeated rows come back after the last split
    rng = np.random.default_rng(rows * 131 + cols)
    pool = rng.random((max(1, rows // 3), distinct_cols)) < rng.random()
    truth = pool[rng.integers(0, len(pool), rows)][
        :, rng.integers(0, max(1, distinct_cols), cols)]
    kept = _refining_rows(truth, len(distinct_rows(truth.T)[0]))
    assert kept.dtype == np.int64
    assert kept.tolist() == greedy_refining_rows(truth)


def _names(phi):
    """The quantifiers and numerical predicates a formula uses."""
    names = set()

    def leaf(node):
        if isinstance(node, NumPred):
            names.add(node.name)
        return node

    def bind(node, f):
        names.add(node.q)
        return node.var, f

    map_atoms(phi, leaf, bind)
    return names


#: the fragment specs of the benchmark's semantics workload
SEMANTICS_SPECS = [(letters, qs, depth, bound)
                   for qs in (("E",), ("E", "mod[2,0]"), ("E1",),
                              ("E", "mod[2,1]"), ("mod[2,0]",))
                   for letters, depth, bound in (("ab", 2, 3), ("a", 2, 7))]


@pytest.mark.parametrize("letters, quantifiers, depth, bound, predicates",
                         [spec + ((),) for spec in LAST_LAYER_SPECS
                          + SEMANTICS_SPECS + [("a", ("E1",), 4, 3)]]
                         + [("a", ("E",), 3, 3, ("<",))])
def test_representatives_are_sentences_of_the_fragment(letters, quantifiers,
                                                       depth, bound,
                                                       predicates):
    spec = FragmentSpec(Alphabet.of(letters), quantifiers, predicates,
                        depth=depth, bound=bound)
    for phi in depth_fragment(spec).formulas:
        free, _ = scope(phi)
        assert not free and nesting_depth(phi) <= depth, to_dsl(phi)
        assert _names(phi) <= set(quantifiers + predicates), to_dsl(phi)


DEEP_ONE_LETTER_SPECS = [(("E", "mod[2,0]"), 3, 5), (("E", "mod[2,0]"), 4, 3),
                         (("E1",), 4, 3)]


def test_deep_one_letter_fragments_are_fast():
    # each builds its layers from the rows of the layer below; decoding
    # the spare variables out of the alphabet took 0.24 s at depth 4
    t0 = time.perf_counter()
    for quantifiers, depth, bound in DEEP_ONE_LETTER_SPECS:
        depth_fragment(FragmentSpec(Alphabet.of("a"), quantifiers,
                                    depth=depth, bound=bound))
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"deep one-letter fragments took {elapsed:.3f}s"


def test_a_failed_comparison_names_a_separated_pair(monkeypatch):
    import wordlogic.layers as layers

    spec = FragmentSpec(Alphabet.of("ab"), ("E",), depth=1, bound=3)
    words = tuple(enumerate_words(spec.alphabet, 3))
    # a direct enumeration that separates nothing
    monkeypatch.setattr(layers, "depth_direct",
                        lambda *args: finba.generate(words, []))
    report = check_fragment_against_direct(spec)
    assert not report.passed
    assert report.counterexample == ("the fragment separates <empty> and a; "
                                     "the direct enumeration does not")
    # one that separates every word: a and aa share an atom of the fragment
    monkeypatch.setattr(layers, "depth_direct", lambda *args: finba.generate(
        words, [frozenset({w}) for w in words]))
    report = check_fragment_against_direct(spec)
    assert report.counterexample == ("the direct enumeration separates a and "
                                     "aa; the fragment does not")


@pytest.mark.parametrize("letters, quantifiers, depth, bound",
                         LAST_LAYER_SPECS)
def test_every_fragment_formula_defines_its_language(letters, quantifiers,
                                                     depth, bound):
    # no layer reads its formulas, so the per-word interpreter and the
    # direct enumeration are what tie them to their languages
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


@pytest.mark.parametrize("letters, quantifiers, bound, cap, fragment, direct", [
    # the first layer's cells; the middle algebra of the direct enumeration
    ("ab", ("E", "mod[2,1]"), 3, 3, ("formula algebra atoms", 4),
     ("algebra atoms", 10)),
    # the last layer's cells; the middle algebra again
    ("ab", ("E", "mod[2,1]"), 3, 9, ("formula algebra atoms", 10),
     ("algebra atoms", 10)),
    # both final algebras
    ("a", ("E", "mod[2,0]"), 7, 2, ("algebra atoms", 3), ("algebra atoms", 3)),
])
def test_an_algebra_over_the_atom_cap_is_refused_by_stage(
        letters, quantifiers, bound, cap, fragment, direct):
    spec = FragmentSpec(Alphabet.of(letters), quantifiers, depth=2,
                        bound=bound)
    for build, (stage, size) in ((depth_fragment, fragment),
                                 (depth_direct, direct)):
        with pytest.raises(CapExceeded) as exc:
            build(spec, caps=Caps(finba_atoms=cap))
        assert exc.value.info == {"stage": stage, "size": size, "cap": cap}


def test_fragment_guard_refuses_large_products():
    with pytest.raises(CapExceeded):
        depth_fragment(FragmentSpec(Alphabet.of("ab"), ("E",), depth=3))
