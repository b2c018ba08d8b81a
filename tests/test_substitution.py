"""Position algebras, the letter substitution, and sentence classes."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordlogic import (
    TRUE, FALSE,
    Alphabet,
    BoundTooSmall,
    CapExceeded,
    InvariantViolated,
    MarkedWord,
    NotMonoidPresentable,
    ParseError,
    SentenceClass,
    check_substitution_principle,
    delta_algebra,
    enumerate_marked,
    enumerate_words,
    equiv_bounded,
    finba,
    formula_dfa,
    gamma_q,
    models,
    parse,
    satisfies,
    sigma,
    tau,
    tau_compat,
    w_odot_c,
    xi,
)
from wordlogic import substitution
from wordlogic.caps import DEFAULT, Caps
from wordlogic.layers import FragmentSpec, depth_fragment
from wordlogic.logic import (DEFAULT_REGISTRY, And, LetterPred, Not, Quant,
                             disj, free_vars, map_atoms, map_vars,
                             registry_from_json, rename_bound, to_dsl,
                             truth_table)
from wordlogic.regular import Dfa, empty_dfa, shortlex_rows, universal_dfa
from wordlogic.sampling import random_atom_sentence, random_delta
from wordlogic.substitution import (atom_rows, atom_transduction,
                                    distinct_rows, substitute_letters,
                                    tau_word)
from wordlogic.words import ExtendedAlphabet

from conftest import LASTBIT, delta_ba, model_words, shadowing_formula


def atom_letter_of(delta, mw):
    """The atom alphabet letter classifying a marked word."""
    return delta.atom_alphabet().symbols[xi(delta, mw)]


def c_of(delta, sym, pos=1, word=None):
    """Atom letter of the cell containing (word, pos)."""
    word = word or (sym,)
    return atom_letter_of(delta, MarkedWord(tuple(word), (("x", pos),)))


# ---------------------------------------------------------------------------
# building the algebra


def test_two_cell_algebra(delta_pa):
    assert delta_pa.atom_count == 2
    assert delta_pa.atom_alphabet().symbols == ("c0", "c1")
    # the cells are "letter is a" and "letter is b"
    cells = {}
    for i, phi in enumerate(delta_pa.atom_formulas):
        cells[i] = phi
    ca = xi(delta_pa, MarkedWord(("a",), (("x", 1),)))
    cb = xi(delta_pa, MarkedWord(("b",), (("x", 1),)))
    assert {ca, cb} == {0, 1}
    assert equiv_bounded(cells[ca], parse("P[a](x)"), delta_pa.alphabet, 4,
                         context=("x",))
    assert equiv_bounded(cells[cb], parse("~P[a](x)"), delta_pa.alphabet, 4,
                         context=("x",))


def test_atom_formulas_partition(delta_pa):
    # (A.1) disjunction is everything, (A.2) pairwise conjunction empty
    ba = delta_ba(delta_pa)
    for mw in ba.carrier:
        hits = [i for i, phi in enumerate(delta_pa.atom_formulas)
                if satisfies(mw, phi)]
        assert len(hits) == 1
        assert ba.atoms[hits[0]] == ba.atom_of(mw)


@given(st.integers(0, 10 ** 6), st.integers(0, 4))
def test_cells_are_the_signature_partition_of_the_marked_words(seed, bound):
    # reference: the marked words as a carrier, partitioned by their
    # generator signatures under the per-word interpreter
    rng = random.Random(seed)
    delta = random_delta(rng, rng.choice(["a", "ab", "abc"]), bound=bound,
                         max_atoms=8)
    carrier = tuple(enumerate_marked(delta.alphabet, ("x",), bound))
    sigs = [tuple(satisfies(mw, g) for g in delta.generators)
            for mw in carrier]
    ref, ref_sigs = finba.partition(carrier, sigs)
    assert delta.atom_count == len(ref.atoms)
    assert delta.atom_of_signature == {sig: i for i, sig in enumerate(ref_sigs)}
    assert not hasattr(delta, "ba")  # the bounded FinBA is the tests' own
    assert delta_ba(delta) == ref
    assert [xi(delta, mw) for mw in carrier] == \
        [ref.atom_index_of(mw) for mw in carrier]


def test_generators_must_use_only_the_marked_variable(ab):
    with pytest.raises(ParseError):
        delta_algebra(ab, "x", [parse("P[a](y)")])


def test_a_representative_that_misses_its_cell_is_refused(ab, monkeypatch):
    # dropping the last conjunct leaves P[a](x) for both cells with P[a](x)
    gens = [parse("P[a](x)"), parse("E y. y < x")]
    conj = substitution.conj
    monkeypatch.setattr(substitution, "conj", lambda parts: conj(parts[:-1]))
    with pytest.raises(InvariantViolated) as exc:
        delta_algebra(ab, "x", gens, bound=3)
    assert exc.value.info == {"stage": "atom representatives"}
    assert "atom 0" in str(exc.value)
    monkeypatch.setattr(substitution, "conj", conj)
    assert delta_algebra(ab, "x", gens, bound=3).atom_count == 4


def test_trivial_algebra(ab):
    triv = delta_algebra(ab, "x", [], bound=4)
    assert triv.atom_count == 1
    assert triv.atom_formulas == (TRUE,)


def first_occurrences(matrix):
    """Reference for ``distinct_rows``, row by row."""
    number = {}
    cell = [number.setdefault(tuple(row), len(number)) for row in matrix.tolist()]
    return [cell.index(c) for c in range(len(number))], cell


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (3, 0), (1, 1),
                                        (6, 3), (40, 9), (300, 17), (50, 64),
                                        (50, 65), (80, 130),
                                        # the E+mod last-layer shape
                                        (2048, 15)])
def test_distinct_rows_are_numbered_by_first_occurrence(rows, cols):
    rng = np.random.default_rng(rows * 31 + cols)
    # few distinct rows, each repeated, in C order and transposed (F order)
    pool = rng.random((3, cols)) < 0.5
    c_order = pool[rng.integers(0, 3, rows)]
    f_order = np.ascontiguousarray(c_order.T).T
    assert f_order.flags.f_contiguous
    for matrix in (c_order, f_order):
        first, cell = distinct_rows(matrix)
        assert (first.tolist(), cell.tolist()) == first_occurrences(matrix)


# ---------------------------------------------------------------------------
# the position classifier


def test_xi_classifies_positions(delta_pa):
    w = MarkedWord(("a", "b"), (("x", 1),))
    ba = delta_ba(delta_pa)
    assert ba.atom_of(w) == ba.atoms[xi(delta_pa, w)]
    assert xi(delta_pa, MarkedWord(("a", "b"), (("x", 1),))) == \
        xi(delta_pa, MarkedWord(("a",), (("x", 1),)))
    assert xi(delta_pa, MarkedWord(("a", "b"), (("x", 2),))) == \
        xi(delta_pa, MarkedWord(("b",), (("x", 1),)))


def test_tau_spells_out_the_word(delta_pa):
    syms = delta_pa.atom_alphabet().symbols
    ca, cb = c_of(delta_pa, "a"), c_of(delta_pa, "b")
    got = tuple(syms[i] for i in tau(delta_pa, ("a", "b")))
    assert got == (ca, cb)
    assert tau(delta_pa, ()) == ()


def test_tau_is_length_preserving(delta_pa):
    for w in enumerate_words(delta_pa.alphabet, 5):
        assert len(tau(delta_pa, w)) == len(w)


def test_tau_over_one_atom_algebra_is_constant(ab):
    triv = delta_algebra(ab, "x", [], bound=4)
    assert tau(triv, ("a", "b", "b")) == (0, 0, 0)


def test_tau_table_matches_tau(delta_pa):
    # the table of all atom words up to a bound is atom_rows, read word by word
    letters, lens, atoms = atom_rows(delta_pa, 3)
    words = list(enumerate_words(delta_pa.alphabet, 3))
    table = {w: tuple(row[:len(w)]) for w, row in zip(words, atoms.tolist())}
    for w, row in table.items():
        assert row == tau(delta_pa, w)
    assert len(table) == len(lens) == 1 + 2 + 4 + 8


@given(st.integers(0, 10 ** 6), st.integers(0, 5))
def test_atom_rows_are_tau_and_sentences_on_them_are_satisfies(seed, bound):
    # the algebra is cut at bound 3: longer words may show a generator
    # signature no word up to 3 realizes, which reads -2
    rng = random.Random(seed)
    delta = random_delta(rng, rng.choice(["a", "ab"]), bound=3)
    syms = delta.atom_alphabet().symbols
    psi = random_atom_sentence(rng, syms, ("E", "E1", "mod[2,0]", "maj"))
    letters, lens, atoms = atom_rows(delta, bound)
    truth = truth_table((psi,), syms, (), atoms, lens)[0]
    words = list(enumerate_words(delta.alphabet, bound))
    assert [len(w) for w in words] == lens.tolist()
    for w, row, value in zip(words, atoms.tolist(), truth.tolist()):
        assert row[len(w):] == [-1] * (bound - len(w))
        for i, atom in enumerate(row[:len(w)], 1):
            mw = MarkedWord(w, (("x", i),))
            sig = tuple(satisfies(mw, g) for g in delta.generators)
            assert atom == delta.atom_of_signature.get(sig, -2)
        if -2 in row:
            with pytest.raises(BoundTooSmall, match="is not realized"):
                tau(delta, w)
        else:
            assert tau(delta, w) == tuple(row[:len(w)])
            aw = tuple(syms[a] for a in row[:len(w)])
            assert value == satisfies(MarkedWord(aw, ()), psi)


def test_an_unrealized_signature_is_refused_at_the_first_word(ab):
    # at bound 1 no position has an a before it
    delta = delta_algebra(ab, "x", [parse("E y. (y < x & P[a](y))")], bound=1)
    for check in (lambda: check_substitution_principle(
                      delta, parse("E z. P[c0](z)"), bound=3),
                  lambda: tau(delta, "aa"),
                  lambda: xi(delta, MarkedWord(("a", "a"), (("x", 2),)))):
        with pytest.raises(BoundTooSmall, match=r"aa\[x=2\] is not realized"):
            check()
    # past the bound xi classifies its own position only
    assert xi(delta, MarkedWord(("a", "a"), (("x", 1),))) == \
        xi(delta, MarkedWord(("a",), (("x", 1),)))
    with pytest.raises(BoundTooSmall) as exc:
        tau(delta, "bab")
    assert exc.value.info == {"stage": "atom classification", "size": 3,
                              "bound": 1}
    assert "bab[x=3] is not realized" in str(exc.value)


def test_a_letter_outside_the_alphabet_is_refused(delta_pa):
    # within the bound and past it
    for w in ("abc", "c" * 9):
        with pytest.raises(ParseError, match="'c' not in alphabet"):
            tau(delta_pa, w)
        with pytest.raises(ParseError, match="'c' not in alphabet"):
            xi(delta_pa, MarkedWord(tuple(w), (("x", 1),)))


def test_xi_beyond_the_bound_by_signature(delta_pa):
    long = MarkedWord(("b",) * 9 + ("a",), (("x", 10),))
    assert xi(delta_pa, long) == c_index(delta_pa, "a")


def c_index(delta, sym):
    return xi(delta, MarkedWord((sym,), (("x", 1),)))


# ---------------------------------------------------------------------------
# substitution


def test_sigma_on_an_existential(delta_pa):
    ca = c_of(delta_pa, "a")
    out = sigma(delta_pa, parse(f"E z. P[{ca}](z)"))
    assert equiv_bounded(out, parse("E x. P[a](x)"), delta_pa.alphabet, 4)


def test_sigma_keeps_truth_constants(delta_pa):
    assert sigma(delta_pa, TRUE) == TRUE
    assert sigma(delta_pa, FALSE) == FALSE


def test_sigma_of_conjoined_distinct_atoms_is_empty(delta_pa):
    out = sigma(delta_pa, parse("E z. P[c0](z) & P[c1](z)"))
    assert equiv_bounded(out, FALSE, delta_pa.alphabet, 4)


def test_sigma_commutes_with_connectives(delta_pa):
    from wordlogic import And, Not

    psi1 = parse("E z. P[c0](z)")
    psi2 = parse("mod[2,0] z. P[c1](z)")
    A = delta_pa.alphabet
    lhs = sigma(delta_pa, Not(psi1))
    assert equiv_bounded(lhs, Not(sigma(delta_pa, psi1)), A, 4)
    both = sigma(delta_pa, And((psi1, psi2)))
    expect = And((sigma(delta_pa, psi1), sigma(delta_pa, psi2)))
    assert equiv_bounded(both, expect, A, 4)


def test_substitute_letters_renames_bound_variables_apart():
    psi = parse("E x. P[c0](x)")
    out = substitute_letters(psi, {"c0": parse("E z. z < x & P[a](z)")}, "x")
    from wordlogic import check_hygiene

    check_hygiene(out)  # must not raise
    assert equiv_bounded(out, parse("E y. E z. z < y & P[a](z)"),
                         Alphabet.of("ab"), 4)


def test_a_negated_conjunct_shares_the_renaming_of_its_generator():
    # generators with a binder and a negation, so that the atom formulas
    # conjoin both g and Not(g) and the renamings are not trivial
    gens = [parse("E z. z < x & P[a](z)"), parse("P[b](x)"),
            parse("~(E z. x < z)")]
    delta = delta_algebra(Alphabet.of("ab"), "x", gens, bound=4)
    syms = delta.atom_alphabet().symbols
    psi = And((Quant("E", "y", disj(LetterPred(c, "y") for c in syms)),
               Quant("mod[2,0]", "w", disj(LetterPred(c, "w")
                                           for c in reversed(syms)))))
    by_symbol = dict(zip(syms, delta.atom_formulas))
    # each atom formula renamed on its own, conjunct by conjunct
    expect = map_atoms(rename_bound(psi, delta._atom_vars),
                       lambda n: map_vars(by_symbol[n.symbol], {"x": n.var})
                       if isinstance(n, LetterPred) else n)
    assert sigma(delta, psi) == expect
    assert sigma(delta, psi) == expect      # from the kept renamings
    negated = [p for phi in delta.atom_formulas for p in phi.args
               if isinstance(p, Not)]
    assert negated
    for p in negated:
        for z in ("z0", "z1"):
            assert delta._renamed[id(p), z].sub is delta._renamed[id(p.sub), z]


# ---------------------------------------------------------------------------
# the master check: both readings of a sentence agree


def test_substitution_principle_on_examples(delta_pa):
    for text in ["E z. P[c0](z)", "1", "E z. P[c0](z) & P[c1](z)",
                 "mod[2,1] z. P[c1](z)", "maj z. P[c0](z)"]:
        report = check_substitution_principle(delta_pa, parse(text), bound=5)
        assert report.passed, report.counterexample
        assert report.stats["words"] == 63  # all words of length <= 5


def test_substitution_principle_catches_corruption(delta_pa):
    # swap the atom formulas: the classifier and the substitution now disagree
    corrupted = dataclasses.replace(
        delta_pa, atom_formulas=tuple(reversed(delta_pa.atom_formulas)))
    report = check_substitution_principle(corrupted, parse("E z. P[c0](z)"),
                                          bound=4)
    assert not report.passed
    assert report.counterexample


def test_corruption_is_caught_after_the_renaming_memo_is_warm(delta_pa):
    psi = parse("E z. P[c0](z)")
    assert check_substitution_principle(delta_pa, psi, bound=4).passed
    corrupted = dataclasses.replace(
        delta_pa, atom_formulas=tuple(reversed(delta_pa.atom_formulas)))
    report = check_substitution_principle(corrupted, psi, bound=4)
    assert not report.passed
    assert report.counterexample


def test_substitution_principle_empty_word(delta_pa):
    report = check_substitution_principle(delta_pa, parse("E z. 1"), bound=0)
    assert report.passed
    assert report.stats["words"] == 1


def test_sigma_through_a_generator_that_binds_the_algebra_variable(ab):
    # E x. P[a](x) is a sentence: its binder hides x from the renaming, as
    # E u. P[a](u) has no x to rename
    for text in ("E x. P[a](x)", "E u. P[a](u)"):
        delta = delta_algebra(ab, "x", [parse(text)], bound=4)
        psi = parse("E y. P[c0](y)")
        assert to_dsl(sigma(delta, psi)) == f"E z0. {text}"
        assert check_substitution_principle(delta, psi).passed


def test_substitute_refuses_a_free_variable_its_atom_formula_binds(ab):
    # P[c1](z) becomes the atom formula at z, whose binder of z would
    # capture it
    delta = delta_algebra(ab, "x", [parse("E z. z < x & P[a](z)")], bound=4)
    with pytest.raises(ParseError, match="variable 'x' renamed to 'z' would "
                       "be captured"):
        sigma(delta, parse("P[c1](z)"))


@settings(derandomize=True, max_examples=100)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_substitution_principle_holds_when_generators_bind_their_variable(seed,
                                                                          depth):
    # generators of shadowing formulas, their other free variables bound
    # outside, so that x may be free, bound, or both in one generator
    rng = random.Random(seed)
    gens = []
    for _ in range(rng.choice((1, 2))):
        g = shadowing_formula(rng, depth)
        for v in sorted(free_vars(g) - {"x"}):
            g = Quant("E", v, g)
        gens.append(g)
    delta = delta_algebra(Alphabet.of("ab"), "x", gens, bound=4)
    psi = random_atom_sentence(rng, delta.atom_alphabet().symbols,
                               ("E", "mod[2,1]"))
    report = check_substitution_principle(delta, psi, bound=4)
    assert report.passed, (list(map(to_dsl, gens)), to_dsl(psi))


# ---------------------------------------------------------------------------
# sentence classes applied through an algebra


def test_sentences_are_numbered_by_quantifier_then_subset_mask():
    gamma = SentenceClass(("E", "mod[2,0]"))
    syms = ("c0", "c1")
    assert tuple(gamma.generator(syms)) == tuple(gamma.sentence(i, syms)
                                                 for i in range(8))
    assert gamma.sentence(0, syms) == Quant("E", "x", disj(()))
    assert gamma.sentence(6, syms) == Quant("mod[2,0]", "x",
                                            LetterPred("c1", "x"))
    assert SentenceClass("mod[2,0]").quantifiers == ("mod[2,0]",)


@pytest.mark.parametrize("quantifiers", [("E", "E1"), ("mod[2,0]", "mod[3,1]"),
                                         ("maj",), ("lastbit", "E")])
@pytest.mark.parametrize("natoms", [0, 1, 2, 3])
def test_sentence_rows_are_the_truth_of_each_sentence(quantifiers, natoms):
    # count tables (E, E1, mod) and word-by-word evaluation (maj, lastbit)
    # against each sentence read on the same atom words, the empty one too
    reg = registry_from_json({"quantifiers": [LASTBIT]})
    gamma = SentenceClass(quantifiers)
    if natoms:
        cells, lens = shortlex_rows(natoms, 4)
    else:  # no atoms, no positions: the empty word only
        cells, lens = np.full((1, 3), -1), np.zeros(1, dtype=np.int64)
    assert lens[0] == 0
    syms = tuple(f"c{j}" for j in range(natoms))
    rows = gamma.rows(natoms, cells, lens, reg, DEFAULT)
    assert rows.shape == (len(quantifiers) << natoms, len(lens))
    for i, row in enumerate(rows):
        phi = gamma.sentence(i, syms)
        assert np.array_equal(row, truth_table((phi,), syms, (), cells, lens, reg)[0])


def sentence_rows_by_matrix_product(gamma, natoms, cells, lens, reg):
    """Reference for ``SentenceClass.rows``: the witness counts of all masks
    as each row's histogram of atoms times the bits of each mask, one int64
    matrix product read in the count table, and word by word for a
    quantifier without one."""
    hist = (cells[:, :, None] == np.arange(natoms)).sum(axis=1)
    member = (np.arange(1 << natoms)[:, None] >> np.arange(natoms)) & 1
    blocks = []
    for qname in gamma.quantifiers:
        q = reg.quantifier(qname)
        by_count = q.by_count(cells.shape[1])
        if by_count is None:
            blocks.append([[q.evaluate([(mask >> b) & 1 for b in row[:n]])
                            for row, n in zip(cells.tolist(), lens.tolist())]
                           for mask in range(1 << natoms)])
        else:
            blocks.append(by_count[lens, member @ hist.T])
    return np.concatenate(blocks).astype(bool)


@pytest.mark.parametrize("quantifiers, natoms, nrows, width", [
    # 1,024 rows gather 2,048 masks at a time: two chunks of 4,096 masks
    (("E1", "mod[3,1]"), 12, 1024, 20),
    # counts up to 300 need two bytes
    (("mod[3,0]", "E"), 3, 50, 300),
    # a quantifier without a count table is asked word by word
    (("maj", "mod[2,1]"), 5, 200, 9),
])
def test_sentence_rows_match_the_matrix_product(quantifiers, natoms, nrows,
                                                width):
    rng = np.random.default_rng(natoms * nrows + width)
    lens = rng.integers(0, width + 1, nrows)
    lens[:2] = 0, width
    cells = np.where(np.arange(width) < lens[:, None],
                     rng.integers(0, natoms, (nrows, width)), -1)
    gamma = SentenceClass(quantifiers)
    rows = gamma.rows(natoms, cells, lens, DEFAULT_REGISTRY, DEFAULT)
    assert np.array_equal(rows, sentence_rows_by_matrix_product(
        gamma, natoms, cells, lens, DEFAULT_REGISTRY))


def test_exists_through_the_letter_algebra_cuts_by_letters_present(delta_pa):
    # depth one over ab is Q[E] through the algebra of P[a]: 4 atoms, cut by
    # has-an-a and has-a-b, with each sentence's language its models
    frag = depth_fragment(FragmentSpec("ab", ("E",), depth=1, bound=6))
    assert len(frag.ba.atoms) == 4
    for atom in frag.ba.atoms:
        assert len({("a" in w, "b" in w) for w in atom}) == 1
    for phi, lang in zip(frag.formulas, frag.languages):
        assert model_words(phi, frag.spec.alphabet, 6) == lang
    stats = tau_compat(gamma_q(("E",)), delta_pa, delta_pa, bound=6).stats
    assert stats["small_odot"] == stats["big_odot"] == 4


def test_exists_through_the_trivial_algebra_sees_length_only(a_only):
    frag = depth_fragment(FragmentSpec("a", ("E",), depth=1, bound=5))
    assert sorted(len(a) for a in frag.ba.atoms) == [1, 5]
    triv = delta_algebra(a_only, "x", [], bound=5)
    assert tau_compat(gamma_q(("E",)), triv, triv).stats["small_odot"] == 2


def test_a_layer_over_the_sentence_budget_is_refused(delta_pa):
    # two atoms under E are 4 sentences, one over the budget
    caps = Caps(sentence_budget=3)
    for refused in (
            lambda: depth_fragment(FragmentSpec("ab", ("E",), depth=1,
                                                bound=3), caps=caps),
            lambda: tau_compat(gamma_q(("E",)), delta_pa, delta_pa, bound=3,
                               caps=caps)):
        with pytest.raises(CapExceeded) as exc:
            refused()
        assert exc.value.info == {"stage": "layer sentences", "size": 4,
                                  "cap": 3}


# ---------------------------------------------------------------------------
# preimages of atom-word languages


def test_preimage_of_the_full_atom_language(delta_pa):
    syms = delta_pa.atom_alphabet().symbols
    got = w_odot_c([universal_dfa(syms)], delta_pa)
    assert got.preimages[0].equivalent(universal_dfa(delta_pa.alphabet.symbols))


def test_preimage_of_the_empty_atom_language(delta_pa):
    syms = delta_pa.atom_alphabet().symbols
    got = w_odot_c([empty_dfa(syms)], delta_pa)
    assert got.preimages[0].is_empty()


def test_preimage_of_contains_atom_is_contains_letter(delta_pa):
    syms = delta_pa.atom_alphabet().symbols
    ca = c_of(delta_pa, "a")
    col = syms.index(ca)
    k = len(syms)
    contains_ca = Dfa(syms,
                      (tuple(1 if c == col else 0 for c in range(k)),
                       (1,) * k), 0, frozenset({1}))
    got = w_odot_c([contains_ca], delta_pa)
    want = frozenset(w for w in enumerate_words(delta_pa.alphabet, 6)
                     if "a" in w)
    have = frozenset(w for w in enumerate_words(delta_pa.alphabet, 6)
                     if got.preimages[0].accepts(w))
    assert have == want


def test_preimage_rejects_alphabet_mismatch(delta_pa):
    with pytest.raises(ParseError):
        w_odot_c([universal_dfa(("c0",))], delta_pa)


def test_preimage_refuses_an_algebra_over_a_marked_alphabet():
    # delta_algebra accepts an extended alphabet; the transduction reads
    # plain words, so it refuses one up front instead of inside Alphabet.of
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("z",))
    delta = delta_algebra(ext, "x", [parse("P[a{z}](x)")], bound=3)
    assert delta.atom_count == 2
    with pytest.raises(ParseError, match="plain alphabet") as exc:
        w_odot_c([universal_dfa(("c0", "c1"))], delta)
    assert exc.value.info == {"stage": "atom transduction"}


ALGEBRAS = [("ab", ["P[a](x)"]), ("ab", ["R[first](x)"]),
            ("ab", ["E y. y < x & P[b](y)"]), ("ab", ["P[a](x)", "R[last](x)"]),
            ("abc", ["P[c](x)"]), ("ab", ["mod[7,0] y. P[a](y)"])]


def some_position_is(k, i):
    return Dfa(k, (tuple(int(c == i) for c in range(len(k))), (1,) * len(k)),
               0, frozenset({1}))


def an_even_number_of(k, i):
    return Dfa(k, (tuple(int(c == i) for c in range(len(k))),
                   tuple(int(c != i) for c in range(len(k)))), 0, frozenset({0}))


def exact_on(delta, ks, preimages, bound):
    """Each preimage accepts exactly the plain words of length <= bound
    whose atom word (``tau_word``) its K accepts."""
    for w in enumerate_words(delta.alphabet, bound):
        atoms = tau_word(delta, w)
        for k, pre in zip(ks, preimages):
            assert pre.accepts(w) == k.accepts(atoms), (w, atoms)


@pytest.mark.parametrize("letters, generators", ALGEBRAS,
                         ids=[" & ".join(g) + f" over {a}" for a, g in ALGEBRAS])
@pytest.mark.parametrize("atom_word_dfa", [some_position_is, an_even_number_of])
def test_the_transduction_matches_the_atom_sets_and_tau(letters, generators,
                                                        atom_word_dfa):
    delta = delta_algebra(Alphabet.of(letters), "x",
                          [parse(g) for g in generators], bound=5)
    # the states labelled i accept exactly the models of atom i's formula
    td = atom_transduction(delta)
    for i, phi in enumerate(delta.atom_formulas):
        want = formula_dfa(phi, delta.alphabet, ("x",), 5)[1]
        got = Dfa(td.ext.symbols, td.delta, 0,
                  frozenset(q for q, a in enumerate(td.label) if a == i))
        assert got.minimize() == want
    # each preimage: the plain words whose atom word K accepts, also past
    # the algebra's bound
    syms = delta.atom_alphabet().symbols
    ks = [atom_word_dfa(syms, i) for i in range(len(syms))]
    exact_on(delta, ks, w_odot_c(ks, delta).preimages, delta.bound + 3)


def test_a_count_modulo_seven_is_pulled_back_exactly(ab):
    # at bound 5 the atom "the number of a's is 0 mod 7" looks like "no a";
    # aaaaaaa is the first word where the two differ
    delta = delta_algebra(ab, "x", [parse("mod[7,0] y. P[a](y)")], bound=5)
    syms = delta.atom_alphabet().symbols
    ks = [f(syms, i) for i in range(len(syms))
          for f in (some_position_is, an_even_number_of)]
    exact_on(delta, ks, w_odot_c(ks, delta).preimages, 9)


def test_a_generator_that_needs_more_than_the_bound_to_guess_is_compiled(ab):
    delta = delta_algebra(
        ab, "x", [parse("(E u1. R[first](x) & P[a](u1)) | R[last](x)")], bound=5)
    syms = delta.atom_alphabet().symbols
    ks = [some_position_is(syms, i) for i in range(len(syms))]
    exact_on(delta, ks, w_odot_c(ks, delta).preimages, 8)


def test_a_signature_realized_only_past_the_bound_is_refused(ab):
    delta = delta_algebra(ab, "x", [parse("mod[7,0] y. P[a](y)"),
                                    parse("E y. P[a](y)")], bound=5)
    with pytest.raises(BoundTooSmall) as exc:
        w_odot_c([universal_dfa(delta.atom_alphabet().symbols)], delta)
    assert exc.value.info == {"stage": "atom transduction", "size": 7,
                              "bound": 5}
    assert "aaaaaaa[x=" in str(exc.value)
    # the classifier refuses the same word
    with pytest.raises(BoundTooSmall, match="is not realized"):
        tau(delta, "aaaaaaa")


def test_an_oracle_quantifier_generator_is_not_monoid_presentable(ab):
    delta = delta_algebra(ab, "x", [parse("maj y. P[a](y)")], bound=5)
    with pytest.raises(NotMonoidPresentable):
        w_odot_c([universal_dfa(delta.atom_alphabet().symbols)], delta)


def test_a_preimage_that_disagrees_with_the_atom_table_is_an_invariant_fault(
        delta_pa, monkeypatch):
    # the preimage of "some position is c_a" corrupted to accept everything
    syms = delta_pa.atom_alphabet().symbols
    monkeypatch.setattr(substitution.AtomTransduction, "preimage",
                        lambda self, kdfa, caps=None: universal_dfa(("a", "b")))
    with pytest.raises(InvariantViolated) as exc:
        w_odot_c([some_position_is(syms, syms.index(c_of(delta_pa, "a")))],
                 delta_pa)
    assert exc.value.info == {"stage": "atom transduction", "word": "<empty>"}


# ---------------------------------------------------------------------------
# nested algebras


def chain(ab):
    g1 = [parse("P[a](x)")]
    g2 = g1 + [parse("R[first](x)")]
    g3 = g2 + [parse("E z. z < x")]
    return (delta_algebra(ab, "x", g, bound=6) for g in (g1, g2, g3))


def test_tau_compat_identity(delta_pa):
    report = tau_compat(gamma_q(("E",)), delta_pa, delta_pa, bound=5)
    assert report.passed


def test_tau_compat_trivial_base(ab):
    triv = delta_algebra(ab, "x", [], bound=6)
    big = delta_algebra(ab, "x", [parse("P[a](x)")], bound=6)
    report = tau_compat(gamma_q(("E",)), triv, big, bound=5)
    assert report.passed


def test_tau_compat_chain_composes(ab):
    from wordlogic import finba

    d1, d2, d3 = chain(ab)
    for lo, hi in [(d1, d2), (d2, d3), (d1, d3)]:
        assert tau_compat(gamma_q(("E",)), lo, hi, bound=5).passed
    b1, b2, b3 = map(delta_ba, (d1, d2, d3))
    z21 = finba.dual_of_inclusion(b1, b2)
    z32 = finba.dual_of_inclusion(b2, b3)
    z31 = finba.dual_of_inclusion(b1, b3)
    assert tuple(z21[z32[k]] for k in range(d3.atom_count)) == tuple(z31)


def test_tau_compat_names_the_first_word_whose_atom_words_differ(ab):
    # at bound 1 every position is the first, so both generators cut
    # "the letter is a"; on longer words the second one flips
    small = delta_algebra(ab, "x", [parse("P[a](x)")], bound=1)
    big = delta_algebra(ab, "x", [parse(
        "(P[a](x) & R[first](x)) | (~P[a](x) & ~R[first](x))")], bound=1)
    assert tau_compat(gamma_q(("E",)), small, big, bound=1).passed
    report = tau_compat(gamma_q(("E",)), small, big, bound=3)
    assert not report.passed
    assert report.counterexample == ("word aa: relabeled big atom word "
                                     "(0, 1) differs from small atom word "
                                     "(0, 0)")
    assert report.stats == {"words": 4}


def test_tau_compat_fails_for_unrelated_algebras(ab):
    left = delta_algebra(ab, "x", [parse("P[a](x)")], bound=5)
    right = delta_algebra(ab, "x", [parse("R[first](x)")], bound=5)
    report = tau_compat(gamma_q(("E",)), left, right, bound=5)
    assert not report.passed
    assert "subalgebra" in report.counterexample
    # also when the two are built at different bounds
    short = delta_algebra(ab, "x", [parse("R[first](x)")], bound=3)
    for small, big in ((left, short), (short, left)):
        report = tau_compat(gamma_q(("E",)), small, big)
        assert not report.passed
        assert report.params["bound"] == 3
        assert "subalgebra" in report.counterexample


def test_tau_compat_decides_the_inclusion_at_the_lower_bound(ab):
    small = delta_algebra(ab, "x", [parse("P[a](x)")], bound=4)
    big = delta_algebra(ab, "x", [parse("P[a](x)"), parse("R[first](x)")],
                        bound=6)
    report = tau_compat(gamma_q(("E",)), small, big)
    assert report.passed, report.counterexample
    assert report.params["bound"] == 4
    at_four = delta_algebra(ab, "x", big.generators, bound=4)
    assert report == tau_compat(gamma_q(("E",)), small, at_four)
    assert tau_compat(gamma_q(("E",)), small, big, bound=6).passed
    # the big atoms past "x is first" are realized only from length 2 on;
    # each goes to the small atom of its first marked word
    short = delta_algebra(ab, "x", [parse("P[a](x)")], bound=1)
    assert tau_compat(gamma_q(("E",)), short, big, bound=3).passed
