"""Biactions, two-sided products, decompositions, and the layer compiler."""

import dataclasses
import itertools
import random
import re
import time

import pytest

from wordlogic import (
    Alphabet,
    DEFAULT_REGISTRY,
    ExtendedAlphabet,
    LetterPred,
    MarkedWord,
    NotDecomposable,
    NotMonoidPresentable,
    ParseError,
    Quant,
    compile_layer,
    decompose,
    enumerate_words,
    formula_dfa,
    parse,
    quotient_closure,
    registry_from_json,
    satisfies,
    sdp,
    verify_recognizer,
)
from wordlogic import regular, semidirect
from wordlogic.caps import Caps
from wordlogic.errors import CapExceeded, InvariantViolated
from wordlogic.regular import (Dfa, FinMonoid, empty_dfa, generate_monoid,
                               image_dfa, named_monoid, syntactic_stamp,
                               universal_dfa)
from wordlogic.sampling import MONOID_QUANTIFIERS
from wordlogic.semidirect import Biaction, eta_quotient, h_morphism, transfer_dfa
from wordlogic.suites import _recognizer_instances, run_suite
from wordlogic.words import parse_word

from conftest import (LASTBIT, cayley_dfa, check_h_formula, class_word,
                      count_layer, layer_accepts, left_quotient,
                      marked_class_word, random_body, right_quotient,
                      s_of_letters)


def trivial_biaction(smon, mmon):
    ns, nm = len(smon), len(mmon)
    return Biaction(mmon=mmon, smon=smon,
                    left=tuple(tuple(range(ns)) for _ in range(nm)),
                    right=tuple(tuple(s for _ in range(nm))
                                for s in range(ns)))


def marked_universe_algebra(symbols="a"):
    A = Alphabet.of(symbols)
    ext = ExtendedAlphabet(A, ("x",))
    ba = quotient_closure([image_dfa(ext)])
    return ext, ba


# ---------------------------------------------------------------------------
# biactions and products


def test_biaction_laws_are_checked():
    z2 = named_monoid("Z2")
    u1 = named_monoid("U1")
    trivial_biaction(u1, z2)  # fine
    # a left table that is not an action: swap under the identity
    with pytest.raises(ParseError):
        Biaction(mmon=z2, smon=u1,
                 left=((1, 0), (0, 1)),
                 right=tuple((s, s) for s in range(2)))


def cyclic(n):
    return FinMonoid(tuple(tuple((i + j) % n for j in range(n))
                           for i in range(n)), 0)


KLEIN = FinMonoid(tuple(tuple(i ^ j for j in range(4)) for i in range(4)), 0)
ID2, ID3, ID4 = (tuple(range(n)) for n in (2, 3, 4))


@pytest.mark.parametrize("mmon, smon, left, right, law", [
    # element 0 is the identity of U1, Z2 and every S here; 1 absorbs in U1
    (named_monoid("Z2"), named_monoid("U1"), (ID2, ID2), ((1, 1), (1, 1)),
     "right action of 1 is not the identity"),
    # the absorbing element of U1 must act idempotently; negation on Z3,
    # an automorphism, does not
    (named_monoid("U1"), cyclic(3), (ID3, (0, 2, 1)),
     tuple((s, s) for s in range(3)), "left action does not compose"),
    (named_monoid("U1"), cyclic(3), (ID3, ID3),
     tuple((s, -s % 3) for s in range(3)), "right action does not compose"),
    # an involution of Z4 fixing 0 that is no automorphism: 1 <-> 2
    (named_monoid("Z2"), cyclic(4), (ID4, (0, 2, 1, 3)),
     tuple((s, s) for s in range(4)), "does not distribute over S"),
    # the absorbing element of U1 sends all of S = U1 to S's absorbing
    # element: a semigroup morphism that moves S's identity
    (named_monoid("U1"), named_monoid("U1"), (ID2, (1, 1)),
     ((0, 0), (1, 1)), "does not fix the identity of S"),
    # two automorphisms of the Klein group that do not commute
    (named_monoid("Z2"), KLEIN, (ID4, (0, 2, 1, 3)),
     tuple((s, (0, 1, 3, 2)[s]) for s in range(4)),
     "left and right actions do not commute"),
])
def test_each_biaction_law_is_checked(mmon, smon, left, right, law):
    with pytest.raises(ParseError, match=law):
        Biaction(mmon=mmon, smon=smon, left=left, right=right)


@pytest.mark.parametrize("left", [((0, 2), (0, 1)), ((0, "b"), (0, 1)),
                                  ((0, 1), (0,)), ((0.9, 1.2), (0, 1)),
                                  ((10 ** 30, 1), (0, 1))])
def test_biaction_refuses_malformed_tables(left):
    z2 = named_monoid("Z2")
    u1 = named_monoid("U1")
    with pytest.raises(ParseError):
        Biaction(mmon=z2, smon=u1, left=left,
                 right=tuple((s, s) for s in range(2)))


def sdp_by_pairs(smon, mmon, bia):
    """The product table pair by pair, as the definition reads."""
    pairs = [(s, m) for s in range(len(smon)) for m in range(len(mmon))]
    return tuple(tuple(pairs.index((smon.mul(bia.ract(s1, m2), bia.lact(m1, s2)),
                                    mmon.mul(m1, m2)))
                       for s2, m2 in pairs) for s1, m1 in pairs)


def test_sdp_table_matches_the_pairwise_definition(monkeypatch):
    built = []
    monkeypatch.setattr(semidirect, "sdp",
                        lambda *args: built.append(args) or sdp(*args))
    _, etaq = eta_setup("Z3", symbols="ab", body="E y. y < x & P[a](y)")
    h_morphism(etaq)
    assert built == []  # S ** M is built on request, once
    assert etaq.nu is etaq.nu and len(built) == 1
    assert len(etaq.dd.m_mon) > 1
    assert etaq.nu.monoid.table == sdp_by_pairs(etaq.s_mon, etaq.dd.m_mon, etaq.bia)
    assert etaq.nu.pairs == tuple((s, m) for s in range(len(etaq.s_mon))
                                  for m in range(len(etaq.dd.m_mon)))


def test_sdp_with_trivial_acting_monoid_is_the_carrier():
    s = named_monoid("Z3")
    one = named_monoid("trivial")
    prod = sdp(s, one, trivial_biaction(s, one))
    assert len(prod.pairs) == 3
    # multiplication reduces to the carrier's addition
    for x in range(3):
        for y in range(3):
            px, py = prod.index[(x, 0)], prod.index[(y, 0)]
            assert prod.pairs[prod.monoid.mul(px, py)] == (s.mul(x, y), 0)


def test_sdp_with_trivial_carrier_is_the_acting_monoid():
    m = named_monoid("Z3")
    one = named_monoid("trivial")
    prod = sdp(one, m, trivial_biaction(one, m))
    assert len(prod.pairs) == 3
    for x in range(3):
        for y in range(3):
            px, py = prod.index[(0, x)], prod.index[(0, y)]
            assert prod.pairs[prod.monoid.mul(px, py)] == (0, m.mul(x, y))


def test_sdp_with_trivial_actions_is_the_direct_product():
    z2 = named_monoid("Z2")
    prod = sdp(z2, z2, trivial_biaction(z2, z2))
    assert len(prod.pairs) == 4
    for (s1, m1), (s2, m2) in itertools.product(prod.pairs, repeat=2):
        via = prod.pairs[prod.monoid.mul(prod.index[(s1, m1)],
                                         prod.index[(s2, m2)])]
        assert via == (z2.mul(s1, s2), z2.mul(m1, m2))


def test_sdp_identity_is_the_pair_of_identities():
    z2 = named_monoid("Z2")
    u1 = named_monoid("U1")
    prod = sdp(u1, z2, trivial_biaction(u1, z2))
    assert prod.pairs[prod.monoid.identity] == (u1.identity, z2.identity)


# ---------------------------------------------------------------------------
# decomposing a quotient-closed algebra


def test_decompose_the_marked_universe_instance():
    ext, ba = marked_universe_algebra("a")
    dd = decompose(ba, ext)
    assert len(dd.m_mon) == 1          # plain part: only the empty class
    assert len(dd.t_blocks) == 1       # one marked class letter
    assert dd.z_elems                  # the sink is present
    assert len(dd.pi.monoid) == 3
    # the plain-part blocks cover exactly the plain ambient elements
    plains = set().union(*dd.d0_blocks)
    assert plains == set(dd.m_elems)


def test_decompose_rejects_algebras_without_the_marked_part():
    A = Alphabet.of("a")
    ext = ExtendedAlphabet(A, ("x",))
    ba = quotient_closure([universal_dfa(ext.symbols)])
    with pytest.raises(NotDecomposable):
        decompose(ba, ext)


def test_decompose_full_three_part_algebra():
    ext, _ = marked_universe_algebra("ab")
    from wordlogic.regular import recognized_languages, syntactic_stamp

    ba = recognized_languages(syntactic_stamp(image_dfa(ext)))
    dd = decompose(ba, ext)
    assert len(dd.m_mon) == 1
    assert len(dd.t_elems) == 1
    assert len(dd.z_elems) == 1


def test_decompose_refuses_a_foreign_alphabet_with_a_parse_error():
    ext, ba = marked_universe_algebra("a")
    other = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    with pytest.raises(ParseError):
        decompose(ba, other)
    with pytest.raises(ParseError):
        decompose(ba, ExtendedAlphabet(Alphabet.of("a"), ("x", "y")))


def test_decompose_names_a_quotient_witness():
    from wordlogic.regular import RegularBA, syntactic_stamp

    ext, _ = marked_universe_algebra("a")
    stamp = syntactic_stamp(image_dfa(ext))
    plain, marked = stamp.mu(()), stamp.mu(("a{x}",))
    rest = frozenset(range(len(stamp.monoid))) - {plain, marked}
    ba = RegularBA(stamp, (frozenset({plain, marked}), rest))
    with pytest.raises(NotDecomposable) as exc:
        decompose(ba, ext)
    assert exc.value.clause == "quotients"
    assert "share a class" in str(exc.value)


def test_decompose_with_a_letter_generator():
    A = Alphabet.of("ab")
    ext = ExtendedAlphabet(A, ("x",))
    _, phi_dfa = formula_dfa(parse("P[a](x)"), A, ("x",), 5)
    ba = quotient_closure([phi_dfa, image_dfa(ext)])
    dd = decompose(ba, ext)
    assert len(dd.t_blocks) == 2  # the a-marked and b-marked classes split
    # classify letters directly
    xa = marked_class_word(dd, ("a",), 1)
    xb = marked_class_word(dd, ("b",), 1)
    assert xa != xb


# ---------------------------------------------------------------------------
# the pairing morphism and its formula


def eta_setup(nv_name="U1", symbols="ab", body="P[a](x)"):
    A = Alphabet.of(symbols)
    ext = ExtendedAlphabet(A, ("x",))
    _, phi_dfa = formula_dfa(parse(body), A, ("x",), 5)
    ba = quotient_closure([phi_dfa, image_dfa(ext)])
    dd = decompose(ba, ext)
    etaq = eta_quotient(dd, named_monoid(nv_name))
    return dd, etaq


def test_eta_with_trivial_target_collapses_to_the_plain_part():
    dd, etaq = eta_setup("trivial")
    assert len(etaq.s_mon) == 1
    assert len(etaq.nu.pairs) == len(dd.m_mon)


def test_the_actions_are_checked_against_the_laws_on_request(monkeypatch):
    built = []
    monkeypatch.setattr(semidirect, "Biaction",
                        lambda **kw: built.append(kw) or Biaction(**kw))
    dd, etaq = eta_setup("Z3", body="E y. y < x & P[a](y)")
    h_morphism(etaq)
    assert built == []
    assert etaq.bia is etaq.bia and len(built) == 1
    # m.s for the last m and s, moved to another element of S
    m, s = len(dd.m_mon) - 1, len(etaq.s_mon) - 1
    row = etaq.ell[m][:s] + ((etaq.ell[m][s] + 1) % len(etaq.s_mon),)
    bad = dataclasses.replace(etaq, ell=etaq.ell[:m] + (row,))
    with pytest.raises(ParseError, match="does not distribute over S"):
        bad.bia


def test_the_letter_evaluation_cap_names_stage_and_size():
    dd, _ = eta_setup("Z3")
    assert len(dd.t_blocks) == 2
    with pytest.raises(CapExceeded) as exc:
        eta_quotient(dd, named_monoid("Z3"), Caps(hom_count=2))
    assert exc.value.info == {"stage": "letter evaluations", "size": 9,
                              "cap": "hom_count"}


def test_eta_letter_products_live_in_s():
    _, etaq = eta_setup("U1")
    s = s_of_letters(etaq, [0, 1, 0])
    assert 0 <= s < len(etaq.s_mon)


def test_h_of_the_empty_word_is_the_identity_pair():
    dd, etaq = eta_setup("U1")
    hm = h_morphism(etaq)
    s, m = hm.h(())
    assert s == etaq.s_mon.identity
    assert m == dd.m_mon.identity


def test_h_is_a_morphism_and_matches_the_letterwise_formula():
    dd, etaq = eta_setup("Z2")
    hm = h_morphism(etaq)
    assert check_h_formula(etaq, hm, enumerate_words(dd.ext.base, 5))
    mu = hm.stamp.mu
    words = list(enumerate_words(dd.ext.base, 3))
    for u in words:
        for v in words:
            assert mu(u + v) == hm.stamp.monoid.mul(mu(u), mu(v))


# ---------------------------------------------------------------------------
# the recognizer equivalence


@pytest.mark.parametrize("nv_name", ["trivial", "U1", "Z2", "Z3"])
def test_recognizer_on_the_letter_instance(nv_name):
    A = Alphabet.of("ab")
    ext = ExtendedAlphabet(A, ("x",))
    _, phi_dfa = formula_dfa(parse("P[a](x)"), A, ("x",), 5)
    ba = quotient_closure([phi_dfa, image_dfa(ext)])
    dd = decompose(ba, ext)
    report = verify_recognizer(dd, named_monoid(nv_name))
    assert report.passed, report.counterexample


def test_recognizer_on_the_one_letter_instance():
    ext, ba = marked_universe_algebra("a")
    dd = decompose(ba, ext)
    report = verify_recognizer(dd, named_monoid("Z2"))
    assert report.passed, report.counterexample


def class_transfer(dd, etaq, t_letter, accept):
    """The minimal automaton of the words whose class word, each marked
    ambient element read as its letter ``t_letter.get(m)``, multiplies in S
    to an element of ``accept``: the block product of the ambient stamp's
    Cayley automaton with S's."""
    b = Dfa(dd.pi.alphabet, dd.pi.rows, dd.pi.monoid.identity, frozenset())
    k = cayley_dfa(range(len(dd.t_blocks)), etaq.s_mon, etaq.ev, accept)
    return transfer_dfa(dd.base_symbols, b.delta, b.init,
                        [t_letter.get(m) for m in range(b.n)], k.delta,
                        k.init, k.accepting, Caps(), "transfer automaton")


def oracle_verify(dd, nv, hbound):
    """The cell-by-cell verifier that the product closure replaced, kept as
    the reference: one minimal automaton per pair-monoid element and per
    cell, the two sets compared as languages, then every letter quotient of
    every cell tested against the union of the cells it meets.  Returns the
    verdict and the stats."""
    etaq = eta_quotient(dd, nv)
    hm = h_morphism(etaq)
    stats = {"letters": len(dd.t_blocks), "evaluations": len(etaq.homs),
             "s_monoid": len(etaq.s_mon), "plain_monoid": len(dd.m_mon),
             "pair_monoid": len(hm.stamp.monoid)}
    if not check_h_formula(etaq, hm, enumerate_words(dd.ext.base, hbound)):
        return False, stats
    # minimal automata and products have only reachable states, so they
    # accept some word exactly when some state accepts
    left = set()
    for e in range(len(hm.stamp.monoid)):
        st_ = hm.stamp
        d = Dfa(st_.alphabet, st_.rows, st_.monoid.identity,
                frozenset([e])).minimize()
        if d.accepting:
            left.add(d)
    tau_pre = [class_transfer(dd, etaq, dd.t_letter, [sp])
               for sp in range(len(etaq.s_mon))]
    m_pre = [cayley_dfa(dd.base_symbols, dd.m_mon, dd.p_img,
                        [dd.m_index[m] for m in b]).minimize()
             for b in dd.d0_blocks]
    right = set()
    for dt in tau_pre:
        for dm in m_pre:
            cell = dt.intersect(dm).minimize()
            if cell.accepting:
                right.add(cell)
    stats["left_atoms"] = len(left)
    stats["right_cells"] = len(right)
    if left != right:
        return False, stats
    for cell in right:
        for a in dd.base_symbols:
            for quot in (left_quotient(cell, (a,)), right_quotient(cell, (a,))):
                parts = [c for c in right if c.intersect(quot).accepting]
                union = empty_dfa(quot.alphabet)
                for c in parts:
                    union = union.union(c)
                if quot.difference(union) is not None:
                    return False, stats
    return True, stats


#: the one-property families of the recognizer benchmark, by the formula
#: of the marked position x; each is closed with the set of marked words
PROPERTIES = ("P[c](x)", "E y. y < x & P[c](y)", "E1 y. y < x & P[c](y)",
              "mod[2,0] y. y < x & P[c](y)", "mod[2,1] y. y < x & P[c](y)",
              "E y. x < y & P[c](y)", "E y. R[succ](x,y) & P[c](y)",
              "P[c](x) & R[last](x)", "R[first](x)", "R[last](x)",
              "mod[2,0] y. y < x", "mod[2,1] y. y < x")
TARGETS = ("trivial", "U1", "Z2", "Z3")


def family(text, symbols="ab"):
    A = Alphabet.of(symbols)
    ext, phi_dfa = formula_dfa(parse(text), A, ("x",), 5)
    return ext, decompose(quotient_closure([phi_dfa, image_dfa(ext)]), ext)


def test_the_recognizer_path_makes_no_numpy_call(monkeypatch):
    """Every table on the path is generated (``_cayley``) and of at most
    ``LIGHT_CHECK_LIMIT`` elements, so ``FinMonoid`` proves it in plain
    Python; this family's pair monoid under Z3 has 39."""
    ext, phi_dfa = formula_dfa(parse("E1 y. y < x & P[b](y)"), Alphabet.of("ab"), ("x",), 5)
    gens, z3 = [phi_dfa, image_dfa(ext)], named_monoid("Z3")

    def numpy_call(*args):
        raise AssertionError("the recognizer path called numpy")
    monkeypatch.setattr(regular, "int_array", numpy_call)
    monkeypatch.setattr(regular, "_assert_associative", numpy_call)
    report = verify_recognizer(decompose(quotient_closure(gens), ext), z3)
    assert report.passed and report.stats["pair_monoid"] == 39


def merged_plain_blocks(dd):
    """The decomposition with its first two plain-part classes merged."""
    b0, b1 = dd.d0_blocks[:2]
    return dataclasses.replace(dd, d0_blocks=(b0 | b1,) + dd.d0_blocks[2:])


@pytest.mark.parametrize("text", PROPERTIES)
def test_recognizer_verdict_and_stats_match_the_cell_by_cell_oracle(text):
    letters = "ab" if "[c]" in text else "a"
    for c, nv_name in itertools.product(letters, TARGETS):
        _, dd = family(text.replace("[c]", f"[{c}]"))
        nv = named_monoid(nv_name)
        report = verify_recognizer(dd, nv)
        assert (report.passed, report.stats) == oracle_verify(dd, nv, 4), \
            (c, nv_name, report.counterexample)
        assert report.passed, (c, nv_name, report.counterexample)
        if len(dd.d0_blocks) > 1:
            bad = merged_plain_blocks(dd)
            report = verify_recognizer(bad, nv)
            assert (report.passed, report.stats) == oracle_verify(bad, nv, 4), \
                (c, nv_name, report.counterexample)


@pytest.mark.parametrize("text", PROPERTIES)
def test_class_word_resolves_every_position_as_marked_class_word(text):
    for c in ("ab" if "[c]" in text else "a"):
        _, dd = family(text.replace("[c]", f"[{c}]"))
        base = dd.ext.base
        for w in enumerate_words(base, 4):
            want = (tuple(marked_class_word(dd, w, i)
                          for i in range(1, len(w) + 1)),
                    dd.m_mon.prod(dd.p_img[base.index(a)] for a in w))
            assert class_word(dd, w) == want, (c, w)


@pytest.mark.parametrize("text", PROPERTIES)
def test_induced_actions_are_the_letter_actions_along_any_word(text):
    for c, nv_name in itertools.product("ab" if "[c]" in text else "a", TARGETS):
        _, dd = family(text.replace("[c]", f"[{c}]"))
        etaq = eta_quotient(dd, named_monoid(nv_name))
        k = len(dd.t_blocks)
        for w in itertools.chain.from_iterable(
                itertools.product(range(k), repeat=n) for n in range(5)):
            s = s_of_letters(etaq, w)
            for m in range(len(dd.m_mon)):
                lw = [dd.left_letter[m][x] for x in w]
                rw = [dd.right_letter[x][m] for x in w]
                assert etaq.ell[m][s] == s_of_letters(etaq, lw), (c, nv_name, w)
                assert etaq.err[s][m] == s_of_letters(etaq, rw), (c, nv_name, w)


def test_unknown_monoid_and_suite_names_are_parse_errors():
    with pytest.raises(ParseError, match="unknown monoid name 'Q8'"):
        named_monoid("Q8")
    with pytest.raises(ParseError, match="unknown suite 'nosuch'"):
        run_suite("nosuch", Alphabet.of("ab"), 3, 0)


def witness_words(report, ext):
    u, v = re.match(r"(\S+) and (\S+) share", report.counterexample).groups()
    return parse_word(u, ext.base.symbols), parse_word(v, ext.base.symbols)


def cell_of(dd, etaq, word):
    """(S-element of the class word, plain-part class) of a word."""
    letters, m = class_word(dd, word)
    block = next(j for j, b in enumerate(dd.d0_blocks) if dd.m_elems[m] in b)
    return s_of_letters(etaq, letters), block


def test_merged_plain_classes_fail_with_a_replayable_witness():
    ext, dd = family("P[a](x) & R[last](x)")
    assert len(dd.d0_blocks) == 2
    bad = merged_plain_blocks(dd)
    report = verify_recognizer(bad, named_monoid("Z3"))
    assert not report.passed
    assert "share a cell but lie in different pair-morphism classes" \
        in report.counterexample
    u, v = witness_words(report, ext)
    etaq = eta_quotient(bad, named_monoid("Z3"))
    hm = h_morphism(etaq)
    assert hm.h(u) != hm.h(v)
    assert cell_of(bad, etaq, u) == cell_of(bad, etaq, v)


def formula_word(report, ext):
    """The word of a report that h and its defining formula disagree on."""
    w = re.match(r"the pair morphism sends (\S+) to", report.counterexample)
    return parse_word(w.group(1), ext.base.symbols)


def test_a_changed_letter_evaluation_fails_with_a_replayable_witness():
    ext, dd = family("E1 y. y < x & P[a](y)")
    # the marked letter a alone gets the class letter of another marked
    # element: h and the class words both read the change, but h extends it
    # through the actions on S, which the change leaves as they were
    q = dd.q_img[0]
    other = next(x for x in range(len(dd.t_blocks)) if x != dd.t_letter[q])
    bad = dataclasses.replace(dd, t_letter={**dd.t_letter, q: other})
    nv = named_monoid("Z2")
    report = verify_recognizer(bad, nv)
    assert not report.passed
    assert oracle_verify(bad, nv, 4)[0] is False
    # h is no function of the transfer automaton's state here, so the
    # recognizer product outgrows that automaton and meets the cap alone
    verify_recognizer(bad, nv, Caps(dfa_states=14))
    with pytest.raises(CapExceeded) as exc:
        verify_recognizer(bad, nv, Caps(dfa_states=13))
    assert exc.value.info == {"stage": "recognizer product automaton", "cap": 13}
    w = formula_word(report, ext)
    etaq = eta_quotient(bad, nv)
    hm = h_morphism(etaq)
    assert check_h_formula(etaq, hm, enumerate_words(ext.base, len(w) - 1))
    assert not check_h_formula(etaq, hm, [w])


@pytest.mark.parametrize("text, target, m, m2", [
    ("E1 y. y < x & P[a](y)", "Z3", 1, 2),
    ("mod[2,1] y. y < x & P[b](y)", "Z2", 1, 0),
    ("mod[2,0] y. y < x", "U1", 1, 0)])
def test_a_changed_plain_action_on_s_fails_with_a_replayable_witness(
        monkeypatch, text, target, m, m2):
    ext, dd = family(text)
    nv = named_monoid(target)
    good = eta_quotient(dd, nv)
    real = semidirect._evaluations

    def changed(*args):
        homs, evs, gathers, cap = real(*args)

        def changed_gathers():
            lefts, rights = gathers()
            return lefts[:m] + [lefts[m2]] + lefts[m + 1:], rights
        return homs, evs, changed_gathers, cap

    # m acts on S from the left as m2 does: h reads the changed action, the
    # class words do not, and the pair product stays associative here, so
    # h is still built
    assert good.ell[m] != good.ell[m2]
    monkeypatch.setattr(semidirect, "_evaluations", changed)
    bad = eta_quotient(dd, nv)
    assert bad.ell == good.ell[:m] + (good.ell[m2],) + good.ell[m + 1:]
    report = verify_recognizer(dd, nv)
    assert not report.passed
    w = formula_word(report, ext)
    hm = h_morphism(bad)
    assert check_h_formula(bad, hm, enumerate_words(ext.base, len(w) - 1))
    assert not check_h_formula(bad, hm, [w])


def test_h_is_checked_on_words_past_any_length_bound(monkeypatch):
    ext, dd = family("E1 y. y < x & P[a](y)")
    nv = named_monoid("Z3")
    real, wrong = semidirect._pair_stamp, []

    def wrong_at_e(*args):
        # wrong only at the element with the longest shortest word
        stamp, pair_of = real(*args)
        e = max(range(len(pair_of)), key=lambda i: len(stamp.reps[i]))
        wrong.append(e)
        return stamp, pair_of[:e] + (pair_of[0],) + pair_of[e + 1:]

    monkeypatch.setattr(semidirect, "_pair_stamp", wrong_at_e)
    etaq = eta_quotient(dd, nv)
    bad = h_morphism(etaq)
    e = wrong[0]
    assert len(bad.stamp.reps[e]) > 4
    assert check_h_formula(etaq, bad, enumerate_words(ext.base, 4))
    report = verify_recognizer(dd, nv)
    assert not report.passed and wrong == [e, e]
    assert verify_recognizer(dd, nv, hbound=4).to_dict() == report.to_dict()
    w = formula_word(report, ext)
    assert w == bad.stamp.reps[e]
    assert not check_h_formula(etaq, bad, [w])


def test_a_pair_product_outside_s_is_refused_with_its_stage(monkeypatch):
    _, dd = family("E1 y. y < x & P[a](y)")
    real = semidirect._evaluations

    def constant(*args):
        # m.s is the constant vector of s at the last evaluation, which maps
        # every letter to 2 in Z3: no S-element but the identity is constant
        homs, evs, gathers, cap = real(*args)
        last = [[len(homs) - 1] * len(homs)] * len(dd.m_mon)
        return homs, evs, lambda: (last, list(gathers())[1]), cap

    monkeypatch.setattr(semidirect, "_evaluations", constant)
    with pytest.raises(InvariantViolated, match="pair product leaves S") as exc:
        verify_recognizer(dd, named_monoid("Z3"))
    assert exc.value.info == {"stage": "pair monoid"}


def test_eta_quotient_stops_before_the_product_passes_its_cap():
    from wordlogic import CapExceeded, Caps

    A = Alphabet.of("ab")
    ext = ExtendedAlphabet(A, ("x",))
    gens = [formula_dfa(parse(text), A, ("x",), 5)[1]
            for text in ("R[last](x)", "E1 y. y < x & P[a](y)")]
    dd = decompose(quotient_closure(gens + [image_dfa(ext)]), ext)
    assert len(dd.m_mon) == 4
    # S has 729 elements here; |S x M| may hold at most 1024 // 4 of them
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        eta_quotient(dd, named_monoid("Z3"), Caps())
    assert time.perf_counter() - t0 < 5.0
    assert "sdp_elements" in str(exc.value)
    assert exc.value.info["cap"] == 1024 // 4


def test_verify_recognizer_takes_caps_only_from_its_argument(monkeypatch):
    monkeypatch.delenv("WORDLOGIC_CAPS", raising=False)
    family = _recognizer_instances(Alphabet.of("ab"), DEFAULT_REGISTRY, 5, Caps())
    gens, ext, ba = list(family)[1]
    assert gens == [LetterPred("a", "x")]
    dd = decompose(ba, ext)
    report = verify_recognizer(dd, named_monoid("Z3"))
    assert report.passed
    monkeypatch.setenv("WORDLOGIC_CAPS", "sdp_elements=4")
    assert verify_recognizer(dd, named_monoid("Z3")).to_dict() == report.to_dict()
    with pytest.raises(CapExceeded, match="evaluation monoid S .* cap of 4"):
        verify_recognizer(dd, named_monoid("Z3"), Caps(sdp_elements=4))


TWO_PROPERTY_FAMILIES = [
    ("E y. (y < x & P[a](y))", "E y. (x < y & P[b](y))"),
    ("P[a](x)", "R[last](x)"),
    ("E y. (R[succ](x,y) & P[a](y))", "P[b](x) & R[last](x)"),
]


def two_property_families():
    """Per family: the automata of its two properties and of the marked
    words, as ``_recognizer_instances`` builds its families."""
    A = Alphabet.of("ab")
    ext = ExtendedAlphabet(A, ("x",))
    return ext, [[formula_dfa(parse(text), A, ("x",), 5)[1] for text in texts]
                 + [image_dfa(ext)] for texts in TWO_PROPERTY_FAMILIES]


def test_verify_recognizer_never_builds_s_times_m(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("S ** M, a biaction, eta_quotient or h_morphism "
                             "was called")

    for name in ("sdp", "Biaction", "eta_quotient", "h_morphism"):
        monkeypatch.setattr(semidirect, name, refuse)
    cases = [(ba, ext, target) for _, ext, ba in _recognizer_instances(
                 Alphabet.of("ab"), DEFAULT_REGISTRY, 5, Caps())
             for target in ("trivial", "U1", "Z2", "Z3")]
    ext, families = two_property_families()
    cases += [(quotient_closure(dfas), ext, "Z3") for dfas in families]
    assert len(cases) == 23
    for ba, ext, target in cases:
        report = verify_recognizer(decompose(ba, ext), named_monoid(target))
        assert report.passed, (target, report.counterexample)


def test_two_property_families_verify_within_budget():
    ext, families = two_property_families()
    t0 = time.perf_counter()
    for dfas in families:
        dd = decompose(quotient_closure(dfas), ext)
        assert verify_recognizer(dd, named_monoid("Z3")).passed
    assert time.perf_counter() - t0 < 2.0


def test_the_pair_monoid_is_numbered_as_inside_s_times_m():
    dd, etaq = eta_setup("Z3", body="E y. y < x & P[a](y)")
    hm = h_morphism(etaq)
    nu = etaq.nu
    gens = [(a, nu.index[hm.pair_of[g]])
            for a, g in zip(dd.base_symbols, hm.stamp.letters)]
    elems, _, mon, reps = generate_monoid(nu.monoid.identity, gens,
                                          nu.monoid.mul)
    assert tuple(nu.pairs[e] for e in elems) == hm.pair_of
    assert mon.table == hm.stamp.monoid.table and reps == hm.stamp.reps


# ---------------------------------------------------------------------------
# compiling one quantifier layer


def compiled(q_name, body_text, symbols="ab", bound=5):
    A = Alphabet.of(symbols)
    reg = DEFAULT_REGISTRY
    quant = reg.quantifier(q_name)
    ext, body = formula_dfa(parse(body_text), A, ("x",), bound)
    return A, compile_layer(quant, body, ext)


def test_compile_exists_gives_contains_a():
    A, dfa = compiled("E", "P[a](x)")
    assert dfa.n == 2
    hand = Dfa(A.symbols, ((1, 0), (1, 1)), 0, frozenset({1}))
    assert dfa.difference(hand) is None


def test_compile_parity_gives_the_two_state_counter():
    A, dfa = compiled("mod[2,0]", "P[a](x)")
    assert dfa.n == 2
    hand = Dfa(A.symbols, ((1, 0), (0, 1)), 0, frozenset({0}))
    assert dfa.difference(hand) is None


def test_compile_with_true_body_filters_by_length():
    A, dfa = compiled("mod[3,1]", "1", symbols="ab")
    reg = DEFAULT_REGISTRY
    phi = Quant("mod[3,1]", "x", parse("1"))
    for w in enumerate_words(A, 8):
        assert dfa.accepts(w) == satisfies(MarkedWord(w, ()), phi, reg)


def test_compile_agrees_with_satisfaction_pointwise():
    reg = DEFAULT_REGISTRY
    A = Alphabet.of("ab")
    for q_name, body in [("E", "P[a](x) & ~R[first](x)"),
                         ("E1", "P[b](x)"),
                         ("mod[2,1]", "E y. y < x & P[a](y)")]:
        ext, bdfa = formula_dfa(parse(body), A, ("x",), 5)
        dfa = compile_layer(reg.quantifier(q_name), bdfa, ext)
        phi = Quant(q_name, "x", parse(body))
        for w in enumerate_words(A, 6):
            assert dfa.accepts(w) == satisfies(MarkedWord(w, ()), phi, reg), \
                (q_name, body, w)


def test_no_layer_builds_a_syntactic_stamp(monkeypatch):
    built = []
    check = regular.Stamp.__post_init__
    monkeypatch.setattr(regular.Stamp, "__post_init__",
                        lambda stamp: built.append(stamp) or check(stamp))
    # "the last bit is 1" and "the last bit is 0": non-commuting bit images
    reg = registry_from_json({"quantifiers": [
        LASTBIT, {**LASTBIT, "name": "lastzero", "accept": [1]}]})
    A = Alphabet.of("ab")
    text = "P[a](x) & E y. (y < x & P[b](y))"
    ext, body = formula_dfa(parse(text), A, ("x",), 6)
    quants = [reg.quantifier(q) for q in MONOID_QUANTIFIERS + ("lastbit", "lastzero")]
    assert any(q.commutes for q in quants) and not all(q.commutes for q in quants)
    layer = [compile_layer(q, body, ext) for q in quants]
    formula_dfa(parse(f"lastbit x. {text}", reg), A, (), 0, reg)
    assert built == []
    for q, dfa in zip(quants, layer):
        phi = Quant(q.name, "x", parse(text))
        for w in enumerate_words(A, 6):
            assert dfa.accepts(w) == satisfies(MarkedWord(w, ()), phi, reg)


def test_a_class_without_a_letter_is_refused():
    dd, etaq = eta_setup("Z2")
    class_transfer(dd, etaq, dd.t_letter, ())
    for missing in dd.t_elems:
        partial = {t: x for t, x in dd.t_letter.items() if t != missing}
        with pytest.raises(InvariantViolated, match="no label") as exc:
            class_transfer(dd, etaq, partial, ())
        assert exc.value.info == {"stage": "transfer automaton"}
    # the recognizer check refuses it too, past h, which reads only the
    # classes of the marked letters alone
    _, dd = family("E1 y. y < x & P[a](y)")
    for missing in set(dd.t_elems) - set(dd.q_img):
        partial = {t: x for t, x in dd.t_letter.items() if t != missing}
        bad = dataclasses.replace(dd, t_letter=partial)
        with pytest.raises(InvariantViolated, match="no label") as exc:
            verify_recognizer(bad, named_monoid("Z2"))
        assert exc.value.info == {"stage": "transfer automaton"}


#: seconds one quantifier layer of a random 3-state body may take
LAYER_BUDGET_S = 0.1


def test_random_three_state_bodies_compile_within_the_budget():
    reg = registry_from_json({"quantifiers": [LASTBIT]})
    mod, lastbit = reg.quantifier("mod[4,1]"), reg.quantifier("lastbit")
    ab = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    # the body the pair-of-contexts transfer took 7-9 s on under mod[4,1]
    rng = random.Random(58)
    cases = [(ab, random_body(rng, ab, rng.randint(1, 3)))]
    assert cases[0][1].n == 3
    rng = random.Random(3)
    for letters in ("ab", "abc"):
        ext = ExtendedAlphabet(Alphabet.of(letters), ("x",))
        cases += [(ext, random_body(rng, ext, 3)) for _ in range(40)]
    for ext, body in cases:
        k = len(ext.base)
        for q in (mod, lastbit):
            start = time.perf_counter()
            dfa = compile_layer(q, body, ext)
            assert time.perf_counter() - start < LAYER_BUDGET_S, (q.name, body)
            if q is mod:
                assert dfa == count_layer(q, body, ext.base.symbols)
                continue
            for n in range(7):
                for word in itertools.product(range(k), repeat=n):
                    state = dfa.init
                    for a in word:
                        state = dfa.delta[state][a]
                    assert (state in dfa.accepting) == \
                        layer_accepts(q, body, word), (body, word)


def test_oracle_quantifiers_do_not_compile_but_still_evaluate():
    reg = DEFAULT_REGISTRY
    A = Alphabet.of("ab")
    ext, bdfa = formula_dfa(parse("P[a](x)"), A, ("x",), 5)
    with pytest.raises(NotMonoidPresentable) as exc:
        compile_layer(reg.quantifier("maj"), bdfa, ext)
    assert exc.value.info.get("quantifier") == "maj"
    assert exc.value.code == "oracle-quantifier"
    assert satisfies(MarkedWord(("a", "a", "b"), ()),
                     parse("maj x. P[a](x)"), reg)


def test_a_body_over_another_alphabet_is_refused():
    # a body automaton over the base letters, not over ab x {x}
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    body = Dfa(("a", "b"), ((1, 0), (1, 1)), 0, frozenset({1}))
    with pytest.raises(ParseError, match="one-mark alphabet"):
        compile_layer(DEFAULT_REGISTRY.quantifier("E"), body, ext)


def test_a_body_over_a_two_mark_alphabet_is_refused():
    # the marked words with marks x and y, as a body over ab x 2^{x,y}
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x", "y"))
    with pytest.raises(ParseError, match="one-mark alphabet"):
        compile_layer(DEFAULT_REGISTRY.quantifier("E"), image_dfa(ext), ext)
