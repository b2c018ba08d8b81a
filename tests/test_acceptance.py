"""Acceptance gate: one check per shipped guarantee, each with a time budget.

Every test prints a single [PASS] line (visible with -s or in captured
output) naming the criterion and the measured wall time.
"""

import itertools
import random
import time

import pytest

from wordlogic import (
    Alphabet,
    DEFAULT_REGISTRY,
    ExtendedAlphabet,
    MarkedWord,
    NotMonoidPresentable,
    Quant,
    decompose,
    finba,
    formula_dfa,
    gamma_q,
    parse,
    satisfies,
    sdp,
    verify_recognizer,
)
from wordlogic.caps import Caps
from wordlogic.layers import FragmentSpec, check_fragment_against_direct
from wordlogic.regular import (FinMonoid, image_dfa, named_monoid,
                               syntactic_stamp)
from wordlogic.sampling import (
    MONOID_QUANTIFIERS,
    random_atom_sentence,
    random_delta,
    random_formula,
)
from wordlogic.semidirect import Biaction, compile_layer
from wordlogic.substitution import (
    check_substitution_principle,
    delta_algebra,
    tau_compat,
    xi,
)
from wordlogic.suites import _recognizer_instances
from wordlogic.varcode import lift_delta, roundtrip_check
from wordlogic.words import decode_marks, encode_marks, enumerate_marked, \
    enumerate_words

from conftest import delta_ba


def _done(number, name, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s " \
                                 f"(budget {budget}s)"
    extra = f", budget {budget:g}s" if budget is not None else ""
    print(f"[PASS] criterion-{number} {name} ({elapsed:.2f}s{extra})")


# ---------------------------------------------------------------------------


def test_criterion_1_marked_universe_monoid():
    t0 = time.perf_counter()
    for syms in ("a", "ab"):
        ext = ExtendedAlphabet(Alphabet.of(syms), ("x",))
        stamp = syntactic_stamp(image_dfa(ext))
        mon = stamp.monoid
        assert len(mon) == 3
        e = mon.identity
        marked = [s for s in ext.symbols if ext.split(s)[1]]
        m = stamp.letter(marked[0])
        z = mon.mul(m, m)
        assert len({e, m, z}) == 3
        for sym in ext.symbols:
            assert stamp.letter(sym) == (m if ext.split(sym)[1] else e)
        for x in range(3):
            assert mon.mul(z, x) == z == mon.mul(x, z)
            for y in range(3):
                assert mon.mul(x, y) == mon.mul(y, x)
        assert stamp.accepting == frozenset({m})
    _done(1, "marked-universe syntactic monoid", t0, budget=1.0)


def test_criterion_2_substitution_principle():
    t0 = time.perf_counter()
    rng = random.Random(20260821)
    reg = DEFAULT_REGISTRY
    for i in range(50):
        A = Alphabet.of(rng.choice(["a", "ab"]))
        delta = random_delta(rng, A, bound=6, max_atoms=3, registry=reg)
        assert delta.atom_count <= 3
        qs = tuple(rng.sample(MONOID_QUANTIFIERS, k=rng.randint(1, 2)))
        if i % 2:
            psi = random_atom_sentence(rng, delta.atom_alphabet(),
                                       quantifiers=qs, depth=2)
        else:
            gens = list(gamma_q(qs).generator(
                Alphabet.of(delta.atom_alphabet())))
            psi = rng.choice(gens)
        report = check_substitution_principle(delta, psi, bound=6,
                                              registry=reg)
        assert report.passed, (i, report.counterexample)
    _done(2, "substitution principle, 50 random instances", t0, budget=3.0)


def test_criterion_3_encoding_roundtrip():
    t0 = time.perf_counter()
    rng = random.Random(31415)
    reg = DEFAULT_REGISTRY
    for i in range(50):
        A = Alphabet.of(rng.choice(["a", "ab"]))
        phi = random_formula(rng, A, context=("x",), depth=2,
                             quantifiers=("E", "E1"))
        report = roundtrip_check(phi, ("x",), A, bound=5, registry=reg)
        assert report.passed, (i, report.counterexample)
    _done(3, "variable-encoding roundtrip, 50 random formulas", t0,
          budget=3.0)


def test_criterion_4_lifted_atoms_are_encoded_atoms_plus_junk():
    t0 = time.perf_counter()
    rng = random.Random(271828)
    reg = DEFAULT_REGISTRY
    bound = 4
    for i in range(20):
        A = Alphabet.of(rng.choice(["a", "ab"]))
        delta = random_delta(rng, A, bound=bound, max_atoms=3, registry=reg)
        lift = lift_delta(delta.generators, "x", ("y",), A, bound=bound,
                          registry=reg, check=False)
        ext = ExtendedAlphabet(A, ("y",))
        assert lift.lifted.atom_count == delta.atom_count + 1
        # embedded points are classified exactly like their sources
        for mw in enumerate_marked(A, ("x", "y"), bound):
            src = [k for k, f in enumerate(lift.source_atom_formulas)
                   if satisfies(mw, f, reg)]
            assert len(src) == 1
            image = encode_marks(mw, ("y",), ext=ext)
            assert xi(lift.lifted, image) == lift.zeta[src[0]]
        # everything off the embedded image is the one extra atom
        for mw in enumerate_marked(lift.lifted.alphabet, ("x",), bound):
            if decode_marks(mw.word, ext, strict=False) is None:
                assert xi(lift.lifted, mw) == lift.junk_atom
    _done(4, "lifted atom partition, 20 random algebras", t0, budget=3.0)


def test_criterion_5_tower_compatibility():
    t0 = time.perf_counter()
    rng = random.Random(1618)
    reg = DEFAULT_REGISTRY
    for i in range(20):
        A = Alphabet.of(rng.choice(["a", "ab"]))
        f1 = random_formula(rng, A, context=("x",), depth=1)
        f2 = random_formula(rng, A, context=("x",), depth=1)
        f3 = random_formula(rng, A, context=("x",), depth=2)
        d1 = delta_algebra(A, "x", [f1], bound=6, registry=reg)
        d2 = delta_algebra(A, "x", [f1, f2], bound=6, registry=reg)
        d3 = delta_algebra(A, "x", [f1, f2, f3], bound=6, registry=reg)
        gamma = gamma_q((rng.choice(("E", "mod[2,0]")),))
        for lo, hi in ((d1, d2), (d2, d3), (d1, d3)):
            report = tau_compat(gamma, lo, hi, bound=6, registry=reg)
            assert report.passed, (i, report.counterexample)
        b1, b2, b3 = map(delta_ba, (d1, d2, d3))
        z21 = finba.dual_of_inclusion(b1, b2)
        z32 = finba.dual_of_inclusion(b2, b3)
        z31 = finba.dual_of_inclusion(b1, b3)
        assert all(z21[z32[k]] == z31[k] for k in range(len(z32)))
    _done(5, "tower compatibility, 20 random chains", t0, budget=3.0)


def test_criterion_6_recognizer_equivalence():
    t0 = time.perf_counter()
    reg = DEFAULT_REGISTRY
    caps = Caps()
    nv_names = itertools.cycle(["trivial", "U1", "Z2", "Z3"])
    count = 0
    for syms in ("a", "ab"):
        A = Alphabet.of(syms)
        for gens, ext, ba in _recognizer_instances(A, reg, 5, caps):
            nv = named_monoid(next(nv_names))
            dd = decompose(ba, ext, caps)
            report = verify_recognizer(dd, nv, caps)
            assert report.passed, (syms, count, report.counterexample)
            count += 1
    assert count >= 10
    _done(6, f"recognizer equivalence, {count} instances", t0, budget=3.0)


def test_criterion_7_layer_compilation_matches_semantics():
    t0 = time.perf_counter()
    reg = DEFAULT_REGISTRY
    A = Alphabet.of("ab")
    for q_index, q_name in enumerate(MONOID_QUANTIFIERS):
        quant = reg.quantifier(q_name)
        rng = random.Random(9000 + q_index)
        done = 0
        while done < 30:
            body = random_formula(rng, A, context=("x",),
                                  depth=rng.randint(1, 2),
                                  quantifiers=("E", "E1"))
            ext, bdfa = formula_dfa(body, A, ("x",), 7, reg)
            dfa = compile_layer(quant, bdfa, ext)
            phi = Quant(q_name, "x", body)
            for w in enumerate_words(A, 7):
                assert dfa.accepts(w) == satisfies(MarkedWord(w, ()), phi,
                                                   reg), (q_name, body, w)
            done += 1
    _done(7, "layer compilation, 5 quantifiers x 30 formulas", t0,
          budget=10.0)


def test_criterion_8_fragments_match_direct_enumeration():
    t0 = time.perf_counter()
    for syms in ("a", "ab"):
        for qs in (("E",), ("E", "mod[2,0]")):
            for depth in (1, 2):
                spec = FragmentSpec(Alphabet.of(syms), qs, depth=depth,
                                    bound=6)
                report = check_fragment_against_direct(spec)
                assert report.passed, (syms, qs, depth,
                                       report.counterexample)
    _done(8, "depth fragments vs direct enumeration, 8 specs", t0,
          budget=1.0)


def test_criterion_9_algebraic_laws_and_oracle_quantifiers():
    t0 = time.perf_counter()
    reg = DEFAULT_REGISTRY

    def monoid_laws(mon):
        n = len(mon)
        e = mon.identity
        for x in range(n):
            assert mon.mul(e, x) == x == mon.mul(x, e)
            for y in range(n):
                for z in range(n):
                    assert mon.mul(mon.mul(x, y), z) == \
                        mon.mul(x, mon.mul(y, z))

    monoids = [named_monoid(n) for n in ("trivial", "U1", "Z2", "Z3")]
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    monoids.append(syntactic_stamp(image_dfa(ext)).monoid)
    for mon in monoids:
        monoid_laws(mon)
        FinMonoid(mon.table, mon.identity)  # re-validates on construction

    # a two-sided product with its action tables re-validated
    z2 = named_monoid("Z2")
    u1 = named_monoid("U1")
    bia = Biaction(mmon=z2, smon=u1,
                   left=tuple(tuple(range(2)) for _ in range(2)),
                   right=tuple((s, s) for s in range(2)))
    Biaction(mmon=bia.mmon, smon=bia.smon, left=bia.left, right=bia.right)
    prod = sdp(u1, z2, bia)
    monoid_laws(prod.monoid)

    # the majority quantifier refuses to compile but still evaluates
    _, bdfa = formula_dfa(parse("P[a](x)"), Alphabet.of("ab"), ("x",), 5,
                          reg)
    with pytest.raises(NotMonoidPresentable) as exc:
        compile_layer(reg.quantifier("maj"), bdfa, ext)
    assert exc.value.code == "oracle-quantifier"
    assert exc.value.info.get("quantifier") == "maj"
    assert satisfies(MarkedWord(("a", "a", "b"), ()),
                     parse("maj x. P[a](x)"), reg)
    _done(9, "algebraic law checks and oracle quantifier handling", t0)
