"""Seeded invariant suites behind the ``verify`` command.

Each suite replays a deterministic batch of property checks for one module
and returns a list of reports; a failing report carries a replayable
witness (serialized word and formula).
"""

from __future__ import annotations

import random

from . import finba
from .caps import DEFAULT, Caps
from .errors import NotMonoidPresentable, ParseError
from .logic import (DEFAULT_REGISTRY, LetterPred, NumPred, Quant, TRUE, conj,
                    formula_dfa, marked_truth, parse, relabel, satisfies, to_dsl)
from .regular import image_dfa, named_monoid, quotient_closure
from .report import Report
from .sampling import (MONOID_QUANTIFIERS, random_atom_sentence, random_delta,
                       random_formula, random_sentence)
from .semidirect import (Biaction, compile_layer, decompose, pair_product,
                         sdp, verify_recognizer)
from .substitution import (SentenceClass, check_substitution_principle,
                           delta_algebra, tau_compat, tau_word, xi)
from .varcode import lift_delta, roundtrip_check
from .words import (Alphabet, ExtendedAlphabet, MarkedWord, decode_marks,
                    embed_marked, encode_marks, enumerate_marked,
                    enumerate_words, format_word, in_marked_image, parse_word)


def _report(check, params, bad, **stats):
    """A passing report when there is no witness ``bad``, else a failing one."""
    return Report(check, params, not bad, counterexample=bad or None, stats=stats)


# ---------------------------------------------------------------------------

def suite_words(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    A = Alphabet.of(alphabet)
    L = min(maxlen, 4)
    params = {"alphabet": list(A.symbols), "bound": L, "seed": seed}
    out = []

    ctx = ("x", "y")
    ext = ExtendedAlphabet(A, ctx)
    n = 0
    bad = None
    for mw in enumerate_marked(A, ctx, L, caps):
        n += 1
        emb = embed_marked(mw, ctx, ext=ext)
        back = decode_marks(emb, ext)
        if back != mw or not in_marked_image(emb, ext):
            bad = format_word(emb)
            break
        full = encode_marks(mw, ctx, ext=ext)
        if full.word != emb or full.marks != ():
            bad = format_word(emb)
            break
        half = encode_marks(mw, ("x",), base=A)
        if half.marks != (("y", mw.pos("y")),) \
                or half.word[mw.pos("x") - 1] != f"{mw.letter('x')}{{x}}":
            bad = str(mw)
            break
    out.append(_report("words-mark-codec", params, bad, words=n))

    rng = random.Random(seed)
    bad = None
    trials = 200
    for _ in range(trials):
        k = rng.randrange(0, L + 1)
        word = tuple(rng.choice(ext.symbols) for _ in range(k))
        text = format_word(word)
        if parse_word(text, ext) != word:
            bad = text
            break
        marks_of = [v for v in ctx
                    for s in word if v in ext.split(s)[1]]
        expect = all(marks_of.count(v) == 1 for v in ctx)
        if in_marked_image(word, ext) != expect:
            bad = text
            break
    out.append(_report("words-parse-format", params, bad, trials=trials))
    return out


def suite_finba(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    A = Alphabet.of(alphabet)
    L = min(maxlen, 4)
    rng = random.Random(seed)
    carrier = tuple(enumerate_words(A, L, caps))
    params = {"alphabet": list(A.symbols), "bound": L, "seed": seed}
    out = []

    gens = [frozenset(w for w in carrier if rng.random() < 0.5)
            for _ in range(3)]
    ba = finba.generate(carrier, gens, caps)
    bad = None
    cover = set()
    for a in ba.atoms:
        if cover & a:
            bad = "atoms overlap"
        cover |= a
    if cover != set(carrier):
        bad = "atoms miss part of the carrier"
    for _ in range(50):
        m1 = rng.randrange(1 << len(ba.atoms))
        m2 = rng.randrange(1 << len(ba.atoms))
        e1, e2 = ba.element_from_mask(m1), ba.element_from_mask(m2)
        if ba.mask_of(e1 & e2) != m1 & m2 or ba.mask_of(e1 | e2) != m1 | m2:
            bad = f"mask homomorphism fails at {m1},{m2}"
            break
        full = (1 << len(ba.atoms)) - 1
        if ba.mask_of(frozenset(carrier) - e1) != full ^ m1:
            bad = f"complement fails at {m1}"
            break
    for g in gens:
        if not ba.member(g):
            bad = "generator not a member"
    out.append(_report("finba-laws", params, bad, atoms=len(ba.atoms)))

    small = finba.generate(carrier, gens[:1], caps)
    big = ba
    bad = None
    if not finba.is_subalgebra(small, big):
        bad = "one-generator algebra escaped the three-generator algebra"
    else:
        dual = finba.dual_of_inclusion(small, big)
        if not finba.check_adjunction(small, big, dual):
            bad = "dual surjection fails the adjunction"
    out.append(_report("finba-duality", params, bad,
                       small=len(small.atoms), big=len(big.atoms)))

    part1 = [frozenset(x) for x in finba.generate(carrier, gens[:1], caps).atoms]
    part2 = [frozenset(x) for x in finba.generate(carrier, gens[1:2], caps).atoms]
    ref = finba.common_refinement(carrier, [part1, part2], caps)
    direct = finba.generate(carrier, gens[:2], caps)
    ok = {frozenset(x) for x in ref.atoms} == {frozenset(x) for x in direct.atoms}
    out.append(_report("finba-refinement", params, None if ok else
                       "refinement of the atom partitions differs from the "
                       "jointly generated algebra", atoms=len(ref.atoms)))
    return out


def suite_logic(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    reg = registry or DEFAULT_REGISTRY
    A = Alphabet.of(alphabet)
    L = maxlen
    rng = random.Random(seed)
    params = {"alphabet": list(A.symbols), "bound": L, "seed": seed}
    out = []

    bad = None
    trials = 60
    for _ in range(trials):
        phi = random_formula(rng, A, ("x",), depth=rng.choice((1, 2, 3)),
                             quantifiers=MONOID_QUANTIFIERS, registry=reg)
        text = to_dsl(phi)
        if to_dsl(parse(text, reg)) != text:
            bad = text
            break
    out.append(_report("logic-dsl-roundtrip", params, bad, trials=trials))

    bad = None
    counts = {"E": lambda c, n: c >= 1, "E1": lambda c, n: c == 1,
              "mod[2,0]": lambda c, n: c % 2 == 0,
              "mod[2,1]": lambda c, n: c % 2 == 1,
              "mod[3,0]": lambda c, n: c % 3 == 0,
              "maj": lambda c, n: c > n - c}
    for name, oracle in counts.items():
        q = reg.quantifier(name)
        for _ in range(80):
            bits = tuple(rng.random() < 0.5 for _ in range(rng.randrange(8)))
            if q.evaluate(bits) != oracle(sum(bits), len(bits)):
                bad = f"{name} on {''.join('1' if b else '0' for b in bits)}"
                break
        if bad:
            break
    out.append(_report("logic-quantifier-count", params, bad, quantifiers=len(counts)))

    B = Alphabet.of(tuple(A.symbols) + ("q",))
    zeta = {b: (b if b in A.symbols else A.symbols[0]) for b in B.symbols}
    trials = 12
    lb = min(L, 4)
    phis = [random_sentence(rng, A, depth=2, quantifiers=("E", "mod[2,0]"),
                            registry=reg) for _ in range(trials)]
    # the preimage reads each sentence at the relabeling of each word over B
    ids = {w: i for i, w in enumerate(enumerate_words(A, lb, caps))}
    image = marked_truth(phis, A, (), lb, reg)[
        :, [ids[tuple(zeta[c] for c in w)] for w in enumerate_words(B, lb, caps)]]
    lhs = marked_truth([relabel(zeta, phi) for phi in phis], B, (), lb, reg)
    bad = next((to_dsl(phi) for phi, got, want in zip(phis, lhs, image)
                if (got != want).any()), None)
    out.append(_report("logic-relabel-preimage", params, bad, trials=trials))

    bad = None
    trials = 10
    lb = max(min(L, 5), 4)
    for _ in range(trials):
        phi = random_formula(rng, A, ("x",), depth=2,
                             quantifiers=("E", "E1"), registry=reg)
        ext, dfa = formula_dfa(phi, A, ("x",), lb, reg, caps)
        for mw in enumerate_marked(A, ("x",), lb, caps):
            emb = embed_marked(mw, ("x",), ext=ext)
            if dfa.accepts(emb) != satisfies(mw, phi, reg):
                bad = f"{to_dsl(phi)} on {format_word(emb)}"
                break
        if bad:
            break
    out.append(_report("logic-formula-dfa", params, bad, trials=trials))
    return out


def suite_substitution(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    reg = registry or DEFAULT_REGISTRY
    A = Alphabet.of(alphabet)
    L = maxlen
    rng = random.Random(seed)
    params = {"alphabet": list(A.symbols), "bound": L, "seed": seed}
    out = []

    trials = 15
    bad = None
    for _ in range(trials):
        delta = random_delta(rng, A, "x", bound=L, max_atoms=3,
                             quantifiers=("E", "mod[2,0]"), registry=reg,
                             caps=caps)
        psi = random_atom_sentence(rng, delta.atom_alphabet().symbols,
                                   quantifiers=("E", "E1", "mod[2,0]"),
                                   depth=rng.choice((1, 2)), registry=reg)
        rep = check_substitution_principle(delta, psi, bound=L,
                                           registry=reg, caps=caps)
        if not rep.passed:
            bad = rep.counterexample
            break
    out.append(_report("substitution-principle", params, bad, trials=trials))

    delta = random_delta(rng, A, "x", bound=L, max_atoms=4,
                         quantifiers=("E",), registry=reg, caps=caps)
    bad = None
    n = 0
    for w in enumerate_words(A, min(L, 4), caps):
        n += 1
        t = tau_word(delta, w)
        if len(t) != len(w):
            bad = format_word(w)
            break
        for i in range(1, len(w) + 1):
            a = xi(delta, MarkedWord(w, (("x", i),)))
            if f"c{a}" != t[i - 1]:
                bad = format_word(w)
                break
        if bad:
            break
    out.append(_report("substitution-tau-pointwise", params, bad, words=n))

    gamma = SentenceClass(("E",))
    small = delta_algebra(A, "x", [LetterPred(A.symbols[0], "x")], bound=L,
                          registry=reg, caps=caps)
    big_gens = [LetterPred(a, "x") for a in A.symbols] \
        + list(small.generators)
    big = delta_algebra(A, "x", big_gens, bound=L, registry=reg, caps=caps)
    rep = tau_compat(gamma, small, big, bound=min(L, 5), registry=reg,
                     caps=caps)
    out.append(rep)
    return out


def suite_varcode(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    reg = registry or DEFAULT_REGISTRY
    A = Alphabet.of(alphabet)
    L = min(maxlen, 4)
    rng = random.Random(seed)
    params = {"alphabet": list(A.symbols), "bound": L, "seed": seed}
    out = []

    trials = 8
    bad = None
    for _ in range(trials):
        phi = random_formula(rng, A, ("x", "y"), depth=rng.choice((1, 2)),
                             quantifiers=("E", "E1"), registry=reg)
        rep = roundtrip_check(phi, ("x",), A, bound=L, registry=reg,
                              caps=caps)
        if not rep.passed:
            bad = rep.counterexample
            break
    out.append(_report("varcode-roundtrip", params, bad, trials=trials))

    bad = None
    trials = 4
    for _ in range(trials):
        gens = [random_formula(rng, A, ("x1", "x2"), depth=1,
                               quantifiers=("E",), registry=reg)
                for _ in range(2)]
        lift = lift_delta(gens, "x1", ("x2",), A, bound=L, registry=reg,
                          caps=caps, check=True)
        if lift.report is not None and not lift.report.passed:
            bad = lift.report.counterexample
            break
    out.append(_report("varcode-lift-square", params, bad, trials=trials))
    return out


def _recognizer_instances(A, reg, L, caps):
    """Quotient-closed algebras over the one-mark alphabet, from bounded
    languages of one-variable formulas (plus the all-marked-words language)."""
    ext = ExtendedAlphabet(A, ("x",))
    shapes = [
        [TRUE],
        [LetterPred(A.symbols[0], "x")],
        [NumPred("first", ("x",))],
        [Quant("E", "y", conj((NumPred("<", ("y", "x")),
                               LetterPred(A.symbols[-1], "y"))))],
        [LetterPred(A.symbols[0], "x"), NumPred("last", ("x",))],
    ]
    lb = max(L, 5)
    for gens in shapes:
        dfas = [formula_dfa(phi, A, ("x",), lb, reg, caps)[1] for phi in gens]
        dfas.append(image_dfa(ext))
        yield gens, ext, quotient_closure(dfas, caps)


def suite_semidirect(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    reg = registry or DEFAULT_REGISTRY
    A = Alphabet.of(alphabet)
    L = min(maxlen, 5)
    rng = random.Random(seed)
    params = {"alphabet": list(A.symbols), "bound": L, "seed": seed}
    out = []

    z2 = named_monoid("Z2")
    u1 = named_monoid("U1")
    nm, ns = len(z2), len(u1)
    bia = Biaction(mmon=z2, smon=u1,
                   left=tuple(tuple(range(ns)) for _ in range(nm)),
                   right=tuple(tuple(s for _ in range(nm))
                               for s in range(ns)))
    prod = sdp(u1, z2, bia)
    pair_mul = pair_product(u1, z2, bia.left, bia.right)
    bad = None
    for _ in range(40):
        p1 = rng.choice(prod.pairs)
        p2 = rng.choice(prod.pairs)
        via_table = prod.pairs[prod.monoid.mul(prod.index[p1],
                                               prod.index[p2])]
        if via_table != pair_mul(p1, p2):
            bad = f"{p1} * {p2}"
            break
    out.append(_report("semidirect-product-laws", params, bad, elements=len(prod.pairs)))

    count = 0
    for (gens, ext, ba), nv_name in zip(
            _recognizer_instances(A, reg, L, caps),
            ("U1", "Z2", "trivial", "Z3", "U1")):
        dd = decompose(ba, ext, caps)
        rep = verify_recognizer(dd, named_monoid(nv_name), caps)
        rep = Report(rep.check,
                     {**rep.params, "generators": [to_dsl(g) for g in gens],
                      "target": nv_name},
                     rep.passed, rep.counterexample, rep.stats)
        out.append(rep)
        count += 1

    bad = None
    trials = 10
    cb = max(min(L + 1, 6), 5)
    for _ in range(trials):
        qname = rng.choice(MONOID_QUANTIFIERS)
        body = random_formula(rng, A, ("x",), depth=rng.choice((1, 2)),
                              quantifiers=("E",), registry=reg)
        ext, body_dfa = formula_dfa(body, A, ("x",), cb, reg, caps)
        comp = compile_layer(reg.quantifier(qname), body_dfa, ext, caps)
        sent = Quant(qname, "x", body)
        for w in enumerate_words(A, cb, caps):
            if comp.accepts(w) != satisfies(MarkedWord(w, ()), sent, reg):
                bad = f"{to_dsl(sent)} on {format_word(w)}"
                break
        if bad:
            break
    out.append(_report("semidirect-compile-semantics", params, bad, trials=trials))

    bad = None
    maj = reg.quantifier("maj")
    phi = LetterPred(A.symbols[0], "x")
    ext, body_dfa = formula_dfa(phi, A, ("x",), 4, reg, caps)
    try:
        compile_layer(maj, body_dfa, ext, caps)
        bad = "oracle quantifier was compiled"
    except NotMonoidPresentable as exc:
        if exc.info.get("quantifier") != "maj":
            bad = "structured error lacks the quantifier name"
    if bad is None:
        sent = Quant("maj", "x", phi)
        w = tuple(A.symbols[0] for _ in range(3))
        if not satisfies(MarkedWord(w, ()), sent, reg):
            bad = "bounded evaluation of the oracle quantifier broke"
    out.append(_report("semidirect-oracle-rejection", params, bad))
    return out


def suite_layers(alphabet, maxlen, seed, registry=None, caps=DEFAULT):
    from .layers import (FragmentSpec, check_fragment_against_direct,
                         check_gamma_laws, check_monotone)
    A = Alphabet.of(alphabet)
    if len(A) > 2:
        A = Alphabet.of(A.symbols[:2])
    L = min(maxlen, 5)
    out = []
    merge = {s: A.symbols[0] for s in A.symbols}
    out.append(check_gamma_laws(("E", "mod[2,0]"), merge, bound=min(L, 4),
                                registry=registry, caps=caps))
    for qs, depth in ((("E",), 1), (("E", "mod[2,0]"), 2)):
        spec = FragmentSpec(A, qs, (), depth, L)
        out.append(check_fragment_against_direct(spec, registry, caps))
    out.append(check_monotone(FragmentSpec(A, ("E",), (), 1, min(L, 4)),
                              registry, caps))
    return out


SUITES = {
    "words": suite_words,
    "finba": suite_finba,
    "logic": suite_logic,
    "substitution": suite_substitution,
    "varcode": suite_varcode,
    "semidirect": suite_semidirect,
    "layers": suite_layers,
}


def run_suite(name, alphabet, maxlen, seed, registry=None,
              caps: Caps = DEFAULT) -> list:
    """Reports of one suite, or of every suite for ``all``, in a canonical
    order."""
    if name == "all":
        return [r for suite in SUITES.values()
                for r in suite(alphabet, maxlen, seed, registry, caps)]
    if name not in SUITES:
        raise ParseError(f"unknown suite {name!r}")
    return SUITES[name](alphabet, maxlen, seed, registry, caps)
