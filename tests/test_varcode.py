"""Encoding free variables into letters and decoding them back."""

import pytest

from wordlogic import (
    TRUE, FALSE,
    Alphabet,
    BoundTooSmall,
    ExtendedAlphabet,
    InvariantViolated,
    MarkedWord,
    ParseError,
    Quant,
    decode,
    decode_multi,
    embed_marked,
    encode,
    encode_multi,
    enumerate_marked,
    equiv_bounded,
    in_marked_image,
    lift_delta,
    models,
    parse,
    phi_sentence,
    roundtrip_check,
    satisfies,
    sigma,
    sigma_source,
    to_dsl,
    xi,
    zeta_relabel,
)
from wordlogic import varcode
from wordlogic.words import encode_marks

from conftest import word_set


A1 = Alphabet.of("a")
AB = Alphabet.of("ab")
EXT1 = ExtendedAlphabet(A1, ("x",))
EXTAB = ExtendedAlphabet(AB, ("x",))


# ---------------------------------------------------------------------------
# the codec's letter tables


@pytest.mark.parametrize("prior", [(), ("y",), ("y", "w")])
def test_codec_tables_agree_with_the_extended_alphabets(prior):
    up, marked, down = varcode._codec(AB, prior, "x")
    src = ExtendedAlphabet(AB, prior) if prior else AB
    ext = ExtendedAlphabet(AB, prior + ("x",))
    split = (lambda s: src.split(s)) if prior else (lambda s: (s, frozenset()))
    assert list(up) == list(src.symbols)
    for s, (plain, mark) in up.items():
        b, T = split(s)
        assert (plain, mark) == (ext.symbol(b, T), ext.symbol(b, T | {"x"}))
    assert marked == tuple(mark for _, mark in up.values())
    assert set(down) == set(ext.symbols)
    for t, (s, carries) in down.items():
        b, T = ext.split(t)
        assert carries == ("x" in T) and split(s) == (b, T - {"x"})
    assert varcode._codec(AB, prior, "x")[0] is up
    with pytest.raises(TypeError):
        down["a{x}"] = ("b", False)


# ---------------------------------------------------------------------------
# the image sentence


def test_image_sentence_models_are_the_embedded_words():
    phi = phi_sentence(A1)
    got = word_set(models(phi, EXT1, 2, ()))
    assert got == {("a{x}",), ("a{}", "a{x}"), ("a{x}", "a{}")}


def test_image_sentence_rejects_unmarked_and_double():
    phi = phi_sentence(A1)
    assert not satisfies(MarkedWord((), ()), phi)
    assert not satisfies(MarkedWord(("a{x}", "a{x}"), ()), phi)
    assert not satisfies(MarkedWord(("a{}",), ()), phi)


def test_image_sentence_matches_the_image_test():
    phi = phi_sentence(AB)
    for mw in models(TRUE, EXTAB, 3, ()):
        assert satisfies(mw, phi) == in_marked_image(mw.word, EXTAB)


# ---------------------------------------------------------------------------
# encoding one variable


def test_encode_letter_predicate():
    out = encode(parse("P[a](x)"), "x", AB)
    # model set = embedded image of the source models, at every bound
    want = {embed_marked(mw, ("x",), base=AB)
            for mw in models(parse("P[a](x)"), AB, 3, ("x",))}
    got = word_set(models(out, EXTAB, 3, ()))
    assert got == want


def test_encode_true_is_the_image_sentence():
    out = encode(TRUE, "x", AB)
    assert equiv_bounded(out, phi_sentence(AB), EXTAB, 4)


def test_encode_rewrites_numeric_arguments():
    phi = parse("E y. P[a](y) & x < y")
    out = encode(phi, "x", AB)
    want = {embed_marked(mw, ("x",), base=AB)
            for mw in models(phi, AB, 4, ("x",))}
    got = word_set(models(out, EXTAB, 4, ()))
    assert got == want


def test_encode_model_sets_lie_in_the_image():
    for text in ["P[a](x)", "E y. P[b](y) & R[succ](x,y)", "~P[a](x)"]:
        out = encode(parse(text), "x", AB)
        for mw in models(out, EXTAB, 4, ()):
            assert in_marked_image(mw.word, EXTAB)


def test_encode_requires_the_variable_free():
    with pytest.raises(ParseError):
        encode(parse("E x. P[a](x)"), "x", AB)


# ---------------------------------------------------------------------------
# decoding one variable


def test_decode_marked_letter_predicate():
    psi = parse("E z. P[a{x}](z)")
    out = decode(psi, "x", AB)
    # decoded: the position x carries an a — on embedded words they agree
    for mw in enumerate_marked(AB, ("x",), 4):
        want = satisfies(MarkedWord(embed_marked(mw, ("x",), base=AB), ()),
                         psi)
        assert satisfies(mw, out) == want


def test_decode_image_sentence_is_trivially_true():
    out = decode(phi_sentence(AB), "x", AB)
    assert equiv_bounded(out, TRUE, AB, 4, context=("x",))


def test_decode_false_is_false():
    assert decode(FALSE, "x", AB) == FALSE


def test_decode_rejects_formulas_using_the_variable():
    with pytest.raises(ParseError):
        decode(parse("P[a{x}](x)"), "x", AB)


def test_decode_inverts_the_embedding_on_model_sets():
    psi = parse("E z. P[b{x}](z) & R[first](z)")
    out = decode(psi, "x", AB)
    want = {mw for mw in enumerate_marked(AB, ("x",), 4)
            if satisfies(MarkedWord(embed_marked(mw, ("x",), base=AB), ()),
                         psi)}
    got = set(models(out, AB, 4, ("x",)))
    assert got == want


# ---------------------------------------------------------------------------
# several variables


def test_multi_with_one_variable_reduces_to_single():
    phi = parse("P[a](x)")
    assert equiv_bounded(encode_multi(phi, ("x",), AB),
                         encode(phi, "x", AB), EXTAB, 4)


def test_multi_with_no_variables_is_identity():
    phi = parse("E z. P[a](z)")
    assert encode_multi(phi, (), AB) == phi
    assert decode_multi(phi, (), AB) == phi


def test_multi_encode_two_variables_matches_the_embedding():
    phi = parse("P[a](x) & P[b](y)")
    ext = ExtendedAlphabet(AB, ("x", "y"))
    out = encode_multi(phi, ("x", "y"), AB)
    want = {embed_marked(mw, ("x", "y"), base=AB)
            for mw in models(phi, AB, 3, ("x", "y"))}
    got = word_set(models(out, ext, 3, ()))
    assert got == want


def test_multi_decode_undoes_multi_encode():
    phi = parse("P[a](x) & E z. z < y")
    back = decode_multi(encode_multi(phi, ("x", "y"), AB), ("x", "y"), AB)
    assert equiv_bounded(phi, back, AB, 3, context=("x", "y"))


# ---------------------------------------------------------------------------
# the roundtrip report


def test_roundtrip_on_letter_predicate():
    report = roundtrip_check(parse("P[a](x)"), ("x",), AB, bound=4)
    assert report.passed, report.counterexample


def test_roundtrip_on_true():
    report = roundtrip_check(TRUE, ("x",), AB, bound=4)
    assert report.passed


def test_roundtrip_with_explicit_encoded_side():
    psi = parse("E z. P[a{x}](z)")
    report = roundtrip_check(parse("P[a](x)"), ("x",), AB, bound=4, psi=psi)
    assert report.passed, report.counterexample


def test_roundtrip_two_variables():
    report = roundtrip_check(parse("P[a](x) & ~P[a](y)"), ("x", "y"), AB,
                             bound=3)
    assert report.passed, report.counterexample


@pytest.mark.parametrize("psi", [None, "E z. P[a{x}](z)"])
def test_roundtrip_decodes_each_formula_once(monkeypatch, psi):
    # without psi, the encoding's decoding serves both facts
    import wordlogic.varcode as varcode

    decoded = []
    real = varcode.decode_multi
    monkeypatch.setattr(varcode, "decode_multi",
                        lambda f, *args: decoded.append(f) or real(f, *args))
    psi = psi and parse(psi)
    report = roundtrip_check(parse("P[a](x) & E y. x < y"), ("x",), AB,
                             bound=3, psi=psi)
    assert report.passed, report.counterexample
    assert len(decoded) == (1 if psi is None else 2)


def test_roundtrip_reads_the_image_apart_from_the_codec(monkeypatch):
    # an image sentence that lets the mark repeat keeps every round trip
    # consistent with itself; only an image taken from the marked words
    # themselves sees that a twice-marked word satisfies the encoding
    real = varcode.phi_sentence

    def loose(*args, **kwargs):
        exactly_one = real(*args, **kwargs)
        return Quant("E", exactly_one.var, exactly_one.body)

    monkeypatch.setattr(varcode, "phi_sentence", loose)
    report = roundtrip_check(parse("P[a](x)"), ("x",), AB, bound=3)
    assert not report.passed
    assert report.counterexample.startswith("encode(decode(..)) differs on")


# ---------------------------------------------------------------------------
# homomorphism facts


def test_encode_preserves_meets_and_joins():
    p, q = parse("P[a](x)"), parse("E y. y < x")
    from wordlogic import And, Or

    enc = lambda f: encode(f, "x", AB)
    assert equiv_bounded(enc(And((p, q))), And((enc(p), enc(q))), EXTAB, 4)
    assert equiv_bounded(enc(Or((p, q))), Or((enc(p), enc(q))), EXTAB, 4)


def test_encode_does_not_preserve_negation_but_decode_does():
    from wordlogic import Not

    p = parse("P[a](x)")
    enc = encode(Not(p), "x", AB)
    # ¬ commutes only up to the image: off-image words satisfy ~encode(p)
    off = MarkedWord(("a{}",), ())
    assert satisfies(off, Not(encode(p, "x", AB)))
    assert not satisfies(off, enc)
    psi = parse("E z. P[a{x}](z)")
    dec = lambda f: decode(f, "x", AB)
    assert equiv_bounded(dec(Not(psi)), Not(dec(psi)), AB, 4,
                         context=("x",))


def test_spectator_variables_ride_along():
    # a free spectator variable stays a mark while x moves into the letters
    phi = parse("P[a](x) & P[b](y)")
    out = encode(phi, "x", AB)
    ext = ExtendedAlphabet(AB, ("x",))
    want = {encode_marks(mw, ("x",), ext=ext)
            for mw in models(phi, AB, 3, ("x", "y"))}
    got = set(models(out, ext, 3, ("y",)))
    assert got == want


# ---------------------------------------------------------------------------
# lifting an algebra over the marked alphabet


def test_lift_two_cells_gains_exactly_the_off_image_cell():
    lift = lift_delta([parse("P[a](x)")], "x", ("y",), AB, bound=5)
    assert len(lift.source_atom_formulas) == 2
    assert lift.lifted.atom_count == 3
    assert lift.junk_atom is not None
    assert sorted(set(lift.zeta) | {lift.junk_atom}) == [0, 1, 2]
    assert lift.report is not None and lift.report.passed


@pytest.mark.parametrize("bound, refusal, size",
                         [(0, BoundTooSmall, 0), (1, InvariantViolated, 2),
                          (3, InvariantViolated, 2)])
def test_lift_of_an_unpinned_encoding_is_a_fault_once_marked_words_exist(
        monkeypatch, bound, refusal, size):
    # encode without its pinned conjunct: off-image words now satisfy the
    # encodings, so the lifted cells are not the source cells and one more.
    # No larger bound can mend that, so only bound 0, with no marked word at
    # all, is a bound too small
    monkeypatch.setattr(varcode, "phi_sentence", lambda *args, **kwargs: TRUE)
    with pytest.raises(refusal) as exc:
        lift_delta([parse("P[a](x)")], "x", ("y",), AB, bound=bound)
    assert type(exc.value) is refusal
    assert exc.value.info == {"stage": "lift_delta", "size": size,
                              "bound": bound}


def test_lift_trivial_algebra():
    lift = lift_delta([], "x", ("y",), AB, bound=4)
    assert len(lift.source_atom_formulas) == 1
    assert lift.lifted.atom_count == 2
    assert lift.junk_atom is not None


def test_lift_without_encoded_variables_is_the_identity():
    lift = lift_delta([parse("P[a](x)")], "x", (), AB, bound=4)
    assert lift.junk_atom is None
    assert lift.lifted.atom_count == 2
    assert tuple(lift.zeta) == (0, 1) or set(lift.zeta) == {0, 1}


def test_lift_without_encoded_variables_evaluates_each_generator_once(
        monkeypatch):
    # encode_multi(g, ()) is g: the source cells come from the lifted
    # algebra's own evaluation
    import wordlogic.logic as logic_module
    import wordlogic.substitution as substitution_module
    gens = [parse("P[a](x)"), parse("E y. (y < x & P[b](y))"),
            parse("R[last](x)")]
    seen = []
    for module in (logic_module, substitution_module):
        real = module.truth_table

        def counted(phis, *args, real=real, **kwargs):
            seen.extend(phis)
            return real(phis, *args, **kwargs)

        monkeypatch.setattr(module, "truth_table", counted)
    lift = lift_delta(gens, "x", (), AB, bound=4)
    assert lift.report.passed
    assert [sum(phi is g for phi in seen) for g in gens] == [1, 1, 1]


def test_lift_classifies_embedded_points_like_the_source():
    lift = lift_delta([parse("P[a](x) & P[b](y)")], "x", ("y",), AB, bound=5)
    ext = ExtendedAlphabet(AB, ("y",))
    for mw in enumerate_marked(AB, ("x", "y"), 4):
        src = [i for i, f in enumerate(lift.source_atom_formulas)
               if satisfies(mw, f)]
        assert len(src) == 1
        image = encode_marks(mw, ("y",), ext=ext)
        assert xi(lift.lifted, image) == lift.zeta[src[0]]
    # everything off the image lands in the junk cell
    for w in [("a{}",), ("a{y}", "b{y}")]:
        assert xi(lift.lifted, MarkedWord(w, (("x", 1),))) == lift.junk_atom


def test_zeta_relabel_sends_junk_to_false():
    lift = lift_delta([parse("P[a](x)")], "x", ("y",), AB, bound=5)
    theta = parse(f"E z. P[c{lift.junk_atom}](z)")
    carried = zeta_relabel(lift, theta)
    assert equiv_bounded(carried, Quant("E", "z", FALSE), AB, 3)


def test_substitution_through_the_lift_matches_the_source():
    lift = lift_delta([parse("P[a](x)")], "x", ("y",), AB, bound=5)
    # a sentence over the lifted atoms, pushed both ways
    embedded = [f"c{i}" for i in lift.zeta]
    theta = parse(f"E z. P[{embedded[0]}](z)")
    through_lift = decode_multi(sigma(lift.lifted, theta), ("y",), AB)
    through_source = sigma_source(lift, zeta_relabel(lift, theta))
    assert equiv_bounded(through_lift, through_source, AB, 4,
                         context=("y",))
