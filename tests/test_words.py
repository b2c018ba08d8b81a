"""Marked words, extended alphabets, and the mark codec."""

import itertools

import pytest
from hypothesis import given, strategies as st

from wordlogic import (
    Alphabet,
    ExtendedAlphabet,
    MarkedWord,
    ParseError,
    decode_marks,
    embed_marked,
    encode_marks,
    enumerate_marked,
    enumerate_words,
    format_word,
    in_marked_image,
    parse_marks,
    parse_word,
)
from wordlogic.words import subsets_in_order


# ---------------------------------------------------------------------------
# alphabets


def test_alphabet_of_string_and_list():
    assert Alphabet.of("ab").symbols == ("a", "b")
    assert Alphabet.of(["aa", "b"]).symbols == ("aa", "b")
    A = Alphabet.of("ab")
    assert Alphabet.of(A) is A


def test_alphabet_rejects_duplicates_and_bad_symbols():
    with pytest.raises(ParseError):
        Alphabet.of(["a", "a"])
    with pytest.raises(ParseError):
        Alphabet.of(["a{b"])
    with pytest.raises(ParseError):
        Alphabet.of([""])


def test_subset_order_is_by_size_then_name():
    got = [tuple(sorted(s)) for s in subsets_in_order(("x", "y"))]
    assert got == [(), ("x",), ("y",), ("x", "y")]


def test_extended_alphabet_symbols_and_split():
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    assert ext.symbols == ("a{}", "a{x}", "b{}", "b{x}")
    assert ext.split("a{x}") == ("a", frozenset({"x"}))
    assert ext.split("b{}") == ("b", frozenset())
    assert ext.symbol("b", ("x",)) == "b{x}"


def test_extended_alphabet_two_variables():
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x", "y"))
    assert ext.symbols == (
        "a{}", "a{x}", "a{y}", "a{x,y}",
        "b{}", "b{x}", "b{y}", "b{x,y}",
    )
    assert ext.split("a{x,y}") == ("a", frozenset({"x", "y"}))


# ---------------------------------------------------------------------------
# marked words


def test_marked_word_accessors():
    mw = MarkedWord(("a", "b"), (("x", 2),))
    assert mw.context == ("x",)
    assert mw.pos("x") == 2
    assert mw.letter("x") == "b"
    assert len(mw) == 2
    assert str(mw) == "ab[x=2]"
    assert str(MarkedWord((), ())) == "ε"


def test_marked_word_mark_validation():
    with pytest.raises(ParseError):
        MarkedWord(("a",), (("x", 2),))
    with pytest.raises(ParseError):
        MarkedWord(("a",), (("x", 1), ("x", 1)))
    with pytest.raises(ParseError):
        MarkedWord((), (("x", 1),))


def test_marks_are_stored_sorted():
    mw = MarkedWord(("a", "b"), (("y", 1), ("x", 2)))
    assert mw.marks == (("x", 2), ("y", 1))
    assert mw == MarkedWord(("a", "b"), (("x", 2), ("y", 1)))


# ---------------------------------------------------------------------------
# the codec between marks and letter components


def test_encode_single_mark():
    mw = MarkedWord(("a", "b"), (("x", 2),))
    out = encode_marks(mw, ("x",), base=Alphabet.of("ab"))
    assert out.word == ("a{}", "b{x}")
    assert out.marks == ()


def test_encode_two_marks_same_position():
    mw = MarkedWord(("a", "b", "a"), (("x", 1), ("z", 1)))
    out = encode_marks(mw, ("x", "z"), base=Alphabet.of("ab"))
    assert out.word == ("a{x,z}", "b{}", "a{}")
    assert out.marks == ()


def test_encode_keeps_spectator_marks():
    A = Alphabet.of("ab")
    mw = MarkedWord(("a", "b"), (("x", 1), ("y", 2)))
    half = encode_marks(mw, ("x",), base=A)
    assert half.marks == (("y", 2),)
    assert half.word[0] == "a{x}"
    assert half.word[1] == "b{}"


def test_encode_requires_the_marks():
    mw = MarkedWord(("a",), ())
    with pytest.raises(ParseError):
        encode_marks(mw, ("x",), base=Alphabet.of("a"))


def test_embed_and_decode_roundtrip():
    A = Alphabet.of("ab")
    ext = ExtendedAlphabet(A, ("x", "y"))
    mw = MarkedWord(("b", "a", "b"), (("x", 3), ("y", 1)))
    w = embed_marked(mw, ("x", "y"), base=A)
    assert w == ("b{y}", "a{}", "b{x}")
    assert decode_marks(w, ext) == mw


def test_decode_rejects_double_and_missing_marks():
    ext = ExtendedAlphabet(Alphabet.of("a"), ("x",))
    with pytest.raises(ParseError):
        decode_marks(("a{x}", "a{x}"), ext)
    with pytest.raises(ParseError):
        decode_marks(("a{}",), ext)
    assert decode_marks(("a{x}", "a{x}"), ext, strict=False) is None
    assert not in_marked_image(("a{}",), ext)
    assert in_marked_image(("a{}", "a{x}"), ext)


@given(st.data())
def test_codec_roundtrip_random(data):
    A = Alphabet.of("ab")
    n = data.draw(st.integers(min_value=2, max_value=6))
    word = tuple(data.draw(st.sampled_from("ab")) for _ in range(n))
    px = data.draw(st.integers(min_value=1, max_value=n))
    py = data.draw(st.integers(min_value=1, max_value=n))
    mw = MarkedWord(word, (("x", px), ("y", py)))
    ext = ExtendedAlphabet(A, ("x", "y"))
    w = embed_marked(mw, ("x", "y"), ext=ext)
    assert decode_marks(w, ext) == mw
    # partial encoding keeps the other mark and the base letters
    half = encode_marks(mw, ("y",), base=A)
    assert half.marks == (("x", px),)
    assert tuple(s.split("{", 1)[0] for s in half.word) == word


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_words_is_shortlex():
    got = list(enumerate_words(Alphabet.of("ab"), 2))
    assert got == [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                   ("b", "a"), ("b", "b")]


def test_enumerate_marked_empty_context_includes_empty_word():
    got = list(enumerate_marked(Alphabet.of("a"), (), 2))
    assert got == [MarkedWord((), ()), MarkedWord(("a",), ()),
                   MarkedWord(("a", "a"), ())]


def test_enumerate_marked_counts():
    # each variable independently marks one of n positions
    for k, ctx in enumerate([(), ("x",), ("x", "y")]):
        got = list(enumerate_marked(Alphabet.of("ab"), ctx, 3))
        expect = sum((2 ** n) * (n ** k) for n in range(0 if k == 0 else 1, 4))
        assert len(got) == expect
        assert len(set(got)) == expect


def test_enumerate_marked_marks_cover_all_positions():
    got = list(enumerate_marked(Alphabet.of("a"), ("x",), 2))
    assert got == [
        MarkedWord(("a",), (("x", 1),)),
        MarkedWord(("a", "a"), (("x", 1),)),
        MarkedWord(("a", "a"), (("x", 2),)),
    ]


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_word_plain_and_dotted():
    A = Alphabet.of("ab")
    assert parse_word("ab", A) == ("a", "b")
    assert parse_word("a.b", A) == ("a", "b")
    assert parse_word("ε", A) == ()
    assert parse_word("eps", A) == ()
    assert parse_word("", A) == ()


def test_parse_word_greedy_longest_match():
    A = Alphabet.of(["a", "aa", "b"])
    assert parse_word("aab", A) == ("aa", "b")
    with pytest.raises(ParseError):
        parse_word("a.ab", A)  # 'ab' is not a symbol


def test_parse_word_extended_symbols():
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    assert parse_word("a{}b{x}", ext) == ("a{}", "b{x}")


def test_parse_word_rejects_unknown():
    with pytest.raises(ParseError):
        parse_word("abc", Alphabet.of("ab"))


def test_parse_marks():
    assert parse_marks("x=2,y=5") == (("x", 2), ("y", 5))
    assert parse_marks("") == ()
    with pytest.raises(ParseError):
        parse_marks("x=zero")


def test_format_word():
    assert format_word(("a", "b")) == "ab"
    assert format_word(()) == ""
