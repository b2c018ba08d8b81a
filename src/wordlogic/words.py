"""Words and marked words.

A *marked word* is a word together with one 1-based position per context
variable.  Marked words embed into words over a product alphabet whose
letters carry the subset of variables marking that position; a word over
A x 2^y prints as e.g. ``a{x}b{}b{x,y}`` and that spelling is the on-disk
and CLI format for extended letters.

Positions are 1-based throughout (position i of w is w[i-1]).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CapExceeded, ParseError
from . import caps as _caps

Word = tuple  # tuple[str, ...]

EPSILON: Word = ()


def _check_symbol(sym):
    if not sym or not isinstance(sym, str):
        raise ParseError("alphabet symbols must be nonempty strings")
    if any(ch in sym for ch in "{},. "):
        raise ParseError(
            "base alphabet symbols may not contain '{', '}', ',', '.', or spaces "
            f"(got {sym!r}); those characters are reserved for extended letters"
        )


@dataclass(frozen=True)
class Alphabet:
    """A plain finite alphabet; symbol order is significant everywhere."""

    symbols: tuple

    def __post_init__(self):
        for s in self.symbols:
            _check_symbol(s)
        if len(set(self.symbols)) != len(self.symbols):
            raise ParseError("duplicate alphabet symbols")

    @staticmethod
    def of(spec) -> "Alphabet":
        """Alphabet from 'ab' / 'a,b' / iterable of symbols."""
        if isinstance(spec, Alphabet):
            return spec
        if isinstance(spec, str):
            parts = spec.split(",") if "," in spec else list(spec)
            return Alphabet(tuple(p for p in parts if p))
        return Alphabet(tuple(spec))

    def index(self, sym) -> int:
        try:
            return self.symbols.index(sym)
        except ValueError:
            raise ParseError(f"symbol {sym!r} not in alphabet {self.symbols}")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, sym):
        return sym in self.symbols


def subsets_in_order(ctx):
    """All subsets of the context, in the order induced by the variable
    ordering: a binary counter with ctx[0] as the least significant bit."""
    out = []
    for mask in range(1 << len(ctx)):
        out.append(frozenset(v for i, v in enumerate(ctx) if mask >> i & 1))
    return out


def ext_symbol(base_sym, marked_vars, ctx):
    inside = ",".join(v for v in ctx if v in marked_vars)
    return f"{base_sym}{{{inside}}}"


@dataclass(frozen=True)
class ExtendedAlphabet:
    """The product alphabet A x 2^ctx with canonical letter names a{...}.

    Letters enumerate base-symbol-major, subsets in subset-of-context order,
    so the symbol list is reproducible byte for byte.
    """

    base: Alphabet
    ctx: tuple
    symbols: tuple = field(init=False, compare=False, default=())

    def __post_init__(self):
        if len(set(self.ctx)) != len(self.ctx):
            raise ParseError("duplicate variables in mark context")
        subs = subsets_in_order(self.ctx)
        syms = tuple(
            ext_symbol(a, s, self.ctx) for a in self.base.symbols for s in subs
        )
        object.__setattr__(self, "symbols", syms)

    def symbol(self, base_sym, marked_vars) -> str:
        return ext_symbol(base_sym, frozenset(marked_vars), self.ctx)

    def split(self, sym):
        """Inverse of symbol(): extended letter -> (base symbol, marked vars)."""
        if "{" not in sym or not sym.endswith("}"):
            raise ParseError(f"{sym!r} is not an extended letter")
        base, _, inside = sym[:-1].partition("{")
        marked = frozenset(v for v in inside.split(",") if v)
        if base not in self.base.symbols or not marked <= set(self.ctx):
            raise ParseError(f"{sym!r} does not belong to {self.base.symbols} x 2^{self.ctx}")
        return base, marked

    def index(self, sym) -> int:
        try:
            return self.symbols.index(sym)
        except ValueError:
            raise ParseError(f"symbol {sym!r} not in extended alphabet")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, sym):
        return sym in self.symbols


def mark_alphabet(base: Alphabet, var="x") -> ExtendedAlphabet:
    """A x 2 for a single position variable (letters a{} and a{x})."""
    return ExtendedAlphabet(base, (var,))


# ---------------------------------------------------------------------------
# marked words


@dataclass(frozen=True)
class MarkedWord:
    """A word plus one marked position (1-based) per context variable.

    ``marks`` is stored sorted by variable name so equal markings hash
    equally regardless of construction order.
    """

    word: tuple
    marks: tuple = ()

    def __post_init__(self):
        marks = tuple(sorted(self.marks))
        seen = set()
        for var, pos in marks:
            if var in seen:
                raise ParseError(f"variable {var} marked twice")
            seen.add(var)
            if not (1 <= pos <= len(self.word)):
                raise ParseError(
                    f"mark {var}={pos} out of range for word of length {len(self.word)}"
                )
        object.__setattr__(self, "marks", marks)

    @property
    def context(self):
        return tuple(v for v, _ in self.marks)

    def pos(self, var) -> int:
        for v, p in self.marks:
            if v == var:
                return p
        raise ParseError(f"variable {var} not marked")

    def letter(self, var) -> str:
        return self.word[self.pos(var) - 1]

    def __len__(self):
        return len(self.word)

    def __str__(self):
        w = "".join(self.word) if self.word else "ε"
        if not self.marks:
            return w
        return w + "[" + ",".join(f"{v}={p}" for v, p in self.marks) + "]"


def check_bound(bound):
    """Refuse a negative word-length bound."""
    if bound < 0:
        raise ParseError(f"the word-length bound must be at least 0, got {bound}",
                         bound=bound)


def check_table(stage, symbols: int, context: int, bound, caps: _caps.Caps):
    """Refuse, before anything is enumerated or evaluated, a negative bound
    or a table of more marked words of length <= bound, over ``symbols``
    letters with ``context`` marks each, than the enumeration cap.  Returns
    the size of the table."""
    check_bound(bound)
    size = sum(symbols ** n * n ** context for n in range(bound + 1))
    if size > caps.enumeration:
        raise CapExceeded(
            f"{stage} of {size} words at bound {bound} exceeds the "
            f"enumeration cap of {caps.enumeration}",
            stage=stage, size=size, cap=caps.enumeration)
    return size


def enumerate_words(alphabet, maxlen, caps: _caps.Caps = _caps.DEFAULT):
    """All words of length <= maxlen in shortlex order."""
    check_bound(maxlen)
    syms = tuple(alphabet)
    total = 0
    for n in range(maxlen + 1):
        for tup in itertools.product(syms, repeat=n):
            total += 1
            if total > caps.enumeration:
                raise CapExceeded("word enumeration cap hit",
                                  stage="word enumeration", size=total,
                                  cap=caps.enumeration)
            yield tup


def enumerate_marked(alphabet, context, maxlen, caps: _caps.Caps = _caps.DEFAULT):
    """All marked words (w, i) with |w| <= maxlen, one mark per context
    variable; word-major, then position tuples lexicographic in context
    order.  A nonempty context yields nothing for the empty word."""
    context = tuple(context)
    total = 0
    for w in enumerate_words(alphabet, maxlen, caps):
        if context and not w:
            continue
        for positions in itertools.product(range(1, len(w) + 1), repeat=len(context)):
            total += 1
            if total > caps.enumeration:
                raise CapExceeded("marked word enumeration cap hit",
                                  stage="marked word enumeration", size=total,
                                  cap=caps.enumeration)
            yield MarkedWord(w, tuple(zip(context, positions)))


# ---------------------------------------------------------------------------
# embedding marked words into extended-alphabet words


def encode_marks(mw: MarkedWord, enc_vars, ext: ExtendedAlphabet = None, base: Alphabet = None):
    """Push the marks for ``enc_vars`` into the letters; other marks stay.

    Returns a MarkedWord over ext (plain word in a MarkedWord shell when all
    marks were encoded).  This is the embedding iota_{x,y} on points.
    """
    enc_vars = tuple(enc_vars)
    if ext is None:
        if base is None:
            raise ParseError("encode_marks needs the extended alphabet or the base")
        ext = ExtendedAlphabet(base, enc_vars)
    have = set(mw.context)
    if not set(enc_vars) <= have:
        missing = set(enc_vars) - have
        raise ParseError(f"marked word lacks marks for {sorted(missing)}")
    at = {}
    for v in enc_vars:
        at.setdefault(mw.pos(v), set()).add(v)
    new_word = tuple(
        ext.symbol(sym, frozenset(at.get(i + 1, ()))) for i, sym in enumerate(mw.word)
    )
    kept = tuple((v, p) for v, p in mw.marks if v not in enc_vars)
    return MarkedWord(new_word, kept)


def embed_marked(mw: MarkedWord, ctx, base: Alphabet = None, ext: ExtendedAlphabet = None):
    """Full embedding: all marks (context must be a subset of ctx) become
    letter components over A x 2^ctx; returns a plain word."""
    ctx = tuple(ctx)
    if not set(mw.context) <= set(ctx):
        raise ParseError(f"context {mw.context} not within {ctx}")
    if ext is None:
        ext = ExtendedAlphabet(base, ctx)
    at = {}
    for v, p in mw.marks:
        at.setdefault(p, set()).add(v)
    return tuple(
        ext.symbol(sym, frozenset(at.get(i + 1, ()))) for i, sym in enumerate(mw.word)
    )


def decode_marks(word, ext: ExtendedAlphabet, strict=True):
    """Inverse of the embedding: extended word -> marked word over the base.

    With strict=True, every context variable must mark exactly one position
    (raises ParseError otherwise); with strict=False returns None instead of
    raising, for use as an image test.
    """
    base_syms = []
    marks = {}
    for i, sym in enumerate(word):
        b, marked = ext.split(sym)
        base_syms.append(b)
        for v in marked:
            if v in marks:
                if strict:
                    raise ParseError(f"variable {v} marked twice in {''.join(word)}")
                return None
            marks[v] = i + 1
    if set(marks) != set(ext.ctx):
        if strict:
            raise ParseError(
                f"word {''.join(word) or 'ε'} does not mark all of {ext.ctx}"
            )
        return None
    return MarkedWord(tuple(base_syms), tuple(marks.items()))


def in_marked_image(word, ext: ExtendedAlphabet) -> bool:
    return decode_marks(word, ext, strict=False) is not None


# ---------------------------------------------------------------------------
# word serialization


def format_word(word) -> str:
    return "".join(word)


def parse_word(text, alphabet) -> Word:
    """Parse a word; '.' may separate letters, otherwise greedy longest
    match against the alphabet's symbols (extended letters a{...} included)."""
    text = text.strip()
    if text in ("", "ε", "eps"):
        return EPSILON
    syms = sorted(alphabet, key=len, reverse=True)
    if "." in text:
        parts = [p for p in text.split(".") if p]
        for p in parts:
            if p not in alphabet:
                raise ParseError(f"unknown letter {p!r}")
        return tuple(parts)
    out = []
    i = 0
    while i < len(text):
        for s in syms:
            if text.startswith(s, i):
                out.append(s)
                i += len(s)
                break
        else:
            raise ParseError(f"cannot read a letter at ...{text[i:]!r}")
    return tuple(out)


def parse_marks(text) -> tuple:
    """Parse 'x=2,y=5' into a marks tuple."""
    marks = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        var, _, pos = part.partition("=")
        if not pos.strip().isdigit():
            raise ParseError(f"bad mark {part!r} (want var=pos)")
        marks.append((var.strip(), int(pos)))
    return tuple(marks)
