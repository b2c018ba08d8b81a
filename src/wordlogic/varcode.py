"""Moving marked variables into and out of the alphabet.

A marked word is the same data as a word over the product alphabet whose
letters record the marks.  This module performs that move on formulas:
encoding rewrites a formula with a distinguished free variable into one
over the product alphabet, conjoined with the sentence "exactly one
position carries the mark"; decoding reads the mark back off the letters
with an equality test, reintroducing the variable.  Encoding preserves
meets and joins (not complements); decoding preserves all Boolean
operations.  Round trips and the compatibility square that lets
substitution over a many-variable algebra be computed over a
one-variable one are checked word by word at an explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .caps import DEFAULT, Caps
from .errors import BoundTooSmall, InvariantViolated, ParseError
from .logic import (And, LetterPred, Not, NumPred, Or, Quant, TRUE, FALSE,
                    Registry, DEFAULT_REGISTRY, conj, disj, neg, all_vars,
                    free_vars, fresh_names, in_range, map_atoms, marked_truth,
                    marked_word_at, scope, to_dsl)
from .regular import shortlex_rows
from .report import Report
from .substitution import (DeltaAlgebra, delta_algebra, sigma,
                           substitute_letters)
from .words import Alphabet, ExtendedAlphabet, check_table


# ---------------------------------------------------------------------------
# alphabets on the two sides of a codec
# ---------------------------------------------------------------------------

def _base_alphabet(alphabet) -> Alphabet:
    if isinstance(alphabet, ExtendedAlphabet):
        raise ParseError("pass the base alphabet; encoded variables are "
                         "given separately")
    return alphabet if isinstance(alphabet, Alphabet) else Alphabet.of(alphabet)


@lru_cache(maxsize=64)
def _codec(base: Alphabet, prior: tuple, var) -> tuple:
    """The read-only letter tables of the step from A x 2^prior (A when prior
    is empty) to A x 2^(prior + var): per source symbol its (unmarked, marked)
    targets, the marked targets in source order, and per target its source
    and whether it carries var."""
    src = ExtendedAlphabet(base, prior) if prior else base
    ext = ExtendedAlphabet(base, prior + (var,))
    up = {}
    for s in src.symbols:
        b, T = src.split(s) if prior else (s, frozenset())
        up[s] = (ext.symbol(b, T), ext.symbol(b, T | {var}))
    down = {t: (s, i == 1) for s, pair in up.items() for i, t in enumerate(pair)}
    return (MappingProxyType(up), tuple(m for _, m in up.values()),
            MappingProxyType(down))


# ---------------------------------------------------------------------------
# the image sentence
# ---------------------------------------------------------------------------

def phi_sentence(alphabet, var="x", prior=(), zvar=None):
    """The sentence over the marked alphabet whose models are exactly the
    embedded marked words: exactly one position carries the new mark."""
    marked = _codec(_base_alphabet(alphabet), tuple(prior), var)[1]
    z = zvar or next(fresh_names({var, *prior}))
    return Quant("E1", z, disj(LetterPred(s, z) for s in marked))


# ---------------------------------------------------------------------------
# one variable in, one variable out
# ---------------------------------------------------------------------------

def encode(phi, var, alphabet, prior=()):
    """Push the free variable ``var`` into the letters.

    ``phi`` is a formula over A x 2^prior (plain A when prior is empty) in
    which every occurrence of var is free; the result is a formula over
    A x 2^(prior + var) without var: a letter test at var becomes a witness
    for the marked letter, letter tests elsewhere ignore the new mark, and a
    numerical predicate mentioning var routes through a marked witness
    position.  The final conjunct pins the mark to exactly one position.
    """
    prior = tuple(prior)
    if var in prior:
        raise ParseError(f"variable {var!r} is already encoded")
    free, bound = scope(phi)
    if var in bound:
        raise ParseError(f"variable {var!r} is bound in the formula; only a "
                         "free variable can be encoded")
    base = _base_alphabet(alphabet)
    up, marked, _ = _codec(base, prior, var)
    fresh = fresh_names(free | bound | {var} | set(prior))

    def leaf(node):
        if isinstance(node, LetterPred):
            if node.symbol not in up:
                raise ParseError(f"letter {node.symbol!r} is not over the "
                                 "codec's source alphabet")
            plain, mark = up[node.symbol]
            if node.var == var:
                z = next(fresh)
                return Quant("E", z, LetterPred(mark, z))
            return Or((LetterPred(mark, node.var), LetterPred(plain, node.var)))
        if isinstance(node, NumPred) and var in node.args:
            z = next(fresh)
            guard = disj(LetterPred(s, z) for s in marked)
            args = tuple(z if a == var else a for a in node.args)
            return Quant("E", z, conj((guard, NumPred(node.name, args))))
        return node

    return conj((map_atoms(phi, leaf), phi_sentence(base, var, prior, zvar=next(fresh))))


def decode(psi, var, alphabet, prior=()):
    """Pull the mark for ``var`` back out of the letters.

    ``psi`` is a formula over A x 2^(prior + var) not mentioning var; the
    result is over A x 2^prior with var free: a letter test whose letter
    carries the mark asserts the tested position is var, one without the
    mark asserts it is not.
    """
    if var in all_vars(psi):
        raise ParseError(f"variable {var!r} occurs in the formula being "
                         "decoded")
    down = _codec(_base_alphabet(alphabet), tuple(prior), var)[2]

    def leaf(node):
        if isinstance(node, LetterPred):
            if node.symbol not in down:
                raise ParseError(f"letter {node.symbol!r} is not over the "
                                 "codec's marked alphabet")
            sym, marked = down[node.symbol]
            at = NumPred("=", (var, node.var))
            return And((LetterPred(sym, node.var), at if marked else Not(at)))
        return node

    return map_atoms(psi, leaf)


# ---------------------------------------------------------------------------
# several variables: fixed-order composites
# ---------------------------------------------------------------------------

def encode_multi(phi, enc_vars, alphabet):
    """Encode the variables left to right; the k-th step goes from
    A x 2^{first k} to A x 2^{first k+1}.  The empty tuple is the identity."""
    enc_vars = _as_vars(enc_vars)
    for k, v in enumerate(enc_vars):
        phi = encode(phi, v, alphabet, enc_vars[:k])
    return phi


def decode_multi(psi, enc_vars, alphabet):
    """Inverse order of encode_multi: decode the last-encoded variable
    first."""
    enc_vars = _as_vars(enc_vars)
    for k in range(len(enc_vars) - 1, -1, -1):
        psi = decode(psi, enc_vars[k], alphabet, enc_vars[:k])
    return psi


def _as_vars(enc_vars):
    return (enc_vars,) if isinstance(enc_vars, str) else tuple(enc_vars)


# ---------------------------------------------------------------------------
# round trips, checked extensionally
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _image(k, bound, encoded, c) -> np.ndarray:
    """Per marked word of ``enumerate_marked`` over A x 2^encoded (k letters,
    base_index * 2^encoded + mask) and c more variables at the bound: does
    every encoded variable mark one position?  The bulk form of
    ``words.in_marked_image``, kept apart from the codec it checks; read-only."""
    letters = np.maximum(shortlex_rows(k, bound)[0], 0)  # padding marks none
    bits = (letters[:, :, None] >> np.arange(encoded)) & 1
    once = (bits.sum(axis=1) == 1).all(axis=1)
    image = np.repeat(once, in_range(k, bound, c).reshape(len(once), -1).sum(axis=1))
    image.setflags(write=False)
    return image


def roundtrip_check(phi, enc_vars, alphabet, bound=5,
                    registry: Registry = None, caps: Caps = DEFAULT,
                    psi=None) -> Report:
    """Two facts at a bound: decoding an encoding gives the formula back,
    and encoding a decoding fixes exactly the embedded-image part of the
    model set.

    The second fact is checked for ``psi`` (default: the encoding of
    ``phi``): a marked-alphabet word satisfies encode(decode(psi)) exactly
    when it satisfies psi and lies in the image of the embedding, over the
    free variables of ``phi`` outside ``enc_vars`` (encoding removes those
    and adds none), or of a given psi and its round trip.  Both are
    checked in bulk; a counterexample is the first differing marked word in
    ``enumerate_marked`` order, and the counts in ``stats`` run up to it.
    """
    reg = registry or DEFAULT_REGISTRY
    enc_vars = _as_vars(enc_vars)
    base = _base_alphabet(alphabet)
    ext = ExtendedAlphabet(base, enc_vars)
    params = {"formula": to_dsl(phi), "variables": list(enc_vars),
              "alphabet": list(base.symbols), "bound": bound}
    stats = {"words_back": 0, "words_image": 0}

    encoded = encode_multi(phi, enc_vars, base)
    back = decode_multi(encoded, enc_vars, base)
    ctx = tuple(sorted(free_vars(phi) | set(enc_vars)))
    check_table("marked word table", len(base), len(ctx), bound, caps)
    want, got = marked_truth((phi, back), base, ctx, bound, reg)
    differ = np.flatnonzero(want != got)
    stats["words_back"] = int(differ[0]) + 1 if len(differ) else len(want)
    if len(differ):
        mw = marked_word_at(base, ctx, bound, int(differ[0]))
        return Report("varcode-roundtrip", params, False,
                      counterexample=f"decode(encode(..)) differs on {mw}",
                      stats=stats)

    if psi is None:
        psi, both = encoded, encode_multi(back, enc_vars, base)
        ctx2 = tuple(v for v in ctx if v not in enc_vars)
    else:
        both = encode_multi(decode_multi(psi, enc_vars, base), enc_vars, base)
        ctx2 = tuple(sorted((free_vars(psi) | free_vars(both)) - set(enc_vars)))
    check_table("marked word table", len(ext), len(ctx2), bound, caps)
    want, got = marked_truth((psi, both), ext, ctx2, bound, reg)
    differ = np.flatnonzero(want & _image(len(ext), bound, len(enc_vars), len(ctx2)) != got)
    stats["words_image"] = int(differ[0]) + 1 if len(differ) else len(want)
    if len(differ):
        mw = marked_word_at(ext, ctx2, bound, int(differ[0]))
        return Report("varcode-roundtrip", params, False,
                      counterexample=f"encode(decode(..)) differs on {mw}",
                      stats=stats)
    return Report("varcode-roundtrip", params, True, stats=stats)


# ---------------------------------------------------------------------------
# lifting a many-variable algebra to a one-variable algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedAlgebra:
    """A one-variable formula algebra over the marked alphabet standing in
    for an algebra with extra context variables.

    The lifted algebra's atoms are the encodings of the source atoms plus
    one off-image cell; ``zeta`` sends each source atom index to its lifted
    atom index, and ``junk_atom`` names the off-image cell (None when no
    variable was encoded, in which case lifting is the identity).
    """

    alphabet: Alphabet
    var: str
    enc_vars: tuple
    source_generators: tuple
    source_atom_formulas: tuple
    lifted: DeltaAlgebra
    zeta: tuple
    junk_atom: object = None
    report: Report = field(default=None, compare=False)


def lift_delta(generators, var, enc_vars, alphabet, bound=6,
               registry: Registry = None, caps: Caps = DEFAULT,
               check=True) -> LiftedAlgebra:
    """Encode an algebra's context variables into the alphabet.

    ``generators`` are formulas over the base alphabet with free variables
    among ``enc_vars + (var,)``; the result is the one-variable algebra over
    A x 2^enc_vars generated by their encodings together with the image
    sentence.  On atoms this adds exactly one cell (the off-image words), and
    substitution through the lifted algebra agrees with substitution through
    the source algebra after decoding — checked on sample sentences when
    ``check`` is set.
    """
    reg = registry or DEFAULT_REGISTRY
    base = _base_alphabet(alphabet)
    enc_vars = _as_vars(enc_vars)
    generators = tuple(generators)
    ctx = enc_vars + (var,)
    for g in generators:
        fv = free_vars(g)
        if not fv <= set(ctx):
            raise ParseError(f"generator {to_dsl(g)} uses variables "
                             f"{sorted(fv - set(ctx))} outside the context")

    # atoms of the source algebra: realized generator-signature cells
    if enc_vars:
        check_table("marked word table", len(base), len(ctx), bound, caps)
        sigs = marked_truth(generators, base, ctx, bound, reg)
        source_sigs = sorted({tuple(sig) for sig in sigs.T.tolist()})

    # the lifted algebra over the marked alphabet
    enc_gens = [encode_multi(g, enc_vars, base) for g in generators]
    if enc_vars:
        enc_gens.append(encode_multi(TRUE, enc_vars, base))
        carrier_alpha = ExtendedAlphabet(base, enc_vars)
    else:
        carrier_alpha = base
    lifted = delta_algebra(carrier_alpha, var, enc_gens, bound=bound,
                           registry=reg, caps=caps)
    if not enc_vars:
        # encode_multi(g, ()) is g: the source algebra is the lifted one,
        # evaluated once
        source_sigs = sorted(lifted.atom_of_signature)
    src_formulas = [conj([g if keep else neg(g) for g, keep in zip(generators, sig)])
                    for sig in source_sigs]

    # source atoms embed by signature: source marked words and on-image
    # lifted ones correspond one to one, and off the image every encoding is
    # false, so other cells are a fault unless no marked word exists
    sig_atoms = lifted.atom_of_signature
    keys = [sig + (True,) for sig in source_sigs] if enc_vars else source_sigs
    off = (False,) * len(enc_gens)
    if sig_atoms.keys() != set(keys) | ({off} if enc_vars else set()):
        if bound < 1:
            raise BoundTooSmall("the lifted algebra has unexpected cells at "
                                "this bound", stage="lift_delta",
                                size=lifted.atom_count, bound=bound)
        raise InvariantViolated("the lifted algebra has unexpected cells",
                                stage="lift_delta", size=lifted.atom_count,
                                bound=bound)
    zeta = [sig_atoms[key] for key in keys]
    junk = sig_atoms[off] if enc_vars else None

    lift = LiftedAlgebra(alphabet=base, var=var, enc_vars=enc_vars,
                         source_generators=generators,
                         source_atom_formulas=tuple(src_formulas),
                         lifted=lifted, zeta=tuple(zeta), junk_atom=junk)
    return replace(lift, report=_square_check(lift, bound, reg, caps)) if check else lift


def zeta_relabel(lift: LiftedAlgebra, theta):
    """Carry a sentence over the lifted algebra's atom letters to one over
    the source algebra's atom letters: embedded atoms rename, the off-image
    atom's letter becomes the always-false formula."""
    syms = lift.lifted.atom_alphabet().symbols
    inverse = {syms[lifted_idx]: f"c{src_idx}"
               for src_idx, lifted_idx in enumerate(lift.zeta)}

    def leaf(node):
        if isinstance(node, LetterPred):
            if node.symbol in inverse:
                return LetterPred(inverse[node.symbol], node.var)
            if lift.junk_atom is not None and node.symbol == syms[lift.junk_atom]:
                return FALSE
            raise ParseError(f"letter {node.symbol!r} is not an atom letter "
                             "of the lifted algebra")
        return node

    return map_atoms(theta, leaf)


def sigma_source(lift: LiftedAlgebra, theta):
    """Substitute the source algebra's atom formulas into a sentence over
    the source atom letters (the many-variable side of the square)."""
    by_symbol = {f"c{i}": phi
                 for i, phi in enumerate(lift.source_atom_formulas)}
    return substitute_letters(theta, by_symbol, lift.var)


def _square_samples(atom_count, quantifier="E", zvar="z"):
    """Deterministic sample sentences over atom letters c0..: the empty and
    full disjunctions, all singletons, the first pair, and one negation."""
    subsets = ([(), tuple(range(atom_count))] + [(i,) for i in range(atom_count)]
               + [(0, 1)] * (atom_count >= 2))
    out = [Quant(quantifier, zvar, disj(LetterPred(f"c{i}", zvar) for i in B))
           for B in subsets]
    return out + [neg(out[1])]


def _square_check(lift: LiftedAlgebra, bound, reg, caps) -> Report:
    base, enc_vars, lifted = lift.alphabet, lift.enc_vars, lift.lifted
    params = {"alphabet": list(base.symbols), "encoded": list(enc_vars),
              "variable": lift.var, "atoms": len(lift.source_atom_formulas),
              "bound": bound}
    thetas = _square_samples(lifted.atom_count)
    # both readings of every sample, evaluated as one family
    check_table("marked word table", len(base), len(enc_vars), bound, caps)
    truth = marked_truth([decode_multi(sigma(lifted, t), enc_vars, base)
                          for t in thetas]
                         + [sigma_source(lift, zeta_relabel(lift, t)) for t in thetas],
                         base, enc_vars, bound, reg)
    differ = truth[:len(thetas)] != truth[len(thetas):]
    bad = np.flatnonzero(differ.any(axis=1))
    stats = {"sentences": int(bad[0]) + 1 if len(bad) else len(thetas)}
    if len(bad):
        mw = marked_word_at(base, enc_vars, bound, int(np.argmax(differ[bad[0]])))
        return Report("lift-square", params, False,
                      counterexample=f"{to_dsl(thetas[bad[0]])} differs on {mw}",
                      stats=stats)
    return Report("lift-square", params, True, stats=stats)
