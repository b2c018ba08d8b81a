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

from dataclasses import dataclass, field

import numpy as np

from .caps import DEFAULT, Caps
from .errors import BoundTooSmall, InvariantViolated, ParseError
from .logic import (And, LetterPred, Not, NumPred, Or, Quant, TRUE, FALSE,
                    Registry, DEFAULT_REGISTRY, conj, disj, neg, all_vars,
                    free_vars, fresh_names, in_range, map_atoms, marked_truth,
                    marked_word_at, scope, to_dsl, truth_table)
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


def _source_letters(base: Alphabet, prior: tuple):
    """The letters a formula may test before one more variable is encoded:
    triples (symbol, base symbol, set of variables already in the letter)."""
    if prior:
        src = ExtendedAlphabet(base, prior)
        return src, tuple((s, *src.split(s)) for s in src.symbols)
    return base, tuple((s, s, frozenset()) for s in base.symbols)


# ---------------------------------------------------------------------------
# the image sentence
# ---------------------------------------------------------------------------

def phi_sentence(alphabet, var="x", prior=(), zvar=None):
    """The sentence over the marked alphabet whose models are exactly the
    embedded marked words: exactly one position carries the new mark."""
    base = _base_alphabet(alphabet)
    prior = tuple(prior)
    _, letters = _source_letters(base, prior)
    ext = ExtendedAlphabet(base, prior + (var,))
    z = zvar or next(fresh_names({var, *prior}))
    body = disj(LetterPred(ext.symbol(b, T | {var}), z) for _, b, T in letters)
    return Quant("E1", z, body)


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
    _, letters = _source_letters(base, prior)
    by_symbol = {s: (b, T) for s, b, T in letters}
    ext = ExtendedAlphabet(base, prior + (var,))
    avoid = free | bound | {var} | set(prior)
    fresh = fresh_names(avoid)

    def leaf(node):
        if isinstance(node, LetterPred):
            if node.symbol not in by_symbol:
                raise ParseError(f"letter {node.symbol!r} is not over the "
                                 "codec's source alphabet")
            b, T = by_symbol[node.symbol]
            marked = LetterPred(ext.symbol(b, T | {var}), node.var)
            if node.var == var:
                z = next(fresh)
                return Quant("E", z, LetterPred(ext.symbol(b, T | {var}), z))
            return Or((marked, LetterPred(ext.symbol(b, T), node.var)))
        if isinstance(node, NumPred):
            if var in node.args:
                z = next(fresh)
                guard = disj(LetterPred(ext.symbol(b, T | {var}), z)
                             for _, b, T in letters)
                args = tuple(z if a == var else a for a in node.args)
                return Quant("E", z, conj((guard, NumPred(node.name, args))))
        return node

    tilde = map_atoms(phi, leaf)
    pinned = phi_sentence(base, var, prior, zvar=next(fresh))
    return conj((tilde, pinned))


def decode(psi, var, alphabet, prior=()):
    """Pull the mark for ``var`` back out of the letters.

    ``psi`` is a formula over A x 2^(prior + var) not mentioning var; the
    result is over A x 2^prior with var free: a letter test whose letter
    carries the mark asserts the tested position is var, one without the
    mark asserts it is not.
    """
    prior = tuple(prior)
    if var in all_vars(psi):
        raise ParseError(f"variable {var!r} occurs in the formula being "
                         "decoded")
    base = _base_alphabet(alphabet)
    src = ExtendedAlphabet(base, prior + (var,))

    def out_symbol(b, T):
        if prior:
            return ExtendedAlphabet(base, prior).symbol(b, T)
        return b

    def leaf(node):
        if isinstance(node, LetterPred):
            if node.symbol not in src:
                raise ParseError(f"letter {node.symbol!r} is not over the "
                                 "codec's marked alphabet")
            b, T = src.split(node.symbol)
            if var in T:
                return And((LetterPred(out_symbol(b, T - {var}), node.var),
                            NumPred("=", (var, node.var))))
            return And((LetterPred(out_symbol(b, T), node.var),
                        Not(NumPred("=", (var, node.var)))))
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

def _in_image(letters, encoded: int) -> np.ndarray:
    """Per padded row of letters over A x 2^encoded (letter base_index *
    2^encoded + mask): does every encoded variable mark exactly one
    position?  The bulk form of ``words.in_marked_image``."""
    bits = (letters[:, :, None] >> np.arange(encoded)) & 1
    return ((bits * (letters >= 0)[:, :, None]).sum(axis=1) == 1).all(axis=1)


def roundtrip_check(phi, enc_vars, alphabet, bound=5,
                    registry: Registry = None, caps: Caps = DEFAULT,
                    psi=None) -> Report:
    """Two facts at a bound: decoding an encoding gives the formula back,
    and encoding a decoding fixes exactly the embedded-image part of the
    model set.

    The second fact is checked for ``psi`` (default: the encoding of
    ``phi``): a marked-alphabet word satisfies encode(decode(psi)) exactly
    when it satisfies psi and lies in the image of the embedding.  Both are
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

    decoded = back if psi is None else decode_multi(psi, enc_vars, base)
    psi = encoded if psi is None else psi
    both = encode_multi(decoded, enc_vars, base)
    ctx2 = tuple(sorted((free_vars(psi) | free_vars(both)) - set(enc_vars)))
    check_table("marked word table", len(ext), len(ctx2), bound, caps)
    letters, lens = shortlex_rows(len(ext), bound)
    image = _in_image(letters, len(enc_vars))[(slice(None),) + (None,) * len(ctx2)]
    inside = in_range(len(ext), bound, len(ctx2))
    want, got = truth_table((psi, both), ext.symbols, ctx2, letters, lens, reg)
    want = (want & image)[inside]
    differ = np.flatnonzero(want != got[inside])
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

    report = None
    if check:
        report = _square_check(base, var, enc_vars, src_formulas, lifted,
                               tuple(zeta), junk, bound, reg, caps)
    return LiftedAlgebra(alphabet=base, var=var, enc_vars=enc_vars,
                         source_generators=generators,
                         source_atom_formulas=tuple(src_formulas),
                         lifted=lifted, zeta=tuple(zeta), junk_atom=junk,
                         report=report)


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
    subsets = [(), tuple(range(atom_count))]
    subsets += [(i,) for i in range(atom_count)]
    if atom_count >= 2:
        subsets.append((0, 1))
    out = []
    for B in subsets:
        out.append(Quant(quantifier, zvar,
                         disj(LetterPred(f"c{i}", zvar) for i in B)))
    out.append(neg(out[1]))
    return out


def _square_check(base, var, enc_vars, src_formulas, lifted, zeta, junk,
                  bound, reg, caps) -> Report:
    lift = LiftedAlgebra(alphabet=base, var=var, enc_vars=enc_vars,
                         source_generators=(),
                         source_atom_formulas=tuple(src_formulas),
                         lifted=lifted, zeta=zeta, junk_atom=junk)
    params = {"alphabet": list(base.symbols), "encoded": list(enc_vars),
              "variable": var, "atoms": len(src_formulas), "bound": bound}
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
