"""Substitution of formula algebras for letters.

A finite Boolean algebra of one-mark formulas has finitely many atoms, and
those atoms classify every marked position of every word.  Reading off the
atom of each position turns a word over the base alphabet into a word over
the atom alphabet; substituting the atom formulas into a sentence over the
atom alphabet goes the other way.  The central fact, checked here word by
word, is that the two directions agree: a word satisfies the substituted
sentence exactly when its atom word satisfies the original one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import caps as _caps
from . import finba
from .caps import Caps
from .errors import BoundTooSmall, CapExceeded, ParseError
from .logic import (Formula, LetterPred, TRUE, Registry, DEFAULT_REGISTRY, conj,
                    neg, free_vars, all_vars, in_range, map_atoms, map_vars,
                    marked_truth, models, rename_bound, satisfies, to_dsl,
                    truth_table)
from .regular import (Dfa, dfa_from_bounded, shortlex_rows,
                      syntactic_stamp_of_family)
from .report import Report
from .semidirect import transfer_dfa
from .words import (Alphabet, BoundedLang, ExtendedAlphabet, MarkedWord,
                    check_table, embed_marked, enumerate_marked,
                    enumerate_words, mark_alphabet)


# ---------------------------------------------------------------------------
# classes of sentences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SentenceClass:
    """A family of sentences given uniformly in the alphabet.

    ``generator(alphabet)`` yields the generating sentences of the family
    over that alphabet; the family itself is their closure under Boolean
    connectives, which is never materialized.
    """

    name: str
    generator: callable = field(compare=False)

    def generators(self, alphabet: Alphabet) -> tuple:
        return tuple(self.generator(alphabet))


# ---------------------------------------------------------------------------
# finite formula algebras with one marked variable
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeltaAlgebra:
    """A finite Boolean algebra of one-free-variable formulas, by models.

    ``ba`` is the algebra of languages of marked words of length <= bound
    generated by the given formulas; its atoms get representative formulas
    (the sign-conjunction of generators cutting the cell) and letter names
    c0, c1, ... in atom order.  ``_atom_of`` maps each marked word of the
    carrier to its atom index, ``_atoms`` holds the same indices as the
    atom words of all words of length <= bound (``atom_rows``), and
    ``_atom_vars`` holds ``var`` and every variable of the atom formulas,
    the names ``sigma`` must avoid.
    """

    alphabet: Alphabet
    var: str
    bound: int
    generators: tuple            # formulas with free variable var
    ba: finba.FinBA
    atom_formulas: tuple         # one formula per atom, same order
    registry: Registry = field(default=None, compare=False, repr=False)
    _sig_to_atom: dict = field(default=None, compare=False, repr=False)
    _atom_of: dict = field(default=None, compare=False, repr=False)
    _atoms: np.ndarray = field(default=None, compare=False, repr=False)
    _atom_vars: frozenset = field(default=None, compare=False, repr=False)

    @property
    def atom_count(self):
        return len(self.ba.atoms)

    def atom_alphabet(self) -> Alphabet:
        return Alphabet(tuple(f"c{i}" for i in range(self.atom_count)))


def delta_algebra(alphabet, var, generators, bound=6,
                  registry: Registry = None, caps: Caps = None,
                  verify=True) -> DeltaAlgebra:
    """Build the algebra of the given one-variable formulas at a bound.

    Atom representatives are the conjunctions of generators and negated
    generators describing each cell, so they are deterministic given the
    generator order, and their model sets are exactly the atoms (making the
    family a partition of the marked words: their disjunction is everything
    and they are pairwise disjoint).  Model sets are evaluated in bulk
    (``logic.marked_truth``).

    ``verify=False`` skips the per-atom representative check, for callers
    whose generators are large trees and whose cells are checked elsewhere.
    """
    caps = caps or _caps.from_env()
    registry = registry or DEFAULT_REGISTRY
    if not isinstance(alphabet, (Alphabet, ExtendedAlphabet)):
        alphabet = Alphabet.of(alphabet)
    generators = tuple(generators)
    for g in generators:
        fv = free_vars(g)
        if not fv <= {var}:
            raise ParseError(f"generator {to_dsl(g)} has free variables "
                             f"{sorted(fv - {var})} besides {var}")
    carrier = tuple(enumerate_marked(alphabet, (var,), bound, caps))
    letters, lens = shortlex_rows(len(alphabet), bound)
    inside, sigs = _signatures(generators, tuple(alphabet), var, letters, lens,
                               registry)
    ba, atom_sigs = finba.partition(carrier, sigs, caps)
    sig_to_atom = {sig: ai for ai, sig in enumerate(atom_sigs)}
    atom_of = np.array([sig_to_atom[sig] for sig in sigs], dtype=np.int64)
    atoms = np.full(letters.shape, -1, dtype=np.int64)
    atoms[inside] = atom_of
    atoms.flags.writeable = False  # atom_rows hands out views of it

    # representative formula per atom: the defining sign-conjunction
    atom_formulas = []
    for ai, sig in enumerate(atom_sigs):
        parts = [g if keep else neg(g) for g, keep in zip(generators, sig)]
        phi = conj(parts) if parts else TRUE
        atom_formulas.append(phi)
        # the representative's models must be exactly the cell
        if verify and not np.array_equal(
                marked_truth(phi, alphabet, (var,), bound, registry), atom_of == ai):
            raise ParseError("atom representative formula does not define its cell")
    # every atom formula conjoins each generator or its negation and is not
    # constant-false (its cell is not empty), so it mentions exactly the
    # generators' variables
    atom_vars = frozenset({var}).union(*map(all_vars, generators)) \
        if atom_formulas else frozenset({var})
    return DeltaAlgebra(alphabet=alphabet, var=var, bound=bound,
                        generators=generators, ba=ba,
                        atom_formulas=tuple(atom_formulas),
                        registry=registry, _sig_to_atom=sig_to_atom,
                        _atom_of=dict(zip(carrier, atom_of.tolist())),
                        _atoms=atoms, _atom_vars=atom_vars)


def _signatures(generators, symbols, var, letters, lens, registry):
    """The generator signatures of the marked words (one mark, ``var``) of
    padded letter rows, in ``enumerate_marked`` order, and the mask of the
    rows' positions they come from (``logic.in_range``)."""
    inside = in_range(lens, letters.shape[1], 1)
    truth = np.array([truth_table(g, symbols, (var,), letters, lens, registry)[inside]
                      for g in generators], dtype=bool)
    truth = truth.reshape(len(generators), int(inside.sum()))
    return inside, [tuple(sig) for sig in truth.T.tolist()]


def xi(delta: DeltaAlgebra, mw: MarkedWord) -> int:
    """Atom index classifying one marked word (any length: classification
    is by the generator signature, which must be realized at the bound)."""
    if delta._atom_of is not None and mw in delta._atom_of:
        return delta._atom_of[mw]
    reg = delta.registry or DEFAULT_REGISTRY
    sig = tuple(satisfies(mw, g, reg) for g in delta.generators)
    try:
        return delta._sig_to_atom[sig]
    except KeyError:
        raise BoundTooSmall(
            f"generator signature of {mw} is not realized by any word of "
            f"length <= {delta.bound}", bound=delta.bound)


def tau(delta: DeltaAlgebra, w) -> tuple:
    """Atom word of a plain word: position i maps to the atom of (w, i)."""
    w = tuple(w)
    return tuple(xi(delta, MarkedWord(w, ((delta.var, i),)))
                 for i in range(1, len(w) + 1))


def atom_rows(delta: DeltaAlgebra, bound: int):
    """The atom words of all plain words of length <= bound, in bulk.

    Returns (letters, lens, atoms): the plain words as padded rows
    (``regular.shortlex_rows``) and a matrix of the same shape holding the
    atom index of each position (``xi``), -1 past the word.  Up to the
    algebra's bound this is the algebra's own table; past it the generators
    are evaluated, and a position whose generator signature no marked word
    of length <= delta.bound realizes (where ``xi`` refuses) reads -2.
    """
    letters, lens = shortlex_rows(len(delta.alphabet), bound)
    if bound <= delta.bound:
        return letters, lens, delta._atoms[:len(lens), :bound]
    inside, sigs = _signatures(delta.generators, tuple(delta.alphabet),
                               delta.var, letters, lens,
                               delta.registry or DEFAULT_REGISTRY)
    atoms = np.full(letters.shape, -1, dtype=np.int64)
    atoms[inside] = [delta._sig_to_atom.get(sig, -2) for sig in sigs]
    return letters, lens, atoms


def _refuse_unrealized(delta: DeltaAlgebra, letters, lens, atoms):
    """Refuse like ``xi`` at the first position of ``atom_rows`` with an
    unrealized generator signature, if any."""
    bad = np.flatnonzero((atoms == -2).any(axis=1))
    if len(bad):
        r = int(bad[0])
        pos = int(np.flatnonzero(atoms[r] == -2)[0]) + 1
        xi(delta, MarkedWord(_row_word(delta.alphabet, letters[r], lens[r]),
                             ((delta.var, pos),)))


def _row_word(alphabet, row, n) -> tuple:
    syms = tuple(alphabet)
    return tuple(syms[i] for i in row[:n])


def tau_word(delta: DeltaAlgebra, w) -> tuple:
    """tau as a word over the atom alphabet's symbols."""
    syms = delta.atom_alphabet().symbols
    return tuple(syms[i] for i in tau(delta, w))


def tau_table(delta: DeltaAlgebra, bound: int, caps: Caps = None) -> dict:
    """All atom words at once: maps each plain word of length <= bound to
    its atom-index tuple."""
    caps = caps or _caps.from_env()
    table = {(): ()}
    for w in enumerate_words(delta.alphabet, bound, caps):
        if w:
            table[w] = tau(delta, w)
    return table


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute_letters(psi: Formula, by_symbol: dict, var: str,
                       avoid=None) -> Formula:
    """Replace each letter test P[c](z) by the formula ``by_symbol[c]`` with
    ``var`` renamed to z; other free variables of the replacement formulas
    stay free.

    The sentence's bound variables are first renamed to fresh z0, z1, ... so
    they cannot collide with ``var`` or the variables of the replacement
    formulas (``avoid``, computed from them when not given); the renaming is
    systematic, making the output deterministic.
    """
    if avoid is None:
        avoid = frozenset({var}).union(*map(all_vars, by_symbol.values()))
    psi = rename_bound(psi, avoid | free_vars(psi))

    def leaf(node):
        if isinstance(node, LetterPred):
            if node.symbol not in by_symbol:
                raise ParseError(f"letter {node.symbol!r} is not an atom of "
                                 f"the algebra being substituted")
            return map_vars(by_symbol[node.symbol], {var: node.var})
        return node

    return map_atoms(psi, leaf)


def sigma(delta: DeltaAlgebra, psi: Formula) -> Formula:
    """Substitute the atom formulas of ``delta`` into a sentence over the
    atom alphabet: every letter test for atom c at a position z becomes the
    atom's formula with its free variable renamed to z."""
    syms = delta.atom_alphabet().symbols
    return substitute_letters(psi, dict(zip(syms, delta.atom_formulas)),
                              delta.var, delta._atom_vars)


def check_substitution_principle(delta: DeltaAlgebra, psi: Formula,
                                 bound: int = None, registry: Registry = None,
                                 caps: Caps = None) -> Report:
    """Word-by-word equivalence of the two readings of a sentence: on atom
    words through the position classifier, and on plain words through
    substitution.  Checks every plain word up to the bound, in bulk; the
    counterexample is the first differing word in shortlex order."""
    caps = caps or _caps.from_env()
    registry = registry or delta.registry or DEFAULT_REGISTRY
    bound = delta.bound if bound is None else bound
    sub = sigma(delta, psi)
    syms = delta.atom_alphabet().symbols
    params = {"alphabet": list(delta.alphabet.symbols),
              "atoms": len(syms), "bound": bound,
              "sentence": to_dsl(psi)}
    check_table("word table", len(delta.alphabet), 0, bound, caps)
    letters, lens, atoms = atom_rows(delta, bound)
    lhs = truth_table(psi, syms, (), atoms, lens, registry)
    rhs = truth_table(sub, tuple(delta.alphabet), (), letters, lens, registry)
    # a word with an unclassifiable position is refused unless an earlier
    # word already differs
    unrealized = np.flatnonzero((atoms == -2).any(axis=1))
    limit = int(unrealized[0]) if len(unrealized) else len(lens)
    differ = np.flatnonzero(lhs[:limit] != rhs[:limit])
    if len(differ):
        r = int(differ[0])
        word = "".join(_row_word(delta.alphabet, letters[r], lens[r])) or "<empty>"
        return Report(check="substitution-principle", params=params,
                      passed=False,
                      counterexample=f"word {word}: atom-word reading "
                      f"{bool(lhs[r])}, substituted reading {bool(rhs[r])}",
                      stats={"words": r + 1})
    _refuse_unrealized(delta, letters, lens, atoms)
    return Report(check="substitution-principle", params=params, passed=True,
                  stats={"words": len(lens)})


# ---------------------------------------------------------------------------
# the algebra of substituted sentences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OdotResult:
    """The Boolean algebra over plain words cut out by a sentence class
    through an algebra of position formulas.

    ``ba`` has the plain words up to the bound as carrier; generator i is
    the preimage of sentence i of the class (over the atom alphabet) under
    the position-classifying transduction, and ``formulas[i]`` is its
    substituted form over the base alphabet.
    """

    delta: DeltaAlgebra
    gamma: SentenceClass
    bound: int
    sentences: tuple          # sentences over the atom alphabet
    formulas: tuple           # their substituted images over the base
    gen_langs: tuple          # frozensets of plain words
    ba: finba.FinBA


def gamma_odot(gamma: SentenceClass, delta: DeltaAlgebra, bound: int = None,
               registry: Registry = None, caps: Caps = None) -> OdotResult:
    """Apply a sentence class through a position algebra.

    The languages are computed on the atom side (evaluate each generating
    sentence on the atom word of every plain word) and the substituted
    formulas are attached; that the two presentations agree is the
    substitution principle, checked separately.
    """
    caps = caps or _caps.from_env()
    registry = registry or delta.registry or DEFAULT_REGISTRY
    bound = delta.bound if bound is None else bound
    atom_alpha = delta.atom_alphabet()
    sentences = gamma.generators(atom_alpha)
    if len(sentences) > caps.sentence_budget:
        raise CapExceeded(f"{len(sentences)} generating sentences "
                          f"(cap {caps.sentence_budget})", cap="sentence_budget")
    syms = atom_alpha.symbols
    check_table("word table", len(delta.alphabet), 0, bound, caps)
    letters, lens, atoms = atom_rows(delta, bound)
    _refuse_unrealized(delta, letters, lens, atoms)
    words = tuple(enumerate_words(delta.alphabet, bound, caps))  # row order
    carrier = tuple(sorted(words, key=lambda w: (len(w), w)))
    gen_langs = [frozenset(itertools.compress(
        words, truth_table(psi, syms, (), atoms, lens, registry)))
        for psi in sentences]
    ba = finba.generate(carrier, gen_langs, caps)
    formulas = tuple(sigma(delta, psi) for psi in sentences)
    return OdotResult(delta=delta, gamma=gamma, bound=bound,
                      sentences=tuple(sentences), formulas=formulas,
                      gen_langs=tuple(gen_langs), ba=ba)


def circ_closure(gamma: SentenceClass, delta: DeltaAlgebra, bound: int = None,
                 registry: Registry = None, caps: Caps = None) -> OdotResult:
    """Like gamma_odot but additionally closing with the sentences already
    present among the algebra's generators (those not using the marked
    variable), read as plain-word languages."""
    caps = caps or _caps.from_env()
    registry = registry or delta.registry or DEFAULT_REGISTRY
    bound = delta.bound if bound is None else bound
    base = gamma_odot(gamma, delta, bound, registry, caps)
    extra_sentences = []
    extra_langs = []
    for g in delta.generators:
        if delta.var not in free_vars(g):
            extra_sentences.append(g)
            extra_langs.append(frozenset(
                mw.word for mw in models(g, delta.alphabet, bound, context=(),
                                         registry=registry, caps=caps)))
    carrier = tuple(sorted(set(base.ba.carrier), key=lambda w: (len(w), w)))
    ba = finba.generate(carrier, list(base.gen_langs) + extra_langs, caps)
    return OdotResult(delta=delta, gamma=gamma, bound=bound,
                      sentences=base.sentences + tuple(extra_sentences),
                      formulas=base.formulas + tuple(extra_sentences),
                      gen_langs=base.gen_langs + tuple(extra_langs), ba=ba)


# ---------------------------------------------------------------------------
# preimages of regular languages of atom words
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AtomTransduction:
    """Regular presentation of the position-classifying transduction.

    Built from the embedded atom languages of a marked-word algebra: the
    joint syntactic morphism of the embeddings, the plain and marked letter
    images, and the atom of every marked class.  ``preimage(K)`` is the
    exact regular language of plain words whose atom word lands in K.
    """

    ext: ExtendedAlphabet
    stamp: object
    p_img: dict
    mark_img: dict
    atom_of_class: dict
    atom_count: int

    def letter_of(self, t) -> int:
        return self.atom_of_class[t]

    def preimage(self, kdfa: Dfa, caps: Caps = None) -> Dfa:
        """Plain words whose atom word is accepted by ``kdfa`` (a DFA over
        the atom letters c0, c1, ... in atom order)."""
        caps = caps or _caps.from_env()
        tab = self.stamp.monoid.table
        out = transfer_dfa(self.ext.base.symbols,
                           lambda x, y: tab[x][y],
                           self.stamp.monoid.identity,
                           self.p_img, self.mark_img, self.letter_of, kdfa,
                           caps)
        return out.minimize()


def atom_transduction(delta_ba: finba.FinBA, alphabet, var, bound,
                      caps: Caps = None) -> AtomTransduction:
    """Infer DFAs for the embedded atoms of a marked-word algebra and
    package them as a transduction.

    Raises BoundTooSmall if the inferred atom languages fail to classify
    every marked class unambiguously.
    """
    caps = caps or _caps.from_env()
    alphabet = Alphabet.of(alphabet)
    ext = mark_alphabet(alphabet, var)
    from .regular import image_dfa
    image = image_dfa(ext)
    atom_dfas = []
    for atom in delta_ba.atoms:
        emb = frozenset(embed_marked(mw, (var,), ext=ext) for mw in atom)
        lang = BoundedLang(alphabet=ext, bound=bound, words=emb)
        d = dfa_from_bounded(lang, caps)
        atom_dfas.append(d.intersect(image).minimize())
    stamp = syntactic_stamp_of_family(atom_dfas, caps)
    p_img = {a: stamp.letter(ext.symbol(a, ())) for a in alphabet.symbols}
    mark_img = {a: stamp.letter(ext.symbol(a, (var,))) for a in alphabet.symbols}
    atom_of_class = {}
    for t in range(len(stamp.monoid)):
        rep = stamp.reps[t]
        hits = [i for i, d in enumerate(atom_dfas) if d.accepts(rep)]
        if len(hits) == 1:
            atom_of_class[t] = hits[0]
    return AtomTransduction(ext=ext, stamp=stamp, p_img=p_img,
                            mark_img=mark_img, atom_of_class=atom_of_class,
                            atom_count=len(delta_ba.atoms))


@dataclass(frozen=True, eq=False)
class WOdotC:
    """Preimage algebra of a family of atom-word languages."""

    transduction: AtomTransduction
    preimages: tuple          # exact DFAs over the base alphabet, per generator
    ba: finba.FinBA           # bounded shadow over plain words <= bound
    bound: int


def w_odot_c(w_dfas, delta_ba: finba.FinBA, alphabet, var, bound,
             caps: Caps = None) -> WOdotC:
    """Exact preimages of regular languages of atom words.

    ``w_dfas`` are DFAs over the atom letters (c0, c1, ... in the atom
    order of ``delta_ba``); each is pulled back to an exact DFA over the
    base alphabet and cross-checked extensionally on all words <= bound.
    """
    caps = caps or _caps.from_env()
    alphabet = Alphabet.of(alphabet)
    td = atom_transduction(delta_ba, alphabet, var, bound, caps)
    atom_syms = tuple(f"c{i}" for i in range(len(delta_ba.atoms)))
    pre = []
    langs = []
    carrier = tuple(enumerate_words(alphabet, bound, caps))
    # extensional atom word via the algebra itself
    def atom_word(wd):
        return tuple(
            atom_syms[delta_ba.atom_index_of(MarkedWord(wd, ((var, i),)))]
            for i in range(1, len(wd) + 1))

    for k in w_dfas:
        if tuple(k.alphabet) != atom_syms:
            raise ParseError(f"language alphabet {k.alphabet} does not match "
                             f"the atom letters {atom_syms}")
        d = td.preimage(k, caps)
        ext_lang = frozenset(wd for wd in carrier if k.accepts(atom_word(wd)))
        got = frozenset(wd for wd in carrier if d.accepts(wd))
        if got != ext_lang:
            diff = next(iter(got ^ ext_lang))
            raise BoundTooSmall(
                f"inferred transduction disagrees with the algebra on "
                f"{''.join(diff) or '<empty>'}", bound=bound)
        pre.append(d)
        langs.append(ext_lang)
    ba = finba.generate(carrier, langs, caps)
    return WOdotC(transduction=td, preimages=tuple(pre), ba=ba, bound=bound)


# ---------------------------------------------------------------------------
# compatibility along inclusions of algebras
# ---------------------------------------------------------------------------

def tau_compat(gamma: SentenceClass, small: DeltaAlgebra, big: DeltaAlgebra,
               bound: int = None, registry: Registry = None,
               caps: Caps = None) -> Report:
    """Compatibility of the position classifiers of nested algebras.

    The dual of the inclusion maps atoms of the big algebra onto atoms of
    the small one; applying it letterwise to the big atom word must give
    the small atom word, and the substituted algebra of the small one must
    sit inside that of the big one.
    """
    caps = caps or _caps.from_env()
    registry = registry or small.registry or DEFAULT_REGISTRY
    bound = min(small.bound, big.bound) if bound is None else bound
    params = {"alphabet": list(small.alphabet.symbols),
              "small_atoms": small.atom_count, "big_atoms": big.atom_count,
              "bound": bound}
    if not finba.is_subalgebra(small.ba, big.ba):
        return Report(check="tau-compat", params=params, passed=False,
                      counterexample="first algebra is not a subalgebra of "
                      "the second")
    zeta = finba.dual_of_inclusion(small.ba, big.ba)
    stats = {"words": 0}
    for w in enumerate_words(small.alphabet, bound, caps):
        stats["words"] += 1
        lhs = tuple(zeta[i] for i in tau(big, w))
        rhs = tau(small, w)
        if lhs != rhs:
            return Report(check="tau-compat", params=params, passed=False,
                          counterexample=f"word {''.join(w) or '<empty>'}: "
                          f"relabeled big atom word {lhs} differs from small "
                          f"atom word {rhs}", stats=stats)
    small_odot = gamma_odot(gamma, small, bound, registry, caps)
    big_odot = gamma_odot(gamma, big, bound, registry, caps)
    if not finba.is_subalgebra(small_odot.ba, big_odot.ba):
        return Report(check="tau-compat", params=params, passed=False,
                      counterexample="substituted algebra of the small "
                      "algebra is not contained in that of the big one",
                      stats=stats)
    stats["small_odot"] = len(small_odot.ba.atoms)
    stats["big_odot"] = len(big_odot.ba.atoms)
    return Report(check="tau-compat", params=params, passed=True, stats=stats)
