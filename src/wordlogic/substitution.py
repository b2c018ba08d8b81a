"""Substitution of formula algebras for letters.

A finite Boolean algebra of one-mark formulas has finitely many atoms, and
those atoms classify every marked position of every word.  Reading off the
atom of each position turns a word over the base alphabet into a word over
the atom alphabet; substituting the atom formulas into a sentence over the
atom alphabet goes the other way.  The central fact, checked here word by
word, is that the two directions agree: a word satisfies the substituted
sentence exactly when its atom word satisfies the original one.  The
sentences substituted are those of a set of quantifiers over the atom
letters (``SentenceClass``), read on all atom words at once by its
``rows``.  Every layer of ``layers.depth_fragment`` is that step: cut by
``cells_by_signature`` and substituted by ``substitute_letters`` without
building such an algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType

import numpy as np

from . import finba
from .caps import DEFAULT, Caps
from .errors import BoundTooSmall, CapExceeded, InvariantViolated, ParseError
from .logic import (And, Formula, LetterPred, Quant, Registry, DEFAULT_REGISTRY,
                    conj, disj, Not, neg, formula_dfa, all_vars, free_vars,
                    fresh_binder, in_range, map_atoms, map_vars, marked_truth,
                    scope, to_dsl, truth_table)
from .regular import (Dfa, first_paths, image_dfa, product_closure,
                      shortlex_offsets, shortlex_rows, word_ids)
from .report import Report
from .semidirect import transfer_dfa
from .words import (Alphabet, ExtendedAlphabet, MarkedWord, check_table,
                    decode_marks, mark_alphabet)


# ---------------------------------------------------------------------------
# classes of sentences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SentenceClass:
    """The sentences of a set of quantifiers, uniformly in the alphabet.

    Over letters s0 .. s(k-1), sentence i is "Q x. the letter at x is in B":
    Q is ``quantifiers[i >> k]`` and B the letters of the subset mask
    ``i & (2^k - 1)`` (the empty subset giving Q x. FALSE).  The class itself
    is their closure under Boolean connectives, which is never materialized.
    """

    quantifiers: tuple

    def __post_init__(self):
        qs = self.quantifiers
        object.__setattr__(self, "quantifiers",
                           (qs,) if isinstance(qs, str) else tuple(qs))

    def sentence(self, i: int, symbols) -> Formula:
        k = len(symbols)
        return Quant(self.quantifiers[i >> k], "x",
                     disj(LetterPred(s, "x")
                          for j, s in enumerate(symbols) if (i >> j) & 1))

    def generator(self, alphabet):
        symbols = tuple(alphabet)
        return (self.sentence(i, symbols)
                for i in range(len(self.quantifiers) << len(symbols)))

    def rows(self, natoms, cells, lens, reg: Registry, caps: Caps):
        """The truth of every sentence over the atom letters c0 .. c(natoms-1)
        on atom words, in bulk.

        Row r of ``cells`` holds the atom (below ``natoms``) of each position
        of word r, -1 past ``lens[r]``.  Returns a bool matrix (sentences,
        words), sentence i in ``sentence`` order.  A quantifier with a count
        table (``Quantifier.by_count``) reads it at (word length, witnesses
        of the subset); any other is asked word by word.
        """
        total = len(self.quantifiers) << natoms
        if total > caps.sentence_budget:
            raise CapExceeded(f"{total} generating sentences at one layer "
                              f"(cap {caps.sentence_budget})",
                              stage="layer sentences", size=total,
                              cap=caps.sentence_budget)
        nrows, width = cells.shape
        # the witness counts of the masks on the rows, by doubling: mask
        # m + 2^b counts what m counts plus the row's positions in atom b
        hist = (cells[:, :, None] == np.arange(natoms)).sum(
            axis=1, dtype=np.min_scalar_type(width))
        counts = np.zeros((1 << natoms, nrows), dtype=hist.dtype)
        for b in range(natoms):
            counts[1 << b:2 << b] = counts[:1 << b] + hist[:, b]
        chunk = max(1, 1 << 22 >> max(nrows, 1).bit_length())
        truth = np.zeros((total, nrows), dtype=bool)
        for qi, qname in enumerate(self.quantifiers):
            q = reg.quantifier(qname)
            block = truth[qi << natoms:(qi + 1) << natoms]
            by_count = q.by_count(width)
            if by_count is None:
                for r, (row, n) in enumerate(zip(cells.tolist(), lens.tolist())):
                    for mask in range(1 << natoms):
                        block[mask, r] = q.evaluate([(mask >> b) & 1 for b in row[:n]])
                continue
            for lo in range(0, 1 << natoms, chunk):
                block[lo:lo + chunk] = by_count[lens, counts[lo:lo + chunk]]
        return truth


# ---------------------------------------------------------------------------
# finite formula algebras with one marked variable
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeltaAlgebra:
    """A finite Boolean algebra of one-free-variable formulas, by models.

    The cell table is the algebra: ``_atoms`` holds the atom of every
    position of every word of length <= bound (``regular.shortlex_rows``),
    -1 past the word, atoms numbered by first marked word in
    ``enumerate_marked`` order (``cells_by_signature``).  Each atom has a
    representative formula (the sign-conjunction of generators cutting it)
    and a letter c0, c1, ...; ``atom_of_signature`` is the read-only map
    from a generator signature to its atom.
    ``_atom_vars`` are the names ``sigma`` must avoid, ``_renamed`` its
    renamed conjuncts.
    """

    alphabet: Alphabet
    var: str
    bound: int
    generators: tuple            # formulas with free variable var
    atom_formulas: tuple         # one formula per atom, same order
    registry: Registry = field(default=None, compare=False, repr=False)
    caps: Caps = field(default=DEFAULT, compare=False, repr=False)
    atom_of_signature: MappingProxyType = field(default=None, compare=False,
                                                repr=False)
    _atoms: np.ndarray = field(default=None, compare=False, repr=False)
    _atom_vars: frozenset = field(default=None, compare=False, repr=False)
    _renamed: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    @property
    def atom_count(self):
        return len(self.atom_formulas)

    def atom_alphabet(self) -> Alphabet:
        return Alphabet(tuple(f"c{i}" for i in range(self.atom_count)))


def delta_algebra(alphabet, var, generators, bound=6,
                  registry: Registry = None, caps: Caps = DEFAULT) -> DeltaAlgebra:
    """Build the algebra of the given one-variable formulas at a bound.

    Atom representatives are the conjunctions of generators and negated
    generators describing each cell, so they are deterministic given the
    generator order, and their model sets are exactly the atoms (making the
    family a partition of the marked words: their disjunction is everything
    and they are pairwise disjoint), which is checked for all atoms at once.
    The generators are evaluated as one family (``logic.truth_table``), and
    the cells are their distinct signatures, numbered by first occurrence.
    """
    registry = registry or DEFAULT_REGISTRY
    if not isinstance(alphabet, (Alphabet, ExtendedAlphabet)):
        alphabet = Alphabet.of(alphabet)
    generators = tuple(generators)
    # sigma renames bound variables apart from every variable of the atoms
    atom_vars = {var}
    for g in generators:
        fv, bv = scope(g)
        if not fv <= {var}:
            raise ParseError(f"generator {to_dsl(g)} has free variables "
                             f"{sorted(fv - {var})} besides {var}")
        atom_vars |= fv | bv
    check_table("marked word table", len(alphabet), 1, bound, caps)
    letters, lens = shortlex_rows(len(alphabet), bound)
    inside = in_range(len(alphabet), bound, 1)
    truth = truth_table(generators, tuple(alphabet), (var,), letters, lens,
                        registry)[:, inside]
    atoms, sigs, formulas = cells_by_signature(generators, inside, truth,
                                               distinct_rows(truth.T), caps)
    atoms.flags.writeable = False  # atom_rows hands out views of it
    # each representative's models must be exactly its cell
    reps = marked_truth(formulas, alphabet, (var,), bound, registry)
    wrong = (reps != (atoms[inside] == np.arange(len(reps))[:, None])).any(axis=1)
    if wrong.any():
        raise InvariantViolated(f"the representative formula of atom {wrong.argmax()} "
                                "does not define its cell", stage="atom representatives")
    return DeltaAlgebra(alphabet=alphabet, var=var, bound=bound,
                        generators=generators, atom_formulas=formulas,
                        registry=registry, caps=caps,
                        atom_of_signature=MappingProxyType(
                            {sig: ai for ai, sig in enumerate(sigs)}),
                        _atoms=atoms,
                        _atom_vars=frozenset(atom_vars if formulas else {var}))


def distinct_rows(matrix) -> tuple:
    """The distinct rows of a bool matrix, numbered by first occurrence: the
    ascending indices of their first rows, and the number of every row.
    Rows are packed to bytes and numbered through a dict, with no sorting."""
    keys = row_keys(np.asarray(matrix, dtype=bool))
    number = dict(zip(dict.fromkeys(keys), itertools.count()))
    cell = np.fromiter(map(number.__getitem__, keys), np.int64, len(keys))
    # the running maximum of the numbers first reaches c at the first row of c
    return np.searchsorted(np.maximum.accumulate(cell), np.arange(len(number))), cell


def row_keys(matrix) -> list:
    """The rows of a bool matrix as bytes, column j at bit j % 8 of byte
    j // 8, so that ``int.from_bytes(key, "little")`` has bit j set exactly
    where the row is True at column j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    if not packed.shape[1]:
        return [b""] * len(packed)
    return np.ascontiguousarray(packed).view(f"V{packed.shape[1]}").ravel().tolist()


def cells_of(inside, cell) -> np.ndarray:
    """The numbers ``cell`` of the marked words at the entries of the mask
    ``inside``, scattered to an array of its shape holding -1 outside it."""
    cells = np.full(inside.shape, -1, dtype=np.int64)
    cells[inside] = cell
    return cells


def cells_by_signature(generators, inside, truth, split, caps):
    """The cells of the marked words at the entries of the mask ``inside``
    whose generator signatures are the columns of the bool matrix ``truth``
    (generators, marked words), as numbered by ``split``, their
    ``distinct_rows``: the cell of every entry of ``inside``'s shape (-1
    outside it), the signature of each cell, and its sign-conjunction."""
    first, cell = split
    finba.check_atoms(len(first), caps, "formula algebra atoms")
    sigs = [tuple(sig) for sig in truth[:, first].T.tolist()]
    # conjuncts are shared between cells (substitute_letters renames each once)
    negated = [neg(g) for g in generators]
    formulas = tuple(conj([g if keep else ng
                           for g, ng, keep in zip(generators, negated, sig)])
                     for sig in sigs)
    return cells_of(inside, cell), sigs, formulas


def _classified(delta: DeltaAlgebra, letters, lens) -> np.ndarray:
    """The atom of every position of padded letter rows by its generator
    signature (the generators evaluated as one family), -1 past the word,
    and -2 where no marked word of length <= delta.bound realizes it."""
    inside = np.arange(letters.shape[1]) < lens[:, None]
    truth = truth_table(delta.generators, tuple(delta.alphabet), (delta.var,),
                        letters, lens, delta.registry)[:, inside]
    atoms = np.full(letters.shape, -1, dtype=np.int64)
    atoms[inside] = [delta.atom_of_signature.get(sig, -2)
                     for sig in map(tuple, truth.T.tolist())]
    return atoms


def _word_atoms(delta: DeltaAlgebra, w) -> tuple:
    """One plain word as a row of letter indices (a letter outside the
    alphabet is refused) and the atoms of its positions, a (1, len(w))
    matrix: read off the algebra's table (at the word's shortlex id) up to
    its bound, and past it ``_classified``."""
    k = len(delta.alphabet)
    row = np.array([[delta.alphabet.index(a) for a in w]], dtype=np.int64)
    if len(w) <= delta.bound:
        r = word_ids(row, k, shortlex_offsets(k, delta.bound))
        return row, delta._atoms[r, :len(w)]
    return row, _classified(delta, row, np.array([len(w)]))


def xi(delta: DeltaAlgebra, mw: MarkedWord) -> int:
    """Atom index classifying one marked word (``_word_atoms``); past the
    bound its generator signature must be realized at the bound."""
    i = mw.pos(delta.var) - 1
    row, atoms = _word_atoms(delta, mw.word)
    _refuse_unrealized(delta, row, [len(mw.word)],
                       np.where(np.arange(len(mw.word)) == i, atoms, -1))
    return int(atoms[0, i])


def tau(delta: DeltaAlgebra, w) -> tuple:
    """Atom word of a plain word: position i maps to the atom of (w, i)."""
    row, atoms = _word_atoms(delta, tuple(w))
    _refuse_unrealized(delta, row, [len(row[0])], atoms)
    return tuple(atoms[0].tolist())


def atom_rows(delta: DeltaAlgebra, bound: int):
    """The atom words of all plain words of length <= bound, in bulk.

    Returns (letters, lens, atoms): the plain words as padded rows
    (``regular.shortlex_rows``) and a matrix of the same shape holding the
    atom index of each position (``xi``), -1 past the word.  Up to the
    algebra's bound this is the algebra's own table; past it
    ``_classified``, where a position whose generator signature no marked
    word of length <= delta.bound realizes (where ``xi`` refuses) reads -2.
    """
    letters, lens = shortlex_rows(len(delta.alphabet), bound)
    if bound <= delta.bound:
        return letters, lens, delta._atoms[:len(lens), :bound]
    return letters, lens, _classified(delta, letters, lens)


def _refuse_unrealized(delta: DeltaAlgebra, letters, lens, atoms):
    """Refuse with BoundTooSmall at the first position (row by row) of atom
    rows whose generator signature is unrealized (-2), if any."""
    bad = np.argwhere(atoms == -2)
    if len(bad):
        r, p = bad[0].tolist()
        mw = MarkedWord(_row_word(delta.alphabet, letters[r], lens[r]),
                        ((delta.var, p + 1),))
        raise BoundTooSmall(
            f"generator signature of {mw} is not realized by any word of "
            f"length <= {delta.bound}", stage="atom classification",
            size=len(mw.word), bound=delta.bound)


def _row_word(alphabet, row, n) -> tuple:
    syms = tuple(alphabet)
    return tuple(syms[i] for i in row[:n])


def tau_word(delta: DeltaAlgebra, w) -> tuple:
    """tau as a word over the atom alphabet's symbols."""
    syms = delta.atom_alphabet().symbols
    return tuple(syms[i] for i in tau(delta, w))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute_letters(psi: Formula, by_symbol: dict, var: str,
                       avoid=None, renamed: dict = None) -> Formula:
    """Replace each letter test P[c](z) by the formula ``by_symbol[c]`` with
    ``var`` renamed to z; other free variables of the replacement formulas
    stay free.

    Capture-free, in one pass: the sentence's binders become fresh z0, z1,
    ... (``fresh_binder``) apart from ``var`` and the variables of the
    replacement formulas (``avoid``, computed from them when not given),
    and renaming ``var`` (``map_vars``) refuses a free variable of the
    sentence that a replacement formula binds.  Each conjunct of a
    replacement formula is renamed once per variable, in ``renamed`` (kept
    across calls when given; keyed by the conjunct object's identity, so it
    must not outlive the replacement formulas); a conjunct Not(g) is Not of
    the renaming of g, which it shares with a conjunct g.
    """
    if avoid is None:
        avoid = frozenset({var}).union(*map(all_vars, by_symbol.values()))
    renamed = {} if renamed is None else renamed

    def leaf(ren, node):
        if not isinstance(node, LetterPred):
            return map_vars(node, ren)
        if node.symbol not in by_symbol:
            raise ParseError(f"letter {node.symbol!r} is not an atom of "
                             f"the algebra being substituted")
        phi = by_symbol[node.symbol]
        parts = phi.args if isinstance(phi, And) else (phi,)
        out = tuple(_rename(p, var, ren.get(node.var, node.var), renamed) for p in parts)
        # what map_vars builds from the whole formula
        return And(out) if isinstance(phi, And) else out[0]

    return map_atoms(psi, partial(leaf, {}),
                     fresh_binder(free_vars(psi).union(avoid)))


def _rename(p, var, z, renamed):
    """A conjunct ``p`` of a replacement formula with ``var`` renamed to z,
    kept in ``renamed`` for ``substitute_letters``."""
    if (id(p), z) not in renamed:
        renamed[id(p), z] = Not(_rename(p.sub, var, z, renamed)) if isinstance(p, Not) \
            else map_vars(p, {var: z})
    return renamed[id(p), z]


def sigma(delta: DeltaAlgebra, psi: Formula) -> Formula:
    """Substitute the atom formulas of ``delta`` into a sentence over the
    atom alphabet: every letter test for atom c at a position z becomes the
    atom's formula with its free variable renamed to z.  Each conjunct of
    the atom formulas is renamed once per variable and algebra."""
    syms = delta.atom_alphabet().symbols
    return substitute_letters(psi, dict(zip(syms, delta.atom_formulas)),
                              delta.var, delta._atom_vars, delta._renamed)


def check_substitution_principle(delta: DeltaAlgebra, psi: Formula,
                                 bound: int = None, registry: Registry = None,
                                 caps: Caps = DEFAULT) -> Report:
    """Word-by-word equivalence of the two readings of a sentence: on atom
    words through the position classifier, and on plain words through
    substitution.  Checks every plain word up to the bound, in bulk; the
    counterexample is the first differing word in shortlex order."""
    registry = registry or delta.registry or DEFAULT_REGISTRY
    bound = delta.bound if bound is None else bound
    sub = sigma(delta, psi)
    syms = delta.atom_alphabet().symbols
    params = {"alphabet": list(delta.alphabet.symbols),
              "atoms": len(syms), "bound": bound,
              "sentence": to_dsl(psi)}
    check_table("word table", len(delta.alphabet), 0, bound, caps)
    letters, lens, atoms = atom_rows(delta, bound)
    lhs = truth_table((psi,), syms, (), atoms, lens, registry)[0]
    rhs = truth_table((sub,), tuple(delta.alphabet), (), letters, lens, registry)[0]
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
# preimages of regular languages of atom words
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AtomTransduction:
    """Regular presentation of the position-classifying transduction.

    ``delta`` holds the transitions, from state 0, of the reachable product
    over the one-mark alphabet ``ext`` of the generators' compiled automata
    and the marked-word image; ``label[q]`` is the atom of every marked
    word that reaches state q, or None where no marked word does.
    ``preimage(K)`` is the exact regular language of plain words whose atom
    word lands in K.
    """

    ext: ExtendedAlphabet
    delta: tuple
    label: tuple

    def preimage(self, kdfa: Dfa, caps: Caps = DEFAULT) -> Dfa:
        """Minimal automaton of the plain words whose atom word is accepted
        by ``kdfa`` (a DFA over the atom letters c0, c1, ... in atom order):
        the block product of the product's marked states, each labelled by
        its atom, with ``kdfa`` (``semidirect.transfer_dfa``)."""
        return transfer_dfa(self.ext.base.symbols, self.delta, 0, self.label,
                            kdfa.delta, kdfa.init, kdfa.accepting, caps,
                            "transfer automaton")


def atom_transduction(delta: DeltaAlgebra, caps: Caps = DEFAULT) -> AtomTransduction:
    """The position classifier of a one-mark formula algebra, compiled
    exactly, at every length.

    Each generator is compiled once over the one-mark alphabet
    (``logic.formula_dfa``; one that is not monoid-presentable raises
    NotMonoidPresentable), and one ``product_closure`` (stage "atom
    transduction") builds their product with the marked-word image
    (``regular.image_dfa``).
    A marked state is labelled by the atom (``atom_of_signature``) of the
    generators' accepting bits there.  A marked state whose signature no
    marked word of length <= ``delta.bound`` realizes is refused with
    BoundTooSmall, naming the shortest marked word that reaches it, which
    ``xi`` refuses too.
    """
    if not isinstance(delta.alphabet, Alphabet):
        raise ParseError("the atom transduction needs an algebra over a plain "
                         f"alphabet, not {delta.alphabet.symbols}",
                         stage="atom transduction")
    ext = mark_alphabet(delta.alphabet, delta.var)
    reg = delta.registry or DEFAULT_REGISTRY
    dfas = [formula_dfa(g, delta.alphabet, (delta.var,), delta.bound, reg, caps)[1]
            for g in delta.generators] + [image_dfa(ext)]
    states, _, edges = product_closure([d.delta for d in dfas], [d.init for d in dfas],
                                       caps.dfa_states, "atom transduction")
    label = []
    for q, st in enumerate(states):
        *sig, marked = (s in d.accepting for d, s in zip(dfas, st))
        atom = delta.atom_of_signature.get(tuple(sig)) if marked else None
        if marked and atom is None:
            mw = decode_marks(first_paths(edges, ext.symbols)[q], ext)
            raise BoundTooSmall(
                f"generator signature of {mw} is not realized by any word of "
                f"length <= {delta.bound}", stage="atom transduction",
                size=len(mw.word), bound=delta.bound)
        label.append(atom)
    return AtomTransduction(ext=ext, delta=tuple(map(tuple, edges)),
                            label=tuple(label))


@dataclass(frozen=True, eq=False)
class WOdotC:
    """Exact preimages of a family of atom-word languages, and the
    transduction that pulls them back."""

    transduction: AtomTransduction
    preimages: tuple          # exact DFAs over the base alphabet, per generator


def _accepts_rows(dfa: Dfa, letters, lens) -> np.ndarray:
    """Which padded rows of letter indices (-1 past the word) ``dfa``
    accepts, run on all rows at once."""
    delta = np.asarray(dfa.delta, dtype=np.int64)
    state = np.full(len(lens), dfa.init, dtype=np.int64)
    for p in range(letters.shape[1]):
        state = np.where(p < lens, delta[state, letters[:, p]], state)
    return np.isin(state, list(dfa.accepting))


def w_odot_c(w_dfas, delta: DeltaAlgebra, caps: Caps = DEFAULT) -> WOdotC:
    """Exact preimages of regular languages of atom words.

    ``w_dfas`` are DFAs over the atom letters of ``delta`` (c0, c1, ... in
    atom order); each is pulled back to an exact DFA over the base alphabet
    (``atom_transduction``) and cross-checked extensionally on all words of
    length <= ``delta.bound``, whose atom words are the algebra's own table
    (``atom_rows``).  The transduction is exact, so a disagreement is a
    fault of the construction: InvariantViolated names the first word.
    """
    td = atom_transduction(delta, caps)
    atom_syms = delta.atom_alphabet().symbols
    letters, lens, atoms = atom_rows(delta, delta.bound)
    pre = []
    for k in w_dfas:
        if tuple(k.alphabet) != atom_syms:
            raise ParseError(f"language alphabet {k.alphabet} does not match "
                             f"the atom letters {atom_syms}")
        d = td.preimage(k, caps)
        want = _accepts_rows(k, atoms, lens)
        differ = np.flatnonzero(_accepts_rows(d, letters, lens) != want)
        if len(differ):
            r = differ[0]
            word = "".join(_row_word(delta.alphabet, letters[r],
                                     lens[r])) or "<empty>"
            raise InvariantViolated(
                f"the preimage disagrees with the algebra's atom table on "
                f"{word}", stage="atom transduction", word=word)
        pre.append(d)
    return WOdotC(transduction=td, preimages=tuple(pre))


# ---------------------------------------------------------------------------
# compatibility along inclusions of algebras
# ---------------------------------------------------------------------------

def tau_compat(gamma: SentenceClass, small: DeltaAlgebra, big: DeltaAlgebra,
               bound: int = None, registry: Registry = None,
               caps: Caps = DEFAULT) -> Report:
    """Compatibility of the position classifiers of nested algebras.

    The inclusion of the small algebra in the big one is decided on the
    marked words up to the lower of their bounds, which is also the default
    ``bound``.  Its dual maps each big atom onto the small atom of its first
    marked word; applying it letterwise to the big atom word must give the
    small atom word, and the substituted algebra of the small one (the
    truth of ``gamma``'s sentences on its atom words) must sit inside that
    of the big one.
    """
    registry = registry or small.registry or DEFAULT_REGISTRY
    low = min(small.bound, big.bound)
    bound = low if bound is None else bound
    params = {"alphabet": list(small.alphabet.symbols),
              "small_atoms": small.atom_count, "big_atoms": big.atom_count,
              "bound": bound}
    top = max(low, bound)
    check_table("word table", len(small.alphabet), 0, top, caps)
    # each big atom to the small atom at its first entry; the entries -2
    # and -1 land in two extra places, and -1 (past the word) goes to -1
    keys, first = np.unique(atom_rows(big, top)[2], return_index=True)
    zeta = np.zeros(big.atom_count + 2, dtype=np.int64)
    zeta[keys] = atom_rows(small, top)[2].ravel()[first]
    if not np.array_equal(zeta[atom_rows(big, low)[2]], atom_rows(small, low)[2]):
        return Report(check="tau-compat", params=params, passed=False,
                      counterexample="first algebra is not a subalgebra of "
                      "the second")
    letters, lens, big_atoms = atom_rows(big, bound)
    small_atoms = atom_rows(small, bound)[2]
    # -1 (past the word) relabels to -1; the first word that differs or has
    # an unclassifiable position (refused, like ``tau``) ends the scan
    lhs = zeta[big_atoms]
    stop = np.flatnonzero(((big_atoms == -2) | (small_atoms == -2)
                           | (lhs != small_atoms)).any(axis=1))
    if len(stop):
        r, n = int(stop[0]), int(lens[stop[0]])
        for delta, atoms in ((big, big_atoms), (small, small_atoms)):
            _refuse_unrealized(delta, letters[r:r + 1], lens[r:r + 1],
                               atoms[r:r + 1])
        word = "".join(_row_word(small.alphabet, letters[r], n)) or "<empty>"
        return Report(check="tau-compat", params=params, passed=False,
                      counterexample=f"word {word}: relabeled big atom word "
                      f"{tuple(lhs[r, :n].tolist())} differs from small atom "
                      f"word {tuple(small_atoms[r, :n].tolist())}",
                      stats={"words": r + 1})
    # the substituted algebras: the words cut by their sentence rows
    small_cells, big_cells = (
        distinct_rows(gamma.rows(delta.atom_count, atoms, lens, registry, caps).T)[1]
        for delta, atoms in ((small, small_atoms), (big, big_atoms)))
    stats = {"words": len(lens)}
    merged = np.zeros(len(lens), dtype=np.int64)
    merged[big_cells] = small_cells
    if not np.array_equal(merged[big_cells], small_cells):
        return Report(check="tau-compat", params=params, passed=False,
                      counterexample="substituted algebra of the small "
                      "algebra is not contained in that of the big one",
                      stats=stats)
    stats["small_odot"] = int(small_cells.max()) + 1
    stats["big_odot"] = int(big_cells.max()) + 1
    return Report(check="tau-compat", params=params, passed=True, stats=stats)
