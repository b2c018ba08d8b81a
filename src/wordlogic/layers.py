"""Stacking layers of quantifiers.

A set of quantifiers gives a class of sentences ("Q over a subset of the
letters", ``substitution.SentenceClass``); applying it through an algebra
of one-variable formulas adds one quantifier layer.  Iterating from the
quantifier-free formulas in n variables stratifies sentences by quantifier
depth.  Every layer is the same step (the substitution principle): it cuts
the marked words of its variables into cells by the truth of the layer
below, quantifies one variable over unions of cells (``SentenceClass.rows``),
and leaves the others free for the layers above; the last layer's cells
are the atom words of the plain words.  An independent enumeration of
depth-bounded sentences provides the oracle the stratification is checked
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import finba
from .caps import DEFAULT, Caps
from .errors import CapExceeded, InvariantViolated, ParseError
from .logic import (LetterPred, NumPred, Registry, DEFAULT_REGISTRY,
                    all_vars, conj, disj, in_range, marked_truth, neg, relabel,
                    to_dsl, truth_table)
from .regular import shortlex_offsets, shortlex_rows, word_ids
from .report import Report
from .substitution import (SentenceClass, cells_by_signature, cells_of,
                           distinct_rows, row_keys, substitute_letters)
from .words import Alphabet, check_table, enumerate_words, format_word


# ---------------------------------------------------------------------------
# the sentence class of a quantifier set
# ---------------------------------------------------------------------------

def gamma_q(qnames, registry: Registry = None) -> SentenceClass:
    """The sentence class of a set of quantifiers, its names resolved in
    the registry: Q x. or-over-B P_b(x) for every listed quantifier and
    every subset B of the letters (``SentenceClass.sentence``)."""
    gamma = SentenceClass(qnames)
    for q in gamma.quantifiers:
        (registry or DEFAULT_REGISTRY).quantifier(q)
    return gamma


def check_gamma_laws(qnames, zeta: dict, bound=4, registry: Registry = None,
                     caps: Caps = DEFAULT) -> Report:
    """The two laws of a sentence class, sampled at a bound: Boolean
    combinations of generators stay inside the generated algebra, and
    relabeling letters along a map carries generators over one alphabet to
    members over the other, with the relabeled language equal to the
    letterwise preimage.  Each family of sentences is evaluated in one call;
    a language is in the algebra exactly when it is constant on each cell
    of the words cut by the generators."""
    reg = registry or DEFAULT_REGISTRY
    gamma = gamma_q(qnames, reg)
    src = Alphabet(tuple(sorted(set(zeta))))           # zeta: src -> dst
    dst = Alphabet(tuple(sorted(set(zeta.values()))))
    params = {"quantifiers": list(gamma.quantifiers),
              "map": {k: zeta[k] for k in sorted(zeta)}, "bound": bound}
    check_table("word enumeration", len(src), 0, bound, caps)
    gens_src = tuple(gamma.generator(src))
    first, cell = distinct_rows(marked_truth(gens_src, src, (), bound, reg).T)
    finba.check_atoms(len(first), caps)
    stats = {"generators": len(gens_src), "relabeled": 0}

    def outside(phis):  # the languages, and which leave the algebra
        langs = marked_truth(phis, src, (), bound, reg)
        return langs, (langs[:, first][:, cell] != langs).any(axis=1)

    samples = []
    if gens_src:
        samples.append(neg(gens_src[0]))
    if len(gens_src) >= 2:
        samples.append(conj((gens_src[0], gens_src[1])))
        samples.append(disj((gens_src[0], neg(gens_src[1]))))
    left = np.flatnonzero(outside(samples)[1])
    if len(left):
        return Report("sentence-class-laws", params, False,
                      counterexample=f"Boolean combination "
                      f"{to_dsl(samples[left[0]])} left the generated algebra",
                      stats=stats)

    gens_dst = tuple(gamma.generator(dst))
    langs, left = outside([relabel(zeta, g) for g in gens_dst])
    # each word's relabeling as a row of destination letters (the appended
    # -1 keeps the padding), read at its id among the destination's words
    to_dst = np.array([dst.index(zeta[a]) for a in src] + [-1])
    ids = word_ids(to_dst[shortlex_rows(len(src), bound)[0]], len(dst),
                   shortlex_offsets(len(dst), bound))
    preimage = marked_truth(gens_dst, dst, (), bound, reg)[:, ids]
    wrong = (langs != preimage).any(axis=1)
    bad = np.flatnonzero(wrong | left)
    stats["relabeled"] = int(bad[0]) + 1 if len(bad) else len(gens_dst)
    if len(bad):
        law = "is not the letterwise preimage" if wrong[bad[0]] \
            else "left the generated algebra"
        return Report("sentence-class-laws", params, False,
                      counterexample=f"relabeling of {to_dsl(gens_dst[bad[0]])} {law}",
                      stats=stats)
    return Report("sentence-class-laws", params, True, stats=stats)


# ---------------------------------------------------------------------------
# fragments by quantifier depth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FragmentSpec:
    """A depth-stratified fragment at desk scale: alphabet, quantifier and
    numerical-predicate names, nesting depth, and the word-length bound all
    languages are cut at."""

    alphabet: Alphabet
    quantifiers: tuple
    predicates: tuple = ()
    depth: int = 1
    bound: int = 6

    def __post_init__(self):
        object.__setattr__(self, "alphabet", Alphabet.of(self.alphabet))
        qs = self.quantifiers
        object.__setattr__(self, "quantifiers",
                           (qs,) if isinstance(qs, str) else tuple(qs))
        ps = self.predicates
        object.__setattr__(self, "predicates",
                           (ps,) if isinstance(ps, str) else tuple(ps))
        if self.depth < 0:
            raise ParseError("depth must be nonnegative")


@dataclass(frozen=True)
class FragmentResult:
    """The algebra of depth-bounded sentences as bounded languages, with a
    representative sentence per generator."""

    spec: FragmentSpec
    ba: finba.FinBA            # carrier: plain words up to the bound
    formulas: tuple            # representative sentences over the alphabet
    languages: tuple           # their languages, aligned with formulas
    stats: dict = field(default_factory=dict, compare=False)


def _sentence_class(spec: FragmentSpec, reg: Registry) -> SentenceClass:
    """The spec's sentence class, after resolving its quantifier and
    predicate names."""
    gamma = gamma_q(spec.quantifiers, reg)
    for p in spec.predicates:
        reg.numpred(p)
    return gamma


def _guard_scale(spec: FragmentSpec):
    if spec.depth > 4 or (spec.depth >= 3 and len(spec.alphabet) >= 2):
        raise CapExceeded("fragment enumeration is desk-scale: depth and "
                          "alphabet size multiply", stage="fragment scale",
                          size=spec.depth,
                          cap=4 if len(spec.alphabet) < 2 else 2,
                          alphabet=len(spec.alphabet))


def _qf_truth(spec: FragmentSpec, ctx, reg: Registry):
    """The quantifier-free generators over the variables ``ctx`` (letter
    tests, then the spec's numerical predicates) and their truth, as one
    family, on the marked words of length <= the bound: the ``in_range``
    mask of the padded rows, and a (generators, marked words) bool matrix."""
    symbols = spec.alphabet.symbols
    gens = [LetterPred(a, v) for v in ctx for a in symbols] + [
        NumPred(p, args) for p in spec.predicates
        for args in itertools.product(ctx, repeat=reg.numpred(p).arity)]
    letters, lens = shortlex_rows(len(symbols), spec.bound)
    inside = in_range(len(symbols), spec.bound, len(ctx))
    return gens, inside, truth_table(gens, symbols, ctx, letters, lens, reg)[:, inside]


def _refining_rows(truth, finest: int) -> np.ndarray:
    """Indices of a refining subfamily of the rows of a bool matrix: scanned
    in order, a row is kept exactly when it splits a block of the partition
    of the columns built so far, so the kept rows generate the same algebra
    of subsets.  Rows and blocks are bitmasks of the columns (``row_keys``
    read as integers).  A repeated row never splits and is skipped, and the
    scan stops at ``finest`` blocks, the number of distinct columns."""
    blocks = [(1 << truth.shape[1]) - 1]
    seen, kept = set(), []
    for i, key in enumerate(row_keys(truth)):
        if len(blocks) == finest:
            break
        if key not in seen:
            seen.add(key)
            row = int.from_bytes(key, "little")
            parts = [part for b in blocks for part in (b & row, b & ~row) if part]
            if len(parts) > len(blocks):
                kept.append(i)
                blocks = parts
    return np.array(kept, dtype=np.int64)


def depth_fragment(spec: FragmentSpec, registry: Registry = None,
                   caps: Caps = DEFAULT) -> FragmentResult:
    """The algebra of bounded languages of sentences of quantifier depth at
    most ``spec.depth``.

    Layer by layer, innermost first, over the variables x1 .. xn: layer k
    quantifies x(k+1) and leaves the spare variables above it free.  Layer
    0 evaluates the quantifier-free generators once on the marked words of
    all n variables; every later layer takes its generators' truth on its
    marked words from the kept rows of the layer below.  A layer cuts its
    marked words into cells by those signatures, numbered by first marked
    word, and evaluates every quantifier over every union of cells along
    the quantified variable's positions, one row per word and spare
    positions.  The distinct rows are thinned to a refining subfamily, and
    each kept sentence becomes the next layer's generator by substituting
    the cells' sign-conjunctions for its atom letters.  The last layer's
    cells are the atom words of the plain words: each kept sentence read on
    them must give its row (InvariantViolated otherwise), and the rows
    generate the algebra, over the plain words in ``enumerate_words`` order.
    """
    reg = registry or DEFAULT_REGISTRY
    gamma = _sentence_class(spec, reg)
    _guard_scale(spec)
    A, n, L = spec.alphabet, spec.depth, spec.bound
    plain = tuple(enumerate_words(A, L, caps))
    if n == 0:
        ba = finba.generate(plain, [], caps)
        return FragmentResult(spec, ba, (), (), {"layers": 0})

    xs = tuple(f"x{i}" for i in range(1, n + 1))
    check_table("marked word table", len(A), n, L, caps)
    lens = shortlex_rows(len(A), L)[1]
    gens, inside, truth = _qf_truth(spec, xs, reg)
    split = distinct_rows(truth.T)
    stats = {"layers": []}
    for k, keep in enumerate(xs):
        spare = xs[k + 1:]
        cells, _, atom_formulas = cells_by_signature(gens, inside, truth, split, caps)
        natoms = len(atom_formulas)
        # one row per word and spare positions, along the positions of keep
        inside = in_range(len(A), L, len(spare))
        cut = np.broadcast_to(lens[(slice(None),) + (None,) * len(spare)],
                              inside.shape)[inside]
        symbols = tuple(f"c{i}" for i in range(natoms))
        rows = gamma.rows(natoms, np.moveaxis(cells, 1, -1)[inside], cut, reg,
                          caps)
        # the kept rows cut the columns as all rows do, in the same order
        split = distinct_rows(rows.T)
        kept = _refining_rows(rows, len(split[0]))
        truth = rows[kept]
        sentences = [gamma.sentence(i, symbols) for i in kept.tolist()]
        stats["layers"].append({"atoms": natoms, "sentences": len(rows),
                                "kept": len(sentences)})
        by_symbol = dict(zip(symbols, atom_formulas))
        avoid = frozenset(xs).union(*map(all_vars, gens))
        renamed = {}
        gens = [substitute_letters(psi, by_symbol, keep, avoid, renamed)
                for psi in sentences]

    # the last layer's cells are the atom words of the plain words, on which
    # each kept sentence must give its row
    differ = (truth_table(sentences, symbols, (), cells, lens, reg) != truth).any(axis=1)
    if differ.any():
        raise InvariantViolated(f"the sentence {to_dsl(sentences[differ.argmax()])} "
                                "differs on the atom words from its layer "
                                "enumeration", stage="depth_fragment")
    langs = tuple(frozenset(itertools.compress(plain, row)) for row in truth)
    ba = finba.partition(plain, split[1].tolist(), caps)[0]
    return FragmentResult(spec, ba, tuple(gens), langs, stats)


# ---------------------------------------------------------------------------
# the independent oracle
# ---------------------------------------------------------------------------

def depth_direct(spec: FragmentSpec, registry: Registry = None,
                 caps: Caps = DEFAULT) -> finba.FinBA:
    """Depth-bounded sentences enumerated without the layer machinery.

    Sentences of depth one are a quantifier over a body from the
    quantifier-free one-variable algebra; of depth two, a quantifier over a
    body from the algebra generated by quantifier-free tests and the
    depth-one facts about the remaining variable.  Bodies range over all
    elements of those algebras (unions of atoms), truth is evaluated
    directly on the words, and the results generate the answer.  Marked
    words are indices in ``logic.in_range`` order.  Depths above two are
    refused.
    """
    reg = registry or DEFAULT_REGISTRY
    gamma = _sentence_class(spec, reg)
    A, n, L = spec.alphabet, spec.depth, spec.bound
    plain = tuple(enumerate_words(A, L, caps))
    if n == 0:
        return finba.generate(plain, [], caps)
    if n > 2:
        raise CapExceeded("the direct enumeration supports depth <= 2",
                          stage="direct enumeration", size=n, cap=2)
    check_table("marked word table", len(A), n, L, caps)
    v1, v2 = "y1", "y2"
    lens = shortlex_rows(len(A), L)[1]

    if n == 1:
        _, inside, truth = _qf_truth(spec, (v1,), reg)
        first, cell = distinct_rows(truth.T)
    else:
        # inner facts about (word, position of v2), in in_range order, each
        # a row of the cells of the positions of v1
        _, inside2, truth2 = _qf_truth(spec, (v1, v2), reg)
        first2, cell2 = distinct_rows(truth2.T)
        inside = in_range(len(A), L, 1)
        cut1 = np.broadcast_to(lens[:, None], inside.shape)[inside]
        inner = gamma.rows(len(first2), cells_of(inside2, cell2).transpose(0, 2, 1)[inside],
                           cut1, reg, caps)
        # the algebra of the inner facts and the quantifier-free tests of v2
        qf2 = _qf_truth(spec, (v2,), reg)[2]
        first, cell = distinct_rows(np.vstack([inner, qf2]).T)
        finba.check_atoms(len(first), caps)

    outer = gamma.rows(len(first), cells_of(inside, cell), lens, reg, caps)
    return finba.partition(plain, distinct_rows(outer.T)[1].tolist(), caps)[0]


# ---------------------------------------------------------------------------
# comparisons and dumps
# ---------------------------------------------------------------------------

def same_language_algebra(a: finba.FinBA, b: finba.FinBA) -> bool:
    """Equality as algebras of bounded languages: same carrier, same atom
    partition."""
    return (frozenset(a.carrier) == frozenset(b.carrier)
            and {frozenset(x) for x in a.atoms}
            == {frozenset(x) for x in b.atoms})


def _separated_pair(a: finba.FinBA, b: finba.FinBA, words) -> str:
    """The shortlex-first pair of ``words`` (the common carrier, in
    shortlex order) that one algebra separates and the other does not."""
    cells = [np.array([ba.atom_index_of(w) for w in words]) for ba in (a, b)]
    same = [c[:, None] == c[None, :] for c in cells]
    u, v = np.argwhere(np.triu(same[0] != same[1], 1))[0]
    split, joined = ("fragment", "direct enumeration") if same[1][u, v] \
        else ("direct enumeration", "fragment")
    return (f"the {split} separates {format_word(words[u]) or '<empty>'} and "
            f"{format_word(words[v]) or '<empty>'}; the {joined} does not")


def check_fragment_against_direct(spec: FragmentSpec,
                                  registry: Registry = None,
                                  caps: Caps = DEFAULT) -> Report:
    """The layered fragment and the direct enumeration give the same algebra
    of bounded languages; a failure names the shortlex-first pair of words
    one of them separates and the other does not."""
    frag = depth_fragment(spec, registry, caps)
    direct = depth_direct(spec, registry, caps)
    ok = same_language_algebra(frag.ba, direct)
    witness = None
    if not ok:
        words = tuple(enumerate_words(spec.alphabet, spec.bound, caps))
        witness = _separated_pair(frag.ba, direct, words)
    return Report("fragment-vs-direct",
                  {"alphabet": list(spec.alphabet.symbols),
                   "quantifiers": list(spec.quantifiers),
                   "predicates": list(spec.predicates),
                   "depth": spec.depth, "bound": spec.bound},
                  ok, counterexample=witness,
                  stats={"fragment_atoms": len(frag.ba.atoms),
                         "direct_atoms": len(direct.atoms)})


def check_monotone(spec: FragmentSpec, registry: Registry = None,
                   caps: Caps = DEFAULT) -> Report:
    """The depth-n algebra embeds in the depth-(n+1) algebra."""
    lo = depth_fragment(spec, registry, caps)
    hi_spec = FragmentSpec(spec.alphabet, spec.quantifiers, spec.predicates,
                           spec.depth + 1, spec.bound)
    hi = depth_fragment(hi_spec, registry, caps)
    ok = finba.is_subalgebra(lo.ba, hi.ba)
    return Report("fragment-monotone",
                  {"alphabet": list(spec.alphabet.symbols),
                   "quantifiers": list(spec.quantifiers),
                   "depth": spec.depth, "bound": spec.bound},
                  ok,
                  counterexample=None if ok else
                  "a depth-n language is outside the depth-(n+1) algebra",
                  stats={"low_atoms": len(lo.ba.atoms),
                         "high_atoms": len(hi.ba.atoms)})


def dump_fragment(result: FragmentResult) -> dict:
    """JSON-ready summary: representative formulas with their sorted
    bounded languages, plus the atom count of the generated algebra."""
    gens = []
    for phi, lang in zip(result.formulas, result.languages):
        gens.append({
            "formula": to_dsl(phi),
            "language": [format_word(w)
                         for w in sorted(lang, key=lambda w: (len(w), w))],
        })
    return {
        "schema": "wordlogic/1",
        "kind": "fragment",
        "alphabet": list(result.spec.alphabet.symbols),
        "quantifiers": list(result.spec.quantifiers),
        "predicates": list(result.spec.predicates),
        "depth": result.spec.depth,
        "bound": result.spec.bound,
        "atoms": len(result.ba.atoms),
        "generators": gens,
        "stats": result.stats,
    }
