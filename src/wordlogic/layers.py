"""Stacking layers of quantifiers.

A set of quantifiers gives a class of sentences (generated by "Q over a
subset of the letters"); applying it through an algebra of one-variable
formulas adds one quantifier layer.  Iterating from the quantifier-free
formulas in n variables stratifies sentences by quantifier depth.  Every
layer is the same step (the substitution principle): it cuts the marked
words of its variables into cells by the truth of the layer below,
quantifies one variable over unions of cells, and leaves the others free
for the layers above; the last layer's cells are the atom words of the
plain words.  An independent enumeration of depth-bounded sentences
provides the oracle the stratification is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import finba
from .caps import DEFAULT, Caps
from .errors import CapExceeded, InvariantViolated, ParseError
from .logic import (LetterPred, NumPred, Quant, Registry, DEFAULT_REGISTRY,
                    all_vars, conj, disj, in_range, neg, models, relabel,
                    to_dsl, truth_table)
from .regular import shortlex_rows
from .report import Report
from .substitution import (SentenceClass, cells_by_signature, distinct_rows,
                           substitute_letters)
from .words import (Alphabet, check_table, enumerate_words, format_word,
                    subsets_in_order)


# ---------------------------------------------------------------------------
# the sentence class of a quantifier set
# ---------------------------------------------------------------------------

def gamma_q(qnames, registry: Registry = None) -> SentenceClass:
    """The class of sentences generated, over each alphabet, by one
    quantifier applied to a disjunction of letter tests: Q x. or-over-B
    P_b(x) for every listed quantifier and every subset B of the letters
    (the empty subset giving Q x. FALSE)."""
    qnames = (qnames,) if isinstance(qnames, str) else tuple(qnames)
    reg = registry or DEFAULT_REGISTRY
    for q in qnames:
        reg.quantifier(q)

    def generator(alphabet):
        syms = tuple(alphabet)
        for q in qnames:
            for sub in subsets_in_order(syms):
                yield Quant(q, "x",
                            disj(LetterPred(a, "x") for a in syms if a in sub))

    return SentenceClass(name="Q[" + ",".join(qnames) + "]",
                         generator=generator)


def check_gamma_laws(qnames, zeta: dict, bound=4, registry: Registry = None,
                     caps: Caps = DEFAULT) -> Report:
    """The two laws of a sentence class, sampled at a bound: Boolean
    combinations of generators stay inside the generated algebra, and
    relabeling letters along a map carries generators over one alphabet to
    members over the other, with the relabeled language equal to the
    letterwise preimage."""
    reg = registry or DEFAULT_REGISTRY
    gamma = gamma_q(qnames, reg)
    src = Alphabet(tuple(sorted(set(zeta))))           # zeta: src -> dst
    dst = Alphabet(tuple(sorted(set(zeta.values()))))
    params = {"quantifiers": list((qnames,) if isinstance(qnames, str)
                                  else qnames),
              "map": {k: zeta[k] for k in sorted(zeta)}, "bound": bound}
    stats = {"generators": 0, "relabeled": 0}

    def plain_models(phi, alphabet):
        return frozenset(m.word for m in
                         models(phi, alphabet, bound, context=(),
                                registry=reg, caps=caps))

    carrier = tuple(enumerate_words(src, bound, caps))
    gens_src = gamma.generators(src)
    langs = [plain_models(g, src) for g in gens_src]
    algebra = finba.generate(carrier, langs, caps)
    stats["generators"] = len(gens_src)

    samples = []
    if gens_src:
        samples.append(neg(gens_src[0]))
    if len(gens_src) >= 2:
        samples.append(conj((gens_src[0], gens_src[1])))
        samples.append(disj((gens_src[0], neg(gens_src[1]))))
    for phi in samples:
        lang = plain_models(phi, src)
        if not algebra.member(lang):
            return Report("sentence-class-laws", params, False,
                          counterexample=f"Boolean combination {to_dsl(phi)} "
                                         "left the generated algebra",
                          stats=stats)

    dst_models = {}
    for g in gamma.generators(dst):
        stats["relabeled"] += 1
        rel = relabel(zeta, g)
        lang = plain_models(rel, src)
        if g not in dst_models:
            dst_models[g] = plain_models(g, dst)
        preimage = frozenset(w for w in carrier
                             if tuple(zeta[a] for a in w) in dst_models[g])
        if lang != preimage:
            return Report("sentence-class-laws", params, False,
                          counterexample=f"relabeling of {to_dsl(g)} is not "
                                         "the letterwise preimage",
                          stats=stats)
        if not algebra.member(lang):
            return Report("sentence-class-laws", params, False,
                          counterexample=f"relabeling of {to_dsl(g)} left "
                                         "the generated algebra",
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


def _resolve_names(spec: FragmentSpec, reg: Registry):
    for q in spec.quantifiers:
        reg.quantifier(q)
    for p in spec.predicates:
        reg.numpred(p)


def _guard_scale(spec: FragmentSpec):
    if spec.depth > 4 or (spec.depth >= 3 and len(spec.alphabet) >= 2):
        raise CapExceeded("fragment enumeration is desk-scale: depth and "
                          "alphabet size multiply", stage="fragment scale",
                          size=spec.depth,
                          cap=4 if len(spec.alphabet) < 2 else 2,
                          alphabet=len(spec.alphabet))


def _qf_generators(spec: FragmentSpec, ctx, reg: Registry):
    gens = [LetterPred(a, v) for v in ctx for a in spec.alphabet.symbols]
    for p in spec.predicates:
        arity = reg.numpred(p).arity
        gens.extend(NumPred(p, args)
                    for args in itertools.product(ctx, repeat=arity))
    return gens


def _subset_sentence_languages(qnames, natoms, cells, lens, reg: Registry,
                               caps: Caps):
    """Truth of every sentence "Q position. atom-of-position in B".

    Row r of ``cells`` holds the atom index (below ``natoms``) of each
    position of carrier element r, -1 past ``lens[r]``.  Returns a bool
    matrix (sentences, rows): sentence i quantifies ``qnames[i >> natoms]``
    over the atoms of the subset mask ``i & (2^natoms - 1)``.  A quantifier
    with a count table (``Quantifier.by_count``) reads it at (row length,
    witnesses of the subset); any other is asked row by row.
    """
    total = len(qnames) << natoms
    if total > caps.sentence_budget:
        raise CapExceeded(f"{total} generating sentences at one layer "
                          f"(cap {caps.sentence_budget})",
                          stage="layer sentences", size=total,
                          cap=caps.sentence_budget)
    nrows, width = cells.shape
    # the witness counts of the masks on the rows: each row's histogram of
    # atoms times the bits of each mask, one integer matrix product
    hist = (cells[:, :, None] == np.arange(natoms)).sum(axis=1)
    member = (np.arange(1 << natoms)[:, None] >> np.arange(natoms)) & 1
    chunk = max(1, 1 << 22 >> max(nrows, 1).bit_length())
    truth = np.zeros((total, nrows), dtype=bool)
    for qi, qname in enumerate(qnames):
        q = reg.quantifier(qname)
        block = truth[qi << natoms:(qi + 1) << natoms]
        by_count = q.by_count(width)
        if by_count is None:
            for r, (row, n) in enumerate(zip(cells.tolist(), lens.tolist())):
                for mask in range(1 << natoms):
                    block[mask, r] = q.evaluate([(mask >> b) & 1 for b in row[:n]])
            continue
        for lo in range(0, 1 << natoms, chunk):
            block[lo:lo + chunk] = by_count[lens, member[lo:lo + chunk] @ hist.T]
    return truth


def _refining_rows(truth) -> np.ndarray:
    """Indices of a refining subfamily of the rows of a bool matrix: scanned
    in order, a row is kept exactly when it splits a block of the partition
    of the columns built so far, so the kept rows generate the same algebra
    of subsets.  A repeated row never splits, so each distinct row is
    scanned once, at its first occurrence."""
    block = np.zeros(truth.shape[1], dtype=np.int64)
    blocks = min(1, truth.shape[1])
    kept = []
    for i in distinct_rows(truth)[0].tolist():
        key = 2 * block + truth[i]
        seen = np.zeros(2 * blocks, dtype=bool)
        seen[key] = True
        if seen.sum() > blocks:
            kept.append(i)
            rank = np.cumsum(seen)
            block, blocks = rank[key] - 1, int(rank[-1])
    return np.array(kept, dtype=np.int64)


def _sentence_of(qname, mask, natoms):
    return Quant(qname, "x", disj(LetterPred(f"c{j}", "x")
                                  for j in range(natoms) if (mask >> j) & 1))


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
    _resolve_names(spec, reg)
    _guard_scale(spec)
    A, n, L = spec.alphabet, spec.depth, spec.bound
    plain = tuple(enumerate_words(A, L, caps))
    if n == 0:
        ba = finba.generate(plain, [], caps)
        return FragmentResult(spec, ba, (), (), {"layers": 0})

    xs = tuple(f"x{i}" for i in range(1, n + 1))
    check_table("marked word table", len(A), n, L, caps)
    letters, lens = shortlex_rows(len(A), L)
    gens = _qf_generators(spec, xs, reg)
    inside = in_range(lens, L, n)
    truth = np.array([truth_table(g, A.symbols, xs, letters, lens, reg)[inside]
                      for g in gens], dtype=bool).reshape(len(gens), -1)
    stats = {"layers": []}
    for k, keep in enumerate(xs):
        spare = xs[k + 1:]
        cells, _, atom_formulas = cells_by_signature(gens, inside, truth, caps)
        natoms = len(atom_formulas)
        # one row per word and spare positions, along the positions of keep
        inside = in_range(lens, L, len(spare))
        cut = np.broadcast_to(lens[(slice(None),) + (None,) * len(spare)],
                              inside.shape)[inside]
        rows = _subset_sentence_languages(spec.quantifiers, natoms,
                                          np.moveaxis(cells, 1, -1)[inside],
                                          cut, reg, caps)
        kept = _refining_rows(rows)
        truth = rows[kept]
        sentences = [_sentence_of(spec.quantifiers[i >> natoms],
                                  i & ((1 << natoms) - 1), natoms)
                     for i in kept.tolist()]
        stats["layers"].append({"atoms": natoms, "sentences": len(rows),
                                "kept": len(sentences)})
        by_symbol = {f"c{i}": phi for i, phi in enumerate(atom_formulas)}
        avoid = frozenset(xs).union(*map(all_vars, gens))
        renamed = {}
        gens = [substitute_letters(psi, by_symbol, keep, avoid, renamed)
                for psi in sentences]

    # the last layer's cells are the atom words of the plain words, on which
    # each kept sentence must give its row
    symbols = tuple(f"c{i}" for i in range(natoms))
    for psi, row in zip(sentences, truth):
        if not np.array_equal(truth_table(psi, symbols, (), cells, lens, reg), row):
            raise InvariantViolated(f"the sentence {to_dsl(psi)} differs on the "
                                    "atom words from its layer enumeration",
                                    stage="depth_fragment")
    langs = tuple(frozenset(itertools.compress(plain, row)) for row in truth)
    return FragmentResult(spec, finba.generate(plain, langs, caps), tuple(gens),
                          langs, stats)


# ---------------------------------------------------------------------------
# the independent oracle
# ---------------------------------------------------------------------------

def _signature_cells(A, ctx, L, gens, reg):
    """Cell index of every marked word over ``ctx`` of length <= L by the
    truth values of the generators, cells numbered in sorted signature
    order: a truth-table-shaped array (``logic.truth_table``) holding -1
    at positions past the word, and the number of cells."""
    letters, lens = shortlex_rows(len(A), L)
    inside = in_range(lens, L, len(ctx))
    truth = np.array([truth_table(g, A.symbols, ctx, letters, lens, reg)[inside]
                      for g in gens], dtype=bool)
    sigs, cell = np.unique(truth.T, axis=0, return_inverse=True)
    cells = np.full(inside.shape, -1, dtype=np.int64)
    cells[inside] = cell
    return cells, len(sigs)


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
    _resolve_names(spec, reg)
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
        cells, natoms = _signature_cells(
            A, (v1,), L, _qf_generators(spec, (v1,), reg), reg)
    else:
        # inner facts about (word, position of v2), in in_range order, each
        # a row of the cells of the positions of v1
        cells2, natoms2 = _signature_cells(
            A, (v1, v2), L, _qf_generators(spec, (v1, v2), reg), reg)
        inside1 = in_range(lens, L, 1)
        cut1 = np.broadcast_to(lens[:, None], inside1.shape)[inside1]
        inner = _subset_sentence_languages(
            spec.quantifiers, natoms2, cells2.transpose(0, 2, 1)[inside1],
            cut1, reg, caps)
        gens1 = [frozenset(np.flatnonzero(row).tolist())
                 for row in inner[distinct_rows(inner)[0]]]
        qf1, natoms_qf1 = _signature_cells(
            A, (v2,), L, _qf_generators(spec, (v2,), reg), reg)
        gens1 += [frozenset(np.flatnonzero(qf1[inside1] == c).tolist())
                  for c in range(natoms_qf1)]
        psi1 = finba.generate(range(len(cut1)), gens1, caps)
        cells = np.full(inside1.shape, -1, dtype=np.int64)
        cells[inside1] = [psi1.atom_index_of(r) for r in range(len(cut1))]
        natoms = len(psi1.atoms)

    outer = _subset_sentence_languages(spec.quantifiers, natoms, cells, lens,
                                       reg, caps)
    sets = [frozenset(itertools.compress(plain, row))
            for row in outer[distinct_rows(outer)[0]]]
    return finba.generate(plain, sets, caps)


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
