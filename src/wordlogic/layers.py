"""Stacking layers of quantifiers.

A set of quantifiers gives a class of sentences (generated by "Q over a
subset of the letters"); applying it through an algebra of one-variable
formulas adds one quantifier layer.  Iterating from the quantifier-free
algebra in n variables — re-encoding the spare variables into the
alphabet before each step and decoding afterwards — stratifies sentences
by quantifier depth.  An independent enumeration of depth-bounded
sentences provides the oracle the stratification is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import finba
from .caps import DEFAULT, Caps
from .errors import CapExceeded, InvariantViolated, ParseError
from .logic import (LetterPred, NumPred, Quant, Registry, DEFAULT_REGISTRY,
                    conj, disj, embedded_ids, in_range, neg, models, relabel,
                    to_dsl, truth_table)
from .regular import shortlex_rows
from .report import Report
from .substitution import (SentenceClass, atom_rows, gamma_odot, sigma,
                           _from_signatures, _generator_vars)
from .varcode import decode_multi, lift_delta
from .words import Alphabet, check_table, enumerate_words, subsets_in_order


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


def _subset_sentence_languages(qnames, usable, cells, lens, reg: Registry,
                               caps: Caps):
    """Truth masks of every sentence "Q position. atom-of-position in B".

    Row r of ``cells`` holds the atom index of each position of carrier
    element r, padded past ``lens[r]``; subsets are drawn from ``usable``.
    Returns (quantifier name, subset mask over usable, bit mask over rows)
    for every quantifier and subset, bit r standing for row r.  A quantifier
    with a count table (``Quantifier.by_count``) reads it at (row length,
    witnesses of the subset); any other is asked row by row.
    """
    nbits = len(usable)
    total = len(qnames) << nbits
    if total > caps.sentence_budget:
        raise CapExceeded(f"{total} generating sentences at one layer "
                          f"(cap {caps.sentence_budget})",
                          stage="layer sentences", size=total,
                          cap=caps.sentence_budget)
    nrows, width = cells.shape
    bit_of = np.zeros(max(usable, default=0) + 1, dtype=np.int64)
    bit_of[usable] = np.arange(nbits)
    bits = bit_of[np.maximum(cells, 0)]
    # the witness counts of the masks on the rows: each row's histogram of
    # atom bits times the bits of each mask, one integer matrix product
    inside = np.arange(width) < lens[:, None]
    hist = ((bits[:, :, None] == np.arange(nbits)) & inside[:, :, None]).sum(axis=1)
    member = (np.arange(1 << nbits)[:, None] >> np.arange(nbits)) & 1
    chunk = max(1, 1 << 22 >> max(nrows, 1).bit_length())
    truth = np.zeros((total, nrows), dtype=bool)
    for qi, qname in enumerate(qnames):
        q = reg.quantifier(qname)
        block = truth[qi << nbits:(qi + 1) << nbits]
        by_count = q.by_count(width)
        if by_count is None:
            for r, (row, n) in enumerate(zip(bits.tolist(), lens.tolist())):
                for mask in range(1 << nbits):
                    block[mask, r] = q.evaluate([(mask >> b) & 1 for b in row[:n]])
            continue
        for lo in range(0, 1 << nbits, chunk):
            block[lo:lo + chunk] = by_count[lens, member[lo:lo + chunk] @ hist.T]
    # one packing, read back row by row as Python integers
    packed = np.packbits(truth, axis=1, bitorder="little")
    raw, step = packed.tobytes(), packed.shape[1]
    return [(qnames[i >> nbits], i & ((1 << nbits) - 1),
             int.from_bytes(raw[i * step:(i + 1) * step], "little"))
            for i in range(total)]


def _greedy_generators(masks, nrows):
    """Indices of a refining subfamily: scanned in order, a candidate truth
    mask is kept exactly when it splits a block of the partition built so
    far, so the kept family generates the same algebra of subsets."""
    block = [0] * nrows
    kept = []
    for ci, bits in enumerate(masks):
        hit = {}
        split = False
        for r in range(nrows):
            key = (block[r], (bits >> r) & 1)
            if key not in hit:
                hit[key] = len(hit)
            if (block[r], 1 - ((bits >> r) & 1)) in hit:
                split = True
        if split:
            kept.append(ci)
            for r in range(nrows):
                block[r] = hit[(block[r], (bits >> r) & 1)]
    return kept


def _sentence_of(qname, mask, usable):
    return Quant(qname, "x",
                 disj(LetterPred(f"c{usable[j]}", "x")
                      for j in range(len(usable)) if (mask >> j) & 1))


def depth_fragment(spec: FragmentSpec, registry: Registry = None,
                   caps: Caps = DEFAULT) -> FragmentResult:
    """The algebra of bounded languages of sentences of quantifier depth at
    most ``spec.depth``.

    Layer by layer, innermost first: the current formula family (initially
    the quantifier-free one in depth-many variables) is lifted to a
    one-variable algebra over the alphabet extended by the spare variables,
    one quantifier layer is applied through it, and the resulting sentences
    are decoded back to formulas of the remaining variables.  At each layer
    the generating sentences — every quantifier over every subset of atoms —
    are deduplicated semantically and thinned to a refining subfamily before
    their substituted formulas are built.  The last layer above layer 0
    takes its generators' signatures from the previous layer's enumeration
    masks of their sentences, so it never evaluates them.
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
    lens = shortlex_rows(len(A), L)[1]
    current = _qf_generators(spec, xs, reg)
    stats = {"layers": []}
    odot = None
    for k in range(n):
        keep, spect = xs[k], xs[k + 1:]
        if k and not spect:
            # no spare variable is left: rep_bits, inside and cut are the
            # previous layer's, on the marked words with the one mark keep
            width, gens = (len(cut) + 7) // 8, tuple(current)
            raw = b"".join(bits.to_bytes(width, "little") for bits in rep_bits)
            truth = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, width),
                                  axis=1, count=len(cut), bitorder="little")
            delta = _from_signatures(A, keep, L, gens, _generator_vars(gens, keep),
                                     inside, truth.astype(bool), reg, caps)
            junk = None
        else:
            lift = lift_delta(current, keep, spect, A, bound=L, registry=reg,
                              caps=caps, check=False)
            delta, junk = lift.lifted, lift.junk_atom
        usable = [i for i in range(delta.atom_count) if i != junk]

        # the atom words of the embeddings of the marked words over A with
        # marks for the spare variables, in enumerate_marked order
        inside = in_range(lens, L, len(spect))
        ids = embedded_ids(len(A), len(spect), L)[inside]
        atoms = atom_rows(delta, L)[2][ids]
        if spect and (atoms == junk).any():
            raise InvariantViolated("an embedded marked word reads the "
                                    "off-image atom", stage="depth_fragment")
        cut = np.broadcast_to(lens[(slice(None),) + (None,) * len(spect)],
                              inside.shape)[inside]
        cands = _subset_sentence_languages(spec.quantifiers, usable, atoms,
                                           cut, reg, caps)
        seen = set()
        deduped = []
        for qname, mask, bits in cands:
            if bits not in seen:
                seen.add(bits)
                deduped.append(((qname, mask), bits))
        kept = _greedy_generators([b for _, b in deduped], len(cut))
        reps = [deduped[i][0] for i in kept]
        rep_bits = [deduped[i][1] for i in kept]
        sentences = [_sentence_of(qn, m, usable) for qn, m in reps]
        stats["layers"].append({"atoms": delta.atom_count,
                                "sentences": len(cands),
                                "kept": len(sentences)})

        if k == n - 1:
            family = SentenceClass(
                name="Q[" + ",".join(spec.quantifiers) + "]@depth",
                generator=lambda alphabet, ss=tuple(sentences): iter(ss))
            odot = gamma_odot(family, delta, bound=L, registry=reg, caps=caps)
            for lang, bits in zip(odot.gen_langs, rep_bits):
                direct = frozenset(plain[r] for r in range(len(plain))
                                   if (bits >> r) & 1)
                if lang != direct:
                    raise InvariantViolated(
                        "a substituted sentence's language differs from its "
                        "layer enumeration", stage="depth_fragment")
        else:
            current = [decode_multi(sigma(delta, s), spect, A)
                       for s in sentences]

    return FragmentResult(spec, odot.ba, odot.formulas, odot.gen_langs,
                          stats)


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
            spec.quantifiers, list(range(natoms2)),
            cells2.transpose(0, 2, 1)[inside1], cut1, reg, caps)
        gens1 = [frozenset(r for r in range(len(cut1)) if (bits >> r) & 1)
                 for bits in sorted({bits for _, _, bits in inner})]
        qf1, natoms_qf1 = _signature_cells(
            A, (v2,), L, _qf_generators(spec, (v2,), reg), reg)
        gens1 += [frozenset(np.flatnonzero(qf1[inside1] == c).tolist())
                  for c in range(natoms_qf1)]
        psi1 = finba.generate(range(len(cut1)), gens1, caps)
        cells = np.full(inside1.shape, -1, dtype=np.int64)
        cells[inside1] = [psi1.atom_index_of(r) for r in range(len(cut1))]
        natoms = len(psi1.atoms)

    outer = _subset_sentence_languages(spec.quantifiers, list(range(natoms)),
                                       cells, lens, reg, caps)
    sets = [frozenset(w for r, w in enumerate(plain) if (bits >> r) & 1)
            for bits in sorted({bits for _, _, bits in outer})]
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


def check_fragment_against_direct(spec: FragmentSpec,
                                  registry: Registry = None,
                                  caps: Caps = DEFAULT) -> Report:
    frag = depth_fragment(spec, registry, caps)
    direct = depth_direct(spec, registry, caps)
    ok = same_language_algebra(frag.ba, direct)
    witness = None
    if not ok:
        fa = {frozenset(x) for x in frag.ba.atoms}
        da = {frozenset(x) for x in direct.atoms}
        only = (fa - da) or (da - fa)
        witness = f"atom partition differs ({len(fa)} vs {len(da)} atoms)" \
                  + (f"; sample cell size {len(next(iter(only)))}" if only else "")
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
    from .words import format_word
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
