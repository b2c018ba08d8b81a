"""Shared fixtures and helpers for the test suite."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from wordlogic import (
    FALSE,
    TRUE,
    Alphabet,
    And,
    DEFAULT_REGISTRY,
    LetterPred,
    MarkedWord,
    Not,
    NumPred,
    Or,
    Quant,
    delta_algebra,
    models,
    parse,
)
from wordlogic import caps as _caps
from wordlogic import finba
from wordlogic.errors import BoundTooSmall, CapExceeded, ParseError
from wordlogic.logic import in_range, truth_table
from wordlogic.regular import (Dfa, closure, closure_dfa, row_weights,
                               shortlex_offsets, shortlex_rows, word_ids)
from wordlogic.substitution import atom_rows
from wordlogic.words import check_bound, enumerate_marked

# property tests run whole-algebra constructions; give them room
settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


#: "the last bit is 1": the right-zero monoid {e, 0, 1} (x.y = y for y != e),
#: bits 0 and 1 read as its elements 1 and 2, accepting 2.  Its bit images
#: do not commute, so bulk evaluation asks it row by row and no witness
#: count decides it.
LASTBIT = {"name": "lastbit", "table": [[0, 1, 2], [1, 1, 2], [2, 1, 2]],
           "identity": 0, "images": [1, 2], "accept": [2]}


#: variable names for formulas that shadow, reuse and capture: binders and
#: atoms draw from the same few names, so a formula may bind a variable it
#: also uses free, or bind it again inside its own body
SHADOW_NAMES = ("x", "y", "w")


def nesting_depth(phi) -> int:
    """The quantifier nesting depth of a formula."""
    if isinstance(phi, Quant):
        return 1 + nesting_depth(phi.body)
    if isinstance(phi, Not):
        return nesting_depth(phi.sub)
    if isinstance(phi, (And, Or)):
        return max(map(nesting_depth, phi.args), default=0)
    return 0


def shadowing_formula(rng, depth):
    """A random formula over letters a, b of at most ``depth`` nested
    connectives and binders, whose variables are SHADOW_NAMES."""
    if depth == 0:
        roll = rng.random()
        if roll < 0.5:
            return LetterPred(rng.choice("ab"), rng.choice(SHADOW_NAMES))
        if roll < 0.9:
            return NumPred("<", (rng.choice(SHADOW_NAMES), rng.choice(SHADOW_NAMES)))
        return rng.choice((TRUE, FALSE))
    roll = rng.random()
    if roll < 0.4:
        return Quant(rng.choice(("E", "mod[2,1]")), rng.choice(SHADOW_NAMES),
                     shadowing_formula(rng, depth - 1))
    if roll < 0.55:
        return Not(shadowing_formula(rng, depth - 1))
    parts = (shadowing_formula(rng, depth - 1), shadowing_formula(rng, depth - 1))
    return And(parts) if roll < 0.8 else Or(parts)


@pytest.fixture
def reg():
    return DEFAULT_REGISTRY


@pytest.fixture
def ab():
    return Alphabet.of("ab")


@pytest.fixture
def a_only():
    return Alphabet.of("a")


@pytest.fixture
def delta_pa(ab):
    """The two-cell algebra over {a,b}: letter under the mark is a / is not."""
    return delta_algebra(ab, "x", [parse("P[a](x)")], bound=6)


def delta_ba(delta) -> finba.FinBA:
    """The bounded FinBA of a ``DeltaAlgebra``: the marked words of length
    <= its bound as carrier, cut by the atom table ``atom_rows``."""
    carrier = enumerate_marked(delta.alphabet, (delta.var,), delta.bound, delta.caps)
    atoms = atom_rows(delta, delta.bound)[2]
    return finba.partition(carrier, atoms[atoms >= 0].tolist(), delta.caps)[0]


def plain(words):
    """Wrap plain tuples as unmarked MarkedWords."""
    return frozenset(MarkedWord(tuple(w), ()) for w in words)


def word_set(marked):
    """Project a set of unmarked MarkedWords back to plain tuples."""
    return frozenset(m.word for m in marked)


def model_words(phi, alphabet, bound, context=None, registry=None):
    """Model set as plain word tuples (only valid for sentences)."""
    return word_set(models(phi, alphabet, bound, context, registry))


def seeded(seed):
    return random.Random(seed)


def left_quotient(d: Dfa, u) -> Dfa:
    """u^{-1} L for the language L of d: start where u leads."""
    return Dfa(d.alphabet, d.delta, d.run(u), d.accepting)


def right_quotient(d: Dfa, v) -> Dfa:
    """L v^{-1}: accept the states from which v is accepted."""
    acc = frozenset(q for q in range(d.n) if d.run(v, start=q) in d.accepting)
    return Dfa(d.alphabet, d.delta, d.init, acc)


def member_table(symbols, bound, words) -> np.ndarray:
    """The membership table of a set of words of length <= bound, in the
    shortlex numbering of ``regular.shortlex_offsets``: the oracle's way of giving
    a language by its words (a word with a letter outside ``symbols`` marks
    nothing)."""
    col = {s: i for i, s in enumerate(symbols)}
    k = len(col)
    off = shortlex_offsets(k, bound)
    member = np.zeros(off[-1], dtype=bool)
    for w in words:
        if all(s in col for s in w):
            rank = 0
            for s in w:
                rank = rank * k + col[s]
            member[off[len(w)] + rank] = True
    return member


@lru_cache(maxsize=16)
def embedded_ids(size: int, c: int, bound) -> np.ndarray:
    """The shortlex ids, among the words of length <= bound over A x 2^c
    (letter base_index * 2^c + mask, ``size`` = |A|), of the embedded marked
    words of the padded rows ``shortlex_rows(size, bound)`` over A: shaped
    like a truth table with c context variables, entry [r, p_1, ...] for row
    r with variable j at position p_j + 1.  Shared between callers and
    read-only."""
    k = size << c
    letters, lens = shortlex_rows(size, bound)
    # ids are linear in the letters past off[n]: variable j marking
    # position p adds 2^j times the weight of p to the unmarked word's id
    weights = row_weights(lens, bound, k)
    ids = word_ids(letters << c, k, shortlex_offsets(k, bound))
    ids = ids.reshape((len(lens),) + (1,) * c)
    for j in range(c):
        ids = ids + (weights << j).reshape((len(lens),) + (1,) * j + (bound,)
                                           + (1,) * (c - 1 - j))
    ids.setflags(write=False)
    return ids


def model_table(phi, alphabet, context, bound, registry=None) -> np.ndarray:
    """The bulk oracle for ``formula_dfa``: the bounded model set of a formula
    as a membership table over the words of A x 2^context of length <=
    bound, numbered in shortlex order as in ``member_table`` with letter
    base_index * 2^|context| + mask (context[0] the lowest bit).  True exactly
    at the embeddings of the marked words ``models`` returns: the truth table
    of all base words (``truth_table``) scattered to the ids of the extended
    words."""
    ctx = tuple(context)
    check_bound(bound)
    letters, lens = shortlex_rows(len(alphabet), bound)
    sat = truth_table((phi,), tuple(alphabet), ctx, letters, lens, registry)[0]
    sat &= in_range(len(alphabet), bound, len(ctx))
    ids = embedded_ids(len(alphabet), len(ctx), bound)
    member = np.zeros(shortlex_offsets(len(alphabet) << len(ctx), bound)[-1], dtype=bool)
    member[np.broadcast_to(ids, sat.shape)[sat]] = True
    return member


def agrees(delta, accepting, member, off) -> bool:
    """Does the automaton (start state 0) accept exactly the member words?
    Runs it on all words of one length at once, level by level."""
    state = np.zeros(1, dtype=np.int64)
    for n in range(len(off) - 1):
        if n:
            state = delta[state].reshape(-1)
        if not np.array_equal(accepting[state], member[off[n]:off[n + 1]]):
            return False
    return True


def infer_dfa(symbols, bound, member, caps=_caps.DEFAULT) -> Dfa:
    """The automaton behind a membership table over the words of length <=
    bound, numbered in shortlex order (``member_table``): the oracle that
    guesses an automaton from bounded data.

    For probe depth d = 0, 1, ..., the words u of length <= bound-d are
    classed by the bits member[id(u·p)] over the probes p of length <= d, by
    Moore refinement on the word tree: member[u] at depth 0, and member[u]
    with the depth-d classes of the children u·c, folded into one integer
    key, at depth d+1.  Classes are numbered by their shortlex-first word,
    which gives the class its transitions when it has children in the
    table.  A hypothesis is returned only after running it on *every* word
    of the table, so the result agrees with the data; if no probe depth
    yields a verified hypothesis the data looks non-regular at this bound
    and BoundTooSmall names the bound and the largest hypothesis refuted.
    """
    syms = tuple(symbols)
    k = len(syms)
    cap = caps.dfa_states
    off = shortlex_offsets(k, bound)
    member = np.asarray(member, dtype=bool)
    if member.shape != (off[-1],):
        raise ParseError(f"membership table of shape {member.shape} does not "
                         f"cover the {off[-1]} words of length <= {bound}")
    if bound == 0:
        acc = frozenset({0}) if member[0] else frozenset()
        return Dfa(syms, ((0,) * k,), 0, acc)
    largest = 0  # states of the largest hypothesis built and refuted
    # depth 0 classes a word by its member bit, the empty word's class first:
    # no sort of the whole table is needed
    cls = (member != member[0]).astype(np.int64)
    first = np.concatenate(([0], np.flatnonzero(cls)[:1]))
    for d in range(bound + 1):
        if d:  # Moore step: key = (member, class of each child) in base n
            rows, n = off[bound - d + 1], len(first)
            kids = cls[1:rows * k + 1].reshape(rows, k)
            key, size = member[:rows].astype(np.int64), 2
            for c in range(k):
                if size * n > 1 << 62:  # renumber to stay exact
                    _, key = np.unique(key, return_inverse=True)
                    key, size = key.reshape(-1), int(key.max()) + 1
                key, size = key * n + kids[:, c], size * n
            _, first, inverse = np.unique(key, return_index=True,
                                          return_inverse=True)
            order = np.argsort(first)  # classes by their shortlex-first word
            renumber = np.empty_like(order)
            renumber[order] = np.arange(len(order))
            cls = renumber[inverse.reshape(-1)]
            first = first[order]
        if len(first) > cap:
            raise CapExceeded(f"automaton inference exceeds the cap of {cap} states",
                              stage="automaton inference", cap=cap)
        if first[-1] >= off[bound - d]:
            continue  # some class only ever appears at the frontier
        delta = cls[first[:, None] * k + np.arange(k) + 1]
        accepting = member[first]
        if agrees(delta, accepting, member, off):
            return Dfa(syms, tuple(map(tuple, delta.tolist())), 0,
                       frozenset(np.flatnonzero(accepting).tolist())).minimize()
        largest = max(largest, len(first))
    refuted = (f"the largest hypothesis built, with {largest} states, disagrees "
               f"with the data" if largest else "no probe depth gave a hypothesis")
    raise BoundTooSmall(
        f"no automaton consistent with the data was found at bound {bound}: "
        f"{refuted}; a larger bound may be needed",
        stage="automaton inference", bound=bound, states=largest)


def probe_bit_infer_dfa(symbols, bound, member, caps=_caps.DEFAULT) -> Dfa:
    """Reference for ``infer_dfa``: at probe depth d the words of
    length <= bound-d are classed by their packed row of bits over all
    probes of length <= d, read directly off the membership table."""
    syms = tuple(symbols)
    k = len(syms)
    cap = caps.dfa_states
    off = shortlex_offsets(k, bound)
    member = np.asarray(member, dtype=bool)
    if member.shape != (off[-1],):
        raise ParseError(f"membership table of shape {member.shape} does not "
                         f"cover the {off[-1]} words of length <= {bound}")
    if bound == 0:
        acc = frozenset({0}) if member[0] else frozenset()
        return Dfa(syms, ((0,) * k,), 0, acc)
    lengths = np.repeat(np.arange(bound + 1), np.diff(off))
    ranks = np.arange(off[-1]) - off[lengths]
    largest = 0
    for d in range(bound + 1):
        rows = off[bound - d + 1]
        bits = np.concatenate(
            [member[(off[lengths[:rows] + b] + ranks[:rows] * k ** b)[:, None]
                    + np.arange(k ** b)] for b in range(d + 1)], axis=1)
        packed = np.packbits(bits, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        if len(first) > cap:
            raise CapExceeded(f"automaton inference exceeds the cap of {cap} states",
                              stage="automaton inference", cap=cap)
        order = np.argsort(first)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        cls = renumber[inverse.reshape(-1)]
        first = first[order]
        if first[-1] >= off[bound - d]:
            continue
        delta = cls[first[:, None] * k + np.arange(k) + 1]
        accepting = member[first]
        if agrees(delta, accepting, member, off):
            return Dfa(syms, tuple(map(tuple, delta.tolist())), 0,
                       frozenset(np.flatnonzero(accepting).tolist())).minimize()
        largest = max(largest, len(first))
    refuted = (f"the largest hypothesis built, with {largest} states, disagrees "
               f"with the data" if largest else "no probe depth gave a hypothesis")
    raise BoundTooSmall(
        f"no automaton consistent with the data was found at bound {bound}: "
        f"{refuted}; a larger bound may be needed",
        stage="automaton inference", bound=bound, states=largest)


def table_by_mul(elements, index, mul):
    """Reference for ``regular.generate_monoid``'s table: one ``mul`` call
    per pair of elements."""
    return tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)


# ---------------------------------------------------------------------------
# the pair morphism's defining formula, word by word: the reference oracle
# for ``semidirect.verify_recognizer``'s exact check


def marked_class_word(dd, word, i):
    """Letter of the class of ``word`` marked at position i (1-based)."""
    ext = dd.ext
    left = dd.pi.mu(ext.symbol(a, ()) for a in word[:i - 1])
    right = dd.pi.mu(ext.symbol(a, ()) for a in word[i:])
    return dd.classify(left, ext.base.index(word[i - 1]), right)


def class_word(dd, word):
    """(class word, plain image) of a word: the marked-class letter of every
    position and the word's image in the plain part.  The plain prefix and
    suffix images of all positions come from one pass each over the letter
    images (``marked_class_word`` resolves one position on its own)."""
    tab = dd.pi.monoid.table
    amb = [dd.m_elems[p] for p in dd.p_img]  # ambient plain letter images
    idx = [dd.ext.base.index(a) for a in word]
    pre = [dd.pi.monoid.identity]
    for i in idx:
        pre.append(tab[pre[-1]][amb[i]])
    letters, suf = [], dd.pi.monoid.identity
    for p in reversed(range(len(idx))):
        letters.append(dd.classify(pre[p], idx[p], suf))
        suf = tab[amb[idx[p]]][suf]
    return tuple(reversed(letters)), dd.m_mon.prod(dd.p_img[i] for i in idx)


def off_by_one_table(n):
    """The table of Z_n with the one product 1.1 moved to 3: 0 is still
    the identity, but (1.1).(n-1) = 2 and 1.(1.(n-1)) = 1."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[1][1] = 3
    return table


def s_of_letters(etaq, letters):
    """The S-element of a class word: its letters' evaluations multiplied."""
    return etaq.s_mon.prod(etaq.ev[x] for x in letters)


def check_h_formula(etaq, hm, words) -> bool:
    """h(w) = (product of letter evaluations along w, plain image of w) on
    every given word."""
    for w in words:
        letters, m = class_word(etaq.dd, w)
        if hm.h(w) != (s_of_letters(etaq, letters), m):
            return False
    return True


# ---------------------------------------------------------------------------
# one quantifier layer by witness counts: the reference oracle for
# ``semidirect.quantifier_layer`` when the quantifier's bit images commute


def count_layer(quant, body: Dfa, alphabet) -> Dfa:
    """Minimal automaton over ``alphabet`` for Q x. phi when the bit images
    (b0, b1) of Q commute, phi given by ``body`` over the one-mark letters of
    ``alphabet``: column 2i reads letter i unmarked, 2i + 1 marked.

    Q's value is then b0^(n-c) b1^c on a word of length n with c witnesses.
    A state is the body's state p on the word read, unmarked, and for each
    body state q the power of (b0, b1) in M x M that counts the positions
    whose marked run is now in q.  On letter a the counts move along the
    unmarked a-transitions, and the new position counts once more at
    delta(p, a marked).  At the end the positions in an accepting state q
    are witnesses: the word is accepted when the product over q of the
    b1-part (q accepting) or the b0-part (q not) of its count lies in
    ``accept``.
    """
    tab, e = quant.monoid.table, quant.monoid.identity
    b0, b1 = quant.images
    # the cyclic monoid <(b0, b1)> in M x M, identity first
    powers, index, edges = closure((e, e), lambda g: [(tab[g[0]][b0], tab[g[1]][b1])])
    mul = [[index[tab[g0][h0], tab[g1][h1]] for h0, h1 in powers]
           for g0, g1 in powers]
    one = edges[0][0]
    delta, nq, k = body.delta, body.n, len(alphabet)
    unmarked = [[row[2 * i] for row in delta] for i in range(k)]

    def step(st):
        p, counts = st
        live = [(q, c) for q, c in enumerate(counts) if c]
        out = []
        for i in range(k):
            col = unmarked[i]
            new = [0] * nq
            for q, c in live:
                t = col[q]
                new[t] = mul[new[t]][c]
            t = delta[p][2 * i + 1]
            new[t] = mul[new[t]][one]
            out.append((col[p], tuple(new)))
        return out

    order, _, succ = closure((body.init, (0,) * nq), step)
    accepting = []
    for i, (_, counts) in enumerate(order):
        value = e
        for q, c in enumerate(counts):
            value = tab[value][powers[c][q in body.accepting]]
        if value in quant.accept:
            accepting.append(i)
    return closure_dfa(alphabet, succ, accepting).minimize()


def random_body(rng, ext, states) -> Dfa:
    """A random automaton with ``states`` states over the one-mark
    alphabet ``ext``."""
    return Dfa(ext.symbols, tuple(tuple(rng.randrange(states) for _ in ext.symbols)
                                  for _ in range(states)),
               0, frozenset(i for i in range(states) if rng.random() < 0.5))


def layer_accepts(quant, body: Dfa, word) -> bool:
    """Q x. phi on one plain word of base letter indices, phi given by
    ``body`` over the one-mark letters (column 2i reads letter i unmarked,
    2i + 1 marked): the quantifier asked on the body's verdict with the mark
    at each position in turn."""
    bits = []
    for i in range(len(word)):
        q = body.init
        for j, a in enumerate(word):
            q = body.delta[q][2 * a + (i == j)]
        bits.append(q in body.accepting)
    return quant.evaluate(bits)
