"""Two-sided semidirect products and block products at desk scale.

The centerpiece is a decomposition of a quotient-closed Boolean algebra of
languages over a one-mark extended alphabet into a plain part, a marked part
and a sink part, together with the wreath-style recognizer built from it: a
monoid of pairs (s, m) where m tracks the plain image of the word read so far
and s tracks, jointly for every evaluation of the marked-part classes into a
target monoid, the product of those evaluations over all positions.

An element s of the evaluation monoid S is the vector (f(w))_f over all
letter evaluations f, and the plain part M acts on it by gathering on the
evaluation axis: m.s is f -> s(f o lambda_m) and s.m is f -> s(f o rho_m),
where lambda_m and rho_m are the actions of m on letters.  These actions are
well defined and distribute over S by construction.  The recognizer is
checked exactly on these vectors, with no table of S (K is the closure of the
letters' vectors, and the pair product acts by gathers): on the states of one
product automaton the pair morphism must agree with its defining formula.
The biaction (``EtaQuotient.bia``) and S ** M (``EtaQuotient.nu``) are built
only on request; ``Biaction`` checks its laws exhaustively.

The block product is one bimachine, ``position_transfer``, with one builder,
``transfer_dfa``: a quantifier layer (``quantifier_layer``) and the preimage
of an atom-word language (``substitution.AtomTransduction.preimage``) are
single calls to it, and ``verify_recognizer`` reads its states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .caps import DEFAULT, Caps
from .errors import (CapExceeded, InvariantViolated, NotDecomposable,
                     NotMonoidPresentable, ParseError)
from .regular import (Dfa, FinMonoid, RegularBA, Stamp, closure, closure_dfa,
                      congruence_witness, first_paths, generate_monoid,
                      int_array)
from .report import Report
from .words import ExtendedAlphabet


# ---------------------------------------------------------------------------
# biactions and the two-sided semidirect product
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Biaction:
    """Commuting left and right actions of a monoid M on a finite monoid S.

    ``left[m][s]`` is m.s and ``right[s][m]`` is s.m, both given as indices
    into S.  Laws are checked exhaustively on construction:

      1.s = s = s.1,   m.(m'.s) = (mm').s,   (s.m).m' = s.(mm'),
      (m.s).m' = m.(s.m'),
      m.(s + s').m' = m.s.m' + m.s'.m',   m.0.m' = 0

    where + is the multiplication of S and 0 its identity.
    """

    mmon: FinMonoid
    smon: FinMonoid
    left: tuple   # left[m][s]
    right: tuple  # right[s][m]

    def __post_init__(self):
        nm, ns = len(self.mmon), len(self.smon)
        L = int_array(self.left, 2, "the left action table")
        R = int_array(self.right, 2, "the right action table")
        if L.shape != (nm, ns) or R.shape != (ns, nm):
            raise ParseError("biaction tables have wrong shape")
        if min(L.min(), R.min()) < 0 or max(L.max(), R.max()) >= ns:
            raise ParseError("biaction tables name elements outside S")
        stab = np.asarray(self.smon.table, dtype=np.int64)
        mtab = np.asarray(self.mmon.table, dtype=np.int64)
        one_m, one_s = self.mmon.identity, self.smon.identity
        ids = np.arange(ns)
        if not (L[one_m] == ids).all():
            raise ParseError("left action of 1 is not the identity")
        if not (R[:, one_m] == ids).all():
            raise ParseError("right action of 1 is not the identity")
        for m1 in range(nm):
            for m2 in range(nm):
                if not (L[m1][L[m2]] == L[mtab[m1][m2]]).all():
                    raise ParseError("left action does not compose")
                if not (R[R[:, m1], m2] == R[:, mtab[m1][m2]]).all():
                    raise ParseError("right action does not compose")
                # the two-sided map s -> m1.s.m2, whichever side acts first
                g = R[L[m1], m2]
                if not (g == L[m1][R[:, m2]]).all():
                    raise ParseError("left and right actions do not commute")
                if not (g[stab] == stab[g[:, None], g[None, :]]).all():
                    raise ParseError("biaction does not distribute over S")
                if g[one_s] != one_s:
                    raise ParseError("biaction does not fix the identity of S")

    def lact(self, m, s):
        return self.left[m][s]

    def ract(self, s, m):
        return self.right[s][m]


def pair_product(smon: FinMonoid, mmon: FinMonoid, left, right):
    """The product of S ** M on pairs, (s1, m1)(s2, m2) = (s1.m2 + m1.s2,
    m1 m2), for actions given as ``left[m][s]`` = m.s and ``right[s][m]`` =
    s.m; the laws are not checked here."""
    stab, mtab = smon.table, mmon.table

    def mul(p1, p2):
        (s1, m1), (s2, m2) = p1, p2
        return stab[right[s1][m2]][left[m1][s2]], mtab[m1][m2]
    return mul


@dataclass(frozen=True, eq=False)
class SdpMonoid:
    """Two-sided semidirect product S ** M for a biaction of M on S.

    Elements are pairs (s, m); multiplication is
    (s1, m1)(s2, m2) = (s1.m2 + m1.s2, m1 m2) with identity (0, 1).
    ``pairs[i]`` gives the (s, m) pair of element i of ``monoid``.
    """

    smon: FinMonoid
    mmon: FinMonoid
    bia: Biaction
    monoid: FinMonoid
    pairs: tuple
    index: dict = field(compare=False, repr=False)


def sdp(smon: FinMonoid, mmon: FinMonoid, bia: Biaction, caps: Caps = DEFAULT) -> SdpMonoid:
    """The two-sided semidirect product S ** M on all pairs.  Its table is
    associative by the ``Biaction`` laws, checked in full, so it needs no
    check above ``ASSOC_CHECK_LIMIT`` (the default ``sdp_elements`` is 1,024)."""
    ns, nm = len(smon), len(mmon)
    if ns * nm > caps.sdp_elements:
        raise CapExceeded(f"semidirect product would have {ns * nm} elements "
                          f"(cap {caps.sdp_elements})", stage="semidirect product",
                          size=ns * nm, cap="sdp_elements")
    pairs = tuple((s, m) for s in range(ns) for m in range(nm))
    index = {p: i for i, p in enumerate(pairs)}
    # pair i is (i // nm, i % nm); (s1, m1)(s2, m2) = (s1.m2 + m1.s2, m1 m2)
    s_of, m_of = np.divmod(np.arange(ns * nm), nm)
    s1, m1 = s_of[:, None], m_of[:, None]
    s2, m2 = s_of[None, :], m_of[None, :]
    stab, mtab, L, R = (np.asarray(t, dtype=np.int64) for t in
                        (smon.table, mmon.table, bia.left, bia.right))
    table = stab[R[s1, m2], L[m1, s2]] * nm + mtab[m1, m2]
    table = tuple(map(tuple, table.tolist()))
    names = (tuple(f"({smon.names[s]},{mmon.names[m]})" for s, m in pairs)
             if smon.names and mmon.names else None)
    mon = FinMonoid(table=table, identity=smon.identity * nm + mmon.identity,
                    names=names)
    return SdpMonoid(smon=smon, mmon=mmon, bia=bia, monoid=mon, pairs=pairs,
                     index=index)


# ---------------------------------------------------------------------------
# decomposition of a quotient-closed algebra over a one-mark alphabet
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecomposedD:
    """A quotient-closed algebra split into plain / marked / sink parts.

    ``ba`` is the algebra, recognized by its joint stamp ``pi`` onto the
    ambient monoid.  The ambient elements split into

      * ``m_elems``: images of words with no marked position,
      * ``t_elems``: images of words with exactly one marked position,
      * ``z_elems``: images of everything else (the sink),

    and every block of ``ba`` lies inside exactly one part.  ``m_mon`` is the
    plain part as a monoid in its own right with letter images ``p_img``;
    ``t_blocks`` are the algebra's blocks inside the marked part, which serve
    as the letter alphabet of the marked-class evaluations.
    """

    ext: ExtendedAlphabet
    ba: RegularBA
    pi: Stamp
    m_elems: tuple
    m_index: dict = field(compare=False, repr=False)
    m_mon: FinMonoid = None
    p_img: tuple = None      # per base symbol: position in m_mon
    q_img: tuple = None      # per base symbol: ambient element of the marked letter
    t_elems: tuple = None
    t_blocks: tuple = None   # tuple of frozensets of ambient elements
    t_letter: dict = field(default=None, compare=False, repr=False)
    d0_blocks: tuple = None  # ba blocks inside the plain part (ambient elements)
    z_elems: frozenset = None
    left_letter: tuple = None   # left_letter[m_pos][x] : action of plain part on letters
    right_letter: tuple = None  # right_letter[x][m_pos]

    @property
    def base_symbols(self):
        return self.ext.base.symbols

    def classify(self, left_amb, sym_index, right_amb):
        """Letter of the marked class of l.(a marked).r, all ambient."""
        tab = self.pi.monoid.table
        t = tab[tab[left_amb][self.q_img[sym_index]]][right_amb]
        return self.t_letter[t]


def _part_reachability(pi: Stamp):
    """For each ambient element, which mark counts (0, 1, 2+) reach it; the
    stamp is over a one-mark alphabet, whose odd columns are marked."""
    tab = pi.monoid.table
    order, _, _ = closure(
        (pi.monoid.identity, 0),
        lambda mc: [(tab[mc[0]][lt], min(2, mc[1] + (c & 1)))
                    for c, lt in enumerate(pi.letters)])
    reach = [set() for _ in range(len(pi.monoid))]
    for m, c in order:
        reach[m].add(c)
    return reach


def decompose(ba: RegularBA, ext: ExtendedAlphabet, caps: Caps = DEFAULT) -> DecomposedD:
    """Split a quotient-closed algebra over a one-mark alphabet.

    Raises NotDecomposable naming the first failing requirement:
    the algebra must be closed under quotients, its trace on the sink
    (two-or-more-marks) part must be the two-element algebra, and it must
    contain the marked part or the sink part as an element.
    """
    pi = ba.stamp
    if len(ext.ctx) != 1 or tuple(pi.alphabet) != tuple(ext.symbols):
        raise ParseError(f"a stamp over {pi.alphabet} is not over the "
                         f"one-mark alphabet {ext.symbols}")
    p_amb, q_amb = pi.letters[0::2], pi.letters[1::2]  # a{} and a{x} images
    tab = pi.monoid.table
    n = len(pi.monoid)

    reach = _part_reachability(pi)
    m_set, t_set, z_set = (frozenset(i for i in range(n) if c in reach[i])
                           for c in range(3))

    witness = ba.quotient_witness()
    if witness is not None:
        raise NotDecomposable("input algebra is not closed under quotients: "
                              + _separation(*witness), clause="quotients")
    z_blocks = [b for b in ba.blocks if b & z_set]
    if len(z_blocks) != 1:
        raise NotDecomposable(
            "trace on the two-or-more-marks part is not the two-element algebra",
            clause="sink-trace")
    # membership of the marked part: it is a member iff it is saturated,
    # i.e. disjoint from the other parts and a union of blocks.
    t_saturated = (not (t_set & (m_set | z_set))) and all(
        b <= t_set or not (b & t_set) for b in ba.blocks)
    z_saturated = (not (z_set & (m_set | t_set))) and all(
        b <= z_set or not (b & z_set) for b in ba.blocks)
    if not (t_saturated or z_saturated):
        raise NotDecomposable(
            "neither the marked part nor the sink part belongs to the algebra",
            clause="part-membership")
    # with quotient closure either one forces full separation; verify.
    if not (t_saturated and z_saturated and m_set.isdisjoint(t_set)
            and m_set.isdisjoint(z_set)):
        raise InvariantViolated("parts fail to separate despite closure",
                                stage="decompose")

    # plain part as a monoid of its own
    m_elems, m_index, m_mon, _ = generate_monoid(
        pi.monoid.identity, list(zip(ext.base.symbols, p_amb)),
        lambda x, y: tab[x][y], caps)
    if frozenset(m_elems) != m_set:
        raise InvariantViolated("the plain letters do not generate the plain "
                                "part", stage="decompose")
    p_img = tuple(m_index[p] for p in p_amb)

    t_elems = tuple(sorted(t_set))
    t_blocks = tuple(sorted((b for b in ba.blocks if b <= t_set), key=min))
    t_letter = {t: x for x, b in enumerate(t_blocks) for t in b}
    d0_blocks = tuple(sorted((b for b in ba.blocks if b <= m_set), key=min))

    # the blocks are the classes of a congruence (checked above), so the
    # plain part acts on the marked-class letters from both sides through
    # any member of a block, its own classes are stable under both actions,
    # and quotients of marked classes by marked elements are unions of them
    left_letter = tuple(tuple(t_letter[tab[mp][min(b)]] for b in t_blocks)
                        for mp in m_elems)
    right_letter = tuple(tuple(t_letter[tab[min(b)][mp]] for mp in m_elems)
                         for b in t_blocks)

    # splitting of the block count: plain + marked + one sink block
    if len(ba.blocks) != len(d0_blocks) + len(t_blocks) + 1:
        raise InvariantViolated("the blocks do not split into plain, marked "
                                "and one sink block", stage="decompose")

    return DecomposedD(
        ext=ext, ba=ba, pi=pi, m_elems=tuple(m_elems), m_index=m_index,
        m_mon=m_mon, p_img=p_img, q_img=q_amb,
        t_elems=t_elems, t_blocks=t_blocks, t_letter=t_letter,
        d0_blocks=d0_blocks, z_elems=z_set,
        left_letter=left_letter, right_letter=right_letter)


# ---------------------------------------------------------------------------
# evaluations of marked classes into a target monoid, and the recognizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EtaQuotient:
    """All evaluations of the marked-class letters into a target monoid.

    ``homs`` lists every map f from letters to the target monoid N, and an
    element of S is a vector over them: ``ev`` sends a letter x to the
    S-element (f(x))_f, S being the monoid these vectors generate under
    componentwise multiplication.  The plain part acts on S by gathers on
    the evaluation axis (``ell`` and ``err``).  ``bia`` is that biaction,
    checked against its laws, and ``nu`` the product S ** M; both are built
    on request.
    """

    dd: DecomposedD
    nv: FinMonoid
    homs: tuple
    s_mon: FinMonoid
    ev: tuple    # letter -> S position
    ell: tuple   # ell[m_pos][s_pos]
    err: tuple   # err[s_pos][m_pos]
    caps: Caps = field(default=DEFAULT, compare=False, repr=False)

    @cached_property
    def bia(self) -> Biaction:
        return Biaction(mmon=self.dd.m_mon, smon=self.s_mon, left=self.ell,
                        right=self.err)

    @cached_property
    def nu(self) -> SdpMonoid:
        return sdp(self.s_mon, self.dd.m_mon, self.bia, self.caps)


def _evaluations(dd: DecomposedD, nv: FinMonoid, caps: Caps):
    """The maps f from the marked-class letters to ``nv``, the letters'
    vectors (f(x))_f, ``gathers()``: per plain element m the positions of f o
    lambda_m and f o rho_m, where m.s and s.m gather s; S's limit and stage."""
    k, n = len(dd.t_blocks), len(nv)
    if n ** k > caps.hom_count:
        raise CapExceeded(f"{n ** k} letter evaluations (cap {caps.hom_count})",
                          stage="letter evaluations", size=n ** k,
                          cap="hom_count")
    homs = tuple(itertools.product(range(n), repeat=k))

    def gathers():  # called once S has grown; f o g, g[x] the letter x becomes
        at = {f: i for i, f in enumerate(homs)}
        return ([[at[tuple(map(f.__getitem__, g))] for f in homs] for g in maps]
                for maps in (dd.left_letter, zip(*dd.right_letter)))
    return homs, list(zip(*homs)), gathers, (
        min(caps.monoid, caps.sdp_elements // len(dd.m_mon)),
        "evaluation monoid S (|S x M| within sdp_elements)")


def eta_quotient(dd: DecomposedD, nv: FinMonoid, caps: Caps = DEFAULT) -> EtaQuotient:
    """All evaluations of the marked-class letters into ``nv``, the monoid S
    their vectors generate within ``_evaluations``' limit, and M's actions on
    S by its gathers, which map letters to letters and commute with the
    coordinatewise product, so they map S into itself and distribute over it."""
    homs, evs, gathers, cap = _evaluations(dd, nv, caps)
    s_elems, s_index, s_mon, _ = generate_monoid(
        (nv.identity,) * len(homs), [(f"x{x}", e) for x, e in enumerate(evs)],
        lambda u, v: tuple([nv.table[a][b] for a, b in zip(u, v)]),
        caps, *cap)
    ell, err = ([tuple(s_index[tuple(map(v.__getitem__, pos))] for v in s_elems)
                 for pos in side] for side in gathers())
    return EtaQuotient(dd=dd, nv=nv, homs=homs, s_mon=s_mon, caps=caps,
                       ev=tuple(map(s_index.__getitem__, evs)),
                       ell=tuple(ell), err=tuple(zip(*err)))


@dataclass(frozen=True, eq=False)
class HMorphism:
    """The base-alphabet morphism into the semidirect product.

    A letter a maps to the pair (evaluation of the class of a-marked-alone,
    plain image of a).  ``stamp`` realizes the morphism onto the submonoid
    it generates; ``pair_of`` gives each submonoid element as an (s, m) pair.
    """

    etaq: EtaQuotient
    stamp: Stamp
    pair_of: tuple

    def h(self, word):
        return self.pair_of[self.stamp.mu(word)]


def _pair_stamp(dd: DecomposedD, ev, mul, caps: Caps):
    """h's stamp and its elements as (s, m) pairs, generated by ``mul`` from
    (0, 1) and per letter (``ev`` of its class marked alone, plain image)."""
    one = dd.pi.monoid.identity
    gens = [(a, (ev[dd.classify(one, i, one)], dd.p_img[i]))
            for i, a in enumerate(dd.base_symbols)]
    elems, index, mon, reps = generate_monoid((0, dd.m_mon.identity), gens, mul, caps)
    return Stamp(dd.base_symbols, mon, tuple(index[g] for _, g in gens),
                 reps), tuple(elems)


def h_morphism(etaq: EtaQuotient, caps: Caps = DEFAULT) -> HMorphism:
    """The pair morphism, its monoid generated from the letters' pairs by
    the pair product of S ** M (``pair_product``)."""
    stamp, pair_of = _pair_stamp(etaq.dd, etaq.ev, pair_product(
        etaq.s_mon, etaq.dd.m_mon, etaq.ell, etaq.err), caps)
    return HMorphism(etaq=etaq, stamp=stamp, pair_of=pair_of)


# ---------------------------------------------------------------------------
# the position transfer: runs a classifier over per-position classes
# ---------------------------------------------------------------------------

def position_transfer(delta, init, label, kdelta, kinit, caps: Caps,
                      stage: str):
    """States and transitions of the automaton that runs the classifier K
    (transitions ``kdelta``, start ``kinit``) over the per-position class
    word of the word read: a bimachine (Schützenberger 1961) on suffix
    vectors.

    ``delta`` is an automaton B over a one-mark alphabet (column 2i reads
    base letter i unmarked, 2i + 1 marked) started in ``init``.  The class
    of a position is ``label[q]``, a column of ``kdelta``, for the state q
    that B reaches on the word marked there, or None where no class is
    defined.  A plain suffix s is summarized by its vector
    q -> label(delta*(q, s)); the vectors are closed from ``label``, the
    vector of the empty suffix, under v -> v o delta_a.  A state (p, F)
    holds B's state p on the plain prefix and, per vector j, the K-state
    F[j] of the positions read so far if the rest of the word has vector j.
    On letter a, F'[j] = K(F[vector of a.s], vecs[j][delta(p, a marked)]),
    so ``F[0]`` is K's state after the class word of the word read.  A
    position whose class has no label raises InvariantViolated naming
    ``stage``.  Returns the states in discovery order from the start and
    their successor rows.  Its users are ``transfer_dfa`` and
    ``verify_recognizer``.
    """
    k = len(delta[0]) // 2
    vecs, _, vsucc = closure(
        tuple(label), lambda v: [tuple(v[row[2 * a]] for row in delta)
                                 for a in range(k)], caps.dfa_states, stage)
    after = [tuple(row[a] for row in vsucc) for a in range(k)]
    classes = [tuple(v[q] for v in vecs) for q in range(len(delta))]

    def step(st):
        p, F = st
        row = delta[p]
        out = []
        for a, succ in enumerate(after):
            cls = classes[row[2 * a + 1]]
            if None in cls:
                raise InvariantViolated(
                    f"a position marked from state {p} by letter {a} falls "
                    f"in a class with no label", stage=stage)
            out.append((row[2 * a],
                        tuple(kdelta[F[j]][c] for j, c in zip(succ, cls))))
        return out

    order, _, succ = closure((init, (kinit,) * len(vecs)), step,
                             caps.dfa_states, stage)
    return order, succ


def transfer_dfa(alphabet, delta, init, label, kdelta, kinit, accept,
                 caps: Caps, stage: str) -> Dfa:
    """Minimal automaton over ``alphabet`` of the words whose class word
    takes K into ``accept``: ``position_transfer`` (same arguments), where
    the states whose ``F[0]`` lies in ``accept`` accept."""
    order, succ = position_transfer(delta, init, label, kdelta, kinit, caps,
                                    stage)
    return closure_dfa(alphabet, succ, (
        i for i, st in enumerate(order) if st[1][0] in accept)).minimize()


def quantifier_layer(quant, body: Dfa, alphabet, caps: Caps = DEFAULT) -> Dfa:
    """Minimal automaton over ``alphabet`` for Q x. phi, Q a monoid
    quantifier and phi given by ``body`` over the one-mark letters of
    ``alphabet`` (column 2i reads letter i unmarked, 2i + 1 marked): the
    block product of the body's accepting bit with Q's monoid, read as an
    automaton over the bits 0 and 1 (``transfer_dfa``).  A quantifier with
    no monoid raises NotMonoidPresentable."""
    if quant.monoid is None:
        raise NotMonoidPresentable(
            f"quantifier {quant.name} has no monoid presentation and cannot "
            f"be compiled", quantifier=quant.name, stage="formula compilation")
    qtab, (b0, b1) = quant.monoid.table, quant.images
    return transfer_dfa(alphabet, body.delta, body.init,
                        [int(q in body.accepting) for q in range(body.n)],
                        tuple((row[b0], row[b1]) for row in qtab),
                        quant.monoid.identity, quant.accept, caps,
                        "quantifier layer")


def compile_layer(quant, phi_dfa: Dfa, ext: ExtendedAlphabet,
                  caps: Caps = DEFAULT) -> Dfa:
    """Minimal recognizer over the base alphabet for Q x. phi, phi given as a
    DFA over the one-mark extended alphabet ``ext``, by ``quantifier_layer``
    for every monoid quantifier, commuting or not.  Evaluation-only
    quantifiers raise NotMonoidPresentable, and a body over any alphabet but
    the one-mark alphabet ``ext`` is a ParseError.
    """
    if len(ext.ctx) != 1 or tuple(phi_dfa.alphabet) != tuple(ext.symbols):
        raise ParseError(f"a body over {phi_dfa.alphabet} is not over the "
                         f"one-mark alphabet {ext.symbols}")
    return quantifier_layer(quant, phi_dfa, ext.base.symbols, caps)


# ---------------------------------------------------------------------------
# end-to-end verification of the recognizer
# ---------------------------------------------------------------------------

def _word(w) -> str:
    return ".".join(w) or "ε"


def _separation(u, v, side, a) -> str:
    """Text of a ``congruence_witness``: words to replay."""
    ua, va = (u + (a,), v + (a,)) if side == "right" else ((a,) + u, (a,) + v)
    return (f"{_word(u)} and {_word(v)} share a class but {_word(ua)} and "
            f"{_word(va)} do not")


def verify_recognizer(dd: DecomposedD, nv: FinMonoid, caps: Caps = DEFAULT,
                      hbound: int = 5) -> Report:
    """Check the recognizer of the decomposition theorem exactly: the
    languages recognized through the pair morphism h into S ** M are exactly
    the Boolean combinations of plain-part classes and evaluation preimages
    of class words, and they are closed under quotients.

    All on evaluation vectors (``_evaluations``), with no table of S: K is
    the closure of the letters' vectors under the coordinatewise product, h
    is generated from the letters' pairs by (s1, m1)(s2, m2) = (s1.m2 +
    m1.s2, m1 m2), acting by gathers.  One product automaton runs h beside
    ``position_transfer`` (B the ambient stamp, K as above): a state holds
    the S-element of the class word, ``F[0]``, and the plain image, B's
    state on the plain prefix.  On every reachable state, h must agree with
    its defining formula h(w) = (S-element of the class word of w, plain
    image of w), so h determines the cell (S-element, plain-part class); the
    cell must determine h; and the cells must be the classes of a congruence
    (``congruence_witness``).  A failing report names a shortest word on
    which h and the formula differ, or two shortest words that share a class
    on one side only.  ``hbound`` is still accepted but no longer counts.
    """
    params = {"base": list(dd.base_symbols), "target_monoid": len(nv),
              "ambient": len(dd.pi.monoid)}
    homs, evs, gathers, cap = _evaluations(dd, nv, caps)
    ntab, mtab = nv.table, dd.m_mon.table
    vecs, s_of, kdelta = closure((nv.identity,) * len(homs), lambda v: [
        tuple([ntab[a][b] for a, b in zip(v, e)]) for e in evs], *cap)
    lefts, rights = gathers()

    def pair_mul(p1, p2):  # (s1.m2 + m1.s2, m1 m2), the actions by gathers
        (s1, m1), (s2, m2) = p1, p2
        u, v = vecs[s1], vecs[s2]
        s = s_of.get(tuple([ntab[u[i]][v[j]] for i, j in zip(rights[m2], lefts[m1])]))
        if s is None:
            raise InvariantViolated("a pair product leaves S", stage="pair monoid")
        return s, mtab[m1][m2]
    hstamp, pair_of = _pair_stamp(dd, kdelta[0], pair_mul, caps)
    stats = {"letters": len(dd.t_blocks), "evaluations": len(homs),
             "s_monoid": len(vecs), "plain_monoid": len(dd.m_mon),
             "pair_monoid": len(hstamp.monoid)}

    def failed(counterexample):
        return Report(check="recognizer", params=params, passed=False,
                      counterexample=counterexample, stats=stats)

    syms, ptab = dd.base_symbols, dd.pi.monoid.table
    tstates, tdelta = position_transfer(
        tuple(tuple(map(row.__getitem__, dd.pi.letters)) for row in ptab),
        dd.pi.monoid.identity, list(map(dd.t_letter.get, range(len(ptab)))),
        kdelta, 0, caps, "transfer automaton")
    htab = hstamp.monoid.table
    pairs, _, edges = closure((hstamp.monoid.identity, 0), lambda hq: [
        (htab[hq[0]][hl], tdelta[hq[1]][i]) for i, hl in enumerate(hstamp.letters)],
        caps.dfa_states, "recognizer product automaton")
    formulas = [(tstates[q][1][0], dd.m_index[tstates[q][0]]) for _, q in pairs]
    block_of = {dd.m_index[m]: j for j, b in enumerate(dd.d0_blocks) for m in b}
    cells = [(s, block_of[m]) for s, m in formulas]
    stats["left_atoms"] = len({h for h, _ in pairs})
    stats["right_cells"] = len(set(cells))

    paths = first_paths(edges, syms)
    first_cell = {}
    for j, ((h, _), formula) in enumerate(zip(pairs, formulas)):
        if pair_of[h] != formula:
            return failed(f"the pair morphism sends {_word(paths[j])} to "
                          f"{pair_of[h]} but the per-position evaluation "
                          f"formula gives {formula}")
        k = first_cell.setdefault(cells[j], j)
        if pairs[k][0] != h:
            return failed(f"{_word(paths[k])} and {_word(paths[j])} share a "
                          f"cell but lie in different pair-morphism classes")

    witness = congruence_witness(edges, cells, syms)
    if witness is not None:
        return failed("cells are not closed under quotients: "
                      + _separation(*witness))
    return Report(check="recognizer", params=params, passed=True, stats=stats)
