"""Exact regular-language machinery at desk scale.

Complete DFAs, finite monoids with exhaustively checked laws, stamps
(surjective morphisms from a free monoid), syntactic monoids via transition
monoids of minimal automata, Boolean algebras of recognized languages, and
the shortlex numbering of bounded word tables.  Automata are never guessed
from bounded data: formulas compile exactly in ``logic.formula_dfa``.

Everything is deterministic: every breadth-first search here (reachable
states, products, minimization's renumbering, monoid generation) goes
through ``closure``, so states are numbered in discovery order, alphabet
order breaking ties, and monoid elements get shortlex representative words.
Automata built on a closure's states (``closure_dfa``) are reachable and in
that order already, so ``minimize`` does not search them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import caps as _caps
from .errors import CapExceeded, ParseError
from .words import ExtendedAlphabet


# ---------------------------------------------------------------------------
# breadth-first closure


def closure(start, step, limit=None, stage="closure"):
    """Close ``start`` under ``step`` breadth-first.

    ``step(x)`` lists the successors of x in a fixed order.  Returns
    (order, index, edges): the elements in discovery order with ``start``
    first, each element's position in ``order``, and per element the
    positions of its successors in step order.  Discovering an element
    beyond ``limit`` raises CapExceeded naming the stage.
    """
    order = [start]
    index = {start: 0}
    edges = []
    for x in order:  # the list grows while it is read: a FIFO queue
        row = []
        for y in step(x):
            j = index.get(y)
            if j is None:
                if limit is not None and len(order) >= limit:
                    raise CapExceeded(f"{stage} exceeds the cap of {limit} elements",
                                      stage=stage, cap=limit)
                j = index[y] = len(order)
                order.append(y)
            row.append(j)
        edges.append(tuple(row))
    return order, index, edges


def first_edges(edges) -> list:
    """Per closure element after the start, the edge (i, c) along which the
    search first reached it: from element i, by its c-th successor."""
    first = [()] + [None] * (len(edges) - 1)
    for i, row in enumerate(edges):
        for c, j in enumerate(row):
            if first[j] is None:
                first[j] = (i, c)
    return first[1:]


def first_paths(edges, labels) -> list:
    """Per closure element, the labels along which the search first reached
    it: the shortlex-first path when ``labels`` follow the step order."""
    paths = [()]
    for i, c in first_edges(edges):
        paths.append(paths[i] + (labels[c],))
    return paths


# ---------------------------------------------------------------------------
# DFAs


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton; delta[state][symbol_index].
    ``_minimal`` is set on the result of ``minimize``, which is its own
    minimization; ``_bfs`` only by ``closure_dfa``: its states are reachable
    and in BFS order from 0, so ``minimize`` skips its reachability search.
    All are validated."""

    alphabet: tuple
    delta: tuple
    init: int
    accepting: frozenset
    _minimal: bool = field(default=False, init=False, compare=False,
                           repr=False)
    _bfs: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.delta)
        if n == 0:
            raise ParseError("a complete DFA needs at least one state")
        for row in self.delta:
            if len(row) != len(self.alphabet):
                raise ParseError("delta row arity mismatch")
            for q in row:
                if not 0 <= q < n:
                    raise ParseError("transition out of range")
        if not 0 <= self.init < n or not self.accepting <= set(range(n)):
            raise ParseError("bad initial/accepting states")

    @property
    def n(self):
        return len(self.delta)

    def _col(self, sym) -> int:
        try:
            return self.alphabet.index(sym)
        except ValueError:
            raise ParseError(f"symbol {sym!r} not in DFA alphabet")

    def run(self, word, start=None) -> int:
        q = self.init if start is None else start
        for sym in word:
            q = self.delta[q][self._col(sym)]
        return q

    def accepts(self, word) -> bool:
        return self.run(word) in self.accepting

    # -- constructions -------------------------------------------------------

    def complement(self) -> "Dfa":
        return Dfa(self.alphabet, self.delta, self.init,
                   frozenset(range(self.n)) - self.accepting)

    def product(self, other: "Dfa", keep, caps: _caps.Caps = _caps.DEFAULT) -> "Dfa":
        """Reachable product automaton; keep(acc1, acc2) decides acceptance."""
        if self.alphabet != other.alphabet:
            raise ParseError("product of DFAs over different alphabets")
        order, _, delta = closure(
            (self.init, other.init),
            lambda pq: zip(self.delta[pq[0]], other.delta[pq[1]]),
            caps.dfa_states, "product automaton")
        return closure_dfa(self.alphabet, delta, (
            i for i, (p, q) in enumerate(order)
            if keep(p in self.accepting, q in other.accepting)))

    def intersect(self, other):
        return self.product(other, lambda a, b: a and b)

    def union(self, other):
        return self.product(other, lambda a, b: a or b)

    def symdiff(self, other):
        return self.product(other, lambda a, b: a != b)

    # -- queries ---------------------------------------------------------------

    def is_empty(self) -> bool:
        reach = closure(self.init, self.delta.__getitem__)[0]
        return not any(q in self.accepting for q in reach)

    def equivalent(self, other: "Dfa") -> bool:
        return self.symdiff(other).is_empty()

    def minimize(self) -> "Dfa":
        """Canonical minimal complete DFA: reachable part (all of a ``_bfs``
        automaton), Moore refinement, BFS renumbering in alphabet order."""
        if self._minimal:
            return self
        if self._bfs:
            reach, succ = range(self.n), self.delta
        else:
            reach, _, succ = closure(self.init, self.delta.__getitem__)
        # Moore partition refinement on the reachable part
        block = [1 if q in self.accepting else 0 for q in reach]
        nblocks = len(set(block))
        while True:
            sig = {}
            newblock = [sig.setdefault((b, *map(block.__getitem__, row)), len(sig))
                        for b, row in zip(block, succ)]
            if len(sig) == nblocks:
                break
            block, nblocks = newblock, len(sig)
        if self._bfs and nblocks == self.n:  # minimal, and in canonical order
            object.__setattr__(self, "_minimal", True)
            return self
        # quotient (one row per block), then canonical BFS order
        qdelta = {}
        for i, row in enumerate(succ):
            if block[i] not in qdelta:
                qdelta[block[i]] = tuple(block[t] for t in row)
        order, renum, delta = closure(block[0], qdelta.__getitem__)
        out = closure_dfa(self.alphabet, delta, (
            renum[block[i]] for i, q in enumerate(reach) if q in self.accepting))
        object.__setattr__(out, "_minimal", True)
        return out


def closure_dfa(alphabet, edges, accepting) -> Dfa:
    """The automaton flagged ``_bfs`` on the states of a ``closure`` whose
    step lists successors in symbol order: start 0, its ``edges`` as
    transitions, the ``accepting`` positions."""
    out = Dfa(tuple(alphabet), tuple(edges), 0, frozenset(accepting))
    object.__setattr__(out, "_bfs", True)
    return out


def universal_dfa(alphabet) -> Dfa:
    return Dfa(tuple(alphabet), ((0,) * len(tuple(alphabet)),), 0, frozenset({0}))


def empty_dfa(alphabet) -> Dfa:
    return Dfa(tuple(alphabet), ((0,) * len(tuple(alphabet)),), 0, frozenset())


def mark_count_dfa(ext: ExtendedAlphabet, var, counts) -> Dfa:
    """Words over an extended alphabet whose number of positions marked with
    ``var`` lies in ``counts`` (counted 0, 1, or 'many' = 2+)."""
    marks = [int(var in ext.split(s)[1]) for s in ext.symbols]
    delta = tuple(tuple(min(q + m, 2) for m in marks) for q in range(3))  # 0, 1, 2+
    return Dfa(tuple(ext.symbols), delta, 0, frozenset(q for q in range(3) if q in counts))


def plain_universe_dfa(ext: ExtendedAlphabet) -> Dfa:
    """Embedded A^*: no variable marked anywhere."""
    d = None
    for v in ext.ctx:
        piece = mark_count_dfa(ext, v, {0})
        d = piece if d is None else d.intersect(piece)
    return (d or universal_dfa(ext.symbols)).minimize()


def image_dfa(ext: ExtendedAlphabet) -> Dfa:
    """The image of the marked-word embedding: every context variable marks
    exactly one position."""
    d = None
    for v in ext.ctx:
        piece = mark_count_dfa(ext, v, {1})
        d = piece if d is None else d.intersect(piece)
    return (d or universal_dfa(ext.symbols)).minimize()


def zero_part_dfa(ext: ExtendedAlphabet) -> Dfa:
    """Everything that is neither unmarked nor a marked-word embedding."""
    return plain_universe_dfa(ext).union(image_dfa(ext)).complement().minimize()


# ---------------------------------------------------------------------------
# finite monoids


ASSOC_CHECK_LIMIT = 1024  # the largest table FinMonoid checks exhaustively
PYTHON_CHECK_LIMIT = 6    # the largest it checks in plain Python first: numpy's
                          # per-call overhead outweighs the work below it


def int_array(obj, ndim: int, what: str) -> np.ndarray:
    """``obj`` as an int64 array with ``ndim`` axes: the check on every
    integer table or index read from input.  Ragged nesting, entries that
    are not integers (floats, strings, None) and integers beyond 64 bits are
    a ParseError naming ``what``."""
    try:
        a = np.asarray(obj)
    except (TypeError, ValueError, OverflowError):  # ragged or odd entries
        a = None
    if a is None or a.ndim != ndim or a.size and (a.dtype.kind not in "biu" or (
            a.dtype.kind == "u" and a.max() > np.iinfo(np.int64).max)):
        kind = ("an integer", "a list of integers", "a matrix of integers")[ndim]
        raise ParseError(f"{what} must be {kind}, got {obj!r:.60}")
    return a.astype(np.int64, copy=False)


def _assert_associative(t, gens=None):
    """Refuse a table (a numpy matrix) that is not associative.  Without
    generators every triple is compared.  With generators whose right
    products reach every element, Light's test (x.y).g = x.(y.g) for every
    generator g suffices: by induction on z = z'.g, (x.y).z = ((x.y).z').g
    = (x.(y.z')).g = x.((y.z').g) = x.(y.z)."""
    n = len(t)
    right = t if gens is None else t[:, gens]  # the c of (a.b).c
    chunk = max(1, (1 << 22) // max(1, n * right.shape[1]))
    for s in range(0, n, chunk):
        blk = t[s:s + chunk]
        lhs = right[blk]       # (a.b).c
        rhs = blk[:, right]    # a.(b.c)
        if not (lhs == rhs).all():
            a, b, c = np.argwhere(lhs != rhs)[0]
            c = c if gens is None else gens[c]
            raise ParseError(f"multiplication not associative at ({s + a},{b},{c})")


def _python_proves(table, e, cayley) -> bool:
    """True when plain Python proves all that ``FinMonoid`` checks by numpy."""
    n = len(table)
    t = [tuple(r) for r in table if n <= PYTHON_CHECK_LIMIT and type(r) in (tuple, list)]
    flat = sum(t, ())
    if type(e) is not int or not 0 <= e < n == len(t) or {*map(len, t)} != {n} \
            or {*map(type, flat)} != {int} or min(flat) < 0 or max(flat) >= n:
        return False
    right = t if cayley is None else [tuple(map(r.__getitem__, cayley[0])) for r in t]
    ids, cols = tuple(range(n)), sum(right, ())  # (x.y).c against x.(y.c), by rows x
    return t[e] == ids == tuple(r[e] for r in t) \
        and (cayley is None or right == list(cayley[1])) \
        and all(sum(map(right.__getitem__, rx), ()) == tuple(map(rx.__getitem__, cols))
                for rx in t)


@dataclass(frozen=True)
class FinMonoid:
    """Finite monoid as a multiplication table over 0..n-1.

    Identity is always verified.  A table from ``generate_monoid`` carries
    its generators and the edges of its search from the identity
    (``_cayley``): its generator columns must be those edges, so every
    element is a right product of generators, and associativity is verified
    by Light's test at any size.  Any other table is verified exhaustively
    whenever n is at most ``ASSOC_CHECK_LIMIT``, and not above it; numpy
    checks, chunked, the tables that ``_python_proves`` does not accept.
    """

    table: tuple
    identity: int
    names: tuple = None
    _cayley: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.table)
        if not _python_proves(self.table, self.identity, self._cayley):
            t = int_array(self.table, 2, "a multiplication table")
            if n == 0 or t.shape != (n, n) or t.min() < 0 or t.max() >= n:
                raise ParseError("malformed multiplication table")
            e = int(int_array(self.identity, 0, "the identity"))
            if not 0 <= e < n:
                raise ParseError(f"identity {e} is not an element")
            ids = np.arange(n)
            if not ((t[e] == ids).all() and (t[:, e] == ids).all()):
                bad = np.flatnonzero((t[e] != ids) | (t[:, e] != ids))[0]
                raise ParseError(f"identity fails at {bad}")
            if self._cayley is not None:
                gens, edges = list(self._cayley[0]), self._cayley[1]
                if list(map(tuple, t[:, gens].tolist())) != list(edges):
                    raise ParseError("generator columns disagree with the search")
                _assert_associative(t, gens)
            elif n <= ASSOC_CHECK_LIMIT:
                _assert_associative(t)
        if self.names is not None and len(self.names) != n:
            raise ParseError("names length mismatch")

    def __len__(self):
        return len(self.table)

    def mul(self, a, b) -> int:
        return self.table[a][b]

    def prod(self, elts) -> int:
        out = self.identity
        for x in elts:
            out = self.table[out][x]
        return out

    def submonoid(self, gens) -> frozenset:
        order, _, _ = closure(self.identity,
                              lambda e: [self.table[e][g] for g in gens])
        return frozenset(order)


def named_monoid(name: str) -> FinMonoid:
    """Small reference monoids for recognizer targets: the one-element
    monoid, the two-element join semilattice, and cyclic groups."""
    if name == "trivial":
        return FinMonoid(table=((0,),), identity=0, names=("1",))
    if name == "U1":
        return FinMonoid(table=((0, 1), (1, 1)), identity=0, names=("0", "1"))
    if name.startswith("Z") and name[1:].isdigit():
        k = int(name[1:])
        table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
        return FinMonoid(table=table, identity=0,
                         names=tuple(str(i) for i in range(k)))
    raise ParseError(f"unknown monoid name {name!r}")


def input_monoid(table, identity, names, stage) -> FinMonoid:
    """A monoid whose table is read from input, so ``FinMonoid`` must check
    it in full: a table of more than ``ASSOC_CHECK_LIMIT`` elements, past
    the associativity check, is refused with CapExceeded naming ``stage``."""
    if len(table) > ASSOC_CHECK_LIMIT:
        raise CapExceeded(f"a table of {len(table)} elements is too large to "
                          f"check for associativity (cap {ASSOC_CHECK_LIMIT})",
                          stage=stage, size=len(table), cap=ASSOC_CHECK_LIMIT)
    return FinMonoid(table, identity, names)


def generate_monoid(identity, gens, mul, caps: _caps.Caps = _caps.DEFAULT,
                    limit=None, stage="generated monoid"):
    """Close hashable elements under multiplication starting from the
    identity (BFS over right multiplication by generators).

    ``mul`` must be associative with ``identity`` as its identity: it is
    called only on the search's edges, and the table is read off them.  If
    element j was first reached as i.g, then a.j = (a.i).g, so column j of
    the table is column i mapped through the edges of g; column 0 is the
    identity map.  ``FinMonoid`` checks the result with Light's test.

    gens is a list of (name, element) pairs; returns (elements, index,
    FinMonoid, reps) where reps[i] is the shortlex-first generator word
    reaching element i.  Generation stops with CapExceeded naming ``stage``
    beyond ``limit`` elements (default: the ``monoid`` cap), and with
    ParseError naming ``stage`` if the search never reaches a generator.
    """
    elements, index, edges = closure(
        identity, lambda e: [mul(e, g) for _, g in gens],
        caps.monoid if limit is None else limit, stage)
    for name, g in gens:
        if g not in index:
            raise ParseError(f"generator {name!r} is not reached from the "
                             "identity", stage=stage)
    by_gen = list(zip(*edges))  # by_gen[c][x] = x.g_c
    cols, reps = [range(len(elements))], [()]
    for i, c in first_edges(edges):
        cols.append(list(map(by_gen[c].__getitem__, cols[i])))
        reps.append(reps[i] + (gens[c][0],))
    mon = FinMonoid(tuple(zip(*cols)), 0,
                    _cayley=(tuple(index[g] for _, g in gens), edges))
    return elements, index, mon, tuple(reps)


def cayley_dfa(alphabet, monoid: FinMonoid, letters, accepted) -> Dfa:
    """The right Cayley automaton of a monoid: states are its elements, the
    i-th symbol multiplies by ``letters[i]``, starting from the identity and
    accepting the elements in ``accepted``."""
    delta = tuple(tuple(row[l] for l in letters) for row in monoid.table)
    return Dfa(tuple(alphabet), delta, monoid.identity, frozenset(accepted))


# ---------------------------------------------------------------------------
# stamps


@dataclass(frozen=True)
class Stamp:
    """A surjective morphism from the free monoid on ``alphabet`` onto a
    finite monoid, as a letter table; optionally with an accepting subset
    presenting one language."""

    alphabet: tuple
    monoid: FinMonoid
    letters: tuple           # letters[i] = image of alphabet[i]
    reps: tuple              # representative word per monoid element
    accepting: frozenset = None

    def __post_init__(self):
        gen = self.monoid.submonoid(set(self.letters))
        if gen != frozenset(range(len(self.monoid))):
            raise ParseError("stamp is not surjective onto its monoid")
        for m, rep in enumerate(self.reps):
            if self.mu(rep) != m:
                raise ParseError(f"representative of element {m} is wrong")

    def letter(self, sym) -> int:
        return self.letters[self.alphabet.index(sym)]

    def mu(self, word) -> int:
        out = self.monoid.identity
        for sym in word:
            out = self.monoid.table[out][self.letter(sym)]
        return out

    def dfa(self, accepted) -> Dfa:
        """mu^{-1}(accepted) as a DFA on the monoid's right Cayley graph."""
        return cayley_dfa(self.alphabet, self.monoid, self.letters, accepted)

    def accepted(self, lang: Dfa, cls=None, caps: _caps.Caps = _caps.DEFAULT):
        """The elements whose words ``lang`` accepts if the stamp recognizes
        it, else None: the stamp is onto, so it does when acceptance on the
        pairs reached from (identity, start), at most ``caps.dfa_states``, is
        a function of the element (with ``cls``, of ``cls[element]``)."""
        if tuple(self.alphabet) != lang.alphabet:
            raise ParseError("product of DFAs over different alphabets")
        tab, cls, acc = self.monoid.table, cls or range(len(self.reps)), {}
        for m, q in closure((self.monoid.identity, lang.init), lambda mq: zip(
                map(tab[mq[0]].__getitem__, self.letters), lang.delta[mq[1]]),
                caps.dfa_states, "product automaton")[0]:
            if acc.setdefault(cls[m], q in lang.accepting) != (q in lang.accepting):
                return None
        return frozenset(m for m in range(len(tab)) if acc[cls[m]])


def syntactic_stamp(dfa: Dfa, caps: _caps.Caps = _caps.DEFAULT) -> Stamp:
    """Syntactic stamp of one language: transition monoid of the minimal
    complete automaton, with the accepting image set."""
    st = syntactic_stamp_of_family([dfa], caps)
    acc = st.accepted(dfa, caps=caps)
    if acc is None:
        raise ParseError("syntactic stamp does not recognize its language")
    return Stamp(st.alphabet, st.monoid, st.letters, st.reps, acc)


def syntactic_stamp_of_family(dfas, caps: _caps.Caps = _caps.DEFAULT) -> Stamp:
    """Syntactic stamp of a finite family of languages over one alphabet:
    the transition monoid of the reachable product of the minimal automata
    (= the quotient of A* by the intersection of the syntactic congruences).
    """
    if not dfas:
        raise ParseError("empty family")
    mins = [d.minimize() for d in dfas]
    alphabet = mins[0].alphabet
    if any(m.alphabet != alphabet for m in mins):
        raise ParseError("family over different alphabets")
    states, _, edges = closure(
        tuple(m.init for m in mins),
        lambda q: zip(*(m.delta[s] for m, s in zip(mins, q))),
        caps.dfa_states, "family product automaton")
    # letter c acts on the product states by column c of the edges, uv by u then v
    gens = list(zip(alphabet, zip(*edges)))
    elements, elt_index, mon, reps = generate_monoid(
        tuple(range(len(states))), gens, lambda f, g: tuple(map(g.__getitem__, f)), caps)
    letters = tuple(elt_index[g] for _, g in gens)
    return Stamp(alphabet, mon, letters, reps)


# ---------------------------------------------------------------------------
# Boolean algebras of recognized languages


@dataclass(frozen=True)
class RegularBA:
    """A finite Boolean algebra of regular languages over one alphabet,
    presented by a stamp plus a partition of the monoid into blocks; the
    elements are the preimages of unions of blocks."""

    stamp: Stamp
    blocks: tuple  # tuple[frozenset[int]] partitioning the monoid

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b or b & seen:
                raise ParseError("blocks must partition the monoid")
            seen |= b
        if seen != set(range(len(self.stamp.monoid))):
            raise ParseError("blocks must partition the monoid")

    @property
    def alphabet(self):
        return self.stamp.alphabet

    def element_count(self) -> int:
        return 1 << len(self.blocks)

    def contains(self, lang: Dfa, caps: _caps.Caps = _caps.DEFAULT) -> bool:
        """Exact membership: acceptance is a function of the block."""
        return self.stamp.accepted(lang, {m: i for i, b in enumerate(
            self.blocks) for m in b}, caps) is not None

    def quotient_witness(self):
        """None when the algebra is closed under word quotients, else a
        ``congruence_witness`` against it.  A finite Boolean algebra of
        regular languages is closed under quotients exactly when its atoms
        are the classes of a congruence (Gehrke, Grigorieff and Pin, ICALP
        2008); the stamp is onto, so that is when multiplying by a letter
        image on either side keeps every block inside one block.  Singletons
        do, as kernel classes, once ``FinMonoid`` proved associativity: no search."""
        mon = self.stamp.monoid
        if len(self.blocks) == len(mon) and (mon._cayley or len(mon) <= ASSOC_CHECK_LIMIT):
            return None
        order, _, edges = closure(
            mon.identity, lambda m: [mon.table[m][g] for g in self.stamp.letters])
        block_of = {m: i for i, b in enumerate(self.blocks) for m in b}
        return congruence_witness(edges, [block_of[m] for m in order],
                                  self.alphabet)


def congruence_witness(edges, labels, symbols):
    """Is the partition of A* cut out by an automaton's state labels a
    congruence?

    ``edges`` come from ``closure`` over the states from the start, so
    every state is reachable and ``edges[q][i]`` is the successor of q under
    ``symbols[i]``; the word w lies in the class ``labels[run(w)]``.  The
    letters generate A*, so the partition is a congruence exactly when
    appending a letter (right) and prepending a letter (left) keeps every
    class inside one class; equivalently, the classes' joint syntactic
    monoid has one element per class.

    Returns None for a congruence, else a replayable witness (u, v, side,
    a): the words u and v share a class, but u·a and v·a (side "right") or
    a·u and a·v (side "left") do not.
    """
    paths = first_paths(edges, symbols)
    # right: the classes of a state's successors follow from its class and
    # make the automaton of the classes
    step, first = {}, {}
    for q, row in enumerate(edges):
        c = labels[q]
        succ = tuple(labels[j] for j in row)
        if step.setdefault(c, succ) != succ:
            i = next(i for i, (x, y) in enumerate(zip(step[c], succ)) if x != y)
            return paths[first[c]], paths[q], "right", symbols[i]
        first.setdefault(c, q)
    # left: the class of a·u is reached from the class of a by u's letters,
    # and must follow from the class of u
    for i, a in enumerate(symbols):
        pairs, _, pedges = closure((labels[0], labels[edges[0][i]]),
                                   lambda cc: zip(step[cc[0]], step[cc[1]]))
        ppaths = first_paths(pedges, symbols)
        seen = {}
        for j, (c, ca) in enumerate(pairs):
            k = seen.setdefault(c, j)
            if pairs[k][1] != ca:
                return ppaths[k], ppaths[j], "left", a
    return None


def recognized_languages(stamp: Stamp) -> RegularBA:
    """All languages recognized by the stamp: atoms are the singleton
    preimages mu^{-1}(m)."""
    return RegularBA(stamp, tuple(frozenset({m}) for m in range(len(stamp.monoid))))


def quotient_closure(gens, caps: _caps.Caps = _caps.DEFAULT) -> RegularBA:
    """The Boolean algebra closed under left/right word quotients generated
    by the given languages = everything recognized by their joint syntactic
    stamp (for a quotient-closed finite BA, atoms = syntactic classes).  Its
    atoms are single elements of the syntactic monoid, the classes of a
    congruence, so it is quotient-closed by construction."""
    stamp = syntactic_stamp_of_family(list(gens), caps)
    ba = recognized_languages(stamp)
    for g in gens:
        if not ba.contains(g, caps):
            raise ParseError("generator escaped its own quotient closure")
    return ba


def factor_stamp(stamp: Stamp, lang: Dfa):
    """Does the stamp recognize the language?  If so, return (g, accepted):
    the factoring morphism g (as a table monoid -> syntactic monoid of the
    language, with g∘mu = mu_lang) and the accepting subset; else None."""
    accepted = stamp.accepted(lang)
    if accepted is None:
        return None
    syn = syntactic_stamp(lang)
    g = tuple(syn.mu(stamp.reps[m]) for m in range(len(stamp.monoid)))
    # morphism sanity: g respects letters and identity
    if g[stamp.monoid.identity] != syn.monoid.identity:
        raise ParseError("factoring map misses the identity")
    for ci, sym in enumerate(stamp.alphabet):
        for m in range(len(stamp.monoid)):
            lhs = g[stamp.monoid.table[m][stamp.letters[ci]]]
            rhs = syn.monoid.table[g[m]][syn.letters[ci]]
            if lhs != rhs:
                raise ParseError("factoring map is not a morphism")
    return g, accepted


# ---------------------------------------------------------------------------
# shortlex word tables
#
# A bounded table covers every word of length <= bound.  With the k letters
# numbered 0..k-1, the words are numbered in shortlex order: w gets the id
# off[|w|] + rank(w), where off[n] counts the words shorter than n and
# rank(w) reads w as a base-k numeral.  The child of word i under letter c
# is then word i*k + c + 1, so the words of length n are the children of the
# words of length n-1, in order, and u·p has the id
# off[|u|+|p|] + rank(u)·k^|p| + rank(p).


def shortlex_offsets(k: int, bound) -> np.ndarray:
    """off[n] for n = 0..bound+1: the number of words shorter than n over k
    letters.  The table of the words of length <= bound has off[-1] ids."""
    return np.cumsum([0] + [k ** n for n in range(bound + 1)], dtype=np.int64)


@lru_cache(maxsize=16)
def shortlex_rows(k: int, bound):
    """All words of length <= bound over k letters in shortlex order, as an
    (off[-1], bound) matrix of letter indices with each row padded past its
    word by -1, and the vector of word lengths.  Both are shared between
    callers and read-only."""
    lens = np.repeat(np.arange(bound + 1), [k ** n for n in range(bound + 1)])
    rank = np.arange(len(lens)) - shortlex_offsets(k, bound)[lens]
    weights = row_weights(lens, bound, k)
    digit = rank[:, None] // np.maximum(weights, 1) % max(k, 1)  # k = 0: no digit
    out = np.where(weights > 0, digit, -1), lens
    for table in out:
        table.setflags(write=False)
    return out


def row_weights(lens, width: int, k: int) -> np.ndarray:
    """k^(n-1-p) at position p < n of a row of length n, and 0 past it: the
    rank of a padded row read as a base-k numeral is its letters dotted
    with these."""
    exp = np.asarray(lens, dtype=np.int64)[..., None] - 1 - np.arange(width)
    return np.where(exp >= 0, k ** np.maximum(exp, 0), 0)


def word_ids(letters, k: int, off) -> np.ndarray:
    """The table ids of the words in the last axis of ``letters`` (letter
    indices 0..k-1, each row padded past its word by -1): off[n] + rank, rank
    the word of length n read as a base-k numeral.  The id is linear in the
    letters past off[n], with coefficients ``row_weights``."""
    letters = np.asarray(letters, dtype=np.int64)
    lens = (letters >= 0).sum(-1)
    return off[lens] + (letters * row_weights(lens, letters.shape[-1], k)).sum(-1)

