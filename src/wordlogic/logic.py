"""Formulas with generalized quantifiers on marked words.

AST, a small LL parser for the textual surface, the quantifier/predicate
registry, satisfaction semantics, bounded model sets and bounded semantic
equivalence, the letter-relabeling action, and the bridge from a formula to
an exact automaton over the extended alphabet.

Beside the three semantics (``satisfies``, ``truth_table``, ``formula_dfa``)
there are two structural walks: ``map_atoms`` rebuilds formulas (renaming
and substitution through its binder hook), ``scope`` analyses them.  Bulk
evaluation makes one walk of its own and no other: ``_operations`` numbers
a family's distinct operations and checks each formula on the way.

Surface syntax:

    E x. P[a](x) & ~(x < y | R[succ](x,y)) | mod[2,0] z. P[b](z)

Quantifier names: ``E`` (exists), ``E1`` (exactly one), ``mod[q,r]``
(number of witnesses congruent to r mod q), ``maj`` (strict majority,
oracle-only), plus registered names.  A binder's body extends as far to
the right as possible; ``~`` binds tighter than ``&`` tighter than ``|``.
``1`` and ``0`` are the always-true / always-false formulas.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce

import numpy as np

from . import caps as _caps
from .errors import CapExceeded, NotMonoidPresentable, ParseError
from .regular import (Dfa, FinMonoid, closure, closure_dfa, empty_dfa,
                      input_monoid, int_array, shortlex_rows)
from .semidirect import quantifier_layer
from .words import (Alphabet, ExtendedAlphabet, MarkedWord, check_bound,
                    check_table, enumerate_marked)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Truth:
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class Falsum:
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class LetterPred:
    symbol: str
    var: str


@dataclass(frozen=True)
class NumPred:
    name: str
    args: tuple


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class Quant:
    q: str
    var: str
    body: object


TRUE = Truth()
FALSE = Falsum()

Formula = (Truth, Falsum, LetterPred, NumPred, Not, And, Or, Quant)


def conj(parts) -> object:
    """Flattened conjunction with unit/absorbing simplification."""
    out = []
    for p in parts:
        if isinstance(p, Falsum):
            return FALSE
        if isinstance(p, Truth):
            continue
        out.extend(p.args if isinstance(p, And) else (p,))
    if not out:
        return TRUE
    return out[0] if len(out) == 1 else And(tuple(out))


def disj(parts) -> object:
    """Flattened disjunction; the empty join is the always-false formula."""
    out = []
    for p in parts:
        if isinstance(p, Truth):
            return TRUE
        if isinstance(p, Falsum):
            continue
        out.extend(p.args if isinstance(p, Or) else (p,))
    if not out:
        return FALSE
    return out[0] if len(out) == 1 else Or(tuple(out))


def neg(phi) -> object:
    if isinstance(phi, (Truth, Falsum)):
        return FALSE if isinstance(phi, Truth) else TRUE
    return phi.sub if isinstance(phi, Not) else Not(phi)


def map_atoms(phi, f, bind=None):
    """Rebuild a formula with every atom (letter test, numerical predicate,
    constant) replaced by ``f(atom)``, left to right: the one walk that
    rebuilds formulas.  The binder hook ``bind(binder, f)``, when given,
    returns the binder's output variable and the atom map of its body."""
    if isinstance(phi, Not):
        return Not(map_atoms(phi.sub, f, bind))
    if isinstance(phi, And):
        return And(tuple(map_atoms(a, f, bind) for a in phi.args))
    if isinstance(phi, Or):
        return Or(tuple(map_atoms(a, f, bind) for a in phi.args))
    if isinstance(phi, Quant):
        var, f = bind(phi, f) if bind else (phi.var, f)
        return Quant(phi.q, var, map_atoms(phi.body, f, bind))
    return f(phi)


def _atom_vars(node) -> frozenset:
    if isinstance(node, LetterPred):
        return frozenset({node.var})
    if isinstance(node, NumPred):
        return frozenset(node.args)
    return frozenset()


def scope(phi) -> tuple:
    """(free variables, bound variables) of a formula, in one walk."""
    if isinstance(phi, Not):
        return scope(phi.sub)
    if isinstance(phi, (And, Or)):
        free = bound = frozenset()
        for a in phi.args:
            sub_free, sub_bound = scope(a)
            free |= sub_free
            if sub_bound:
                bound |= sub_bound
        return free, bound
    if isinstance(phi, Quant):
        free, bound = scope(phi.body)
        return free - {phi.var}, bound | {phi.var}
    return _atom_vars(phi), frozenset()


def free_vars(phi) -> frozenset:
    return scope(phi)[0]


def bound_vars(phi) -> frozenset:
    return scope(phi)[1]


def all_vars(phi) -> frozenset:
    """Every variable the formula mentions, free or bound."""
    return frozenset.union(*scope(phi))


def letters_of(phi) -> frozenset:
    """All alphabet symbols the formula mentions in letter tests."""
    atoms = []
    map_atoms(phi, lambda node: atoms.append(node) or node)
    return frozenset(a.symbol for a in atoms if isinstance(a, LetterPred))


def check_hygiene(phi):
    """Reject a variable that occurs both free and bound, or is bound twice
    along one branch; keeps substitution capture-free by construction."""
    free, bound = scope(phi)
    clash = free & bound
    if clash:
        raise ParseError(f"variable {min(clash)!r} occurs both free and bound")

    def bind(node, f):
        if node.var in bound_vars(node.body):
            raise ParseError(f"variable {node.var!r} is bound twice")
        return node.var, f

    map_atoms(phi, lambda node: node, bind)
    return phi


def _rename_atom(ren: dict, node):
    if isinstance(node, LetterPred):
        return LetterPred(node.symbol, ren.get(node.var, node.var))
    if isinstance(node, NumPred):
        return NumPred(node.name, tuple(ren.get(v, v) for v in node.args))
    return node


def map_vars(phi, ren: dict):
    """Rename the free variables of a formula by a table, capture-free: a
    binder of a renamed variable hides it from its body, and a variable
    renamed to the variable of a binder it occurs free under is refused
    with a ParseError naming it (rename_bound first)."""
    def bind(node, f):
        ren = {u: w for u, w in f.args[0].items() if u != node.var}
        for u, w in ren.items():
            if w == node.var and u in free_vars(node.body):
                raise ParseError(f"variable {u!r} renamed to {w!r} would be "
                                 f"captured by the binder of {w!r}")
        return node.var, partial(_rename_atom, ren)

    return map_atoms(phi, partial(_rename_atom, ren), bind)


def fresh_names(avoid):
    """The names z0, z1, ... that are not in ``avoid``, in order."""
    return (name for name in map("z{}".format, itertools.count())
            if name not in avoid)


def fresh_binder(avoid):
    """The binder hook of a systematic renaming, for atom maps
    ``partial(leaf, ren)``: each binder, left to right, takes the next name
    of ``fresh_names(avoid)``, added to ``ren`` for its body."""
    fresh = fresh_names(avoid)

    def bind(node, f):
        v = next(fresh)
        return v, partial(f.func, {**f.args[0], node.var: v})

    return bind


def rename_bound(phi, avoid):
    """Systematically rename all bound variables to fresh z0, z1, ... not in
    ``avoid``; deterministic left-to-right numbering.  Capture-free: no
    fresh name is free in the formula, and each occurrence of a bound
    variable stays bound by its own binder."""
    return map_atoms(phi, partial(_rename_atom, {}),
                     fresh_binder(set(avoid) | free_vars(phi)))


# ---------------------------------------------------------------------------
# quantifiers and numerical predicates


@dataclass(frozen=True)
class Quantifier:
    """A generalized unary quantifier: a function on the bit string of
    pointwise truth values, given either by a finite monoid with letter
    images and an accepting subset, or by a bare oracle.

    When the two bit images commute, as for every built-in monoid
    quantifier (``E``, ``E1``, ``mod[q,r]``), the value on a string depends
    only on its length and its number of witnesses, and bulk evaluation
    reads it from the count table ``by_count``.  Oracle quantifiers and
    monoid quantifiers whose images do not commute are applied row by row
    through ``evaluate``.  ``_counts`` keeps the read-only count tables by
    bound."""

    name: str
    monoid: FinMonoid = None
    images: tuple = None       # (image of bit 0, image of bit 1)
    accept: frozenset = None
    oracle: object = None
    _counts: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        if (self.monoid is None) == (self.oracle is None):
            raise ParseError("quantifier needs exactly one presentation")
        if self.monoid is not None:
            n = len(self.monoid)
            if self.images is None or len(self.images) != 2 \
                    or any(not 0 <= i < n for i in self.images):
                raise ParseError("bad bit images")
            if self.accept is None or not self.accept <= set(range(n)):
                raise ParseError("bad accepting subset")

    def evaluate(self, bits) -> bool:
        """Apply the quantifier to a bit string (the empty string is decided
        by the identity element / the oracle on the empty input)."""
        if self.monoid is None:
            return bool(self.oracle(tuple(bits)))
        out = self.monoid.identity
        tab = self.monoid.table
        b0, b1 = self.images
        for b in bits:
            out = tab[out][b1 if b else b0]
        return out in self.accept

    @property
    def commutes(self) -> bool:
        """A monoid quantifier whose two bit images commute: its value on a
        string depends only on the length and the number of ones."""
        if self.monoid is None:
            return False
        tab, (b0, b1) = self.monoid.table, self.images
        return tab[b0][b1] == tab[b1][b0]

    def by_count(self, bound):
        """The (bound+1) x (bound+1) bool table T[n, c]: the value on any bit
        string of length n with c ones (False where c > n), or None unless
        the quantifier ``commutes``.  Built once per bound and kept
        read-only."""
        if bound in self._counts:
            return self._counts[bound]
        counts = None
        if self.commutes:
            tab, (b0, b1) = self.monoid.table, self.images
            # b0^(n-c) b1^c: the powers of each image, then one product
            zeros, ones = [self.monoid.identity], [self.monoid.identity]
            for _ in range(bound):
                zeros.append(tab[zeros[-1]][b0])
                ones.append(tab[ones[-1]][b1])
            counts = np.array([[c <= n and tab[zeros[n - c]][ones[c]] in self.accept
                                for c in range(bound + 1)]
                               for n in range(bound + 1)], dtype=bool)
            counts.setflags(write=False)
        self._counts[bound] = counts
        return counts


@dataclass(frozen=True)
class NumPredDef:
    """k-ary numerical predicate: an oracle on (position tuple, word length);
    positions are 1-based.  ``scan``, when given, is the same predicate read
    left to right, for ``formula_dfa``: a triple (start, step, final) where
    step(s, hits) takes the set of arguments marked at the next position
    (bit i for argument i) to the next state, or to None once the predicate
    fails, and final(s) decides a word that has marked every argument.  A
    predicate with only ``holds`` evaluates but does not compile.
    ``_tables`` keeps the read-only bulk tables of ``truth_table`` by
    (argument pattern, bound)."""

    name: str
    arity: int
    holds: object
    scan: tuple = None
    _tables: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)


def _always(s) -> bool:
    return True


def _tuple_scan(tuples, arity):
    """The scan of a finite set of position tuples: the position, counted up
    to one past the largest listed, and the position of each argument."""
    top = max((p for t in tuples for p in t), default=0)

    def step(s, hits):
        pos, at = s
        pos = min(pos + 1, top + 1)
        if hits and pos > top:
            return None
        return pos, tuple(pos if hits >> i & 1 else p for i, p in enumerate(at))

    return (0, (0,) * arity), step, lambda s: s[1] in tuples


_MOD_RE = re.compile(r"^mod\[(\d+),(\d+)\]$")


def _exists_quant():
    m = FinMonoid(((0, 1), (1, 1)), 0, names=("0", "1"))
    return Quantifier("E", monoid=m, images=(0, 1), accept=frozenset({1}))


def _unique_quant():
    table = tuple(tuple(min(i + j, 2) for j in range(3)) for i in range(3))
    m = FinMonoid(table, 0, names=("0", "1", "2+"))
    return Quantifier("E1", monoid=m, images=(0, 1), accept=frozenset({1}))


def _mod_quant(q, r):
    table = tuple(tuple((i + j) % q for j in range(q)) for i in range(q))
    m = FinMonoid(table, 0)
    return Quantifier(f"mod[{q},{r}]", monoid=m, images=(0, 1 % q),
                      accept=frozenset({r}))


def _maj_quant():
    return Quantifier("maj", oracle=lambda bits: sum(bits) > len(bits) - sum(bits))


# the built-ins by kind and name, besides the mod[q,r] families of both kinds
_NAMED = {
    Quantifier: {q.name: q for q in (_exists_quant(), _unique_quant(), _maj_quant())},
    # the scan states: "<" whether the first argument was seen, "succ"
    # whether it was at the previous position, "first" whether the next
    # position is the first, "last" whether the argument was seen
    NumPredDef: {p.name: p for p in (
        NumPredDef("<", 2, lambda p, n: p[0] < p[1],
                   (0, lambda s, h: None if h & 2 and not s else s | h & 1, _always)),
        NumPredDef("=", 2, lambda p, n: p[0] == p[1],
                   (0, lambda s, h: None if h in (1, 2) else s, _always)),
        NumPredDef("succ", 2, lambda p, n: p[1] == p[0] + 1,
                   (0, lambda s, h: None if h & 2 and not s else h & 1, _always)),
        NumPredDef("first", 1, lambda p, n: p[0] == 1,
                   (1, lambda s, h: None if h and not s else 0, _always)),
        NumPredDef("last", 1, lambda p, n: p[0] == n,
                   (0, lambda s, h: None if s else h, _always)))},
}


def _is_builtin(kind, name) -> bool:
    return name in _NAMED[kind] or _MOD_RE.match(name) is not None


@lru_cache(maxsize=256)
def _builtin(kind, name):
    """The built-in ``Quantifier`` or ``NumPredDef`` (``kind``) of a name,
    or None: one object per name, shared by every registry and stored in
    none."""
    m = _MOD_RE.match(name)
    if m is None:
        return _NAMED[kind].get(name)
    q, r = int(m.group(1)), int(m.group(2))
    if q < 1 or not 0 <= r < q:
        raise ParseError(f"bad modulus parameters [{q},{r}]")
    if kind is Quantifier:
        return _mod_quant(q, r)
    # the scan state is the number of positions read, mod q
    return NumPredDef(name, 1, lambda pos, n: pos[0] % q == r,
                      (0, lambda s, h: None if h and (s + 1) % q != r
                       else (s + 1) % q, _always))


class Registry:
    """Name resolution for quantifiers and numerical predicates: the
    built-ins, shared by every registry, plus user registrations, which may
    not take a built-in name (``E``, ``E1``, ``maj``, ``<``, ``=``,
    ``succ``, ``first``, ``last`` or any ``mod[q,r]``).  Lookups never
    change a registry."""

    def __init__(self):
        self._quants = {}
        self._preds = {}

    def register_quantifier(self, q: Quantifier):
        if q.name in self._quants or _is_builtin(Quantifier, q.name):
            raise ParseError(f"quantifier {q.name!r} already registered")
        self._quants[q.name] = q

    def register_numpred(self, p: NumPredDef):
        if p.name in self._preds or _is_builtin(NumPredDef, p.name):
            raise ParseError(f"predicate {p.name!r} already registered")
        self._preds[p.name] = p

    def maybe_quantifier(self, name):
        return self._quants.get(name) or _builtin(Quantifier, name)

    def quantifier(self, name) -> Quantifier:
        q = self.maybe_quantifier(name)
        if q is None:
            raise ParseError(f"unknown quantifier {name!r}")
        return q

    def numpred(self, name) -> NumPredDef:
        p = self._preds.get(name) or _builtin(NumPredDef, name)
        if p is None:
            raise ParseError(f"unknown numerical predicate {name!r}")
        return p


class _BuiltinRegistry(Registry):
    """The built-ins alone, shared by the whole process, so read-only."""

    def register_quantifier(self, item):
        raise ParseError("the default registry is read-only; register on a "
                         "Registry() or one from registry_from_json")

    register_numpred = register_quantifier


DEFAULT_REGISTRY = _BuiltinRegistry()


def registry_from_json(data) -> Registry:
    """Extend the built-ins with a JSON declaration:
    {"quantifiers": [{"name", "table", "identity", "images", "accept"}],
     "predicates": [{"name", "arity", "tuples", "finite": true}]};
    a missing field or a value of the wrong type is a ParseError."""
    reg = Registry()
    try:
        for spec in data.get("quantifiers", ()):
            mon = input_monoid(tuple(map(tuple, spec["table"])),
                               spec.get("identity", 0), None, "quantifier monoid")
            reg.register_quantifier(Quantifier(
                spec["name"], monoid=mon,
                images=tuple(int_array(spec["images"], 1, "bit images").tolist()),
                accept=frozenset(int_array(spec["accept"], 1,
                                           "accepting elements").tolist())))
        for spec in data.get("predicates", ()):
            if not spec.get("finite", True):
                raise ParseError("only finite tuple predicates can be declared in JSON")
            tuples = frozenset(tuple(int_array(t, 1, "a position tuple").tolist())
                               for t in spec["tuples"])
            arity = int(int_array(spec["arity"], 0, "an arity"))
            if any(len(t) != arity for t in tuples):
                raise ParseError(f"arity mismatch in predicate {spec['name']!r}")
            reg.register_numpred(NumPredDef(
                spec["name"], arity, lambda p, n, ts=tuples: tuple(p) in ts,
                _tuple_scan(tuples, arity)))
    except KeyError as exc:
        raise ParseError(f"registry declaration lacks {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed registry declaration: {exc}") from None
    return reg


def split_names(text) -> tuple:
    """Split a comma list of names (quantifiers, predicates, variables,
    symbols), keeping commas inside brackets: ``E,mod[2,0]`` is two names.
    Blank entries drop."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += (ch == "[") - (ch == "]")
        cur.append(ch)
    parts.append("".join(cur))
    return tuple(p for p in (part.strip() for part in parts) if p)


# ---------------------------------------------------------------------------
# parser


_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()&|~.<=,":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
        name = m.group(0)
        i = m.end()
        if i < n and text[i] == "[":
            depth = 0
            j = i
            while j < n:
                if text[j] == "[":
                    depth += 1
                elif text[j] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise ParseError(f"unbalanced brackets at position {i}")
            name += text[i:j + 1]
            i = j + 1
        tokens.append(("ident", name, m.start()))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, registry):
        self.toks = tokens
        self.pos = 0
        self.reg = registry

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok[1]!r} at position {tok[2]}")
        self.pos += 1
        return tok

    def parse(self):
        phi = self.or_()
        end = self.take()
        if end[0] != "end":
            raise ParseError(f"trailing input {end[1]!r} at position {end[2]}")
        return check_hygiene(phi)

    def or_(self):
        parts = [self.and_()]
        while self.peek()[0] == "|":
            self.take()
            parts.append(self.and_())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_(self):
        parts = [self.unary()]
        while self.peek()[0] == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self):
        tok = self.peek()
        if tok[0] == "~":
            self.take()
            return Not(self.unary())
        if tok[0] == "(":
            self.take()
            phi = self.or_()
            self.take(")")
            return phi
        if tok[0] != "ident":
            raise ParseError(f"unexpected {tok[1]!r} at position {tok[2]}")
        name = tok[1]
        # binder: QNAME var . body   (body extends maximally)
        if self.peek(1)[0] == "ident" and self.peek(2)[0] == "." \
                and self.reg.maybe_quantifier(name) is not None:
            self.take()
            var = self.take("ident")[1]
            self.take(".")
            body = self.or_()
            return Quant(name, var, body)
        return self.atom()

    def atom(self):
        tok = self.take("ident")
        name = tok[1]
        if name == "1":
            return TRUE
        if name == "0":
            return FALSE
        if name.startswith("P[") and name.endswith("]"):
            sym = name[2:-1]
            self.take("(")
            var = self.take("ident")[1]
            self.take(")")
            return LetterPred(sym, var)
        if name.startswith("R[") and name.endswith("]"):
            pred = name[2:-1]
            defn = self.reg.numpred(pred)
            self.take("(")
            args = [self.take("ident")[1]]
            while self.peek()[0] == ",":
                self.take()
                args.append(self.take("ident")[1])
            self.take(")")
            if len(args) != defn.arity:
                raise ParseError(
                    f"predicate {pred!r} takes {defn.arity} arguments, got {len(args)}")
            return NumPred(pred, tuple(args))
        # infix comparison: var < var | var = var
        op = self.peek()
        if op[0] in ("<", "="):
            self.take()
            rhs = self.take("ident")[1]
            return NumPred(op[0], (name, rhs))
        raise ParseError(f"unexpected {name!r} at position {tok[2]}")


def parse(text, registry=None):
    return _Parser(_tokenize(text), registry or DEFAULT_REGISTRY).parse()


def parse_formula_file(text, registry=None):
    """One formula per line; '#' starts a comment; blank lines skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse(line, registry))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}")
    return out


def to_dsl(phi) -> str:
    """Deterministic textual form; parse(to_dsl(phi)) reproduces the AST."""
    return _dsl(phi, 1)


def _dsl(node, floor) -> str:
    """``to_dsl`` of a node inside an operator of binding strength
    ``floor``: parenthesized when it binds more loosely."""
    if isinstance(node, Truth):
        return "1"
    if isinstance(node, Falsum):
        return "0"
    if isinstance(node, LetterPred):
        return f"P[{node.symbol}]({node.var})"
    if isinstance(node, NumPred):
        if node.name in ("<", "="):
            return f"{node.args[0]} {node.name} {node.args[1]}"
        return f"R[{node.name}]({','.join(node.args)})"
    if isinstance(node, Not):
        return "~" + _dsl(node.sub, 3)
    if isinstance(node, And):
        s = " & ".join(_dsl(a, 3) for a in node.args)
        return f"({s})" if floor > 2 else s
    if isinstance(node, Or):
        s = " | ".join(_dsl(a, 2) for a in node.args)
        return f"({s})" if floor > 1 else s
    if isinstance(node, Quant):
        s = f"{node.q} {node.var}. {_dsl(node.body, 1)}"
        return f"({s})" if floor > 1 else s
    raise ParseError(f"not a formula: {node!r}")


# ---------------------------------------------------------------------------
# semantics


def satisfies(mw: MarkedWord, phi, registry=None) -> bool:
    """Truth of a formula on a marked word interpreting its free variables."""
    return _holds(phi, dict(mw.marks), mw.word, registry or DEFAULT_REGISTRY)


def _holds(node, marks, word, reg) -> bool:
    """``satisfies`` on a node, ``marks`` interpreting its free variables."""
    if isinstance(node, Truth):
        return True
    if isinstance(node, Falsum):
        return False
    if isinstance(node, LetterPred):
        if node.var not in marks:
            raise ParseError(f"free variable {node.var!r} has no mark")
        return word[marks[node.var] - 1] == node.symbol
    if isinstance(node, NumPred):
        try:
            positions = tuple(marks[v] for v in node.args)
        except KeyError as exc:
            raise ParseError(f"free variable {exc.args[0]!r} has no mark")
        return bool(reg.numpred(node.name).holds(positions, len(word)))
    if isinstance(node, Not):
        return not _holds(node.sub, marks, word, reg)
    if isinstance(node, And):
        return all(_holds(a, marks, word, reg) for a in node.args)
    if isinstance(node, Or):
        return any(_holds(a, marks, word, reg) for a in node.args)
    if isinstance(node, Quant):
        return reg.quantifier(node.q).evaluate(tuple(
            _holds(node.body, {**marks, node.var: i}, word, reg)
            for i in range(1, len(word) + 1)))
    raise ParseError(f"not a formula: {node!r}")


# cells (words x position tuples) of one evaluation block: it bounds the
# size of the tables, not the input, since a block holds at least one word
_BLOCK_CELLS = 1 << 20
# numpy's limit on the dimensions of an array
_MAX_AXES = 64


def _one_point(node, env):
    """(The rest of the conjunction, y) for ``E z`` or ``E1 z`` over a
    conjunction with a conjunct ``z = y``, y in scope and not z; else None."""
    args = node.body.args if node.q in ("E", "E1") and type(node.body) is And else ()
    for a in args:
        if type(a) is NumPred and a.name == "=" and node.var in a.args:
            y = a.args[a.args[0] == node.var]
            if y != node.var and y in env:
                return conj(b for b in args if b is not a), y


def _operations(phis, context) -> tuple:
    """The one walk of bulk evaluation: a family's distinct operations, each
    after its operands, numbered by keys over axes (value numbering):
    (LetterPred, symbol, axis), (NumPred, name, axes), (Not, n), (And | Or,
    (n1, ...)) and (Quant, q, axis, n) over operand numbers, ``1`` and ``0``
    being the empty And and Or.  Context variable j is on axis j + 1 and a
    bound variable past the axes around its binder: sibling binders share
    axes, and alpha-equivalent subformulas on the same axes one operation;
    ``E z``/``E1 z`` over a conjunction with a conjunct ``z = y`` is the rest
    of it with z on y's axis (the one-point rule, on built-ins no registry
    shadows; see ``truth_table``).  Each formula in turn is refused if a free
    variable is outside the context (ParseError) or it needs over
    ``_MAX_AXES`` axes (CapExceeded).  Returns (ops, the formulas' numbers,
    deepest nesting, widest operation, per op the operands it reads last)."""
    c = len(context)
    acc = number, masks, last, deepest = {}, [], {}, [c]  # masks: free axes as bits
    roots, depth = [], 0
    for phi in phis:
        deepest[0] = c
        try:
            roots.append(_walk(phi, {v: j + 1 for j, v in enumerate(context)}, acc))
        except KeyError:  # a free variable with no axis
            raise ParseError("context does not cover the formula's free "
                             "variables") from None
        d = deepest[0] - c
        if 1 + c + d > _MAX_AXES:
            raise CapExceeded(f"{c} context variables and {d} nested quantifiers "
                              f"need more than the {_MAX_AXES} array axes of bulk "
                              "evaluation", stage="bulk evaluation",
                              size=1 + c + d, cap=_MAX_AXES)
        depth = max(depth, d)
    free = [[] for _ in masks]
    for n in last.keys() - set(roots):
        free[last[n]].append(n)
    return list(number), roots, depth, max(map(int.bit_count, masks), default=0), free


def _walk(node, env, acc) -> int:
    """The number of the operation of ``node``, its variables on the axes
    of ``env``, in the numbering ``acc`` of ``_operations``: (number by key,
    free-axis masks, last readers, [the deepest axis so far])."""
    number, masks, last, deepest = acc
    kind, args = type(node), ()
    if kind is And or kind is Or:
        args = tuple([_walk(a, env, acc) for a in node.args])
        key = (kind, args)
    elif kind is Quant:
        fold = _one_point(node, env)
        if fold:
            return _walk(fold[0], {**env, node.var: env[fold[1]]}, acc)
        # not len(env) + 1: a binder may reuse a name already in scope
        ax = max(env.values(), default=0) + 1
        deepest[0] = max(deepest[0], ax)
        args = (_walk(node.body, {**env, node.var: ax}, acc),)
        key = (Quant, node.q, ax) + args
    elif kind is Not:
        args = (_walk(node.sub, env, acc),)
        key = (Not,) + args
    elif kind is LetterPred:
        key = (LetterPred, node.symbol, env[node.var])
    elif kind is NumPred:
        key = (NumPred, node.name, tuple([env[v] for v in node.args]))
    elif kind is Truth or kind is Falsum:
        key = (And if kind is Truth else Or, ())
    else:
        raise ParseError(f"not a formula: {node!r}")
    n = number.get(key)
    if n is None:
        n = number[key] = len(masks)
        bits = 1 << key[2] if kind is LetterPred else \
            sum(1 << ax for ax in set(key[2])) if kind is NumPred else 0
        for a in args:
            bits |= masks[a]
            last[a] = n
        masks.append(bits & ~(1 << key[2]) if kind is Quant else bits)
    return n


class _Evaluator:
    """The tables of a family's operations (``_operations``) over one block
    of padded letter rows: bool arrays with axis 0 for the rows and one axis
    per variable in scope (size 1 where the variable is not free), ``ndim``
    = 1 + |context| + the deepest quantifier nesting."""

    def __init__(self, symbols, ndim, letters, lens, registry):
        self.col = {s: i for i, s in enumerate(symbols)}
        self.ndim = ndim
        self.letters, self.lens = letters, lens
        self.bound = letters.shape[1]
        self.reg = registry
        self.unit = np.ones((1,) * ndim, dtype=bool)
        # the row lengths, and on each axis the positions inside the rows
        self.lens_col = self.place(lens, ())
        within = np.arange(self.bound) < lens[:, None]
        self.inside = [None] + [self.place(within, (ax,)) for ax in range(1, ndim)]

    def place(self, values, axes) -> np.ndarray:
        """An (R,) + (L,) * len(axes) array on the given ascending axes."""
        return values.reshape([len(values)] + [self.bound if ax in axes else 1
                                               for ax in range(1, self.ndim)])

    def numpred(self, name, axes):
        """Per-length tables of a numerical predicate, indexed by length n <=
        bound and the positions on its distinct axes: asked once per
        position tuple and False past n.  Atoms that differ only in their
        variables share one table, kept on the predicate for later calls."""
        free = tuple(sorted(set(axes)))
        pattern = tuple(free.index(ax) for ax in axes)
        pred, L = self.reg.numpred(name), self.bound
        tables = pred._tables.get((pattern, L))
        if tables is None:
            tables = np.zeros((L + 1,) + (L,) * len(free), dtype=bool)
            for n in range(L + 1):
                values = [bool(pred.holds(tuple(pos[i] for i in pattern), n))
                          for pos in itertools.product(range(1, n + 1), repeat=len(free))]
                tables[(n,) + (slice(n),) * len(free)] = \
                    np.array(values, dtype=bool).reshape((n,) * len(free))
            tables.setflags(write=False)
            pred._tables[pattern, L] = tables
        return self.place(tables[self.lens], free)

    def run(self, ops, free) -> list:
        """The table of every operation, in order: one flat pass that drops
        the tables each operation is the last to read (``free``)."""
        out = []
        for op, done in zip(ops, free):
            kind = op[0]
            if kind is And or kind is Or:
                combine = np.logical_and if kind is And else np.logical_or
                table = reduce(combine, [out[n] for n in op[1]] or [
                    self.unit if kind is And else ~self.unit])
            elif kind is Not:
                table = ~out[op[1]]
            elif kind is LetterPred:
                # a foreign letter is -2, which no row holds
                table = self.place(self.letters == self.col.get(op[1], -2), op[2:])
            elif kind is NumPred:
                table = self.numpred(op[1], op[2])
            else:  # Quant
                q, ax = self.reg.quantifier(op[1]), op[2]
                body = out[op[3]] & self.inside[ax]
                counts = q.by_count(self.bound)
                if counts is not None:  # a value per (row length, witness count)
                    table = counts[self.lens_col, body.sum(axis=ax, keepdims=True)]
                else:  # asked once per slice, on the row's own positions
                    rows = np.moveaxis(body, ax, -1)
                    flat = rows.reshape(len(self.lens), math.prod(rows.shape[1:-1]),
                                        self.bound).tolist()
                    values = [[q.evaluate(bits[:n]) for bits in word]
                              for word, n in zip(flat, self.lens.tolist())]
                    table = np.expand_dims(np.array(values, dtype=bool)
                                           .reshape(rows.shape[:-1]), ax)
            out.append(table)
            for n in done:
                out[n] = None
        return out


def truth_table(phis, symbols, context, letters, lens, registry=None) -> np.ndarray:
    """Truth of a family of formulas on words given as padded letter rows.

    ``letters`` is an (R, L) matrix of indices into ``symbols``; row r holds
    a word of length ``lens[r]`` and is padded past it with -1, a letter
    that matches no test.  The result has shape (k, R) + (L,) * |context|
    for k formulas: entry [i, r, p_1, ...] is the truth of formula i on
    word r with context variable j marking position p_j + 1 (``satisfies``
    is the reference); entries with a position at or past the row's length
    mean nothing: every quantifier masks them, so ``_operations`` may read a
    witness ``E z. (z = y & ..)`` as its body at z = y, which differs there.

    One walk (``_operations``) numbers the family's distinct operations and
    checks each formula, before any evaluation; per block of rows, one
    ``_Evaluator`` runs each operation once.  A numerical predicate is read
    from per-length tables; a quantifier whose bit images commute (``E``,
    ``E1``, ``mod[q,r]``, any registered one that passes ``by_count``) from
    its count table at (row length, witnesses along its axis); any other
    through ``Quantifier.evaluate`` on each row's own positions.  Blocks
    hold at most ``_BLOCK_CELLS`` cells of the widest operation, and a row.
    """
    ctx = tuple(context)
    c = len(ctx)
    ops, roots, depth, most, free = _operations(phis, ctx)
    letters = np.asarray(letters, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    rows, L = letters.shape
    out = np.empty((len(roots), rows) + (L,) * c, dtype=bool)
    block = max(1, _BLOCK_CELLS // max(1, L) ** max(c, most))
    for start in range(0, rows, block):
        part = slice(start, start + block)
        tables = _Evaluator(symbols, 1 + c + depth, letters[part], lens[part],
                            registry or DEFAULT_REGISTRY).run(ops, free)
        for i, n in enumerate(roots):
            out[i, part] = tables[n][(Ellipsis,) + (0,) * depth]
    return out


@lru_cache(maxsize=16)
def in_range(k, bound, c) -> np.ndarray:
    """The (R,) + (bound,) * c mask of the entries of a truth table over
    ``shortlex_rows(k, bound)`` whose positions all lie inside their row;
    read in C order, its cells are the marked words of ``enumerate_marked``
    in that order.  Shared between callers and read-only."""
    last = np.indices((bound,) * c).max(axis=0, initial=-1)  # latest position
    mask = shortlex_rows(k, bound)[1].reshape((-1,) + (1,) * c) > last
    mask.setflags(write=False)
    return mask


def marked_truth(phis, alphabet, context, bound, registry=None) -> np.ndarray:
    """Truth of a family of formulas on the marked words of
    ``enumerate_marked(alphabet, context, bound)``, as a bool matrix
    (formulas, marked words) in that order (``truth_table``)."""
    ctx = tuple(context)
    check_bound(bound)
    letters, lens = shortlex_rows(len(alphabet), bound)
    sat = truth_table(phis, tuple(alphabet), ctx, letters, lens, registry)
    return sat[:, in_range(len(alphabet), bound, len(ctx))]


def models(phi, alphabet: Alphabet, bound, context=None, registry=None,
           caps: _caps.Caps = _caps.DEFAULT) -> frozenset:
    """All marked words of length <= bound satisfying the formula, over the
    given context (defaults to the formula's free variables, sorted).  More
    marked words than the enumeration cap are refused before any is
    evaluated."""
    ctx = tuple(context) if context is not None else tuple(sorted(free_vars(phi)))
    if not free_vars(phi) <= set(ctx):
        raise ParseError("context does not cover the formula's free variables")
    check_table("marked word table", len(alphabet), len(ctx), bound, caps)
    truth = marked_truth((phi,), alphabet, ctx, bound, registry)[0]
    return frozenset(itertools.compress(enumerate_marked(alphabet, ctx, bound, caps), truth))


def marked_word_at(alphabet, context, bound, index) -> MarkedWord:
    """The marked word at an index of ``enumerate_marked``."""
    return next(itertools.islice(enumerate_marked(alphabet, context, bound), index, None))


def counterexample_bounded(phi, psi, alphabet: Alphabet, bound=6,
                           context=None, registry=None,
                           caps: _caps.Caps = _caps.DEFAULT):
    """First marked word (in enumeration order) where the two formulas
    disagree, or None.  More marked words than the enumeration cap are
    refused before any is evaluated."""
    ctx = tuple(context) if context is not None else \
        tuple(sorted(free_vars(phi) | free_vars(psi)))
    check_table("marked word table", len(alphabet), len(ctx), bound, caps)
    lhs, rhs = marked_truth((phi, psi), alphabet, ctx, bound, registry)
    differ = np.flatnonzero(lhs != rhs)
    return marked_word_at(alphabet, ctx, bound, int(differ[0])) if len(differ) else None


def equiv_bounded(phi, psi, alphabet: Alphabet, bound=6, context=None,
                  registry=None) -> bool:
    """Semantic equivalence on all marked words of length <= bound (this is
    what formula equality means throughout; the bound is always explicit)."""
    return counterexample_bounded(phi, psi, alphabet, bound, context, registry) is None


def relabel(zeta: dict, phi):
    """The substitution action of a letter map zeta: B -> A on a formula
    over A: every P[a](x) becomes the disjunction of P[b](x) over the b
    mapped to a (the empty join is the always-false formula)."""

    def leaf(node):
        if isinstance(node, LetterPred):
            return disj(LetterPred(b, node.var)
                        for b in zeta if zeta[b] == node.symbol)
        return node

    return map_atoms(phi, leaf)


# ---------------------------------------------------------------------------
# formula -> automaton bridge
#
# A subformula with the variables ``scope`` in scope compiles to the minimal
# automaton of its valid models: over the letters base_index * 2^|scope| +
# mask (scope[0] the lowest bit), the words that mark every variable in scope
# exactly once and, read as marked words, satisfy it.  A binder's variable
# joins its body's scope as the lowest bit, so the body's letter 2b + 1 is
# the letter b of the scope around it with the bound variable marked: the
# one-mark alphabet over that scope's letters, so a quantifier is one
# ``semidirect.quantifier_layer`` on the body's automaton, with no renaming.

#: the scan of a predicate that holds everywhere
_ANY = (0, lambda s, hits: s, _always)


@lru_cache(maxsize=128)
def _atom(size, m, places, scan, letter, caps) -> Dfa:
    """Over a scope of m variables and ``size`` base letters, the valid words
    whose marks at scope positions ``places`` pass ``scan`` and, with
    ``letter``, carry that letter.  A state is (variables marked, scan state),
    or None, the dead state.  One immutable value per key, for the process."""
    full = (1 << m) - 1
    bits = [1 << p for p in places]
    cols = []
    for c in range(size << m):
        mask = c & full
        hits = sum(1 << i for i, b in enumerate(bits) if mask & b)
        cols.append((mask, hits, letter is None or not hits or c >> m == letter))
    start, step, final = scan

    def succ(st):
        if st is None:
            return [None] * len(cols)
        seen, s = st
        out = []
        for mask, hits, ok in cols:
            t = step(s, hits) if ok and not seen & mask else None
            out.append(None if t is None else (seen | mask, t))
        return out

    order, _, delta = closure((0, start), succ, caps.dfa_states, "compiled atom")
    return closure_dfa(range(size << m), delta, (
        i for i, st in enumerate(order)
        if st is not None and st[0] == full and final(st[1]))).minimize()


class _Compiler:
    """``formula_dfa``'s structural induction for one call; it keeps the
    letters of each scope size and takes atoms, valid-word automata
    included, from the process-wide memo ``_atom``."""

    def __init__(self, alphabet, registry, caps):
        self.col = {s: i for i, s in enumerate(alphabet)}
        self.reg, self.caps = registry, caps
        self._letters = {}

    def letters(self, m) -> tuple:
        """The letters of a scope of m variables.  A scope whose valid-word
        automaton would have more transitions than the ``enumeration`` cap is
        refused."""
        out = self._letters.get(m)
        if out is None:
            k = len(self.col) << m
            cells = k * ((1 << m) + 1)
            if cells > self.caps.enumeration:
                raise CapExceeded(
                    f"{m} variables in scope need {cells} automaton transitions, "
                    f"more than the cap of {self.caps.enumeration}",
                    stage="formula compilation", size=cells,
                    cap=self.caps.enumeration)
            out = self._letters[m] = tuple(range(k))
        return out

    def valid(self, m) -> Dfa:
        """The words that mark each of m variables exactly once."""
        return self.atom((None,) * m, (), _ANY)

    def atom(self, scope, args, scan, letter=None) -> Dfa:
        """``_atom`` for the variables ``args`` of ``scope``, cap-checked."""
        self.letters(len(scope))
        return _atom(len(self.col), len(scope), tuple(map(scope.index, args)),
                     scan, letter, self.caps)

    def dfa(self, node, scope) -> Dfa:
        m = len(scope)
        caps = self.caps
        if isinstance(node, Truth):
            return self.valid(m)
        if isinstance(node, Falsum) or (isinstance(node, LetterPred)
                                        and node.symbol not in self.col):
            return empty_dfa(self.letters(m))
        if isinstance(node, LetterPred):
            return self.atom(scope, (node.var,), _ANY, self.col[node.symbol])
        if isinstance(node, NumPred):
            pred = self.reg.numpred(node.name)
            if pred.scan is None:
                raise NotMonoidPresentable(
                    f"predicate {pred.name} is given only by a Python function "
                    f"and cannot be compiled", predicate=pred.name,
                    stage="formula compilation")
            return self.atom(scope, node.args, pred.scan)
        if isinstance(node, Not):
            return self.valid(m).product(self.dfa(node.sub, scope),
                                         lambda v, a: v and not a, caps).minimize()
        if isinstance(node, (And, Or)):
            keep = (lambda a, b: a and b) if isinstance(node, And) else \
                (lambda a, b: a or b)
            out = self.dfa(node.args[0], scope)
            for sub in node.args[1:]:
                out = out.product(self.dfa(sub, scope), keep, caps).minimize()
            return out
        if isinstance(node, Quant):
            q = self.reg.quantifier(node.q)
            body = self.dfa(node.body, (node.var,) + scope)
            layer = quantifier_layer(q, body, self.letters(m), caps)
            if not m:
                return layer
            return layer.product(self.valid(m), lambda a, v: a and v, caps).minimize()
        raise ParseError(f"not a formula: {node!r}")


def formula_dfa(phi, alphabet: Alphabet, context, bound,
                registry=None, caps: _caps.Caps = _caps.DEFAULT):
    """The automaton of a formula's models, compiled exactly.

    Returns (ext, dfa) where ext is the extended alphabet A x 2^context,
    letter base_index * 2^|context| + mask, and dfa is the minimal automaton
    of the embedded marked words that satisfy the formula, at every length.
    It is built by structural induction (see above): letter tests and
    predicates are small automata, ``And`` and ``Or`` are products, ``Not``
    is the complement inside the valid words, and ``Q u. psi`` is one layer
    step (``semidirect.quantifier_layer``, a position transfer of the body's
    accepting bit into Q's monoid) over the letters of the scope around it,
    intersected with the valid words; each result is minimized.  ``bound`` is only
    checked: a negative bound is refused, any other gives the same automaton.
    An oracle quantifier, or a predicate given only by a Python function,
    raises NotMonoidPresentable; an automaton past the ``dfa_states`` cap is
    refused with CapExceeded naming its stage, the size reached and the cap.
    """
    ctx = tuple(context)
    check_bound(bound)
    ext = ExtendedAlphabet(alphabet, ctx)
    if not free_vars(phi) <= set(ctx):
        raise ParseError("context does not cover the formula's free variables")
    try:
        d = _Compiler(alphabet.symbols, registry or DEFAULT_REGISTRY, caps).dfa(phi, ctx)
    except CapExceeded as exc:
        if isinstance(exc.info.get("cap"), int):  # a closure refuses the
            exc.info.setdefault("size", exc.info["cap"] + 1)  # element past it
        raise
    return ext, Dfa(ext.symbols, d.delta, d.init, d.accepting)
