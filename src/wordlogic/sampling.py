"""Seeded random instances for the verification suites.

Everything here draws from a caller-supplied ``random.Random`` so that a
seed reproduces the exact same formulas, algebras, and automata.
"""

from __future__ import annotations

import random

from .caps import DEFAULT
from .errors import InvariantViolated
from .logic import (DEFAULT_REGISTRY, FALSE, LetterPred, Not, NumPred, Quant,
                    Registry, TRUE, conj, disj, free_vars)
from .substitution import DeltaAlgebra, delta_algebra
from .words import Alphabet

MONOID_QUANTIFIERS = ("E", "E1", "mod[2,0]", "mod[2,1]", "mod[3,0]")
#: numerical predicates with their arities, for random atoms
_PREDS = (("<", 2), ("=", 2), ("succ", 2), ("first", 1), ("last", 1))


def random_formula(rng: random.Random, alphabet, context=(), depth=2,
                   quantifiers=("E",), predicates=_PREDS,
                   registry: Registry = None):
    """A random well-formed formula whose free variables lie in ``context``.

    Letter and predicate atoms only mention variables in scope; when no
    variable is in scope the atom falls back to a constant, so sentences
    of quantifier depth 0 are the two constants.
    """
    syms = tuple(alphabet)
    reg = registry or DEFAULT_REGISTRY
    for q in quantifiers:
        reg.quantifier(q)
    fresh = iter(f"u{i}" for i in range(1, 100))

    def atom(scope):
        if not scope:
            return TRUE if rng.random() < 0.5 else FALSE
        roll = rng.random()
        if roll < 0.55 or not predicates:
            return LetterPred(rng.choice(syms), rng.choice(scope))
        name, arity = rng.choice(predicates)
        return NumPred(name, tuple(rng.choice(scope) for _ in range(arity)))

    def build(d, scope):
        if d == 0:
            return atom(scope)
        roll = rng.random()
        if roll < 0.35:
            v = next(fresh)
            return Quant(rng.choice(quantifiers), v,
                         build(d - 1, scope + (v,)))
        if roll < 0.55:
            return Not(build(d - 1, scope))
        parts = tuple(build(d - 1, scope) for _ in range(2))
        return conj(parts) if roll < 0.8 else disj(parts)

    return build(depth, tuple(context))


def random_sentence(rng: random.Random, alphabet, depth=3,
                    quantifiers=("E",), predicates=_PREDS,
                    registry: Registry = None):
    """A random sentence (no free variables); depth >= 1 so it can say
    something about the word."""
    phi = random_formula(rng, alphabet, (), max(1, depth), quantifiers,
                         predicates, registry)
    if free_vars(phi):
        raise InvariantViolated("sentence sampler produced free variables",
                                stage="random_sentence")
    return phi


def random_delta(rng: random.Random, alphabet, var="x", bound=6,
                 max_atoms=3, quantifiers=("E",), registry: Registry = None,
                 caps=DEFAULT, tries=20) -> DeltaAlgebra:
    """A random finite formula algebra in one marked variable with at most
    ``max_atoms`` atoms (letter tests over a 1-letter alphabet give two;
    the fallback on repeated oversize draws is a single letter test)."""
    alphabet = Alphabet.of(alphabet) if not hasattr(alphabet, "symbols") \
        else alphabet
    syms = tuple(alphabet)
    for _ in range(tries):
        gens = [random_formula(rng, alphabet, (var,), rng.choice((1, 1, 2)),
                               quantifiers, _PREDS, registry)
                for _ in range(rng.choice((1, 2)))]
        gens = [g for g in gens if free_vars(g) <= {var}]
        if not gens:
            continue
        d = delta_algebra(alphabet, var, gens, bound=bound,
                          registry=registry, caps=caps)
        if d.atom_count <= max_atoms:
            return d
    return delta_algebra(alphabet, var, [LetterPred(syms[0], var)],
                         bound=bound, registry=registry, caps=caps)


def random_atom_sentence(rng: random.Random, atom_syms, quantifiers=("E",),
                         depth=2, registry: Registry = None):
    """A random sentence over an atom alphabet: Boolean combination of
    quantified letter-subset tests (the shape one quantifier layer emits)."""
    syms = tuple(atom_syms)

    def leaf():
        sub = [a for a in syms if rng.random() < 0.5]
        return Quant(rng.choice(quantifiers), "x",
                     disj(LetterPred(a, "x") for a in sub))

    def build(d):
        if d == 0:
            return leaf()
        roll = rng.random()
        if roll < 0.3:
            return Not(build(d - 1))
        parts = tuple(build(d - 1) for _ in range(2))
        return conj(parts) if roll < 0.65 else disj(parts)

    return build(depth)
