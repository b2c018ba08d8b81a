"""Shared fixtures and helpers for the test suite."""

import random

import pytest
from hypothesis import settings

from wordlogic import (
    Alphabet,
    DEFAULT_REGISTRY,
    MarkedWord,
    delta_algebra,
    models,
    parse,
)
from wordlogic.regular import Dfa

# property tests run whole-algebra constructions; give them room
settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


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
