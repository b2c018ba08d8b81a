"""Automata, finite monoids, stamps, and quotient-closed algebras."""

import functools
import itertools
import random
import warnings

import numpy as np

import pytest
from hypothesis import assume, given, settings, strategies as st

from wordlogic import (
    Alphabet,
    BoundTooSmall,
    CapExceeded,
    ExtendedAlphabet,
    ParseError,
    parse,
    formula_dfa,
)
from wordlogic import regular
from wordlogic.regular import (
    ASSOC_CHECK_LIMIT,
    Dfa,
    FinMonoid,
    RegularBA,
    closure,
    closure_dfa,
    congruence_witness,
    empty_dfa,
    factor_stamp,
    first_paths,
    generate_monoid,
    image_dfa,
    mark_count_dfa,
    plain_universe_dfa,
    quotient_closure,
    recognized_languages,
    shortlex_offsets,
    shortlex_rows,
    syntactic_stamp,
    syntactic_stamp_of_family,
    universal_dfa,
    word_ids,
    zero_part_dfa,
)
from wordlogic.words import enumerate_words
from wordlogic.caps import Caps

from conftest import (infer_dfa, left_quotient, member_table, model_table,
                      probe_bit_infer_dfa, random_body, right_quotient,
                      table_by_mul)


def cayley(stamp, accepted) -> Dfa:
    """The right Cayley automaton of a stamp, accepting ``accepted``."""
    return Dfa(stamp.alphabet, stamp.rows, stamp.monoid.identity, frozenset(accepted))


def contains_a_dfa(alphabet=("a", "b")):
    k = len(alphabet)
    move = tuple(1 if s == "a" else 0 for s in alphabet)
    return Dfa(alphabet, (tuple(move), (1,) * k), 0, frozenset({1}))


# ---------------------------------------------------------------------------
# DFAs


def test_dfa_validation():
    with pytest.raises(ParseError):
        Dfa(("a",), (), 0, frozenset())
    with pytest.raises(ParseError):
        Dfa(("a",), ((0, 0),), 0, frozenset())
    with pytest.raises(ParseError):
        Dfa(("a",), ((1,),), 0, frozenset())
    with pytest.raises(ParseError):
        Dfa(("a",), ((0,),), 0, frozenset({3}))
    with pytest.raises(ParseError):
        Dfa(("a",), ((0,),), 1, frozenset())
    # automata built from a closure are validated too
    for edges, acc in [((), ()), (((0, 0),), ()), (((1,),), ()), (((0,),), (3,))]:
        with pytest.raises(ParseError):
            closure_dfa(("a",), edges, acc)


def test_boolean_combinations_of_dfas():
    d = contains_a_dfa()
    u = universal_dfa(("a", "b"))
    e = empty_dfa(("a", "b"))
    assert d.union(e).difference(d) is None
    assert d.intersect(u).difference(d) is None
    assert d.union(d.complement()).difference(u) is None
    assert d.intersect(d.complement()).difference(e) is None
    assert d.difference(u) == () == u.difference(d)
    assert d.difference(e) == ("a",)
    assert d.difference(d) is None


def test_minimize_collapses_redundant_states():
    # contains-a with a duplicated accepting state
    d = Dfa(("a", "b"), ((1, 0), (2, 2), (1, 1)), 0, frozenset({1, 2}))
    m = d.minimize()
    assert m.n == 2
    assert m.difference(contains_a_dfa()) is None
    assert m.minimize().n == 2


def test_a_minimized_dfa_is_not_minimized_again(monkeypatch):
    d = Dfa(("a", "b"), ((1, 0), (2, 2), (1, 1)), 0, frozenset({1, 2}))
    m = d.minimize()
    searches = []
    real = regular.closure

    def counting(*args, **kwargs):
        searches.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(regular, "closure", counting)
    assert m.minimize() is m
    assert searches == []
    # a copy does not carry the mark, and refines to the same automaton
    assert Dfa(m.alphabet, m.delta, m.init, m.accepting).minimize() == m
    assert searches


def test_marked_universe_automata():
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    img = image_dfa(ext)
    assert img.accepts(("a{}", "b{x}"))
    assert not img.accepts(("a{}",))
    assert not img.accepts(("a{x}", "b{x}"))
    plain = plain_universe_dfa(ext)
    assert plain.accepts(("a{}", "b{}"))
    assert plain.accepts(())
    assert not plain.accepts(("a{x}",))
    sink = zero_part_dfa(ext)
    assert sink.accepts(("a{x}", "b{x}"))
    assert not sink.accepts(("a{x}",))
    assert not sink.accepts(())
    # the three parts partition the extended universe
    for w in enumerate_words(ext, 3):
        assert img.accepts(w) + plain.accepts(w) + sink.accepts(w) == 1
    # counts saturate at 'many' (2+)
    many = mark_count_dfa(ext, "x", {2})
    assert many.accepts(("a{x}", "a{x}"))
    assert many.accepts(("a{x}", "a{x}", "b{x}"))
    assert not many.accepts(("a{x}", "b{}"))


# ---------------------------------------------------------------------------
# automaton inference from bounded data


def inferred_from(dfa, alphabet, bound):
    """``infer_dfa`` on the table of the words of length <= bound that
    ``dfa`` accepts."""
    words = (w for w in enumerate_words(alphabet, bound) if dfa.accepts(w))
    return infer_dfa(alphabet.symbols, bound,
                     member_table(alphabet.symbols, bound, words))


def test_inference_of_the_universe_is_one_state():
    A = Alphabet.of("a")
    d = inferred_from(universal_dfa(A.symbols), A, 4)
    assert d.n == 1
    assert d.accepts(("a",) * 9)


def test_inference_of_the_empty_language():
    A = Alphabet.of("ab")
    d = inferred_from(empty_dfa(A.symbols), A, 4)
    assert d.n == 1
    assert d.difference(empty_dfa(A.symbols)) is None


def test_inference_of_contains_a_at_bound_six():
    A = Alphabet.of("ab")
    d = inferred_from(contains_a_dfa(), A, 6)
    assert d.minimize().n == 2
    assert d.difference(contains_a_dfa()) is None


@given(st.integers(min_value=0, max_value=2_000))
def test_inference_agrees_with_its_data(seed):
    import random

    rng = random.Random(seed)
    A = Alphabet.of("ab")
    n = rng.randrange(1, 4)
    delta = tuple(tuple(rng.randrange(n) for _ in A.symbols)
                  for _ in range(n))
    acc = frozenset(q for q in range(n) if rng.random() < 0.5)
    d = Dfa(A.symbols, delta, 0, acc)
    inferred = inferred_from(d, A, 6)
    for w in enumerate_words(A, 6):
        assert inferred.accepts(w) == d.accepts(w)


def per_word_inference(syms, bound, members):
    """The reference learner: every prefix's residual signature as a set of
    probe words, each word looked up on its own.  Returns the automaton, or
    the size of the largest refuted hypothesis when none is verified."""
    if bound == 0:
        acc = frozenset({0}) if () in members else frozenset()
        return Dfa(syms, ((0,) * len(syms),), 0, acc)
    words = [list(itertools.product(syms, repeat=n)) for n in range(bound + 1)]
    largest = 0
    for d in range(bound + 1):
        probes = [p for n in range(d + 1) for p in words[n]]
        rows = [u for n in range(bound - d + 1) for u in words[n]]
        sig = {u: frozenset(p for p in probes if u + p in members) for u in rows}
        index, shallow = {}, {}
        for u in rows:
            index.setdefault(sig[u], len(index))
            if len(u) < bound - d:
                shallow.setdefault(sig[u], u)
        if len(shallow) < len(index):
            continue
        delta = tuple(tuple(index[sig[shallow[s] + (a,)]] for a in syms)
                      for s in index)
        cand = Dfa(syms, delta, 0, frozenset(i for s, i in index.items() if () in s))
        if all(cand.accepts(w) == (w in members) for ws in words for w in ws):
            return cand.minimize()
        largest = max(largest, cand.n)
    return largest


@given(st.sampled_from(["ab", "abc"]), st.integers(0, 5),
       st.randoms(use_true_random=False))
def test_inference_matches_the_per_word_learner(letters, bound, rnd):
    # the language of a random small automaton, with some words flipped
    syms = tuple(letters)
    n = rnd.randrange(1, 5)
    d = Dfa(syms, tuple(tuple(rnd.randrange(n) for _ in syms) for _ in range(n)),
            0, frozenset(q for q in range(n) if rnd.random() < 0.5))
    noise = rnd.choice([0.0, 0.0, 0.05, 0.3])
    words = frozenset(w for w in enumerate_words(syms, bound)
                      if d.accepts(w) != (rnd.random() < noise))
    want = per_word_inference(syms, bound, words)
    member = member_table(syms, bound, words)
    if isinstance(want, Dfa):
        assert infer_dfa(syms, bound, member) == want
    else:
        with pytest.raises(BoundTooSmall) as exc:
            infer_dfa(syms, bound, member)
        assert exc.value.info == {"stage": "automaton inference",
                                  "bound": bound, "states": want}


def test_word_ids_number_the_shortlex_enumeration():
    k, bound = 3, 4
    off = shortlex_offsets(k, bound)
    words = list(enumerate_words(range(k), bound))
    ids = [int(word_ids([list(w)], k, off)[0]) for w in words]
    assert ids == list(range(off[-1])) == list(range(len(words)))
    for w, i in zip(words, ids):
        if len(w) < bound:
            for c in range(k):
                assert word_ids([list(w) + [c]], k, off)[0] == i * k + c + 1


def test_inference_refusal_names_the_bound_and_largest_hypothesis():
    # "some position after x carries a": at bound 4 a 3-state hypothesis is
    # refuted, and no deeper probe gives one
    phi = parse("E y. x < y & P[a](y)")
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    with pytest.raises(BoundTooSmall) as exc:
        infer_dfa(ext.symbols, 4, model_table(phi, ext.base, ("x",), 4))
    assert exc.value.info == {"stage": "automaton inference", "bound": 4,
                              "states": 3}
    assert "bound 4" in str(exc.value) and "3 states" in str(exc.value)


def test_inference_refuses_a_table_of_the_wrong_size():
    with pytest.raises(ParseError):
        infer_dfa(("a", "b"), 2, np.zeros(6, dtype=bool))


def outcome(infer, *args):
    """The inferred automaton, or the refusal's type, message and info."""
    try:
        return infer(*args)
    except (BoundTooSmall, CapExceeded) as exc:
        return type(exc), str(exc), exc.info


def table_of(delta, accepting, bound):
    """Membership table of an automaton (start state 0) over the words of
    length <= bound, in shortlex order."""
    delta = np.asarray(delta)
    off = shortlex_offsets(delta.shape[1], bound)
    state = np.zeros(off[-1], dtype=np.int64)
    for m in range(1, bound + 1):  # the children of level m-1, in order
        state[off[m]:off[m + 1]] = delta[state[off[m - 1]:off[m]]].reshape(-1)
    return np.asarray(accepting)[state]


# k = 8 at bound 4 with heavy noise gives hundreds of classes, so the key of
# the Moore step is renumbered before the eight children fit in 62 bits;
# there it only feeds depths that give no hypothesis, and the next test
# reads a hypothesis through a renumbered key
@pytest.mark.parametrize("k, bound", [(1, 9), (2, 7), (3, 5), (5, 4), (8, 4)])
@given(st.randoms(use_true_random=False), st.sampled_from([0.0, 0.01, 0.3, 0.5]),
       st.sampled_from([3, 50_000]))
def test_inference_matches_the_probe_bit_classes(k, bound, rnd, noise, cap):
    # the table of a random automaton of <= 6 states, some words flipped
    n = rnd.randrange(1, 7)
    delta = [[rnd.randrange(n) for _ in range(k)] for _ in range(n)]
    accepting = [rnd.random() < 0.5 for _ in range(n)]
    clean = table_of(delta, accepting, bound)
    flip = np.random.default_rng(rnd.getrandbits(32)).random(len(clean)) < noise
    member = clean != flip
    syms = tuple(f"s{i}" for i in range(k))
    caps = Caps(dfa_states=cap)
    assert outcome(infer_dfa, syms, bound, member, caps) == \
        outcome(probe_bit_infer_dfa, syms, bound, member, caps)


def test_a_hypothesis_read_through_a_renumbered_key_is_exact():
    # 16 letters; state q in 1..16 moves by letter c to 1 + (q - 1 + c) mod
    # 16, except that state 16 moves like state 15 and differs from it only
    # in acceptance.  The start state copies state 6's one-letter signature
    # through a relabelling of its successors that swaps two accepting
    # states, so only probes of length 2 split the two.  At depth 2 the key
    # holds the member bit and 16 children of 16 classes: 2^65 > 2^62, so
    # it is renumbered once (without that the member bit would wrap away
    # and merge states 15 and 16), and the 17-state hypothesis is the answer.
    k, bound = 16, 4
    acc = [True, True, False, True] + [False] * 11 + [True]  # states 1..16
    rows = [[1 + (q + c) % k for c in range(k)] for q in range(k)]
    rows[15] = rows[14]
    swap = {1: 2, 2: 1}
    delta = [[swap.get(t, t) for t in rows[5]]] + rows
    accepting = [acc[5]] + acc
    depth1 = {(accepting[q],) + tuple(accepting[t] for t in delta[q])
              for q in range(k + 1)}
    assert len(depth1) == 16
    member = table_of(delta, accepting, bound)
    syms = tuple(f"s{i}" for i in range(k))
    d = infer_dfa(syms, bound, member)
    assert d.n == 17
    assert d == probe_bit_infer_dfa(syms, bound, member)
    assert d == Dfa(syms, tuple(map(tuple, delta)), 0,
                    frozenset(q for q in range(k + 1) if accepting[q])).minimize()


def test_the_word_table_over_no_letters_is_the_empty_word():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        letters, lens = shortlex_rows.__wrapped__(0, 4)  # past the memo
    assert letters.tolist() == [[-1] * 4] and lens.tolist() == [0]


def test_shared_word_tables_are_read_only():
    letters, lens = shortlex_rows(3, 4)
    assert shortlex_rows(3, 4)[0] is letters
    with pytest.raises(ValueError):
        letters[0, 0] = 1
    with pytest.raises(ValueError):
        lens[-1] = 0


# ---------------------------------------------------------------------------
# finite monoids


def test_monoid_law_validation():
    FinMonoid(((0, 1), (1, 0)), 0)  # the two-element group
    with pytest.raises(ParseError):
        FinMonoid(((0, 1), (1, 0)), 1)  # wrong identity
    with pytest.raises(ParseError):
        # non-associative magma on {0,1,2}: 0*(1*1) != (0*1)*1
        FinMonoid(((0, 1, 2), (1, 0, 0), (2, 0, 1)), 0)


@pytest.mark.parametrize("table, identity", [
    ((), 0),                          # no elements
    (((0, 1), (1,)), 0),              # ragged
    (((0, 1.0), (1.0, 0)), 0),        # not integers
    (((0, "1"), ("1", 0)), 0),
    (((0, 2), (2, 0)), 0),            # out of range
    (((0,),), 1),                     # the identity is no element
    (((0, 1), (1, 0)), -1),
])
def test_malformed_monoids_are_parse_errors(table, identity):
    with pytest.raises(ParseError):
        FinMonoid(table, identity)


def test_monoids_do_not_read_the_caps_environment(monkeypatch):
    monkeypatch.setenv("WORDLOGIC_CAPS", "monoid=abc")
    assert len(FinMonoid(((0,),), 0)) == 1


def test_monoid_products():
    z3 = FinMonoid(tuple(tuple((i + j) % 3 for j in range(3))
                         for i in range(3)), 0)
    assert z3.mul(1, 2) == 0
    assert z3.prod([1, 1, 2, 2]) == 0
    assert z3.prod([]) == 0
    assert closure(0, lambda e: [z3.mul(e, 1)])[0] == [0, 1, 2]
    assert closure(0, lambda e: [])[0] == [0]


def test_generate_monoid_builds_transformation_closure():
    ident = (0, 1)
    swap = (1, 0)
    const = (0, 0)
    elements, index, mon, reps = generate_monoid(
        ident, [("s", swap), ("c", const)],
        lambda f, g: tuple(g[f[i]] for i in range(2)))
    assert len(elements) == 4  # id, swap, const0, const1
    assert mon.identity == index[ident]
    assert reps[index[swap]] == ("s",)
    assert mon.mul(index[swap], index[swap]) == index[ident]


def random_transformations(rng, states, count):
    return [tuple(rng.randrange(states) for _ in range(states))
            for _ in range(count)]


def compose(f, g):  # f then g
    return tuple(g[x] for x in f)


@pytest.mark.parametrize("seed", range(40))
def test_generated_tables_are_the_tables_of_all_products(seed):
    rng = random.Random(seed)
    states = rng.randint(1, 5)
    gens = [(f"g{i}", g) for i, g in enumerate(
        random_transformations(rng, states, rng.randint(1, 3)))]
    calls = []

    def mul(f, g):
        calls.append((f, g))
        return compose(f, g)

    ident = tuple(range(states))
    elements, index, mon, reps = generate_monoid(ident, gens, mul)
    # mul runs on the search's edges only
    assert len(calls) == len(elements) * len(gens)
    assert mon.table == table_by_mul(elements, index, compose)
    named = dict(gens)
    for m, rep in enumerate(reps):
        assert functools.reduce(compose, (named[g] for g in rep), ident) \
            == elements[m]


def test_generate_monoid_refuses_a_non_associative_product():
    # a magma with identity 0 that is not associative: (2.1).1 = 1, 2.(1.1) = 0
    table = ((0, 1, 2), (1, 1, 1), (2, 0, 1))
    with pytest.raises(ParseError, match="not associative"):
        generate_monoid(0, [("g", 1), ("h", 2)], lambda a, b: table[a][b])


def test_generated_monoids_are_checked_above_the_exhaustive_limit():
    n = 1100
    assert n > ASSOC_CHECK_LIMIT
    elements, _, mon, reps = generate_monoid(0, [("g", 1)],
                                             lambda a, b: (a + b) % n)
    assert elements == list(range(n)) and reps[n - 1] == ("g",) * (n - 1)
    # one product off, away from the generator's column and the identity's
    table = [list(row) for row in mon.table]
    table[5][7] = 3
    with pytest.raises(ParseError, match="not associative"):
        FinMonoid(tuple(map(tuple, table)), 0, _cayley=mon._cayley)


def test_generator_columns_must_be_the_search_edges():
    _, _, z3, _ = generate_monoid(0, [("g", 1)], lambda a, b: (a + b) % 3)
    gens, edges = z3._cayley
    with pytest.raises(ParseError, match="disagree with the search"):
        FinMonoid(z3.table, 0, _cayley=(gens, [(0,), (2,), (1,)]))


CORRUPTIONS = ("none", "lists", "ragged", "mapping", "float", "string", "bool",
               "numpy", "range", "identity", "product", "generator column")


@st.composite
def small_tables(draw, sizes=(1, 16), states=3, edges=st.booleans()):
    """A monoid of ``sizes`` elements, generated by transformations of at
    most ``states`` states (with its search edges when ``edges`` draws
    True), its elements relabelled, then one kind of corruption: (kind,
    table, identity, cayley)."""
    states = draw(st.integers(1, states))
    maps = draw(st.lists(st.tuples(*[st.integers(0, states - 1)] * states),
                         min_size=1, max_size=3))
    try:
        _, _, mon, _ = generate_monoid(tuple(range(states)), [
            (f"g{i}", g) for i, g in enumerate(maps)], compose, limit=sizes[1])
    except CapExceeded:
        assume(False)
    n = len(mon)
    assume(n >= sizes[0])
    p = draw(st.permutations(range(n)))
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[p[a]][p[b]] = p[mon.table[a][b]]
    (gens, search), cayley = mon._cayley, None
    if draw(edges):
        new_edges = [None] * n
        for a in range(n):
            new_edges[p[a]] = tuple(p[j] for j in search[a])
        cayley = (tuple(p[g] for g in gens), new_edges)
    kind = draw(st.sampled_from(CORRUPTIONS))
    identity = p[0]
    # corrupt away from the identity's row and column, which fail on their own
    a, b = (draw(st.sampled_from([x for x in range(n) if x != identity] or [identity]))
            for _ in "ab")
    if kind == "ragged":
        table[a].pop()
    elif kind == "mapping":  # a row that iterates as the identity's row
        table[identity] = dict.fromkeys(table[identity])
    elif kind in ("float", "string", "numpy"):
        table[a][b] = {"float": float, "string": str, "numpy": np.int64}[kind](table[a][b])
    elif kind == "bool":  # every table has an entry 0 or 1
        a, b = next((a, b) for a in range(n) for b in range(n) if table[a][b] < 2)
        table[a][b] = bool(table[a][b])
    elif kind == "range":
        table[a][b] = draw(st.sampled_from((-1, n)))
    elif kind == "identity":
        identity = draw(st.integers(0, n - 1))
    elif kind == "product":
        table[a][b] = draw(st.integers(0, n - 1))
    elif kind == "generator column" and cayley is not None:
        c = draw(st.integers(0, len(gens) - 1))
        cayley[1][a] = cayley[1][a][:c] + (draw(st.integers(0, n - 1)),) + \
            cayley[1][a][c + 1:]
    rows = list if kind == "lists" else tuple
    return kind, tuple(r if type(r) is dict else rows(r) for r in table), \
        identity, cayley


def check_outcome(table, identity, cayley):
    """None if ``FinMonoid`` accepts the table, else the error's type and text."""
    try:
        FinMonoid(table, identity, _cayley=cayley)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(small_tables(),  # and generated tables up to LIGHT_CHECK_LIMIT
                 small_tables((7, regular.LIGHT_CHECK_LIMIT), 4, st.just(True))))
def test_python_and_numpy_checks_give_one_verdict(case):
    kind, table, identity, cayley = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regular, "PYTHON_CHECK_LIMIT", 16)
        python = check_outcome(table, identity, cayley)
        if kind in ("none", "lists"):  # the Python pass proves what it can
            assert python is None and regular._python_proves(table, identity, cayley)
        mp.setattr(regular, "PYTHON_CHECK_LIMIT", 0)
        mp.setattr(regular, "LIGHT_CHECK_LIMIT", 0)
        assert check_outcome(table, identity, cayley) == python
    if kind in ("ragged", "mapping", "float", "string", "range"):
        assert python is not None and python[0] == "ParseError"


def test_a_generator_the_search_never_reaches_is_refused_with_its_stage():
    # 0.1 = 2 under x.y = x + 2 (mod 4): the search from 0 reaches {0, 2},
    # never the generator 1 itself
    with pytest.raises(ParseError, match="generator 'a' is not reached") as exc:
        generate_monoid(0, [("a", 1)], lambda x, y: (x + 2) % 4,
                        stage="test monoid")
    assert exc.value.info == {"stage": "test monoid"}
    with pytest.raises(ParseError) as exc:
        generate_monoid(0, [("a", 1)], lambda x, y: (x + 2) % 4)
    assert exc.value.info == {"stage": "generated monoid"}


def test_generate_monoid_cap():
    from wordlogic.caps import Caps, DEFAULT

    tight = Caps(**{**DEFAULT.__dict__, "monoid": 2})
    with pytest.raises(CapExceeded):
        generate_monoid((0, 1, 2), [("r", (1, 2, 0)), ("t", (1, 0, 2))],
                        lambda f, g: tuple(g[f[i]] for i in range(3)),
                        tight)


# ---------------------------------------------------------------------------
# syntactic stamps


def test_syntactic_stamp_of_the_empty_language_is_trivial():
    st_ = syntactic_stamp(empty_dfa(("a", "b")))
    assert len(st_.monoid) == 1
    assert st_.accepting == frozenset()


def test_syntactic_stamp_of_contains_a():
    st_ = syntactic_stamp(contains_a_dfa())
    assert len(st_.monoid) == 2
    assert cayley(st_, st_.accepting).difference(contains_a_dfa()) is None
    assert st_.mu(("b", "a")) == st_.mu(("a",))
    assert st_.mu(("b",)) == st_.monoid.identity


def test_stamp_of_the_marked_universe_is_the_three_element_monoid():
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    st_ = syntactic_stamp(image_dfa(ext))
    mon = st_.monoid
    assert len(mon) == 3
    e = mon.identity
    m = st_.letter("a{x}")
    z = mon.mul(m, m)
    assert len({e, m, z}) == 3
    # plain letters act as the identity; all marked letters alike
    for sym in ext.symbols:
        want = e if not ext.split(sym)[1] else m
        assert st_.letter(sym) == want
    # z absorbs, the monoid is commutative
    for x in range(3):
        assert mon.mul(z, x) == z == mon.mul(x, z)
        for y in range(3):
            assert mon.mul(x, y) == mon.mul(y, x)
    assert st_.accepting == frozenset({m})


def test_stamp_validation():
    mon = FinMonoid(((0, 1), (1, 0)), 0)
    from wordlogic.regular import Stamp

    with pytest.raises(ParseError):  # not surjective
        Stamp(("a",), mon, (0,), ((), ("a",)))
    with pytest.raises(ParseError):  # wrong representative
        Stamp(("a",), mon, (1,), ((), ()))
    # surjectivity is read off the representatives: a reaches both elements,
    # but element 1 has none
    with pytest.raises(ParseError, match="not surjective"):
        Stamp(("a",), mon, (1,), ((),))


@pytest.mark.parametrize("letters, text", [
    ((5,), "image 5 of letter 'a' is not an element"),
    ((-1,), "image -1 of letter 'a' is not an element"),
    ((True,), "image True of letter 'a' is not an element"),
    ((), "image None of letter 'a' is not an element"),
    ((1, 0), "image 0 has no letter")])
def test_a_stamp_needs_one_element_per_letter(letters, text):
    from wordlogic.regular import Stamp

    z2 = FinMonoid(((0, 1), (1, 0)), 0)
    with pytest.raises(ParseError) as exc:
        Stamp(("a",), z2, letters, ((), ("a",)))
    assert str(exc.value) == text


def test_stamp_mu_is_a_congruence_for_language_membership():
    st_ = syntactic_stamp(contains_a_dfa())
    A = Alphabet.of("ab")
    words = list(enumerate_words(A, 4))
    lang = cayley(st_, st_.accepting)
    for u in words[:12]:
        for v in words[:12]:
            if st_.mu(u) == st_.mu(v):
                for x in [(), ("b",), ("a", "b")]:
                    for y in [(), ("b",)]:
                        assert lang.accepts(x + u + y) == \
                            lang.accepts(x + v + y)


# ---------------------------------------------------------------------------
# algebras of recognized languages


def test_trivial_stamp_recognizes_bottom_and_top():
    ba = recognized_languages(syntactic_stamp(empty_dfa(("a", "b"))))
    assert ba.element_count() == 2
    st_ = ba.stamp
    assert cayley(st_, ()).difference(empty_dfa(("a", "b"))) is None
    assert cayley(st_, ba.blocks[0]).difference(universal_dfa(("a", "b"))) is None


def test_marked_universe_stamp_recognizes_eight_languages():
    ext = ExtendedAlphabet(Alphabet.of("a"), ("x",))
    ba = recognized_languages(syntactic_stamp(image_dfa(ext)))
    assert len(ba.blocks) == 3
    assert ba.element_count() == 8
    assert ba.contains(image_dfa(ext))
    assert ba.contains(plain_universe_dfa(ext))
    assert ba.contains(zero_part_dfa(ext))
    assert ba.contains(universal_dfa(ext.symbols))
    assert ba.quotient_witness() is None


def test_quotient_closure_of_the_empty_language():
    ba = quotient_closure([empty_dfa(("a", "b"))])
    assert ba.element_count() == 2


def test_quotient_closure_is_idempotent():
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    ba = quotient_closure([image_dfa(ext), contains_a_dfa(ext.symbols)])
    atoms = [cayley(ba.stamp, b) for b in ba.blocks]
    again = quotient_closure(atoms)
    assert again.element_count() == ba.element_count()
    for d in atoms:
        assert again.contains(d)


def test_quotient_closure_contains_word_quotients_of_members():
    d = contains_a_dfa()
    ba = quotient_closure([d])
    for u in [("a",), ("b",), ("a", "b")]:
        assert ba.contains(left_quotient(d, u))
        assert ba.contains(right_quotient(d, u))


def test_congruence_witness_rejects_a_partition_that_is_not_a_congruence():
    # words over ab by their last letter, with the empty word put with the
    # words ending in b: appending keeps the classes, prepending a does not
    edges = [(1, 2), (1, 2), (1, 2)]  # states: empty, ends in a, ends in b
    assert congruence_witness(edges, [0, 1, 0], ("a", "b")) == \
        ((), ("b",), "left", "a")
    # length mod 3 with {0} against {1, 2}: appending a separates a and aa
    edges = [(1,), (2,), (0,)]
    assert congruence_witness(edges, [0, 1, 1], ("a",)) == \
        (("a",), ("a", "a"), "right", "a")
    # the last letter itself is a congruence
    assert congruence_witness([(1, 2), (1, 2), (1, 2)], [0, 1, 2], ("a", "b")) is None


def test_a_quotient_closure_is_quotient_closed_without_a_search(monkeypatch):
    ext = ExtendedAlphabet(Alphabet.of("ab"), ("x",))
    _, phi = formula_dfa(parse("P[a](x)"), ext.base, ("x",), 5)
    ba = quotient_closure([phi, image_dfa(ext)])

    def search(*args):
        raise AssertionError("the congruence search ran")
    monkeypatch.setattr(regular, "congruence_witness", search)
    assert ba.quotient_witness() is None


def test_recognition_search_obeys_the_callers_caps():
    # length 0 or 5 (mod 10): ten states, whose syntactic monoid is Z5, and
    # ten (element, state) pairs reached by the recognition search
    dfa = Dfa(("a", "b"), tuple(((q + 1) % 10,) * 2 for q in range(10)), 0,
              frozenset({0, 5}))
    assert len(syntactic_stamp(dfa).monoid) == 5
    # with the parity of a's, the family product reaches ten states too
    parity = Dfa(("a", "b"), ((1, 0), (0, 1)), 0, frozenset({0}))
    for call, stage in (
            (lambda caps: syntactic_stamp(dfa, caps), "product automaton"),
            (lambda caps: quotient_closure([dfa], caps), "product automaton"),
            (lambda caps: recognized_languages(
                syntactic_stamp(dfa)).contains(dfa, caps), "product automaton"),
            (lambda caps: factor_stamp(syntactic_stamp(dfa), dfa, caps),
             "product automaton"),
            (lambda caps: dfa.difference(dfa.minimize(), caps), "product automaton"),
            (lambda caps: syntactic_stamp_of_family([dfa, parity], caps),
             "family product automaton"),
            (lambda caps: quotient_closure([dfa, parity], caps),
             "family product automaton")):
        call(Caps())
        with pytest.raises(CapExceeded) as exc:
            call(Caps(dfa_states=7))
        assert exc.value.info == {"stage": stage, "cap": 7}


def test_merged_atoms_are_not_quotient_closed():
    ext = ExtendedAlphabet(Alphabet.of("a"), ("x",))
    stamp = syntactic_stamp(image_dfa(ext))
    plain, marked = stamp.mu(()), stamp.mu(("a{x}",))
    merged = frozenset({plain, marked})
    ba = RegularBA(stamp, (merged, frozenset(range(3)) - merged))
    # the left quotient of the merged atom by a{x} is the plain words alone,
    # which is not a union of atoms
    u, v, side, a = ba.quotient_witness()
    mu = stamp.mu
    assert any(mu(u) in b and mu(v) in b for b in ba.blocks)
    uu, vv = (u + (a,), v + (a,)) if side == "right" else ((a,) + u, (a,) + v)
    assert not any(mu(uu) in b and mu(vv) in b for b in ba.blocks)
    assert not ba.contains(image_dfa(ext))
    assert ba.contains(plain_universe_dfa(ext).union(image_dfa(ext)))


@st.composite
def labelled_dfas(draw):
    n = draw(st.integers(1, 5))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in "ab")
                  for _ in range(n))
    labels = [draw(st.integers(0, 2)) for _ in range(n)]
    return delta, labels


@given(labelled_dfas())
def test_congruence_witness_decides_the_syntactic_monoid_count(dfa):
    """The partition is a congruence exactly when its classes' joint
    syntactic monoid has one element per class; a witness replays."""
    delta, labels = dfa
    order, _, edges = closure(0, delta.__getitem__)
    lab = [labels[q] for q in order]
    classes = sorted(set(lab))
    cells = [Dfa(("a", "b"), tuple(edges), 0,
                 frozenset(i for i, c in enumerate(lab) if c == k))
             for k in classes]
    count = len(syntactic_stamp_of_family(cells).monoid)
    witness = congruence_witness(edges, lab, ("a", "b"))
    assert (witness is None) == (count == len(classes))
    if witness is not None:
        u, v, side, a = witness
        run = Dfa(("a", "b"), tuple(edges), 0, frozenset()).run
        uu, vv = (u + (a,), v + (a,)) if side == "right" else ((a,) + u, (a,) + v)
        assert lab[run(u)] == lab[run(v)]
        assert lab[run(uu)] != lab[run(vv)]


# ---------------------------------------------------------------------------
# factoring a language through a stamp


def test_factor_stamp_found():
    ext = ExtendedAlphabet(Alphabet.of("a"), ("x",))
    st_ = syntactic_stamp(image_dfa(ext))
    got = factor_stamp(st_, zero_part_dfa(ext))
    assert got is not None
    g, accepted = got
    syn = syntactic_stamp(zero_part_dfa(ext))
    assert len(set(g)) == len(syn.monoid)
    assert cayley(st_, accepted).difference(zero_part_dfa(ext)) is None


def test_factor_stamp_through_itself_is_identity_like():
    st_ = syntactic_stamp(contains_a_dfa())
    g, accepted = factor_stamp(st_, contains_a_dfa())
    assert sorted(set(g)) == [0, 1]
    assert cayley(st_, accepted).difference(contains_a_dfa()) is None


def test_factor_stamp_rejects_unrecognized_language():
    st_ = syntactic_stamp(contains_a_dfa())
    parity = Dfa(("a", "b"), ((1, 0), (0, 1)), 0, frozenset({0}))
    assert factor_stamp(st_, parity) is None


def accepted_by_reps(stamp, lang, blocks):
    """The recognition check the search replaced: the elements whose
    representatives ``lang`` accepts, if they form a union of ``blocks``
    whose preimage is ``lang``; else None."""
    accepted = frozenset(m for m in range(len(stamp.monoid))
                         if lang.accepts(stamp.reps[m]))
    if any(b & accepted and not b <= accepted for b in blocks):
        return None
    return accepted if cayley(stamp, accepted).difference(lang) is None else None


def check_recognition_search(seed) -> int:
    """``Stamp.accepted``, ``RegularBA.contains``, ``factor_stamp`` and
    ``syntactic_stamp`` against ``accepted_by_reps`` on the quotient closure
    of random automata, with a coarser partition of its monoid, and on
    random languages; returns how many of them the closure lacks."""
    rng = random.Random(seed)
    A = Alphabet.of("ab")
    gens = [random_body(rng, A, rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))]
    ba = quotient_closure(gens)
    stamp, n = ba.stamp, len(ba.stamp.monoid)
    singles = tuple(frozenset({m}) for m in range(n))
    # a coarser partition of the same monoid, not closed under quotients
    cut = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    order = rng.sample(range(n), n)
    coarse = RegularBA(stamp, tuple(frozenset(order[i:j]) for i, j in
                                    zip([0] + cut, cut + [n])))
    others = [random_body(rng, A, rng.randint(1, 4)) for _ in range(3)]
    outside = 0
    for lang in gens + others + [gens[0].union(others[0]),
                                 gens[-1].complement()]:
        want = accepted_by_reps(stamp, lang, singles)
        outside += want is None
        assert stamp.accepted(lang) == want
        assert ba.contains(lang) == (want is not None)
        got = factor_stamp(stamp, lang)
        assert got is None if want is None else got[1] == want
        assert coarse.contains(lang) == \
            (accepted_by_reps(stamp, lang, coarse.blocks) is not None)
        syn = syntactic_stamp(lang)
        assert syn.accepting == accepted_by_reps(syn, lang, ())
    return outside


@settings(derandomize=True, max_examples=80)
@given(st.integers(0, 10 ** 6))
def test_the_recognition_search_agrees_with_the_cayley_automaton(seed):
    check_recognition_search(seed)


def test_the_recognition_search_meets_languages_outside_the_algebra():
    assert sum(map(check_recognition_search, range(40))) > 0


def test_the_recognition_search_refuses_another_alphabet():
    st_ = syntactic_stamp(contains_a_dfa())
    with pytest.raises(ParseError, match="different alphabets"):
        st_.accepted(contains_a_dfa(("a", "b", "c")))
    with pytest.raises(ParseError, match="different alphabets"):
        recognized_languages(st_).contains(contains_a_dfa(("b", "a")))


# ---------------------------------------------------------------------------
# joint stamps


def test_family_stamp_recognizes_every_member():
    d1 = contains_a_dfa()
    parity = Dfa(("a", "b"), ((1, 0), (0, 1)), 0, frozenset({0}))
    st_ = syntactic_stamp_of_family([d1, parity])
    ba = recognized_languages(st_)
    assert ba.contains(d1)
    assert ba.contains(parity)
    # the joint monoid refines both syntactic congruences
    for u in [(), ("a",), ("b",), ("a", "a"), ("a", "b")]:
        for v in [(), ("a",), ("a", "a")]:
            if st_.mu(u) == st_.mu(v):
                assert d1.accepts(u) == d1.accepts(v)
                assert parity.accepts(u) == parity.accepts(v)


# ---------------------------------------------------------------------------
# breadth-first closure and the automaton constructions built on it

# every word over ab of length <= 6; two DFAs of <= 4 states each that
# differ do so on a word of length <= 6, so this sample decides equivalence
WORDS6 = tuple(w for n in range(7) for w in itertools.product("ab", repeat=n))


@st.composite
def small_dfas(draw):
    n = draw(st.integers(1, 4))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in "ab")
                  for _ in range(n))
    acc = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(("a", "b"), delta, draw(st.integers(0, n - 1)), acc)


@given(small_dfas())
def test_some_word_is_a_shortest_accepted_word(d):
    # first_paths along a closure's edges reach every state by a shortest word
    order, _, edges = closure(d.init, d.delta.__getitem__)
    paths = first_paths(edges, d.alphabet)
    w = next((paths[i] for i, q in enumerate(order) if q in d.accepting), None)
    accepted = [u for u in WORDS6 if d.accepts(u)]
    assert w == d.difference(empty_dfa(d.alphabet))
    assert (w is None) == (not accepted)
    if w is not None:
        assert d.accepts(w)
        assert len(w) == len(accepted[0])


@given(small_dfas(), small_dfas(),
       st.sampled_from(["and", "or", "xor", "minus"]))
def test_product_accepts_by_its_keep_rule(d1, d2, rule):
    keep = {"and": lambda a, b: a and b, "or": lambda a, b: a or b,
            "xor": lambda a, b: a != b, "minus": lambda a, b: a and not b}[rule]
    p = d1.product(d2, keep)
    for w in WORDS6:
        assert p.accepts(w) == keep(d1.accepts(w), d2.accepts(w))


@given(small_dfas(), small_dfas(), st.randoms(use_true_random=False))
def test_minimize_is_canonical(d1, d2, rnd):
    same = all(d1.accepts(w) == d2.accepts(w) for w in WORDS6)
    assert (d1.minimize() == d2.minimize()) == same
    # a renumbered copy with an unreachable extra state has the same key
    perm = list(range(d1.n))
    rnd.shuffle(perm)
    inv = {q: i for i, q in enumerate(perm)}
    delta = tuple(tuple(inv[t] for t in d1.delta[q]) for q in perm)
    copy = Dfa(d1.alphabet, delta + ((0, 0),), inv[d1.init],
               frozenset(inv[q] for q in d1.accepting) | {d1.n})
    assert copy.minimize() == d1.minimize()


@settings(derandomize=True)
@given(small_dfas(), small_dfas())
def test_difference_is_the_shortlex_first_word_on_which_two_dfas_differ(d1, d2):
    """Brute force is the oracle: every word shorter than the product's
    state count, in shortlex order, each run on from its prefix.  A
    shortest word on which two automata differ visits no product state
    twice, so it is that short."""
    level, first = [((), d1.init, d2.init)], None
    for _ in range(d1.n * d2.n):
        first = next((w for w, p, q in level
                      if (p in d1.accepting) != (q in d2.accepting)), None)
        if first is not None:
            break
        level = [(w + (a,), d1.delta[p][i], d2.delta[q][i])
                 for w, p, q in level for i, a in enumerate(d1.alphabet)]
    assert d1.difference(d2) == first == d2.difference(d1)
    if first is not None:
        assert d1.accepts(first) != d2.accepts(first)


@given(st.integers(1, 30), st.integers(1, 40))
def test_closure_stops_at_its_limit_naming_stage_and_cap(n, limit):
    def step(x):  # the cycle 0 -> 1 -> ... -> n-1 -> 0
        return [(x + 1) % n]

    if n <= limit:
        order, index, edges = closure(0, step, limit, "cycle")
        assert order == list(range(n))
        assert index == {i: i for i in range(n)}
        assert edges == [((i + 1) % n,) for i in range(n)]
    else:
        with pytest.raises(CapExceeded) as exc:
            closure(0, step, limit, "cycle")
        assert exc.value.info == {"stage": "cycle", "cap": limit}


@st.composite
def loose_dfas(draw, k=None):
    """1-12 states over k (else 1-3) letters, any start: unreachable states
    allowed."""
    k, n = k or draw(st.integers(1, 3)), draw(st.integers(1, 12))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(k))
                  for _ in range(n))
    acc = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(tuple("abc"[:k]), delta, draw(st.integers(0, n - 1)), acc)


@settings(derandomize=True)
@given(loose_dfas())
def test_minimize_is_the_same_through_a_closure(d):
    """The reachable part rebuilt by a closure is flagged, and minimizes
    without a reachability search to the same automaton, row for row."""
    order, _, edges = closure(d.init, d.delta.__getitem__)
    via = closure_dfa(d.alphabet, edges, (i for i, q in enumerate(order)
                                          if q in d.accepting))
    assert via._bfs and not d._bfs
    want = d.minimize()
    for got in (via.minimize(), d.product(universal_dfa(d.alphabet),
                                          lambda a, u: a).minimize()):
        assert got == want and got._minimal  # == compares delta row for row


@settings(derandomize=True)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(loose_dfas(k), loose_dfas(k))),
       st.sampled_from(["and", "or", "xor"]))
def test_a_product_minimizes_like_its_public_copy(pair, rule):
    keep = {"and": lambda a, b: a and b, "or": lambda a, b: a or b,
            "xor": lambda a, b: a != b}[rule]
    p = pair[0].product(pair[1], keep)
    copy = Dfa(p.alphabet, p.delta, p.init, p.accepting)
    assert p._bfs and not copy._bfs
    got, want = p.minimize(), copy.minimize()
    assert got == want
