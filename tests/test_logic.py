"""Formulas, quantifiers, satisfaction, and bounded model sets."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordlogic import (
    TRUE, FALSE, And, Or, Not, Quant, LetterPred, NumPred,
    Alphabet,
    BoundTooSmall,
    CapExceeded,
    DEFAULT_REGISTRY,
    Dfa,
    ExtendedAlphabet,
    MarkedWord,
    NumPredDef,
    ParseError,
    Quantifier,
    Registry,
    conj, disj, neg,
    counterexample_bounded,
    equiv_bounded,
    formula_dfa,
    free_vars, bound_vars, letters_of,
    models,
    parse, parse_formula_file, to_dsl,
    registry_from_json,
    relabel,
    rename_bound,
    satisfies,
)
from wordlogic.caps import DEFAULT, Caps
from wordlogic.logic import (_ANY, _atom, _operations, check_hygiene, in_range,
                             map_vars, marked_truth, scope, truth_table)
from wordlogic.regular import ASSOC_CHECK_LIMIT, shortlex_offsets, shortlex_rows
from wordlogic.semidirect import compile_layer
from wordlogic.sampling import random_formula
from wordlogic.varcode import decode, encode
from wordlogic.words import embed_marked, enumerate_marked, enumerate_words

from conftest import (LASTBIT, SHADOW_NAMES, agrees, count_layer, embedded_ids,
                      infer_dfa, member_table, model_table, model_words,
                      nesting_depth, off_by_one_table, plain, random_body,
                      shadowing_formula)


# ---------------------------------------------------------------------------
# syntax: constructors, variables, hygiene


def test_connective_helpers_simplify_units():
    p = LetterPred("a", "x")
    assert conj([p]) == p
    assert conj([]) == TRUE
    assert conj([p, FALSE]) == FALSE
    assert disj([]) == FALSE
    assert disj([p, TRUE]) == TRUE
    assert neg(neg(p)) == p
    assert neg(TRUE) == FALSE


def test_variable_sets():
    phi = parse("E z. (P[a](z) & z < x) | P[b](y)")
    assert free_vars(phi) == {"x", "y"}
    assert bound_vars(phi) == {"z"}
    assert letters_of(phi) == {"a", "b"}


def test_hygiene_rejects_shadowing():
    shadowed = Quant("E", "x", Quant("E", "x", LetterPred("a", "x")))
    with pytest.raises(ParseError):
        check_hygiene(shadowed)
    mixed = Quant("E", "x", And((LetterPred("a", "x"),
                                 Quant("E", "x", TRUE))))
    with pytest.raises(ParseError):
        check_hygiene(mixed)


def test_rename_bound_avoids_collisions():
    phi = Quant("E", "z", And((LetterPred("a", "z"), LetterPred("b", "x"))))
    out = rename_bound(phi, avoid={"z", "z0"})
    assert bound_vars(out).isdisjoint({"z", "z0"})
    assert free_vars(out) == {"x"}
    A = Alphabet.of("ab")
    assert equiv_bounded(phi, out, A, 4)


def test_map_vars_renames_free_occurrences():
    phi = parse("P[a](x) & E z. z < x")
    out = map_vars(phi, {"x": "y"})
    assert free_vars(out) == {"y"}
    assert to_dsl(out) == "P[a](y) & (E z. z < y)"


def test_scope_is_the_free_and_bound_variables():
    phi = parse("E z. (P[a](z) & z < x) | ~mod[2,0] u. R[succ](u,y)")
    assert scope(phi) == ({"x", "y"}, {"z", "u"}) and nesting_depth(phi) == 2
    one = Quant("E", "x", LetterPred("a", "y"))
    assert scope(one) == ({"y"}, {"x"}) and nesting_depth(one) == 1


def test_hygiene_names_the_outermost_binder_bound_twice():
    # two violations: the outer x is bound again in its body, and so is
    # the y inside; the binder hook meets the outer one first
    phi = Quant("E", "x", And((Quant("E", "y", Quant("E", "y", TRUE)),
                               Quant("E", "x", TRUE))))
    with pytest.raises(ParseError, match="variable 'x' is bound twice"):
        check_hygiene(phi)


def test_map_vars_hides_a_renamed_variable_under_its_binder():
    phi = Quant("E", "x", LetterPred("a", "x"))
    assert map_vars(phi, {"x": "z0"}) == phi
    mixed = And((LetterPred("b", "x"), phi))
    assert to_dsl(map_vars(mixed, {"x": "y"})) == "P[b](y) & (E x. P[a](x))"


def test_map_vars_refuses_a_capture():
    phi = parse("E z. z < x & P[a](z)")
    with pytest.raises(ParseError, match="variable 'x' renamed to 'z' would "
                       "be captured by the binder of 'z'"):
        map_vars(phi, {"x": "z"})
    # renaming the binders apart first makes the same renaming safe
    out = map_vars(rename_bound(phi, {"z"}), {"x": "z"})
    assert to_dsl(out) == "E z0. z0 < z & P[a](z0)"


def captured(phi, ren, binders=frozenset()) -> set:
    """Reference: the variables with a free occurrence under a binder of
    the name ``ren`` gives them (a binder of a variable hides it)."""
    if isinstance(phi, Quant):
        return captured(phi.body, {u: w for u, w in ren.items() if u != phi.var},
                        binders | {phi.var})
    if isinstance(phi, Not):
        return captured(phi.sub, ren, binders)
    if isinstance(phi, (And, Or)):
        return set().union(*(captured(a, ren, binders) for a in phi.args))
    return {v for v in scope(phi)[0] if ren.get(v) in binders}


@settings(derandomize=True, max_examples=300)
@given(st.integers(0, 10 ** 6), st.integers(0, 4),
       st.dictionaries(st.sampled_from(SHADOW_NAMES),
                       st.sampled_from(SHADOW_NAMES + ("v",)), max_size=3))
def test_map_vars_refuses_a_capture_or_agrees_with_its_input(seed, depth, ren):
    # on every marked word, the output read with the new names is the input
    # read with each old variable at the mark of its new name
    phi = shadowing_formula(random.Random(seed), depth)
    caught = captured(phi, ren)
    if caught:
        with pytest.raises(ParseError, match="would be captured") as exc:
            map_vars(phi, ren)
        assert any(str(exc.value).startswith(f"variable {u!r} renamed")
                   for u in caught)
        return
    out = map_vars(phi, ren)
    free = sorted(free_vars(phi))
    assert free_vars(out) == {ren.get(v, v) for v in free}
    for mw in enumerate_marked(Alphabet.of("ab"), sorted(free_vars(out)), 3):
        before = MarkedWord(mw.word, tuple((v, mw.pos(ren.get(v, v)))
                                           for v in free))
        assert satisfies(mw, out) == satisfies(before, phi)


@settings(derandomize=True, max_examples=200)
@given(st.integers(0, 10 ** 6), st.integers(0, 4),
       st.sets(st.sampled_from(SHADOW_NAMES + ("z0", "z1"))))
def test_rename_bound_is_equivalent_to_its_input(seed, depth, avoid):
    phi = shadowing_formula(random.Random(seed), depth)
    out = rename_bound(phi, avoid)
    free, bound = scope(out)
    assert free == free_vars(phi)
    assert bound.isdisjoint(avoid | free)
    for mw in enumerate_marked(Alphabet.of("ab"), sorted(free), 3):
        assert satisfies(mw, out) == satisfies(mw, phi)


# ---------------------------------------------------------------------------
# the surface syntax


def test_parse_and_print_forms():
    cases = [
        "1",
        "0",
        "P[a](x)",
        "~P[a](x) & P[b](y)",
        "E x. P[a](x)",
        "mod[2,0] x. P[a](x)",
        "E1 y. R[succ](x,y)",
        "R[first](x)",
        "x = y",
        "x < y",
    ]
    for text in cases:
        assert to_dsl(parse(text)) == text


def test_parse_precedence_and_parentheses():
    phi = parse("P[a](x) | P[b](x) & P[a](y)")
    assert isinstance(phi, Or)
    assert to_dsl(parse("(P[a](x) | P[b](x)) & P[a](y)")) == \
        "(P[a](x) | P[b](x)) & P[a](y)"
    # binder scope extends maximally to the right
    wide = parse("E x. P[a](x) & P[b](x)")
    assert isinstance(wide, Quant)


def test_parse_errors():
    for bad in ["P[a](x", "E x P[a](x)", "(P[a](x)", "x <", "flub x. 1",
                "R[nosuch](x)", "R[succ](x)"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_formula_file_with_comments():
    text = """
    # leading comment
    E x. P[a](x)   # trailing comment

    P[b](y)
    """
    out = parse_formula_file(text)
    assert [to_dsl(f) for f in out] == ["E x. P[a](x)", "P[b](y)"]
    with pytest.raises(ParseError, match="line 2"):
        parse_formula_file("1\nP[a](x\n")


@given(st.integers(min_value=0, max_value=10_000))
def test_dsl_roundtrip_on_random_formulas(seed):
    from wordlogic.sampling import random_formula
    from conftest import seeded

    phi = random_formula(seeded(seed), Alphabet.of("ab"), context=("x",),
                         depth=2, quantifiers=("E", "maj", "mod[3,1]"))
    text = to_dsl(phi)
    assert to_dsl(parse(text)) == text


# ---------------------------------------------------------------------------
# satisfaction


def test_letter_predicate_on_marked_word():
    mw = MarkedWord(("a", "b"), (("x", 1),))
    assert satisfies(mw, parse("P[a](x)"))
    assert not satisfies(mw, parse("P[b](x)"))


def test_exists_and_majority():
    bb = MarkedWord(("b", "b"), ())
    assert not satisfies(bb, parse("E x. P[a](x)"))
    aab = MarkedWord(("a", "a", "b"), ())
    assert satisfies(aab, parse("maj x. P[a](x)"))
    assert not satisfies(MarkedWord(("a", "b"), ()), parse("maj x. P[a](x)"))


def test_quantifiers_on_the_empty_word():
    eps = MarkedWord((), ())
    assert not satisfies(eps, parse("E x. 1"))
    assert not satisfies(eps, parse("E1 x. 1"))
    assert satisfies(eps, parse("mod[2,0] x. 1"))
    assert not satisfies(eps, parse("maj x. 1"))


def test_numerical_predicates():
    mw = MarkedWord(("a", "b", "a"), (("x", 1), ("y", 2)))
    for text, want in [("x < y", True), ("y < x", False),
                       ("x = y", False), ("R[succ](x,y)", True),
                       ("R[succ](y,x)", False), ("R[first](x)", True),
                       ("R[last](y)", False), ("R[mod[2,1]](x)", True)]:
        assert satisfies(mw, parse(text)) is want, text


def test_satisfies_requires_marks_for_free_variables():
    with pytest.raises(ParseError):
        satisfies(MarkedWord(("a",), ()), parse("P[a](x)"))


# ---------------------------------------------------------------------------
# quantifier semantics: monoid tables vs direct counting


@given(st.lists(st.booleans(), max_size=12))
def test_builtin_quantifier_tables_match_counting(bits):
    reg = DEFAULT_REGISTRY
    n = sum(bits)
    assert reg.quantifier("E").evaluate(bits) is (n >= 1)
    assert reg.quantifier("E1").evaluate(bits) is (n == 1)
    assert reg.quantifier("maj").evaluate(bits) is (n > len(bits) - n)
    for q, r in [(2, 0), (2, 1), (3, 0), (5, 2)]:
        got = reg.quantifier(f"mod[{q},{r}]").evaluate(bits)
        assert got is (n % q == r)


def test_quantifier_needs_exactly_one_presentation():
    from wordlogic.regular import FinMonoid

    m = FinMonoid(((0, 1), (1, 1)), 0)
    with pytest.raises(ParseError):
        Quantifier("both", monoid=m, images=(0, 1), accept=frozenset({1}),
                   oracle=lambda bits: True)
    with pytest.raises(ParseError):
        Quantifier("neither")


def test_registry_from_json():
    reg = registry_from_json({
        "quantifiers": [{"name": "allpos", "table": [[0, 1], [1, 1]],
                         "identity": 0, "images": [1, 0],
                         "accept": [0]}],
        "predicates": [{"name": "third", "arity": 1, "tuples": [[3]],
                        "finite": True}],
    })
    phi = parse("allpos x. P[a](x)", reg)
    assert satisfies(MarkedWord(("a", "a"), ()), phi, reg)
    assert not satisfies(MarkedWord(("a", "b"), ()), phi, reg)
    psi = parse("E x. R[third](x)", reg)
    assert satisfies(MarkedWord(("b", "b", "b"), ()), psi, reg)
    assert not satisfies(MarkedWord(("b", "b"), ()), psi, reg)


@pytest.mark.parametrize("n", [5, ASSOC_CHECK_LIMIT + 1])
def test_a_registry_table_is_checked_or_refused(n):
    data = {"quantifiers": [{"name": "skew", "table": off_by_one_table(n),
                             "identity": 0, "images": [0, 1], "accept": [0]}]}
    if n <= ASSOC_CHECK_LIMIT:
        with pytest.raises(ParseError, match="not associative"):
            registry_from_json(data)
        return
    # too large for the exhaustive check, which would find the same fault
    with pytest.raises(CapExceeded, match="associativity") as exc:
        registry_from_json(data)
    assert exc.value.info == {"stage": "quantifier monoid", "size": n,
                              "cap": ASSOC_CHECK_LIMIT}


def test_registry_rejects_redefinition():
    reg = Registry()
    with pytest.raises(ParseError):
        registry_from_json({"quantifiers": [
            {"name": "E", "table": [[0]], "identity": 0, "images": [0, 0],
             "accept": [0]}]})
    del reg


@pytest.mark.parametrize("looked_up_first", [False, True])
def test_builtin_names_cannot_be_registered(looked_up_first):
    reg = Registry()
    phi = parse("mod[2,0] x. P[a](x)", reg)
    if looked_up_first:
        assert not satisfies(MarkedWord(("a",), ()), phi, reg)
        reg.numpred("mod[2,0]")
    exists = Quantifier("mod[2,0]", monoid=DEFAULT_REGISTRY.quantifier("E").monoid,
                        images=(0, 1), accept=frozenset({1}))
    for register, item in ((reg.register_quantifier, exists),
                           (reg.register_numpred,
                            NumPredDef("mod[2,0]", 1, lambda p, n: True)),
                           (reg.register_quantifier,
                            dataclasses.replace(exists, name="E1")),
                           (reg.register_numpred,
                            NumPredDef("succ", 2, lambda p, n: True))):
        with pytest.raises(ParseError, match="already registered"):
            register(item)
    assert not satisfies(MarkedWord(("a",), ()), phi, reg)


@pytest.mark.parametrize("kind", ["quantifier", "numpred"])
def test_the_default_registry_refuses_registrations(kind):
    tables = (dict(DEFAULT_REGISTRY._quants), dict(DEFAULT_REGISTRY._preds))
    item = (Quantifier("evenish", monoid=DEFAULT_REGISTRY.quantifier("E").monoid,
                       images=(0, 1), accept=frozenset({1}))
            if kind == "quantifier" else
            NumPredDef("evenish", 1, lambda p, n: p[0] % 2 == 0))
    with pytest.raises(ParseError, match=r"Registry\(\) or .*registry_from_json"):
        getattr(DEFAULT_REGISTRY, f"register_{kind}")(item)
    assert (DEFAULT_REGISTRY._quants, DEFAULT_REGISTRY._preds) == tables
    with pytest.raises(ParseError, match="unknown"):
        getattr(DEFAULT_REGISTRY, kind)("evenish")
    # a registry of one's own still takes the registration
    reg = Registry()
    getattr(reg, f"register_{kind}")(item)
    assert getattr(reg, kind)("evenish") is item


def test_lookups_leave_the_default_registry_unchanged():
    tables = (dict(DEFAULT_REGISTRY._quants), dict(DEFAULT_REGISTRY._preds))
    phi = parse("mod[3,1] x. R[mod[5,2]](x) & E y. R[succ](x,y)")
    assert not satisfies(MarkedWord(("a", "b"), ()), phi)
    assert models(phi, Alphabet.of("ab"), 3)
    assert (DEFAULT_REGISTRY._quants, DEFAULT_REGISTRY._preds) == tables


# ---------------------------------------------------------------------------
# bounded model sets


def test_models_of_true_with_context():
    got = models(TRUE, Alphabet.of("a"), 1, ("x",))
    assert got == frozenset({MarkedWord(("a",), (("x", 1),))})


def test_models_of_exists_a():
    got = model_words(parse("E x. P[a](x)"), Alphabet.of("ab"), 2)
    assert got == frozenset({("a",), ("a", "a"), ("a", "b"), ("b", "a")})


def test_exists_vs_unique_witness():
    A = Alphabet.of("a")
    cex = counterexample_bounded(parse("E x. P[a](x)"),
                                 parse("E1 x. P[a](x)"), A, 2)
    assert cex == MarkedWord(("a", "a"), ())
    assert equiv_bounded(parse("E x. P[a](x)"), parse("E1 x. P[a](x)"), A, 1)


def test_equiv_bounded_with_context():
    A = Alphabet.of("ab")
    assert equiv_bounded(parse("~(P[a](x) & P[b](x))"), TRUE, A, 3,
                         context=("x",))
    assert not equiv_bounded(parse("P[a](x)"), parse("P[b](x)"), A, 3,
                             context=("x",))


# ---------------------------------------------------------------------------
# relabelings (length-preserving letter maps)


def test_relabel_merging_letters():
    zeta = {"a": "c", "b": "c"}
    phi = relabel(zeta, parse("P[c](x)"))
    assert equiv_bounded(phi, parse("P[a](x) | P[b](x)"),
                         Alphabet.of("ab"), 3, context=("x",))


def test_relabel_missing_target_letter_is_false():
    zeta = {"a": "c"}
    assert relabel(zeta, parse("P[d](x)")) == FALSE
    assert relabel(zeta, parse("E x. P[d](x)")) == Quant("E", "x", FALSE)


def test_relabel_composes_contravariantly():
    # xi: {a,b} -> {c,d}, zeta: {c,d} -> {e}; composite on letters a,b -> e
    xi = {"a": "c", "b": "d"}
    zeta = {"c": "e", "d": "e"}
    composite = {s: zeta[xi[s]] for s in xi}
    phi = parse("E z. P[e](z) & R[first](z)")
    lhs = relabel(composite, phi)
    rhs = relabel(xi, relabel(zeta, phi))
    assert equiv_bounded(lhs, rhs, Alphabet.of("ab"), 4)


def test_relabel_preserves_model_sets_through_the_letter_map():
    # w satisfies relabel(zeta, phi) iff zeta(w) satisfies phi
    zeta = {"a": "c", "b": "c"}
    phi = parse("mod[2,1] z. P[c](z)")
    back = relabel(zeta, phi)
    A = Alphabet.of("ab")
    for mw in models(TRUE, A, 4):
        image = MarkedWord(tuple(zeta[s] for s in mw.word), ())
        assert satisfies(mw, back) == satisfies(image, phi)


# ---------------------------------------------------------------------------
# bounded model sets to automata


def test_formula_dfa_of_a_sentence():
    A = Alphabet.of("ab")
    ext, dfa = formula_dfa(parse("E x. P[a](x)"), A, (), 6)
    # sentences still run over the (trivially) extended alphabet
    assert ext.base.symbols == A.symbols
    assert ext.ctx == ()
    a, b = ext.symbol("a", ()), ext.symbol("b", ())
    assert dfa.n == 2
    assert dfa.accepts((b, a, b))
    assert not dfa.accepts((b, b))
    assert not dfa.accepts(())


def test_formula_dfa_with_context_runs_over_the_marked_alphabet():
    A = Alphabet.of("ab")
    ext, dfa = formula_dfa(parse("P[a](x)"), A, ("x",), 5)
    assert set(ext.symbols) == {"a{}", "a{x}", "b{}", "b{x}"}
    assert dfa.accepts(("b{}", "a{x}"))
    assert not dfa.accepts(("b{x}",))
    assert not dfa.accepts(("a{}",))  # no mark at all
    assert not dfa.accepts(("a{x}", "a{x}"))  # two marks


def test_automaton_inference_refuses_non_regular_looking_data():
    import itertools

    A = Alphabet.of("ab")
    pals = frozenset(w for n in range(6)
                     for w in itertools.product("ab", repeat=n)
                     if w == w[::-1])
    with pytest.raises(BoundTooSmall):
        infer_dfa(A.symbols, 5, member_table(A.symbols, 5, pals))


# ---------------------------------------------------------------------------
# the bulk model table against the per-word interpreter


#: every built-in predicate, a modular one and a finite JSON tuple predicate
NEAR_PREDICATE = {"name": "near", "arity": 2,
                  "tuples": [[1, 2], [2, 1], [2, 2], [3, 1]]}
NEAR = registry_from_json({"predicates": [NEAR_PREDICATE]})
TABLE_PREDICATES = (("<", 2), ("=", 2), ("succ", 2), ("first", 1),
                    ("last", 1), ("mod[2,1]", 1), ("near", 2))
TABLE_QUANTIFIERS = ("E", "E1", "mod[2,1]", "maj")
CONTEXTS = ((), ("x",), ("x", "y"))


def table_formula(seed, ctx, max_depth=3):
    rng = random.Random(seed)
    return random_formula(rng, Alphabet.of("ab"), context=ctx,
                          depth=rng.randint(1, max_depth),
                          quantifiers=TABLE_QUANTIFIERS,
                          predicates=TABLE_PREDICATES, registry=NEAR)


@given(st.integers(0, 10 ** 6), st.sampled_from(CONTEXTS), st.integers(0, 5))
def test_model_table_marks_exactly_the_embedded_models(seed, ctx, bound):
    # with ("x", "y") both variables also mark one position together
    A = Alphabet.of("ab")
    phi = table_formula(seed, ctx)
    ext = ExtendedAlphabet(A, ctx)
    ids = {w: i for i, w in enumerate(enumerate_words(ext.symbols, bound))}
    want = sorted(ids[embed_marked(mw, ctx, ext=ext)]
                  for mw in models(phi, A, bound, ctx, NEAR))
    got = model_table(phi, A, ctx, bound, NEAR)
    assert got.shape == (len(ids),)
    assert np.flatnonzero(got).tolist() == want


@pytest.mark.parametrize("c", [0, 2])
def test_embedded_ids_are_shared_and_read_only(c):
    ids = embedded_ids(2, c, 3)
    assert embedded_ids(2, c, 3) is ids
    with pytest.raises(ValueError):
        ids[(0,) * ids.ndim] = 1


def test_model_table_is_the_same_in_small_blocks(monkeypatch):
    import wordlogic.logic as logic

    A = Alphabet.of("abc")
    phi = parse("(E y. (x < y & P[a](y))) & mod[2,1] z. (z < x & P[b](z))")
    whole = model_table(phi, A, ("x",), 5)
    monkeypatch.setattr(logic, "_BLOCK_CELLS", 50)  # a few words per block
    assert np.array_equal(model_table(phi, A, ("x",), 5), whole)
    assert whole.sum() == len(models(phi, A, 5, ("x",)))


def test_model_table_reads_a_foreign_letter_as_false():
    A = Alphabet.of("ab")
    table = model_table(parse("~P[c](x)"), A, ("x",), 2)
    assert table.sum() == len(models(parse("1"), A, 2, ("x",)))


@given(st.integers(0, 10 ** 6), st.sampled_from(CONTEXTS), st.integers(0, 5))
def test_marked_truth_is_satisfies_on_every_marked_word(seed, ctx, bound):
    A = Alphabet.of("ab")
    phi = table_formula(seed, ctx)
    want = [satisfies(mw, phi, NEAR) for mw in enumerate_marked(A, ctx, bound)]
    assert marked_truth((phi,), A, ctx, bound, NEAR)[0].tolist() == want


NEAR_LASTBIT = registry_from_json({"quantifiers": [LASTBIT],
                                   "predicates": [NEAR_PREDICATE]})


@given(st.integers(0, 10 ** 6), st.sampled_from(CONTEXTS), st.integers(0, 5))
def test_marked_truth_is_satisfies_under_a_non_commuting_quantifier(seed, ctx,
                                                                    bound):
    A = Alphabet.of("ab")
    rng = random.Random(seed)
    phi = random_formula(rng, A, context=ctx, depth=rng.randint(1, 3),
                         quantifiers=("lastbit", "E"),
                         predicates=TABLE_PREDICATES, registry=NEAR_LASTBIT)
    want = [satisfies(mw, phi, NEAR_LASTBIT)
            for mw in enumerate_marked(A, ctx, bound)]
    assert marked_truth((phi,), A, ctx, bound, NEAR_LASTBIT)[0].tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                          st.sampled_from(CONTEXTS)), max_size=5),
       st.integers(0, 4), st.sampled_from([20, 200, 1 << 20]))
def test_a_family_is_its_formulas_evaluated_one_by_one(draws, bound, cells):
    # depths 0-3 and free variables among 0-2 context variables in one
    # family, under quantifiers with a count table, the oracle maj and the
    # non-commuting lastbit (asked row by row), in blocks of a few rows
    import wordlogic.logic as logic

    A, ctx = Alphabet.of("ab"), ("x", "y")
    phis = [random_formula(random.Random(seed), A, context=free, depth=depth,
                           quantifiers=("E", "mod[2,1]", "maj", "lastbit"),
                           predicates=TABLE_PREDICATES, registry=NEAR_LASTBIT)
            for seed, depth, free in draws]
    letters, lens = shortlex_rows(len(A), bound)
    one_by_one = [truth_table((phi,), A.symbols, ctx, letters, lens, NEAR_LASTBIT)
                  for phi in phis]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "_BLOCK_CELLS", cells)
        family = truth_table(phis, A.symbols, ctx, letters, lens, NEAR_LASTBIT)
    assert family.shape == (len(phis), len(lens), bound, bound)
    if phis:
        assert np.array_equal(family, np.concatenate(one_by_one))
    marked = marked_truth(phis, A, ctx, bound, NEAR_LASTBIT)
    assert marked.shape == (len(phis), len(list(enumerate_marked(A, ctx, bound))))
    assert np.array_equal(marked, family[:, in_range(len(A), bound, len(ctx))])


@pytest.mark.parametrize("k, bound, c", [(2, 3, 0), (2, 3, 1), (3, 2, 2), (1, 0, 1)])
def test_in_range_marks_the_positions_inside_each_row_and_is_shared(k, bound, c):
    lens = shortlex_rows(k, bound)[1]
    mask = in_range(k, bound, c)
    assert in_range(k, bound, c) is mask and not mask.flags.writeable
    want = [all(p < n for p in pos) for n in lens.tolist()
            for pos in itertools.product(range(bound), repeat=c)]
    assert mask.ravel().tolist() == want


def test_a_family_is_checked_formula_by_formula_before_evaluation(monkeypatch):
    import wordlogic.logic as logic

    A = Alphabet.of("ab")
    letters, lens = shortlex_rows(len(A), 2)
    deep = LetterPred("a", "x")
    for i in range(63):
        deep = Quant("E", f"y{i}", deep)
    runs = []
    monkeypatch.setattr(logic._Evaluator, "run", lambda self, ops: runs.append(ops))
    for rows in (slice(None), slice(0)):  # all rows, then none
        with pytest.raises(ParseError, match="context does not cover"):
            truth_table((TRUE, parse("P[a](y)")), A.symbols, ("x",),
                        letters[rows], lens[rows])
        with pytest.raises(CapExceeded) as exc:
            truth_table((parse("P[a](x)"), deep), A.symbols, ("x",),
                        letters[rows], lens[rows])
        assert exc.value.info == {"stage": "bulk evaluation", "size": 65, "cap": 64}
    assert runs == []


def test_alpha_equivalent_subformulas_on_the_same_axes_are_one_operation():
    A = Alphabet.of("ab")
    phi = parse("(E z. P[a](z) & z = x) & (E w. P[a](w) & w = x)")
    ops, roots, depth, most = _operations((phi,), ("x",))
    assert [op[0] for op in ops].count(Quant) == 1
    assert (len(roots), depth, most) == (1, 1, 2)
    letters, lens = shortlex_rows(len(A), 4)
    truth = truth_table((phi,), A.symbols, ("x",), letters, lens)[0]
    assert truth[in_range(len(A), 4, 1)].tolist() == \
        [satisfies(mw, phi) for mw in enumerate_marked(A, ("x",), 4)]


@pytest.mark.parametrize("name", ["E", "E1", "mod[2,0]", "mod[3,1]"])
def test_the_count_table_is_evaluate_on_every_bit_string(name):
    q, bound = DEFAULT_REGISTRY.quantifier(name), 6
    table = q.by_count(bound)
    assert table.shape == (bound + 1, bound + 1)
    assert q.by_count(bound) is table and not table.flags.writeable
    for n in range(bound + 1):
        for bits in itertools.product((0, 1), repeat=n):
            assert table[n, sum(bits)] == q.evaluate(bits)


def test_quantifiers_with_non_commuting_images_or_an_oracle_have_no_count_table():
    assert NEAR_LASTBIT.quantifier("lastbit").by_count(4) is None
    assert DEFAULT_REGISTRY.quantifier("maj").by_count(4) is None
    assert NEAR_LASTBIT.quantifier("lastbit").evaluate((1, 0)) is False
    assert NEAR_LASTBIT.quantifier("lastbit").evaluate((0, 1)) is True


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from(CONTEXTS), st.integers(0, 4))
def test_counterexample_is_the_first_word_where_satisfies_differs(
        seed1, seed2, ctx, bound):
    A = Alphabet.of("ab")
    phi, psi = table_formula(seed1, ctx), table_formula(seed2, ctx)
    want = next((mw for mw in enumerate_marked(A, ctx, bound)
                 if satisfies(mw, phi, NEAR) != satisfies(mw, psi, NEAR)), None)
    assert counterexample_bounded(phi, psi, A, bound, ctx, NEAR) == want


def test_blocks_are_sized_by_width_not_by_variable_count(monkeypatch):
    import wordlogic.logic as logic

    A = Alphabet.of("ab")
    psi = encode(parse("E y. (x < y & P[a](y))"), "x", A)
    both = encode(decode(psi, "x", A), "x", A)
    ext = ExtendedAlphabet(A, ("x",))
    assert len(bound_vars(both)) >= 10 and _operations((both,), ())[3] <= 3
    letters, lens = shortlex_rows(len(ext), 3)
    blocks = []
    run = logic._Evaluator.run

    def spy(self, ops):
        blocks.append(len(self.lens))
        return run(self, ops)

    monkeypatch.setattr(logic._Evaluator, "run", spy)
    whole = truth_table((both,), ext.symbols, (), letters, lens)[0]
    assert blocks == [len(lens)]
    monkeypatch.setattr(logic, "_BLOCK_CELLS", 20)  # 20 // 3^width words
    assert np.array_equal(truth_table((both,), ext.symbols, (), letters, lens)[0], whole)
    assert len(blocks) > 2
    assert whole.tolist() == [satisfies(MarkedWord(w, ()), both)
                              for w in enumerate_words(ext.symbols, 3)]


def test_predicate_tables_are_built_once_per_predicate_and_read_only():
    A = Alphabet.of("ab")
    asked = []

    def adjacent(p, n):
        asked.append(p)
        return abs(p[0] - p[1]) == 1

    near, far = Registry(), Registry()
    near.register_numpred(NumPredDef("gap", 2, adjacent))
    far.register_numpred(NumPredDef("gap", 2, lambda p, n: abs(p[0] - p[1]) > 1))
    phi = parse("E y. (R[gap](x,y) & P[a](y))", near)
    asks = []
    for reg in (near, far, near):  # one name, two predicates
        want = [satisfies(mw, phi, reg) for mw in enumerate_marked(A, ("x",), 4)]
        asked.clear()
        assert marked_truth((phi,), A, ("x",), 4, reg)[0].tolist() == want
        asks.append(len(asked))
    # near's table over bound 4 is asked once per position pair, once
    assert asks == [sum(n * n for n in range(5)), 0, 0]
    tables = near.numpred("gap")._tables
    assert list(tables) == [((0, 1), 4)]
    with pytest.raises(ValueError):
        tables[(0, 1), 4][4, 0, 1] = False


def test_sibling_binders_share_axes_and_deep_nesting_is_refused():
    A = Alphabet.of("ab")
    # 70 bound variables side by side: one axis for all of them
    wide = conj(parse(f"E y{i}. (x < y{i} & P[a](y{i}))" if i % 2 else
                      f"mod[2,0] y{i}. P[b](y{i})") for i in range(70))
    want = [satisfies(mw, wide) for mw in enumerate_marked(A, ("x",), 4)]
    assert marked_truth((wide,), A, ("x",), 4)[0].tolist() == want
    # 63 nested binders and one context variable need 65 axes
    deep = LetterPred("a", "x")
    for i in range(63):
        deep = Quant("E", f"y{i}", deep)
    with pytest.raises(CapExceeded) as exc:
        marked_truth((deep,), A, ("x",), 2)
    assert exc.value.info == {"stage": "bulk evaluation", "size": 65, "cap": 64}


#: the five monoid quantifiers, the non-commuting ``lastbit`` and the
#: finite tuple predicate ``near`` beside the built-in predicates
COMPILED_QUANTIFIERS = ("E", "E1", "mod[2,0]", "mod[2,1]", "mod[3,0]", "lastbit")
COMPILED_PREDICATES = (("<", 2), ("=", 2), ("succ", 2), ("first", 1),
                       ("last", 1), ("mod[2,1]", 1), ("near", 2))
#: (alphabet, table bound): at most a few hundred thousand words per table
COMPILED_ALPHABETS = (("a", 8), ("ab", 6), ("abc", 4))


def compiled_case(seed, ctx, letters):
    rng = random.Random(seed)
    A = Alphabet.of(letters)
    return A, random_formula(rng, A, context=ctx, depth=rng.randint(1, 3),
                             quantifiers=COMPILED_QUANTIFIERS,
                             predicates=COMPILED_PREDICATES, registry=NEAR_LASTBIT)


def agrees_with_table(dfa, member, k, bound) -> bool:
    accepting = np.isin(np.arange(dfa.n), list(dfa.accepting))
    return agrees(np.array(dfa.delta), accepting, member,
                  shortlex_offsets(k, bound))


@settings(derandomize=True, max_examples=200)
@given(st.integers(0, 10 ** 6), st.sampled_from(CONTEXTS),
       st.sampled_from(COMPILED_ALPHABETS))
def test_compiled_automata_match_the_bulk_truth_tables(seed, ctx, alphabet):
    letters, bound = alphabet
    A, phi = compiled_case(seed, ctx, letters)
    ext, dfa = formula_dfa(phi, A, ctx, 0, NEAR_LASTBIT)
    assert dfa.alphabet == ext.symbols and dfa == dfa.minimize()
    member = model_table(phi, A, ctx, bound, NEAR_LASTBIT)
    assert agrees_with_table(dfa, member, len(ext), bound)


@settings(derandomize=True, max_examples=200)
@given(st.integers(0, 10 ** 6), st.sampled_from(CONTEXTS),
       st.sampled_from(COMPILED_ALPHABETS))
def test_the_compiled_automaton_is_inferences_wherever_inference_succeeds(
        seed, ctx, alphabet):
    letters, bound = alphabet
    A, phi = compiled_case(seed, ctx, letters)
    ext, dfa = formula_dfa(phi, A, ctx, bound, NEAR_LASTBIT)
    try:
        inferred = infer_dfa(ext.symbols, bound,
                             model_table(phi, A, ctx, bound, NEAR_LASTBIT))
    except BoundTooSmall:
        return  # the table is checked in the test above
    # both agree with the table; minimal automata with n and m states that
    # agree on the words of length <= n + m - 2 are equal, and below that
    # inference may return a guess that the table cannot refute
    if bound >= dfa.n + inferred.n - 2:
        assert dfa == inferred


@settings(derandomize=True)
@given(st.integers(0, 10 ** 6), st.sampled_from(("a", "ab", "abc")),
       st.sampled_from(("E", "E1", "mod[2,0]", "mod[2,1]", "mod[3,0]",
                        "mod[3,2]", "mod[4,1]")))
def test_the_counting_step_equals_the_transfer_path(seed, letters, qname):
    rng = random.Random(seed)
    A = Alphabet.of(letters)
    ext = ExtendedAlphabet(A, ("x",))
    q = DEFAULT_REGISTRY.quantifier(qname)
    assert q.commutes
    if rng.random() < 0.5:  # a body formula
        phi = random_formula(rng, A, context=("x",), depth=rng.randint(1, 2),
                             quantifiers=("E", "E1"))
        body = formula_dfa(phi, A, ("x",), 0)[1]
    else:  # or any automaton over A x {x}
        body = random_body(rng, ext, rng.randint(1, 3))
    assert compile_layer(q, body, ext) == count_layer(q, body, A.symbols)


# ---------------------------------------------------------------------------
# the process-wide atom memo and the layer's state cap


MEMO_PHI = "E y. (x < y & P[a](y)) & ~R[first](x) | E1 z. (R[succ](x,z) & R[near](x,z))"


def test_no_compilation_order_changes_an_automaton():
    A, phi = Alphabet.of("ab"), parse(MEMO_PHI, NEAR)
    _atom.cache_clear()
    first = formula_dfa(phi, A, ("x",), 0, NEAR)
    for other in ("E y. x = y", "R[last](x) | R[mod[2,1]](x)", "E1 y. y < x & P[b](y)",
                  "E y. E z. y < z & R[near](y,z)"):
        formula_dfa(parse(other, NEAR), A, ("x",), 0, NEAR)
        formula_dfa(parse(other, NEAR), Alphabet.of("abc"), ("x",), 0, NEAR)
    assert formula_dfa(phi, A, ("x",), 0, NEAR) == first
    # one predicate name in two registries: each compiles its own atoms
    far = registry_from_json({"predicates": [{**NEAR_PREDICATE,
                                              "tuples": [[1, 3], [3, 1]]}]})
    _, d_near = formula_dfa(parse("E y. R[near](x,y)", NEAR), A, ("x",), 0, NEAR)
    _, d_far = formula_dfa(parse("E y. R[near](x,y)", NEAR), A, ("x",), 0, far)
    assert d_near != d_far
    assert formula_dfa(parse("E y. R[near](x,y)", NEAR), A, ("x",), 0, NEAR)[1] == d_near
    # built-in atoms read the same under any registry
    plain_phi = parse("E y. (x < y & P[a](y))")
    assert formula_dfa(plain_phi, A, ("x",), 0, far) == \
        formula_dfa(plain_phi, A, ("x",), 0, NEAR)


def test_a_memoized_atom_is_still_refused_under_a_smaller_cap():
    A, phi, small = Alphabet.of("ab"), parse(MEMO_PHI, NEAR), Caps(dfa_states=2)
    _atom.cache_clear()
    with pytest.raises(CapExceeded) as cold:
        formula_dfa(phi, A, ("x",), 0, NEAR, small)
    formula_dfa(phi, A, ("x",), 0, NEAR, DEFAULT)
    with pytest.raises(CapExceeded) as warm:
        formula_dfa(phi, A, ("x",), 0, NEAR, small)
    assert warm.value.info == cold.value.info
    assert warm.value.info["stage"] == "compiled atom"
    assert str(warm.value) == str(cold.value)


def test_the_atom_memo_keeps_to_its_bound():
    bound = _atom.cache_info().maxsize
    names = [f"mod[{q},{r}]" for q in range(1, 20) for r in range(q)]
    assert len(names) > bound
    for name in names:
        formula_dfa(parse(f"R[{name}](x)"), Alphabet.of("a"), ("x",), 0)
    assert _atom.cache_info().currsize <= bound


def test_memoized_atoms_are_immutable_and_shared():
    d = _atom(2, 1, (0,), _ANY, 0, DEFAULT)
    assert d is _atom(2, 1, (0,), _ANY, 0, DEFAULT)
    assert isinstance(d.delta, tuple) and all(isinstance(r, tuple) for r in d.delta)
    assert isinstance(d.accepting, frozenset) and d._minimal
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.delta = ()


def test_a_layer_past_the_state_cap_is_refused_each_time():
    q = registry_from_json({"quantifiers": [{
        "name": "z5", "table": [[(i + j) % 5 for j in range(5)] for i in range(5)],
        "images": [0, 1], "accept": [0]}]}).quantifier("z5")
    A = Alphabet.of("a")
    ext = ExtendedAlphabet(A, ("x",))
    body = formula_dfa(parse("P[a](x)"), A, ("x",), 0)[1]

    def refused():
        with pytest.raises(CapExceeded) as exc:
            compile_layer(q, body, ext, Caps(dfa_states=4))
        assert exc.value.info == {"stage": "quantifier layer", "cap": 4}

    refused()
    # the length mod 5: a cycle of five states
    cycle = compile_layer(q, body, ext)
    assert cycle.delta == tuple(((i + 1) % 5,) for i in range(5))
    assert cycle.accepting == {0} and cycle == count_layer(q, body, A.symbols)
    refused()
    assert compile_layer(q, body, ext, Caps(dfa_states=5)) == cycle


@pytest.mark.parametrize("call", [
    lambda: models(parse("P[a](x)"), Alphabet.of("ab"), -3),
    lambda: counterexample_bounded(parse("P[a](x)"), parse("P[b](x)"),
                                   Alphabet.of("ab"), -3),
    lambda: formula_dfa(parse("P[a](x)"), Alphabet.of("ab"), ("x",), -3),
    lambda: model_table(parse("P[a](x)"), Alphabet.of("ab"), ("x",), -3),
], ids=["models", "counterexample_bounded", "formula_dfa", "model_table"])
def test_a_negative_bound_is_refused(call):
    with pytest.raises(ParseError) as exc:
        call()
    assert exc.value.info == {"bound": -3}
    assert "got -3" in str(exc.value)
