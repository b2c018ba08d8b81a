"""Finite Boolean algebras presented by atom partitions."""

import pytest
from hypothesis import given, strategies as st

from wordlogic import (
    Alphabet,
    CapExceeded,
    MarkedWord,
    ParseError,
    enumerate_marked,
    parse,
    satisfies,
)
from wordlogic import finba
from wordlogic.caps import Caps, DEFAULT


def test_single_generator_splits_the_carrier():
    ba = finba.generate((1, 2, 3), [frozenset({1})])
    assert set(ba.atoms) == {frozenset({1}), frozenset({2, 3})}
    assert ba.element_count() == 4


def test_no_generators_gives_the_trivial_algebra():
    ba = finba.generate((1, 2, 3), [])
    assert ba.atoms == (frozenset({1, 2, 3}),)
    assert ba.element_count() == 2
    assert set(ba.elements()) == {frozenset(), frozenset({1, 2, 3})}


def test_formula_generator_over_marked_words():
    A = Alphabet.of("ab")
    carrier = tuple(enumerate_marked(A, ("x",), 3))
    phi = parse("P[a](x)")
    lang = frozenset(m for m in carrier if satisfies(m, phi))
    ba = finba.generate(carrier, [lang])
    assert len(ba.atoms) == 2
    assert lang in set(ba.elements())


def test_generator_must_be_inside_the_carrier():
    with pytest.raises(ParseError, match="not a subset of the carrier"):
        finba.generate((1, 2), [frozenset({3})])


def test_top_bottom_and_membership():
    ba = finba.generate("abcd", [frozenset("ab")])
    assert ba.top == frozenset("abcd")
    assert ba.member(frozenset())
    assert ba.member(frozenset("ab"))
    assert ba.member(frozenset("abcd"))
    assert not ba.member(frozenset("b"))  # cuts the atom {a,b}
    assert not ba.member(frozenset("xy"))  # escapes the carrier
    assert all(ba.member(a) for a in ba.atoms)


def test_atom_lookup():
    ba = finba.generate((1, 2, 3), [frozenset({1})])
    assert ba.atom_of(2) == frozenset({2, 3})
    assert ba.atoms[ba.atom_index_of(1)] == frozenset({1})
    with pytest.raises(ParseError):
        ba.atom_index_of(99)


def test_mask_roundtrip_and_nonelements():
    ba = finba.generate((1, 2, 3, 4), [frozenset({1, 2})])
    for mask in range(ba.element_count()):
        s = ba.element_from_mask(mask)
        assert ba.mask_of(s) == mask
        assert ba.member(s)
    with pytest.raises(ParseError):
        ba.mask_of(frozenset({1}))  # properly inside the atom {1,2}


@given(st.lists(st.frozensets(st.integers(min_value=0, max_value=7)),
                max_size=6))
def test_generate_then_regenerate_from_atoms_is_identity(gens):
    carrier = tuple(range(8))
    gens = [g & set(carrier) for g in gens]
    ba = finba.generate(carrier, gens)
    again = finba.generate(carrier, list(ba.atoms))
    assert again == ba
    # every generator is an element of the algebra it generated
    assert all(ba.member(g) for g in gens)


@given(st.lists(st.frozensets(st.integers(min_value=0, max_value=5)),
                max_size=4))
def test_elements_are_closed_under_boolean_operations(gens):
    carrier = tuple(range(6))
    gens = [g & set(carrier) for g in gens]
    ba = finba.generate(carrier, gens)
    elems = list(ba.elements())
    for x in elems[:8]:
        assert ba.member(ba.top - x)
        for y in elems[:8]:
            assert ba.member(x | y)
            assert ba.member(x & y)


def test_atom_cap_is_enforced():
    tight = Caps(**{**DEFAULT.__dict__, "finba_atoms": 2})
    with pytest.raises(CapExceeded):
        finba.generate((1, 2, 3), [frozenset({1}), frozenset({2})], tight)


# ---------------------------------------------------------------------------
# inclusions and their duals


def _pair():
    carrier = tuple(range(6))
    small = finba.generate(carrier, [frozenset({0, 1, 2})])
    big = finba.generate(carrier, [frozenset({0, 1, 2}), frozenset({0, 3})])
    return small, big


def test_subalgebra_detection():
    small, big = _pair()
    assert finba.is_subalgebra(small, big)
    assert not finba.is_subalgebra(big, small)
    other = finba.generate(tuple(range(5)), [])
    assert not finba.is_subalgebra(other, big)  # different carriers


def test_dual_of_inclusion_maps_atoms_onto_atoms():
    small, big = _pair()
    zeta = finba.dual_of_inclusion(small, big)
    assert len(zeta) == len(big.atoms)
    for bi, si in enumerate(zeta):
        assert big.atoms[bi] <= small.atoms[si]
    assert set(zeta) == set(range(len(small.atoms)))  # surjective
    assert finba.check_adjunction(small, big, zeta)


def test_dual_of_identity_inclusion_is_identity():
    small, _ = _pair()
    zeta = finba.dual_of_inclusion(small, small)
    assert list(zeta) == list(range(len(small.atoms)))


def test_common_refinement():
    carrier = tuple(range(4))
    p1 = finba.generate(carrier, [frozenset({0, 1})])
    p2 = finba.generate(carrier, [frozenset({0, 2})])
    ref = finba.common_refinement(carrier, [p1.atoms, p2.atoms])
    assert set(ref.atoms) == {frozenset({0}), frozenset({1}),
                              frozenset({2}), frozenset({3})}
    assert finba.is_subalgebra(p1, ref)
    assert finba.is_subalgebra(p2, ref)
