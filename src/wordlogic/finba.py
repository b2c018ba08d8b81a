"""Finite Boolean algebras of subsets of an explicit carrier.

A FinBA is stored by its atom partition; the elements are exactly the
unions of atoms (2^#atoms of them), enumerated only on demand and under a
cap.  Atoms are ordered by their earliest carrier point, so the atom list
is deterministic for a fixed carrier enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import caps as _caps
from .errors import CapExceeded, ParseError


@dataclass(frozen=True)
class FinBA:
    carrier: tuple
    atoms: tuple  # tuple[frozenset], a partition of set(carrier)

    def __post_init__(self):
        seen = set()
        for a in self.atoms:
            if not a:
                raise ParseError("empty atom")
            if a & seen:
                raise ParseError("atoms overlap")
            seen |= a
        if seen != set(self.carrier):
            raise ParseError("atoms do not cover the carrier")

    # -- basic structure ----------------------------------------------------

    @property
    def top(self) -> frozenset:
        return frozenset(self.carrier)

    def atom_index_of(self, point) -> int:
        for i, a in enumerate(self.atoms):
            if point in a:
                return i
        raise ParseError(f"point {point!r} not in carrier")

    def atom_of(self, point) -> frozenset:
        return self.atoms[self.atom_index_of(point)]

    def member(self, s) -> bool:
        """Is the subset an element of the algebra (a union of atoms)?"""
        s = frozenset(s)
        if not s <= self.top:
            return False
        return all(not (a & s) or a <= s for a in self.atoms)

    def element_count(self) -> int:
        return 1 << len(self.atoms)

    def elements(self, caps: _caps.Caps = _caps.DEFAULT):
        """All 2^#atoms elements, in subset-of-atom-list counter order."""
        if self.element_count() > caps.finba_elements:
            raise CapExceeded(
                f"2^{len(self.atoms)} elements exceed the enumeration cap",
                stage="algebra elements", size=self.element_count(),
                cap=caps.finba_elements,
            )
        for mask in range(1 << len(self.atoms)):
            yield self.element_from_mask(mask)

    def element_from_mask(self, mask) -> frozenset:
        out = set()
        for i, a in enumerate(self.atoms):
            if mask >> i & 1:
                out |= a
        return frozenset(out)

    def mask_of(self, s) -> int:
        """Atom mask of an element (ParseError if s is not an element)."""
        s = frozenset(s)
        mask = 0
        for i, a in enumerate(self.atoms):
            inter = a & s
            if inter == a:
                mask |= 1 << i
            elif inter:
                raise ParseError("subset is not an element of the algebra")
        if self.element_from_mask(mask) != s:
            raise ParseError("subset is not an element of the algebra")
        return mask


def partition(carrier, keys, caps: _caps.Caps = _caps.DEFAULT) -> tuple:
    """The algebra whose atoms are the points of the carrier grouped by their
    keys (one hashable key per point, aligned with the carrier), ordered by
    earliest point.  Returns the FinBA and the key of each atom."""
    carrier = tuple(carrier)
    cells = {}
    for p, key in zip(carrier, keys):
        cells.setdefault(key, []).append(p)
    check_atoms(len(cells), caps)
    return FinBA(carrier, tuple(map(frozenset, cells.values()))), tuple(cells)


def check_atoms(count: int, caps: _caps.Caps, stage="algebra atoms"):
    """Refuse ``count`` atoms over the atom cap with CapExceeded naming the
    stage, the count and the cap."""
    if count > caps.finba_atoms:
        raise CapExceeded(f"{count} atoms exceed the atom cap", stage=stage,
                          size=count, cap=caps.finba_atoms)


def generate(carrier, gens, caps: _caps.Caps = _caps.DEFAULT) -> FinBA:
    """The Boolean subalgebra of P(carrier) generated by the given subsets.

    Atoms are the nonempty cells of the common refinement (points grouped by
    their generator-membership signature).
    """
    carrier = tuple(carrier)
    points = set(carrier)
    if len(points) != len(carrier):
        raise ParseError("carrier has repeated points")
    gens = [frozenset(g) for g in gens]
    for g in gens:
        if not g <= points:
            raise ParseError("generator not a subset of the carrier")
    return partition(carrier, (tuple(p in g for g in gens) for p in carrier),
                     caps)[0]


def is_subalgebra(small: FinBA, big: FinBA) -> bool:
    """Every element of ``small`` is an element of ``big`` (same carrier)."""
    if tuple(small.carrier) != tuple(big.carrier):
        return False
    return all(any(b <= a for a in small.atoms) for b in big.atoms)


def dual_of_inclusion(small: FinBA, big: FinBA) -> tuple:
    """The dual of the inclusion small -> big: the surjection sending each
    atom of the bigger algebra to the unique atom of the smaller one that
    contains it.  Returned as a tuple t with t[i] = index in small.atoms of
    the atom containing big.atoms[i].
    """
    if not is_subalgebra(small, big):
        raise ParseError("dual_of_inclusion needs small ⊆ big over one carrier")
    out = []
    for b in big.atoms:
        for j, a in enumerate(small.atoms):
            if b <= a:
                out.append(j)
                break
    return tuple(out)


def check_adjunction(small: FinBA, big: FinBA, dual) -> bool:
    """At(h)(a) <= x  iff  a <= h(x), for h the inclusion: for every atom a
    of big and every atom-generated element x of small."""
    for i, b in enumerate(big.atoms):
        mapped = small.atoms[dual[i]]
        for x in small.atoms:
            if (mapped <= x) != (b <= x):
                return False
    return True


def common_refinement(carrier, partitions, caps: _caps.Caps = _caps.DEFAULT) -> FinBA:
    """FinBA whose atoms are the nonempty intersections of one block from
    each partition (the BA generated by all the blocks)."""
    gens = [blk for part in partitions for blk in part]
    return generate(carrier, gens, caps)
