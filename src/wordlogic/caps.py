"""Size caps.

Everything here is exact computation on finite structures; the caps exist so
that a formula or algebra that is too big fails loudly instead of grinding.
Override any field via the WORDLOGIC_CAPS environment variable, e.g.

    WORDLOGIC_CAPS="monoid=30000,dfa_states=100000"

A value that is not an integer is refused with a ParseError.
"""

import os
from dataclasses import dataclass, replace

from .errors import ParseError


@dataclass(frozen=True)
class Caps:
    finba_atoms: int = 4096          # atoms of a generated finite BA
    finba_elements: int = 1 << 20    # explicit element enumeration guard
    monoid: int = 20000              # elements of a generated finite monoid
    monoid_assoc: int = 1024         # exhaustive associativity check size
    dfa_states: int = 50000          # states of any constructed DFA
    sdp_elements: int = 1024         # |S x M| of a materialized semidirect product
    hom_count: int = 20000           # morphisms C* -> N_V enumerated for eta
    enumeration: int = 2_000_000     # words/marked words enumerated in one call
    sentence_budget: int = 8192      # quantifier bodies per layer enumeration


DEFAULT = Caps()

_ENV = "WORDLOGIC_CAPS"


def from_env(base: Caps = DEFAULT) -> Caps:
    """Caps with overrides parsed from WORDLOGIC_CAPS (ignores unknown keys)."""
    raw = os.environ.get(_ENV, "")
    if not raw.strip():
        return base
    updates = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if hasattr(base, key):
            try:
                updates[key] = int(val)
            except ValueError:
                raise ParseError(f"{_ENV}: the value of {key} must be an integer, "
                                 f"got {val.strip()!r}", key=key, value=val.strip()) from None
    return replace(base, **updates) if updates else base
