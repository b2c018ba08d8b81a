"""Size caps.

Everything here is exact computation on finite structures; the caps exist so
that a formula or algebra that is too big fails loudly instead of grinding.
Library calls take a ``Caps`` argument, ``DEFAULT`` unless given, and never
read the environment.  The command line reads the WORDLOGIC_CAPS variable
once (``from_env``) and passes the result to every call, e.g.

    WORDLOGIC_CAPS="monoid=30000,dfa_states=100000"

An unknown key or a value that is not an integer is a ParseError.
"""

import os
from dataclasses import dataclass, fields, replace

from .errors import ParseError


@dataclass(frozen=True)
class Caps:
    finba_atoms: int = 4096          # atoms of a generated finite BA
    finba_elements: int = 1 << 20    # explicit element enumeration guard
    monoid: int = 20000              # elements of a generated finite monoid
    dfa_states: int = 50000          # states of any constructed DFA
    sdp_elements: int = 1024         # |S x M| of a materialized semidirect product
    hom_count: int = 20000           # morphisms C* -> N_V enumerated for eta
    enumeration: int = 2_000_000     # words, marked words or scope transitions per call
    sentence_budget: int = 8192      # quantifier bodies per layer enumeration


DEFAULT = Caps()

_ENV = "WORDLOGIC_CAPS"


def from_env(base: Caps = DEFAULT) -> Caps:
    """Caps with overrides parsed from WORDLOGIC_CAPS."""
    raw = os.environ.get(_ENV, "")
    names = {f.name for f in fields(Caps)}
    updates = {}
    for part in raw.split(","):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        key, val = key.strip(), val.strip()
        if key not in names:
            raise ParseError(f"{_ENV}: unknown cap {key!r} (caps: "
                             f"{', '.join(sorted(names))})", key=key)
        try:
            updates[key] = int(val)
        except ValueError:
            raise ParseError(f"{_ENV}: the value of {key} must be an integer, "
                             f"got {val!r}", key=key, value=val) from None
    return replace(base, **updates)
