#!/usr/bin/env python3
"""Walk through the two-sided recognizer construction on one instance.

Builds a quotient-closed algebra of marked-word languages, splits it into
its plain / one-mark / sink parts, forms the pairing quotient against a
chosen finite monoid, and checks that the induced morphism recognizes
exactly the languages assembled from transfer classes and plain cells.
"""

import argparse
import sys

from wordlogic import (
    Alphabet,
    DEFAULT_REGISTRY,
    ExtendedAlphabet,
    decompose,
    formula_dfa,
    parse,
    quotient_closure,
    verify_recognizer,
)
from wordlogic.regular import image_dfa, named_monoid
from wordlogic.semidirect import eta_quotient, h_morphism


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabet", default="ab")
    ap.add_argument("--formula", default="P[a](x)",
                    help="one-variable formula whose language seeds the "
                         "algebra")
    ap.add_argument("--monoid", default="Z2",
                    choices=["trivial", "U1", "Z2", "Z3"],
                    help="finite monoid acting as the quantifier image")
    ap.add_argument("--maxlen", type=int, default=5)
    args = ap.parse_args(argv)

    A = Alphabet.of(args.alphabet)
    ext = ExtendedAlphabet(A, ("x",))
    reg = DEFAULT_REGISTRY

    phi = parse(args.formula, reg)
    _, phi_dfa = formula_dfa(phi, A, ("x",), args.maxlen, reg)
    ba = quotient_closure([phi_dfa, image_dfa(ext)])
    print(f"algebra: {len(ba.blocks)} atoms, {ba.element_count()} elements "
          f"over the one-mark alphabet of {'.'.join(A.symbols)}")

    dd = decompose(ba, ext)
    print(f"decomposition: plain monoid of size {len(dd.m_mon)}, "
          f"{len(dd.t_blocks)} marked class letter(s), "
          f"{len(dd.z_elems)} sink element(s)")

    nv = named_monoid(args.monoid)
    etaq = eta_quotient(dd, nv)
    print(f"pairing quotient: {len(etaq.s_mon)} elements against "
          f"{args.monoid} (size {len(nv)})")

    hm = h_morphism(etaq)
    print("pair morphism on sample words:")
    for w in [(), (A.symbols[0],), (A.symbols[0], A.symbols[-1]),
              tuple(A.symbols[0] for _ in range(3))]:
        print(f"  h({'.'.join(w) if w else 'ε'}) = {hm.h(w)}")

    report = verify_recognizer(dd, nv)
    print(report.line())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
