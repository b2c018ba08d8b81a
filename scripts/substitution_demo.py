#!/usr/bin/env python3
"""Demonstrate the substitution correspondence on a letter algebra.

Builds the algebra of position classes induced by generator formulas,
spells a few words in its atom letters, substitutes the atom letters of a
sentence back into formulas over the base alphabet, and verifies that the
two routes define the same language at the bound.  Then it pulls the
atom-word language "some position is c0" back through the position
transduction to an exact automaton over the base alphabet, and compares
that automaton with the atom words of every word up to the bound.
"""

import argparse
import sys

from wordlogic import (
    Alphabet,
    DEFAULT_REGISTRY,
    Dfa,
    parse,
    to_dsl,
)
from wordlogic.substitution import (
    check_substitution_principle,
    delta_algebra,
    sigma,
    tau_word,
    w_odot_c,
)
from wordlogic.words import enumerate_words, format_word


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabet", default="ab")
    ap.add_argument("--generator", action="append",
                    help="generator formula with free variable x "
                         "(repeatable; default P[a](x))")
    ap.add_argument("--sentence", default="E z. P[c0](z)",
                    help="sentence over the atom letters c0, c1, ...")
    ap.add_argument("--maxlen", type=int, default=5)
    args = ap.parse_args(argv)

    A = Alphabet.of(args.alphabet)
    reg = DEFAULT_REGISTRY
    gens = [parse(g, reg) for g in (args.generator or ["P[a](x)"])]

    delta = delta_algebra(A, "x", gens, bound=args.maxlen, registry=reg)
    print(f"atoms of the algebra ({delta.atom_count}):")
    for sym, phi in zip(delta.atom_alphabet(), delta.atom_formulas):
        print(f"  {sym}: {to_dsl(phi)}")

    print("words spelled in atom letters:")
    for w in list(enumerate_words(A, 3))[:8]:
        spelled = tau_word(delta, w)
        print(f"  {format_word(w) if w else 'ε'} -> "
              f"{format_word(spelled) if spelled else 'ε'}")

    psi = parse(args.sentence, reg)
    back = sigma(delta, psi)
    print(f"substituted sentence: {to_dsl(psi)}  ->  {to_dsl(back)}")

    report = check_substitution_principle(delta, psi, bound=args.maxlen,
                                          registry=reg)
    print(report.line())

    syms = delta.atom_alphabet().symbols
    some_c0 = Dfa(syms, (tuple(int(i == 0) for i in range(len(syms))),
                         (1,) * len(syms)), 0, frozenset({1}))
    pre = w_odot_c([some_c0], delta).preimages[0]
    words = list(enumerate_words(A, args.maxlen))
    agrees = all(pre.accepts(w) == ("c0" in tau_word(delta, w)) for w in words)
    print(f"preimage of 'some position is c0': {pre.n} states over "
          f"{'.'.join(pre.alphabet)}, "
          f"{'agrees' if agrees else 'DISAGREES'} with the atom words of all "
          f"{len(words)} words of length <= {args.maxlen}")
    return 0 if report.passed and agrees else 1


if __name__ == "__main__":
    sys.exit(main())
