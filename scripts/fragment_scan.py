#!/usr/bin/env python3
"""Scan quantifier-depth fragments and report how the atoms grow.

For each depth up to the requested limit, builds the algebra of languages
definable with sentences of that quantifier depth and prints its atom
count together with one defining sentence per kept generator.  With
--json the final fragment is dumped in the wordlogic/1 schema.
"""

import argparse
import json
import sys

from wordlogic import Alphabet, depth_fragment, dump_fragment, to_dsl
from wordlogic.layers import FragmentSpec
from wordlogic.logic import split_names


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabet", default="ab")
    ap.add_argument("--quantifiers", default="E",
                    help="comma-separated quantifier names, e.g. "
                         "'E,mod[2,0]'")
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--maxlen", type=int, default=6)
    ap.add_argument("--json", action="store_true",
                    help="dump the deepest fragment as JSON")
    args = ap.parse_args(argv)

    A = Alphabet.of(args.alphabet)
    qs = split_names(args.quantifiers)

    last = None
    for depth in range(args.depth + 1):
        spec = FragmentSpec(A, qs, depth=depth, bound=args.maxlen)
        result = depth_fragment(spec)
        last = result
        print(f"depth {depth}: {len(result.ba.atoms)} atoms, "
              f"{len(result.formulas)} defining sentences")
        for phi in result.formulas[:6]:
            text = to_dsl(phi)
            if len(text) > 100:
                text = text[:97] + "..."
            print(f"  {text}")
        if len(result.formulas) > 6:
            print(f"  ... and {len(result.formulas) - 6} more")

    if args.json and last is not None:
        print(json.dumps(dump_fragment(last), sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
