"""Command-line front end.

Every checker and constructor in the library behind one executable:
formula evaluation and bounded model enumeration, atom/substitution/tau
inspection of formula algebras, variable encode/decode, syntactic monoids
and quotient closures, the quantifier-layer compiler, two-sided semidirect
products, the per-module verification suites, and depth fragments.

Exit codes: 0 — computation done / all checks passed; 1 — a property
check failed (a counterexample is printed); 2 — usage errors, malformed
input, or a size cap.  ``--format json`` prints one deterministic JSON
document (schema ``wordlogic/1``) for identical inputs.  Size caps come
from the WORDLOGIC_CAPS environment variable, which only ``main`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys

import wordlogic as wl

from . import caps as _caps
from .errors import ParseError, WordlogicError
from .logic import (DEFAULT_REGISTRY, Quant, counterexample_bounded,
                    formula_dfa, free_vars, letters_of, models, parse,
                    parse_formula_file, registry_from_json, satisfies,
                    split_names, to_dsl)
from .regular import Dfa, FinMonoid, image_dfa, input_monoid, int_array, \
    plain_universe_dfa, quotient_closure, syntactic_stamp, \
    syntactic_stamp_of_family, zero_part_dfa
from .semidirect import Biaction, compile_layer, sdp
from .words import (Alphabet, ExtendedAlphabet, MarkedWord, format_word,
                    parse_marks, parse_word)

SCHEMA = "wordlogic/1"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _alphabet(args) -> Alphabet:
    if not getattr(args, "alphabet", None):
        raise ParseError("--alphabet is required for this command")
    spec = args.alphabet
    alphabet = Alphabet.of(split_names(spec) if "," in spec else spec)
    if not alphabet.symbols:
        raise ParseError(f"--alphabet {spec!r} names no symbols")
    return alphabet


def _json_file(path, what):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"{what} is not JSON: {exc}") from None


def _registry(args):
    path = getattr(args, "registry", None)
    if not path:
        return DEFAULT_REGISTRY
    return registry_from_json(_json_file(path, "registry file"))


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _formulas_of(args, reg, kind="formula") -> list:
    """Formulas from repeated --formula flags and/or a --formulas file (one
    DSL formula per line, # comments); likewise for another ``kind``."""
    out = [parse(f, reg) for f in (getattr(args, kind, None) or ())]
    path = getattr(args, kind + "s", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            out.extend(parse_formula_file(fh.read(), reg))
    if not out:
        raise ParseError(f"no {kind}s given (use --{kind} or --{kind}s)")
    return out


def _one_formula(args, reg):
    phis = _formulas_of(args, reg)
    if len(phis) != 1:
        raise ParseError(f"expected exactly one formula, got {len(phis)}")
    return phis[0]


def _mw_json(mw: MarkedWord) -> dict:
    return {"word": format_word(mw.word), "marks": dict(mw.marks)}


def _dfa_json(dfa: Dfa) -> dict:
    return {"alphabet": list(dfa.alphabet), "states": dfa.n,
            "initial": dfa.init, "accepting": sorted(dfa.accepting),
            "delta": [list(row) for row in dfa.delta]}


def _dfa_from_json(data) -> Dfa:
    try:
        alphabet = tuple(data["alphabet"])
        if not all(isinstance(a, str) for a in alphabet):
            raise ParseError(f"DFA symbols must be strings, got {alphabet!r:.60}")
        return Dfa(alphabet=alphabet,
                   delta=tuple(map(tuple, int_array(
                       data["delta"], 2, "DFA transitions").tolist())),
                   init=int(int_array(data["initial"], 0, "the initial state")),
                   accepting=frozenset(int_array(
                       data["accepting"], 1, "the accepting states").tolist()))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed DFA JSON: {exc}")


def _monoid_json(m: FinMonoid) -> dict:
    return {"size": len(m), "table": [list(r) for r in m.table],
            "identity": m.identity}


def _monoid_from_json(data) -> FinMonoid:
    try:
        return input_monoid(tuple(tuple(r) for r in data["table"]),
                            data.get("identity", 0),
                            tuple(data["names"]) if data.get("names") else None,
                            "sdp input")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed monoid JSON: {exc}")


def _rep_str(word) -> str:
    return format_word(word) if word else "ε"


def _languages_of(args) -> list:
    """DFAs over the one-mark alphabet from --language names (@plain /
    @marked / @zero), --dfa JSON files, and --formula one-variable formulas
    (compiled exactly; --maxlen is only checked to be non-negative)."""
    reg = _registry(args)
    ext = ExtendedAlphabet(_alphabet(args), (args.mark_var,))
    dfas = []
    builtin = {"@plain": plain_universe_dfa, "@marked": image_dfa,
               "@zero": zero_part_dfa}
    for name in getattr(args, "language", None) or ():
        if name not in builtin:
            raise ParseError(f"unknown language name {name!r} "
                             "(builtins: @plain, @marked, @zero)")
        dfas.append(builtin[name](ext))
    for path in getattr(args, "dfa", None) or ():
        dfa = _dfa_from_json(_json_file(path, "DFA file"))
        if tuple(dfa.alphabet) != tuple(ext.symbols):
            raise ParseError(f"DFA file {path} is over {','.join(dfa.alphabet)}, "
                             f"not over {','.join(ext.symbols)}, the one-mark "
                             f"alphabet of --alphabet {args.alphabet}")
        dfas.append(dfa)
    for text in getattr(args, "formula", None) or ():
        phi = parse(text, reg)
        fv = sorted(free_vars(phi))
        if fv and fv != [ext.ctx[0]]:
            raise ParseError(f"language formulas may only use the mark "
                             f"variable {ext.ctx[0]!r}")
        dfas.append(formula_dfa(phi, ext.base, ext.ctx, args.maxlen, reg,
                                args.caps)[1])
    if not dfas:
        raise ParseError("no languages given "
                         "(use --language/--dfa/--formula)")
    return dfas


def _delta_of(args, reg):
    return wl.delta_algebra(_alphabet(args), args.var,
                            _formulas_of(args, reg, "generator"),
                            bound=args.maxlen, registry=reg, caps=args.caps)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    reg = _registry(args)
    phi = _one_formula(args, reg)
    if getattr(args, "alphabet", None):
        A = _alphabet(args)
    elif "{" in args.word:
        raise ParseError("--alphabet is required for extended letters")
    else:
        syms = set(letters_of(phi)) | {c for c in args.word
                                       if c not in ".,ε "}
        A = Alphabet.of(sorted(syms)) if syms else Alphabet.of("a")
    word = parse_word(args.word, A)
    marks = parse_marks(args.marks) if args.marks else ()
    mw = MarkedWord(word, marks)
    value = satisfies(mw, phi, reg)
    _emit(args, {"kind": "eval", "formula": to_dsl(phi),
                 "word": format_word(word), "marks": dict(marks),
                 "value": value},
          ["true" if value else "false"])
    return 0


def cmd_models(args) -> int:
    reg = _registry(args)
    phi = _one_formula(args, reg)
    A = _alphabet(args)
    ctx = split_names(args.vars) if args.vars else None
    hits = sorted(models(phi, A, args.maxlen, ctx, reg, args.caps),
                  key=lambda m: (len(m.word), m.word, m.marks))
    _emit(args, {"kind": "models", "formula": to_dsl(phi),
                 "alphabet": list(A.symbols), "bound": args.maxlen,
                 "count": len(hits), "models": [_mw_json(m) for m in hits]},
          [str(m) for m in hits]
          + [f"-- {len(hits)} models (length <= {args.maxlen})"])
    return 0


def cmd_equiv(args) -> int:
    reg = _registry(args)
    left = parse(args.left, reg)
    right = parse(args.right, reg)
    A = _alphabet(args)
    ctx = split_names(args.vars) if args.vars else None
    cex = counterexample_bounded(left, right, A, args.maxlen, ctx, reg,
                                 args.caps)
    payload = {"kind": "equiv", "left": to_dsl(left), "right": to_dsl(right),
               "alphabet": list(A.symbols), "bound": args.maxlen,
               "equivalent": cex is None,
               "counterexample": _mw_json(cex) if cex is not None else None}
    if cex is None:
        _emit(args, payload,
              [f"equivalent on all words of length <= {args.maxlen}"])
        return 0
    _emit(args, payload, [f"differ on {cex}"])
    return 1


def cmd_atoms(args) -> int:
    reg = _registry(args)
    delta = _delta_of(args, reg)
    syms = delta.atom_alphabet().symbols
    _emit(args, {"kind": "atoms", "alphabet": list(delta.alphabet),
                 "var": delta.var, "bound": delta.bound,
                 "atom_count": delta.atom_count,
                 "atoms": [{"symbol": s, "formula": to_dsl(f)}
                           for s, f in zip(syms, delta.atom_formulas)]},
          [f"{s}: {to_dsl(f)}"
           for s, f in zip(syms, delta.atom_formulas)]
          + [f"-- {delta.atom_count} atoms"])
    return 0


def cmd_substitute(args) -> int:
    reg = _registry(args)
    delta = _delta_of(args, reg)
    psi = parse(args.sentence, reg)
    out = wl.sigma(delta, psi)
    _emit(args, {"kind": "substitute", "sentence": to_dsl(psi),
                 "result": to_dsl(out)},
          [to_dsl(out)])
    return 0


def cmd_tau(args) -> int:
    reg = _registry(args)
    delta = _delta_of(args, reg)
    word = parse_word(args.word, delta.alphabet)
    image = wl.tau_word(delta, word)
    _emit(args, {"kind": "tau", "word": format_word(word),
                 "image": list(image)},
          [".".join(image) if image else "ε"])
    return 0


def cmd_codec(args) -> int:
    """``encode`` or ``decode``, as the command is named."""
    reg = _registry(args)
    phi = _one_formula(args, reg)
    A = _alphabet(args)
    prior = split_names(args.prior) if args.prior else ()
    out = getattr(wl, args.command)(phi, args.var, A, prior)
    _emit(args, {"kind": args.command, "formula": to_dsl(phi),
                 "var": args.var, "prior": list(prior),
                 "result": to_dsl(out)},
          [to_dsl(out)])
    return 0


def _stamp_payload(stamp) -> dict:
    return {"monoid": _monoid_json(stamp.monoid),
            "letters": {s: stamp.letters[i]
                        for i, s in enumerate(stamp.alphabet)},
            "reps": [_rep_str(r) for r in stamp.reps],
            "accepting": sorted(stamp.accepting)
            if stamp.accepting is not None else None}


def _stamp_lines(stamp) -> list:
    reps = [_rep_str(r) for r in stamp.reps]
    width = max(len(r) for r in reps)
    lines = [f"syntactic monoid: {len(stamp.monoid)} elements "
             f"(identity {reps[stamp.monoid.identity]})"]
    head = " " * (width + 2) + "  ".join(r.ljust(width) for r in reps)
    lines.append(head)
    for i, row in enumerate(stamp.monoid.table):
        lines.append(reps[i].ljust(width + 2)
                     + "  ".join(reps[j].ljust(width) for j in row))
    lines.append("letters: "
                 + "  ".join(f"{s}->{reps[stamp.letters[i]]}"
                             for i, s in enumerate(stamp.alphabet)))
    if stamp.accepting is not None:
        lines.append("accepting: {"
                     + ", ".join(reps[i] for i in sorted(stamp.accepting))
                     + "}")
    return lines


def cmd_synmon(args) -> int:
    if args.marked_universe:
        args.language = list(args.language or ()) + ["@marked"]
    dfas = _languages_of(args)
    if len(dfas) == 1:
        stamp = syntactic_stamp(dfas[0], args.caps)
    else:
        stamp = syntactic_stamp_of_family(dfas, args.caps)
    _emit(args, {"kind": "stamp", "alphabet": list(stamp.alphabet),
                 **_stamp_payload(stamp)},
          _stamp_lines(stamp))
    return 0


def cmd_quotient_closure(args) -> int:
    dfas = _languages_of(args)
    ba = quotient_closure(dfas, args.caps)
    reps = [_rep_str(r) for r in ba.stamp.reps]
    block_reps = [min((reps[i] for i in sorted(b)), key=len)
                  for b in ba.blocks]
    _emit(args, {"kind": "quotient-closure",
                 "alphabet": list(ba.alphabet),
                 "atom_count": len(ba.blocks),
                 "element_count": ba.element_count(),
                 "monoid": _monoid_json(ba.stamp.monoid),
                 "blocks": [sorted(b) for b in ba.blocks],
                 "block_reps": block_reps},
          [f"quotient closure: {len(ba.blocks)} atoms, "
           f"{ba.element_count()} elements, "
           f"syntactic monoid of size {len(ba.stamp.monoid)}"]
          + [f"  atom {i}: class of {r}"
             for i, r in enumerate(block_reps)])
    return 0


def cmd_compile(args) -> int:
    reg = _registry(args)
    phi = _one_formula(args, reg)
    if not isinstance(phi, Quant):
        raise ParseError("compile expects an outer quantifier (Q x. ...)")
    A = _alphabet(args)
    quant = reg.quantifier(phi.q)
    ext, body_dfa = formula_dfa(phi.body, A, (phi.var,), args.maxlen, reg,
                                args.caps)
    out = compile_layer(quant, body_dfa, ext, args.caps)
    _emit(args, {"kind": "dfa", "formula": to_dsl(phi), **_dfa_json(out)},
          [f"DFA over {'.'.join(out.alphabet)}: {out.n} states, "
           f"initial {out.init}, accepting {sorted(out.accepting)}"]
          + [f"  {q}: " + "  ".join(f"{a}->{out.delta[q][i]}"
                                    for i, a in enumerate(out.alphabet))
             for q in range(out.n)])
    return 0


def cmd_sdp(args) -> int:
    data = _json_file(args.input, "sdp input")
    try:
        smon = _monoid_from_json(data["S"])
        mmon = _monoid_from_json(data["M"])
        left = tuple(tuple(r) for r in data["lambda"])
        right = tuple(tuple(r) for r in data["rho"])
    except KeyError as exc:
        raise ParseError(f"sdp input lacks {exc}")
    except TypeError as exc:
        raise ParseError(f"malformed sdp input: {exc}")
    bia = Biaction(mmon=mmon, smon=smon, left=left, right=right)
    prod = sdp(smon, mmon, bia, args.caps)
    _emit(args, {"kind": "sdp", "S": _monoid_json(smon),
                 "M": _monoid_json(mmon),
                 "lambda": [list(r) for r in bia.left],
                 "rho": [list(r) for r in bia.right],
                 "pairs": [list(p) for p in prod.pairs],
                 "table": [list(r) for r in prod.monoid.table],
                 "identity": prod.monoid.identity},
          [f"semidirect product: {len(prod.pairs)} elements "
           f"(S {len(smon)} x M {len(mmon)}), identity "
           f"{prod.pairs[prod.monoid.identity]}"])
    return 0


def cmd_verify(args) -> int:
    reg = _registry(args)
    A = _alphabet(args)
    reports = wl.run_suite(args.suite, A, args.maxlen, args.seed,
                           reg if args.registry else None, args.caps)
    payload = {"kind": "verify", "suite": args.suite,
               "alphabet": list(A.symbols),
               "maxlen": args.maxlen, "seed": args.seed,
               "passed": all(r.passed for r in reports),
               "reports": [r.to_dict() for r in reports]}
    _emit(args, payload,
          [r.line() for r in reports]
          + [f"-- {sum(r.passed for r in reports)}/{len(reports)} checks "
             f"passed"])
    return 0 if all(r.passed for r in reports) else 1


def cmd_depth_fragment(args) -> int:
    reg = _registry(args)
    A = _alphabet(args)
    spec = wl.FragmentSpec(A, split_names(args.quantifiers),
                           split_names(args.predicates) if args.predicates
                           else (), args.depth, args.maxlen)
    result = wl.depth_fragment(spec, reg, args.caps)
    payload = wl.dump_fragment(result)
    exit_code = 0
    if args.check:
        direct = wl.depth_direct(spec, reg, args.caps)
        agree = wl.same_language_algebra(result.ba, direct)
        payload["direct_agreement"] = agree
        if not agree:
            exit_code = 1
    lines = [f"depth-{spec.depth} fragment over "
             f"{''.join(A.symbols)} with Q={{{args.quantifiers}}}"
             + (f", N={{{args.predicates}}}" if args.predicates else "")
             + f": {payload['atoms']} atoms"]
    for g in payload["generators"]:
        lang = g["language"]
        shown = ", ".join(w if w else "ε" for w in lang[:8])
        if len(lang) > 8:
            shown += ", ..."
        lines.append(f"  {g['formula']}   [{shown}]")
    if args.check:
        lines.append("direct enumeration agrees"
                     if payload["direct_agreement"]
                     else "MISMATCH against direct enumeration")
    _emit(args, payload, lines)
    return exit_code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(p, fmt=True, registry=True):
    if fmt:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (json is the machine contract)")
    if registry:
        p.add_argument("--registry", metavar="FILE",
                       help="JSON file declaring extra quantifiers and "
                            "numerical predicates")


def _add_formula_inputs(p):
    p.add_argument("--formula", action="append", metavar="DSL",
                   help="formula text (repeatable)")
    p.add_argument("--formulas", metavar="FILE",
                   help="file with one formula per line (# comments)")


def _add_delta_inputs(p):
    p.add_argument("--generator", action="append", metavar="DSL",
                   help="generator formula of the algebra (repeatable)")
    p.add_argument("--generators", metavar="FILE",
                   help="file with one generator formula per line")
    p.add_argument("--alphabet", required=True,
                   help="base alphabet, e.g. 'ab' or 'aa,bb'")
    p.add_argument("--var", default="x", help="the marked variable")
    p.add_argument("--maxlen", "-L", type=int, default=6,
                   help="word-length bound")


def _add_language_inputs(p):
    p.add_argument("--language", action="append", metavar="NAME",
                   help="builtin language over the one-mark alphabet: "
                        "@plain, @marked, or @zero (repeatable)")
    p.add_argument("--dfa", action="append", metavar="FILE",
                   help="DFA JSON file (repeatable)")
    p.add_argument("--formula", action="append", metavar="DSL",
                   help="one-variable formula, compiled exactly to its "
                        "automaton (repeatable)")
    p.add_argument("--alphabet", required=True, help="base alphabet")
    p.add_argument("--mark-var", default="x", help="the mark variable")
    p.add_argument("--maxlen", "-L", type=int, default=6,
                   help="accepted for compatibility: formula languages do "
                        "not depend on it (must be non-negative)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wordlogic",
        description="logic on words at desk scale: formulas, algebras, "
                    "recognizers, and their cross-checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="truth of a formula on one marked word")
    _add_formula_inputs(p)
    p.add_argument("--word", required=True, help="the word, e.g. ab or a{x}b")
    p.add_argument("--marks", help="positions of free variables, e.g. x=2")
    p.add_argument("--alphabet", help="alphabet (inferred when omitted)")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("models", help="all bounded models of a formula")
    _add_formula_inputs(p)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--maxlen", "-L", type=int, default=6)
    p.add_argument("--vars", help="context variables, e.g. x,y "
                                  "(default: the free variables)")
    _add_common(p)
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("equiv", help="bounded equivalence of two formulas")
    p.add_argument("left", help="first formula")
    p.add_argument("right", help="second formula")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--maxlen", "-L", type=int, default=6)
    p.add_argument("--vars", help="context variables")
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("atoms", help="atoms of a one-variable formula "
                                     "algebra")
    _add_delta_inputs(p)
    _add_common(p)
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("substitute",
                       help="substitute atom formulas into a sentence over "
                            "the atom alphabet")
    _add_delta_inputs(p)
    p.add_argument("--sentence", required=True,
                   help="sentence over the atom letters c0, c1, ...")
    _add_common(p)
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("tau", help="atom image of a word under a formula "
                                   "algebra")
    _add_delta_inputs(p)
    p.add_argument("--word", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_tau)

    for name, helptext in (("encode", "push one free variable into the "
                                      "letters"),
                           ("decode", "pull one encoded variable back out "
                                      "of the letters")):
        p = sub.add_parser(name, help=helptext)
        _add_formula_inputs(p)
        p.add_argument("--var", required=True, help="the variable")
        p.add_argument("--alphabet", required=True, help="base alphabet")
        p.add_argument("--prior", help="variables already encoded, e.g. y,z")
        _add_common(p)
        p.set_defaults(func=cmd_codec)

    p = sub.add_parser("synmon", help="syntactic monoid of languages over "
                                      "the one-mark alphabet")
    _add_language_inputs(p)
    p.add_argument("--marked-universe", action="store_true",
                   help="shorthand for --language @marked")
    _add_common(p)
    p.set_defaults(func=cmd_synmon)

    p = sub.add_parser("quotient-closure",
                       help="Boolean-and-quotient closure of languages")
    _add_language_inputs(p)
    _add_common(p)
    p.set_defaults(func=cmd_quotient_closure)

    p = sub.add_parser("compile",
                       help="compile one quantifier layer to a DFA over "
                            "the base alphabet")
    _add_formula_inputs(p)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--maxlen", "-L", type=int, default=6,
                   help="accepted for compatibility: the body is compiled "
                        "exactly (must be non-negative)")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("sdp", help="two-sided semidirect product from a "
                                   "JSON description")
    p.add_argument("--input", required=True,
                   help="JSON file {S, M, lambda, rho}")
    _add_common(p, registry=False)
    p.set_defaults(func=cmd_sdp)

    p = sub.add_parser("verify", help="run a module's invariant suite")
    p.add_argument("--suite", required=True,
                   choices=("words", "finba", "logic", "substitution",
                            "varcode", "semidirect", "layers", "all"))
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--maxlen", "-L", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("depth-fragment",
                       help="the algebra of sentences of bounded "
                            "quantifier depth")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--quantifiers", required=True,
                   help="comma list, e.g. E,mod[2,0]")
    p.add_argument("--predicates", help="comma list, e.g. <,succ")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--maxlen", "-L", type=int, default=6)
    p.add_argument("--check", action="store_true",
                   help="also run the direct enumeration and compare")
    _add_common(p)
    p.set_defaults(func=cmd_depth_fragment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.caps = _caps.from_env()
        return args.func(args)
    except WordlogicError as exc:
        info = {k: v for k, v in exc.info.items()
                if isinstance(v, (str, int, float, bool, type(None)))}
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, "error": {
                "code": exc.code, "message": str(exc), "info": info}},
                sort_keys=True, indent=2))
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
