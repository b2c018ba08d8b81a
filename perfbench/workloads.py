"""Seeded job lists for the three workloads, the calls each job makes into
``wordlogic``, and the checks on each job's output.

Inputs are made here from the seed with the benchmark's own generator, so
``wordlogic`` receives only finished inputs (formula text, alphabets and
automata).  Each job is one ``run()`` whose whole duration is timed; its
``check(output)`` runs afterwards, untimed, and returns None or a witness.
"""

import itertools

import numpy as np

from evaluator import (dfa_acceptance, evaluate, from_text, quantifier_holds,
                       sentence_truth, to_text, words_array)

MONOID_QUANTIFIERS = ("E", "E1", "mod[2,0]", "mod[2,1]", "mod[3,0]")
PREDICATES = (("<", 2), ("=", 2), ("succ", 2), ("first", 1), ("last", 1))
TARGETS = ("trivial", "U1", "Z2", "Z3")


# ---------------------------------------------------------------------------
# formula generator (the shape of the program's acceptance-test sampler)


def random_formula(rng, letters, scope, depth, quantifiers, fresh):
    if depth == 0:
        if not scope:
            return ("T",) if rng.random() < 0.5 else ("F",)
        if rng.random() < 0.55:
            return ("P", rng.choice(letters), rng.choice(scope))
        name, arity = rng.choice(PREDICATES)
        return ("N", name, tuple(rng.choice(scope) for _ in range(arity)))
    roll = rng.random()
    if roll < 0.35:
        v = next(fresh)
        return ("Q", rng.choice(quantifiers), v,
                random_formula(rng, letters, scope + (v,), depth - 1,
                               quantifiers, fresh))
    if roll < 0.55:
        return ("not", random_formula(rng, letters, scope, depth - 1,
                                      quantifiers, fresh))
    parts = tuple(random_formula(rng, letters, scope, depth - 1, quantifiers,
                                 fresh) for _ in range(2))
    return ("and" if roll < 0.8 else "or", parts)


def fresh_names(prefix="u"):
    return iter(f"{prefix}{i}" for i in range(1, 1000))


def one_quantifier_formula(rng, letters, quantifiers, predicates):
    """A formula in x with exactly one quantifier, binding a second
    variable: (Q u. a(x,u) op a(x,u)) op a(x), possibly negated, with
    exactly ``predicates`` of its three atoms numerical.  Fixing the nesting
    and the atom kinds keeps the cost of one job in a narrow band."""
    while True:
        fresh = fresh_names()
        u = next(fresh)
        inner = random_formula(rng, letters, ("x", u), 0, quantifiers, fresh)
        inner2 = random_formula(rng, letters, ("x", u), 0, quantifiers, fresh)
        other = random_formula(rng, letters, ("x",), 0, quantifiers, fresh)
        if sum(a[0] == "N" for a in (inner, inner2, other)) == predicates:
            break
    q = ("Q", rng.choice(quantifiers), u,
         (rng.choice(("and", "or")), (inner, inner2)))
    out = (rng.choice(("and", "or")), (q, other))
    return ("not", out) if rng.random() < 0.3 else out


# ---------------------------------------------------------------------------
# compile: formula -> automaton -> one quantifier layer


class CompileJob:
    kind = "compile"

    def __init__(self, wl, letters, bound, extra, body):
        self.wl = wl
        self.letters = letters
        self.bound = bound
        self.extra = extra
        self.body = body
        self.alphabet = wl.Alphabet.of(letters)
        self.body_wl = wl.parse(to_text(body))
        self.quantifiers = tuple(wl.DEFAULT_REGISTRY.quantifier(q)
                                 for q in MONOID_QUANTIFIERS)
        self.label = f"compile {letters} L={bound} {to_text(body)}"

    def run(self):
        wl = self.wl
        ext, body_dfa = wl.formula_dfa(self.body_wl, self.alphabet, ("x",),
                                       self.bound, wl.DEFAULT_REGISTRY)
        return tuple(wl.compile_layer(q, body_dfa, ext)
                     for q in self.quantifiers)

    def fingerprint(self, out):
        return tuple((tuple(map(tuple, d.delta)), d.init,
                      tuple(sorted(d.accepting))) for d in out)

    def check(self, out):
        letters = tuple(self.letters)
        # witness counts of the body at every position, on every word up to
        # the inference bound and past it
        for n in range(self.bound + self.extra + 1):
            words = words_array(len(letters), n)
            counts = evaluate(self.body, letters, words, ("x",)).sum(axis=-1)
            for qname, dfa in zip(MONOID_QUANTIFIERS, out):
                want = quantifier_holds(qname, counts)
                got = dfa_acceptance(dfa, letters, n)
                if not np.array_equal(want, got):
                    bad = words[np.flatnonzero(want != got)[0]]
                    word = "".join(letters[i] for i in bad) or "<empty>"
                    return (f"{qname} x. {to_text(self.body)} on {word}: "
                            f"automaton says {not want[want != got][0]}")
        return None


def quantifier_count(f):
    if f[0] == "Q":
        return 1 + quantifier_count(f[3])
    if f[0] == "not":
        return quantifier_count(f[1])
    if f[0] in ("and", "or"):
        return sum(quantifier_count(g) for g in f[1])
    return 0


def strata(rng, counts):
    """The keys of ``counts``, each as often as its count, in seeded order."""
    out = [key for key, n in counts.items() for _ in range(n)]
    rng.shuffle(out)
    return out


#: per round: (letters, bound, checked past the bound by, body depth,
#: quantifiers in the body) -> jobs.  The quantifier count of a body sets
#: most of a job's cost, so each round holds the same number of each; the
#: shares are about those of free draws.  abc bodies stay at depth one:
#: deeper ones are sometimes refused by inference at bound 5.
COMPILE_STRATA = {
    ("ab", 7, 3, 1, 0): 26, ("ab", 7, 3, 1, 1): 14,
    ("ab", 7, 3, 2, 0): 16, ("ab", 7, 3, 2, 1): 16, ("ab", 7, 3, 2, 2): 8,
    ("abc", 5, 2, 1, 0): 27, ("abc", 5, 2, 1, 1): 13,
}


def compile_jobs(wl, rng):
    jobs = []
    for letters, bound, extra, depth, quantifiers in strata(rng, COMPILE_STRATA):
        while True:  # draw until the body has the stratum's quantifier count
            body = random_formula(rng, tuple(letters), ("x",), depth,
                                  ("E", "E1"), fresh_names())
            if quantifier_count(body) == quantifiers:
                break
        jobs.append(CompileJob(wl, letters, bound, extra, body))
    return jobs


# ---------------------------------------------------------------------------
# semantics: bounded-semantics checks


class RoundtripJob:
    kind = "roundtrip"

    def __init__(self, wl, letters, bound, phi):
        self.wl = wl
        self.alphabet = wl.Alphabet.of(letters)
        self.bound = bound
        self.phi = wl.parse(to_text(phi))
        self.label = f"roundtrip {letters} L={bound} {to_text(phi)}"

    def run(self):
        return self.wl.roundtrip_check(self.phi, ("x",), self.alphabet,
                                       bound=self.bound,
                                       registry=self.wl.DEFAULT_REGISTRY)

    def fingerprint(self, out):
        return out.passed

    def check(self, out):
        return None if out.passed else f"report failed: {out.counterexample}"


def atom_sentence_template(rng, quantifiers, depth=2):
    """A sentence over atom letters c0, c1, ...: Boolean combinations of
    "Q x. x's atom lies in B", with B a bit mask cut down to the atoms that
    exist once the algebra is built."""
    if depth == 0:
        return ("leaf", rng.choice(quantifiers), rng.getrandbits(8))
    roll = rng.random()
    if roll < 0.3:
        return ("not", atom_sentence_template(rng, quantifiers, depth - 1))
    parts = tuple(atom_sentence_template(rng, quantifiers, depth - 1)
                  for _ in range(2))
    return ("and" if roll < 0.65 else "or", parts)


def instantiate(template, atoms):
    tag = template[0]
    if tag == "leaf":
        _, q, mask = template
        tests = tuple(("P", f"c{i}", "x") for i in range(atoms)
                      if mask >> (i % 8) & 1)
        body = ("or", tests) if len(tests) > 1 else (tests[0] if tests
                                                     else ("F",))
        return ("Q", q, "x", body)
    if tag == "not":
        return ("not", instantiate(template[1], atoms))
    return (tag, tuple(instantiate(t, atoms) for t in template[1]))


class SubstitutionJob:
    kind = "substitution"

    def __init__(self, wl, letters, bound, generators, template):
        self.wl = wl
        self.alphabet = wl.Alphabet.of(letters)
        self.bound = bound
        self.generators = [wl.parse(to_text(g)) for g in generators]
        self.template = template
        self.label = (f"substitution {letters} L={bound} "
                      + " ; ".join(to_text(g) for g in generators))

    def run(self):
        wl = self.wl
        delta = wl.delta_algebra(self.alphabet, "x", self.generators,
                                 bound=self.bound, registry=wl.DEFAULT_REGISTRY)
        psi = wl.parse(to_text(instantiate(self.template, delta.atom_count)))
        return wl.check_substitution_principle(delta, psi, bound=self.bound,
                                               registry=wl.DEFAULT_REGISTRY)

    fingerprint = RoundtripJob.fingerprint
    check = RoundtripJob.check


class FragmentJob:
    kind = "fragment"

    def __init__(self, wl, letters, quantifiers, depth, bound):
        self.wl = wl
        self.letters = letters
        self.spec = wl.FragmentSpec(wl.Alphabet.of(letters), quantifiers,
                                    depth=depth, bound=bound)
        self.label = (f"fragment {letters} {','.join(quantifiers)} "
                      f"depth={depth} L={bound}")

    def run(self):
        wl = self.wl
        frag = wl.depth_fragment(self.spec, wl.DEFAULT_REGISTRY)
        direct = wl.depth_direct(self.spec, wl.DEFAULT_REGISTRY)
        return frag, wl.same_language_algebra(frag.ba, direct)

    def fingerprint(self, out):
        frag, same = out
        return same, tuple(self.wl.to_dsl(f) for f in frag.formulas), \
            tuple(frozenset(lang) for lang in frag.languages)

    def check(self, out):
        frag, same = out
        if not same:
            return "fragment algebra differs from direct enumeration"
        letters = tuple(self.letters)
        for phi, lang in zip(frag.formulas, frag.languages):
            truth = sentence_truth(from_text(self.wl.to_dsl(phi)), letters,
                                   self.spec.bound)
            for n, row in truth.items():
                words = words_array(len(letters), n)
                member = np.array([tuple(letters[i] for i in w) in lang
                                   for w in words], dtype=bool)
                if not np.array_equal(member, row):
                    return (f"sentence {self.wl.to_dsl(phi)} does not define "
                            f"its returned language at length {n}")
        return None


FRAGMENT_QUANTIFIER_SETS = (("E",), ("E", "mod[2,0]"), ("E1",),
                            ("E", "mod[2,1]"), ("mod[2,0]",))
FRAGMENT_SPECS = (("ab", 2, 3), ("a", 2, 7))   # letters, depth, bound


#: numerical atoms (of three) per roundtrip formula and per substitution
#: generator, in one round: the count sets much of a job's cost
ROUNDTRIP_PREDICATES = {0: 14, 1: 37, 2: 30, 3: 9}
GENERATOR_PREDICATES = {0: 22, 1: 63, 2: 49, 3: 16}


def semantics_jobs(wl, rng):
    """Thirty blocks of eight jobs: three roundtrips (ab, bound 3), three
    substitution-principle instances (ab, bound 5) and two depth-two
    fragments.  The fragments are the slow quarter, so the 90th percentile
    falls inside them; each round runs every quantifier set with both specs
    six times, in seeded order, so their share of the cost is the same on
    every seed.  Formulas are drawn in strata of their numerical atoms."""
    fragments = strata(rng, {(spec, qs): 6 for spec in FRAGMENT_SPECS
                             for qs in FRAGMENT_QUANTIFIER_SETS})
    roundtrip_preds = strata(rng, ROUNDTRIP_PREDICATES)
    generator_preds = strata(rng, GENERATOR_PREDICATES)
    jobs = []
    for i in range(240):
        slot = i % 8
        if slot < 3:
            phi = one_quantifier_formula(rng, ("a", "b"), ("E", "E1"),
                                         roundtrip_preds.pop())
            jobs.append(RoundtripJob(wl, "ab", 3, phi))
        elif slot < 6:
            gens = [one_quantifier_formula(rng, ("a", "b"), ("E",),
                                           generator_preds.pop())
                    for _ in range(1 + i % 2)]
            qs = tuple(rng.sample(MONOID_QUANTIFIERS, k=2))
            jobs.append(SubstitutionJob(wl, "ab", 5, gens,
                                        atom_sentence_template(rng, qs)))
        else:
            (letters, depth, bound), qs = fragments.pop()
            jobs.append(FragmentJob(wl, letters, qs, depth, bound))
    return jobs


# ---------------------------------------------------------------------------
# recognizers: quotient closure, decomposition, two-sided recognizer


def _base_dfa(kind, letters):
    """Small automata over the base alphabet for the context left or
    right of the mark: (delta[state][letter], init, accepting)."""
    k = len(letters)
    if kind == "any":
        return [[0] * k], 0, {0}
    if kind == "empty":
        return [[1] * k, [1] * k], 0, {0}
    if kind[0] in ("has", "one", "par"):
        c = letters.index(kind[1])
        if kind[0] == "has":
            rows = [[1 if j == c else 0 for j in range(k)], [1] * k]
            return rows, 0, {1}
        if kind[0] == "one":
            rows = [[min(s + (j == c), 2) for j in range(k)] for s in range(3)]
            return rows, 0, {1}
        rows = [[(s + (j == c)) % 2 for j in range(k)] for s in range(2)]
        return rows, 0, {kind[2]}
    if kind[0] == "len":
        return [[1] * k, [0] * k], 0, {kind[1]}
    if kind[0] == "starts":
        c = letters.index(kind[1])
        rows = [[1 if j == c else 2 for j in range(k)], [1] * k, [2] * k]
        return rows, 0, {1}
    raise ValueError(kind)


def marked_shapes(letters):
    """One-variable properties of the marked position x, by name, as
    functions of a letter c to (L, d, R) triples: the property's marked
    words are exactly the words u (d marked) v with u in L and v in R for
    one of its triples."""
    lt = tuple(letters)
    return {
        "P[c](x)": lambda c: [("any", c, "any")],
        "E y<x P[c](y)": lambda c: [(("has", c), d, "any") for d in lt],
        "E1 y<x P[c](y)": lambda c: [(("one", c), d, "any") for d in lt],
        "mod[2,0] y<x P[c](y)": lambda c: [(("par", c, 0), d, "any")
                                           for d in lt],
        "mod[2,1] y<x P[c](y)": lambda c: [(("par", c, 1), d, "any")
                                           for d in lt],
        "E y>x P[c](y)": lambda c: [("any", d, ("has", c)) for d in lt],
        "E y succ(x,y) P[c](y)": lambda c: [("any", d, ("starts", c))
                                            for d in lt],
        "P[c](x) & last(x)": lambda c: [("any", c, "empty")],
        "first(x)": lambda c: [("empty", d, "any") for d in lt],
        "last(x)": lambda c: [("any", d, "empty") for d in lt],
        "mod[2,0] y<x": lambda c: [(("len", 0), d, "any") for d in lt],
        "mod[2,1] y<x": lambda c: [(("len", 1), d, "any") for d in lt],
    }


def marked_dfa(wl, ext, letters, triples):
    """Automaton over A x 2^{x} for the union of u (c marked) v, u in L,
    v in R, over the triples; words with no mark or two marks are
    rejected."""
    lefts = [_base_dfa(t[0], letters) for t in triples]
    rights = [_base_dfa(t[2], letters) for t in triples]
    symbols = tuple(ext.symbols)
    cols = []
    for a in letters:
        cols.append((a, False, symbols.index(ext.symbol(a, ()))))
        cols.append((a, True, symbols.index(ext.symbol(a, ("x",)))))
    start = ("pre", tuple(d[1] for d in lefts))
    index = {start: 0}
    order = [start]
    rows = []
    sink = ("sink",)
    i = 0
    while i < len(order):
        st = order[i]
        row = [None] * len(symbols)
        for a, marked, col in cols:
            j = letters.index(a)
            if st[0] == "sink" or (st[0] == "post" and marked):
                nxt = sink
            elif st[0] == "pre" and not marked:
                nxt = ("pre", tuple(d[0][q][j] for d, q in zip(lefts, st[1])))
            elif st[0] == "pre":
                nxt = ("post", tuple(
                    r[1] if (q in d[2] and t[1] == a) else -1
                    for d, r, t, q in zip(lefts, rights, triples, st[1])))
            else:
                nxt = ("post", tuple(-1 if q < 0 else r[0][q][j]
                                     for r, q in zip(rights, st[1])))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row[col] = index[nxt]
        rows.append(tuple(row))
        i += 1
    accepting = frozenset(
        n for n, st in enumerate(order) if st[0] == "post"
        and any(q >= 0 and q in r[2] for r, q in zip(rights, st[1])))
    return wl.Dfa(alphabet=symbols, delta=tuple(rows), init=0,
                  accepting=accepting)


class RecognizerJob:
    kind = "recognizer"

    def __init__(self, wl, letters, name, triples, target, hbound):
        self.wl = wl
        self.letters = letters
        self.ext = wl.ExtendedAlphabet(wl.Alphabet.of(letters), ("x",))
        lt = tuple(letters)
        marked_words = [("any", d, "any") for d in lt]
        self.dfas = [marked_dfa(wl, self.ext, lt, triples),
                     marked_dfa(wl, self.ext, lt, marked_words)]
        self.target = wl.named_monoid(target)
        self.hbound = hbound
        self.label = f"recognizer {letters} {name} -> {target}"

    def run(self):
        wl = self.wl
        ba = wl.quotient_closure(self.dfas)
        dd = wl.decompose(ba, self.ext)
        return dd, wl.verify_recognizer(dd, self.target, hbound=self.hbound)

    def fingerprint(self, out):
        return out[1].passed

    def check(self, out):
        dd, report = out
        if not report.passed:
            return f"verdict failed: {report.counterexample}"
        wl = self.wl
        etaq = wl.eta_quotient(dd, self.target)
        hm = wl.h_morphism(etaq)
        smul, mmul = etaq.s_mon.mul, dd.m_mon.mul
        words = [w for n in range(self.hbound + 1)
                 for w in itertools.product(self.letters, repeat=n)]
        h = {w: hm.h(w) for w in words}
        for u in words:
            s1, m1 = h[u]
            for v in words:
                if len(u) + len(v) > self.hbound:
                    continue
                s2, m2 = h[v]
                want = (smul(etaq.bia.ract(s1, m2), etaq.bia.lact(m1, s2)),
                        mmul(m1, m2))
                if hm.h(u + v) != want:
                    return (f"h is not multiplicative on "
                            f"{''.join(u)}.{''.join(v)}")
        return None


def recognizer_jobs(wl, rng):
    """Every shape of ``marked_shapes`` once, each with a seeded letter,
    against every target monoid, in seeded order.  The catalogue is fixed
    because the cost of one family ranges over two orders of magnitude
    with its shape; a free draw would make the mix, not the program, set
    the figures.  Families of two properties are left out: some of them
    exceed the semidirect product cap under Z3."""
    jobs = []
    for name, shape in marked_shapes("ab").items():
        c = rng.choice("ab")
        for target in TARGETS:
            jobs.append(RecognizerJob(wl, "ab", name.replace("[c]", f"[{c}]"),
                                      shape(c), target, 4))
    rng.shuffle(jobs)
    return jobs


#: one round of each workload; a run repeats whole rounds
WORKLOADS = {
    "compile": compile_jobs,
    "semantics": semantics_jobs,
    "recognizers": recognizer_jobs,
}
