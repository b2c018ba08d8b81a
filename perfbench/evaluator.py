"""An evaluator for the formula fragment the benchmark's inputs use, kept
apart from the code under test.

Formulas are plain tuples:

    ("T",) ("F",)                      true, false
    ("P", letter, var)                 letter test
    ("N", name, (var, ...))            <, =, succ, first, last, mod[q,r]
    ("not", f)  ("and", (f, ...))  ("or", (f, ...))
    ("Q", quantifier, var, body)       E, E1, mod[q,r]

A formula is evaluated on every word of one length at once: a subformula
becomes a boolean array with one axis for the words and one axis per
variable in scope, and a quantifier counts the witnesses along its
variable's axis.  No code of the program under test is used here.
"""

import itertools
import re

import numpy as np

_MOD = re.compile(r"^mod\[(\d+),(\d+)\]$")


def quantifier_holds(q, count):
    """Truth of quantifier q given the number of witnesses (array)."""
    if q == "E":
        return count >= 1
    if q == "E1":
        return count == 1
    m = _MOD.match(q)
    if m:
        return count % int(m.group(1)) == int(m.group(2))
    raise ValueError(f"quantifier {q!r} is outside the evaluator's fragment")


# ---------------------------------------------------------------------------
# text form, as the program's parser reads it


def to_text(f):
    """Fully parenthesised surface syntax accepted by ``wordlogic.parse``."""
    tag = f[0]
    if tag == "T":
        return "1"
    if tag == "F":
        return "0"
    if tag == "P":
        return f"P[{f[1]}]({f[2]})"
    if tag == "N":
        name, args = f[1], f[2]
        if name in ("<", "="):
            return f"{args[0]} {name} {args[1]}"
        return f"R[{name}]({','.join(args)})"
    if tag == "not":
        return "~(" + to_text(f[1]) + ")"
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return "(" + op.join("(" + to_text(a) + ")" for a in f[1]) + ")"
    if tag == "Q":
        return f"({f[1]} {f[2]}. ({to_text(f[3])}))"
    raise ValueError(f"not a formula: {f!r}")


_TOKEN = re.compile(r"\s*(?:(?P<name>mod\[\d+,\d+\]|[PR]\[[^\]]*\]|[A-Za-z_][A-Za-z0-9_]*|[01])"
                    r"|(?P<op>[~&|().,<=]))")


def from_text(text):
    """Parse the surface syntax (as printed by ``wordlogic.to_dsl``) back
    into tuples.  Grammar: or > and > unary; a binder's body extends as far
    right as possible."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read formula at {text[pos:pos + 20]!r}")
        toks.append(m.group("name") or m.group("op"))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    toks.append(None)
    at = [0]

    def peek(k=0):
        return toks[min(at[0] + k, len(toks) - 1)]

    def take(want=None):
        tok = toks[at[0]]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        at[0] += 1
        return tok

    def or_():
        parts = [and_()]
        while peek() == "|":
            take()
            parts.append(and_())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def and_():
        parts = [unary()]
        while peek() == "&":
            take()
            parts.append(unary())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def unary():
        tok = peek()
        if tok == "~":
            take()
            return ("not", unary())
        if tok == "(":
            take()
            f = or_()
            take(")")
            return f
        if peek(2) == "." and (tok in ("E", "E1") or _MOD.match(tok or "")):
            take()
            var = take()
            take(".")
            return ("Q", tok, var, or_())
        return atom()

    def atom():
        tok = take()
        if tok == "1":
            return ("T",)
        if tok == "0":
            return ("F",)
        if tok.startswith("P["):
            take("(")
            var = take()
            take(")")
            return ("P", tok[2:-1], var)
        if tok.startswith("R["):
            take("(")
            args = [take()]
            while peek() == ",":
                take()
                args.append(take())
            take(")")
            return ("N", tok[2:-1], tuple(args))
        op = take()
        if op not in ("<", "="):
            raise ValueError(f"unexpected {op!r} after {tok!r}")
        return ("N", op, (tok, take()))

    f = or_()
    if peek() is not None:
        raise ValueError(f"trailing input at {peek()!r}")
    return f


# ---------------------------------------------------------------------------
# evaluation on all words of one length


def words_array(nletters, n):
    """All words of length n as letter indices, in the order
    ``itertools.product(range(nletters), repeat=n)`` lists them."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    return np.array(list(itertools.product(range(nletters), repeat=n)),
                    dtype=np.int8)


def evaluate(f, letters, words, free=()):
    """Truth of f on every word of ``words`` (shape: count x length).

    ``free`` lists f's free variables; the result has one axis for the
    words and one per free variable (positions 1..n), in that order.
    """
    count, n = words.shape
    index = {a: i for i, a in enumerate(letters)}
    pos = np.arange(1, n + 1)

    def axis(scope, var):
        shape = [1] * (len(scope) + 1)
        shape[scope.index(var) + 1] = n
        return shape

    def position(scope, var):
        return pos.reshape(axis(scope, var))

    def ev(g, scope):
        tag = g[0]
        if tag == "T":
            return np.ones((1,) * (len(scope) + 1), dtype=bool)
        if tag == "F":
            return np.zeros((1,) * (len(scope) + 1), dtype=bool)
        if tag == "P":
            col = index.get(g[1])
            if col is None:
                return np.zeros((1,) * (len(scope) + 1), dtype=bool)
            hit = words == col
            shape = [count] + [1] * len(scope)
            shape[scope.index(g[2]) + 1] = n
            return hit.reshape(shape)
        if tag == "N":
            name, args = g[1], g[2]
            p = [position(scope, v) for v in args]
            if name == "<":
                return p[0] < p[1]
            if name == "=":
                return p[0] == p[1]
            if name == "succ":
                return p[1] == p[0] + 1
            if name == "first":
                return p[0] == 1
            if name == "last":
                return p[0] == n
            m = _MOD.match(name)
            if m:
                return p[0] % int(m.group(1)) == int(m.group(2))
            raise ValueError(f"predicate {name!r} is outside the fragment")
        if tag == "not":
            return ~ev(g[1], scope)
        if tag in ("and", "or"):
            out = None
            for a in g[1]:
                v = ev(a, scope)
                out = v if out is None else (out & v if tag == "and" else out | v)
            return out
        if tag == "Q":
            body = ev(g[3], scope + (g[2],))
            full = np.broadcast_to(body, body.shape[:-1] + (n,))
            return quantifier_holds(g[1], full.sum(axis=-1))
        raise ValueError(f"not a formula: {g!r}")

    out = ev(f, tuple(free))
    return np.broadcast_to(out, (count,) + (n,) * len(free))


def sentence_truth(f, letters, maxlen):
    """{n: truth of the sentence on every word of length n}, n <= maxlen."""
    return {n: evaluate(f, letters, words_array(len(letters), n))
            for n in range(maxlen + 1)}


def dfa_acceptance(dfa, letters, n):
    """Run a DFA (its public alphabet/delta/init/accepting fields) on every
    word of length n, in ``words_array`` order."""
    delta = np.asarray(dfa.delta, dtype=np.int64)
    cols = np.array([list(dfa.alphabet).index(a) for a in letters],
                    dtype=np.int64)
    words = words_array(len(letters), n)
    state = np.full(len(words), dfa.init, dtype=np.int64)
    for j in range(n):
        state = delta[state, cols[words[:, j]]]
    accepting = np.zeros(len(delta), dtype=bool)
    accepting[list(dfa.accepting)] = True
    return accepting[state]
