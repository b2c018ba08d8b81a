"""Structured errors.

Every refusal the library makes (size caps, malformed input, failed
conditions and consistency checks) raises a subclass of WordlogicError carrying a short machine
readable ``code`` so the CLI can map failures to exit codes.
"""


class WordlogicError(Exception):
    code = "error"

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = dict(info)


class ParseError(WordlogicError):
    code = "parse"


class CapExceeded(WordlogicError):
    """A configured size cap was hit (see wordlogic.caps)."""

    code = "cap"


class NotDecomposable(WordlogicError):
    """The algebra fails one of the named decomposition conditions."""

    code = "decompose"

    def __init__(self, message, clause, **info):
        super().__init__(message, clause=clause, **info)
        self.clause = clause


class NotMonoidPresentable(WordlogicError):
    """Compilation was asked for a quantifier or a numerical predicate
    given only by an oracle (a Python function)."""

    code = "oracle-quantifier"


class BoundTooSmall(WordlogicError):
    """An answer needs words longer than a bounded table holds, such as a
    generator signature realized only past the bound."""

    code = "bound"


class InvariantViolated(WordlogicError):
    """A construction failed one of its own consistency checks; ``stage``
    in ``info`` names the construction."""

    code = "invariant"
