"""Exception hierarchy shared by all agodel modules.

The CLI maps these onto its exit-code contract: usage and parse problems
exit with 2, resource limits with 3, and any other exception, which is
a defect of the program, with 4.  Negative verdicts (unsatisfiable, not
a model, ...) are ordinary return values, never exceptions.
"""


class AgodelError(Exception):
    """Base class for all package errors."""


class UsageError(AgodelError):
    """A precondition was violated: wrong backend, unbound variable,
    malformed input file, unsupported operation for the given objects."""


class ParseError(UsageError):
    """Base for problems while reading the formula grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0, offset: int = 0):
        super().__init__(f"{message} (line {line}, column {column}, offset {offset})")
        self.message = message
        self.line = line
        self.column = column
        self.offset = offset


class FormulaSyntaxError(ParseError):
    """Lexical or grammatical error in formula text."""


class UnknownSymbolError(ParseError):
    """An identifier is not declared in the signature."""


class ArityError(ParseError):
    """A symbol is applied to the wrong number of arguments."""


class ResourceLimitError(AgodelError):
    """A declared limit (a module's MAX_* constant, the trial-division
    bound, the digit limit for printing) was exceeded.  Raised instead
    of ever returning a wrong answer."""
