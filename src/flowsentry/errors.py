"""Exception types shared across the package.

The CLI maps these onto exit codes, so the split matters: bad input files
and malformed queries must be distinguishable from genuine answer
mismatches found by the verification harness.
"""


class ParseError(ValueError):
    """Raised for malformed network or query files; carries a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class QueryError(ValueError):
    """Raised when a query names unknown edges or violates a precondition."""


class EnumerationBudgetExceeded(ValueError):
    """Raised when listing the small minimal cuts needs more search nodes
    than kfault.ENUMERATION_PROBE_BUDGET; `build` then skips the k-fault
    oracle."""


class InternalInvariantError(RuntimeError):
    """Raised when a structural invariant that should hold by construction fails.

    These are bugs (or disproved assumptions), never user errors.
    """


def checked(make, *args):
    """make(*args), a ValueError raised as InternalInvariantError: the build
    checks flows it made itself, so a failed check is a bug."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InternalInvariantError(str(exc)) from exc
