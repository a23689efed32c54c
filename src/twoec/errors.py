"""Shared exception types and exit codes."""


class InfeasibleError(Exception):
    """Input instance is not 2-edge-connected (or otherwise unsolvable)."""
    exit_code = 2


class ParseError(Exception):
    """Instance file malformed."""
    exit_code = 3


class InternalContradiction(AssertionError):
    """A branch the underlying theorems rule out fired anyway.

    Carries an optional serialized counterexample; reaching this is a bug
    signal, never papered over.
    """
    exit_code = 4

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class OracleBudgetError(Exception):
    """Search budget (vertex cap or enumeration budget) exhausted."""
    exit_code = 4


class OracleTimeout(Exception):
    """Per-instance oracle time cap exceeded."""
    exit_code = 4
