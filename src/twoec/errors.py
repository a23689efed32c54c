"""Shared exception types and exit codes."""


class InfeasibleError(Exception):
    """Input instance is not 2-edge-connected (or otherwise unsolvable)."""
    exit_code = 2


class ParseError(Exception):
    """Instance file malformed."""
    exit_code = 3


class InternalContradiction(AssertionError):
    """A branch the underlying theorems rule out fired anyway.

    Carries an optional counterexample, usually the Graph (or a tuple led
    by it) where the branch fired; the CLI writes such a graph to stderr as
    an instance file. Reaching this is a bug signal, never papered over.
    """
    exit_code = 4

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class OracleBudgetError(Exception):
    """Exact-optimum vertex cap exceeded, or `oracle.SUBSET_BUDGET` nodes
    of the contractibility set search exhausted."""
    exit_code = 4


class OracleTimeout(Exception):
    """An exact search ran past the deadline of its instance."""
    exit_code = 4
