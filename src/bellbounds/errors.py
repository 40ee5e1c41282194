"""The package's four error classes: a common base and the three refusals,
which the CLI maps onto exit codes: InputError -> 2, BudgetError -> 3,
NumericError -> 4.
"""


class BellboundsError(Exception):
    """Base class for all package errors."""


class InputError(BellboundsError, ValueError):
    """Malformed or inconsistent user input (bad JSON, missing angles, ...)."""


class BudgetError(BellboundsError, RuntimeError):
    """A configured resource budget (dimension, vertex count) was exceeded."""


class NumericError(BellboundsError, RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""
