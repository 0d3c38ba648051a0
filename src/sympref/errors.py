"""The two errors the command line maps to exit codes, the default
bound on a group's order, the bound on a matrix's dimension and the
default tolerances of `spectrum`.  This module imports nothing, so that
the command line can catch the errors and show the defaults without
loading the exact stack, and `spectrum` can bound its input without
loading `specio`; `cyclotomic` re-exports BadInput, `groups` the other
two and `specio` the dimension bound."""

DEFAULT_MAX_ORDER = 100_000
# the largest dimension of a group specification, of theta and of the
# metric of `spectrum`, checked before any entry is read
MAX_DIMENSION = 32
DEFAULT_INPUT_TOL = 1e-12
DEFAULT_PAIR_TOL = 1e-8


class BadInput(ValueError):
    """Input the operation cannot take; the CLI reports it as one error
    line with exit code 1.  Every module's input errors derive from it."""


class OrderBoundExceeded(RuntimeError):
    """Closure grew past max_order, or met an element of infinite order."""

    def __init__(self, bound, message=None):
        self.bound = bound
        super().__init__(
            message or "group order exceeds the bound %d" % bound
        )
