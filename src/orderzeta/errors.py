"""Error taxonomy shared by the library and the command line front end.

Every error carries the process exit code the CLI maps it to:

    2  malformed input text (parse errors)
    3  input violates a precondition (non-squarefree, bad factor list, ...)
    4  working precision was exhausted before a quantity could be certified
    5  an enumeration exceeded the candidate ceiling
    6  a proven invariant failed to hold for computed data (internal check)
"""


class OrderZetaError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ParseError(OrderZetaError):
    """Input text could not be parsed."""

    exit_code = 2


class PreconditionViolated(OrderZetaError):
    """Input data violates a documented precondition."""

    exit_code = 3


class NotSquarefree(PreconditionViolated):
    """The defining polynomial has a repeated root (resultant(f, f') = 0)."""


class BadFactorization(PreconditionViolated):
    """Supplied factor list is wrong, or a factor fails irreducibility
    certification."""


class NonIntegralInput(PreconditionViolated):
    """The defining polynomial must be monic with coefficients in F_q[[t]]."""


class RankDeficient(PreconditionViolated):
    """Generators span a lattice of lower rank than the ambient space."""


class PrecisionExhausted(OrderZetaError):
    """A valuation or coefficient could not be certified at the working
    precision; retrying at higher precision may succeed."""

    exit_code = 4


class CeilingExceeded(OrderZetaError):
    """An enumeration would visit more candidates than the work ceiling:
    `--ceiling`, or a `ceiling` argument, else DEFAULT_CEILING (10^8)."""

    exit_code = 5


class InvariantViolation(OrderZetaError):
    """Computed data failed an internal consistency identity."""

    exit_code = 6


class TruncationFailure(InvariantViolation):
    """A collapsed tally had a nonzero coefficient beyond the degree it
    may reach: 2*delta, or for a variant its tally length less the
    periods margin."""


class NonIntegralSpecialValue(InvariantViolation):
    """A special value that must be an integer evaluated to a non-integer."""


class MethodDisagreement(InvariantViolation):
    """Independent computation routes returned different values."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = dict(values or {})
