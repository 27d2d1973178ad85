"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class InvariantError(ValueError):
    """A state object violates one of its structural invariants."""


class FormError(InvariantError):
    """A density matrix is outside the structural form a shortcut relies on."""


class IntegrationError(RuntimeError):
    """An oracle produced samples outside its accuracy budget."""


class EigensolverError(RuntimeError):
    """An eigenvalue routine failed; the offending matrix is in the message."""


class TargetNotReachable(ValueError):
    """A requested coupling exceeds what the drive can produce.

    Carries ``max_xi``, the largest coupling ratio achievable for the
    given drive parameters.
    """

    def __init__(self, message: str, max_xi: float):
        super().__init__(message)
        self.max_xi = max_xi
