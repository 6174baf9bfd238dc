"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition (zero denominator,
    non-squarefree denominator, non-proper function, and so on)."""


class InexactDivisionError(ArithmeticError):
    """A division that is guaranteed exact by the mathematics left a
    remainder.  Always indicates an internal bug, never bad user input."""


class InternalError(AssertionError):
    """An internal consistency check failed."""


class FactorLimitError(DomainError):
    """An integer exceeded the fixed trial-division limit, so a
    complete factorization (and hence an exact answer) cannot be
    certified.  This is the documented scalability boundary of the
    divisor-enumeration root finders."""


class ParseError(ValueError):
    """Syntax or evaluation error in an input expression.

    ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
