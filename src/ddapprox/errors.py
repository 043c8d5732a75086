"""Exception types shared across the package."""


class DDError(Exception):
    """Base class for decision-diagram errors."""


class NumericDomainError(DDError):
    """A non-finite or out-of-range number was handed to the value table."""


class ZeroStateError(DDError):
    """The requested operation would leave an all-zero state with no norm."""


class SizeLimitError(DDError):
    """Dense expansion refused because the qubit count exceeds the cap."""


class CircuitParseError(DDError):
    """Circuit text rejected; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
