"""Exception hierarchy shared by all dirackit modules."""


class DiracKitError(Exception):
    """Base class for every error raised by this package."""


class ExpressionSyntaxError(DiracKitError):
    """Malformed expression text.

    Carries the character offset of the failure and a description of
    what would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: str = ""):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class UnknownSymbolError(DiracKitError):
    """Identifier not declared in the phase space."""

    def __init__(self, name: str, position: int | None = None):
        self.name = name
        self.position = position
        where = f" at offset {position}" if position is not None else ""
        super().__init__(f"unknown symbol '{name}'{where}")


class DivisionByZeroError(DiracKitError):
    """Exact division by a canonically zero expression."""


class PoleAtPointError(DiracKitError):
    """Numeric evaluation hit a (near-)zero denominator."""


class ZeroDenominatorOnShellError(DiracKitError):
    """Denominator vanishes identically on the constraint surface."""


class OddConstraintCountError(DiracKitError):
    """Second-class constraint sets must come in pairs."""


class TooManyConstraintsError(DiracKitError):
    """More constraint pairs than canonical pairs (m > n)."""


class SingularMatrixError(DiracKitError):
    """Symbolic Gaussian elimination found no usable pivot."""


class NotSecondClassError(DiracKitError):
    """The constraint bracket matrix is symbolically singular."""


class NoOnShellPointError(DiracKitError):
    """Newton sampling failed to land on the constraint surface."""


class InvalidCountsError(DiracKitError):
    """Degrees-of-freedom query with m > n or negative counts."""


class PreconditionViolatedError(DiracKitError):
    """Caller broke a documented operation precondition."""


class NonPolynomialInputError(DiracKitError):
    """Closure decomposition needs polynomial inputs (denominator 1)."""


class ReportNotClosedError(DiracKitError):
    """Obstruction logic only applies to a closed bracket algebra."""


class ValidationError(DiracKitError):
    """System definition file is structurally invalid."""


class DegreeOverflowError(DiracKitError):
    """A monomial's total degree exceeds the polynomial kernel's limit."""


class ExpansionBudgetError(DiracKitError):
    """A power, or a product of parsed input, would expand past the
    polynomial kernel's term or coefficient-size budget."""
