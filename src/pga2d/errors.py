"""Exception types raised by the library and the script interpreter."""


class AlgebraError(ValueError):
    """Base class for misuse of an algebraic operation."""


class DomainError(AlgebraError):
    """Argument lies outside the operation's domain (zero element, ideal mirror, ...)."""


class ClassificationError(DomainError):
    """A euclidean operation was applied to an ideal element, or vice versa."""


class OrientationError(DomainError):
    """Operands carry orientations that make the requested construction degenerate."""


class IncidenceError(DomainError):
    """A required point-on-line incidence does not hold."""


class OperandError(AlgebraError, TypeError):
    """An operand of a class the operation does not take; a TypeError too."""


class ConstructionError(AlgebraError):
    """A construction produced no result satisfying its postconditions."""


class ScriptError(Exception):
    """Base class for construction-script failures; carries the source line number."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message)
        self.lineno = lineno

    def __str__(self) -> str:
        base = super().__str__()
        if self.lineno is None:
            return base
        return f"line {self.lineno}: {base}"


class ParseError(ScriptError):
    """Malformed construction script."""


class EvaluationError(ScriptError):
    """A statement failed while the script was being executed.

    What the statements before it printed has already gone to evaluate's sink.
    """


class RenderError(Exception):
    """The environment cannot be rendered (nothing drawable, bad target path)."""
