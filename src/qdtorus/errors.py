"""Exception types shared across the package."""


class QdtError(Exception):
    """Base class for all package errors."""


class UnknownGenerator(QdtError):
    pass


class InvalidExponent(QdtError):
    """Negative power requested for a generator that has no inverse."""


class CrossAlgebraMix(QdtError):
    """Arithmetic attempted between elements of different algebras."""


class NotAHopfAlgebra(QdtError):
    """Coalgebra operation requested on a plain (co)module algebra."""


class WindowExceeded(QdtError):
    """A map was applied outside its domain: :func:`hopf.haar` raises it for
    an element of an algebra other than the double-torus quotient."""


class NotInBaseImage(QdtError):
    """A product expected to land in the base subalgebra did not."""


class RootConditionViolated(QdtError):
    """(-q)^(n^2) = 1 fails in the requested scalar ring."""


class CyclotomicModeUnsupported(QdtError):
    """Operation not implemented for the finite quotients over Q[q]/Phi_M."""


class IncompleteWindow(QdtError):
    """Character decomposition did not reconstruct the input exactly."""


class WindowOverflow(QdtError):
    """Operator application pushed amplitude outside the truncation window."""


class CompletionFailure(QdtError):
    """Critical-pair completion did not terminate, or normal words of a
    system expected to be finite do not stop growing."""


class ExprSyntaxError(QdtError):
    """Parse error, carrying the offending position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
