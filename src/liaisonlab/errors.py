"""Exception types shared across the package."""


class LiaisonError(Exception):
    """Base class; carries a stable machine-readable code."""

    code = "error"


class RingMismatch(LiaisonError):
    code = "ring-mismatch"


class ZeroPolynomial(LiaisonError):
    code = "zero-polynomial"


class DivisionByZero(LiaisonError):
    code = "division-by-zero"


class PrimeCheckFailed(LiaisonError):
    code = "prime-check-failed"


class DegreeOverflow(LiaisonError):
    """A negative exponent, or a total degree above ring.MAX_DEGREE, where
    the int64 term arrays would wrap."""

    code = "degree-overflow"


class NotHomogeneous(LiaisonError):
    code = "not-homogeneous"


class DegenerateMatrix(LiaisonError):
    code = "degenerate-matrix"


class UnitIdeal(LiaisonError):
    code = "unit-ideal"


class NotACurve(LiaisonError):
    code = "not-a-curve"


class NotCM(LiaisonError):
    code = "not-cm"


class WrongCodim(LiaisonError):
    code = "wrong-codim"


class NotGorensteinLink(LiaisonError):
    code = "not-gorenstein-link"


class CodimMismatch(LiaisonError):
    code = "codim-mismatch"


class NotUnmixed(LiaisonError):
    code = "not-unmixed"


class PreconditionFailed(LiaisonError):
    code = "precondition-failed"


class NotRegularSequence(LiaisonError):
    code = "not-regular-sequence"


class MembershipViolation(LiaisonError):
    code = "membership-violation"


class NotACI(LiaisonError):
    code = "not-aci"


class NotGeometricallyLinked(LiaisonError):
    code = "not-geometrically-linked"


class DuplicatePoint(LiaisonError):
    code = "duplicate-point"


class NotArtinian(LiaisonError):
    code = "not-artinian"


class NotMonomial(LiaisonError):
    code = "not-monomial"


class NotStable(LiaisonError):
    code = "not-stable"


class LayerChainBroken(LiaisonError):
    code = "layer-chain-broken"


class GenericityFailure(LiaisonError):
    code = "genericity-failure"


class StepIdentityFailed(LiaisonError):
    code = "step-identity-failed"


class CharacteristicTooSmall(LiaisonError):
    code = "characteristic-too-small"


class VariableOutOfRange(LiaisonError):
    code = "variable-out-of-range"


class SessionObjectError(LiaisonError):
    """A command names an object the session does not declare, or one of
    another kind: a usage error."""

    code = "session-object"


class SessionSyntaxError(LiaisonError):
    """Parse error with 1-based position information."""

    code = "syntax-error"

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
