"""Exception types shared across the package.

Each type carries the CLI's exit code for it: 1, a mathematical failure,
unless the type sets 2, a usage error (malformed session input or
arguments)."""


class LiaisonError(Exception):
    """Base class; carries a stable machine-readable code and an exit code."""

    code = "error"
    exit_code = 1


class RingMismatch(LiaisonError):
    code = "ring-mismatch"


class ZeroPolynomial(LiaisonError):
    code = "zero-polynomial"


class DivisionByZero(LiaisonError):
    code = "division-by-zero"


class PrimeCheckFailed(LiaisonError):
    code = "prime-check-failed"
    exit_code = 2


class DegreeOverflow(LiaisonError):
    """A negative exponent, or a total degree above ring.MAX_DEGREE, where
    the 64-bit fields of a packed term would overflow."""

    code = "degree-overflow"
    exit_code = 2


class NotHomogeneous(LiaisonError):
    code = "not-homogeneous"
    exit_code = 2


class DegenerateMatrix(LiaisonError):
    """A malformed matrix: ragged, not graded, or not square where a
    determinant needs it."""

    code = "degenerate-matrix"
    exit_code = 2


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


class LinkSeriesMismatch(LiaisonError):
    """A link J = c : I through a Gorenstein c whose Hilbert series breaks
    HS(R/J) = HS(R/c) - t^T HS(Ext^g(R/I, R))."""

    code = "link-series-mismatch"


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


class ResolutionIncomplete(LiaisonError):
    """A resolution stage whose syzygies do not reach its kernel's Hilbert
    series, or a resolution still open past the syzygy theorem's bound."""

    code = "resolution-incomplete"


class CohomologyMismatch(LiaisonError):
    """The cohomology interchange of an E-type truncation failed."""

    code = "cohomology-mismatch"


class CharacteristicTooSmall(LiaisonError):
    code = "characteristic-too-small"


class VariableOutOfRange(LiaisonError):
    code = "variable-out-of-range"
    exit_code = 2


class SessionObjectError(LiaisonError):
    """A command names an object the session does not declare, or one of
    another kind: a usage error."""

    code = "session-object"
    exit_code = 2


class MalformedCertificate(LiaisonError):
    """An archived certificate step of an unknown kind, or one missing a
    field its kind needs: a usage error."""

    code = "malformed-certificate"
    exit_code = 2


class SessionSyntaxError(LiaisonError):
    """Parse error with 1-based position information."""

    code = "syntax-error"
    exit_code = 2

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
