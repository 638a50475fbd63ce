"""Exception hierarchy shared across the package.

Every domain error carries a stable ``code`` string, its class name, so
the CLI can emit structured error objects without string-matching
messages.
"""


class DomainError(Exception):
    """Base class for all domain-level failures (CLI exit code 1)."""

    code = "DomainError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, message="", field=None):
        super().__init__(message or self.code)
        self.field = field


# --- exact_linalg ---------------------------------------------------------

class NotSkew(DomainError):
    pass


class Degenerate(DomainError):
    pass


class NotInjective(DomainError):
    pass


class NotInGLXY(DomainError):
    pass


class NotUnimodular(DomainError):
    pass


# --- quadform_delaunay ----------------------------------------------------

class NotPositiveDefinite(DomainError):
    pass


class WindowTooSmall(DomainError):
    pass


class InvalidPaving(DomainError):
    pass


# --- pavings_pwl ----------------------------------------------------------

class NonMatchingFaces(DomainError):
    pass


class RankMismatch(DomainError):
    pass


class NotQuasiperiodic(DomainError):
    pass


class NotSimplicial(DomainError):
    pass


class MissingVertexValue(DomainError):
    pass


class NotConvex(DomainError):
    pass


class Unbounded(DomainError):
    pass


# --- degeneration_monoids -------------------------------------------------

class OutsideSupport(DomainError):
    pass


class NotInvariant(DomainError):
    pass


class NotAFace(DomainError):
    pass


class InconsistentData(DomainError):
    pass


# --- siegel_trop ----------------------------------------------------------

class NotSymplectic(DomainError):
    pass


class NearSingularDenominator(DomainError):
    pass


class IllConditionedBlock(DomainError):
    pass


# --- theta_heisenberg -----------------------------------------------------

class BadModulus(DomainError):
    pass


class BadLift(DomainError):
    pass


class TooLarge(DomainError):
    pass


class BadTwistPair(DomainError):
    pass


class EmptyComponent(DomainError):
    pass
