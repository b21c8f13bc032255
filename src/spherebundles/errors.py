"""Exception hierarchy shared across the package.

Every domain error derives from :class:`SphereBundleError` so callers (and
the CLI) can map any failure to a single handler; the class name doubles as
the machine-readable error code.
"""


class SphereBundleError(Exception):
    """Base class for all domain errors raised by this package."""


# -- complex construction ---------------------------------------------------

class EmptyInput(SphereBundleError):
    pass


class MixedCardinality(SphereBundleError):
    pass


class NonPositiveLabel(SphereBundleError):
    pass


class ParseError(SphereBundleError):
    pass


# -- face / vector arithmetic -----------------------------------------------

class LengthMismatch(SphereBundleError):
    pass


class NotAFace(SphereBundleError):
    pass


class Disconnected(SphereBundleError):
    pass


class DimensionTooLow(SphereBundleError, ValueError):
    """A dimension or facet size below what the construction needs; also a
    ValueError, so callers that catch the built-in keep working."""


# -- subdivision and stacked spheres ----------------------------------------

class NotAFacet(SphereBundleError):
    pass


class VertexInUse(SphereBundleError):
    pass


class NotTwoStacks(SphereBundleError):
    pass


class PairingNotOnTops(SphereBundleError):
    pass


# -- handle addition ---------------------------------------------------------

class DistanceViolation(SphereBundleError):
    pass


class NonSimplicialQuotient(SphereBundleError):
    pass


class InfeasibleVertexCount(SphereBundleError, ValueError):
    """A vertex or step count the construction cannot realise; also a
    ValueError, so callers that catch the built-in keep working."""


class AlreadyOrientable(SphereBundleError):
    pass


class NotPseudomanifold(SphereBundleError):
    pass


# -- isomorphism ---------------------------------------------------------------

class InvalidWitness(SphereBundleError):
    pass


# -- bistellar moves ----------------------------------------------------------

class NotFlippable(SphereBundleError):
    pass


class ScheduleInvalid(SphereBundleError):
    pass


class TargetOutOfRange(SphereBundleError):
    pass
