"""Exception types shared across the solver suite."""


class CongestedTransportError(Exception):
    """Base class for all errors raised by this package."""


class DanglingEdgeError(CongestedTransportError):
    """An edge references a node id outside the node set."""


class SelfLoopError(CongestedTransportError):
    """An edge has identical tail and head."""


class UnreachableError(CongestedTransportError):
    """A destination cannot be reached from a source. ``source`` and ``dest``
    are node ids; the message names them by ``labels`` when given."""

    def __init__(self, source, dest, labels=None):
        self.source = source
        self.dest = dest
        if labels:
            source, dest = labels[source], labels[dest]
        super().__init__(f"destination {dest} unreachable from source {source}")


class NegativeMetricError(CongestedTransportError):
    """An edge metric entry is negative."""


class NegativeFlowError(CongestedTransportError):
    """A link flow entry is negative."""


class PathExplosionError(CongestedTransportError):
    """Simple-path enumeration would exceed the configured cap."""


class MassMismatchError(CongestedTransportError):
    """Source and target measures carry different total mass."""


class NonFiniteCostError(CongestedTransportError):
    """A transport cost entry is NaN or infinite."""


class DegenerateDualError(CongestedTransportError):
    """Dual potentials are not unique (disconnected optimal-plan support)."""


class DecompositionFailureError(CongestedTransportError):
    """Flow peeling left more residual flow than the tolerance allows, or the
    path-flow reference program failed or missed its equalities."""


class ShapeMismatchError(CongestedTransportError):
    """Array shapes are inconsistent with the grid."""


class SingularSystemError(CongestedTransportError):
    """The discrete Neumann system is incompatible."""


class PointOutsideDomainError(CongestedTransportError):
    """A point lies outside the grid domain."""


class BisectionFailureError(CongestedTransportError):
    """A bracketing search exceeded its growth limit."""


class DomainTooSmallError(CongestedTransportError):
    """The grid domain cannot contain the predicted support."""


class InputFormatError(CongestedTransportError):
    """A problem file does not follow its documented format."""


class TransportSolverError(CongestedTransportError):
    """The exact transport solver found no augmenting path or hit its guard."""
