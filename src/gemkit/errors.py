"""Exception hierarchy for gemkit.

Validation errors mean the input is not a well-formed colored graph;
precondition errors mean a well-formed graph was handed to an operation
whose hypotheses it does not satisfy.  Checker operations never raise on
a *mathematical* failure (an identity or bound not holding); those are
reported in the returned report object.
"""


class GemError(Exception):
    """Base class for all gemkit errors."""


class ValidationError(GemError):
    """The raw input does not describe a valid member of G_d."""


class LoopEdgeError(ValidationError):
    pass


class DuplicateColorError(ValidationError):
    """Two edges of the same color meet at one vertex."""


class MissingColorError(ValidationError):
    """Some vertex lacks an edge of a color below the final one."""


class DisconnectedError(ValidationError):
    pass


class InvalidColorError(GemError):
    pass


class InvalidColorPairError(GemError):
    pass


class NoBoundaryError(GemError):
    """Operation requires a graph with boundary; got a regular one."""


class NotRegularError(GemError):
    """Operation requires a regular graph; got one with boundary."""


class NonIntegralGenusError(GemError):
    """A bipartite graph produced a half-integral genus value."""


class DimensionError(GemError):
    pass


class NotADipoleError(GemError):
    pass


class NoSuchEdgeError(GemError):
    pass


class ResidueShapeError(GemError):
    """Residue component counts violate a checker precondition."""


class PreconditionError(GemError):
    pass


class TooManyOrdersError(PreconditionError):
    """A dimension has more cyclic orders than the set limit allows."""


class InternalInconsistencyError(GemError):
    """A structural invariant failed mid-operation; signals invalid input."""


class SamplingExhaustedError(GemError):
    pass


class ParseError(GemError):
    """A gem file does not match the expected schema."""


class StoreCorruptError(GemError):
    """A catalog line failed to parse."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
