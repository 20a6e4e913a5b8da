"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class DomainError(ToolkitError):
    """Input outside the admissible parameter range (e.g. lambda < 2)."""


class NonEscapingError(ToolkitError):
    """Orbit did not leave the Julia-set neighborhood within the depth cap."""


class IterationOverflowError(ToolkitError):
    """Iterates left the representable range; carries the last finite depth."""

    def __init__(self, message, depth):
        super().__init__(message)
        self.depth = depth


class DyadicAngleError(ToolkitError):
    """Operation requires a non-dyadic angle (binary expansion not unique)."""


class NewtonDivergence(ToolkitError):
    """Ray continuation failed; carries the last good sample and partial ray."""

    def __init__(self, message, last_sample=None, partial=None):
        super().__init__(message)
        self.last_sample = last_sample
        self.partial = partial


class ScheduleTooCoarse(ToolkitError):
    """Consecutive ray samples jumped more than the configured arc bound."""


class SingularSampleError(ToolkitError):
    """Evaluation too close to a (pre)critical point of the iteration."""


class NoConvergence(ToolkitError):
    """Limit iteration did not stabilize within the depth cap."""


class BracketFailure(ToolkitError):
    """Expected sign change not found during root bracketing."""


class TargetOutOfRange(ToolkitError):
    """Requested inverse-branch value outside the branch's real range."""


class CrossCheckError(ToolkitError):
    """Two independent routes to the same quantity disagree."""


class CapExceeded(ToolkitError):
    """Resource cap hit during cover generation; carries the partial level."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class AmbiguousBranch(ToolkitError):
    """Square-root pullback could not decide between the two preimages."""
