"""Exception types shared across the package."""


class LgmleError(Exception):
    """Base class for all package errors."""


class InvalidValue(LgmleError, ValueError):
    """A value the caller passed in breaks a rule of the function it was
    passed to (a range, a name, a shape).  Also a ``ValueError``, so callers
    that catch that keep working."""


class InvalidDimensions(LgmleError):
    """Graph dimensions violate the scheduling/regularity requirements."""


class DisconnectedGraph(LgmleError):
    """Some node is unreachable from node 1, so no layer decomposition exists."""


class OutcomeNotInSpace(LgmleError):
    """An outcome value is not a member of the kernel's outcome space."""


class NonPositiveWeight(LgmleError):
    """A latent weight must be strictly positive for this kernel family."""


class H1Violated(LgmleError):
    """The kernel is not bounded away from zero on the evaluation grid."""


class InconsistentBlockShapes(LgmleError):
    """Edge/outcome/weight blocks passed to a block evaluation disagree."""


class SupportMismatch(LgmleError):
    """A distribution's support is incompatible with the kernel's grid."""


class TooLargeForBruteForce(LgmleError):
    """The enumeration oracle refuses state spaces above its hard cap."""


class LayerOutOfRange(LgmleError):
    """A layer index lies outside the valid window of the chain."""


class NoCandidates(LgmleError):
    """Grid-mode fitting was invoked with an empty candidate list."""
