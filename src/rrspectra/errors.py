"""Exception hierarchy shared by all rrspectra modules."""


class SpectraError(Exception):
    """Base class for all rrspectra errors."""


class ImaginaryResidue(SpectraError):
    """A coefficient that must be exactly real has a nonzero imaginary part."""


class ZeroPolynomial(SpectraError):
    """Root isolation was asked for the identically-zero polynomial."""


class RootOverflow(SpectraError):
    """A real root lies beyond the largest double, so it cannot be returned as one."""


class StepFailure(SpectraError):
    """The variable map could not be built or inverted (its Newton inverse did
    not converge), or :func:`geometry.choose_x_max` found no decayed potential."""


class OutOfGrid(SpectraError):
    """Evaluation requested outside the stored variable-map grid."""


class BranchUndefined(SpectraError):
    """The square-root branch is evaluated exactly at its branch point."""


class NoSuchRoot(SpectraError):
    """The quartic has no root of the requested kind at the requested order."""


class ConventionUnresolved(SpectraError):
    """A closed form contradicts an exact property of its convention (a bound
    state's polynomial does not have as many real roots as its level index)."""


class NodeDetected(SpectraError):
    """A factorization function changes sign on the grid."""


class PreconditionViolated(SpectraError):
    """An operation-level precondition does not hold."""


class InsufficientDecay(SpectraError):
    """The sampled potential does not decay at the grid ends."""


class NonFiniteSamples(SpectraError):
    """Sampled values (a potential, or eta on the variable map) are NaN or infinite."""


class ConfigError(SpectraError):
    """A run configuration is malformed or violates an invariant."""
