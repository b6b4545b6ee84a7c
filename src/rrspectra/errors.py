"""Exception hierarchy shared by all rrspectra modules."""


class SpectraError(Exception):
    """Base class for all rrspectra errors."""


class ZeroPolynomial(SpectraError):
    """Root isolation was asked for the identically-zero polynomial."""


class RootOverflow(SpectraError):
    """A real root lies beyond the largest double, so it cannot be returned as one."""


class StepFailure(SpectraError):
    """A t grid is not strictly increasing (its half-width is too small for
    its point count in doubles), :func:`geometry.decay_x_max` found no
    decayed potential, or an oracle grid is too coarse for Numerov's scheme,
    h^2 max(Q - bottom W)/12 >= 1/2."""


class NoSuchRoot(SpectraError):
    """The quartic has no root of the requested kind at the requested order."""


class NodeDetected(SpectraError):
    """A Darboux seed's polynomial has real zeros, by its node count (decided
    by theorem), so its factorization function would have nodes."""


class InsufficientDecay(SpectraError):
    """The sampled potential does not decay at the grid ends."""


class NonFiniteSamples(SpectraError):
    """Sampled values (a potential, a weight or an eigenfunction) are NaN or
    infinite, a weight sample is not positive, so that Q/W is infinite
    there, or eta = sinh t on a grid is past the double range.  Every
    sample is read from sech t and tanh t, so only a factor cosh^k t with
    k > 0, the gauge of a type-d seed, can overflow while eta is finite."""


class GridTooLarge(SpectraError):
    """The oracle's spacing rule asks for more grid points than
    :data:`spectral.MAX_COUNT`, the cap a config's own ``n`` obeys."""


class ConfigError(SpectraError):
    """A run configuration is malformed or violates an invariant."""
