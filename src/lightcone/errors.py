"""Exception types shared across the package."""


class LightconeError(Exception):
    """Base class for every library-specific error."""


class BadConfig(LightconeError):
    """A search configuration that cannot be read or breaks a rule; exits 4, printed as is."""


class NotUnitTimelike(LightconeError):
    """Observer vector is not past-pointing unit timelike."""


class DivisionByZeroJet(LightconeError):
    """Jet division with a vanishing constant term.

    Geometrically this signals a degenerate quantity (for instance a zero
    time coordinate, which cannot occur on the future lightcone).
    """


class OrderExceeded(LightconeError):
    """A derivative beyond the valid truncation order was requested."""


class NotSpacelike(LightconeError):
    """Induced metric fails to be positive definite at a sampled point."""


class NotOnLightcone(LightconeError):
    """Chart point is off the future lightcone (bad norm or time sign)."""


class DegenerateNormalFrame(LightconeError):
    """Normal-plane solve became singular; indicates numerical corruption."""


class GaussMapUndefined(LightconeError):
    """Second Gauss map requested where the normal has zero time component."""


class DegenerateMetric(LightconeError):
    """Metric field is singular at the base point."""


class DegeneracyViolation(LightconeError):
    """Operation requires a nowhere-degenerate shape operator."""


class NotRiemannianII(LightconeError):
    """Second fundamental form is not positive definite where required."""


class NonpositiveRadius(LightconeError):
    """Sphere radius must be strictly positive."""


class CoordinateOverflow(LightconeError):
    """Chart coordinates whose squares could overflow a float."""


class NonpositiveRadialFunction(LightconeError):
    """Radial graph function must be strictly positive on the sphere."""


class EigenSolverFailure(LightconeError):
    """Sparse eigenvalue solve failed to converge or mesh was invalid."""
