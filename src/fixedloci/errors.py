"""Exception types shared across the library."""


class FixedLociError(Exception):
    """Base class for all library errors."""


class DimMismatch(FixedLociError):
    pass


class NotInjective(FixedLociError):
    """The lattice map has a nontrivial kernel."""


class TorsionCokernel(FixedLociError):
    """The cokernel has torsion, so the free-action setup fails at torus level."""


class FreeActionViolated(FixedLociError):
    """A map that the free-action hypothesis forces to be unimodular is not."""


class EmptyStableLocus(FixedLociError):
    pass


class TooLarge(FixedLociError):
    """A brute-force guard was exceeded."""


class ValidationError(FixedLociError):
    """Problem data failed schema or semantic validation."""
