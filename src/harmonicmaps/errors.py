"""Exception types shared across the package."""


class HarmonicMapsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HarmonicMapsError):
    """A point lies outside the declared domain of validity."""


class SingularDerivativeError(HarmonicMapsError):
    """An operation required a nonvanishing derivative but found (numerically) zero."""


class InversionError(HarmonicMapsError):
    """Newton inversion failed to converge.

    Carries the target ``w`` that misses its ``bound``, ``tol * max(s, |w|)``
    (``s`` the map's own scale, see ``herglotz.invert``), by the largest
    factor, and as ``best_residual`` the absolute residual
    ``|f(z) - w|`` reached there, so the caller can decide whether to retry
    with a coarser tolerance.
    """

    def __init__(self, message, w=None, best_residual=None, bound=None):
        super().__init__(message)
        self.w = w
        self.best_residual = best_residual
        self.bound = bound


class BudgetExceededError(HarmonicMapsError):
    """A requested perturbation size is not covered by the univalence budget."""


class InapplicableError(HarmonicMapsError):
    """Hypotheses of a bound are not met (e.g. nonpositive derivative gap)."""


class GalleryLookupError(HarmonicMapsError, KeyError):
    """Unknown gallery name or missing/invalid parameters."""

    # The message as given, without KeyError's quotes.
    __str__ = Exception.__str__
