"""Exception and warning types shared across the library."""


class SphereDistalError(Exception):
    """Base class for all library-specific failures."""


class SingularMatrix(SphereDistalError):
    """Determinant magnitude below the singular tolerance."""


class RealSpectrum(SphereDistalError):
    """Operation requires complex eigenvalues but the spectrum is real."""


class ZeroTranslation(SphereDistalError):
    """Affine operation called with a zero translation vector."""


class DegenerateMap(SphereDistalError):
    """The affine sphere map annihilates a point (pullback norm at 1)."""


class DimensionMismatch(SphereDistalError):
    """Inputs have incompatible dimensions."""


class DimensionUnsupported(SphereDistalError):
    """Operation not implemented for this dimension."""


class NoPositiveRealEigenvalue(SphereDistalError):
    """Fixed-point construction needs a positive real eigenvalue."""


class InvalidTranslation(SphereDistalError):
    """Translation vector violates the pullback-norm precondition."""


class SpectrumCollision(SphereDistalError):
    """Resolvent parameter too close to an eigenvalue."""


class OutsideCoveredClasses(SphereDistalError):
    """Matrix falls outside the eigenvalue classes with a constructive witness."""


class NotOrthogonal(SphereDistalError):
    """Operation requires an isometry (orthogonal matrix)."""


class SpecParseError(SphereDistalError):
    """Malformed input file (matrix JSON, semigroup spec, config)."""


class HypothesisNotMet(SphereDistalError):
    """A bracketing hypothesis failed; carries which inequality broke.

    ``reason`` is one of:
      - "nonpositive-cosine"
      - "sine-exceeds-translation-bound"
      - "bracket-endpoint-sign"
      - "residual-above-tolerance" (a constructed point misses
        ``Config.residual_tol``)
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        msg = reason if not detail else f"{reason}: {detail}"
        super().__init__(msg)


class NonInjectiveWarning(UserWarning):
    """Emitted when a non-injective affine map is applied anyway."""
