"""Projective and affine actions of invertible matrices on the unit sphere.

The projective action sends x to T(x)/||T(x)||; the affine action sends
x to (a + T(x))/||a + T(x)||.  The affine map is a homeomorphism exactly
when ||T^-1(a)|| < 1, which drives the regime classification below.
All maps re-normalize their output, so long orbits do not drift off the
sphere.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import (
    DegenerateMap,
    DimensionMismatch,
    InvalidTranslation,
    NonInjectiveWarning,
    ZeroTranslation,
)
from .linalg import _nonsingular_det, as_matrix, matrix_inverse


def unit_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def as_sphere_point(x, d: int | None = None, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Validate a near-unit vector and return it re-normalized."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("sphere points are 1-d vectors")
    if d is not None and x.shape[0] != d:
        raise DimensionMismatch(f"expected a point in dimension {d}, got {x.shape[0]}")
    return _renormalized(x, config)


def _renormalized(x: np.ndarray, config: Config) -> np.ndarray:
    """A 1-d float vector within the unit tolerance of the sphere, divided by its
    norm (``np.linalg.norm``'s expression for a 1-d real vector, unwrapped)."""
    n = math.sqrt(float(x.dot(x)))
    if not abs(n - 1.0) <= config.unit_norm_tol:  # NaN or inf entries fail too
        raise ValueError(f"|norm - 1| = {abs(n - 1):.3e} exceeds the unit tolerance")
    return x / n


def _checked_translation(T: np.ndarray, a) -> np.ndarray:
    """The translation ``a`` as a float vector of T's dimension with finite entries and norm."""
    a = np.asarray(a, dtype=float)
    if a.shape != (T.shape[0],):
        raise DimensionMismatch("translation must match the matrix dimension")
    if not np.isfinite(a).all():
        raise InvalidTranslation("translation entries must be finite")
    if sum(v * v for v in a.tolist()) == math.inf:  # np.linalg.norm would overflow, with a warning
        raise InvalidTranslation("the translation's norm overflows")
    return a


class Regime(enum.Enum):
    PROJECTIVE = "projective"
    HOMEOMORPHISM = "homeomorphism"
    NON_INJECTIVE = "non-injective"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class RegimeReport:
    """Classification of an affine sphere map by its pullback norm ||T^-1 a||.

    For the non-injective regime the two antipodal witness points
    +/- T^-1(a)/||T^-1(a)|| are attached; both map to a/||a||.
    """

    regime: Regime
    pullback_norm: float
    witness: np.ndarray | None  # shape (2, d) when regime is NON_INJECTIVE


def affine_is_homeomorphism(T, a, config: Config = DEFAULT_CONFIG) -> RegimeReport:
    """Classify the affine sphere map built from (T, a).

    The map is a homeomorphism iff ||T^-1(a)|| < 1.  Values within the
    classification band of 1 are Degenerate: the map can annihilate a
    point exactly there, so no side is guessed.
    """
    T = as_matrix(T)
    a = _checked_translation(T, a)
    if float(np.linalg.norm(a)) == 0.0:
        raise ZeroTranslation("use the projective action for a = 0")
    with np.errstate(over="ignore", invalid="ignore"):
        pullback = matrix_inverse(T, config) @ a
        rho = float(np.linalg.norm(pullback))
    if not rho < math.inf:
        raise InvalidTranslation("||T^-1 a|| overflows")
    if abs(rho - 1.0) <= config.classify_tol:
        return RegimeReport(Regime.DEGENERATE, rho, None)
    if rho < 1.0:
        return RegimeReport(Regime.HOMEOMORPHISM, rho, None)
    x = pullback / rho
    return RegimeReport(Regime.NON_INJECTIVE, rho, np.stack([x, -x]))


@dataclass(frozen=True)
class AffineSphereMap:
    """An invertible matrix with a translation, acting on the unit sphere."""

    matrix: np.ndarray
    translation: np.ndarray
    regime: Regime
    pullback_norm: float

    @classmethod
    def create(cls, T, a=None, config: Config = DEFAULT_CONFIG) -> "AffineSphereMap":
        T = as_matrix(T)
        a = np.zeros(T.shape[0]) if a is None else _checked_translation(T, a)
        if float(np.linalg.norm(a)) == 0.0:
            _nonsingular_det(T, config)
            return cls(T, a, Regime.PROJECTIVE, 0.0)
        report = affine_is_homeomorphism(T, a, config)
        return cls(T, a, report.regime, report.pullback_norm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def describe(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "translation": self.translation.tolist(),
            "regime": self.regime.value,
            "pullback_norm": self.pullback_norm,
        }


def apply_projective(T, x, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """The induced sphere map x -> T(x)/||T(x)||.

    Invariant under positive rescaling of T: any beta > 0 gives the same
    direction, bit-exactly when beta*T is exactly representable.
    """
    T = as_matrix(T)
    x = as_sphere_point(x, T.shape[0], config)
    return unit_vector(T @ x)


def apply_affine(m: AffineSphereMap, x, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """The affine sphere map x -> (a + T(x))/||a + T(x)||.

    Raises DegenerateMap in the degenerate regime.  In the non-injective
    regime a NonInjectiveWarning is emitted and the image is still
    computed, unless the image vector collapses below tolerance.
    """
    if m.regime is Regime.DEGENERATE:
        raise DegenerateMap("pullback norm within tolerance of 1")
    x = as_sphere_point(x, m.dim, config)
    if m.regime is Regime.NON_INJECTIVE:
        warnings.warn(
            "applying a non-injective affine sphere map", NonInjectiveWarning, stacklevel=2
        )
    return _affine_image(m, x, config)


def _affine_image(m: AffineSphereMap, x: np.ndarray, config: Config) -> np.ndarray:
    """(a + T(x))/||a + T(x)|| for a unit x, refused when the image vector collapses."""
    v = m.translation + m.matrix @ x
    n = math.sqrt(float(v.dot(v)))
    if n <= config.classify_tol:
        raise DegenerateMap("map annihilates this point")
    return v / n


def apply_many(m: AffineSphereMap, X: np.ndarray) -> np.ndarray:
    """Vectorized map application on rows of X (no per-point validation).

    A (k, d, d) stack as ``matrix`` gives the (k, n, d) images under each,
    the same numbers as the batched ``X @ matrix.swapaxes(-1, -2)``.  They
    come from one 2-D GEMM of X against the k stacked matrices side by side,
    normalized as (n, k, d) and returned as a (k, n, d) view, because a
    batched matmul makes one small BLAS call per matrix.  This is the
    orbit-pair kernel's one step, so it skips the NumPy wrappers: a
    projective map adds no (all-zero) translation, and the row norm is the
    expression ``np.linalg.norm(V, axis=-1)`` evaluates for real input, so
    the images are bit-identical to that formula up to the sign of zero
    entries.
    """
    W = m.matrix
    if W.ndim == 3:
        k, d = W.shape[0], W.shape[-1]
        V = (X @ W.reshape(-1, d).T).reshape(X.shape[:-1] + (k, d))
    else:
        V = X @ W.T
    if m.regime is not Regime.PROJECTIVE:
        V = V + m.translation
    V = V / np.sqrt(np.add.reduce(V * V, axis=-1, keepdims=True))
    return V.swapaxes(0, 1) if V.ndim == 3 else V


def affine_inverse_image(m: AffineSphereMap, y, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """The unique preimage of y under a homeomorphism-regime affine map.

    Solves ||t * T^-1(y) - T^-1(a)|| = 1 for t > 0; the square of the
    left side is an exact quadratic in t whose constant term
    ||T^-1(a)||^2 - 1 is negative, so there is exactly one positive root
    and no iteration is needed.  The preimage is t0*T^-1(y) - T^-1(a).
    """
    y = as_sphere_point(y, m.dim, config)
    T_inv = matrix_inverse(m.matrix, config)
    u = T_inv @ y
    if m.regime is Regime.PROJECTIVE:
        return unit_vector(u)
    if m.regime is not Regime.HOMEOMORPHISM:
        raise DegenerateMap("inverse image requires the homeomorphism regime")
    w = T_inv @ m.translation
    uu = float(np.dot(u, u))
    uw = float(np.dot(u, w))
    ww = float(np.dot(w, w))
    # uu*t^2 - 2*uw*t + (ww - 1) = 0, ww < 1, so the radicand is a sum of two
    # non-negative floats and no round-off makes it negative
    t0 = (uw + math.sqrt(uw * uw - uu * (ww - 1.0))) / uu
    return t0 * u - w


@dataclass(frozen=True)
class OrbitRecord:
    """Forward orbit of a point: points[k+1] = map(points[k])."""

    points: np.ndarray  # (steps + 1, d)


def orbit(m: AffineSphereMap, x, steps: int, config: Config = DEFAULT_CONFIG) -> OrbitRecord:
    """Record steps+1 orbit points starting at x.

    The regime and the start point are checked once; each step runs
    ``apply_affine``'s arithmetic with both of its tolerance checks (unit
    norm, collapse of the image), so the points are bit-identical to a walk
    of ``apply_affine`` calls.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if m.regime not in (Regime.PROJECTIVE, Regime.HOMEOMORPHISM):
        raise InvalidTranslation(f"orbit requires an invertible regime, got {m.regime.value}")
    pts = np.empty((steps + 1, m.dim))
    pts[0] = as_sphere_point(x, m.dim, config)
    for k in range(steps):
        pts[k + 1] = _affine_image(m, _renormalized(pts[k], config), config)
    return OrbitRecord(points=pts)
