"""Projective and affine actions of invertible matrices on the unit sphere.

The projective action sends x to T(x)/||T(x)||; the affine action sends
x to (a + T(x))/||a + T(x)||.  The affine map is a homeomorphism exactly
when ||T^-1(a)|| < 1, which drives the regime classification below.
All maps re-normalize their output, so long orbits do not drift off the
sphere.  One affine step (``apply_affine``, each step of ``orbit``) runs in
Python floats on T and a divided by the power of two of their largest entry.
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
from .linalg import _inverse, _nonsingular_det, as_matrix, determinant


def unit_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def as_sphere_point(x, d: int | None = None, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Validate a near-unit vector and return it re-normalized."""
    return np.array(_renormalized(_point(x, d), config))


def _point(x, d: int | None) -> list:
    """A 1-d vector, of dimension d when d is given, as a list of floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("sphere points are 1-d vectors")
    if d is not None and x.shape[0] != d:
        raise DimensionMismatch(f"expected a point in dimension {d}, got {x.shape[0]}")
    return x.tolist()


def _dot(u: list, v: list) -> float:
    """sum_i u_i v_i in Python floats, summed left to right."""
    s = u[0] * v[0]
    for p, q in zip(u[1:], v[1:]):
        s += p * q
    return s


def _renormalized(x: list, config: Config) -> list:
    """A point within the unit tolerance of the sphere, divided by its norm."""
    n = math.sqrt(_dot(x, x))
    if not abs(n - 1.0) <= config.unit_norm_tol:  # NaN or inf entries fail too
        raise _off_sphere(n)
    return [v / n for v in x]


def _off_sphere(n: float) -> ValueError:
    return ValueError(f"|norm - 1| = {abs(n - 1):.3e} exceeds the unit tolerance")


def _scaled(T: np.ndarray, a: np.ndarray) -> tuple[list, float]:
    """The entries of T (row by row) and then of a, times s = 2^-e for e the
    binary exponent of their largest entry, as one list of floats; and s.

    The largest entry lands in [1/2, 1).  Multiplying by a power of two is
    exact for every entry that stays normal, so sums and quotients of the
    scaled entries carry the bits of the unscaled ones whenever those neither
    overflow nor underflow, and (2^k T, 2^k a) scales to the same list as
    (T, a).
    """
    entries = T.ravel().tolist() + a.tolist()
    s = math.ldexp(1.0, -math.frexp(max(map(abs, entries)))[1])
    return [v * s for v in entries], s


def _scaled_solve(T: np.ndarray, a: np.ndarray, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """(S^-1, S^-1 b) for S = T / 2^e and b = a / 2^e as ``_scaled`` divides
    them, behind T's own singularity gate.

    S^-1 b is T^-1 a and S^-1 is 2^e T^-1, with the bits of the unscaled solve
    for normal inputs; a 2x2 T whose determinant overflows, which the closed
    form would divide by to get zeros, is solved through S's finite one.  A T
    whose entries span so wide a range that S rounds to singular is solved
    as it is.
    """
    det = _nonsingular_det(T, config)
    d = len(a)
    entries = np.array(_scaled(T, a)[0])
    S, b = entries[:-d].reshape(d, d), entries[-d:]
    det_S = determinant(S)
    if det_S == 0.0:
        S, b, det_S = T, a, det
    S_inv = _inverse(S, det_S)
    return S_inv, S_inv @ b


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


def _norm(v: np.ndarray) -> float:
    """||v||, taken of v / 2^f for f the binary exponent of its largest entry:
    ``np.linalg.norm(v)``'s bits wherever the squares of v neither overflow nor
    underflow, and no 0 or inf where they do.  Called under np.errstate(over=...)."""
    f = math.frexp(float(np.abs(v).max()))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -f)), f))


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
    m = _affine_map(T, a, config)
    if m.regime is Regime.PROJECTIVE:
        raise ZeroTranslation("use the projective action for a = 0")
    if m.regime is not Regime.NON_INJECTIVE:
        return RegimeReport(m.regime, m.pullback_norm, None)
    # the solve _affine_map made, finite: no errstate needed
    x = _scaled_solve(T, a, config)[1] / m.pullback_norm
    return RegimeReport(m.regime, m.pullback_norm, np.stack([x, -x]))


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
        return _affine_map(T, a, config)

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


def _affine_map(T: np.ndarray, a: np.ndarray, config: Config) -> AffineSphereMap:
    """The affine map of a validated T and a translation of its dimension:
    projective when every entry of a is zero, else in the regime its
    pullback norm ||T^-1 a|| decides."""
    if not a.any():
        _nonsingular_det(T, config)
        return AffineSphereMap(T, a, Regime.PROJECTIVE, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = _norm(_scaled_solve(T, a, config)[1])
    if not rho < math.inf:
        raise InvalidTranslation("||T^-1 a|| overflows")
    regime = Regime.HOMEOMORPHISM if rho < 1.0 else Regime.NON_INJECTIVE
    if abs(rho - 1.0) <= config.classify_tol:
        regime = Regime.DEGENERATE
    return AffineSphereMap(T, a, regime, rho)


def apply_projective(T, x, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """The induced sphere map x -> T(x)/||T(x)||.

    Invariant under positive rescaling of T: any beta > 0 gives the same
    direction, bit-exactly when beta*T is exactly representable.
    """
    T = as_matrix(T)
    x = as_sphere_point(x, T.shape[0], config)
    return unit_vector(T @ x)


def apply_affine(m: AffineSphereMap, x, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """The affine sphere map x -> (a + T(x))/||a + T(x)||: one step of ``orbit``.

    Raises DegenerateMap in the degenerate regime.  In the non-injective
    regime a NonInjectiveWarning is emitted and the image is still
    computed, unless the image vector collapses below tolerance.  The image
    is computed in Python floats (see ``_affine_walk``); NumPy's matmul and
    dot land within a few ulps of it.
    """
    if m.regime is Regime.DEGENERATE:
        raise DegenerateMap("pullback norm within tolerance of 1")
    x = _point(x, m.dim)
    if m.regime is Regime.NON_INJECTIVE:
        _renormalized(x, config)  # a point off the sphere is refused before the warning
        warnings.warn(
            "applying a non-injective affine sphere map", NonInjectiveWarning, stacklevel=2
        )
    return np.array(_affine_walk(m, x, 1, config)[m.dim:])


def _affine_walk(m: AffineSphereMap, x: list, steps: int, config: Config) -> list:
    """The coordinates of x, f(x), ..., f^steps(x) for the affine map f, point
    after point in one list of floats (one flat list makes one array fast).

    Each step checks that its point is within ``unit_norm_tol`` of the
    sphere and divides it by its norm, forms a_i + (t_i0 x_0 + t_i1 x_1 + ...)
    summed left to right, refuses an image shorter than ``classify_tol``
    (DegenerateMap) and divides the image by its norm.  T, a and that
    threshold are scaled by the same power of two (``_scaled``): the points
    are those of the unscaled sums wherever those do not overflow, and an
    image's norm cannot overflow.  Unrolled for d = 2 and 3; the loop for
    d >= 4 does the same sums.
    """
    entries, s = _scaled(m.matrix, m.translation)
    floor = config.classify_tol * s  # inf when every image is shorter than classify_tol
    tol, sqrt = config.unit_norm_tol, math.sqrt
    walk = list(x)
    d = len(x)
    if d == 2:
        t00, t01, t10, t11, a0, a1 = entries
        x0, x1 = x
        for _ in range(steps):
            n = sqrt(x0 * x0 + x1 * x1)
            if not abs(n - 1.0) <= tol:
                raise _off_sphere(n)
            if n != 1.0:  # x / 1.0 is x
                x0, x1 = x0 / n, x1 / n
            v0 = a0 + (t00 * x0 + t01 * x1)
            v1 = a1 + (t10 * x0 + t11 * x1)
            n = sqrt(v0 * v0 + v1 * v1)
            if n <= floor:
                raise DegenerateMap("map annihilates this point")
            x0, x1 = v0 / n, v1 / n
            walk += (x0, x1)
    elif d == 3:
        t00, t01, t02, t10, t11, t12, t20, t21, t22, a0, a1, a2 = entries
        x0, x1, x2 = x
        for _ in range(steps):
            n = sqrt(x0 * x0 + x1 * x1 + x2 * x2)
            if not abs(n - 1.0) <= tol:
                raise _off_sphere(n)
            if n != 1.0:  # x / 1.0 is x
                x0, x1, x2 = x0 / n, x1 / n, x2 / n
            v0 = a0 + (t00 * x0 + t01 * x1 + t02 * x2)
            v1 = a1 + (t10 * x0 + t11 * x1 + t12 * x2)
            v2 = a2 + (t20 * x0 + t21 * x1 + t22 * x2)
            n = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
            if n <= floor:
                raise DegenerateMap("map annihilates this point")
            x0, x1, x2 = v0 / n, v1 / n, v2 / n
            walk += (x0, x1, x2)
    else:
        rows, a = [entries[i : i + d] for i in range(0, d * d, d)], entries[-d:]
        for _ in range(steps):
            x = _renormalized(x, config)
            v = [ai + _dot(row, x) for ai, row in zip(a, rows)]
            n = sqrt(_dot(v, v))
            if n <= floor:
                raise DegenerateMap("map annihilates this point")
            x = [vi / n for vi in v]
            walk += x
    return walk


def _squared_norms(V: np.ndarray) -> np.ndarray:
    """The sums of squares of V's rows (its last axis, of length d >= 2), one
    column added at a time, left to right: the bits of
    ``np.add.reduce(V * V, axis=-1)``, whose square root is
    ``np.linalg.norm(V, axis=-1)`` for real V.  NumPy's reduction over a last
    axis of length 2 or 3 costs several times the column sums on a pair
    walk's tail; below 1024 entries it is the cheaper of the two for d >= 3,
    and is taken there."""
    S = V * V
    if S.shape[-1] > 2 and S.size < 1024:
        return np.add.reduce(S, axis=-1)
    total = S[..., 0] + S[..., 1]
    for j in range(2, S.shape[-1]):
        total += S[..., j]
    return total


def apply_many(m: AffineSphereMap, X: np.ndarray) -> np.ndarray:
    """Vectorized map application on rows of X (no per-point validation).

    A (k, d, d) stack as ``matrix`` gives the (k, n, d) images under each,
    the same numbers as the batched ``X @ matrix.swapaxes(-1, -2)``.  They
    come from one 2-D GEMM of X against the k stacked matrices side by side,
    normalized as (n, k, d) and returned as a (k, n, d) view, because a
    batched matmul makes one small BLAS call per matrix.  This is the
    orbit-pair kernel's one step, so it skips the NumPy wrappers: a
    projective map adds no (all-zero) translation, and the row norm is the
    square root of ``_squared_norms``, so the images are bit-identical to
    ``V / np.linalg.norm(V, axis=-1, keepdims=True)`` up to the sign of zero
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
    V = V / np.sqrt(_squared_norms(V))[..., None]
    return V.swapaxes(0, 1) if V.ndim == 3 else V


def affine_inverse_image(m: AffineSphereMap, y, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """The unique preimage of y under a homeomorphism-regime affine map.

    Solves ||t * T^-1(y) - T^-1(a)|| = 1 for t > 0; the square of the
    left side is an exact quadratic in t whose constant term
    ||T^-1(a)||^2 - 1 is negative, so there is exactly one positive root
    and no iteration is needed.  The preimage is t0*T^-1(y) - T^-1(a).
    """
    y = as_sphere_point(y, m.dim, config)
    if m.regime not in (Regime.PROJECTIVE, Regime.HOMEOMORPHISM):
        raise DegenerateMap("inverse image requires the homeomorphism regime")
    # solved for S = T / 2^e: u = 2^e T^-1(y), w = T^-1(a), and t0 comes out
    # as 2^-e times the root for T^-1(y), so t0*u - w is the same preimage
    S_inv, w = _scaled_solve(m.matrix, m.translation, config)
    u = S_inv @ y
    if m.regime is Regime.PROJECTIVE:
        return unit_vector(u)
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

    The regime and the start point are checked once; each step is
    ``apply_affine``'s step in Python floats (``_affine_walk``), with both of
    its tolerance checks (unit norm, collapse of the image), so the points
    are bit-identical to a walk of ``apply_affine`` calls.  A NumPy step
    lands within a few ulps of them.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if m.regime not in (Regime.PROJECTIVE, Regime.HOMEOMORPHISM):
        raise InvalidTranslation(f"orbit requires an invertible regime, got {m.regime.value}")
    walk = _affine_walk(m, _renormalized(_point(x, m.dim), config), steps, config)
    return OrbitRecord(points=np.array(walk, float).reshape(steps + 1, -1))
