"""Constructive fixed points and period-2 points of affine sphere maps.

Every construction runs on the determinant-normalized pair: both the
matrix and the translation are divided by |det|^(1/2), which leaves the
sphere map unchanged and lets the resolvent arguments assume det = +-1.
A point x is fixed exactly when some gamma > 0 solves
(gamma*Id - T) x = a with ||x|| = 1, so each branch either reads the
point off an eigen-direction or bisects gamma, in Python floats, to where
the resolvent norm crosses one.  Every returned point meets ``residual_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .distality import ProximalPair
from .errors import (
    DimensionUnsupported,
    HypothesisNotMet,
    InvalidTranslation,
    NoPositiveRealEigenvalue,
    NotOrthogonal,
    OutsideCoveredClasses,
    RealSpectrum,
    SpectrumCollision,
    SphereDistalError,
    ZeroTranslation,
)
from .linalg import (
    ComplexPair,
    JordanBlock,
    RealDiagonalizable,
    _operator_norm,
    _real_schur_2x2,
    _unimodular,
    as_matrix,
    determinant,
    is_orthogonal,
    matrix_inverse,
    rotation,
)
from .sphere import (
    AffineSphereMap,
    Regime,
    _affine_map,
    _checked_translation,
    apply_affine,
    unit_vector,
)

BRANCH_ALIGNED_MAJOR = "aligned-major-axis"
BRANCH_ALIGNED_MINOR = "aligned-minor-axis"
BRANCH_MINOR_CROSSING = "minor-axis-crossing"
BRANCH_BISECTION = "resolvent-bisection"
BRANCH_BISECTION_DEFECTIVE = "resolvent-bisection-defective"
BRANCH_BISECTION_ROTATION = "resolvent-bisection-rotation"
BRANCH_BISECTION_DOUBLE_ANGLE = "resolvent-bisection-double-angle"
BRANCH_BISECTION_LARGE_TRANSLATION = "resolvent-bisection-large-translation"


@dataclass(frozen=True)
class FixedPointResult:
    """A fixed point of the affine sphere map, with its construction data.

    ``gamma`` is the resolvent parameter for the determinant-normalized
    pair: gamma * point - T_hat(point) = a_hat.  ``residual`` is the
    distance between the point and its image under the map.
    """

    point: np.ndarray
    gamma: float
    residual: float
    branch: str


@dataclass(frozen=True)
class PeriodicPoints2:
    """Period-2 points, stored with their cycle pairing.

    points[k] maps to points[partner[k]]; residuals measure the defect
    of the squared map at each point.
    """

    points: np.ndarray  # (k, d)
    partner: tuple
    residuals: np.ndarray


def _circle_map(T, a, config: Config):
    """The affine circle map of the determinant-normalized pair and its real
    canonical form.  Checks the translation's shape, finiteness and norm, the
    determinant, the normalized translation's norm (zero, or one that
    underflows), the homeomorphism regime and d = 2, in that order."""
    T = as_matrix(T)
    a = _checked_translation(T, a)
    s, T_hat = _unimodular(T, config)
    with np.errstate(over="ignore"):  # an a / s that overflows fails the regime test
        m = _homeomorphism(T_hat, a / s, config)
    if T.shape[0] != 2:
        raise DimensionUnsupported("fixed points are built on the circle (d = 2)")
    return m, _real_schur_2x2(m.matrix, config)


def _homeomorphism(T_hat, a_hat, config: Config) -> AffineSphereMap:
    """The affine map of a determinant-normalized pair, refused where ||a_hat||,
    which the solvers divide by, is zero (a = 0, or a norm that underflows)
    and outside the homeomorphism regime."""
    if float(np.linalg.norm(a_hat)) == 0.0:
        raise ZeroTranslation("the translation is zero or its norm underflows")
    m = _affine_map(T_hat, a_hat, config)
    if m.regime is not Regime.HOMEOMORPHISM:
        raise InvalidTranslation(f"||T^-1 a|| = {m.pullback_norm:.6g}: map is not a homeomorphism")
    return m


def _top_real_eigenvalue(kind) -> float:
    """The eigenvalue of a real 2x2 canonical form whose sign picks the construction."""
    return kind.eigenvalue if isinstance(kind, JordanBlock) else kind.eig_major


def _check_residual(residual: float, what: str, config: Config) -> None:
    if not residual <= config.residual_tol:
        raise HypothesisNotMet(
            "residual-above-tolerance",
            f"{what}: residual {residual:.3e} > {config.residual_tol:.3e}",
        )


def _fixed_point(m: AffineSphereMap, point, gamma: float, branch: str, config: Config):
    """The FixedPointResult for ``point``, checked against ``residual_tol``."""
    residual = float(np.linalg.norm(apply_affine(m, point, config) - point))
    _check_residual(residual, branch, config)
    return FixedPointResult(point, gamma, residual, branch)


def _period2_points(m: AffineSphereMap, points: np.ndarray, partner: tuple, config: Config):
    """The PeriodicPoints2 for ``points``, checked against ``residual_tol``."""
    residuals = np.empty(len(points))
    for k in range(len(points)):
        image = apply_affine(m, points[k], config)
        residuals[k] = np.linalg.norm(apply_affine(m, image, config) - points[k])
    _check_residual(float(np.max(residuals)), "period-2", config)
    return PeriodicPoints2(points, partner, residuals)


# --- resolvent norm ---------------------------------------------------------


def resolvent_norm(T, a, gamma: float, config: Config = DEFAULT_CONFIG) -> float:
    """||(gamma*Id - T)^-1 (a)||, computed through the real canonical form.

    For d = 2 the resolvent of the diagonal, Jordan, or rotation factor
    is applied to the coordinates of a in the canonical basis, in Python
    floats, and the norm is the one the bisection brackets; d >= 3 solves
    directly, gated on LAPACK's eigenvalues.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    T = as_matrix(T)
    a = _checked_translation(T, a)
    gap = config.spectrum_gap_tol * _operator_norm(T)
    es = _real_schur_2x2(T, config) if T.shape[0] == 2 else None
    for lam in np.linalg.eigvals(T) if es is None else es.eigenvalues:
        if math.hypot(gamma - lam.real, lam.imag) <= gap:
            raise SpectrumCollision(f"gamma = {gamma} touches the spectrum")
    if es is None:
        return float(np.linalg.norm(np.linalg.solve(gamma * np.eye(T.shape[0]) - T, a)))
    return _norm(_resolvent(es.kind, matrix_inverse(es.kind.basis, config) @ a)(gamma))


def _norm(w) -> float:
    """The Euclidean norm of a resolvent pair (w0, w1)."""
    return math.sqrt(w[0] * w[0] + w[1] * w[1])


def _resolvent(kind, coords: np.ndarray):
    """gamma -> (gamma*Id - T)^-1 a as two Python floats, for the 2x2 T with canonical
    form ``kind`` and the coordinates of a in its basis B.  What does not depend on
    gamma is read once; a call solves the canonical factor for z and returns B z."""
    c1, c2 = float(coords[0]), float(coords[1])
    if isinstance(kind, RealDiagonalizable):
        major, minor = kind.eig_major, kind.eig_minor

        def inner(gamma):
            return c1 / (gamma - major), c2 / (gamma - minor)
    elif isinstance(kind, JordanBlock):
        lam = kind.eigenvalue

        def inner(gamma):
            den = gamma - lam
            return c1 / den + c2 / (den * den), c2 / den
    else:
        # gamma*Id - t*Rot(theta) is never singular for real gamma; r01 and r10
        # are nonzero, so 0.0 - r01 is bit-identical to gamma*0.0 - r01
        (r00, r01), (r10, r11) = (kind.modulus * rotation(kind.angle)).tolist()

        def inner(gamma):
            m00, m01, m10, m11 = gamma - r00, 0.0 - r01, 0.0 - r10, gamma - r11
            det = m00 * m11 - m01 * m10
            p00, p01, p10, p11 = m11 / det, -m01 / det, -m10 / det, m00 / det
            return p00 * c1 + p01 * c2, p10 * c1 + p11 * c2
    (b00, b01), (b10, b11) = kind.basis.tolist()

    def vector(gamma):
        z0, z1 = inner(gamma)
        return b00 * z0 + b01 * z1, b10 * z0 + b11 * z1

    return vector


# --- bracketed bisection ------------------------------------------------------


def _bisect_to_one(f, lo: float, hi: float, config: Config, context: str) -> float:
    """Find gamma in [lo, hi] with f(gamma) = 1 by plain bisection.

    The endpoints must straddle 1; a same-sign bracket is reported as
    HypothesisNotMet rather than silently widened.  f is evaluated at the
    two ends and once per halving.  The final interval (narrower than the
    bisection tolerance, or with no float inside) is finished with one
    secant through the values at its ends, which still straddle 1.
    """
    flo, fhi = f(lo) - 1.0, f(hi) - 1.0
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise HypothesisNotMet(
            "bracket-endpoint-sign",
            f"{context}: f({lo:.6g}) - 1 = {flo:.3e}, f({hi:.6g}) - 1 = {fhi:.3e}",
        )
    rising = fhi > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < config.bisection_tol or mid == lo or mid == hi:
            break
        fm = f(mid) - 1.0
        if fm == 0.0:
            return mid
        if (fm > 0.0) == rising:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo - flo * (hi - lo) / (fhi - flo)


def _bracketed_point(m: AffineSphereMap, es, hi: float, branch: str, context: str,
                     config: Config) -> FixedPointResult:
    """Bisect the resolvent norm of ``m``'s pair (T_hat, a_hat) to one on [0, hi];
    the unit resolvent vector at that gamma is its fixed point.  The resolvent
    is prepared once per solve, so a step is a few Python float operations."""
    vector = _resolvent(es.kind, matrix_inverse(es.kind.basis, config) @ m.translation)
    gamma = _bisect_to_one(lambda g: _norm(vector(g)), 0.0, hi, config, context)
    return _fixed_point(m, unit_vector(vector(gamma)), gamma, branch, config)


# --- fixed points on the circle -------------------------------------------------


def find_fixed_point(T, a, config: Config = DEFAULT_CONFIG):
    """Fixed point (or the period-2 points of -Id) of the affine circle map.

    Routes on the eigenvalue class of the normalized matrix: a complex
    spectrum goes to find_fixed_point_complex, a positive top real
    eigenvalue to find_fixed_point_real_positive, and -Id (up to scale)
    to minus_id_period2_points, which returns a PeriodicPoints2.  Other
    matrices with negative eigenvalues raise OutsideCoveredClasses;
    choose_nondistal_witness picks a translation that works for them.
    """
    m, es = _circle_map(T, a, config)
    if isinstance(es.kind, ComplexPair):
        return _complex_point(m, es, config)
    if _top_real_eigenvalue(es.kind) > 0.0:
        return _real_positive_point(m, es, config)
    if float(np.max(np.abs(m.matrix + np.eye(2)))) <= config.classify_tol:
        return minus_id_period2_points(m.translation, config)
    raise OutsideCoveredClasses(
        "both eigenvalues negative and T is not -Id: no construction for this a; "
        "try the witness command"
    )


def find_fixed_point_real_positive(T, a, config: Config = DEFAULT_CONFIG) -> FixedPointResult:
    """Fixed point of the affine circle map when T has a positive real eigenvalue.

    After normalizing det = +-1, the translation is expressed in the
    eigenbasis coordinates (a1, a2) and the construction follows five
    cases: a on the major axis, a on the minor axis with positive or
    negative second eigenvalue, the generic two-coordinate bracket, and
    the defective (Jordan) bracket.
    """
    return _real_positive_point(*_circle_map(T, a, config), config)


def _real_positive_point(m: AffineSphereMap, es, config: Config) -> FixedPointResult:
    """find_fixed_point_real_positive on the prepared map ``m``."""
    if isinstance(es.kind, ComplexPair):
        raise NoPositiveRealEigenvalue("spectrum is complex")
    jordan = isinstance(es.kind, JordanBlock)
    t = _top_real_eigenvalue(es.kind)
    if t <= 0.0:
        raise NoPositiveRealEigenvalue(
            "defective eigenvalue is not positive" if jordan else "both real eigenvalues are negative"
        )
    a_hat = m.translation
    A = es.kind.basis
    coords = matrix_inverse(A, config) @ a_hat
    a1, a2 = float(coords[0]), float(coords[1])
    ztol = config.coordinate_zero_tol * float(np.linalg.norm(coords))
    guard = config.guard_offset * _operator_norm(m.matrix)

    if abs(a2) <= ztol:
        gamma = float(np.linalg.norm(a_hat)) + t
        return _fixed_point(m, unit_vector(a_hat), gamma, BRANCH_ALIGNED_MAJOR, config)
    if jordan:
        return _bracketed_point(
            m, es, t - guard, BRANCH_BISECTION_DEFECTIVE, "defective resolvent", config
        )
    s = es.kind.eig_minor
    if abs(a1) <= ztol and s > 0.0:
        gamma = float(np.linalg.norm(a_hat)) + s
        return _fixed_point(m, unit_vector(a_hat), gamma, BRANCH_ALIGNED_MINOR, config)
    if abs(a1) <= ztol and s < 0.0:
        # solve ||x0 * u + c * v|| = 1 for the positive root x0
        c = a2 / (t - s)
        u, v = A[:, 0], A[:, 1]
        qa = float(u @ u)
        qb = 2.0 * c * float(u @ v)
        qc = c * c * float(v @ v) - 1.0
        x0 = (-qb + math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))) / (2.0 * qa)
        return _fixed_point(m, unit_vector(x0 * u + c * v), t, BRANCH_MINOR_CROSSING, config)
    t0 = min(t, s) if s > 0.0 else t
    return _bracketed_point(
        m, es, t0 - guard, BRANCH_BISECTION, "diagonalizable resolvent", config
    )


def find_fixed_point_complex(T, a, config: Config = DEFAULT_CONFIG) -> FixedPointResult:
    """Fixed point of the affine circle map for a complex-spectrum matrix.

    Requires (after det-normalization) cos(theta) > 0 and
    |sin(theta)| <= ||T^-1 a|| / (||A|| * ||A^-1||); under that hypothesis
    the resolvent norm crosses one on (0, cos(theta)] and the crossing
    is bisected.  A failed inequality raises HypothesisNotMet naming the
    inequality; a wrong point is never returned.
    """
    return _complex_point(*_circle_map(T, a, config), config)


def _complex_point(m: AffineSphereMap, es, config: Config) -> FixedPointResult:
    """find_fixed_point_complex on the prepared map ``m``."""
    if not isinstance(es.kind, ComplexPair):
        raise RealSpectrum("eigenvalues are real; use the positive-eigenvalue branch")
    theta = es.kind.angle
    r1 = math.cos(theta)
    if r1 <= 0.0:
        raise HypothesisNotMet("nonpositive-cosine", f"cos(theta) = {r1:.6g}")
    sin_bound = m.pullback_norm / es.conditioning
    if abs(math.sin(theta)) > sin_bound:
        raise HypothesisNotMet(
            "sine-exceeds-translation-bound",
            f"|sin(theta)| = {abs(math.sin(theta)):.6g} > {sin_bound:.6g}",
        )
    return _bracketed_point(
        m, es, es.kind.modulus * r1, BRANCH_BISECTION_ROTATION, "rotation resolvent", config
    )


def minus_id_period2_points(a, config: Config = DEFAULT_CONFIG) -> PeriodicPoints2:
    """The four period-2 points of the affine circle map with T = -Id.

    They are a/||a||, its antipode, and the two unit solutions of
    ||x|| = ||a - x|| = 1, namely a/2 +- p*sqrt(1 - ||a||^2/4) for the
    unit perpendicular p.  Valid for 0 < ||a|| < 1.
    """
    T = -np.eye(2)
    a = _checked_translation(T, a)
    na = float(np.linalg.norm(a))
    if not 0.0 < na < 1.0:
        raise InvalidTranslation(f"need 0 < ||a|| < 1, got {na:.6g}")
    abar = a / na
    perp = np.array([-abar[1], abar[0]])
    x0 = a / 2.0 + perp * math.sqrt(1.0 - na * na / 4.0)
    x1 = a - x0
    m = _affine_map(T, a, config)
    return _period2_points(m, np.stack([abar, -abar, x0, x1]), (1, 0, 3, 2), config)


# --- witness selection ----------------------------------------------------------


def choose_nondistal_witness(T, config: Config = DEFAULT_CONFIG):
    """Pick a translation a making the affine circle map provably not distal.

    Returns (a, result) where result is a FixedPointResult or
    PeriodicPoints2 for the map built from (T, a).  Case ledger after
    det-normalization: a positive real eigenvalue delegates to the
    positive-eigenvalue solver with ||T^-1 a|| = 1/2; two negative real
    eigenvalues give the 2-cycle through the eigen-direction; complex
    spectra with cos(theta) in (0, 1) use the isometry bound or the
    double-angle bracket, unless |sin(theta)| rounds to 1; those and
    cos(theta) <= 0 need ||T|| > 5*sqrt(det) and bracket at gamma = 1 with a
    large translation.  Everything else is outside the covered classes.
    """
    T = as_matrix(T)
    if T.shape[0] != 2:
        raise DimensionUnsupported("witness selection works on the circle (d = 2)")
    s_div, T_hat = _unimodular(T, config)
    es = _real_schur_2x2(T_hat, config)

    if not isinstance(es.kind, ComplexPair):
        top_eig = _top_real_eigenvalue(es.kind)
        if top_eig > 0.0:
            # case A: any direction works; take the first basis vector
            direction = np.array([1.0, 0.0])
            pull = float(np.linalg.norm(matrix_inverse(T_hat, config) @ direction))
            a = (0.5 / pull) * direction * s_div
            return a, _real_positive_point(_homeomorphism(T_hat, a / s_div, config), es, config)
        if not top_eig < 0.0:  # the spectral gap band can report a top eigenvalue of 0
            raise OutsideCoveredClasses(
                "real spectra with top eigenvalue 0 have no constructive witness here"
            )
        # case B: both eigenvalues negative; the eigen-direction is a 2-cycle
        a_hat = (abs(top_eig) / 2.0) * unit_vector(es.kind.basis[:, 0])
        m = _affine_map(T_hat, a_hat, config)
        p0 = unit_vector(a_hat)
        points = np.stack([p0, apply_affine(m, p0, config)])
        return a_hat * s_div, _period2_points(m, points, (1, 0), config)

    theta = es.kind.angle
    r1 = math.cos(theta)
    sine = abs(math.sin(theta))

    # case C needs the band |sin(theta)| < ||a|| < 1, empty where |sin(theta)| rounds to 1
    if r1 > 0.0 and (sine + 1.0) / 2.0 < 1.0:
        if not is_orthogonal(T_hat, config.classify_tol):
            # case D: pick a with ||T^-1 a|| < 1 < ||T a|| and bracket on (0, 2*cos(theta))
            _, sv, Vh = np.linalg.svd(T_hat @ T_hat)
            n2 = float(sv[0])
            if n2 > 1.0 + config.classify_tol:
                a_hat = ((1.0 / n2 + 1.0) / 2.0) * (T_hat @ Vh[0])
                m = _affine_map(T_hat, a_hat, config)
                result = _bracketed_point(
                    m, es, 2.0 * es.kind.modulus * r1, BRANCH_BISECTION_DOUBLE_ANGLE,
                    "double-angle resolvent", config,
                )
                return a_hat * s_div, result
        # case C (and D when ||T^2|| <= 1): |sin(theta)| < ||a|| < 1, centered in the band
        a = np.array([(sine + 1.0) / 2.0, 0.0]) * s_div
        return a, _complex_point(_homeomorphism(T_hat, a / s_div, config), es, config)

    # cos(theta) <= 0, or no band: needs a large norm to push the resolvent above 1 at gamma = 1
    big_norm = _operator_norm(T_hat)
    if big_norm <= 5.0:
        failed = (f"cos(theta) = {r1:.6g} <= 0" if r1 <= 0.0 else
                  f"|sin(theta)| = {sine:.17g} leaves no translation band |sin(theta)| < ||a|| < 1")
        raise OutsideCoveredClasses(
            f"rotation-like map with {failed}, and ||T|| = {big_norm:.6g} <= 5*sqrt(det): "
            "no constructive witness here"
        )
    w = np.linalg.svd(T_hat)[2][0]
    a_hat = (min(6.0, (5.0 + big_norm) / 2.0) / big_norm) * (T_hat @ w)
    m = _affine_map(T_hat, a_hat, config)
    result = _bracketed_point(
        m, es, es.kind.modulus, BRANCH_BISECTION_LARGE_TRANSLATION,
        "large-translation resolvent", config,
    )
    return a_hat * s_div, result


# --- even-sphere isometry witness -------------------------------------------------


def isometry_even_sphere_witness(T, config: Config = DEFAULT_CONFIG):
    """Translation and proximal pair showing that an isometry map of the even
    sphere S^(d-1), d odd, is not distal.

    An orthogonal T of odd d has the real eigenvalue sigma = sign det T, with
    a unit eigenvector v.  With a = v/2, the map x -> N(T x + a) moves the
    height z = <x, v> of a unit point x = z v + r w (w a unit vector
    orthogonal to v, r >= 0) by the scalar map z -> (sigma z + 1/2) / q,
    r -> r / q, q = sqrt(5/4 + sigma z), and turns w by T, the same for
    every point.  So two points on one meridian half stay on one, and both
    heights are drawn to the attracting height 1 (sigma = +1) or 1/4
    (sigma = -1, from alternate sides): the pair is asymptotic.  It starts
    at heights 0.9 and 0.5 (0.9 and -0.5 for sigma = -1), and ``steps`` is
    the first step whose separation is below ``recurrence_eps``.
    """
    T = as_matrix(T)
    d = T.shape[0]
    if d % 2 == 0:
        raise DimensionUnsupported("even-sphere witness needs an odd d >= 3")
    if not is_orthogonal(T, config.classify_tol):
        raise NotOrthogonal("witness construction needs an isometry")
    sigma = 1.0 if determinant(T) > 0.0 else -1.0
    v = np.linalg.svd(T - sigma * np.eye(d))[2][-1]
    v = v / np.linalg.norm(v)
    k = int(np.argmin(np.abs(v)))  # the coordinate axis furthest from v, projected off it
    w = np.eye(d)[k] - v[k] * v
    w = w / np.linalg.norm(w)

    zx, zy = 0.9, 0.5 * sigma
    rx, ry = math.sqrt(1.0 - zx * zx), math.sqrt(1.0 - zy * zy)
    x, y = zx * v + rx * w, zy * v + ry * w
    separation_initial = math.hypot(zx - zy, rx - ry)
    for steps in range(1, max(config.oracle.iterations, 4000) + 1):
        qx, qy = math.sqrt(1.25 + sigma * zx), math.sqrt(1.25 + sigma * zy)
        zx, rx = (sigma * zx + 0.5) / qx, rx / qx
        zy, ry = (sigma * zy + 0.5) / qy, ry / qy
        separation = math.hypot(zx - zy, rx - ry)
        if separation < config.recurrence_eps:
            return 0.5 * v, ProximalPair(x, y, steps, separation_initial, separation)
    raise SphereDistalError("even-sphere pair did not come within recurrence_eps in its budget")
