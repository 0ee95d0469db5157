"""Constructive fixed points and period-2 points of affine sphere maps.

Every construction runs on the determinant-normalized pair: both the
matrix and the translation are divided by |det|^(1/2), which leaves the
sphere map unchanged and lets the resolvent arguments assume det = +-1.
A point x is fixed exactly when some gamma > 0 solves
(gamma*Id - T) x = a with ||x|| = 1, so each branch either reads the
point off an eigen-direction or brackets gamma where the resolvent norm
crosses one and bisects.  Every returned point meets ``residual_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .distality import _first_proximal
from .errors import (
    DimensionMismatch,
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
    as_matrix,
    det_root,
    determinant,
    eigenvalues_3x3,
    is_orthogonal,
    matrix_inverse,
    normalize_to_unimodular,
    operator_norm,
    real_schur_2x2,
    rotation,
)
from .sphere import (
    AffineSphereMap,
    Regime,
    affine_is_homeomorphism,
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

# recurrence times reported on an even-sphere witness, and the steps the
# scan for them evaluates per block
RECURRENCE_HITS = 5
RECURRENCE_BLOCK = 4096


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


def _normalized_pair(T: np.ndarray, a: np.ndarray, config: Config):
    """Divide (T, a) by |det T|^(1/2); the sphere map is unchanged."""
    s = det_root(T, config)
    return T / s, a / s, s


def _require_homeomorphism(T_hat, a_hat, config: Config) -> float:
    report = affine_is_homeomorphism(T_hat, a_hat, config)
    if report.regime is not Regime.HOMEOMORPHISM:
        raise InvalidTranslation(
            f"||T^-1 a|| = {report.pullback_norm:.6g} is not below 1"
        )
    return report.pullback_norm


def _circle_inputs(T, a):
    """Validate a 2x2 matrix and a nonzero 2-vector translation."""
    T = as_matrix(T)
    if T.shape[0] != 2:
        raise DimensionUnsupported("fixed points are built on the circle (d = 2)")
    a = np.asarray(a, dtype=float)
    if a.shape != (2,):
        raise DimensionMismatch("translation must be a 2-vector")
    if float(np.linalg.norm(a)) == 0.0:
        raise ZeroTranslation("the projective action has no translation")
    return T, a


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
    is applied to the coordinates of a in the canonical basis, so the
    value matches the closed forms the bracketing arguments use.
    """
    T = as_matrix(T)
    a = np.asarray(a, dtype=float)
    if a.shape != (T.shape[0],):
        raise DimensionMismatch("translation must match the matrix dimension")
    scale = operator_norm(T)
    gap = config.spectrum_gap_tol * scale
    if T.shape[0] == 2:
        es = real_schur_2x2(T, config)
        for lam in es.eigenvalues:
            if math.hypot(gamma - lam.real, lam.imag) <= gap:
                raise SpectrumCollision(f"gamma = {gamma} touches the spectrum")
        coords = matrix_inverse(es.kind.basis, config) @ a
        return float(np.linalg.norm(_resolvent_vector(es.kind, coords, gamma)))
    if T.shape[0] == 3:
        for lam in eigenvalues_3x3(T, config):
            if math.hypot(gamma - lam.real, lam.imag) <= gap:
                raise SpectrumCollision(f"gamma = {gamma} touches the spectrum")
    return float(np.linalg.norm(np.linalg.solve(gamma * np.eye(T.shape[0]) - T, a)))


def _resolvent_vector(kind, coords: np.ndarray, gamma: float) -> np.ndarray:
    """(gamma*Id - T)^-1 a for the 2x2 T with canonical form ``kind``, given the
    coordinates of a in the canonical basis."""
    c1, c2 = float(coords[0]), float(coords[1])
    if isinstance(kind, RealDiagonalizable):
        vec = np.array([c1 / (gamma - kind.eig_major), c2 / (gamma - kind.eig_minor)])
    elif isinstance(kind, JordanBlock):
        den = gamma - kind.eigenvalue
        vec = np.array([c1 / den + c2 / (den * den), c2 / den])
    else:
        # complex pair: gamma*Id - t*Rot(theta) is never singular for real gamma
        M = gamma * np.eye(2) - kind.modulus * rotation(kind.angle)
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
        vec = inv @ np.array([c1, c2])
    return kind.basis @ vec


# --- bracketed bisection ------------------------------------------------------


def _bisect_to_one(f, lo: float, hi: float, config: Config, context: str) -> float:
    """Find gamma in [lo, hi] with f(gamma) = 1 by plain bisection.

    The endpoints must straddle 1; a same-sign bracket is reported as
    HypothesisNotMet rather than silently widened.  The final interval
    (width below the bisection tolerance) is finished with one secant
    interpolation.
    """
    flo = f(lo) - 1.0
    fhi = f(hi) - 1.0
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise HypothesisNotMet(
            "bracket-endpoint-sign",
            f"{context}: f({lo:.6g}) - 1 = {flo:.3e}, f({hi:.6g}) - 1 = {fhi:.3e}",
        )
    for _ in range(200):
        if hi - lo < config.bisection_tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid) - 1.0
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    if fhi != flo:
        return lo - flo * (hi - lo) / (fhi - flo)
    return 0.5 * (lo + hi)


def _bracketed_point(m: AffineSphereMap, es, a_hat, hi: float, branch: str, context: str,
                     config: Config) -> FixedPointResult:
    """Bisect the resolvent norm of (T_hat, a_hat) to one on [0, hi]; the unit
    resolvent vector at that gamma is the fixed point of ``m``."""
    coords = matrix_inverse(es.kind.basis, config) @ a_hat
    gamma = _bisect_to_one(
        lambda g: float(np.linalg.norm(_resolvent_vector(es.kind, coords, g))),
        0.0, hi, config, context,
    )
    point = unit_vector(_resolvent_vector(es.kind, coords, gamma))
    return _fixed_point(m, point, gamma, branch, config)


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
    T = as_matrix(T)
    report = affine_is_homeomorphism(T, a, config)  # raises ZeroTranslation
    if report.regime is not Regime.HOMEOMORPHISM:
        raise InvalidTranslation(
            f"||T^-1 a|| = {report.pullback_norm:.6g}: map is not a homeomorphism"
        )
    nm = normalize_to_unimodular(T, config)
    es = real_schur_2x2(nm.unit, config)
    if isinstance(es.kind, ComplexPair):
        return find_fixed_point_complex(T, a, config)
    if _top_real_eigenvalue(es.kind) > 0.0:
        return find_fixed_point_real_positive(T, a, config)
    if float(np.max(np.abs(nm.unit + np.eye(2)))) <= config.classify_tol:
        return minus_id_period2_points(np.asarray(a, dtype=float) / det_root(T, config), config)
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
    T, a = _circle_inputs(T, a)
    T_hat, a_hat, _ = _normalized_pair(T, a, config)
    _require_homeomorphism(T_hat, a_hat, config)
    es = real_schur_2x2(T_hat, config)
    if isinstance(es.kind, ComplexPair):
        raise NoPositiveRealEigenvalue("spectrum is complex")
    jordan = isinstance(es.kind, JordanBlock)
    t = _top_real_eigenvalue(es.kind)
    if t <= 0.0:
        raise NoPositiveRealEigenvalue(
            "defective eigenvalue is not positive" if jordan else "both real eigenvalues are negative"
        )
    m = AffineSphereMap.create(T_hat, a_hat, config)
    A = es.kind.basis
    coords = matrix_inverse(A, config) @ a_hat
    a1, a2 = float(coords[0]), float(coords[1])
    ztol = config.coordinate_zero_tol * float(np.linalg.norm(coords))
    guard = config.guard_offset * operator_norm(T_hat)

    if abs(a2) <= ztol:
        gamma = float(np.linalg.norm(a_hat)) + t
        return _fixed_point(m, unit_vector(a_hat), gamma, BRANCH_ALIGNED_MAJOR, config)
    if jordan:
        return _bracketed_point(
            m, es, a_hat, t - guard, BRANCH_BISECTION_DEFECTIVE, "defective resolvent", config
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
        m, es, a_hat, t0 - guard, BRANCH_BISECTION, "diagonalizable resolvent", config
    )


def find_fixed_point_complex(T, a, config: Config = DEFAULT_CONFIG) -> FixedPointResult:
    """Fixed point of the affine circle map for a complex-spectrum matrix.

    Requires (after det-normalization) cos(theta) > 0 and
    |sin(theta)| <= ||T^-1 a|| / (||A|| * ||A^-1||); under that hypothesis
    the resolvent norm crosses one on (0, cos(theta)] and the crossing
    is bisected.  A failed inequality raises HypothesisNotMet naming the
    inequality; a wrong point is never returned.
    """
    T, a = _circle_inputs(T, a)
    if determinant(T) <= 0.0:
        raise RealSpectrum("negative determinant forces real eigenvalues")
    T_hat, a_hat, _ = _normalized_pair(T, a, config)
    rho = _require_homeomorphism(T_hat, a_hat, config)
    es = real_schur_2x2(T_hat, config)
    if not isinstance(es.kind, ComplexPair):
        raise RealSpectrum("eigenvalues are real; use the positive-eigenvalue branch")
    theta = es.kind.angle
    r1 = math.cos(theta)
    if r1 <= 0.0:
        raise HypothesisNotMet("nonpositive-cosine", f"cos(theta) = {r1:.6g}")
    sin_bound = rho / es.conditioning
    if abs(math.sin(theta)) > sin_bound:
        raise HypothesisNotMet(
            "sine-exceeds-translation-bound",
            f"|sin(theta)| = {abs(math.sin(theta)):.6g} > {sin_bound:.6g}",
        )
    m = AffineSphereMap.create(T_hat, a_hat, config)
    return _bracketed_point(
        m, es, a_hat, es.kind.modulus * r1, BRANCH_BISECTION_ROTATION, "rotation resolvent", config
    )


def minus_id_period2_points(a, config: Config = DEFAULT_CONFIG) -> PeriodicPoints2:
    """The four period-2 points of the affine circle map with T = -Id.

    They are a/||a||, its antipode, and the two unit solutions of
    ||x|| = ||a - x|| = 1, namely a/2 +- p*sqrt(1 - ||a||^2/4) for the
    unit perpendicular p.  Valid for 0 < ||a|| < 1.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2,):
        raise DimensionMismatch("translation must be a 2-vector")
    na = float(np.linalg.norm(a))
    if not 0.0 < na < 1.0:
        raise InvalidTranslation(f"need 0 < ||a|| < 1, got {na:.6g}")
    abar = a / na
    perp = np.array([-abar[1], abar[0]])
    x0 = a / 2.0 + perp * math.sqrt(1.0 - na * na / 4.0)
    x1 = a - x0
    m = AffineSphereMap.create(-np.eye(2), a, config)
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
    double-angle bracket; cos(theta) <= 0 needs ||T|| > 5*sqrt(det) and
    brackets at gamma = 1 with a large translation.  Everything else is
    outside the covered classes.
    """
    T = as_matrix(T)
    if T.shape[0] != 2:
        raise DimensionUnsupported("witness selection works on the circle (d = 2)")
    T_hat, _, s_div = _normalized_pair(T, np.zeros(2), config)
    es = real_schur_2x2(T_hat, config)

    if not isinstance(es.kind, ComplexPair):
        top_eig = _top_real_eigenvalue(es.kind)
        if top_eig > 0.0:
            # case A: any direction works; take the first basis vector
            direction = np.array([1.0, 0.0])
            pull = float(np.linalg.norm(matrix_inverse(T_hat, config) @ direction))
            a = (0.5 / pull) * direction * s_div
            return a, find_fixed_point_real_positive(T, a, config)
        # case B: both eigenvalues negative; the eigen-direction is a 2-cycle
        a_hat = (abs(top_eig) / 2.0) * unit_vector(es.kind.basis[:, 0])
        m = AffineSphereMap.create(T_hat, a_hat, config)
        p0 = unit_vector(a_hat)
        points = np.stack([p0, apply_affine(m, p0, config)])
        return a_hat * s_div, _period2_points(m, points, (1, 0), config)

    theta = es.kind.angle
    r1 = math.cos(theta)

    if r1 > 0.0:
        if not is_orthogonal(T_hat, config.classify_tol):
            # case D: pick a with ||T^-1 a|| < 1 < ||T a|| and bracket on (0, 2*cos(theta))
            _, sv, Vh = np.linalg.svd(T_hat @ T_hat)
            n2 = float(sv[0])
            if n2 > 1.0 + config.classify_tol:
                a_hat = ((1.0 / n2 + 1.0) / 2.0) * (T_hat @ Vh[0])
                m = AffineSphereMap.create(T_hat, a_hat, config)
                result = _bracketed_point(
                    m, es, a_hat, 2.0 * es.kind.modulus * r1, BRANCH_BISECTION_DOUBLE_ANGLE,
                    "double-angle resolvent", config,
                )
                return a_hat * s_div, result
        # case C (and D when ||T^2|| <= 1): |sin(theta)| < ||a|| < 1, centered in the band
        a = np.array([(abs(math.sin(theta)) + 1.0) / 2.0, 0.0]) * s_div
        return a, find_fixed_point_complex(T, a, config)

    # cos(theta) <= 0: needs a large norm to push the resolvent above 1 at gamma = 1
    big_norm = operator_norm(T_hat)
    if big_norm <= 5.0:
        raise OutsideCoveredClasses(
            "rotation-like maps with nonpositive cosine and ||T|| <= 5*sqrt(det) "
            "have no constructive witness here"
        )
    w = np.linalg.svd(T_hat)[2][0]
    a_hat = (min(6.0, (5.0 + big_norm) / 2.0) / big_norm) * (T_hat @ w)
    m = AffineSphereMap.create(T_hat, a_hat, config)
    result = _bracketed_point(
        m, es, a_hat, es.kind.modulus, BRANCH_BISECTION_LARGE_TRANSLATION,
        "large-translation resolvent", config,
    )
    return a_hat * s_div, result


# --- even-sphere isometry witness -------------------------------------------------


def _circle_pair_search(m: AffineSphereMap, plane: np.ndarray, iterations: int, config: Config):
    """Proximal-pair search with both points confined to the invariant circle
    spanned by ``plane``: 16 sampled pairs, hits below ``recurrence_eps``."""
    rng = np.random.default_rng(config.rng_seed)
    min_angle = 2.0 * math.asin(config.oracle.delta / 2.0)
    psi_x = rng.uniform(0.0, 2.0 * math.pi, 16)
    psi_y = psi_x + rng.uniform(min_angle, 2.0 * math.pi - min_angle, 16)
    e1, e2 = plane[:, 0], plane[:, 1]
    X0 = np.cos(psi_x)[:, None] * e1 + np.sin(psi_x)[:, None] * e2
    Y0 = np.cos(psi_y)[:, None] * e1 + np.sin(psi_y)[:, None] * e2
    return _first_proximal(m, X0, Y0, iterations, config.recurrence_eps)


def _recurrence_times(phi: float, config: Config) -> tuple:
    """Iteration counts m with ||U^m - Id|| small for a rotation by phi."""
    if abs(phi) < 1e-12:
        return (1, 2, 3)
    frac = Fraction(phi / (2.0 * math.pi)).limit_denominator(4096)
    q = frac.denominator
    if q <= config.recurrence_scan and abs(2.0 * math.sin(q * phi / 2.0)) < 1e-9:
        return (q, 2 * q, 3 * q)
    # scan 1..recurrence_scan block by block and stop at the fifth hit
    hits = []
    stop = config.recurrence_scan + 1
    for start in range(1, stop, RECURRENCE_BLOCK):
        steps = np.arange(start, min(start + RECURRENCE_BLOCK, stop))
        gaps = np.abs(2.0 * np.sin(steps * phi / 2.0))
        hits += steps[gaps < config.recurrence_eps].tolist()
        if len(hits) >= RECURRENCE_HITS:
            break
    return tuple(hits[:RECURRENCE_HITS])


def isometry_even_sphere_witness(T, config: Config = DEFAULT_CONFIG):
    """Translation and proximal pair showing an S^2 isometry map is not distal.

    For an orthogonal 3x3 matrix: if the spectrum is all real (T is an
    involution) the problem restricts to an invariant coordinate plane
    and delegates to the circle witness; otherwise T fixes an axis up to
    sign, the translation is placed on that axis, and T factors into
    commuting isometries T = U D with D acting only on the axis and U
    only on the rotation plane.  The pair lives on the invariant circle
    through the axis, converges under the D-part, and the recurrence
    times of U (returned on the pair) are when the full map revisits it.
    """
    T = as_matrix(T)
    if T.shape[0] != 3:
        raise DimensionUnsupported("even-sphere witness is implemented for d = 3")
    if not is_orthogonal(T, config.classify_tol):
        raise NotOrthogonal("witness construction needs an isometry")

    iterations = max(config.oracle.iterations, 4000)

    symmetric_defect = float(np.max(np.abs(T - T.T)))
    if symmetric_defect <= config.classify_tol:
        # involution: all eigenvalues are +-1, eigh gives exact invariant planes
        eigvals, eigvecs = np.linalg.eigh((T + T.T) / 2.0)
        plane = eigvecs[:, :2]  # ascending: prefers the negative pair
        T_plane = plane.T @ T @ plane
        a_plane, _ = choose_nondistal_witness(T_plane, config)
        a = plane @ a_plane
        m_full = AffineSphereMap.create(T, a, config)
        found = _circle_pair_search(m_full, plane, iterations, config)
        if found is None:
            raise SphereDistalError("invariant-plane pair search exhausted its budget")
        return a, replace(found, recurrence_times=())

    # exactly one real eigenvalue: its sign is the determinant
    sigma = 1.0 if determinant(T) > 0.0 else -1.0
    M = T - sigma * np.eye(3)
    axis = np.linalg.svd(M)[2][-1]
    axis = axis / np.linalg.norm(axis)
    a = 0.5 * axis
    D = np.eye(3) + (sigma - 1.0) * np.outer(axis, axis)
    U = T @ D  # D is its own inverse
    k = int(np.argmin(np.abs(axis)))
    b = np.eye(3)[k] - axis[k] * axis
    b = b / np.linalg.norm(b)
    plane = np.column_stack([axis, b])

    m_axis = AffineSphereMap.create(D, a, config)
    found = _circle_pair_search(m_axis, plane, iterations, config)
    if found is None:
        raise SphereDistalError("axis-circle pair search exhausted its budget")

    cos_phi = max(-1.0, min(1.0, (float(np.trace(U)) - 1.0) / 2.0))
    times = _recurrence_times(math.acos(cos_phi), config)

    # verify against the full map; the U factor is an isometry, so the
    # separations match the D-only search
    m_full = AffineSphereMap.create(T, a, config)
    pair = _first_proximal(m_full, found.x[None], found.y[None], iterations, config.recurrence_eps)
    if pair is None:
        raise SphereDistalError("even-sphere witness failed verification")
    return a, replace(pair, recurrence_times=times)
