"""Small dense linear algebra: determinants, norms, real canonical forms.

Everything is closed-form for d = 2; d = 3 splits one guaranteed real
root of the characteristic cubic by bracketed bisection and reduces to
a quadratic.  Dimensions above 3 are supported only by
``operator_norm``, ``contraction_subspace`` and orthogonality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import (
    DimensionUnsupported,
    RealSpectrum,
    SingularMatrix,
)


def as_matrix(obj) -> np.ndarray:
    """Validate and return a square real matrix with d >= 2 and finite entries."""
    T = np.array(obj, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DimensionUnsupported(f"expected a square matrix, got shape {T.shape}")
    if T.shape[0] < 2:
        raise DimensionUnsupported("matrices must be at least 2x2")
    if not np.all(np.isfinite(T)):
        raise SingularMatrix("matrix entries must be finite")
    return T


def determinant(T: np.ndarray) -> float:
    """Determinant, closed form for d in {2, 3}."""
    d = T.shape[0]
    if d == 2:
        return float(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0])
    if d == 3:
        return float(
            T[0, 0] * (T[1, 1] * T[2, 2] - T[1, 2] * T[2, 1])
            - T[0, 1] * (T[1, 0] * T[2, 2] - T[1, 2] * T[2, 0])
            + T[0, 2] * (T[1, 0] * T[2, 1] - T[1, 1] * T[2, 0])
        )
    return float(np.linalg.det(T))


def matrix_inverse(T: np.ndarray, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Inverse with an explicit singularity gate."""
    T = as_matrix(T)
    det = determinant(T)
    if abs(det) <= config.singular_tol:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below tolerance")
    if T.shape[0] == 2:
        return np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]]) / det
    return np.linalg.solve(T, np.eye(T.shape[0]))


def operator_norm(T) -> float:
    """Largest singular value; exact closed form for d = 2.

    The 2x2 form sigma = (hypot(a+d, b-c) + hypot(a-d, b+c)) / 2 is
    cancellation-free, so isometries come out as exactly 1.
    """
    return _operator_norm(as_matrix(T))


def _operator_norm(T: np.ndarray) -> float:
    """``operator_norm`` of a matrix that is already square, real and finite."""
    if T.shape[0] == 2:
        (a, b), (c, d) = T.tolist()
        return (math.hypot(a + d, b - c) + math.hypot(a - d, b + c)) / 2.0
    return float(np.linalg.svd(T, compute_uv=False)[0])


def is_orthogonal(T: np.ndarray, tol: float = 1e-9) -> bool:
    T = as_matrix(T)
    return float(np.max(np.abs(T.T @ T - np.eye(T.shape[0])))) <= tol


@dataclass(frozen=True)
class NormalizedMatrix:
    """A positive scale and the unimodular matrix scale * T."""

    scale: float
    unit: np.ndarray


def normalize_to_unimodular(T, config: Config = DEFAULT_CONFIG) -> NormalizedMatrix:
    """Rescale T so its determinant has absolute value one.

    The scale exponent is -1/d for a d x d matrix: only that choice makes
    |det(scale * T)| = 1.  The unit matrix is computed by *division* by
    |det|^(1/d) so that rescaling T by a power of two (or any factor that
    keeps entries exactly representable) yields a bit-identical unit.
    """
    T = as_matrix(T)
    s = det_root(T, config)
    return NormalizedMatrix(scale=1.0 / s, unit=T / s)


def det_root(T: np.ndarray, config: Config = DEFAULT_CONFIG) -> float:
    """|det T|^(1/d) of a validated d x d matrix, behind the singularity gate."""
    d = T.shape[0]
    det = determinant(T)
    if not math.isfinite(det):
        raise SingularMatrix("determinant overflowed")
    if abs(det) <= config.singular_tol:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below tolerance")
    adet = abs(det)
    if d == 2:
        return math.sqrt(adet)
    if d == 3:
        return float(np.cbrt(adet))
    return adet ** (1.0 / d)


# --- real canonical forms (d = 2) -----------------------------------------


@dataclass(frozen=True)
class RealDiagonalizable:
    """T = basis @ diag(eig_major, eig_minor) @ basis^-1, eig_major >= eig_minor."""

    eig_major: float
    eig_minor: float
    basis: np.ndarray


@dataclass(frozen=True)
class JordanBlock:
    """Defective double eigenvalue: T = basis @ [[lam, 1], [0, lam]] @ basis^-1."""

    eigenvalue: float
    basis: np.ndarray


@dataclass(frozen=True)
class ComplexPair:
    """T = basis @ (modulus * Rot(angle)) @ basis^-1 with |det basis| = 1.

    angle lies in (0, pi); the basis is unique up to a rotation, so the
    conditioning ||basis|| * ||basis^-1|| is well defined.
    """

    modulus: float
    angle: float
    basis: np.ndarray


@dataclass(frozen=True)
class EigenStructure:
    eigenvalues: tuple
    semisimple: bool | None  # None when the rank test is ambiguous
    kind: RealDiagonalizable | JordanBlock | ComplexPair
    conditioning: float

    def canonical_factor(self) -> np.ndarray:
        """The middle factor B with T = basis @ B @ basis^-1."""
        k = self.kind
        if isinstance(k, RealDiagonalizable):
            return np.diag([k.eig_major, k.eig_minor])
        if isinstance(k, JordanBlock):
            return np.array([[k.eigenvalue, 1.0], [0.0, k.eigenvalue]])
        return k.modulus * rotation(k.angle)

    def reconstruct(self, config: Config = DEFAULT_CONFIG) -> np.ndarray:
        A = self.kind.basis
        return A @ self.canonical_factor() @ matrix_inverse(A, config)


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _null_direction(M: np.ndarray) -> np.ndarray:
    """Unit kernel vector of a (numerically) singular 2x2 matrix."""
    r0, r1 = M[0], M[1]
    row = r0 if np.dot(r0, r0) >= np.dot(r1, r1) else r1
    v = np.array([row[1], -row[0]])
    n = np.linalg.norm(v)
    if n == 0.0:  # M is the zero matrix; kernel is everything
        return np.array([1.0, 0.0])
    return v / n


def _complex_null_direction(M: np.ndarray) -> np.ndarray:
    r0, r1 = M[0], M[1]
    row = r0 if abs(r0[0]) + abs(r0[1]) >= abs(r1[0]) + abs(r1[1]) else r1
    z = np.array([row[1], -row[0]])
    return z / np.linalg.norm(z)


def _rank_band(sigma: float, threshold: float) -> int:
    """-1 below, +1 above, 0 inside the ambiguity band around a rank threshold."""
    if sigma <= threshold / 10.0:
        return -1
    if sigma >= threshold * 10.0:
        return 1
    return 0


def real_schur_2x2(T, config: Config = DEFAULT_CONFIG) -> EigenStructure:
    """Real canonical decomposition of an invertible 2x2 matrix.

    Discriminates real-distinct, defective, and complex spectra via the
    characteristic discriminant; eigenvalues closer than the cluster
    tolerance are treated as one double eigenvalue and resolved by the
    rank of T - lam*I.
    """
    T = as_matrix(T)
    if T.shape[0] != 2:
        raise DimensionUnsupported("real_schur_2x2 requires d = 2")
    det = determinant(T)
    if abs(det) <= config.singular_tol:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below tolerance")
    scale = operator_norm(T)
    tr = float(T[0, 0] + T[1, 1])
    disc = tr * tr - 4.0 * det
    gap_band = (config.cluster_tol * scale) ** 2

    if disc < -gap_band:
        # complex conjugate pair: re +/- i*im, im > 0
        im = math.sqrt(-disc) / 2.0
        re = tr / 2.0
        modulus = math.hypot(re, im)
        angle = math.atan2(im, re)  # in (0, pi)
        # the eigenvector of the conjugate eigenvalue re - i*im yields
        # T @ [Re z, Im z] = [Re z, Im z] @ (modulus * Rot(+angle))
        lam = complex(re, -im)
        z = _complex_null_direction(T.astype(complex) - lam * np.eye(2))
        M = np.column_stack([z.real, z.imag])
        A = M / math.sqrt(abs(determinant(M)))
        cond = operator_norm(A) * operator_norm(matrix_inverse(A, config))
        return EigenStructure(
            eigenvalues=(complex(re, im), complex(re, -im)),
            semisimple=True,
            kind=ComplexPair(modulus, angle, A),
            conditioning=cond,
        )

    if disc > gap_band:
        rt = math.sqrt(disc)
        lam1 = (tr + rt) / 2.0
        lam2 = (tr - rt) / 2.0
        v1 = _null_direction(T - lam1 * np.eye(2))
        v2 = _null_direction(T - lam2 * np.eye(2))
        A = np.column_stack([v1, v2])
        cond = operator_norm(A) * operator_norm(matrix_inverse(A, config))
        return EigenStructure(
            eigenvalues=(complex(lam1), complex(lam2)),
            semisimple=True,
            kind=RealDiagonalizable(lam1, lam2, A),
            conditioning=cond,
        )

    # double real eigenvalue cluster
    lam = tr / 2.0
    M = T - lam * np.eye(2)
    sigma = operator_norm(M)
    band = _rank_band(sigma, config.rank_tol * scale)
    if band < 0:
        # geometric multiplicity 2: T is lam * Id
        A = np.eye(2)
        return EigenStructure(
            eigenvalues=(complex(lam), complex(lam)),
            semisimple=True,
            kind=RealDiagonalizable(lam, lam, A),
            conditioning=1.0,
        )
    v = _null_direction(M)
    w, *_ = np.linalg.lstsq(M, v, rcond=None)
    A = np.column_stack([v, w])
    det_A = determinant(A)
    if abs(det_A) <= 1e-9 * max(1.0, float(np.linalg.norm(w))):
        # no usable Jordan chain: the matrix is too close to lam * Id for
        # the generalized direction to be meaningful
        return EigenStructure(
            eigenvalues=(complex(lam), complex(lam)),
            semisimple=None if band == 0 else True,
            kind=RealDiagonalizable(lam, lam, np.eye(2)),
            conditioning=1.0,
        )
    cond = operator_norm(A) * operator_norm(matrix_inverse(A, config))
    return EigenStructure(
        eigenvalues=(complex(lam), complex(lam)),
        semisimple=False if band > 0 else None,
        kind=JordanBlock(lam, A),
        conditioning=cond,
    )


# --- spectra for d = 3 ------------------------------------------------------


def _cubic_coefficients(T: np.ndarray) -> tuple[float, float, float]:
    """Monic characteristic polynomial x^3 - c2 x^2 + c1 x - c0."""
    c2 = float(np.trace(T))
    c1 = float(
        (T[1, 1] * T[2, 2] - T[1, 2] * T[2, 1])
        + (T[0, 0] * T[2, 2] - T[0, 2] * T[2, 0])
        + (T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0])
    )
    c0 = determinant(T)
    return c2, c1, c0


# root-finding on the characteristic cubic merges roots closer than about
# the cube root of the multiple-root detection threshold; rank tests treat
# singular values inside this width as undecidable
_CUBIC_MERGE_WIDTH = 1e-4


def eigenvalues_3x3(T, config: Config = DEFAULT_CONFIG) -> tuple:
    """All three eigenvalues, splitting one real root by bracketed bisection.

    Multiple roots are located structurally first (a triple root is the
    root of p'', a double root is a root of p' where p vanishes), since
    polynomial root-finding alone loses most digits at a multiple root.
    The generic case brackets one guaranteed real root, bisects, and
    deflates to a quadratic.
    """
    T = as_matrix(T)
    if T.shape[0] != 3:
        raise DimensionUnsupported("eigenvalues_3x3 requires d = 3")
    scale = operator_norm(T)
    if scale == 0.0:
        return (0j, 0j, 0j)
    W = T / scale
    c2, c1, c0 = _cubic_coefficients(W)

    def p(x):
        return ((x - c2) * x + c1) * x - c0

    def dp(x):
        return (3.0 * x - 2.0 * c2) * x + c1

    # coefficients of W are O(1), so absolute thresholds are meaningful
    x3 = c2 / 3.0
    if abs(p(x3)) <= 1e-13 and abs(dp(x3)) <= 1e-9:
        lam = x3 * scale
        return (complex(lam), complex(lam), complex(lam))
    disc_dp = c2 * c2 - 3.0 * c1
    if disc_dp >= 0.0:
        rt = math.sqrt(disc_dp)
        for q in ((c2 + rt) / 3.0, (c2 - rt) / 3.0):
            if abs(p(q)) <= 1e-13:
                third = c2 - 2.0 * q
                lam, mu = q * scale, third * scale
                return (complex(lam), complex(lam), complex(mu))

    bound = 1.0 + max(abs(c2), abs(c1), abs(c0))
    lo, hi = -bound, bound  # p(lo) < 0 < p(hi) for a monic cubic
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if p(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < config.bisection_tol:
            break
    r = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish
        d = dp(r)
        if d != 0.0:
            r -= p(r) / d
    # deflate: x^3 - c2 x^2 + c1 x - c0 = (x - r)(x^2 + alpha x + beta)
    alpha = r - c2
    beta = c1 + r * alpha
    disc = alpha * alpha - 4.0 * beta
    if disc >= 0.0:
        rt = math.sqrt(disc)
        roots = (r, (-alpha + rt) / 2.0, (-alpha - rt) / 2.0)
        return tuple(complex(x * scale) for x in roots)
    rt = math.sqrt(-disc) / 2.0
    return (
        complex(r * scale),
        complex(-alpha / 2.0 * scale, rt * scale),
        complex(-alpha / 2.0 * scale, -rt * scale),
    )


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues plus a tri-state semisimplicity flag (None = ambiguous).

    When the matrix is confidently defective, ``defective_eigenvalue``
    names the offending real eigenvalue (the cluster mean).
    """

    eigenvalues: tuple
    semisimple: bool | None
    defective_eigenvalue: float | None = None


def spectral_summary(T, config: Config = DEFAULT_CONFIG) -> SpectralSummary:
    """Eigenvalues and semisimplicity for d in {2, 3}."""
    T = as_matrix(T)
    d = T.shape[0]
    if d == 2:
        es = real_schur_2x2(T, config)
        defective = es.kind.eigenvalue if es.semisimple is False else None
        return SpectralSummary(es.eigenvalues, es.semisimple, defective)
    if d != 3:
        raise DimensionUnsupported("spectral_summary supports d in {2, 3}")
    eigs = eigenvalues_3x3(T, config)
    scale = operator_norm(T)
    cluster_gap = config.cluster_tol * max(scale, 1e-300)
    # complex pairs cannot be defective in dimension 3; a pair with a
    # negligible imaginary part is really two nearby real eigenvalues
    reals = sorted(lam.real for lam in eigs if abs(lam.imag) <= cluster_gap)
    semisimple: bool | None = True
    # the cubic path cannot separate roots inside its merge width, so a
    # rank decision is only confident outside that band
    upper = max(10.0 * config.rank_tol, _CUBIC_MERGE_WIDTH) * scale
    lower = config.rank_tol * scale / 10.0
    defective = None
    idx = 0
    while idx < len(reals):
        j = idx
        while j + 1 < len(reals) and reals[j + 1] - reals[j] <= cluster_gap:
            j += 1
        k = j - idx + 1
        if k >= 2:
            lam = sum(reals[idx : j + 1]) / k
            sigmas = np.linalg.svd(T - lam * np.eye(3), compute_uv=False)
            rank_min = sum(1 for s in sigmas if s >= upper)
            rank_max = sum(1 for s in sigmas if s > lower)
            geo_min = 3 - rank_max
            geo_max = 3 - rank_min
            if geo_max < k:
                semisimple = False
                if defective is None:
                    defective = lam
            elif geo_min < k and semisimple is True:
                semisimple = None
        idx = j + 1
    return SpectralSummary(eigs, semisimple, defective)


def invariant_subspace(T: np.ndarray, keep) -> np.ndarray:
    """(d, k) orthonormal basis of the invariant subspace of the k eigenvalues
    ``keep`` accepts (a predicate that treats conjugates alike): the top-k
    left singular vectors of the product of (T - mu) over the rejected mu,
    a conjugate pair entering as one real quadratic factor."""
    P = eye = np.eye(T.shape[0])
    kept = 0
    for mu in np.linalg.eigvals(T):
        if keep(mu):
            kept += 1
        elif mu.imag > 0.0:
            P = P @ (T @ T - 2.0 * mu.real * T + abs(mu) ** 2 * eye)
        elif mu.imag == 0.0:
            P = P @ (T - mu.real * eye)
    return np.linalg.svd(P)[0][:, :kept].copy()


def contraction_subspace(T, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Orthonormal basis of the span of generalized eigenspaces with |lam| < 1.

    Returned as a (d, k) array, k possibly zero, for any dimension d; the
    eigenvalues counted are those below 1 - spectral tolerance in modulus.
    """
    T = as_matrix(T)
    det = determinant(T)
    if abs(det) <= config.singular_tol:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below tolerance")
    cutoff = 1.0 - config.spectral_tol
    return invariant_subspace(T, lambda mu: abs(mu) < cutoff)


def conjugate_to_large_norm(T, beta: float, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Conjugate a complex-spectrum 2x2 matrix to one of large operator norm.

    Returns S = C T C^-1 with C = diag(beta, 1/beta) @ basis^-1, where the
    basis comes from the real canonical form.  The spectrum is preserved;
    for beta above sqrt(5)/|sin(angle)| the norm of S exceeds
    5 * sqrt(det T), since ||S|| >= beta^2 * |modulus * sin(angle)|.
    """
    T = as_matrix(T)
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    es = real_schur_2x2(T, config)
    if not isinstance(es.kind, ComplexPair):
        raise RealSpectrum("conjugate_to_large_norm requires complex eigenvalues")
    A_inv = matrix_inverse(es.kind.basis, config)
    C = np.diag([beta, 1.0 / beta]) @ A_inv
    return C @ T @ matrix_inverse(C, config)
