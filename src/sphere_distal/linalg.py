"""Small dense linear algebra: determinants, norms, real canonical forms.

Everything is closed-form for d = 2; d = 3 takes its eigenvalues from
LAPACK and merges multiple roots by characteristic-polynomial tests.
Dimensions above 3 are supported only by
``operator_norm``, ``contraction_subspace`` and orthogonality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import DimensionUnsupported, SingularMatrix


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
    """Determinant, closed form for d in {2, 3}, in Python floats: the same IEEE
    products as NumPy's, but one that overflows is inf (or nan) without a warning."""
    d = T.shape[0]
    if d == 2:
        (a, b), (c, e) = T.tolist()
        return float(a * e - b * c)
    if d == 3:
        (a, b, c), (e, f, g), (h, i, j) = T.tolist()
        return float(a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h))
    return float(np.linalg.det(T))


def _nonsingular_det(T: np.ndarray, config: Config) -> float:
    """The determinant of a validated matrix, behind the one singularity gate."""
    det = determinant(T)
    if abs(det) <= config.singular_tol:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below tolerance")
    return det


def matrix_inverse(T: np.ndarray, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Inverse of a validated matrix, with an explicit singularity gate."""
    det = _nonsingular_det(T, config)
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


def _operator_norms(Ts: np.ndarray) -> np.ndarray:
    """``_operator_norm`` of each matrix in a stack (n, d, d), as an array.

    Bit-identical to one ``_operator_norm`` call per matrix.  d >= 3 takes
    one stacked SVD, which runs the same LAPACK routine per matrix.  For 2x2
    the sums are taken column-wise in the same float64 arithmetic and fed to
    the same ``math.hypot``, and the last sum and halving round the same in
    NumPy as in Python.
    """
    if Ts.shape[1] != 2:
        return np.linalg.svd(Ts, compute_uv=False)[:, 0]
    a, b, c, d = Ts.reshape(-1, 4).T
    n, h = len(Ts), math.hypot
    norms = np.fromiter(map(h, (a + d).tolist(), (b - c).tolist()), float, n)
    norms += np.fromiter(map(h, (a - d).tolist(), (b + c).tolist()), float, n)
    norms /= 2.0
    return norms


def is_orthogonal(T: np.ndarray, tol: float = 1e-9) -> bool:
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
    s, unit = _unimodular(as_matrix(T), config)
    return NormalizedMatrix(scale=1.0 / s, unit=unit)


def _unimodular(T: np.ndarray, config: Config) -> tuple[float, np.ndarray]:
    """(s, T / s) with s = |det T|^(1/d) of a validated d x d matrix, behind
    the singularity gate; a quotient that overflows is refused as singular."""
    d = T.shape[0]
    det = _nonsingular_det(T, config)  # a non-finite det never trips the gate
    if not math.isfinite(det):
        raise SingularMatrix("determinant overflowed")
    adet = abs(det)
    if d == 2:
        s = math.sqrt(adet)
    elif d == 3:
        s = float(np.cbrt(adet))
    else:
        s = adet ** (1.0 / d)
    # only s < 1 can overflow, and the largest entry overflows first: Python
    # divides floats as NumPy does, in one correctly rounded IEEE division
    if s < 1.0 and max(map(abs, T.ravel().tolist())) / s == math.inf:
        raise SingularMatrix(f"T / |det|^(1/{d}) overflows")
    return s, T / s


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


def _spectrum_2x2(T: np.ndarray, config: Config) -> tuple:
    """(scale, trace, eigenvalues) of a validated invertible 2x2 matrix.

    The characteristic discriminant tr^2 - 4 det (det behind the singularity
    gate) against the gap band picks the branch: below it a complex pair
    (re + i*im, re - i*im) with im > 0, above it two real eigenvalues (larger
    first), inside it ``eigenvalues`` is None, a double-eigenvalue cluster
    that only a rank test of T - (tr/2) I resolves.  The band is the wider of
    two: eigenvalues within 2 cluster_tol sqrt|det| of each other, that is
    relative to their own modulus, and the rounding radius of the computed
    discriminant.
    """
    det = _nonsingular_det(T, config)
    scale = _operator_norm(T)
    (a, b), (c, e) = T.tolist()
    tr = a + e
    disc = tr * tr - 4.0 * det
    # The rounding radius, with u = 2^-53: the tr^2 term of fl(disc) carries 4
    # roundings (the sum, counted twice by the square, the product, the
    # subtraction) and each det term 3 (its product, det's subtraction, disc's),
    # so by Higham's product bound, prod (1 + delta_i) = 1 + theta_k with
    # |theta_k| <= gamma_k = k u / (1 - k u), fl(disc) is within
    # gamma_4 (tr^2 + 4 (|a e| + |b c|)) of the exact discriminant.  8u is
    # twice gamma_4, so a discriminant outside the band has the exact sign.
    gap_band = max(4.0 * config.cluster_tol ** 2 * abs(det),
                   8.0 * 2.0 ** -53 * (tr * tr + 4.0 * (abs(a * e) + abs(b * c))))
    if disc < -gap_band:
        re, im = tr / 2.0, math.sqrt(-disc) / 2.0
        return scale, tr, (complex(re, im), complex(re, -im))
    if disc > gap_band:
        rt = math.sqrt(disc)
        return scale, tr, (complex((tr + rt) / 2.0), complex((tr - rt) / 2.0))
    return scale, tr, None


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
    scale, tr, eigenvalues = _spectrum_2x2(T, config)
    if eigenvalues is None:
        return _double_eigenvalue_2x2(T, scale, tr, config)
    hi, lo = eigenvalues
    if hi.imag > 0.0:
        # complex conjugate pair: re +/- i*im.  The eigenvector of the
        # conjugate eigenvalue lo = re - i*im yields
        # T @ [Re z, Im z] = [Re z, Im z] @ (modulus * Rot(+angle))
        z = _complex_null_direction(T.astype(complex) - lo * np.eye(2))
        M = np.column_stack([z.real, z.imag])
        A = M / math.sqrt(abs(determinant(M)))
        re, im = hi.real, hi.imag
        kind = ComplexPair(math.hypot(re, im), math.atan2(im, re), A)  # angle in (0, pi)
    else:
        v1 = _null_direction(T - hi.real * np.eye(2))
        v2 = _null_direction(T - lo.real * np.eye(2))
        A = np.column_stack([v1, v2])
        kind = RealDiagonalizable(hi.real, lo.real, A)
    cond = _operator_norm(A) * _operator_norm(matrix_inverse(A, config))
    return EigenStructure(eigenvalues=eigenvalues, semisimple=True, kind=kind, conditioning=cond)


def _double_eigenvalue_2x2(T: np.ndarray, scale: float, tr: float, config: Config) -> EigenStructure:
    """``real_schur_2x2`` for a spectrum inside the cluster band: one double
    eigenvalue lam = tr/2, semisimple or not by the rank of T - lam*I.  The
    form is lam * Id unless a usable Jordan chain makes it a JordanBlock."""
    lam = tr / 2.0
    M = T - lam * np.eye(2)
    band = _rank_band(_operator_norm(M), config.rank_tol * scale)
    kind, cond = RealDiagonalizable(lam, lam, np.eye(2)), 1.0
    if band >= 0:
        v = _null_direction(M)
        w, *_ = np.linalg.lstsq(M, v, rcond=None)
        A = np.column_stack([v, w])
        # a chain with a nearly singular basis is not usable: T is too close
        # to lam * Id for the generalized direction to be meaningful
        if abs(determinant(A)) > 1e-9 * max(1.0, float(np.linalg.norm(w))):
            kind = JordanBlock(lam, A)
            cond = _operator_norm(A) * _operator_norm(matrix_inverse(A, config))
    semisimple = None if band == 0 else not isinstance(kind, JordanBlock)
    return EigenStructure((complex(lam), complex(lam)), semisimple, kind, cond)


# --- spectra for d = 3 ------------------------------------------------------


# the characteristic-polynomial tests of ``_multiple_roots_3x3`` merge roots
# closer than about the cube root of their 1e-13 threshold; rank tests
# treat singular values inside this width as undecidable
_CUBIC_MERGE_WIDTH = 1e-4


def eigenvalues_3x3(T) -> tuple:
    """LAPACK's eigenvalues of a 3x3 matrix: the real ones in descending
    order, then a complex pair with its +imaginary member first."""
    T = as_matrix(T)
    if T.shape[0] != 3:
        raise DimensionUnsupported("eigenvalues_3x3 requires d = 3")
    return _eigenvalues_3x3(T)


def _eigenvalues_3x3(T: np.ndarray) -> tuple:
    return tuple(sorted(map(complex, np.linalg.eigvals(T)), key=lambda z: (z.imag != 0.0, -z.real, -z.imag)))


def _multiple_roots_3x3(T: np.ndarray, eigs: tuple, scale: float) -> tuple:
    """The triple root, or the double root q as (q, q, c2 - 2q), that the
    characteristic polynomial p(x) = x^3 - c2 x^2 + c1 x - c0 of T / scale
    shows, else ``eigs``: root-finding loses most digits there, p does not."""
    c2 = float(np.trace(T / scale))
    l0, l1, l2 = (z / scale for z in eigs)
    c1, c0 = (l0 * l1 + l0 * l2 + l1 * l2).real, (l0 * l1 * l2).real

    def p(x):
        return ((x - c2) * x + c1) * x - c0

    # coefficients of T / scale are O(1), so absolute thresholds are meaningful
    x3 = c2 / 3.0
    if abs(p(x3)) <= 1e-13 and abs((3.0 * x3 - 2.0 * c2) * x3 + c1) <= 1e-9:
        return (complex(x3 * scale),) * 3
    disc_dp = c2 * c2 - 3.0 * c1
    if disc_dp >= 0.0:
        rt = math.sqrt(disc_dp)
        for q in ((c2 + rt) / 3.0, (c2 - rt) / 3.0):
            if abs(p(q)) <= 1e-13:
                return (complex(q * scale),) * 2 + (complex((c2 - 2.0 * q) * scale),)
    return eigs


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
    """Eigenvalues and semisimplicity for d in {2, 3}.

    For d = 2 the characteristic discriminant decides alone unless the
    eigenvalues fall inside the cluster band; only then is the rank of
    T - lam*I tested, as ``real_schur_2x2`` does, and no eigenbasis or
    conditioning is built.  The result equals the summary of
    ``real_schur_2x2(T)`` bit for bit.

    For d = 3 LAPACK's eigenvalues, or the multiple root the characteristic
    polynomial shows, cluster; the singular values of T - lam*I decide.
    """
    return _spectral_summary(as_matrix(T), config)


def _spectral_summary(T: np.ndarray, config: Config) -> SpectralSummary:
    """``spectral_summary`` of a validated matrix."""
    d = T.shape[0]
    if d == 2:
        scale, tr, eigenvalues = _spectrum_2x2(T, config)
        if eigenvalues is not None:
            return SpectralSummary(eigenvalues, True)
        es = _double_eigenvalue_2x2(T, scale, tr, config)
        defective = es.kind.eigenvalue if es.semisimple is False else None
        return SpectralSummary(es.eigenvalues, es.semisimple, defective)
    if d != 3:
        raise DimensionUnsupported("spectral_summary supports d in {2, 3}")
    scale = _operator_norm(T)
    eigs = _eigenvalues_3x3(T)
    if scale > 0.0:  # the zero matrix has three exact zero eigenvalues
        eigs = _multiple_roots_3x3(T, eigs, scale)
    cluster_gap = config.cluster_tol * max(scale, 1e-300)
    # complex pairs cannot be defective in dimension 3; a pair with a
    # negligible imaginary part is really two nearby real eigenvalues
    reals = sorted(lam.real for lam in eigs if abs(lam.imag) <= cluster_gap)
    # the polynomial tests cannot separate roots inside their merge width,
    # so a rank decision is only confident outside that band
    upper = max(10.0 * config.rank_tol, _CUBIC_MERGE_WIDTH) * scale
    lower = config.rank_tol * scale / 10.0
    semisimple, defective = True, None  # three reals hold at most one cluster
    idx = 0
    while idx < len(reals):
        j = idx
        while j + 1 < len(reals) and reals[j + 1] - reals[j] <= cluster_gap:
            j += 1
        k = j - idx + 1
        if k >= 2:
            lam = sum(reals[idx : j + 1]) / k
            sigmas = np.linalg.svd(T - lam * np.eye(3), compute_uv=False)
            geo_min = 3 - int(np.sum(sigmas > lower))
            geo_max = 3 - int(np.sum(sigmas >= upper))
            if geo_max < k:
                semisimple, defective = False, lam
            elif geo_min < k:
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
    _nonsingular_det(T, config)
    cutoff = 1.0 - config.spectral_tol
    return invariant_subspace(T, lambda mu: abs(mu) < cutoff)
