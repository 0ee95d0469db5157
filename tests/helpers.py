"""Shared random-matrix builders for the test suite."""

import csv
import io
import math
from dataclasses import replace

import numpy as np

from sphere_distal import (
    DEFAULT_CONFIG,
    RealSpectrum,
    Verdict,
    classify_projective_distality,
    contraction_subspace,
    rotation,
)
from sphere_distal.distality import (
    _jordan_collapse_pair,
    _power_stack,
    _split_moduli_pair,
)
from sphere_distal.fixed_points import (
    _bisect_to_one,
    _fixed_point,
)
from sphere_distal.linalg import (
    ComplexPair,
    JordanBlock,
    RealDiagonalizable,
    as_matrix,
    determinant,
    matrix_inverse,
    normalize_to_unimodular,
    operator_norm,
    real_schur_2x2,
    spectral_summary,
)
from sphere_distal.sphere import apply_many, unit_vector


def random_conjugator(rng, max_cond=8.0):
    """A well-conditioned 2x2 change of basis."""
    while True:
        A = rng.standard_normal((2, 2))
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det) < 0.3:
            continue
        if operator_norm(A) * operator_norm(matrix_inverse(A)) <= max_cond:
            return A


def random_invertible(rng, d, max_cond=50.0):
    while True:
        T = rng.standard_normal((d, d))
        sv = np.linalg.svd(T, compute_uv=False)
        if sv[-1] > 1e-3 and sv[0] / sv[-1] <= max_cond:
            return T


def random_positive_real_2x2(rng, defective=False):
    """2x2 matrix with a positive real eigenvalue (defective on request)."""
    A = random_conjugator(rng)
    if defective:
        lam = rng.uniform(0.3, 2.0)
        B = np.array([[lam, 1.0], [0.0, lam]])
    else:
        t = rng.uniform(0.3, 2.5)
        s = rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0])
        B = np.diag([t, s])
    return A @ B @ matrix_inverse(A)


def random_complex_2x2(rng, max_kappa_sine=0.8):
    """Complex-spectrum matrix whose conditioning * |sin| stays feasible."""
    for _ in range(200):
        A = random_conjugator(rng)
        theta = rng.uniform(0.02, 1.4)
        t = rng.uniform(0.5, 2.0)
        T = t * (A @ rotation(theta) @ matrix_inverse(A))
        es = real_schur_2x2(T / np.sqrt(abs(np.linalg.det(T))))
        if es.conditioning * abs(np.sin(es.kind.angle)) <= max_kappa_sine:
            return T, es
    raise RuntimeError("could not sample a feasible complex matrix")


def translation_with_pullback(rng, T, c):
    """A translation with ||T^-1 a|| exactly c, in a random direction."""
    u = rng.standard_normal(T.shape[0])
    u = u / np.linalg.norm(u)
    return T @ (c * u)


def random_orthogonal(rng, d, flip=False):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if flip:
        Q = Q.copy()
        Q[:, 0] = -Q[:, 0]
    return Q


def random_orthogonal_3x3(rng, flip=False):
    return random_orthogonal(rng, 3, flip)


def naive_apply_many(m, X):
    """apply_many through the NumPy wrappers, the translation always added."""
    V = X @ np.swapaxes(m.matrix, -1, -2) + m.translation
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def reference_affine_walk(m, x, steps, config=DEFAULT_CONFIG):
    """x, f(x), ..., f^steps(x) for the affine map f of ``m``, as lists, in plain
    loops over the unscaled T and a: renormalize the point, sum
    a_i + (t_i0 x_0 + t_i1 x_1 + ...) left to right, divide by the image's norm."""
    T, a = m.matrix.tolist(), m.translation.tolist()
    d = len(a)

    def dot(u, v):
        s = u[0] * v[0]
        for j in range(1, d):
            s += u[j] * v[j]
        return s

    walk = [list(x)]
    for _ in range(steps):
        n = math.sqrt(dot(x, x))
        assert abs(n - 1.0) <= config.unit_norm_tol
        x = [x[j] / n for j in range(d)]
        v = [a[i] + dot(T[i], x) for i in range(d)]
        n = math.sqrt(dot(v, v))
        assert n > config.classify_tol
        x = [v[i] / n for i in range(d)]
        walk.append(x)
    return walk


def reconstruct(es):
    """basis @ B @ basis^-1 for the canonical middle factor B of a real_schur_2x2 result."""
    k = es.kind
    if isinstance(k, RealDiagonalizable):
        B = np.diag([k.eig_major, k.eig_minor])
    elif isinstance(k, JordanBlock):
        B = np.array([[k.eigenvalue, 1.0], [0.0, k.eigenvalue]])
    else:
        B = k.modulus * rotation(k.angle)
    return k.basis @ B @ matrix_inverse(k.basis)


def naive_power_stack(T, k=64):
    """The k normalized powers of T by doubling: append T^j T^n for the first
    j powers, then divide every power so far by its largest absolute entry."""
    W = T[None] / np.max(np.abs(T))
    d = len(T)
    while len(W) < k:
        j = k - len(W)
        W = np.concatenate([W, (W[:j].reshape(-1, d) @ W[-1]).reshape(-1, d, d)])
        W = W / np.max(np.abs(W), axis=(1, 2), keepdims=True)
    return W


def naive_block_powers(T, count, k=64):
    """B_1..B_count, one block power at a time: B_1 is the last power of
    ``naive_power_stack``; B_j = N(P_j) for j >= 2, with P_1 = N(T)^k in
    np.longdouble divided by its largest absolute entry, P_j = P_(j-1) P_1 and
    P_17, P_33, ... divided likewise.  N divides by the largest absolute entry
    and rounds to float64."""
    L = np.asarray(T, dtype=np.longdouble) / np.max(np.abs(T))
    P1 = np.linalg.matrix_power(L, k)
    P1 = P1 / np.max(np.abs(P1))
    B, P = [naive_power_stack(T, k)[-1]], P1
    for j in range(2, count + 1):
        P = P @ P1
        if j % 16 == 1:
            P = P / np.max(np.abs(P))
        B.append((P / np.max(np.abs(P))).astype(float))
    return np.array(B)


def spectral_pair(T):
    """The pair the classifier builds from the spectrum, before measuring it."""
    unit = normalize_to_unimodular(T).unit
    summary = spectral_summary(unit)
    if all(abs(abs(lam) - 1.0) <= DEFAULT_CONFIG.spectral_tol for lam in summary.eigenvalues):
        return _jordan_collapse_pair(unit, summary.defective_eigenvalue, DEFAULT_CONFIG)
    return _split_moduli_pair(unit, DEFAULT_CONFIG)


def chain_pair_blocks(m, P):
    """The seed-chain walk: every block applies the power stack of m to the last
    row of the block before it, so block q starts from step 64 q."""
    stacked = replace(m, matrix=_power_stack(m))
    while True:
        P = apply_many(stacked, P)
        yield P
        P = P[-1]


def extended_walk(T, P, steps):
    """The first ``steps`` projective iterates (steps, n, d) of the rows of P,
    walked one step at a time in np.longdouble and rounded to float64."""
    T = np.asarray(T, dtype=np.longdouble)
    P = np.array(P, dtype=np.longdouble)
    out = np.empty((steps,) + P.shape)
    for k in range(steps):
        P = P @ T.T
        P = P / np.sqrt((P * P).sum(axis=1, keepdims=True))
        out[k] = P
    return out


def extended_separation(T, x, y, steps):
    """|x - y| after ``steps`` projective steps of T, walked one step at a time
    in np.longdouble (80-bit extended precision on x86)."""
    T = np.asarray(T, dtype=np.longdouble)
    P = np.array([x, y], dtype=np.longdouble)
    for _ in range(steps):
        P = P @ T.T
        P = P / np.sqrt((P * P).sum(axis=1, keepdims=True))
    return float(np.sqrt(((P[0] - P[1]) ** 2).sum()))


def extended_affine_separations(T, a, x, y, steps):
    """|x - y| after each of the first ``steps`` steps of the affine map
    x -> N(T x + a), walked in np.longdouble (80-bit extended precision on x86)."""
    T = np.asarray(T, dtype=np.longdouble)
    a = np.asarray(a, dtype=np.longdouble)
    P = np.array([x, y], dtype=np.longdouble)
    out = []
    for _ in range(steps):
        P = P @ T.T + a
        P = P / np.sqrt((P * P).sum(axis=1, keepdims=True))
        out.append(float(np.sqrt(((P[0] - P[1]) ** 2).sum())))
    return out


def naive_resolvent_vector(kind, coords, gamma):
    """(gamma*Id - T)^-1 a for the 2x2 T with canonical form ``kind``, as two
    Python floats rebuilt in full for each gamma: gamma*Id - B from the entries
    of rotation(), its inverse, then the basis times the canonical solution."""
    c1, c2 = float(coords[0]), float(coords[1])
    if isinstance(kind, RealDiagonalizable):
        z0, z1 = c1 / (gamma - kind.eig_major), c2 / (gamma - kind.eig_minor)
    elif isinstance(kind, JordanBlock):
        den = gamma - kind.eigenvalue
        z0, z1 = c1 / den + c2 / (den * den), c2 / den
    else:
        (r00, r01), (r10, r11) = (kind.modulus * rotation(kind.angle)).tolist()
        m00, m01 = gamma * 1.0 - r00, gamma * 0.0 - r01
        m10, m11 = gamma * 0.0 - r10, gamma * 1.0 - r11
        det = m00 * m11 - m01 * m10
        z0 = m11 / det * c1 + -m01 / det * c2
        z1 = -m10 / det * c1 + m00 / det * c2
    (b00, b01), (b10, b11) = kind.basis.tolist()
    return b00 * z0 + b01 * z1, b10 * z0 + b11 * z1


def numpy_resolvent_vector(kind, coords, gamma):
    """(gamma*Id - T)^-1 a as a NumPy vector rebuilt in full for each gamma:
    gamma*Id - B through np.eye and rotation(), and NumPy matrix products."""
    c1, c2 = float(coords[0]), float(coords[1])
    if isinstance(kind, RealDiagonalizable):
        vec = np.array([c1 / (gamma - kind.eig_major), c2 / (gamma - kind.eig_minor)])
    elif isinstance(kind, JordanBlock):
        den = gamma - kind.eigenvalue
        vec = np.array([c1 / den + c2 / (den * den), c2 / den])
    else:
        M = gamma * np.eye(2) - kind.modulus * rotation(kind.angle)
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
        vec = inv @ np.array([c1, c2])
    return kind.basis @ vec


def _reference_bracketed_point(resolvent, norm):
    """A stand-in for fixed_points._bracketed_point whose every bisection step
    evaluates ``norm(resolvent(kind, coords, gamma))``."""

    def bracketed_point(m, es, hi, branch, context, config):
        coords = matrix_inverse(es.kind.basis, config) @ m.translation
        gamma = _bisect_to_one(
            lambda g: norm(resolvent(es.kind, coords, g)), 0.0, hi, config, context
        )
        point = unit_vector(np.asarray(resolvent(es.kind, coords, gamma)))
        return _fixed_point(m, point, gamma, branch, config)

    return bracketed_point


# the bisection through naive_resolvent_vector, with the norm of a float pair
naive_bracketed_point = _reference_bracketed_point(
    naive_resolvent_vector, lambda w: math.sqrt(w[0] * w[0] + w[1] * w[1])
)
# the bisection through NumPy alone: an accuracy reference with its own rounding
numpy_bracketed_point = _reference_bracketed_point(
    numpy_resolvent_vector, lambda v: float(np.linalg.norm(v))
)


def csv_writer_orbit(points):
    """The orbit CSV as csv.writer writes it: header step,x1..xd, one row per point."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["step"] + [f"x{i + 1}" for i in range(points.shape[1])])
    for step, row in enumerate(points):
        writer.writerow([step] + [repr(float(x)) for x in row])
    return fh.getvalue()


def conjugate_to_large_norm(T, beta: float, config=DEFAULT_CONFIG) -> np.ndarray:
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


class NotUnimodular(ValueError):
    """The linear-distality check was given a matrix whose |det| is not 1."""


def distality_implies_linear_distality_check(T, config=DEFAULT_CONFIG) -> bool:
    """Check the implication: distal on the sphere => distal on linear space.

    For a unimodular matrix classified Distal, both contraction subspaces
    (of T and of T^-1) must be trivial; the verdict is vacuously true
    when the classifier says NotDistal or Inconclusive.
    """
    T = as_matrix(T)
    det = determinant(T)
    if abs(abs(det) - 1.0) > config.classify_tol:
        raise NotUnimodular(f"|det| = {abs(det)} is not 1 within tolerance")
    verdict = classify_projective_distality(T, config)
    if verdict.verdict is not Verdict.DISTAL:
        return True
    trivial_fwd = contraction_subspace(T, config).shape[1] == 0
    trivial_bwd = contraction_subspace(matrix_inverse(T, config), config).shape[1] == 0
    return trivial_fwd and trivial_bwd


def level_products(level, g):
    """A ``_word_levels`` level of g letters as one (d, d) product per word,
    in ``itertools.product`` order: its rows are (first letter, matrix row,
    remaining letters)."""
    d = level.shape[1]
    return level.reshape(g, d, -1, d).transpose(0, 2, 1, 3).reshape(-1, d, d)


# three conjugated quarter turns (stretch 1.2), every word up to length 8
# bounded at the default bound; the product of the first random word of a
# 50,000-letter budget with seed 0 overflows
OVERFLOWING_TAIL_SET = (
    [[-0.021144284675747613, -1.5437136439800319], [1.543713643980032, -0.021144284675747575]],
    [[0.17697989758798946, -2.5370447963740292], [1.2445359706555674, -0.09539201969327563]],
    [[0.009416609970634923, -0.9696403220175283], [1.3851487570800296, 0.0969771951307421]],
)
