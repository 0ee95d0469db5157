import math
import re

import numpy as np
import pytest

from helpers import (
    conjugate_to_large_norm,
    random_conjugator,
    random_invertible,
    random_orthogonal_3x3,
    reconstruct,
)
from sphere_distal import (
    ComplexPair,
    DimensionUnsupported,
    JordanBlock,
    RealDiagonalizable,
    RealSpectrum,
    SingularMatrix,
    contraction_subspace,
    normalize_to_unimodular,
    operator_norm,
    real_schur_2x2,
    rotation,
)
from sphere_distal.linalg import (
    as_matrix,
    eigenvalues_3x3,
    matrix_inverse,
    spectral_summary,
)


def test_normalize_forced_by_unit_det():
    nm = normalize_to_unimodular(np.diag([2.0, 2.0]))
    assert nm.scale == pytest.approx(0.5)
    assert np.allclose(nm.unit, np.eye(2))


def test_normalize_already_unimodular():
    T = np.diag([2.0, 0.5])
    nm = normalize_to_unimodular(T)
    assert nm.scale == pytest.approx(1.0)
    assert np.array_equal(nm.unit, T)


def test_normalize_derived_example():
    # alpha = |det|^(-1/2) = 4^(-1/2) = 1/2
    nm = normalize_to_unimodular(np.diag([4.0, 1.0]))
    assert nm.scale == pytest.approx(0.5)
    assert np.allclose(nm.unit, np.diag([2.0, 0.5]))
    det_unit = nm.unit[0, 0] * nm.unit[1, 1] - nm.unit[0, 1] * nm.unit[1, 0]
    assert abs(abs(det_unit) - 1.0) < 1e-12


def test_normalize_a_4x4_by_the_fourth_root_of_its_determinant():
    nm = normalize_to_unimodular(np.diag([16.0, 1.0, 1.0, 1.0]))
    assert nm.scale == 0.5 and np.array_equal(nm.unit, np.diag([8.0, 0.5, 0.5, 0.5]))
    T = random_invertible(np.random.default_rng(4), 4)
    nm = normalize_to_unimodular(3.0 * T)
    assert abs(abs(np.linalg.det(nm.unit)) - 1.0) < 1e-12
    assert np.allclose(nm.unit, nm.scale * 3.0 * T, rtol=1e-14, atol=0.0)


def test_normalize_rejects_singular():
    with pytest.raises(SingularMatrix):
        normalize_to_unimodular([[1.0, 1.0], [1.0, 1.0]])


def test_normalize_refuses_exactly_the_quotients_that_overflow():
    # det = 1/4, so T is divided by exactly 1/2: the largest float's half
    # doubles to it, the next float (2^1023) doubles past it
    top = np.finfo(float).max
    nm = normalize_to_unimodular([[top / 2, 0.25], [-1.0, 0.0]])
    assert nm.scale == 2.0 and nm.unit[0, 0] == top
    with pytest.raises(SingularMatrix, match="overflows"):
        normalize_to_unimodular([[np.nextafter(top / 2, math.inf), 0.25], [-1.0, 0.0]])
    with pytest.raises(SingularMatrix, match="overflows"):
        normalize_to_unimodular([[1e305, 0.0], [0.0, 1e-316]])


def test_normalize_projectively_neutral_dyadic():
    # power-of-two determinant: the rescaling is exact, directions match bitwise
    rng = np.random.default_rng(3)
    T = np.array([[2.0, 1.0], [1.0, 2.5]])
    assert T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0] == 4.0
    unit = normalize_to_unimodular(T).unit
    for _ in range(20):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        u = T @ x
        w = unit @ x
        assert np.array_equal(u / np.linalg.norm(u), w / np.linalg.norm(w))


def test_normalize_projectively_neutral_generic():
    rng = np.random.default_rng(4)
    for _ in range(50):
        T = random_invertible(rng, 2)
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        u = T @ x
        w = normalize_to_unimodular(T).unit @ x
        assert np.allclose(u / np.linalg.norm(u), w / np.linalg.norm(w), atol=5e-15)


def test_schur_shear_is_defective():
    es = real_schur_2x2([[1.0, 1.0], [0.0, 1.0]])
    assert isinstance(es.kind, JordanBlock)
    assert es.kind.eigenvalue == pytest.approx(1.0)
    assert es.semisimple is False


def test_schur_rotation_is_complex_pair():
    es = real_schur_2x2(rotation(math.pi / 3))
    assert isinstance(es.kind, ComplexPair)
    assert es.kind.modulus == pytest.approx(1.0)
    assert es.kind.angle == pytest.approx(math.pi / 3)
    assert es.conditioning == pytest.approx(1.0)


def test_schur_complex_reconstruction():
    T = np.array([[0.0, -4.0], [1.0, 0.0]])
    es = real_schur_2x2(T)
    assert isinstance(es.kind, ComplexPair)
    assert es.kind.modulus == pytest.approx(2.0)
    assert es.kind.angle == pytest.approx(math.pi / 2)
    assert np.allclose(reconstruct(es), T, atol=1e-10)
    assert abs(abs(np.linalg.det(es.kind.basis)) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_schur_reconstruction_random(seed):
    rng = np.random.default_rng(100 + seed)
    for kind in ("diag", "jordan", "complex"):
        A = random_conjugator(rng)
        if kind == "diag":
            B = np.diag([rng.uniform(0.3, 2.0), -rng.uniform(0.3, 2.0)])
        elif kind == "jordan":
            lam = rng.uniform(0.5, 1.5)
            B = np.array([[lam, 1.0], [0.0, lam]])
        else:
            B = rng.uniform(0.5, 2.0) * rotation(rng.uniform(0.1, 3.0))
        T = A @ B @ matrix_inverse(A)
        es = real_schur_2x2(T)
        assert np.allclose(reconstruct(es), T, atol=1e-9 * operator_norm(T))
        assert es.conditioning >= 1.0


def _summary_from_schur(T):
    es = real_schur_2x2(T)
    defective = es.kind.eigenvalue if es.semisimple is False else None
    return es.eigenvalues, es.semisimple, defective


def _branch(es):
    if es.semisimple is None:
        return "ambiguous"
    if isinstance(es.kind, ComplexPair):
        return "complex"
    if isinstance(es.kind, JordanBlock):
        return "jordan-negative" if es.kind.eigenvalue < 0 else "jordan"
    major, minor = es.kind.eig_major, es.kind.eig_minor
    if major == minor:
        return "scalar"
    return "real-negative" if minor < 0 else "real"


def test_spectral_summary_2x2_matches_the_schur_form_bit_for_bit():
    rng = np.random.default_rng(31)
    middles = {
        "complex": lambda: rng.uniform(0.5, 2.0) * rotation(rng.uniform(0.01, 3.1)),
        "real": lambda: np.diag(rng.uniform(0.3, 3.0, 2)),
        "real-negative": lambda: np.diag([rng.uniform(0.3, 3.0), -rng.uniform(0.3, 3.0)]),
        "scalar": lambda: rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0) * np.eye(2),
        "jordan": lambda: rng.uniform(0.3, 3.0) * np.array([[1.0, 1.0], [0.0, 1.0]]),
        "jordan-negative": lambda: -rng.uniform(0.3, 3.0) * np.array([[1.0, 1.0], [0.0, 1.0]]),
        # an off-diagonal entry inside the rank band of T - lam*I
        "ambiguous": lambda: np.array([[1.0, 10.0 ** rng.uniform(-8.5, -7.5)], [0.0, 1.0]]),
    }
    branches, singular = set(), 0
    for kind, middle in middles.items():
        for _ in range(60):
            C = np.eye(2) if kind in ("scalar", "ambiguous") else random_conjugator(rng)
            T = C @ middle() @ matrix_inverse(C) * 10.0 ** rng.uniform(-150.0, 150.0)
            try:
                want = _summary_from_schur(T)
            except SingularMatrix as exc:
                with pytest.raises(SingularMatrix, match=re.escape(str(exc))):
                    spectral_summary(T)
                singular += 1
                continue
            got = spectral_summary(T)
            assert repr((got.eigenvalues, got.semisimple, got.defective_eigenvalue)) == repr(want)
            branches.add(_branch(real_schur_2x2(T)))
    assert branches == set(middles)
    assert 0 < singular < 7 * 60


def test_operator_norm_values():
    assert operator_norm(np.eye(2)) == 1.0
    assert operator_norm(np.diag([3.0, 1.0 / 3.0])) == pytest.approx(3.0)
    # largest eigenvalue of T^T T for the shear, via the quadratic formula
    expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
    assert operator_norm([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-14)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(20):
            T = rng.standard_normal((d, d))
            assert operator_norm(T) == pytest.approx(
                np.linalg.svd(T, compute_uv=False)[0], rel=1e-12
            )


def test_eigenvalue_norm_bounds():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        for _ in range(30):
            T = random_invertible(rng, d)
            eigs = np.linalg.eigvals(T)
            hi = operator_norm(T) + 1e-9
            lo = 1.0 / operator_norm(matrix_inverse(T)) - 1e-9
            assert all(lo <= abs(lam) <= hi for lam in eigs)


def test_contraction_subspace_rotation_empty():
    basis = contraction_subspace(rotation(1.0))
    assert basis.shape == (2, 0)


def test_contraction_subspace_split_diag():
    basis = contraction_subspace(np.diag([2.0, 0.5]))
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) < 1e-12


def test_contraction_subspace_full_space():
    T = np.array([[0.0, -4.0], [1.0, 0.0]]) / 4.0  # eigen moduli 1/2
    basis = contraction_subspace(T)
    assert basis.shape == (2, 2)
    # iterates of the basis vectors actually contract
    for k in range(basis.shape[1]):
        v = basis[:, k]
        for _ in range(40):
            v = T @ v
        assert np.linalg.norm(v) < 1e-10


def test_contraction_subspace_d4():
    # expanding block (3, 2) on coordinates 0, 2; contracting (0.5, -0.25) on 1, 3
    T = np.zeros((4, 4))
    T[np.ix_([0, 2], [0, 2])] = [[3.0, 1.0], [0.0, 2.0]]
    T[np.ix_([1, 3], [1, 3])] = [[0.5, 1.0], [0.0, -0.25]]
    basis = contraction_subspace(T)
    assert basis.shape == (4, 2)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    for k in range(basis.shape[1]):
        v = basis[:, k]
        for _ in range(60):
            v = T @ v
        assert np.linalg.norm(v) < 1e-10


def test_contraction_sum_trivial_iff_unimodular_spectrum():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        # semisimple with all moduli 1: conjugated isometry
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = random_invertible(rng, d, max_cond=10)
        T = A @ Q @ np.linalg.inv(A)
        both = (
            contraction_subspace(T).shape[1]
            + contraction_subspace(matrix_inverse(T)).shape[1]
        )
        assert both == 0
        # split moduli: at least one side is nontrivial
        D = np.diag(np.linspace(2.0, 0.5, d))
        S = A @ D @ np.linalg.inv(A)
        split = (
            contraction_subspace(S).shape[1]
            + contraction_subspace(matrix_inverse(S)).shape[1]
        )
        assert split > 0


def test_conjugate_to_large_norm_bound():
    S = conjugate_to_large_norm(rotation(math.pi / 2), 3.0)
    # norm grows at least like beta^2 * |t sin(theta)| = 9
    assert operator_norm(S) >= 9.0 - 1e-9
    assert operator_norm(S) > 5.0


def test_conjugate_beta_one_is_identity_conjugation():
    T = rotation(math.pi / 2)
    S = conjugate_to_large_norm(T, 1.0)
    assert np.allclose(S, T, atol=1e-12)
    assert operator_norm(S) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_preserves_spectrum():
    T = 2.0 * rotation(math.pi / 3)
    S = conjugate_to_large_norm(T, 4.0)
    # characteristic polynomial comparison: trace and determinant
    assert np.trace(S) == pytest.approx(np.trace(T), abs=1e-10)
    assert np.linalg.det(S) == pytest.approx(np.linalg.det(T), abs=1e-10)


def test_conjugate_rejects_real_spectrum():
    with pytest.raises(RealSpectrum):
        conjugate_to_large_norm(np.diag([2.0, 0.5]), 3.0)


def test_eigenvalues_3x3_against_numpy():
    rng = np.random.default_rng(8)
    for _ in range(40):
        T = random_invertible(rng, 3)
        mine = sorted(eigenvalues_3x3(T), key=lambda z: (z.real, z.imag))
        ref = sorted(np.linalg.eigvals(T), key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            assert a == pytest.approx(b, abs=1e-8 * max(1.0, operator_norm(T)))


def test_eigenvalues_3x3_order_and_multiset():
    """Real eigenvalues first, descending, then the +imaginary member of a pair."""
    rng = np.random.default_rng(9)
    for _ in range(40):
        T = random_invertible(rng, 3)
        eigs = eigenvalues_3x3(T)
        reals = [z.real for z in eigs if z.imag == 0.0]
        assert all(z.imag == 0.0 for z in eigs[: len(reals)])
        assert reals == sorted(reals, reverse=True)
        if len(reals) == 1:
            assert eigs[1] == eigs[2].conjugate() and eigs[1].imag > 0.0
        ref = np.linalg.eigvals(T)
        for lam in eigs:  # a multiset match: each eigenvalue pairs off once
            k = int(np.argmin(np.abs(ref - lam)))
            assert ref[k] == pytest.approx(lam, abs=1e-12 * operator_norm(T))
            ref = np.delete(ref, k)


def _rotation_3x3(angle):
    R = np.eye(3)
    R[:2, :2] = rotation(angle)
    return R


def _jordan_3x3(lam, k, rest=()):
    J = np.diag([lam] * k + list(rest))
    J[np.arange(k - 1), np.arange(1, k)] = 1.0
    return J


def _multiple_root_cases():
    """(matrix, semisimple, defective): the decisions the earlier
    bisection-based cubic solver made, pinned for the LAPACK spectrum."""
    cases = [
        ("rot-1e-2", _rotation_3x3(1e-2), True, False),
        ("rot-1e-3", _rotation_3x3(1e-3), True, False),
        ("rot-1e-4", _rotation_3x3(1e-4), True, False),
        ("rot-3e-5", _rotation_3x3(3e-5), None, False),
        ("rot-1e-5", _rotation_3x3(1e-5), None, False),
        ("rot-1e-6", _rotation_3x3(1e-6), None, False),
        ("rot-1e-7", _rotation_3x3(1e-7), None, False),
        ("rot-1e-9", _rotation_3x3(1e-9), None, False),
        ("rot-1e-12", _rotation_3x3(1e-12), True, False),
        ("I", np.eye(3), True, False),
        ("-I", -np.eye(3), True, False),
        ("diag(2,2,1/4)", np.diag([2.0, 2.0, 0.25]), True, False),
        ("J2(2)+1/4", _jordan_3x3(2.0, 2, [0.25]), False, True),
        ("J3(1)", _jordan_3x3(1.0, 3), False, True),
        ("J3(-1)", _jordan_3x3(-1.0, 3), False, True),
        ("J2(1)+1", _jordan_3x3(1.0, 2, [1.0]), False, True),
        ("J2(-1)+1", _jordan_3x3(-1.0, 2, [1.0]), False, True),
        ("reflection", np.diag([1.0, 1.0, -1.0]), True, False),
        ("rot-pi", _rotation_3x3(math.pi), True, False),
    ]
    split = {1e-4: (True, None, None), 1e-6: (None, False, None), 1e-8: (None, False, None),
             1e-10: (True, False, True)}
    for e, (diag, shear, unipotent) in split.items():
        shear_split = np.array([[1.0, 1.0, 0.0], [0.0, 1.0 + e, 0.0], [0.0, 0.0, 1.0]])
        cases += [
            (f"diag(1,1+{e:g},1)", np.diag([1.0, 1.0 + e, 1.0]), diag, False),
            (f"shear-split-{e:g}", shear_split, shear, shear is False),
            (f"I+{e:g}E12", np.eye(3) + e * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), unipotent, False),
        ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("M,semisimple,defective", _multiple_root_cases())
def test_spectral_summary_3x3_multiple_root_decisions(M, semisimple, defective):
    Q = random_orthogonal_3x3(np.random.default_rng(11))
    summary = spectral_summary(normalize_to_unimodular(Q @ M @ Q.T).unit)
    assert summary.semisimple is semisimple
    assert (summary.defective_eigenvalue is not None) is defective


def test_spectral_summary_3x3_defective():
    T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    summary = spectral_summary(T)
    assert summary.semisimple is False
    assert spectral_summary(np.diag([1.0, 2.0, 3.0])).semisimple is True


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(SingularMatrix):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])


@pytest.mark.parametrize("call", [
    lambda: as_matrix(np.ones((2, 3))),
    lambda: as_matrix([[1.0]]),
    lambda: real_schur_2x2(np.eye(3)),
    lambda: eigenvalues_3x3(np.eye(2)),
    lambda: spectral_summary(np.eye(4)),
], ids=["as_matrix-2x3", "as_matrix-1x1", "real_schur_2x2-3x3", "eigenvalues_3x3-2x2", "spectral_summary-4x4"])
def test_shape_checks_raise_dimension_unsupported(call):
    with pytest.raises(DimensionUnsupported):
        call()


@pytest.mark.parametrize("b", [1e6, 1e7, 3e7, 1e8, 1e13])
def test_stretched_quarter_turns_have_a_complex_canonical_form(b):
    # tr = 0 exactly and det = 1: the discriminant -4 is far outside its rounding radius
    es = real_schur_2x2(np.array([[0.0, -b], [1.0 / b, 0.0]]))
    assert isinstance(es.kind, ComplexPair)
    assert es.kind.modulus == 1.0 and es.kind.angle == pytest.approx(math.pi / 2)
