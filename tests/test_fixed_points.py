import math

import numpy as np
import pytest

from helpers import (
    conjugate_to_large_norm,
    extended_affine_separations,
    naive_bracketed_point,
    naive_resolvent_vector,
    numpy_bracketed_point,
    random_complex_2x2,
    random_conjugator,
    random_orthogonal,
    random_orthogonal_3x3,
    random_positive_real_2x2,
    translation_with_pullback,
)
from sphere_distal import (
    AffineSphereMap,
    Config,
    DimensionUnsupported,
    HypothesisNotMet,
    InvalidTranslation,
    NoPositiveRealEigenvalue,
    RealSpectrum,
    SpectrumCollision,
    SphereDistalError,
    apply_affine,
    choose_nondistal_witness,
    find_fixed_point,
    find_fixed_point_complex,
    find_fixed_point_real_positive,
    isometry_even_sphere_witness,
    minus_id_period2_points,
    proximal_pair_search,
    resolvent_norm,
    rotation,
)
from sphere_distal.fixed_points import (
    BRANCH_ALIGNED_MAJOR,
    BRANCH_ALIGNED_MINOR,
    BRANCH_BISECTION,
    BRANCH_BISECTION_DEFECTIVE,
    BRANCH_BISECTION_DOUBLE_ANGLE,
    BRANCH_BISECTION_LARGE_TRANSLATION,
    BRANCH_BISECTION_ROTATION,
    BRANCH_MINOR_CROSSING,
    FixedPointResult,
    PeriodicPoints2,
    _bisect_to_one,
    _resolvent,
)
from sphere_distal.linalg import (
    ComplexPair,
    JordanBlock,
    RealDiagonalizable,
    matrix_inverse,
    real_schur_2x2,
)


def check_fixed_point_equation(T, a, result, tol=1e-8):
    """gamma refers to the det-normalized pair: s*gamma*x - T(x) = a."""
    s = math.sqrt(abs(np.linalg.det(T)))
    x = result.point
    lhs = s * result.gamma * x - np.asarray(T, float) @ x
    assert np.linalg.norm(lhs - np.asarray(a, float)) <= tol * (1.0 + np.linalg.norm(a))


# --- resolvent norm ----------------------------------------------------------


def test_resolvent_limit_at_zero():
    T = np.diag([2.0, 0.5])
    a = np.array([0.3, 0.2])
    target = np.linalg.norm(np.linalg.solve(T, a))
    gaps = [abs(resolvent_norm(T, a, g) - target) for g in (1e-2, 1e-4, 1e-6)]
    assert gaps == sorted(gaps, reverse=True)  # monotone approach from above 0
    assert resolvent_norm(T, a, 1e-9) == pytest.approx(target, abs=1e-8)


def test_resolvent_rotation_closed_form():
    # (cos(t)*Id - Rot(t)) has both singular values |sin(t)|
    for theta, c in ((0.3, 0.5), (1.2, 0.25)):
        a = np.array([c, 0.0])
        value = resolvent_norm(rotation(theta), a, math.cos(theta))
        assert value == pytest.approx(c / abs(math.sin(theta)), rel=1e-12)


def test_resolvent_direct_arithmetic():
    value = resolvent_norm(np.diag([2.0, 0.5]), [0.3, 0.2], 0.25)
    expected = math.hypot(0.3 / (0.25 - 2.0), 0.2 / (0.25 - 0.5))
    assert value == pytest.approx(expected, rel=1e-14)


def test_resolvent_spectrum_collision():
    with pytest.raises(SpectrumCollision):
        resolvent_norm(np.diag([2.0, 0.5]), [0.1, 0.1], 2.0)


def test_resolvent_spectrum_collision_d4():
    with pytest.raises(SpectrumCollision):
        resolvent_norm(2.0 * np.eye(4), [1.0, 0.0, 0.0, 0.0], 2.0)


def test_resolvent_spectrum_collision_d4_inside_the_gap():
    # 1e-14 from the eigenvalue 2 lies inside spectrum_gap_tol * ||T|| = 2e-12
    with pytest.raises(SpectrumCollision):
        resolvent_norm(np.diag([2.0, 1.0, 1.0, 1.0]), [1.0, 0.0, 0.0, 0.0], 2.0 + 1e-14)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "T, a",
    [(rotation(0.3), [0.5, 0.0]), (np.diag([2.0, 0.5]), [0.1, 0.1]), (2.0 * np.eye(3), [0.1, 0.2, 0.3])],
    ids=["rotation", "diagonal", "3x3"],
)
def test_resolvent_rejects_a_nonfinite_gamma(T, a, gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        resolvent_norm(T, a, gamma)


def test_bisection_reports_invalid_bracket():
    # a same-sign bracket is an error, never silently widened
    from sphere_distal.config import DEFAULT_CONFIG
    from sphere_distal.fixed_points import _bisect_to_one

    with pytest.raises(HypothesisNotMet) as info:
        _bisect_to_one(lambda g: 2.0 + g, 0.0, 1.0, DEFAULT_CONFIG, "probe")
    assert info.value.reason == "bracket-endpoint-sign"


def test_bisection_returns_an_endpoint_where_f_is_exactly_one():
    # a root at a bracket's end needs no bisection step, so f never sees another gamma
    for lo, hi, root in ((0.5, 2.0, 0.5), (0.5, 2.0, 2.0), (-3.0, 0.25, 0.25)):
        calls = []

        def f(gamma):
            calls.append(gamma)
            return 1.0 + (gamma - root) / 8.0

        assert _bisect_to_one(f, lo, hi, Config(), "probe") == root
        assert calls == [lo, hi]


def test_witnesses_refuse_the_other_dimension():
    with pytest.raises(DimensionUnsupported, match="d = 2"):
        choose_nondistal_witness(np.eye(3))
    with pytest.raises(DimensionUnsupported, match="odd d"):
        isometry_even_sphere_witness(rotation(0.3))
    with pytest.raises(DimensionUnsupported, match="odd d"):
        isometry_even_sphere_witness(np.eye(4))


def test_resolvent_3x3_direct_solve():
    T = np.diag([2.0, 0.5, 1.5])
    a = np.array([0.1, 0.2, 0.3])
    expected = np.linalg.norm(np.linalg.solve(0.7 * np.eye(3) - T, a))
    assert resolvent_norm(T, a, 0.7) == pytest.approx(expected, rel=1e-12)


# --- positive real eigenvalue --------------------------------------------------


def test_real_positive_minor_axis():
    r = find_fixed_point_real_positive(np.diag([2.0, 0.5]), [0.0, 0.2])
    assert np.allclose(r.point, [0.0, 1.0])
    assert r.branch == BRANCH_ALIGNED_MINOR
    assert r.residual < 1e-10


def test_real_positive_major_axis():
    r = find_fixed_point_real_positive(np.diag([2.0, 0.5]), [0.3, 0.0])
    assert np.allclose(r.point, [1.0, 0.0])
    assert r.branch == BRANCH_ALIGNED_MAJOR
    assert r.residual < 1e-10


def test_real_positive_generic_bisection():
    T = np.diag([2.0, 0.5])
    a = np.array([0.3, 0.2])
    r = find_fixed_point_real_positive(T, a)
    assert r.branch == BRANCH_BISECTION
    assert 0.0 < r.gamma < 0.5
    assert r.residual < 1e-10
    check_fixed_point_equation(T, a, r)


def test_real_positive_minor_crossing():
    T = np.array([[2.0, 0.0], [0.0, -0.5]])
    a = np.array([0.0, 0.2])
    r = find_fixed_point_real_positive(T, a)
    assert r.branch == BRANCH_MINOR_CROSSING
    assert r.residual < 1e-10
    check_fixed_point_equation(T, a, r)


def test_real_positive_jordan():
    T = np.array([[1.0, 1.0], [0.0, 1.0]])
    a = np.array([0.1, -0.3])
    pull = np.linalg.norm(np.linalg.solve(T, a))
    assert pull == pytest.approx(0.5)
    r = find_fixed_point_real_positive(T, a)
    assert r.branch == BRANCH_BISECTION_DEFECTIVE
    assert 0.0 < r.gamma < 1.0
    assert r.residual < 1e-10
    check_fixed_point_equation(T, a, r)


def test_real_positive_rejections():
    with pytest.raises(NoPositiveRealEigenvalue):
        find_fixed_point_real_positive(rotation(1.0), [0.5, 0.0])
    with pytest.raises(NoPositiveRealEigenvalue):
        find_fixed_point_real_positive(np.diag([-2.0, -0.5]), [0.1, 0.1])
    with pytest.raises(InvalidTranslation):
        find_fixed_point_real_positive(np.diag([2.0, 0.5]), [0.0, 0.7])


def test_real_positive_random_batch():
    rng = np.random.default_rng(11)
    for k in range(60):
        T = random_positive_real_2x2(rng, defective=(k % 5 == 0))
        a = translation_with_pullback(rng, T, rng.uniform(0.1, 0.9))
        r = find_fixed_point_real_positive(T, a)
        assert r.residual < 1e-8
        check_fixed_point_equation(T, a, r)


# --- complex eigenvalues ----------------------------------------------------------


def test_complex_small_angle():
    r = find_fixed_point_complex(rotation(0.1), [0.5, 0.0])
    assert 0.0 < r.gamma <= math.cos(0.1) + 1e-12
    assert r.residual < 1e-10


def test_complex_hypothesis_failure():
    with pytest.raises(HypothesisNotMet) as info:
        find_fixed_point_complex(rotation(math.pi / 3), [0.5, 0.0])
    assert info.value.reason == "sine-exceeds-translation-bound"
    with pytest.raises(HypothesisNotMet) as info:
        find_fixed_point_complex(rotation(2.5), [0.5, 0.0])
    assert info.value.reason == "nonpositive-cosine"


def test_complex_isometry_remark():
    # conditioning 1: any |sin(theta)| <= ||a|| < 1 admits a fixed point
    theta = 0.6
    a = np.array([(abs(math.sin(theta)) + 1.0) / 2.0, 0.0])
    r = find_fixed_point_complex(rotation(theta), a)
    assert r.residual < 1e-10
    check_fixed_point_equation(rotation(theta), a, r)


def test_complex_rejects_real_spectrum():
    with pytest.raises(RealSpectrum):
        find_fixed_point_complex(np.diag([2.0, 0.5]), [0.1, 0.1])


def test_complex_random_batch():
    rng = np.random.default_rng(12)
    for _ in range(40):
        T, es = random_complex_2x2(rng)
        bound = es.conditioning * abs(math.sin(es.kind.angle))
        c = rng.uniform(min(bound + 1e-6, 0.94), 0.95)
        a = translation_with_pullback(rng, T, c)
        r = find_fixed_point_complex(T, a)
        assert r.residual < 1e-8
        check_fixed_point_equation(T, a, r)


# --- minus identity -----------------------------------------------------------------


def test_minus_id_example():
    pp = minus_id_period2_points([0.6, 0.0])
    expected = np.array(
        [
            [1.0, 0.0],
            [-1.0, 0.0],
            [0.3, math.sqrt(0.91)],
            [0.3, -math.sqrt(0.91)],
        ]
    )
    assert np.allclose(pp.points, expected, atol=1e-12)
    assert pp.partner == (1, 0, 3, 2)
    assert np.max(pp.residuals) < 1e-10
    for row in pp.points[2:]:
        assert abs(np.linalg.norm(row) - 1.0) < 1e-12


def test_minus_id_rotated_translation():
    pp = minus_id_period2_points([0.0, 0.6])
    flipped = pp.points[:, ::-1]
    reference = minus_id_period2_points([0.6, 0.0]).points
    assert np.allclose(np.sort(flipped, axis=0), np.sort(reference, axis=0))


def test_minus_id_cycle_structure():
    a = np.array([0.6, 0.0])
    pp = minus_id_period2_points(a)
    m = AffineSphereMap.create(-np.eye(2), a)
    for k, p in enumerate(pp.points):
        image = apply_affine(m, p)
        assert np.linalg.norm(image - pp.points[pp.partner[k]]) < 1e-9


def test_minus_id_requires_small_translation():
    with pytest.raises(InvalidTranslation):
        minus_id_period2_points([1.2, 0.0])
    with pytest.raises(InvalidTranslation):
        minus_id_period2_points([0.0, 0.0])


# --- witness chooser ------------------------------------------------------------------


def assert_nontrivial_squared_map(T, a):
    """The squared affine map moves at least one probe point visibly."""
    m = AffineSphereMap.create(T, a)
    moved = 0.0
    for psi in np.linspace(0.0, 2.0 * math.pi, 17)[:-1]:
        p = np.array([math.cos(psi), math.sin(psi)])
        q = apply_affine(m, apply_affine(m, p))
        moved = max(moved, float(np.linalg.norm(q - p)))
    assert moved >= 1e-3


@pytest.mark.parametrize(
    "T",
    [
        np.diag([2.0, 0.5]),
        np.diag([-2.0, -0.5]),
        rotation(math.pi / 4),
        np.array([[1.5, 0.0], [0.0, 1.0 / 1.5]]) @ rotation(0.9) @ np.diag([1.0 / 1.5, 1.5]),
    ],
    ids=["positive-real", "negative-pair", "isometry", "skew-rotation"],
)
def test_witness_produces_verified_result(T):
    a, result = choose_nondistal_witness(T)
    pull = np.linalg.norm(matrix_inverse(np.asarray(T, float)) @ a)
    assert 0.0 < pull < 1.0
    if isinstance(result, FixedPointResult):
        assert result.residual < 1e-8
    else:
        assert isinstance(result, PeriodicPoints2)
        assert np.max(result.residuals) < 1e-8
    assert_nontrivial_squared_map(np.asarray(T, float), a)


def test_witness_negative_pair_cycle():
    T = np.diag([-2.0, -0.5])
    a, result = choose_nondistal_witness(T)
    assert isinstance(result, PeriodicPoints2)
    m = AffineSphereMap.create(T, a)
    p0, p1 = result.points
    assert np.linalg.norm(apply_affine(m, p0) - p1) < 1e-9
    assert np.linalg.norm(apply_affine(m, p1) - p0) < 1e-9
    assert np.linalg.norm(p0 - p1) > 1e-3


def test_witness_large_norm_case():
    T = conjugate_to_large_norm(rotation(2.0), 3.0)
    a, result = choose_nondistal_witness(T)
    assert isinstance(result, FixedPointResult)
    assert result.residual < 1e-8
    assert np.linalg.norm(a) > 5.0


def test_witness_outside_covered_classes():
    from sphere_distal import OutsideCoveredClasses

    with pytest.raises(OutsideCoveredClasses):
        choose_nondistal_witness(rotation(2.5))  # isometry, cos <= 0


def test_witness_refuses_the_quarter_turn_and_says_what_failed():
    from sphere_distal import OutsideCoveredClasses

    # cos(pi/2) is 6.1e-17 > 0, but |sin(pi/2)| is 1.0: case C's band is empty
    with pytest.raises(OutsideCoveredClasses, match=r"\|sin\(theta\)\| = 1 leaves no translation band"):
        choose_nondistal_witness(rotation(math.pi / 2))


@pytest.mark.parametrize(
    "T",
    [np.diag([10.0, 1.0]) @ rotation(math.pi / 2) @ np.diag([0.1, 1.0])]
    + [np.array([[0.0, -b], [1.0 / b, 0.0]]) for b in (10.0, 1e3, 1e6, 3e7, 1e8, 1e13)],
    ids=["conjugate-norm-10", "10", "1e3", "1e6", "3e7", "1e8", "1e13"],
)
def test_stretched_quarter_turns_get_a_large_translation_witness(T):
    a, result = choose_nondistal_witness(T)
    assert result.branch == BRANCH_BISECTION_LARGE_TRANSLATION
    m = AffineSphereMap.create(T, a)
    assert np.linalg.norm(apply_affine(m, result.point) - result.point) <= 1e-8


def test_witness_feeds_the_oracle():
    # a nontrivial circle homeomorphism with a fixed point is not distal
    for T in (np.diag([2.0, 0.5]), rotation(math.pi / 4)):
        a, _ = choose_nondistal_witness(T)
        m = AffineSphereMap.create(T, a)
        pair = proximal_pair_search(m, samples=32, iterations=20000, eps=1e-3, delta=0.3, seed=5)
        assert pair is not None
        assert pair.separation_initial >= 0.3
        assert pair.separation_final < 1e-3


# --- even-sphere isometries -------------------------------------------------------------


def test_even_sphere_rotation_about_axis():
    c, s = math.cos(1.0), math.sin(1.0)
    T = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    a, pair = isometry_even_sphere_witness(T)
    assert np.allclose(a, [0.0, 0.0, 0.5])
    assert pair.separation_initial >= 0.3
    assert pair.separation_final < 1e-3


def test_even_sphere_involution():
    a, pair = isometry_even_sphere_witness(np.diag([1.0, -1.0, -1.0]))
    assert 0.0 < np.linalg.norm(a) < 1.0
    assert pair.separation_final < 1e-3


def test_even_sphere_identity():
    a, pair = isometry_even_sphere_witness(np.eye(3))
    assert np.linalg.norm(a) == pytest.approx(0.5)
    assert pair.separation_final < 1e-3


def test_even_sphere_rejects_non_isometry():
    from sphere_distal import NotOrthogonal

    with pytest.raises(NotOrthogonal):
        isometry_even_sphere_witness(np.diag([2.0, 1.0, 0.5]))


def test_even_sphere_random_batch():
    rng = np.random.default_rng(13)
    for k in range(6):
        Q = random_orthogonal_3x3(rng, flip=bool(k % 2))
        a, pair = isometry_even_sphere_witness(Q)
        assert 0.0 < np.linalg.norm(a) < 1.0
        assert pair.separation_initial >= 0.3
        assert pair.separation_final < 1e-3


def even_sphere_cases():
    rng = np.random.default_rng(2016)
    cases = [random_orthogonal_3x3(rng, flip=bool(k % 2)) for k in range(200)]
    c, s = math.cos(0.7), math.sin(0.7)
    return cases + [
        np.eye(3), -np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([1.0, 1.0, -1.0]),
        np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]),
    ]


def check_height_map_witness(T):
    """The pair starts at heights (0.9, +-0.5) on the axis v = 2a, T v = sign(det T) v,
    and an 80-bit walk of the full map first gets below eps at ``steps``."""
    eps = Config().recurrence_eps
    a, pair = isometry_even_sphere_witness(T)
    v = 2.0 * a
    sigma = 1.0 if np.linalg.det(T) > 0.0 else -1.0
    assert np.linalg.norm(T @ v - sigma * v) <= 1e-12
    assert (float(pair.x @ v), float(pair.y @ v)) == pytest.approx((0.9, 0.5 * sigma), abs=1e-15)
    assert pair.steps == (16 if sigma > 0.0 else 58)
    separations = extended_affine_separations(T, a, pair.x, pair.y, pair.steps)
    assert separations[-1] < eps
    assert abs(separations[-1] - pair.separation_final) <= 1e-12
    assert separations[-2] >= eps


def test_even_sphere_witness_matches_the_height_map_reference():
    for T in even_sphere_cases():
        check_height_map_witness(T)


def test_even_sphere_witness_on_every_odd_dimension():
    rng = np.random.default_rng(57)
    cases = [random_orthogonal(rng, d, flip=bool(k % 2)) for d in (5, 7) for k in range(20)]
    for T in cases + [-np.eye(5)]:
        check_height_map_witness(T)


def test_even_sphere_pair_replays_on_the_full_map():
    eps = Config().recurrence_eps
    for T in even_sphere_cases():
        a, pair = isometry_even_sphere_witness(T)
        m = AffineSphereMap.create(T, a)
        x, y = pair.x, pair.y
        for _ in range(pair.steps):
            x, y = apply_affine(m, x), apply_affine(m, y)
        separation = float(np.linalg.norm(x - y))
        assert abs(separation - pair.separation_final) <= 1e-9
        assert separation < eps


def test_tight_residual_tol_raises():
    # every returned point must meet residual_tol; these residuals are about 1e-16
    from sphere_distal import Config

    tight = Config(residual_tol=1e-20)
    with pytest.raises(HypothesisNotMet) as info:
        find_fixed_point_real_positive(np.diag([2.0, 0.5]), [0.3, 0.2], tight)
    assert info.value.reason == "residual-above-tolerance"
    with pytest.raises(HypothesisNotMet) as info:
        minus_id_period2_points([0.3, 0.4], tight)
    assert info.value.reason == "residual-above-tolerance"


@pytest.mark.parametrize(
    "T, a",
    [(np.array([[2.0, 1.0], [0.0, 0.5]]), [0.3, 0.2]), (rotation(0.1), [0.5, 0.0])],
    ids=["positive-real", "complex"],
)
def test_find_fixed_point_prepares_the_map_once(monkeypatch, T, a):
    from sphere_distal import fixed_points, sphere

    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fixed_points, "real_schur_2x2")
    counted(fixed_points, "_unimodular")
    counted(sphere, "affine_is_homeomorphism")
    assert isinstance(fixed_points.find_fixed_point(T, a), FixedPointResult)
    assert calls == {"real_schur_2x2": 1, "_unimodular": 1, "affine_is_homeomorphism": 1}


@pytest.mark.parametrize(
    "T", [np.diag([2.0, 0.5]), rotation(math.pi / 4)], ids=["case-A", "case-C"]
)
def test_choose_nondistal_witness_prepares_the_map_once(monkeypatch, T):
    from sphere_distal import fixed_points, sphere

    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fixed_points, "real_schur_2x2")
    counted(fixed_points, "_unimodular")
    counted(sphere, "affine_is_homeomorphism")
    _, result = fixed_points.choose_nondistal_witness(T)
    assert isinstance(result, FixedPointResult)
    assert calls == {"real_schur_2x2": 1, "_unimodular": 1, "affine_is_homeomorphism": 1}


@pytest.mark.parametrize(
    "module, function, args, expected",
    [
        ("fixed_points", "find_fixed_point", (np.array([[2.0, 1.0], [0.0, 0.5]]), [0.3, 0.2]), 4),
        ("fixed_points", "find_fixed_point", (rotation(0.1), [0.5, 0.0]), 4),
        ("fixed_points", "choose_nondistal_witness", (np.diag([2.0, 0.5]),), 4),
        ("fixed_points", "choose_nondistal_witness", (rotation(math.pi / 4),), 4),
        ("distality", "classify_projective_distality", ([[1.0, 1.0], [0.0, 1.0]],), 1),
    ],
    ids=["fixed-point-positive-real", "fixed-point-complex", "witness-case-A", "witness-case-C",
         "classify-shear"],
)
def test_inputs_are_validated_at_the_public_boundary(monkeypatch, module, function, args, expected):
    # a fixed-point solve or witness validates T once itself and once each in
    # real_schur_2x2, AffineSphereMap.create and affine_is_homeomorphism
    import sys

    from sphere_distal import linalg

    as_matrix = linalg.as_matrix
    calls = []

    def counted(obj):
        calls.append(obj)
        return as_matrix(obj)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sphere_distal" and getattr(mod, "as_matrix", None) is as_matrix:
            monkeypatch.setattr(mod, "as_matrix", counted)
    getattr(sys.modules[f"sphere_distal.{module}"], function)(*args)
    assert len(calls) == expected


# --- hoisted resolvent --------------------------------------------------------------


@pytest.mark.parametrize("kind", [RealDiagonalizable, JordanBlock, ComplexPair])
def test_resolvent_factory_is_bit_identical_to_the_per_call_formula(kind):
    rng = np.random.default_rng(61)
    for _ in range(20):
        if kind is ComplexPair:
            es = random_complex_2x2(rng)[1]
            hi = es.kind.modulus * math.cos(es.kind.angle)
        else:
            es = real_schur_2x2(random_positive_real_2x2(rng, defective=kind is JordanBlock))
            hi = 0.9 * min(abs(e.real) for e in es.eigenvalues)
        assert isinstance(es.kind, kind)
        coords = rng.standard_normal(2)
        vector = _resolvent(es.kind, coords)
        for gamma in [0.0, hi] + np.linspace(0.0, hi, 52)[1:-1].tolist():
            expected = naive_resolvent_vector(es.kind, coords, gamma)
            assert [w.hex() for w in vector(gamma)] == [w.hex() for w in expected]


def bisection_calls(rng):
    """Solver and witness calls that reach every resolvent-bisection branch."""
    calls = []
    for k in range(30):
        T = random_positive_real_2x2(rng, defective=k % 2 == 1)
        a = translation_with_pullback(rng, T, rng.uniform(0.1, 0.9))
        calls += [lambda T=T, a=a: find_fixed_point(T, a), lambda T=T: choose_nondistal_witness(T)]
        T, es = random_complex_2x2(rng)
        bound = es.conditioning * abs(math.sin(es.kind.angle))
        a = translation_with_pullback(rng, T, rng.uniform(min(bound + 1e-6, 0.94), 0.95))
        calls += [lambda T=T, a=a: find_fixed_point(T, a), lambda T=T: choose_nondistal_witness(T)]
        R = rng.uniform(0.5, 2.0) * rotation(rng.uniform(0.05, 1.5))
        calls.append(lambda R=R: choose_nondistal_witness(R))
        theta = rng.uniform(1.7, 3.0)  # cos <= 0; beta above sqrt(5)/sin(theta) makes ||L|| > 5
        L = rng.uniform(0.5, 2.0) * conjugate_to_large_norm(rotation(theta), 3.0 / math.sin(theta))
        calls.append(lambda L=L: choose_nondistal_witness(L))
    return calls


def result_fields(out):
    """Every field of a solver result, or of a witness (a, result), as exact values."""
    a, r = out if isinstance(out, tuple) else (None, out)
    return (None if a is None else a.tobytes(), r.point.tobytes(), r.gamma, r.residual, r.branch)


def test_solvers_match_a_naive_bisection_on_every_branch(monkeypatch):
    from sphere_distal import fixed_points

    got = [call() for call in bisection_calls(np.random.default_rng(62))]
    monkeypatch.setattr(fixed_points, "_bracketed_point", naive_bracketed_point)
    want = [call() for call in bisection_calls(np.random.default_rng(62))]
    assert [result_fields(g) for g in got] == [result_fields(w) for w in want]
    branches = {result_fields(g)[-1] for g in got}
    assert {
        BRANCH_BISECTION, BRANCH_BISECTION_DEFECTIVE, BRANCH_BISECTION_ROTATION,
        BRANCH_BISECTION_DOUBLE_ANGLE, BRANCH_BISECTION_LARGE_TRANSLATION,
    } <= branches


def counted_evaluations(monkeypatch):
    """Record each bisection a solver runs: a list of (lo, hi, bisection_tol,
    the gammas at which it evaluates f)."""
    from sphere_distal import fixed_points

    bisect, runs = fixed_points._bisect_to_one, []

    def counting(f, lo, hi, config, context):
        gammas = []
        runs.append((lo, hi, config.bisection_tol, gammas))

        def counted(gamma):
            gammas.append(gamma)
            return f(gamma)

        return bisect(counted, lo, hi, config, context)

    monkeypatch.setattr(fixed_points, "_bisect_to_one", counting)
    return runs


def test_bisection_stops_once_the_midpoint_no_longer_splits(monkeypatch):
    # once the midpoint equals an end, a step would re-evaluate that end and
    # change nothing, so a tolerance below the float spacing at gamma costs no steps
    T, a = np.diag([2.0, 0.5]), [0.3, 0.2]
    es = real_schur_2x2(T)
    coords = matrix_inverse(es.kind.basis) @ np.array(a)
    hi = 0.5 - 2e-10  # the solver's bracket: min(t, s) less the guard

    def plain(tol):
        calls = []

        def f(gamma):
            calls.append(gamma)
            w0, w1 = naive_resolvent_vector(es.kind, coords, gamma)
            return math.sqrt(w0 * w0 + w1 * w1)

        return _bisect_to_one(f, 0.0, hi, Config(bisection_tol=tol), "probe").hex(), len(calls)

    assert plain(1e-300) == plain(1e-16)
    gamma, evaluations = plain(1e-300)
    assert gamma == "0x1.2ff272d640a73p-2" and evaluations <= 60
    # the solver evaluates f at the two ends and once per halving, as the plain bisection does
    runs = counted_evaluations(monkeypatch)
    gammas = [find_fixed_point(T, a, Config(bisection_tol=tol)).gamma.hex() for tol in (1e-16, 1e-300)]
    assert gammas == [gamma] * 2
    assert [len(run[-1]) for run in runs] == [evaluations] * 2


def conditioned_calls(rng):
    """Solver and witness calls on conjugators with condition numbers up to 1e4
    and matrix scales 1e-3..1e3."""
    calls = []
    for k in range(60):
        while True:
            A = random_conjugator(rng, 1e4) @ np.diag([1.0, 10.0 ** -rng.uniform(0.0, 4.0)])
            if np.linalg.cond(A) <= 1e4:
                break
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        B = [
            np.diag([rng.uniform(0.3, 2.5), rng.uniform(-2.5, 2.5)]),
            np.array([[1.0, 1.0], [0.0, 1.0]]) * rng.uniform(0.3, 2.0),
            rotation(10.0 ** rng.uniform(-4.5, 0.0)),
            rotation(rng.uniform(1.7, 3.0)),
        ][k % 4]
        T = scale * (A @ B @ matrix_inverse(A))
        a = translation_with_pullback(rng, T, rng.uniform(0.1, 0.95))
        calls += [lambda T=T, a=a: find_fixed_point(T, a), lambda T=T: choose_nondistal_witness(T)]
    return calls


def outcome(call):
    try:
        return result_fields(call())
    except SphereDistalError as err:
        return type(err).__name__, str(err)


def test_screened_solvers_match_a_naive_bisection_on_conditioned_inputs(monkeypatch):
    from sphere_distal import fixed_points

    got = [outcome(call) for call in conditioned_calls(np.random.default_rng(65))]
    with monkeypatch.context() as patch:
        patch.setattr(fixed_points, "_bracketed_point", naive_bracketed_point)
        want = [outcome(call) for call in conditioned_calls(np.random.default_rng(65))]
    assert got == want
    assert {
        BRANCH_BISECTION, BRANCH_BISECTION_DEFECTIVE, BRANCH_BISECTION_ROTATION,
        BRANCH_BISECTION_DOUBLE_ANGLE, BRANCH_BISECTION_LARGE_TRANSLATION,
    } <= {g[-1] for g in got}
    # f is evaluated at the two ends and once per halving, never twice at one gamma
    runs = counted_evaluations(monkeypatch)
    for call in bisection_calls(np.random.default_rng(62)):
        call()
    assert len(runs) >= 150
    for lo, hi, tol, gammas in runs:
        assert gammas[:2] == [lo, hi] and len(set(gammas)) == len(gammas)
        assert len(gammas) <= 3 + math.ceil(math.log2((hi - lo) / tol))


def outcome_or_error(call):
    """A solver's FixedPointResult (a witness's, for a witness), or the error it raises."""
    try:
        out = call()
    except SphereDistalError as err:
        return err
    return out[1] if isinstance(out, tuple) else out


@pytest.mark.parametrize(
    "calls, seed", [(bisection_calls, 62), (conditioned_calls, 65)], ids=["branches", "conditioned"]
)
def test_solvers_stay_close_to_a_numpy_bisection(monkeypatch, calls, seed):
    # the float-pair resolvent rounds otherwise than NumPy's matrix products, so
    # the two bisections agree to a few ulps, not bit for bit.  Measured maxima
    # over both call lists: |d gamma| 5.3e-16 and |d point| 4.2e-15 (cond A 1e4)
    from sphere_distal import fixed_points

    got = [outcome_or_error(call) for call in calls(np.random.default_rng(seed))]
    with monkeypatch.context() as patch:
        patch.setattr(fixed_points, "_bracketed_point", numpy_bracketed_point)
        want = [outcome_or_error(call) for call in calls(np.random.default_rng(seed))]
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w) and getattr(g, "reason", None) == getattr(w, "reason", None)
        if isinstance(g, FixedPointResult):
            assert g.branch == w.branch
            assert abs(g.gamma - w.gamma) <= 2e-15
            assert float(np.max(np.abs(g.point - w.point))) <= 2e-14
            assert g.residual <= Config().residual_tol
    assert {
        BRANCH_BISECTION, BRANCH_BISECTION_DEFECTIVE, BRANCH_BISECTION_ROTATION,
        BRANCH_BISECTION_DOUBLE_ANGLE, BRANCH_BISECTION_LARGE_TRANSLATION,
    } <= {g.branch for g in got if isinstance(g, FixedPointResult)}


def test_witness_cases_a_and_c_match_the_public_solvers():
    # one preparation gives the result the public solver builds for the witness's translation
    rng = np.random.default_rng(63)
    for _ in range(20):
        R = rng.uniform(0.5, 2.0) * rotation(rng.uniform(0.05, 1.5))
        for T, solve in ((random_positive_real_2x2(rng), find_fixed_point_real_positive),
                         (R, find_fixed_point_complex)):
            a, result = choose_nondistal_witness(T)
            assert result_fields(result) == result_fields(solve(T, a))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "solve",
    [find_fixed_point, lambda T, a: resolvent_norm(T, a, 0.5)],
    ids=["circle-map", "resolvent-norm"],
)
def test_nonfinite_translation_is_invalid(solve, bad):
    with pytest.raises(InvalidTranslation, match="finite"):
        solve(rotation(0.3), [bad, 0.0])
