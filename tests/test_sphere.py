import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    csv_writer_orbit,
    naive_apply_many,
    random_invertible,
    translation_with_pullback,
)
from sphere_distal import (
    AffineSphereMap,
    DegenerateMap,
    DimensionMismatch,
    InvalidTranslation,
    NonInjectiveWarning,
    Regime,
    ZeroTranslation,
    affine_inverse_image,
    affine_is_homeomorphism,
    apply_affine,
    apply_projective,
    orbit,
    rotation,
)
from sphere_distal.serialize import orbit_to_csv
from sphere_distal.sphere import apply_many, as_sphere_point


def test_apply_projective_eigendirection():
    out = apply_projective(np.diag([2.0, 1.0]), [1.0, 0.0])
    assert np.allclose(out, [1.0, 0.0])


def test_apply_projective_normalizes():
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = apply_projective(np.diag([2.0, 1.0]), x)
    assert np.allclose(out, np.array([2.0, 1.0]) / math.sqrt(5.0))


def test_apply_projective_shear():
    out = apply_projective([[1.0, 1.0], [0.0, 1.0]], [0.0, 1.0])
    assert np.allclose(out, np.array([1.0, 1.0]) / math.sqrt(2.0))


def test_positive_scale_equivariance_exact():
    rng = np.random.default_rng(1)
    for _ in range(25):
        T = random_invertible(rng, 2)
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        base = apply_projective(T, x)
        for beta in (0.5, 2.0, 1024.0):
            assert np.array_equal(apply_projective(beta * T, x), base)


def test_affine_scale_equivariance():
    # the affine map built from (beta*T, beta*a) is the same map
    rng = np.random.default_rng(2)
    for _ in range(25):
        T = random_invertible(rng, 2)
        a = translation_with_pullback(rng, T, 0.5)
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        base = apply_affine(AffineSphereMap.create(T, a), x)
        for beta in (0.5, 2.0, 8.0):
            m = AffineSphereMap.create(beta * T, beta * a)
            assert np.array_equal(apply_affine(m, x), base)


def test_apply_affine_fixed_point_example():
    m = AffineSphereMap.create(np.diag([2.0, 0.5]), [0.0, 0.2])
    out = apply_affine(m, [0.0, 1.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_apply_affine_identity():
    m = AffineSphereMap.create(np.eye(2))
    x = np.array([0.6, 0.8])
    assert np.allclose(apply_affine(m, x), x)


def test_apply_affine_minus_id_period2():
    m = AffineSphereMap.create(-np.eye(2), [0.6, 0.0])
    out = apply_affine(m, [1.0, 0.0])
    assert np.allclose(out, [-1.0, 0.0])  # (0.6 - 1, 0) / 0.4


def test_regime_homeomorphism():
    report = affine_is_homeomorphism(np.diag([2.0, 0.5]), [0.0, 0.2])
    assert report.regime is Regime.HOMEOMORPHISM
    assert report.pullback_norm == pytest.approx(0.4)


def test_regime_non_injective_witness():
    report = affine_is_homeomorphism(np.eye(2), [3.0, 0.0])
    assert report.regime is Regime.NON_INJECTIVE
    assert report.pullback_norm == pytest.approx(3.0)
    x, minus_x = report.witness
    assert np.allclose(x, -minus_x)
    m = AffineSphereMap.create(np.eye(2), [3.0, 0.0])
    with pytest.warns(NonInjectiveWarning):
        image_plus = apply_affine(m, x)
    with pytest.warns(NonInjectiveWarning):
        image_minus = apply_affine(m, minus_x)
    a_bar = np.array([1.0, 0.0])
    assert np.linalg.norm(image_plus - a_bar) < 1e-9
    assert np.linalg.norm(image_minus - a_bar) < 1e-9


def test_regime_degenerate():
    report = affine_is_homeomorphism(np.eye(2), [1.0, 0.0])
    assert report.regime is Regime.DEGENERATE
    m = AffineSphereMap.create(np.eye(2), [1.0, 0.0])
    with pytest.raises(DegenerateMap):
        apply_affine(m, [0.0, 1.0])


def test_non_injective_map_refuses_a_point_it_annihilates():
    # a + T x = (5e-11, 0) is shorter than classify_tol: there is no image to normalize
    m = AffineSphereMap.create(np.diag([1e-10, 1.0]), [1.5e-10, 0.0])
    assert m.regime is Regime.NON_INJECTIVE
    with pytest.warns(NonInjectiveWarning), pytest.raises(DegenerateMap, match="^map annihilates this point$"):
        apply_affine(m, [-1.0, 0.0])


def test_regime_zero_translation():
    with pytest.raises(ZeroTranslation):
        affine_is_homeomorphism(np.eye(2), [0.0, 0.0])


def test_noninjective_witness_random():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(50):
            T = random_invertible(rng, d)
            a = translation_with_pullback(rng, T, rng.uniform(1.05, 3.0))
            report = affine_is_homeomorphism(T, a)
            assert report.regime is Regime.NON_INJECTIVE
            m = AffineSphereMap.create(T, a)
            a_bar = a / np.linalg.norm(a)
            with pytest.warns(NonInjectiveWarning):
                for w in report.witness:
                    assert np.linalg.norm(apply_affine(m, w) - a_bar) < 1e-9


def test_inverse_image_quadratic_example():
    # Psi(t) = |t - 0.5| crosses 1 at t0 = 1.5, so the preimage is (1, 0)
    m = AffineSphereMap.create(np.eye(2), [0.5, 0.0])
    x = affine_inverse_image(m, [1.0, 0.0])
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert np.allclose(apply_affine(m, x), [1.0, 0.0], atol=1e-12)


def test_inverse_image_projective_reduction():
    T = np.array([[2.0, 1.0], [0.0, 1.0]])
    m = AffineSphereMap.create(T)
    y = np.array([0.6, 0.8])
    x = affine_inverse_image(m, y)
    Tinv_y = np.linalg.solve(T, y)
    assert np.allclose(x, Tinv_y / np.linalg.norm(Tinv_y))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.floats(0.02, 0.93),
    d=st.sampled_from([2, 3]),
)
def test_inverse_forward_round_trip(seed, c, d):
    rng = np.random.default_rng(seed)
    T = random_invertible(rng, d)
    a = translation_with_pullback(rng, T, c)
    m = AffineSphereMap.create(T, a)
    assert m.regime is Regime.HOMEOMORPHISM
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    x = affine_inverse_image(m, y)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-9
    assert np.linalg.norm(apply_affine(m, x) - y) < 1e-8
    # and the other composition order
    forward = apply_affine(m, y)
    back = affine_inverse_image(m, forward)
    assert np.linalg.norm(back - y) < 1e-8


def test_orbit_rotation_order4():
    m = AffineSphereMap.create(rotation(math.pi / 2))
    record = orbit(m, [1.0, 0.0], 4)
    assert record.points.shape[0] == 5
    assert np.allclose(record.points[4], record.points[0], atol=1e-12)


def test_orbit_shear_converges_to_pole():
    # iterates of (0, 1) under the shear are (n, 1)/sqrt(n^2 + 1)
    m = AffineSphereMap.create([[1.0, 1.0], [0.0, 1.0]])
    record = orbit(m, [0.0, 1.0], 40)
    for n in range(41):
        expected = np.array([n, 1.0]) / math.hypot(n, 1.0)
        assert np.allclose(record.points[n], expected, atol=1e-12)
    assert np.linalg.norm(record.points[-1] - [1.0, 0.0]) < 0.05


def test_orbit_zero_steps():
    m = AffineSphereMap.create(np.eye(2))
    record = orbit(m, [0.0, 1.0], 0)
    assert record.points.shape == (1, 2)


def test_orbit_step_invariant():
    rng = np.random.default_rng(4)
    T = random_invertible(rng, 3)
    a = translation_with_pullback(rng, T, 0.4)
    m = AffineSphereMap.create(T, a)
    record = orbit(m, np.array([1.0, 0.0, 0.0]), 25)
    for k in range(25):
        step = apply_affine(m, record.points[k])
        assert np.linalg.norm(record.points[k + 1] - step) < 1e-9
        assert abs(np.linalg.norm(record.points[k + 1]) - 1.0) < 1e-9


def test_orbit_rejects_bad_regime():
    m = AffineSphereMap.create(np.eye(2), [2.0, 0.0])
    with pytest.raises(InvalidTranslation):
        orbit(m, [1.0, 0.0], 3)


@pytest.mark.parametrize("steps", [0, 1, 50])
@pytest.mark.parametrize("d", [2, 3])
def test_orbit_is_bit_identical_to_an_apply_affine_walk(d, steps):
    rng = np.random.default_rng(80 + d)
    T = random_invertible(rng, d)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    maps = [AffineSphereMap.create(T), AffineSphereMap.create(T, translation_with_pullback(rng, T, 0.5))]
    assert [m.regime for m in maps] == [Regime.PROJECTIVE, Regime.HOMEOMORPHISM]
    for m in maps:
        walk = [as_sphere_point(x)]
        for _ in range(steps):
            walk.append(apply_affine(m, walk[-1]))
        record = orbit(m, x, steps)
        assert np.array_equal(record.points, np.array(walk))
        fh = io.StringIO()
        orbit_to_csv(record, fh)
        assert fh.getvalue() == csv_writer_orbit(record.points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [AffineSphereMap.create, affine_is_homeomorphism])
def test_nonfinite_translation_is_invalid(build, bad):
    with pytest.raises(InvalidTranslation, match="finite"):
        build(rotation(0.3), [bad, 0.0])


@pytest.mark.parametrize("x", [[math.nan, 0.0], [math.nan, 1.0], [math.inf, 0.0]])
def test_as_sphere_point_rejects_nonfinite(x):
    with pytest.raises(ValueError):
        as_sphere_point(x)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_apply_many_matches_the_wrapped_formula(d):
    rng = np.random.default_rng(40 + d)
    X = rng.standard_normal((16, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    T = random_invertible(rng, d)
    stack = rng.standard_normal((64, d, d))
    maps = [AffineSphereMap.create(T), AffineSphereMap.create(T, translation_with_pullback(rng, T, 0.5))]
    assert [m.regime for m in maps] == [Regime.PROJECTIVE, Regime.HOMEOMORPHISM]
    for m in maps + [replace(m, matrix=W) for m in maps for W in (stack, stack[:1])]:
        got = apply_many(m, X)
        assert got.shape == (X.shape if m.matrix.ndim == 2 else (len(m.matrix),) + X.shape)
        # array_equal treats -0.0 and 0.0 as equal, the one allowed difference
        assert np.array_equal(got, naive_apply_many(m, X))
        assert np.array_equal(apply_many(m, X[0]), naive_apply_many(m, X[0]))
        assert np.array_equal(apply_many(m, X[:1]), naive_apply_many(m, X[:1]))


def test_sphere_points_and_translations_of_the_wrong_shape_are_refused():
    with pytest.raises(DimensionMismatch):
        as_sphere_point(np.eye(2))
    with pytest.raises(DimensionMismatch):
        as_sphere_point([1.0, 0.0, 0.0], 2)
    with pytest.raises(DimensionMismatch):
        AffineSphereMap.create(np.eye(2), [0.5, 0.0, 0.0])


@pytest.mark.parametrize("a, regime", [([1.0, 0.0], Regime.DEGENERATE), ([2.0, 0.0], Regime.NON_INJECTIVE)])
def test_inverse_image_needs_the_homeomorphism_regime(a, regime):
    m = AffineSphereMap.create(np.eye(2), a)
    assert m.regime is regime
    with pytest.raises(DegenerateMap, match="homeomorphism"):
        affine_inverse_image(m, [0.0, 1.0])
