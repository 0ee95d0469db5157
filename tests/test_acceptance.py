"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Tolerances are pinned here exactly as stated; nothing is
deferred to later calibration.
"""

import math

import numpy as np
import pytest

from helpers import (
    conjugate_to_large_norm,
    level_products,
    random_complex_2x2,
    random_conjugator,
    random_invertible,
    random_orthogonal_3x3,
    random_positive_real_2x2,
    translation_with_pullback,
)
from sphere_distal import (
    AffineSphereMap,
    HypothesisNotMet,
    Regime,
    Verdict,
    affine_inverse_image,
    affine_is_homeomorphism,
    apply_affine,
    choose_nondistal_witness,
    classify_projective_distality,
    find_fixed_point_complex,
    find_fixed_point_real_positive,
    isometry_even_sphere_witness,
    minus_id_period2_points,
    proximal_pair_search,
    replay_certificate,
    rotation,
    semigroup_distality_test,
)
from sphere_distal.distality import ProximalPair, SemigroupSpec, _word_levels
from sphere_distal.fixed_points import (
    BRANCH_ALIGNED_MAJOR,
    BRANCH_ALIGNED_MINOR,
    BRANCH_BISECTION,
    BRANCH_BISECTION_DEFECTIVE,
    BRANCH_MINOR_CROSSING,
    FixedPointResult,
    PeriodicPoints2,
)
from sphere_distal.linalg import (
    matrix_inverse,
    normalize_to_unimodular,
    operator_norm,
    real_schur_2x2,
)

import warnings

from sphere_distal.errors import NonInjectiveWarning


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def test_criterion_1_homeomorphism_lemma():
    """Round trips under the homeomorphism regime; antipodal witnesses beyond it."""
    rng = np.random.default_rng(101)
    for d in (2, 3):
        for _ in range(500):
            T = random_invertible(rng, d)
            a = translation_with_pullback(rng, T, rng.uniform(1e-3, 0.95))
            m = AffineSphereMap.create(T, a)
            assert m.regime is Regime.HOMEOMORPHISM
            y = rng.standard_normal(d)
            y /= np.linalg.norm(y)
            x = affine_inverse_image(m, y)
            assert np.linalg.norm(apply_affine(m, x) - y) < 1e-8
            forward = apply_affine(m, y)
            assert np.linalg.norm(affine_inverse_image(m, forward) - y) < 1e-8
    for d in (2, 3):
        for _ in range(200):
            T = random_invertible(rng, d)
            a = translation_with_pullback(rng, T, rng.uniform(1.05, 3.0))
            report = affine_is_homeomorphism(T, a)
            assert report.regime is Regime.NON_INJECTIVE
            m = AffineSphereMap.create(T, a)
            a_bar = a / np.linalg.norm(a)
            assert np.allclose(report.witness[0], -report.witness[1])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonInjectiveWarning)
                for w in report.witness:
                    assert np.linalg.norm(apply_affine(m, w) - a_bar) < 1e-9
    _report(1, "1000 homeomorphism round trips < 1e-8; 400 non-injective witnesses < 1e-9")


def test_criterion_2_real_positive_fixed_points():
    """1000 positive-real-eigenvalue matrices, residual < 1e-8, all five branches."""
    rng = np.random.default_rng(102)
    seen = {}
    count = jordan_count = 0

    def run(T, a):
        nonlocal count
        result = find_fixed_point_real_positive(T, a)
        assert result.residual < 1e-8
        seen[result.branch] = seen.get(result.branch, 0) + 1
        count += 1

    def canonical_translation(T, coords, c=0.5):
        es = real_schur_2x2(normalize_to_unimodular(T).unit)
        a0 = es.kind.basis @ np.asarray(coords, float)
        pull = np.linalg.norm(matrix_inverse(T) @ a0)
        return (c / pull) * a0

    for _ in range(450):  # generic: both canonical coordinates nonzero
        T = random_positive_real_2x2(rng)
        run(T, translation_with_pullback(rng, T, rng.uniform(0.1, 0.9)))
    for _ in range(150):  # translation on the major eigen-axis
        T = random_positive_real_2x2(rng)
        run(T, canonical_translation(T, [1.0, 0.0], rng.uniform(0.2, 0.8)))
    minor_pos = minor_neg = 0
    while minor_pos < 100 or minor_neg < 100:  # translation on the minor axis
        T = random_positive_real_2x2(rng)
        es = real_schur_2x2(normalize_to_unimodular(T).unit)
        if es.kind.eig_major <= 0.0:
            continue
        if es.kind.eig_minor > 0.0:
            if minor_pos >= 100:
                continue
            minor_pos += 1
        else:
            if minor_neg >= 100:
                continue
            minor_neg += 1
        run(T, canonical_translation(T, [0.0, 1.0], rng.uniform(0.2, 0.8)))
    for k in range(200):  # defective (Jordan) matrices
        T = random_positive_real_2x2(rng, defective=True)
        jordan_count += 1
        if k < 30:
            run(T, canonical_translation(T, [1.0, 0.0], rng.uniform(0.2, 0.8)))
        else:
            run(T, translation_with_pullback(rng, T, rng.uniform(0.1, 0.9)))

    assert count == 1000
    assert jordan_count >= 100
    for branch in (
        BRANCH_ALIGNED_MAJOR,
        BRANCH_ALIGNED_MINOR,
        BRANCH_MINOR_CROSSING,
        BRANCH_BISECTION,
        BRANCH_BISECTION_DEFECTIVE,
    ):
        assert seen.get(branch, 0) > 0, f"branch {branch} never exercised"
    _report(2, f"1000/1000 residuals < 1e-8, branch counts {seen}")


def test_criterion_3_complex_fixed_points():
    """500 complex-spectrum matrices under the hypothesis; failures must raise."""
    rng = np.random.default_rng(103)
    for _ in range(500):
        T, es = random_complex_2x2(rng)
        bound = es.conditioning * abs(math.sin(es.kind.angle))
        c = rng.uniform(min(bound + 1e-6, 0.94), 0.95)
        a = translation_with_pullback(rng, T, c)
        result = find_fixed_point_complex(T, a)
        assert result.residual < 1e-8
    raised = 0
    for _ in range(60):  # sine bound violated
        T, es = random_complex_2x2(rng)
        bound = es.conditioning * abs(math.sin(es.kind.angle))
        if bound < 0.05:
            continue
        c = rng.uniform(0.01, bound * 0.9)
        a = translation_with_pullback(rng, T, c)
        with pytest.raises(HypothesisNotMet):
            find_fixed_point_complex(T, a)
        raised += 1
    for _ in range(60):  # nonpositive cosine
        A = random_conjugator(rng)
        theta = rng.uniform(math.pi / 2 + 0.05, math.pi - 0.05)
        T = A @ rotation(theta) @ matrix_inverse(A)
        a = translation_with_pullback(rng, T, rng.uniform(0.1, 0.9))
        with pytest.raises(HypothesisNotMet):
            find_fixed_point_complex(T, a)
        raised += 1
    assert raised >= 100
    _report(3, f"500/500 residuals < 1e-8; {raised} hypothesis violations all raised")


def test_criterion_4_minus_id_period2():
    """Exactly four period-2 points for 100 random translations."""
    rng = np.random.default_rng(104)
    for _ in range(100):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        a = rng.uniform(0.05, 0.95) * direction
        pp = minus_id_period2_points(a)
        assert pp.points.shape == (4, 2)
        assert np.max(pp.residuals) < 1e-10
        m = AffineSphereMap.create(-np.eye(2), a)
        a_bar = a / np.linalg.norm(a)
        # cycle {a_bar, -a_bar}
        assert np.allclose(pp.points[0], a_bar, atol=1e-12)
        assert np.linalg.norm(apply_affine(m, pp.points[0]) + a_bar) < 1e-9
        assert np.linalg.norm(apply_affine(m, pp.points[1]) - a_bar) < 1e-9
        # cycle {x0, a - x0}
        x0, x1 = pp.points[2], pp.points[3]
        assert np.allclose(x0 + x1, a, atol=1e-12)
        assert np.linalg.norm(apply_affine(m, x0) - x1) < 1e-9
        assert np.linalg.norm(apply_affine(m, x1) - x0) < 1e-9
    _report(4, "100/100 translations give 4 period-2 points, residuals < 1e-10")


def test_criterion_5_witness_existence_all_classes():
    """Each covered eigenvalue class yields a verified witness and the oracle
    then finds a pair dropping from >= 0.3 to < 1e-3."""
    rng = np.random.default_rng(105)
    A = random_conjugator(rng, max_cond=4.0)
    matrices = {
        "positive-real": A @ np.diag([2.0, 0.5]) @ matrix_inverse(A),
        "both-negative": A @ np.diag([-2.0, -0.5]) @ matrix_inverse(A),
        "complex-isometry": rotation(math.pi / 4),
        "complex-skew": A @ (1.5 * rotation(0.9)) @ matrix_inverse(A),
        "large-norm": conjugate_to_large_norm(rotation(2.0), 3.0),
    }
    # the large-norm class satisfies ||T|| > 5 sqrt(det T) by construction,
    # with beta = 3 > sqrt(5)/|sin 2|
    assert operator_norm(matrices["large-norm"]) > 5.0
    for label, T in matrices.items():
        a, result = choose_nondistal_witness(T)
        pull = np.linalg.norm(matrix_inverse(np.asarray(T, float)) @ a)
        assert 0.0 < pull < 1.0, label
        if isinstance(result, FixedPointResult):
            assert result.residual < 1e-8, label
        else:
            assert isinstance(result, PeriodicPoints2)
            assert np.max(result.residuals) < 1e-8, label
        m = AffineSphereMap.create(T, a)
        pair = proximal_pair_search(
            m, samples=32, iterations=20000, eps=1e-3, delta=0.3, seed=17
        )
        assert pair is not None, label
        assert pair.separation_initial >= 0.3
        assert pair.separation_final < 1e-3
    _report(5, f"{len(matrices)} eigenvalue classes: witness verified, oracle pair found")


def _criterion_corpus():
    corpus = {
        "rot-1": rotation(1.0),
        "rot-sqrt2": rotation(math.sqrt(2.0)),
        "rot-pi4": rotation(math.pi / 4),
        "rot-pi2": rotation(math.pi / 2),
        "rot-2": rotation(2.0),
        "rot-01": rotation(0.1),
        "shear": SHEAR,
        "shear-t": SHEAR.T.copy(),
        "shear-sq": SHEAR @ SHEAR,
        "neg-shear": -SHEAR,
        "diag-2": np.diag([2.0, 0.5]),
        "diag-inv": np.diag([0.5, 2.0]),
        "diag-3": np.diag([3.0, 1.0 / 3.0]),
        "diag-neg": np.diag([-2.0, -0.5]),
        "reflection": np.diag([1.0, -1.0]),
        "diag-4": np.diag([4.0, 0.25]),
        "id": np.eye(2),
        "neg-id": -np.eye(2),
        "rot-shear": rotation(1.0) @ SHEAR,
        "shear-diag": SHEAR @ np.diag([2.0, 0.5]),
        "rot-diag": rotation(math.pi / 4) @ np.diag([2.0, 0.5]),
        "diag-rot": np.diag([2.0, 0.5]) @ rotation(math.pi / 4),
        "shear-diaginv": SHEAR @ np.diag([0.5, 2.0]),
        "scaled-rot": 2.0 * rotation(1.3),
    }
    assert len(corpus) == 24
    return corpus


def test_criterion_6_classifier_oracle_equivalence():
    """Verdict and oracle outcome agree exactly on the 24-matrix corpus."""
    corpus = _criterion_corpus()
    for name, T in corpus.items():
        verdict = classify_projective_distality(T)
        assert verdict.verdict is not Verdict.INCONCLUSIVE, name
        m = AffineSphereMap.create(T)
        pair = proximal_pair_search(
            m, samples=64, iterations=2000, eps=1e-4, delta=0.3, seed=0
        )
        found = pair is not None
        assert found == (verdict.verdict is Verdict.NOT_DISTAL), name
    assert classify_projective_distality(SHEAR).verdict is Verdict.NOT_DISTAL
    _report(6, "24/24 corpus members: classifier and oracle agree exactly")


def test_criterion_7_semigroup_tests():
    """Rotation pairs stay distal to length 8; the shear trips the cyclic test;
    every certificate replays within 10%."""
    spec_good = SemigroupSpec(generators=(rotation(1.0), rotation(math.sqrt(2.0))))
    v_good = semigroup_distality_test(spec_good)
    assert v_good.verdict is Verdict.DISTAL
    units = [normalize_to_unimodular(G).unit for G in spec_good.generators]
    norms = [operator_norm(M) for level, _, _ in _word_levels(units, 8) for M in level_products(level, 2)]
    assert len(norms) == 2**9 - 2
    assert max(abs(n - 1.0) for n in norms) < 1e-9

    spec_bad = SemigroupSpec(generators=(rotation(math.pi / 4), SHEAR))
    v_bad = semigroup_distality_test(spec_bad)
    assert v_bad.verdict is Verdict.NOT_DISTAL
    assert isinstance(v_bad.certificate, ProximalPair)
    assert v_bad.certificate.word == (1,)
    assert replay_certificate(v_bad.certificate, generators=spec_bad.generators)

    G2 = conjugate_to_large_norm(rotation(0.9), 3.0)
    spec_grow = SemigroupSpec(generators=(rotation(0.7), G2))
    v_grow = semigroup_distality_test(spec_grow)
    assert v_grow.verdict is Verdict.NOT_DISTAL
    assert replay_certificate(v_grow.certificate, generators=spec_grow.generators)
    _report(7, "510 rotation words at norm 1; cyclic and word certificates replay")


def test_criterion_8_even_sphere_witnesses():
    """50 random orthogonal 3x3 matrices all yield a valid translation and a
    pair whose separations fall below 1e-3."""
    rng = np.random.default_rng(108)
    for k in range(50):
        Q = random_orthogonal_3x3(rng, flip=bool(k % 2))
        a, pair = isometry_even_sphere_witness(Q)
        assert 0.0 < np.linalg.norm(a) < 1.0
        assert pair.separation_initial >= 0.3
        assert pair.separation_final < 1e-3
    _report(8, "50/50 orthogonal matrices: witness translation and pair verified")


def test_criterion_9_equivariance_and_powers():
    """Verdicts and fixed points are invariant under (T, a) -> (beta*T, beta*a)
    with exact point equality, and verdicts under T -> T^2."""
    betas = (0.5, 2.0, 10.0)
    fixed_point_cases = [
        (np.diag([2.0, 0.5]), np.array([0.3, 0.2]), find_fixed_point_real_positive),
        (np.diag([2.0, 0.5]), np.array([0.3, 0.0]), find_fixed_point_real_positive),
        (np.diag([2.0, 0.5]), np.array([0.0, 0.2]), find_fixed_point_real_positive),
        (np.array([[2.0, 0.0], [0.0, -0.5]]), np.array([0.0, 0.2]), find_fixed_point_real_positive),
        (SHEAR, np.array([0.1, -0.3]), find_fixed_point_real_positive),
        (np.array([[0.6, -0.8], [0.8, 0.6]]), np.array([0.9, 0.0]), find_fixed_point_complex),
    ]
    for T, a, solver in fixed_point_cases:
        base = solver(T, a)
        for beta in betas:
            scaled = solver(beta * T, beta * a)
            assert np.array_equal(scaled.point, base.point)
            assert scaled.branch == base.branch
    corpus = _criterion_corpus()
    for name, T in corpus.items():
        base = classify_projective_distality(T).verdict
        for beta in betas:
            assert classify_projective_distality(beta * T).verdict is base, name
        assert classify_projective_distality(T @ T).verdict is base, name
    _report(9, "fixed points bit-identical under scaling; verdicts stable under scaling and squaring")
