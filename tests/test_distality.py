import itertools
import math

import numpy as np
import pytest

from helpers import random_conjugator
from sphere_distal import (
    AffineSphereMap,
    BudgetExhausted,
    Config,
    DimensionMismatch,
    OracleBudget,
    ProximalPair,
    SemigroupSpec,
    SingularMatrix,
    SpectralProof,
    UnboundedWord,
    Verdict,
    classify_projective_distality,
    conjugate_to_large_norm,
    distality_implies_linear_distality_check,
    normalize_to_unimodular,
    operator_norm,
    proximal_pair_search,
    replay_certificate,
    rotation,
    semigroup_distality_test,
)
from sphere_distal.distality import _enumerate_words, _pair_blocks, _sample_far_pairs, _word_product
from sphere_distal.fixed_points import _circle_pair_search
from sphere_distal.linalg import _operator_norm, matrix_inverse
from sphere_distal.sphere import apply_many


def test_classify_shear_not_distal():
    v = classify_projective_distality([[1.0, 1.0], [0.0, 1.0]])
    assert v.verdict is Verdict.NOT_DISTAL
    assert isinstance(v.certificate, ProximalPair)
    assert replay_certificate(v.certificate, matrix=[[1.0, 1.0], [0.0, 1.0]])


def test_classify_rotations_distal():
    for theta in (0.1, 1.0, math.pi / 4, 2.7):
        v = classify_projective_distality(rotation(theta))
        assert v.verdict is Verdict.DISTAL
        assert isinstance(v.certificate, SpectralProof)
        assert v.certificate.semisimple


def test_classify_split_diag_collapses_to_pole():
    T = np.diag([2.0, 0.5])
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.NOT_DISTAL
    cert = v.certificate
    assert cert.separation_final < 1e-6
    # both certificate points end up on the dominant axis
    m = AffineSphereMap.create(T)
    from sphere_distal import apply_affine

    for start in (cert.x, cert.y):
        p = start
        for _ in range(cert.steps):
            p = apply_affine(m, p)
        assert abs(abs(p[0]) - 1.0) < 1e-6


def test_classify_scaled_rotation_distal():
    # complex pair with equal moduli normalizes to a conjugated rotation
    v = classify_projective_distality([[0.0, -4.0], [1.0, 0.0]])
    assert v.verdict is Verdict.DISTAL


def test_classify_inconclusive_near_boundary():
    delta = 1e-8
    v = classify_projective_distality(np.diag([1.0 + delta, 1.0 / (1.0 + delta)]))
    assert v.verdict is Verdict.INCONCLUSIVE
    assert isinstance(v.certificate, BudgetExhausted)


def test_classify_d3_defective():
    T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.NOT_DISTAL
    assert replay_certificate(v.certificate, matrix=T)


def test_classify_d3_defective_with_simple_eigenvalue():
    # the collapse pair must be built at the defective eigenvalue (+1 here),
    # not at whichever real eigenvalue comes first
    T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.NOT_DISTAL
    assert v.certificate.separation_final < 1e-4
    assert replay_certificate(v.certificate, matrix=T)


def test_classify_d3_isometry_distal():
    c, s = math.cos(0.9), math.sin(0.9)
    T = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert classify_projective_distality(T).verdict is Verdict.DISTAL


def test_classify_scale_invariance():
    rng = np.random.default_rng(21)
    mats = [
        np.diag([2.0, 0.5]),
        rotation(1.0),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        random_conjugator(rng),
    ]
    for T in mats:
        base = classify_projective_distality(T).verdict
        for beta in (0.5, 2.0, 10.0, 3.7):
            assert classify_projective_distality(beta * np.asarray(T, float)).verdict is base


def test_classify_power_invariance():
    rng = np.random.default_rng(31)
    mats = [
        rotation(0.8),
        np.diag([2.0, 0.5]),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        2.0 * rotation(1.3),
        -np.eye(2),
    ]
    for _ in range(10):  # random samples: conjugated splits and rotations
        A = random_conjugator(rng, max_cond=5.0)
        mats.append(A @ np.diag([rng.uniform(1.1, 2.0), rng.uniform(0.3, 0.9)]) @ matrix_inverse(A))
        mats.append(rotation(rng.uniform(0.0, 2.0 * math.pi)))
    for T in mats:
        base = classify_projective_distality(T).verdict
        for k in (2, 3):
            assert classify_projective_distality(np.linalg.matrix_power(T, k)).verdict is base


# --- oracle -------------------------------------------------------------------


def test_oracle_finds_shear_pair():
    m = AffineSphereMap.create([[1.0, 1.0], [0.0, 1.0]])
    pair = proximal_pair_search(m, samples=32, iterations=2000, eps=1e-3, delta=0.5, seed=0)
    assert pair is not None
    assert pair.separation_initial >= 0.5
    assert pair.separation_final < 1e-3


def test_oracle_rotation_finds_nothing():
    m = AffineSphereMap.create(rotation(1.0))
    assert proximal_pair_search(m, samples=16, iterations=500, eps=1e-4, delta=0.3, seed=0) is None


def test_oracle_affine_attracting_fixed_point():
    m = AffineSphereMap.create(np.diag([2.0, 0.5]), [0.3, 0.2])
    pair = proximal_pair_search(m, samples=32, iterations=4000, eps=1e-4, delta=0.3, seed=1)
    assert pair is not None


def test_oracle_deterministic():
    m = AffineSphereMap.create([[1.0, 1.0], [0.0, 1.0]])
    a = proximal_pair_search(m, samples=16, iterations=500, eps=1e-3, delta=0.4, seed=9)
    b = proximal_pair_search(m, samples=16, iterations=500, eps=1e-3, delta=0.4, seed=9)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and a.steps == b.steps


def test_oracle_validates_budget():
    m = AffineSphereMap.create(rotation(1.0))
    with pytest.raises(ValueError):
        proximal_pair_search(m, eps=0.5, delta=0.1)


def test_oracle_classifier_agreement():
    """Classifier NotDistal <=> oracle finds a pair, on a corpus of random
    matrices with eigen-moduli at least 0.05 away from 1 or exactly
    orthogonal."""
    rng = np.random.default_rng(2024)
    corpus = []
    for k in range(500):
        A = random_conjugator(rng, max_cond=5.0)
        style = k % 3
        if style == 0:
            t = rng.uniform(1.05, 2.5)
            s = rng.uniform(0.2, 0.95) * rng.choice([-1.0, 1.0])
            B = np.diag([t, s])
            corpus.append((A @ B @ matrix_inverse(A), False))
        elif style == 1:
            lam = rng.uniform(0.3, 2.0)
            B = np.array([[lam, 1.0], [0.0, lam]])
            corpus.append((A @ B @ matrix_inverse(A), False))
        else:
            Q = rotation(rng.uniform(0.0, 2.0 * math.pi))
            if rng.random() < 0.3:
                Q = Q @ np.diag([1.0, -1.0])
            corpus.append((Q, True))
    mismatches = 0
    for T, expect_distal in corpus:
        verdict = classify_projective_distality(T)
        expected = Verdict.DISTAL if expect_distal else Verdict.NOT_DISTAL
        assert verdict.verdict is expected
        m = AffineSphereMap.create(T)
        pair = proximal_pair_search(m, samples=64, iterations=2000, eps=1e-4, delta=0.3, seed=7)
        if (pair is not None) != (verdict.verdict is Verdict.NOT_DISTAL):
            mismatches += 1
    assert mismatches == 0


# --- linear distality implication ----------------------------------------------


def test_linear_distality_check():
    assert distality_implies_linear_distality_check(rotation(1.0))
    assert distality_implies_linear_distality_check([[1.0, 1.0], [0.0, 1.0]])
    assert distality_implies_linear_distality_check(np.diag([2.0, 0.5]))


def test_linear_distality_requires_unimodular():
    from sphere_distal import NotUnimodular

    with pytest.raises(NotUnimodular):
        distality_implies_linear_distality_check(np.diag([2.0, 2.0]))


# --- semigroups -------------------------------------------------------------------


def test_semigroup_two_rotations_distal():
    spec = SemigroupSpec(generators=(rotation(1.0), rotation(math.sqrt(2.0))))
    v = semigroup_distality_test(spec)
    assert v.verdict is Verdict.DISTAL
    assert isinstance(v.certificate, BudgetExhausted)
    params = v.certificate.parameters
    assert params["words_checked"] == 2**9 - 2  # exhaustive to length 8
    assert abs(params["max_word_norm"] - 1.0) < 1e-12


def test_semigroup_rotation_plus_shear():
    spec = SemigroupSpec(
        generators=(rotation(math.pi / 4), np.array([[1.0, 1.0], [0.0, 1.0]]))
    )
    v = semigroup_distality_test(spec)
    assert v.verdict is Verdict.NOT_DISTAL
    assert isinstance(v.certificate, ProximalPair)
    assert v.certificate.word == (1,)  # the shear fails the cyclic test
    assert replay_certificate(v.certificate, generators=spec.generators)


def test_semigroup_split_diagonals():
    spec = SemigroupSpec(generators=(np.diag([2.0, 0.5]), np.diag([0.5, 2.0])))
    v = semigroup_distality_test(spec)
    assert v.verdict is Verdict.NOT_DISTAL
    assert v.certificate.word in ((0,), (1,))


def test_semigroup_unbounded_word():
    # each generator is individually distal, but alternating words grow
    G1 = rotation(0.7)
    G2 = conjugate_to_large_norm(rotation(0.9), 3.0)
    for G in (G1, G2):
        assert classify_projective_distality(G).verdict is Verdict.DISTAL
    spec = SemigroupSpec(generators=(G1, G2))
    v = semigroup_distality_test(spec)
    assert v.verdict is Verdict.NOT_DISTAL
    assert isinstance(v.certificate, UnboundedWord)
    assert v.certificate.norm > v.certificate.bound
    assert replay_certificate(v.certificate, generators=spec.generators)


def test_semigroup_dimension_mismatch():
    spec = SemigroupSpec(generators=(rotation(1.0), np.eye(3)))
    with pytest.raises(DimensionMismatch):
        semigroup_distality_test(spec)


def test_semigroup_inconclusive_generator():
    delta = 1e-8
    spec = SemigroupSpec(
        generators=(rotation(0.3), np.diag([1.0 + delta, 1.0 / (1.0 + delta)]))
    )
    v = semigroup_distality_test(spec)
    assert v.verdict is Verdict.INCONCLUSIVE


def test_certificate_replay_tolerance():
    v = classify_projective_distality(np.diag([3.0, 1.0 / 3.0]))
    cert = v.certificate
    assert replay_certificate(cert, matrix=np.diag([3.0, 1.0 / 3.0]))
    # a tampered claim fails the 10% replay check
    import dataclasses

    forged = dataclasses.replace(cert, separation_final=cert.separation_final * 2.0 + 0.1)
    assert not replay_certificate(forged, matrix=np.diag([3.0, 1.0 / 3.0]))


def test_replay_rejects_a_pair_that_never_got_closer():
    shear = [[1.0, 1.0], [0.0, 1.0]]
    v = classify_projective_distality(shear, Config(oracle=OracleBudget(iterations=0)))
    assert v.certificate.steps == 0
    assert not replay_certificate(v.certificate, matrix=shear)
    # a rotation keeps every separation: a claim that reproduces but shows no approach
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    sep0 = float(np.linalg.norm(x - y))
    stuck = ProximalPair(x, y, steps=5, separation_initial=sep0, separation_final=sep0)
    assert not replay_certificate(stuck, matrix=rotation(1.0))


# --- orbit-pair kernel ------------------------------------------------------------


def _kernel_cases():
    c, s = math.cos(0.9), math.sin(0.9)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    return [
        rotation(1.0),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.diag([3.0, 1.0 / 3.0]),
        np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
        1e3 * Q @ np.diag([2.0, 1.0, 0.5]) @ Q.T,
    ]


def test_pair_blocks_match_step_by_step():
    rng = np.random.default_rng(11)
    for T in _kernel_cases():
        m = AffineSphereMap.create(T)
        P = rng.standard_normal((2, m.dim))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        blocks = _pair_blocks(m, P)
        blocked = np.concatenate([next(blocks) for _ in range(2000 // 64 + 1)])[:2000]
        reference = P
        for step in range(2000):
            reference = apply_many(m, reference)
            assert np.max(np.abs(blocked[step] - reference)) <= 1e-12, (T, step + 1)


def test_replay_reproduces_classifier_separation_exactly():
    for T in _kernel_cases() + [np.diag([2.0, 0.5]), np.array([[1.0, 1e-1], [0.0, 1.0]])]:
        v = classify_projective_distality(T)
        if v.verdict is Verdict.NOT_DISTAL:
            assert replay_certificate(v.certificate, matrix=T, tolerance=0.0)


def _naive_first_hit(m, X0, Y0, iterations, eps):
    """The step-by-step oracle loop: first step with a hit, smallest pair wins."""
    X, Y = X0, Y0
    for step in range(1, iterations + 1):
        X, Y = apply_many(m, X), apply_many(m, Y)
        hits = np.flatnonzero(np.linalg.norm(X - Y, axis=1) < eps)
        if hits.size:
            j = min(hits, key=lambda k: (tuple(X0[k]), tuple(Y0[k])))
            return X0[j], Y0[j], step
    return None


def test_affine_searches_match_the_naive_loop():
    m = AffineSphereMap.create(np.diag([2.0, 0.5]), [0.3, 0.2])
    assert m.regime.value == "homeomorphism"
    pair = proximal_pair_search(m, samples=32, iterations=4000, eps=1e-4, delta=0.3, seed=1)
    X0, Y0 = _sample_far_pairs(np.random.default_rng(1), 2, 32, 0.3)
    x, y, steps = _naive_first_hit(m, X0, Y0, 4000, 1e-4)
    assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y) and pair.steps == steps

    found = _circle_pair_search(m, np.eye(2), 4000, Config(rng_seed=3))
    rng = np.random.default_rng(3)
    psi_x = rng.uniform(0.0, 2.0 * math.pi, 16)
    min_angle = 2.0 * math.asin(0.3 / 2.0)
    psi_y = psi_x + rng.uniform(min_angle, 2.0 * math.pi - min_angle, 16)
    X0 = np.column_stack([np.cos(psi_x), np.sin(psi_x)])
    Y0 = np.column_stack([np.cos(psi_y), np.sin(psi_y)])
    x, y, steps = _naive_first_hit(m, X0, Y0, 4000, 1e-3)
    assert np.array_equal(found.x, x) and np.array_equal(found.y, y) and found.steps == steps


def naive_enumerate_words(units, max_len, rng, n_random):
    """The sweep as each word multiplied out from scratch: the reference."""
    g = len(units)
    exhaustive_len = min(max_len, 8) if g <= 3 else 0
    for length in range(1, exhaustive_len + 1):
        for word in itertools.product(range(g), repeat=length):
            yield word, _word_product(units, word)
    if g > 3 or max_len > exhaustive_len:
        lo = exhaustive_len + 1
        for _ in range(n_random):
            length = int(rng.integers(max(lo, 1), max_len + 1))
            word = tuple(int(i) for i in rng.integers(0, g, size=length))
            yield word, _word_product(units, word)


def _random_units(rng, g, d):
    return [normalize_to_unimodular(rng.standard_normal((d, d))).unit for _ in range(g)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_enumerate_words_matches_the_naive_fold(g, d):
    units = _random_units(np.random.default_rng(10 * g + d), g, d)
    reference = dict(naive_enumerate_words(units, 8, None, 0))
    for max_len in range(1, 9):
        pairs = list(_enumerate_words(units, max_len, None, 0))
        words = [w for k in range(1, max_len + 1) for w in itertools.product(range(g), repeat=k)]
        assert [w for w, _ in pairs] == words
        for word, M in pairs:
            assert np.array_equal(M, reference[word]), word
    for word, M in reference.items():
        assert _operator_norm(M) == operator_norm(M), word


@pytest.mark.parametrize("g, max_len", [(4, 6), (3, 11)])
def test_enumerate_words_random_tail_unchanged(g, max_len):
    units = _random_units(np.random.default_rng(g), g, 2)
    got = list(_enumerate_words(units, max_len, np.random.default_rng(7), 40))
    want = list(naive_enumerate_words(units, max_len, np.random.default_rng(7), 40))
    assert [w for w, _ in got] == [w for w, _ in want]
    assert all(np.array_equal(M, N) for (_, M), (_, N) in zip(got, want))
    assert len(got) == len(want) == (40 if g == 4 else 9840 + 40)


def test_operator_norm_still_validates():
    with pytest.raises(SingularMatrix):
        operator_norm([[float("nan"), 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrix):
        operator_norm(np.diag([1.0, 1.0, float("inf")]))


@pytest.mark.parametrize("d", [2, 3])
def test_unbounded_word_norm_matches_the_fold_exactly(d):
    if d == 2:
        gens = (rotation(0.7), conjugate_to_large_norm(rotation(0.9), 3.0))
    else:
        R = np.eye(3)
        R[:2, :2] = rotation(0.7)
        S = np.diag([4.0, 1.0, 0.25])
        gens = (R, S @ R.T @ np.linalg.inv(S))
    v = semigroup_distality_test(SemigroupSpec(generators=gens))
    assert isinstance(v.certificate, UnboundedWord)
    units = [normalize_to_unimodular(G).unit for G in gens]
    assert v.certificate.norm == operator_norm(_word_product(units, v.certificate.word))
