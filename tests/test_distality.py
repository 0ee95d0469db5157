import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    OVERFLOWING_TAIL_SET,
    conjugate_to_large_norm,
    distality_implies_linear_distality_check,
    level_products,
    naive_apply_many,
    naive_power_stack,
    random_conjugator,
    random_orthogonal_3x3,
    spectral_pair,
)
from sphere_distal import (
    DEFAULT_CONFIG,
    AffineSphereMap,
    BudgetExhausted,
    Config,
    DimensionMismatch,
    InvalidTranslation,
    OracleBudget,
    ProximalPair,
    SemigroupSpec,
    SingularMatrix,
    SpecParseError,
    SpectralProof,
    UnboundedWord,
    Verdict,
    classify_projective_distality,
    normalize_to_unimodular,
    operator_norm,
    proximal_pair_search,
    replay_certificate,
    rotation,
    semigroup_distality_test,
)
from sphere_distal import distality
from sphere_distal.distality import (
    _SCREEN_SLACK,
    _jordan_collapse_pair,
    _level_norms,
    _pair_blocks,
    _power_stack,
    _random_words,
    _sample_far_pairs,
    _separation_after,
    _separations,
    _word_at,
    _word_levels,
    _word_product,
)
from sphere_distal.linalg import (
    _operator_norm,
    _operator_norms,
    matrix_inverse,
)
from sphere_distal.serialize import certificate_to_json, dump_json, verdict_to_json
from sphere_distal.sphere import Regime, apply_many, unit_vector


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
    m = AffineSphereMap.create(T)
    # the walk stops at the first step below eps
    eps = DEFAULT_CONFIG.oracle.eps
    before = _separation_after(m, cert.x, cert.y, cert.steps - 1) if cert.steps > 1 else cert.separation_initial
    assert cert.separation_final < eps <= before
    # both certificate points end up on the dominant axis
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


def _band_edge_spectrum():
    # moduli 1 + 1.5e-7 and 1 - 0.75e-7 straddle the spectral band's edge too
    # tightly to split into a pair
    rho = 1.0 - 0.75e-7
    T = np.zeros((3, 3))
    T[:2, :2] = rho * rotation(1.0)
    T[2, 2] = 1.0 / rho**2
    return T


def test_classify_band_edge_spectrum_is_inconclusive():
    T = _band_edge_spectrum()
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.certificate.parameters["reason"] == "band-edge-spectrum"
    assert len(v.certificate.parameters["moduli"]) == 3


def test_conditioned_band_edge_spectrum_is_inconclusive_without_the_oracle(monkeypatch):
    # conjugated by diag(1000, 1, 1), the same spectrum brings random far pairs
    # within the oracle's eps in one step: an artefact of the conditioning, not
    # a proof, so the classifier never asks the oracle
    def no_oracle(*args, **kwargs):
        raise AssertionError("the classifier ran the orbit oracle")

    monkeypatch.setattr(distality, "proximal_pair_search", no_oracle)
    T = np.diag([1000.0, 1.0, 1.0]) @ _band_edge_spectrum() @ np.diag([1e-3, 1.0, 1.0])
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.certificate.parameters["reason"] == "band-edge-spectrum"


def test_jordan_collapse_pair_builds_no_pair_from_a_scalar_block():
    assert _jordan_collapse_pair(np.eye(3), 1.0, DEFAULT_CONFIG) is None


def test_a_defective_spectrum_with_too_short_a_chain_is_inconclusive(monkeypatch):
    # a summary that calls the identity defective: no Jordan chain to build a pair from
    summary = distality._spectral_summary(np.eye(3), DEFAULT_CONFIG)
    monkeypatch.setattr(distality, "_spectral_summary", lambda U, config: replace(
        summary, semisimple=False, defective_eigenvalue=1.0))
    v = distality._classify(np.eye(3), np.eye(3), DEFAULT_CONFIG)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.certificate.parameters == {
        "reason": "ambiguous-rank-test", "moduli": [1.0, 1.0, 1.0], "rank_tol": DEFAULT_CONFIG.rank_tol}


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


@pytest.mark.parametrize(
    "override",
    [{"eps": 0.0}, {"eps": -1.0}, {"eps": math.nan}, {"samples": 2.5}, {"samples": -1}, {"iterations": -1}],
)
def test_oracle_rejects_every_override_the_budget_rejects(override):
    # a shear is not distal, so a None here would read as a wrong verdict
    m = AffineSphereMap.create([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        proximal_pair_search(m, **override)
    with pytest.raises(ValueError):
        OracleBudget(**override)


def test_oracle_refuses_a_non_injective_map():
    m = AffineSphereMap.create(np.eye(2), [2.0, 0.0])
    assert m.regime is Regime.NON_INJECTIVE
    with pytest.raises(InvalidTranslation, match="invertible regime"):
        proximal_pair_search(m)


@pytest.mark.parametrize("delta", [2.0, 3.0])
def test_oracle_rejects_delta_of_the_sphere_diameter_or_more(delta):
    m = AffineSphereMap.create(rotation(1.0))
    with pytest.raises(ValueError, match="diameter"):
        proximal_pair_search(m, delta=delta)
    with pytest.raises(ValueError, match="diameter"):
        OracleBudget(delta=delta)


def naive_far_pairs(rng, d, samples, delta):
    """Up to 1000 draws of y for every sample, then the antipode: the reference."""
    X, Y = np.empty((2, samples, d))
    for j in range(samples):
        X[j] = unit_vector(rng.standard_normal(d))
        Y[j] = -X[j]
        for _ in range(1000):
            y = unit_vector(rng.standard_normal(d))
            if float(np.linalg.norm(X[j] - y)) >= delta:
                Y[j] = y
                break
    return X, Y


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_far_pairs_at_the_default_delta_keep_their_draws(d, seed):
    got = _sample_far_pairs(np.random.default_rng(seed), d, 64, DEFAULT_CONFIG.oracle.delta)
    want = naive_far_pairs(np.random.default_rng(seed), d, 64, DEFAULT_CONFIG.oracle.delta)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_far_pairs_near_the_antipodal_distance_stop_drawing(monkeypatch):
    """Once one sample has spent its 1000 draws, the rest of the call takes
    antipodes: a search at delta near 2 draws at most samples + 1000 unit
    vectors."""
    draws, searches = [], []
    sample = distality._sample_far_pairs

    def counting_sample(rng, d, samples, delta):
        searches.append(samples)
        return sample(rng, d, samples, delta)

    def counting_unit(v):
        draws.append(1)
        return unit_vector(v)

    monkeypatch.setattr(distality, "_sample_far_pairs", counting_sample)
    monkeypatch.setattr(distality, "unit_vector", counting_unit)
    m = AffineSphereMap.create(rotation(math.pi / 2))
    assert proximal_pair_search(m, delta=1.99999999, samples=4) is None
    assert searches and len(draws) <= sum(n + 1000 for n in searches)
    X, Y = sample(np.random.default_rng(0), 2, 4, 1.99999999)
    assert np.array_equal(Y, -X)


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
    from helpers import NotUnimodular

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


def test_semigroup_without_generators_is_a_parse_error():
    with pytest.raises(SpecParseError, match="at least one generator"):
        semigroup_distality_test(SemigroupSpec(()))


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


def test_a_generator_certificate_replays_bit_for_bit():
    # a non-distal generator's pair is measured on its unimodular unit, the map
    # replay_certificate(generators=...) walks, so it replays with tolerance 0
    rng = np.random.default_rng(26)
    for _ in range(200):
        C = random_conjugator(rng)
        shear = C @ np.array([[1.0, 10.0 ** rng.uniform(-1.0, 1.0)], [0.0, 1.0]]) @ matrix_inverse(C)
        gens = (rotation(0.3), shear * math.exp(rng.uniform(-3.0, 3.0)))
        v = semigroup_distality_test(SemigroupSpec(gens))
        assert v.verdict is Verdict.NOT_DISTAL and v.certificate.word == (1,)
        assert replay_certificate(v.certificate, generators=gens, tolerance=0.0)


def test_replay_refuses_a_certificate_without_its_map():
    with pytest.raises(ValueError, match="needs the generators"):
        replay_certificate(UnboundedWord(word=(0,), norm=64.0, bound=30.0), matrix=np.eye(2))
    v = classify_projective_distality([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="needs a matrix"):
        replay_certificate(v.certificate)
    with pytest.raises(ValueError, match="needs a matrix"):
        replay_certificate(v.certificate, generators=[np.eye(2)])  # no word to resolve


def test_replay_accepts_positive_certificates():
    proof = classify_projective_distality(rotation(1.0)).certificate
    assert isinstance(proof, SpectralProof) and replay_certificate(proof)
    swept = semigroup_distality_test(SemigroupSpec((rotation(0.5),))).certificate
    assert isinstance(swept, BudgetExhausted) and replay_certificate(swept)


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
        blocked = np.concatenate(list(_pair_blocks(m, P, 2000)))[:2000]
        reference = P
        for step in range(2000):
            reference = apply_many(m, reference)
            assert np.max(np.abs(blocked[step] - reference)) <= 1e-12, (T, step + 1)


def test_power_stack_matches_the_naive_doubling():
    rng = np.random.default_rng(14)
    jordan = np.eye(3) + 0.3 * np.diag([1.0, 1.0], k=1)
    cases = _kernel_cases() + [jordan, np.eye(3) + 0.3 * np.diag([1.0, 0.0], k=1)]
    cases += [rotation(theta) for theta in (1e-7, 0.5, np.pi / 2, 3.0)]
    for i in range(200):
        d = 2 + i % 2
        cases.append(rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-150.0, 150.0))
    for T in cases:
        T = np.asarray(T, float)
        # built as the classifier builds it: at 1e-150 a 3x3 determinant underflows
        W = _power_stack(AffineSphereMap(T, np.zeros(len(T)), Regime.PROJECTIVE, 0.0))
        assert W.shape == (distality.PAIR_BLOCK, len(T), len(T))
        assert np.array_equal(W, naive_power_stack(T, distality.PAIR_BLOCK)), T


def test_power_stack_is_read_only_and_keyed_by_float_entries():
    W = _power_stack(AffineSphereMap.create(rotation(0.3)))
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0, 0] = 2.0
    affine = AffineSphereMap.create(np.diag([2.0, 0.5]), [0.3, 0.2])
    assert np.array_equal(_power_stack(affine), affine.matrix[None])
    # the cache key is the matrix's float64 bytes, whatever dtype it holds
    shear = np.array([[1, 1], [0, 1]])
    integral = AffineSphereMap(shear, np.zeros(2), Regime.PROJECTIVE, 0.0)
    assert np.array_equal(_power_stack(integral), naive_power_stack(shear.astype(float)))


@pytest.mark.parametrize(
    "T", [np.array([[1.0, 0.1], [0.0, 1.0]]), np.diag([3.0, 1.0, 1.0 / 3.0])], ids=["shear", "split"]
)
def test_classify_and_replay_build_the_stack_once(T):
    distality._walk_powers.cache_clear()
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.NOT_DISTAL
    assert replay_certificate(v.certificate, matrix=T, tolerance=0.0)
    assert distality._walk_powers.cache_info().misses == 1  # one build: the replay hits it


def test_replay_after_an_in_place_change_uses_the_new_matrix():
    T = np.array([[1.0, 0.1], [0.0, 1.0]])
    cert = classify_projective_distality(T).certificate
    T[0, 1] = 0.5  # same array, new entries: the cached stack of the old T must not serve it
    warm = replay_certificate(cert, matrix=T, tolerance=0.0)
    warm_sep = _separation_after(AffineSphereMap.create(T), cert.x, cert.y, cert.steps)
    distality._walk_powers.cache_clear()
    assert replay_certificate(cert, matrix=T, tolerance=0.0) == warm
    assert _separation_after(AffineSphereMap.create(T), cert.x, cert.y, cert.steps) == warm_sep
    assert warm_sep != cert.separation_final


def test_replay_reproduces_classifier_separation_exactly():
    for T in _kernel_cases() + [np.diag([2.0, 0.5]), np.array([[1.0, 1e-1], [0.0, 1.0]])]:
        v = classify_projective_distality(T)
        if v.verdict is Verdict.NOT_DISTAL:
            assert replay_certificate(v.certificate, matrix=T, tolerance=0.0)


def test_replay_endpoint_walk_matches_the_kernel_bit_for_bit():
    rng = np.random.default_rng(12)
    for m in [AffineSphereMap.create(T) for T in _kernel_cases()]:
        x, y = rng.standard_normal((2, m.dim))
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        sep0 = float(np.linalg.norm(x - y))
        for steps in (1, 63, 64, 65, 127, 128, 1999, 2000):
            for _, S in _separations(m, x, y, steps):
                want = float(S[-1, 0])
            assert _separation_after(m, x, y, steps) == want, (m.matrix, steps)
            if want < sep0:
                cert = ProximalPair(x, y, steps, sep0, want)
                assert replay_certificate(cert, matrix=m.matrix, tolerance=0.0)


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
        levels = list(_word_levels(units, max_len))
        assert len(levels) == max_len
        for length, (level, frobenius, _) in enumerate(levels, 1):
            words = list(itertools.product(range(g), repeat=length))
            products = level_products(level, g)
            assert products.shape == (len(words), d, d) and frobenius.shape == (len(words),)
            exact = _operator_norms(products)
            assert np.array_equal(_level_norms(level, g, np.arange(len(words))[::-1]), exact[::-1])
            for k, word in enumerate(words):
                assert _word_at(k, g, length) == word
                assert np.array_equal(products[k], reference[word]), word
                assert exact[k] == operator_norm(reference[word]), word
                assert exact[k] <= frobenius[k] * (1 + _SCREEN_SLACK), word


@pytest.mark.parametrize("g, max_len", [(4, 6), (3, 11)])
def test_enumerate_words_random_tail_unchanged(g, max_len):
    units = _random_units(np.random.default_rng(g), g, 2)
    exhaustive_len = min(max_len, 8) if g <= 3 else 0
    got = [
        (_word_at(k, g, length), M)
        for length, (level, _, _) in enumerate(_word_levels(units, exhaustive_len), 1)
        for k, M in enumerate(level_products(level, g))
    ]
    got += _random_words(units, exhaustive_len + 1, max_len, np.random.default_rng(7), 40)
    want = list(naive_enumerate_words(units, max_len, np.random.default_rng(7), 40))
    assert [w for w, _ in got] == [w for w, _ in want]
    assert all(np.array_equal(M, N) for (_, M), (_, N) in zip(got, want))
    assert len(got) == len(want) == (40 if g == 4 else 9840 + 40)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_word_at_decodes_product_order(g):
    for length in range(1, 9):
        words = list(itertools.product(range(g), repeat=length))
        assert [_word_at(k, g, length) for k in range(len(words))] == words
        assert all(type(i) is int for i in _word_at(len(words) - 1, g, length))


def _hypot_norm(U):
    """The 2x2 closed-form norm through ``np.hypot``, which rounds otherwise
    than ``operator_norm``: it picks inputs whose exact norm rounds up or down."""
    (a, b), (c, d) = U
    return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2.0


def test_sweep_confirms_a_screen_above_the_exact_norm():
    # conjugated rotations, the first one whose screen rounds above its norm
    rng = np.random.default_rng(5)

    def draw():
        C = random_conjugator(rng)
        return normalize_to_unimodular(C @ rotation(rng.uniform(0, 2 * math.pi)) @ matrix_inverse(C)).unit

    U = next(U for U in (draw() for _ in range(5000)) if _hypot_norm(U) > operator_norm(U))
    exact = operator_norm(U)
    spec = SemigroupSpec((U,), word_length_budget=1, sample_count=0)
    v = semigroup_distality_test(spec, Config(growth_factor=exact / 2))
    assert v.verdict is Verdict.DISTAL
    assert v.budget["growth_bound"] == exact
    assert v.certificate.parameters["max_word_norm"] == exact


def _conditioned_units(rng, g, max_cond, d=2):
    """g unimodular rotations of R^d, each under its own change of basis whose
    condition number is drawn log-uniformly from 1..max_cond."""
    units = []
    for _ in range(g):
        k = math.sqrt(math.exp(rng.uniform(0.0, math.log(max_cond))))
        if d == 2:
            C = rotation(rng.uniform(0, 2 * math.pi)) @ np.diag([k, 1.0 / k])
            C = C @ rotation(rng.uniform(0, 2 * math.pi))
            R = rotation(rng.uniform(0.2, 3.0))
        else:
            C = random_orthogonal_3x3(rng) @ np.diag([k, 1.0, 1.0 / k]) @ random_orthogonal_3x3(rng)
            Q = random_orthogonal_3x3(rng)
            R = Q @ _embed(rotation(rng.uniform(0.2, 3.0)), 3) @ Q.T
        units.append(normalize_to_unimodular(C @ R @ matrix_inverse(C)).unit)
    return units


def _with_d3(cases):
    """Each case for d = 2 under its id without d, then for d = 3 under that id and "-d3"."""
    ids = {case: "-".join(map(str, case)) for case in cases}
    return [pytest.param(*case, d, id=ids[case] + ("-d3" if d == 3 else "")) for d in (2, 3) for case in ids]


def _right_fold(units, word):
    """The word's product folded from the right: it rounds otherwise than the left fold."""
    M = units[word[-1]]
    for i in reversed(word[:-1]):
        M = units[i] @ M
    return M


@pytest.mark.parametrize("g, max_cond, d", _with_d3(itertools.product([1, 2, 3], [1.0, 30.0, 1e3])))
def test_frobenius_screen_radius_covers_every_computed_product(g, max_cond, d):
    """Every word's GEMM level product lies within the screen's radius of the
    left fold, and of the right fold, which the same rounding bound covers;
    so (1 - _SCREEN_SLACK) * ||fold||_2 <= ||level||_F + radius, the inequality
    by which the screen can flag no fewer words than are above the bound."""
    rng = np.random.default_rng(int(100 * g + max_cond) + 1000 * (d - 2))
    units = _conditioned_units(rng, g, max_cond, d)
    levels = list(_word_levels(units, 8))
    assert len(levels) == 8 and levels[0][2] == 0.0
    for length, (level, frobenius, radius) in enumerate(levels, 1):
        W = level_products(level, g)
        words = list(itertools.product(range(g), repeat=length))
        assert W.shape == (len(words), d, d) and frobenius.shape == (len(words),)
        exact = np.linalg.norm(W, axis=(1, 2))
        assert np.all(np.abs(frobenius - exact) <= 4 * np.finfo(float).eps * exact)
        for k, word in enumerate(words):
            for M in (_word_product(units, word), _right_fold(units, word)):
                assert (1 - _SCREEN_SLACK) * np.linalg.norm(M - W[k]) <= radius, word
                assert (1 - _SCREEN_SLACK) * _operator_norm(M) <= frobenius[k] + radius, word


def _three_generator_shear_set(s):
    """Quarter turns, one conjugated by diag(s, 1/s) and one by the shear
    [[1, s - 1/s], [0, 1]]: words grow like s^length."""
    D = np.diag([s, 1.0 / s])
    S = np.array([[1.0, s - 1.0 / s], [0.0, 1.0]])
    R = rotation(math.pi / 2)
    return (R, D @ R @ matrix_inverse(D), S @ R @ matrix_inverse(S))


def test_screened_sweep_multiplies_out_only_the_reported_word(monkeypatch):
    """One level builder runs once per sweep, for the screen and for
    ``max_word_norm`` alike, and only the flagged words are multiplied out."""
    calls = {}

    def counted(name, key):
        fn = getattr(distality, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(distality, name, wrapper)

    for name in [name for name in vars(distality) if name.endswith("_levels")]:
        counted(name, "builder")
    counted("_word_product", "_word_product")

    def sweep(gens):
        calls.update(builder=0, _word_product=0)
        return semigroup_distality_test(SemigroupSpec(gens, sample_count=0))

    v = sweep(_three_generator_shear_set(1.44))
    assert isinstance(v.certificate, UnboundedWord) and len(v.certificate.word) == 7
    assert calls == {"builder": 1, "_word_product": 1}
    v = sweep((rotation(1.0), rotation(math.sqrt(2.0))))
    assert v.verdict is Verdict.DISTAL and v.certificate.parameters["words_checked"] == 510
    assert calls == {"builder": 1, "_word_product": 0}
    # dyadic entries: the first unbounded word is the first word the screen flags
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    v = sweep((quarter, np.diag([4.0, 0.25, 1.0]) @ quarter))
    assert v.certificate == UnboundedWord(word=(1, 0, 1, 0, 1), norm=64.0, bound=30.0)
    assert calls == {"builder": 1, "_word_product": 1}


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


def test_random_word_whose_product_overflows_reports_its_first_unbounded_prefix():
    gens = tuple(np.array(G) for G in OVERFLOWING_TAIL_SET)
    spec = SemigroupSpec(gens, word_length_budget=50000, sample_count=0)
    assert semigroup_distality_test(replace(spec, word_length_budget=8)).verdict is Verdict.DISTAL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = semigroup_distality_test(spec)
        # with budget 20000 the first random word above the bound has a finite product
        short = semigroup_distality_test(replace(spec, word_length_budget=20000))
    assert short.certificate == v.certificate
    cert = v.certificate
    assert len(cert.word) == 85 and round(cert.norm, 2) == 23.42
    assert v.verdict is Verdict.NOT_DISTAL and isinstance(cert, UnboundedWord)
    assert replay_certificate(cert, generators=gens)
    units = [normalize_to_unimodular(G).unit for G in gens]
    assert cert.norm == operator_norm(_word_product(units, cert.word)) > cert.bound
    shorter = (cert.word[:n] for n in range(1, len(cert.word)))
    assert all(operator_norm(_word_product(units, word)) <= cert.bound for word in shorter)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("budget", [5, 12])
def test_every_unbounded_word_is_its_shortest_prefix_above_the_bound(budget, g, d):
    """Swept or drawn at random, every reported word's proper prefixes are
    within the bound: with 4 generators every word is a random one."""
    reported = 0
    for seed, max_cond in itertools.product(range(6), [30.0, 100.0]):
        gens = tuple(_conditioned_units(np.random.default_rng(seed), g, max_cond, d))
        v = semigroup_distality_test(SemigroupSpec(gens, word_length_budget=budget, sample_count=0))
        cert = v.certificate
        if not isinstance(cert, UnboundedWord):
            assert v.verdict is Verdict.DISTAL
            continue
        reported += 1
        units = [normalize_to_unimodular(G).unit for G in gens]
        assert cert.norm == operator_norm(_word_product(units, cert.word)) > cert.bound
        shorter = (cert.word[:n] for n in range(1, len(cert.word)))
        assert all(operator_norm(_word_product(units, word)) <= cert.bound for word in shorter)
    assert reported >= 2


# --- the level sweep against the per-word reference ------------------------------


def naive_semigroup_distality_test(spec, config=DEFAULT_CONFIG):
    """The word search one word at a time, each product multiplied out from
    scratch, every swept word of length >= 2 collected and the sampled words
    picked from that list and classified: the reference."""
    gens = [np.array(G, dtype=float) for G in spec.generators]
    d = gens[0].shape[0]
    max_len = spec.word_length_budget if spec.word_length_budget is not None else config.max_word_length
    n_oracle = spec.sample_count if spec.sample_count is not None else config.oracle_words
    seed = spec.rng_seed if spec.rng_seed is not None else config.rng_seed
    budget = {
        "word_length": max_len,
        "oracle_words": n_oracle,
        "oracle_iterations": config.oracle.iterations,
        "growth_bound": config.growth_factor * d,
    }
    ambiguous = False
    for i, G in enumerate(gens):
        v = classify_projective_distality(G, config)
        if v.verdict is Verdict.NOT_DISTAL:
            cert = v.certificate
            if isinstance(cert, ProximalPair):
                cert = replace(cert, word=(i,))
            return distality.DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)
        ambiguous = ambiguous or v.verdict is Verdict.INCONCLUSIVE
    units = [normalize_to_unimodular(G, config).unit for G in gens]
    bound = config.growth_factor * d
    rng = np.random.default_rng(seed)
    words_checked, max_norm, collected = 0, 0.0, []
    for word, M in naive_enumerate_words(units, max_len, rng, config.random_words):
        norm = operator_norm(M)
        words_checked += 1
        max_norm = max(max_norm, norm)
        if norm > bound:
            cert = UnboundedWord(word=word, norm=float(norm), bound=float(bound))
            return distality.DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)
        if len(word) > 1:
            collected.append(word)
    # the generators count among the sampled words; they were classified above
    picked = []
    if collected and n_oracle > len(gens):
        extra = min(n_oracle - len(gens), len(collected))
        picks = rng.choice(len(collected), size=extra, replace=False)
        picked = [collected[int(p)] for p in sorted(picks)]
    for word in picked:
        W = _word_product(units, word)
        v = distality._classify(W, W, config)
        if v.verdict is Verdict.NOT_DISTAL:
            return distality.DistalityVerdict(Verdict.NOT_DISTAL, replace(v.certificate, word=word), budget, seed)
    if ambiguous:
        cert = BudgetExhausted({"reason": "ambiguous-generator", **budget})
        return distality.DistalityVerdict(Verdict.INCONCLUSIVE, cert, budget, seed)
    cert = BudgetExhausted({"words_checked": words_checked, "max_word_norm": float(max_norm), **budget})
    return distality.DistalityVerdict(Verdict.DISTAL, cert, budget, seed)


def assert_matches_reference(monkeypatch, spec, config=DEFAULT_CONFIG):
    """The sweep's verdict bytes and the unimodular maps handed to ``_classify``
    (each generator's, then each picked word's product) equal the reference's."""
    seen = []
    classify = distality._classify

    def recording(T, unit, config):
        seen.append(unit)
        return classify(T, unit, config)

    monkeypatch.setattr(distality, "_classify", recording)
    got = semigroup_distality_test(spec, config)
    got_maps, seen[:] = list(seen), []
    want = naive_semigroup_distality_test(spec, config)
    assert dump_json(verdict_to_json(got)) == dump_json(verdict_to_json(want))
    assert len(got_maps) == len(seen)
    assert all(np.array_equal(a, b) for a, b in zip(got_maps, seen))
    return got


def _embed(G, d):
    T = np.eye(d)
    T[:2, :2] = G
    return T


def _conjugated_rotations(rng, g, d, spread):
    """g elliptic generators, each a plane rotation under its own change of
    basis I + spread * noise; the farther from I, the sooner words grow."""
    gens = []
    for _ in range(g):
        R = _embed(rotation(rng.uniform(0.2, 3.0)), d)
        C = np.eye(d) + spread * rng.standard_normal((d, d))
        gens.append(C @ R @ np.linalg.inv(C))
    return tuple(gens)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_sweep_matches_the_reference_on_seeded_sets(monkeypatch, g, d):
    rng = np.random.default_rng(100 * g + d)
    kinds = set()
    for spread in (0.0, 0.02, 0.1, 0.3, 0.6):
        gens = _conjugated_rotations(rng, g, d, spread)
        v = assert_matches_reference(monkeypatch, SemigroupSpec(gens, sample_count=0))
        kinds.add(type(v.certificate).__name__)
    assert "BudgetExhausted" in kinds
    assert "UnboundedWord" in kinds or g == 1


def _growing_generator(d):
    """An elliptic generator whose powers 1..8 have strictly growing norms."""
    C = np.diag([3.0, 1.0 / 3.0])
    return _embed(C @ rotation(0.05) @ np.linalg.inv(C), d)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("length", range(1, 9))
@pytest.mark.parametrize("g, slot", [(2, 0), (3, 1), (3, 2)])
def test_first_unbounded_word_at_each_length_and_position(monkeypatch, g, slot, length, d):
    """Generator ``slot`` grows and the rest are the identity, so a word's norm
    is that of the growing power it holds: the bound set between the powers
    length - 1 and length makes (slot,) * length the first unbounded word,
    the first, middle or last of its level.  So does the bound set on the
    exact norm of the swept product of (slot,) * (length - 1), or of the
    identity for length 1: the Frobenius screen flags that word, and it must
    not be reported, since it is not above the bound."""
    G = _growing_generator(d)
    gens = tuple(G if i == slot else np.eye(d) for i in range(g))
    powers = [operator_norm(np.linalg.matrix_power(G, n)) for n in range(9)]
    assert all(a < b for a, b in zip(powers, powers[1:]))
    units = [normalize_to_unimodular(U).unit for U in gens]
    on = operator_norm(_word_product(units, (slot,) * (length - 1) or ((slot + 1) % g,)))
    # the bound is growth_factor * d: the smallest factor that reaches ``on``
    on_factor = on / d
    while on_factor * d < on:
        on_factor = float(np.nextafter(on_factor, math.inf))
    assert d == 3 or on_factor * d == on
    for growth_factor in ((powers[length - 1] + powers[length]) / (2 * d), on_factor):
        config = Config(growth_factor=growth_factor)
        v = assert_matches_reference(monkeypatch, SemigroupSpec(gens), config)
        assert isinstance(v.certificate, UnboundedWord)
        assert v.certificate.word == (slot,) * length
        index = sum(slot * g**k for k in range(length))
        assert index == {0: 0, 1: (g**length - 1) // 2, 2: g**length - 1}[slot]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("budget", [0, 3, 8, 11])
@pytest.mark.parametrize("samples", [0, 8, 40])
def test_clean_sweep_matches_the_reference(monkeypatch, samples, budget, d):
    rng = np.random.default_rng(7 * d + budget)
    R = rotation(rng.uniform(0.2, 3.0))
    C = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    # one change of basis for all: the group stays compact, every word bounded
    gens = tuple(_embed(C @ rotation(t) @ R @ np.linalg.inv(C), d) for t in (0.0, 0.7, 1.9))
    spec = SemigroupSpec(gens, word_length_budget=budget, sample_count=samples, rng_seed=budget)
    # a short pair walk keeps the case cheap; verdicts and classified maps are compared
    config = Config(oracle=OracleBudget(samples=4, iterations=64))
    v = assert_matches_reference(monkeypatch, spec, config)
    assert isinstance(v.certificate, BudgetExhausted)
    swept = sum(3**k for k in range(1, min(budget, 8) + 1)) + (256 if budget > 8 else 0)
    assert v.certificate.parameters["words_checked"] == swept


@pytest.mark.parametrize("g, budget, d", _with_d3(itertools.product([1, 2, 3], range(1, 9))))
def test_clean_sweep_max_word_norm_matches_the_reference(monkeypatch, g, budget, d):
    """Conjugated rotations with a small stretch: every level stays below the
    bound, so its exact norms are taken only for the Distal certificate."""
    rng = np.random.default_rng(10 * g + budget + 1000 * (d - 2))
    gens = _conjugated_rotations(rng, g, d, 0.05)
    v = assert_matches_reference(monkeypatch, SemigroupSpec(gens, word_length_budget=budget, sample_count=0))
    assert v.verdict is Verdict.DISTAL
    assert v.certificate.parameters["max_word_norm"] > 1.0


def test_clean_sweep_reports_the_exact_norm_not_the_screen():
    # the first seeded elliptic unimodular matrices whose screen rounds above and
    # below their norm; the default bound puts their level far below it
    rng = np.random.default_rng(5)
    units = [normalize_to_unimodular(rng.standard_normal((2, 2))).unit for _ in range(5000)]
    for sign in (1.0, -1.0):
        U = next(U for U in units if sign * (_hypot_norm(U) - operator_norm(U)) > 0.0
                 and abs(np.trace(U)) < 2.0)  # elliptic, so the cyclic test passes
        v = semigroup_distality_test(SemigroupSpec((U,), word_length_budget=1, sample_count=0))
        assert v.verdict is Verdict.DISTAL
        assert v.certificate.parameters["max_word_norm"] == operator_norm(U)


def test_semigroup_reports_a_non_distal_generator_before_a_later_singular_one():
    spec = SemigroupSpec(generators=(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [0.5, 1.0]])))
    v = semigroup_distality_test(spec)
    assert v.verdict is Verdict.NOT_DISTAL
    assert v.certificate.word == (0,)
    with pytest.raises(SingularMatrix):
        semigroup_distality_test(replace(spec, generators=spec.generators[::-1]))


def _picked_word_set():
    """Two elliptic generators under different changes of basis: every word
    stays below the bound, but some of length 5 and 7 are hyperbolic."""
    C = np.diag([1.1, 1.0])
    return (rotation(1.0), C @ rotation(math.sqrt(2.0)) @ np.linalg.inv(C))


# seed: the first picked word the classifier calls not distal, and its pair's steps
PICKED_WORD_HITS = {0: ((0, 0, 1, 1, 1), 61), 1: ((0, 1, 1, 0, 1), 40), 4: ((1, 1, 0, 1, 1, 1, 1), 88)}


@pytest.mark.parametrize("seed", sorted(PICKED_WORD_HITS))
def test_oracle_hit_on_a_picked_word_matches_the_reference(monkeypatch, seed):
    """The classifier calls the first hyperbolic word it is handed not distal,
    with the pair its spectrum builds, measured on the word's product."""
    v = assert_matches_reference(monkeypatch, SemigroupSpec(_picked_word_set(), sample_count=40, rng_seed=seed))
    assert isinstance(v.certificate, ProximalPair)
    assert (v.certificate.word, v.certificate.steps) == PICKED_WORD_HITS[seed]


def _seeded_semigroup_specs():
    """The semigroup families of this file, with sampled words."""
    rng = np.random.default_rng(31)
    specs = [SemigroupSpec(_conjugated_rotations(rng, g, d, spread))
             for g in (1, 2, 3) for d in (2, 3) for spread in (0.0, 0.02, 0.1, 0.3)]
    specs += [SemigroupSpec(_picked_word_set(), sample_count=40, rng_seed=seed) for seed in PICKED_WORD_HITS]
    specs += [SemigroupSpec(_three_generator_shear_set(s), sample_count=40) for s in (1.0, 1.2, 1.44)]
    specs.append(SemigroupSpec((rotation(math.pi / 4), np.array([[1.0, 1.0], [0.0, 1.0]]))))
    specs.append(SemigroupSpec((np.diag([2.0, 0.5]), np.diag([0.5, 2.0]))))
    return specs


def test_semigroup_test_never_runs_the_orbit_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit oracle decided a semigroup")

    monkeypatch.setattr(distality, "proximal_pair_search", refuse)
    kinds = {type(semigroup_distality_test(spec).certificate).__name__ for spec in _seeded_semigroup_specs()}
    assert kinds == {"BudgetExhausted", "ProximalPair", "UnboundedWord"}


@pytest.mark.parametrize("seed", sorted(PICKED_WORD_HITS))
def test_a_sampled_word_certificate_is_the_classifier_pair_of_its_product(seed):
    gens = _picked_word_set()
    v = semigroup_distality_test(SemigroupSpec(gens, sample_count=40, rng_seed=seed))
    word = v.certificate.word
    units = [normalize_to_unimodular(G).unit for G in gens]
    W = _word_product(units, word)
    want = replace(distality._classify(W, W, DEFAULT_CONFIG).certificate, word=word)
    assert dump_json(certificate_to_json(v.certificate)) == dump_json(certificate_to_json(want))
    assert replay_certificate(v.certificate, generators=gens, tolerance=0.0)


def test_a_pair_that_starts_within_eps_is_inconclusive():
    """A full Jordan block whose spectral pair has x == y: a pair that shows no
    approach proves nothing, so the verdict is Inconclusive, not a steps-0 pair."""
    Q = random_orthogonal_3x3(np.random.default_rng(0))
    T = Q @ (np.eye(3) + np.diag([1.0, 1.0], k=1)) @ Q.T
    x, y = spectral_pair(T)
    assert np.linalg.norm(x - y) < DEFAULT_CONFIG.oracle.eps
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.certificate.parameters["reason"] == "ambiguous-rank-test"


# --- the measured pair stops at its first step below eps --------------------------


def naive_measured_pair(T, x, y, iterations):
    """The classifier's measurement by the naive rule: every block of the budget
    is walked, norms come from ``np.linalg.norm``, and the step reported is the
    first n >= 0 whose separation is below eps, else the earliest minimum over
    steps 0..iterations.  Call it with ``naive_apply_many`` patched in."""
    m = AffineSphereMap.create(T)
    sep0 = float(np.linalg.norm(x - y))
    Q = np.concatenate(list(_pair_blocks(m, np.stack([x, y]), iterations)))[:iterations]
    S = np.concatenate([[sep0], np.linalg.norm(Q[:, 0] - Q[:, 1], axis=-1)])
    below = np.flatnonzero(S < DEFAULT_CONFIG.oracle.eps)
    n = int(below[0]) if below.size else int(np.argmin(S))
    return ProximalPair(x, y, n, sep0, float(S[n]))


def _measured_cases():
    rng = np.random.default_rng(2718)
    cases = []
    for _ in range(6):
        lam = float(rng.choice([1.02, 1.3, 2.0, 4.0]))
        C = random_conjugator(rng)
        cases.append(C @ np.diag([lam, 1.0 / lam]) @ matrix_inverse(C))
        Q = random_orthogonal_3x3(rng)
        cases.append(Q @ np.diag([lam, rng.uniform(0.5, 2.0), 1.0 / lam]) @ Q.T)
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        cases.append(C @ np.array([[1.0, c], [0.0, 1.0]]) @ matrix_inverse(C))
        cases.append(Q @ (np.eye(3) + c * np.diag([1.0, 0.0], k=1)) @ Q.T)
    # a shear whose pair stays above eps for the whole budget
    cases.append(np.array([[1.0, 0.01], [0.0, 1.0]]))
    return [scale * T for T in cases for scale in (1e-3, 1.0, 1e3)]


def test_measured_pair_matches_the_full_budget_argmin(monkeypatch):
    iterations = DEFAULT_CONFIG.oracle.iterations
    certs = []
    for T in _measured_cases():
        v = classify_projective_distality(T)
        assert v.verdict is Verdict.NOT_DISTAL
        certs.append(v.certificate)
    monkeypatch.setattr(distality, "apply_many", naive_apply_many)
    for T, cert in zip(_measured_cases(), certs):
        x, y = spectral_pair(T)
        want = naive_measured_pair(T, x, y, iterations)
        assert np.array_equal(cert.x, want.x) and np.array_equal(cert.y, want.y)
        assert cert.steps == want.steps
        assert cert.separation_initial == want.separation_initial
        assert cert.separation_final == want.separation_final
    # both ways out of the walk are covered: a step below eps and the whole budget
    eps = DEFAULT_CONFIG.oracle.eps
    assert any(c.separation_final < eps for c in certs)
    assert any(c.separation_final >= eps and c.steps == iterations for c in certs)


def test_collapsed_pair_stops_walking_blocks(monkeypatch):
    R = rotation(0.4)
    calls = []

    def counting(m, X):
        calls.append(m)
        return apply_many(m, X)

    monkeypatch.setattr(distality, "apply_many", counting)
    cert = classify_projective_distality(R @ np.diag([4.0, 0.25]) @ R.T).certificate
    assert cert.separation_final < DEFAULT_CONFIG.oracle.eps
    # the pair is below eps inside block 0: one product, and the walk stops there
    assert cert.steps < 64
    assert len(calls) == 1


def test_replay_applies_one_matrix_per_block_endpoint(monkeypatch):
    shear = np.array([[1.0, 0.01], [0.0, 1.0]])
    cert = classify_projective_distality(shear).certificate
    # the pair never gets below eps: a full-budget walk
    assert cert.separation_final >= DEFAULT_CONFIG.oracle.eps
    assert cert.steps > DEFAULT_CONFIG.oracle.iterations - 64
    calls = []

    def counting(m, X):
        calls.append(m)
        return apply_many(m, X)

    monkeypatch.setattr(distality, "apply_many", counting)
    assert replay_certificate(cert, matrix=shear, tolerance=0.0)
    assert len(calls) <= cert.steps // 64 + 2
    assert all(m.matrix.shape == shear.shape for m in calls)


def test_semigroup_zero_budget_with_four_generators_sweeps_no_words():
    gens = tuple(rotation(theta) for theta in (0.3, 0.7, 1.1, 1.9))
    v = semigroup_distality_test(SemigroupSpec(gens, word_length_budget=0))
    assert v.verdict is Verdict.DISTAL
    assert v.certificate.parameters["words_checked"] == 0


def test_semigroup_rejects_a_negative_seed_before_an_early_unbounded_word():
    C = np.diag([3.0, 1.0])
    gens = (rotation(np.pi / 2), C @ rotation(np.pi / 2) @ matrix_inverse(C))
    assert isinstance(semigroup_distality_test(SemigroupSpec(gens)).certificate, UnboundedWord)
    with pytest.raises(ValueError, match="rng_seed"):
        semigroup_distality_test(SemigroupSpec(gens, rng_seed=-1))


@pytest.mark.parametrize("name,value", [
    ("word_length_budget", -1), ("word_length_budget", 2.5), ("sample_count", -2),
    ("sample_count", True), ("rng_seed", -1), ("rng_seed", 1.0),
])
def test_semigroup_spec_rejects_counts_that_are_not_non_negative_integers(name, value):
    with pytest.raises(ValueError, match=name):
        SemigroupSpec((rotation(1.0),), **{name: value})


def test_semigroup_spec_none_fields_fall_back_to_the_config():
    gens = (rotation(1.0), rotation(math.sqrt(2.0)))
    config = Config(max_word_length=3, oracle_words=2, rng_seed=7)
    v = semigroup_distality_test(SemigroupSpec(gens), config)
    explicit = semigroup_distality_test(SemigroupSpec(gens, 3, 2, 7), config)
    assert v.verdict is Verdict.DISTAL and v == explicit
    assert v.budget["word_length"] == 3 and v.budget["oracle_words"] == 2 and v.seed == 7


def test_certificate_to_json_refuses_an_unknown_certificate():
    with pytest.raises(TypeError, match="unknown certificate"):
        certificate_to_json(object())


@pytest.mark.parametrize(
    "T",
    # quarter turns, tr = 0 and det = 1 exactly, so T^4 acts as the identity; then an
    # elliptic matrix whose norm squared overflows, though its discriminant does not
    [np.array([[0.0, -b], [1.0 / b, 0.0]]) for b in (1e6, 1e7, 3e7, 1e8, 1e13)]
    + [np.array([[0.9553, -2.955e299], [2.955e-301, 0.9553]])],
    ids=["quarter-1e6", "quarter-1e7", "quarter-3e7", "quarter-1e8", "quarter-1e13", "overflow-norm"],
)
def test_elliptic_matrices_of_large_norm_are_distal(T):
    v = classify_projective_distality(T)
    assert v.verdict is Verdict.DISTAL
    assert [abs(lam) for lam in v.certificate.eigenvalues] == pytest.approx([1.0, 1.0])
