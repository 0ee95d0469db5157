"""The two-level projective pair walk: step 64 q + r + 1 of x is
N(W_(r+1) N(B_q x)), with W the 64 normalized powers of T and B the block
powers N(T^(64 j)); the classifier measures and the replay re-measures a
pair that way."""

import math

import numpy as np
import pytest

from helpers import (
    chain_pair_blocks,
    extended_separation,
    extended_walk,
    naive_block_powers,
    naive_power_stack,
    random_conjugator,
    random_orthogonal_3x3,
    spectral_pair,
)
from sphere_distal import (
    DEFAULT_CONFIG,
    AffineSphereMap,
    Config,
    OracleBudget,
    ProximalPair,
    Verdict,
    classify_projective_distality,
    replay_certificate,
    rotation,
)
from sphere_distal import distality
from sphere_distal.distality import (
    PAIR_BLOCK,
    _block_powers,
    _pair_blocks,
    _power_stack,
    _separation_after,
    _separations,
)
from sphere_distal.sphere import apply_many


def _walk_cases(full_jordan=True):
    """Shears, Jordan blocks, split moduli, rotations and a general matrix, at
    three scales.  Full 3x3 Jordan blocks are left out on request: the
    classifier's pair construction can raise on them."""
    rng = np.random.default_rng(19)
    c, s = math.cos(0.9), math.sin(0.9)
    cases = [
        rotation(1.0),
        np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([3.0, 1.0 / 3.0]),
        np.diag([1.02, 1.0, 1.0 / 1.02]),
        rng.standard_normal((3, 3)),
    ]
    for shear in (0.1, 0.3, 1.0, 10.0):
        C = random_conjugator(rng)
        cases.append(C @ np.array([[1.0, shear], [0.0, 1.0]]) @ np.linalg.inv(C))
        Q = random_orthogonal_3x3(rng)
        if full_jordan:
            cases.append(Q @ (np.eye(3) + shear * np.diag([1.0, 1.0], k=1)) @ Q.T)
        cases.append(Q @ (np.eye(3) + shear * np.diag([1.0, 0.0], k=1)) @ Q.T)
    return [scale * T for T in cases for scale in (1e-3, 1.0, 1e3)]


# per shear, the first three seeds of ``random_orthogonal_3x3`` whose full 3x3
# Jordan block gets a pair still closing in after 2 blocks (its earliest smallest
# separation in 2000 steps comes after step 128): most get a pair of 0 steps, or
# raise (``_jordan_collapse_pair``)
FULL_JORDAN_SEEDS = (
    (0.1, (0, 1, 3)), (0.3, (3, 14, 18)), (1.0, (44, 59, 68)), (3.0, (68, 139, 151)),
)


def _long_full_jordan_cases():
    return [Q @ (np.eye(3) + shear * np.diag([1.0, 1.0], k=1)) @ Q.T
            for shear, seeds in FULL_JORDAN_SEEDS for seed in seeds
            for Q in [random_orthogonal_3x3(np.random.default_rng(seed))]]


def _unit_rows(rng, n, d):
    P = rng.standard_normal((n, d))
    return P / np.linalg.norm(P, axis=1, keepdims=True)


def test_blocks_0_and_1_equal_the_chain_bit_for_bit():
    rng = np.random.default_rng(1)
    for T in _walk_cases():
        m = AffineSphereMap.create(T)
        for n in (2, 6):
            P = _unit_rows(rng, n, m.dim)
            walk, chain = _pair_blocks(m, P, 2 * PAIR_BLOCK), chain_pair_blocks(m, P)
            for block in range(2):
                assert np.array_equal(next(walk), next(chain)), (T, n, block)


def test_later_blocks_are_as_accurate_as_the_chain():
    """Blocks 2-31 stay within 1e-9 of an 80-bit step-by-step walk, or closer
    to it than the chain; the chain is 1e-4 off on full Jordan blocks with
    shear 10."""
    rng = np.random.default_rng(2)
    for T in _walk_cases():
        m = AffineSphereMap.create(T)
        P = _unit_rows(rng, 2, m.dim)
        walk, chain = _pair_blocks(m, P, 32 * PAIR_BLOCK), chain_pair_blocks(m, P)
        walked = np.concatenate(list(walk))  # blocks 0 .. 31, and the walk ends there
        chained = np.concatenate([next(chain) for _ in range(len(walked) // PAIR_BLOCK)])
        assert len(walked) == 32 * PAIR_BLOCK
        reference = extended_walk(T, P, len(walked))
        chain_error = np.max(np.abs(chained - reference))
        assert np.max(np.abs(walked - reference)) <= max(chain_error, 1e-9), T


def test_an_affine_walk_still_steps_one_iterate_at_a_time():
    m = AffineSphereMap.create(np.diag([2.0, 0.5]), [0.3, 0.2])
    P = _unit_rows(np.random.default_rng(3), 4, 2)
    walk, chain = _pair_blocks(m, P, 300), chain_pair_blocks(m, P)
    for _ in range(300):
        block = next(walk)
        assert block.shape == (1, 4, 2)
        assert np.array_equal(block, next(chain))


@pytest.mark.parametrize("steps", [129, 192, 193, 2048, 2049, 10_000])
def test_separation_after_equals_the_last_row_of_the_walk(steps):
    rng = np.random.default_rng(steps)
    for T in _walk_cases():
        m = AffineSphereMap.create(T)
        x, y = _unit_rows(rng, 2, m.dim)
        *_, (_, S) = _separations(m, x, y, steps)
        assert _separation_after(m, x, y, steps) == float(S[-1, 0]), (T, steps)


def test_a_10000_step_budget_replays_exactly():
    config = Config(oracle=OracleBudget(iterations=10_000))
    for T in _walk_cases(full_jordan=False) + _long_full_jordan_cases():
        v = classify_projective_distality(T, config)
        if v.verdict is Verdict.NOT_DISTAL:
            assert replay_certificate(v.certificate, matrix=T, tolerance=0.0), T
    long = classify_projective_distality(np.array([[1.0, 0.001], [0.0, 1.0]]), config).certificate
    # the shear's pair never gets below eps: the whole budget is walked
    assert long.steps == 10_000 and long.separation_final >= config.oracle.eps
    assert replay_certificate(long, matrix=[[1.0, 0.001], [0.0, 1.0]], config=config, tolerance=0.0)


@pytest.mark.parametrize(
    "T",
    [np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(3) + 0.3 * np.diag([1.0, 1.0], k=1),
     rotation(0.7) @ np.diag([1.001, 1.0 / 1.001])],
    ids=["shear", "jordan", "split"],
)
def test_block_powers_depend_only_on_their_index(T):
    m = AffineSphereMap.create(T)
    W = _power_stack(m)
    distality._walk_powers.cache_clear()
    reference = _block_powers(m, 300).copy()
    growths = ([1, 2, 3, 5, 9, 17, 33, 65, 129, 300], [40, 7, 300], [3, 100, 257, 300], [16, 17, 300])
    for counts in growths:
        distality._walk_powers.cache_clear()
        for count in counts:
            B = _block_powers(m, count)
            assert len(B) >= count and not B.flags.writeable
            assert np.array_equal(B[:count], reference[:count]), (T, counts, count)
    assert np.array_equal(reference[0], W[-1])  # B_1 is the stack's last power
    # B_j = N(T^(64 j)): against one step at a time in extended precision
    P = np.eye(len(T), dtype=np.longdouble)
    for j in range(1, 41):
        for _ in range(PAIR_BLOCK):
            P = P @ np.asarray(T, dtype=np.longdouble)
            P /= np.abs(P).max()
        assert np.max(np.abs(reference[j - 1] - P.astype(float))) <= 1e-12, (T, j)


@pytest.mark.parametrize(
    "T",
    [np.array([[1.0, 0.1], [0.0, 1.0]]), 1e3 * (np.eye(3) + 0.3 * np.diag([1.0, 1.0], k=1)),
     1e-3 * rotation(0.7) @ np.diag([1.001, 1.0 / 1.001]), np.diag([1.02, 1.0, 1.0 / 1.02])],
    ids=["shear", "jordan", "split-2x2", "split-3x3"],
)
def test_block_powers_equal_the_one_at_a_time_reference_bit_for_bit(T):
    m = AffineSphereMap.create(T)
    want = naive_block_powers(T, 300)
    for counts in ([31], [300], [1, 31, 300]):
        distality._walk_powers.cache_clear()
        for count in counts:
            B = _block_powers(m, count)
            assert np.array_equal(B[:count], want[:count]), (counts, count)


def test_replay_of_a_2000_step_pair_makes_at_most_two_products(monkeypatch):
    shear = np.array([[1.0, 0.01], [0.0, 1.0]])  # never below eps: a 2000-step pair
    cert = classify_projective_distality(shear).certificate
    assert cert.steps == DEFAULT_CONFIG.oracle.iterations
    calls = []

    def counting(m, X):
        calls.append(m)
        return apply_many(m, X)

    monkeypatch.setattr(distality, "apply_many", counting)
    distality._walk_powers.cache_clear()  # a cold replay grows the block powers itself
    assert replay_certificate(cert, matrix=shear, tolerance=0.0)
    assert len(calls) <= 2
    assert all(m.matrix.shape == shear.shape for m in calls)


def test_a_2000_step_walk_takes_few_products(monkeypatch):
    calls = []

    def counting(m, X):
        calls.append(m)
        return apply_many(m, X)

    monkeypatch.setattr(distality, "apply_many", counting)
    cert = classify_projective_distality(np.array([[1.0, 0.01], [0.0, 1.0]])).certificate
    assert cert.steps == 2000
    # blocks 0 and 1, then the seeds of blocks 2-31 and their rows, one product each
    assert len(calls) == 4
    # 64 pairs fill a product of rows with one block: one product per block, and
    # one for the seeds of blocks 2-31
    calls.clear()
    X, Y = _unit_rows(np.random.default_rng(5), 128, 2).reshape(2, 64, 2)
    for _ in _separations(AffineSphereMap.create(rotation(1.0)), X, Y, 2000):
        pass
    assert len(calls) == 32 + 1


def test_replay_rejects_a_step_count_that_is_not_an_integer():
    shear = np.array([[1.0, 0.1], [0.0, 1.0]])
    cert = classify_projective_distality(shear).certificate
    for steps in (2.5, 1999.0, float(cert.steps), "2000", None):
        assert replay_certificate(ProximalPair(cert.x, cert.y, steps, cert.separation_initial,
                                               cert.separation_final), matrix=shear) is False
    numpy_steps = ProximalPair(cert.x, cert.y, np.int64(cert.steps), cert.separation_initial,
                               cert.separation_final)
    assert replay_certificate(numpy_steps, matrix=shear, tolerance=0.0)


def test_long_pairs_agree_with_an_extended_precision_walk():
    """The two-level walk reaches step 2000 through rounded products of
    normalized powers, not 2000 steps; on shears and partial Jordan blocks the
    separation of the classifier's pair, there and at the certificate's own
    step, stays within 5e-5 relative of a step-by-step walk in extended
    precision, as the seed chain's does.  Each certificate clears eps by more
    than that, so the extended walk is below eps at its step too."""
    rng = np.random.default_rng(4)
    n, eps = DEFAULT_CONFIG.oracle.iterations, DEFAULT_CONFIG.oracle.eps
    for shear in (0.1, 0.5, 2.0, 10.0):
        R = rotation(rng.uniform(0.0, math.pi))
        Q = random_orthogonal_3x3(rng)
        for T in (R @ np.array([[1.0, shear], [0.0, 1.0]]) @ R.T,
                  Q @ (np.eye(3) + shear * np.diag([1.0, 0.0], k=1)) @ Q.T):
            cert = classify_projective_distality(T).certificate
            m = AffineSphereMap.create(T)
            for steps, got in ((n, _separation_after(m, cert.x, cert.y, n)),
                               (cert.steps, cert.separation_final)):
                want = extended_separation(T, cert.x, cert.y, steps)
                assert abs(got - want) <= 5e-5 * want, (T, steps)
            assert cert.separation_final < (1.0 - 5e-5) * eps and want < eps, T


def test_long_full_jordan_pairs_are_as_accurate_as_the_chain():
    """On full 3x3 Jordan blocks a float64 block power would misstate the
    separation by up to 100%; at step 2000 and at the certificate's own step
    the walk stays within 5e-5 relative of an 80-bit step-by-step walk, or
    closer to it than the seed chain (1e-4 to 5e-3 off at shears 1 and 3).  A
    certificate is below eps exactly when the 80-bit walk is, at its step."""
    n, eps = DEFAULT_CONFIG.oracle.iterations, DEFAULT_CONFIG.oracle.eps
    for T in _long_full_jordan_cases():
        cert = classify_projective_distality(T).certificate
        m = AffineSphereMap.create(T)
        chain = chain_pair_blocks(m, np.stack([cert.x, cert.y]))
        walked = np.concatenate([next(chain) for _ in range(math.ceil(n / PAIR_BLOCK))])
        for steps, got in ((n, _separation_after(m, cert.x, cert.y, n)),
                           (cert.steps, cert.separation_final)):
            want = extended_separation(T, cert.x, cert.y, steps)
            Q = walked[steps - 1]
            chain_error = abs(float(np.linalg.norm(Q[0] - Q[1])) - want)
            assert abs(got - want) <= max(chain_error, 5e-5 * want), (T, steps)
        assert (cert.separation_final < eps) == (want < eps), T


def test_certificates_below_eps_clear_it_by_more_than_the_walk_error():
    """Every classifier certificate of ``_walk_cases`` that is below eps clears
    it by more than 5e-5 relative, the walk's error bound against an 80-bit
    step-by-step walk, and that walk agrees within the bound at its step."""
    eps = DEFAULT_CONFIG.oracle.eps
    below = 0
    for T in _walk_cases(full_jordan=False):
        cert = classify_projective_distality(T).certificate
        if isinstance(cert, ProximalPair) and cert.separation_final < eps:
            below += 1
            want = extended_separation(T, cert.x, cert.y, cert.steps)
            assert abs(cert.separation_final - want) <= 5e-5 * want, T
            assert cert.separation_final < (1.0 - 5e-5) * eps, T
    assert below == 33


# --- the classifier's pair stops at its first step below eps ---------------------


def naive_first_below_eps(T, x, y, iterations, eps):
    """(steps, separation_final) of the classifier's stop rule, walked one step
    at a time: step n = 64 q + r + 1 is N(W_(r+1) N(B_q x)) from the reference
    powers, each product one matrix on the pair, each separation from
    ``np.linalg.norm``.  The first step n >= 0 below eps, else the earliest
    minimum over steps 0..iterations."""
    W = naive_power_stack(T)
    B = naive_block_powers(T, (iterations - 1) // PAIR_BLOCK)

    def N(M, P):
        V = P @ M.T
        return V / np.linalg.norm(V, axis=1, keepdims=True)

    sep0 = float(np.linalg.norm(x - y))
    steps, best = 0, sep0
    for n in range(1, iterations + 1) if sep0 >= eps else ():
        q, r = divmod(n - 1, PAIR_BLOCK)
        P = np.stack([x, y])
        P = N(W[r], N(B[q - 1], P) if q else P)
        sep = float(np.linalg.norm(P[0] - P[1], axis=-1))  # with no axis, a BLAS dot
        if sep < eps:
            return n, sep
        if sep < best:
            steps, best = n, sep
    return steps, best


def _stop_cases():
    """Seeded shears (conjugated by a rotation) and partial 3x3 Jordan blocks
    with shear c = 100 / n, whose pairs stop near step n: in block 0, in block
    1 and in each of blocks 2-3, 4-7, 8-15 and 16-31; shear 0.01, whose pair
    stays above eps for the whole budget; and split moduli.  Each at three
    scales."""
    rng = np.random.default_rng(27)
    cases = []
    for c in (100 / 30, 100 / 100, 100 / 200, 100 / 400, 100 / 800, 100 / 1600, 0.01):
        R = rotation(rng.uniform(0.0, math.pi))
        Q = random_orthogonal_3x3(rng)
        cases.append(("shear", R @ np.array([[1.0, c], [0.0, 1.0]]) @ R.T))
        cases.append(("jordan", Q @ (np.eye(3) + c * np.diag([1.0, 0.0], k=1)) @ Q.T))
    for lam in (1.02, 1.3, 4.0):
        C = random_conjugator(rng)
        Q = random_orthogonal_3x3(rng)
        cases.append(("split", C @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(C)))
        cases.append(("split", Q @ np.diag([lam, rng.uniform(0.5, 2.0), 1.0 / lam]) @ Q.T))
    return [(kind, scale * T) for kind, T in cases for scale in (1e-3, 1.0, 1e3)]


def _stop_place(cert, eps):
    """Where a walk stopped: "end" when the pair never got below eps, else the
    first block of the range 0, 1, 2-3, 4-7, 8-15, 16-31 the stop is in."""
    if cert.separation_final >= eps:
        return "end"
    q = (cert.steps - 1) // PAIR_BLOCK
    return q if q < 2 else 1 << (q.bit_length() - 1)


def test_the_first_step_below_eps_matches_a_step_by_step_walk():
    iterations, eps = DEFAULT_CONFIG.oracle.iterations, DEFAULT_CONFIG.oracle.eps
    places = {}
    for kind, T in _stop_cases():
        cert = classify_projective_distality(T).certificate
        x, y = spectral_pair(T)
        assert np.array_equal(cert.x, x) and np.array_equal(cert.y, y)
        want = naive_first_below_eps(T, x, y, iterations, eps)
        assert (cert.steps, cert.separation_final) == want, (kind, T)
        if cert.separation_final < eps:
            assert replay_certificate(cert, matrix=T, tolerance=0.0), (kind, T)
        places.setdefault(kind, set()).add(_stop_place(cert, eps))
    for kind in ("shear", "jordan"):
        assert places[kind] == {0, 1, 2, 4, 8, 16, "end"}, kind


def test_the_walk_builds_only_as_far_as_the_stop(monkeypatch):
    """A pair that stops within blocks 0 and 1 takes their two products and
    builds no block power beyond B_1; one that gets past them takes the seeds
    of blocks 2-31 and their rows, one product each, from one request for
    B_1-B_31, wherever in them it stops."""
    calls, requests = [], []
    block_powers = distality._block_powers

    def counting(m, X):
        calls.append(m)
        return apply_many(m, X)

    def recording(m, count):
        requests.append(count)
        return block_powers(m, count)

    monkeypatch.setattr(distality, "apply_many", counting)
    monkeypatch.setattr(distality, "_block_powers", recording)

    def classify(c):
        T = np.array([[1.0, c], [0.0, 1.0]])
        distality._walk_powers.cache_clear()
        calls.clear()
        requests.clear()
        cert = classify_projective_distality(T).certificate
        return cert, len(distality._walk_powers(T.tobytes(), 2)[1])

    cert, built = classify(1.0)
    assert cert.steps == 100  # block 1
    assert len(calls) == 2 and not requests and built == 1  # B_1 = W_64 alone
    for c, steps in ((0.1, 995), (0.01, DEFAULT_CONFIG.oracle.iterations)):
        cert, built = classify(c)
        assert cert.steps == steps
        assert len(calls) == 4 and requests == [31] and built == 31
