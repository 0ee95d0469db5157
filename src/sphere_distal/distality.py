"""Distality verdicts with machine-checkable certificates.

A single invertible matrix acts distally on the sphere iff its
determinant-normalized form is semisimple with all eigenvalue moduli
equal to one.  The classifier decides that spectrally and backs every
negative verdict with a replayable proximal pair.  For finitely
generated semigroups the verdict combines that classifier, run on each
generator and on sampled words, with a word-norm growth search; a
"distal" answer there means "no violation within the stated budget"
and says so in its certificate.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_CONFIG, Config, check_count
from .errors import DimensionMismatch, DimensionUnsupported, InvalidTranslation, SpecParseError
from .linalg import (
    _operator_norm,
    _operator_norms,
    _spectral_summary,
    _unimodular,
    as_matrix,
    invariant_subspace,
    matrix_inverse,
    normalize_to_unimodular,
    operator_norm,
)
from .sphere import AffineSphereMap, Regime, apply_many, unit_vector


class Verdict(enum.Enum):
    DISTAL = "distal"
    NOT_DISTAL = "not-distal"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpectralProof:
    """Spectrum of the normalized matrix certifying a distal verdict."""

    eigenvalues: tuple
    semisimple: bool


@dataclass(frozen=True)
class ProximalPair:
    """Two far-apart points whose iterates come together.

    ``steps`` iterations of the generating map bring the separation from
    ``separation_initial`` down to ``separation_final``; replaying the
    iteration reproduces that claim.  For a pair the classifier measured,
    ``steps`` is the first step whose separation is below the oracle eps,
    where the walk stops; a pair that never gets there within the iteration
    budget names the earliest step with the smallest separation.
    ``separation_final`` is the float64 walk's value, which replay reproduces
    bit for bit: it is not bounded away from eps, but it stays within 5e-5
    relative of an 80-bit step-by-step walk on the tested shears and partial
    Jordan blocks, whose certificates clear eps by more than that.
    Step n = 64 q + r + 1 of a matrix is measured, and replayed, as
    N(W_(r+1) N(B_q x)) with N the normalization, W_j = N(T^j) and
    B_q = N(T^(64 q)) (B_0 x = x), both kept per matrix in one cache: not
    through the n - 1 steps before it.
    ``word`` names the generator word when the map comes from a semigroup.
    """

    x: np.ndarray
    y: np.ndarray
    steps: int
    separation_initial: float
    separation_final: float
    word: tuple | None = None


@dataclass(frozen=True)
class UnboundedWord:
    """A generator word whose normalized product exceeds the norm bound."""

    word: tuple
    norm: float
    bound: float


@dataclass(frozen=True)
class BudgetExhausted:
    """Search provenance for verdicts that are only as strong as their budget."""

    parameters: dict = field(default_factory=dict)


Certificate = SpectralProof | ProximalPair | UnboundedWord | BudgetExhausted


@dataclass(frozen=True)
class DistalityVerdict:
    verdict: Verdict
    certificate: Certificate
    budget: dict = field(default_factory=dict)
    seed: int | None = None


@dataclass(frozen=True)
class SemigroupSpec:
    """Finitely generated semigroup plus search budgets.

    ``sample_count`` counts the words classified, the generators included;
    ``word_length_budget`` caps the word search.  None fields fall back
    to the Config defaults; the others must be non-negative integers.
    """

    generators: tuple
    word_length_budget: int | None = None
    sample_count: int | None = None
    rng_seed: int | None = None

    def __post_init__(self):
        for name in ("word_length_budget", "sample_count", "rng_seed"):
            value = getattr(self, name)
            if value is not None:
                check_count(name, value)


# --- orbit-pair kernel ----------------------------------------------------------

# steps a projective map advances per block, with one batched matmul and one norm
PAIR_BLOCK = 64
# seeds (blocks times points) one product of a projective walk's rows starts from, at most
PAIR_CHUNK = 64


def _power_stack(m: AffineSphereMap) -> np.ndarray:
    """The (k, d, d) stack of maps one block applies: row j of a block is W[j]
    applied to the block's seed.  A projective map gets the k = PAIR_BLOCK
    powers W of ``_walk_powers``, an affine map T alone."""
    if m.regime is Regime.PROJECTIVE:
        return _walk_powers(m.matrix.astype(float, copy=False).tobytes(), m.dim)[0]
    return m.matrix[None]


# matrices whose powers are kept; a classification and its pair's replay share them
STACK_CACHE = 16


@functools.lru_cache(maxsize=STACK_CACHE)
def _walk_powers(key: bytes, d: int) -> list:
    """[W, B] for the d x d matrix T whose float64 bytes are ``key``: the powers
    W_j = N(T^j), j = 1..PAIR_BLOCK, each divided by its largest absolute entry
    so nothing overflows, read-only; and the block powers so far, B_1 = W_64.

    Each doubling writes T^(n+i) = T^i T^n, i = 1..j with j <= n, into the next
    slab of W as one 2-D GEMM and divides each new power by its largest absolute
    entry: bit-identical to dividing every power so far, as a normalized power
    has largest absolute entry exactly 1.0.
    """
    T = np.frombuffer(key).reshape(d, d)
    F = np.empty((PAIR_BLOCK, d, d))
    np.divide(T, np.abs(T).max(), out=F[0])
    rows = F.reshape(-1, d)  # the stack as one (PAIR_BLOCK * d, d) matrix
    flat = F.reshape(PAIR_BLOCK, -1)  # one power per row
    n = 1
    while n < PAIR_BLOCK:
        j = min(n, PAIR_BLOCK - n)
        np.matmul(rows[: j * d], F[n - 1], out=rows[n * d : (n + j) * d])
        slab = flat[n : n + j]
        np.divide(slab, np.maximum.reduce(np.abs(slab), axis=1, keepdims=True), out=slab)
        n += j
    F.flags.writeable = False
    return [F, F[-1:]]


def _block_powers(m: AffineSphereMap, count: int) -> np.ndarray:
    """At least ``count`` block powers B_j = N(T^(PAIR_BLOCK j)) of a projective m,
    read-only, with bits that depend on j alone: B_1 = W_64, then N(P_j) for
    P_1 = N(T)^PAIR_BLOCK, P_(j+1) = P_j P_1 in np.longdouble (80-bit on x86;
    P_1 and every 16th power after it rescaled).  A walk that needs more than
    the cache holds regrows all of them from P_1.  Float64 products of long
    powers of a nearly nilpotent T lose the small terms that separate a pair (B_31
    of a 3x3 Jordan block 1e-8 to 1e-6 off, for a separation of 1e-8)."""
    cell = _walk_powers(m.matrix.astype(float, copy=False).tobytes(), m.dim)
    W, B = cell
    if len(B) < count:
        T = m.matrix.astype(np.longdouble) / np.abs(m.matrix).max()
        P = []
        for j in range(count):
            M = P[-1] @ P[0] if P else np.linalg.matrix_power(T, PAIR_BLOCK)
            P.append(M if j % 16 else M / np.abs(M).max())
        S = np.array(P[1:])
        B = np.concatenate([W[-1:], (S / np.abs(S).max(axis=(1, 2), keepdims=True)).astype(float)])
        B.flags.writeable = False
        cell[1] = B  # stored whole: a concurrent call sees one state or the other
    return B


def _seeds(m: AffineSphereMap, P: np.ndarray, q: int, k: int | None = None) -> np.ndarray:
    """N(B_q x) for the rows x of P, the seed of block q, as one (n, d) product;
    with k, the seeds of blocks q..q+k-1 as one (k, n, d) product."""
    B = _block_powers(m, q + (k or 1) - 1)
    return apply_many(replace(m, matrix=B[q - 1] if k is None else B[q - 1 : q + k - 1]), P)


def _pair_blocks(m: AffineSphereMap, P: np.ndarray, steps: int):
    """Stacks (k, n, d) holding the next k iterates of the rows of P, through step
    ``steps`` at least.  Block q of a projective map is W (``_power_stack``)
    applied to the seed N(B_q x).  Blocks 0 and 1 start from x and from block 0's
    last row, so a walk that stops inside them builds no block power from P_1;
    the seeds of blocks 2 to ceil(steps / PAIR_BLOCK) - 1 take one product, their
    rows one per PAIR_CHUNK seeds (a block at least).  An affine map steps on
    from the last row of each one-step block."""
    stacked = replace(m, matrix=_power_stack(m))
    projective = m.regime is Regime.PROJECTIVE
    Q = P[None]
    for _ in range(2 if projective else steps):
        Q = apply_many(stacked, Q[-1])
        yield Q
    later = -(-steps // PAIR_BLOCK) - 2
    if projective and later > 0:
        (n, d), g = P.shape, max(1, PAIR_CHUNK // len(P))
        seeds = _seeds(m, P, 2, later)
        for i in range(0, later, g):
            rows = apply_many(stacked, seeds[i : i + g].swapaxes(0, 1).reshape(-1, d))
            yield rows.swapaxes(0, 1).reshape(n, -1, d).swapaxes(0, 1)


def _separations(m: AffineSphereMap, X, Y, steps: int):
    """Yield (first, S) over steps 1..steps: S[k, j] is |X_j - Y_j| after first + k steps.

    Step PAIR_BLOCK q + r + 1 is N(W_(r+1) N(B_q x)), from ``_pair_blocks``; the
    norms come from ``_distances``.  A caller may stop early; blocks are lazy.
    """
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    blocks = _pair_blocks(m, np.concatenate([X, Y]).astype(float), steps)
    done = 0
    while done < steps:
        Q = next(blocks)[: steps - done]
        yield done + 1, _distances(Q[:, : len(X)] - Q[:, len(X) :])
        done += len(Q)


def _distances(D: np.ndarray) -> np.ndarray:
    """The expression ``np.linalg.norm(D, axis=-1)`` evaluates for real D,
    without its wrapper, so the result is bit-identical to it."""
    return np.sqrt(np.add.reduce(D * D, axis=-1))


def _separation_after(m: AffineSphereMap, x, y, steps: int) -> float:
    """|x - y| after ``steps`` >= 1 iterations of a projective m, bit-identical to
    the last row ``_separations`` yields: two products, one matrix each, from
    the cache: the seed N(B_q x), then row r of the stack, with
    steps - 1 = PAIR_BLOCK q + r.
    """
    q, r = divmod(steps - 1, PAIR_BLOCK)
    P = np.array([x, y], dtype=float)
    if q:
        P = _seeds(m, P, q)
    P = apply_many(replace(m, matrix=_power_stack(m)[r]), P)
    return float(_distances(P[0] - P[1]))


def _first_proximal(m: AffineSphereMap, X0, Y0, iterations: int, eps: float):
    """The pair (X0[j], Y0[j]) that first comes closer than eps, or None; among
    simultaneous hits the lexicographically smallest (x, y) wins."""
    sep0 = np.linalg.norm(X0 - Y0, axis=1)
    for first, S in _separations(m, X0, Y0, iterations):
        rows = np.flatnonzero((S < eps).any(axis=1))
        if rows.size:
            k = int(rows[0])
            j = min(np.flatnonzero(S[k] < eps), key=lambda i: (tuple(X0[i]), tuple(Y0[i])))
            return ProximalPair(X0[j].copy(), Y0[j].copy(), first + k, float(sep0[j]), float(S[k, j]))
    return None


# --- orbit oracle -----------------------------------------------------------


def _sample_far_pairs(rng, d: int, samples: int, delta: float):
    """``samples`` pairs (x, y) of unit vectors with |x - y| >= delta.

    Each y is redrawn up to 1000 times.  Once one sample has used all 1000,
    delta is too near 2 for draws to pay, and the rest of the call takes
    the antipode y = -x without drawing.
    """
    X, Y = np.empty((2, samples, d))
    draws = 1000
    for j in range(samples):
        x = unit_vector(rng.standard_normal(d))
        for _ in range(draws):
            y = unit_vector(rng.standard_normal(d))
            if float(np.linalg.norm(x - y)) >= delta:
                break
        else:  # OracleBudget keeps delta below 2, the antipode's distance
            y = -x
            draws = 0
        X[j] = x
        Y[j] = y
    return X, Y


def proximal_pair_search(
    m: AffineSphereMap,
    samples: int | None = None,
    iterations: int | None = None,
    eps: float | None = None,
    delta: float | None = None,
    seed: int | None = None,
    config: Config = DEFAULT_CONFIG,
) -> ProximalPair | None:
    """Search for a pair of points at distance >= delta whose iterates meet.

    Draws ``samples`` random pairs on the sphere and iterates the map on
    all of them at once.  A hit is any pair whose separation drops below
    eps within the iteration budget.  The search stops at the first step
    with a hit; among simultaneous hits the lexicographically smallest
    (x, y) wins, so the result does not depend on evaluation order.
    Absence of a find is evidence, not a distality proof.
    """
    given = {"samples": samples, "iterations": iterations, "eps": eps, "delta": delta}
    # OracleBudget's own checks, the ones a config file passes, validate the overrides
    budget = replace(config.oracle, **{k: v for k, v in given.items() if v is not None})
    seed = config.rng_seed if seed is None else seed
    if m.regime not in (Regime.PROJECTIVE, Regime.HOMEOMORPHISM):
        raise InvalidTranslation("oracle requires an invertible regime")

    rng = np.random.default_rng(seed)
    X0, Y0 = _sample_far_pairs(rng, m.dim, budget.samples, budget.delta)
    return _first_proximal(m, X0, Y0, budget.iterations, budget.eps)


# --- single-matrix classifier ------------------------------------------------


def _jordan_collapse_pair(U: np.ndarray, lam: float, config: Config):
    """Shear-type pair for a defective eigenvalue: both points share the
    generalized component, so their projective iterates merge on the
    eigen-direction side.  None when the cluster block is numerically scalar,
    a Jordan chain too short to build the pair from."""
    d = U.shape[0]
    gap = config.cluster_tol * max(_operator_norm(U), 1.0)
    cluster = invariant_subspace(U, lambda mu: abs(mu - lam) <= 10.0 * gap)
    # an orthonormal frame whose leading columns span the cluster
    Z = np.linalg.qr(np.hstack([cluster, np.eye(d)]))[0]
    k = max(cluster.shape[1], 1)
    B = Z[:, :k]
    M = B.T @ (U - lam * np.eye(d)) @ B
    # descend the Jordan chain inside the cluster block
    w = np.linalg.svd(M)[2][0]
    chain = [w]
    for _ in range(k):
        nxt = M @ chain[-1]
        norm_nxt = float(np.linalg.norm(nxt))
        if norm_nxt <= config.rank_tol * max(1.0, abs(lam)):
            break
        chain.append(nxt / norm_nxt)
    if len(chain) < 2:
        return None
    v = chain[-1]
    w_gen = chain[-2]
    c = float(v @ (M @ w_gen))
    sign = 1.0 if c >= 0 else -1.0
    x = B @ w_gen
    y = unit_vector(B @ (sign * v) + x)
    return unit_vector(x), y


def _split_moduli_pair(U: np.ndarray, config: Config):
    """Pair sharing an expanding component plus a contracting perturbation."""
    # U is the classifier's validated unimodular matrix, so no second gate
    cutoff = 1.0 - config.spectral_tol

    def contracts(mu):  # contraction_subspace's predicate
        return abs(mu) < cutoff

    expanding = invariant_subspace(matrix_inverse(U, config), contracts)
    contracting = invariant_subspace(U, contracts)
    if expanding.shape[1] == 0 or contracting.shape[1] == 0:
        return None
    u = expanding[:, 0]
    v = contracting[:, 0]
    return unit_vector(u), unit_vector(u + v)


def classify_projective_distality(T, config: Config = DEFAULT_CONFIG) -> DistalityVerdict:
    """Tri-state distality verdict for the projective action of one matrix.

    Distal iff the unimodular normalization is semisimple with every
    eigenvalue modulus within the spectral tolerance of one.  Negative
    verdicts carry a proximal pair built from the spectral data and then
    measured by actually iterating the map; a spectrum that builds no pair
    (an ambiguous rank test, moduli at the band edge), or only one that
    starts within the oracle eps, yields Inconclusive.
    """
    T = as_matrix(T)
    if T.shape[0] not in (2, 3):
        raise DimensionUnsupported("classifier supports d in {2, 3}")
    return _classify(T, _unimodular(T, config)[1], config)


def _classify(T: np.ndarray, unit: np.ndarray, config: Config) -> DistalityVerdict:
    """``classify_projective_distality`` of a validated T whose unimodular
    normalization ``unit`` the caller has already computed."""
    summary = _spectral_summary(unit, config)
    moduli = [abs(lam) for lam in summary.eigenvalues]  # floats: the eigenvalues are Python complex
    budget = {"spectral_tol": config.spectral_tol, "oracle_iterations": config.oracle.iterations}
    seed = config.rng_seed
    unimodular = all(abs(mod - 1.0) <= config.spectral_tol for mod in moduli)
    if unimodular and summary.semisimple is True:
        cert = SpectralProof(eigenvalues=summary.eigenvalues, semisimple=True)
        return DistalityVerdict(Verdict.DISTAL, cert, budget, seed)
    # a not-distal verdict carries the pair the spectrum builds; without one, Inconclusive
    if unimodular:  # defective or ambiguous with unimodular spectrum: shear-type collapse
        reason = {"reason": "ambiguous-rank-test", "moduli": moduli, "rank_tol": config.rank_tol}
        lam = summary.defective_eigenvalue
        pair = None if summary.semisimple is None else _jordan_collapse_pair(unit, lam, config)
    else:  # moduli that straddle the band edge too tightly build no pair
        reason = {"reason": "band-edge-spectrum", "moduli": moduli}
        pair = _split_moduli_pair(unit, config)
    eps = config.oracle.eps
    sep0 = None if pair is None else float(np.linalg.norm(pair[0] - pair[1]))
    if sep0 is None or sep0 < eps:  # a pair that starts within eps shows no approach
        return DistalityVerdict(Verdict.INCONCLUSIVE, BudgetExhausted(reason), budget, seed)
    # measure the pair: the first step n >= 1 whose separation is below eps,
    # else the earliest minimum over steps 0..budget; T passed _unimodular's
    # singularity gate, so the map needs no second check
    m = AffineSphereMap(T, np.zeros(len(T)), Regime.PROJECTIVE, 0.0)
    x, y = pair
    steps, best = 0, sep0
    for first, S in _separations(m, x, y, config.oracle.iterations):
        s = S[:, 0]
        below = np.flatnonzero(s < eps)
        if below.size:
            steps, best = first + int(below[0]), float(s[below[0]])
            break
        k = int(s.argmin())
        if s[k] < best:
            steps, best = first + k, float(s[k])
    return DistalityVerdict(Verdict.NOT_DISTAL, ProximalPair(x, y, steps, sep0, best), budget, seed)


# --- semigroup word search ----------------------------------------------------


def _word_product(units: list, word) -> np.ndarray:
    """The product units[word[0]] @ units[word[1]] @ ..., folded from the left."""
    M = units[word[0]]
    for idx in word[1:]:
        M = M @ units[idx]
    return M


# The screen's rounding radius.  A d x d product computed in float64, in any
# summation order and with or without FMA, has |fl(AB) - AB| <= gamma_d |A||B|
# entrywise, with gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., section 3.5).  Fold a word w of
# length k one factor at a time, C_j = fl(C_(j-1) U_wj), and let P_j and Q_j be
# the exact products of the first j factors U_wi and of their |U_wi|.  By
# induction, |C_j| <= (1 + gamma_d)^(j-1) Q_j and
#   |C_j - P_j| <= |C_(j-1) - P_(j-1)| |U_wj| + gamma_d |C_(j-1)| |U_wj|
#              <= ((1 + gamma_d)^(j-1) - 1) Q_j <= gamma_(d(j-1)) Q_j,
# the last step by Higham's Lemma 3.3.  ``_word_product`` and a GEMM level are
# two such computations of P_k, so their difference is at most
# 2 gamma_(d(k-1)) ||Q_k||_F in the Frobenius norm.  With c the largest absolute
# row sum of a unit, Q_k 1 <= c^k 1, so ||Q_k||_F <= sqrt(d) c^k and
#   radius = 2 sqrt(d) gamma_(d(k-1)) c^k
# bounds ||fold - level||_2, hence ||fold||_2 <= ||level||_F + radius.  The
# norms round too: ``_operator_norm`` lies at most 5u above the norm of a 2x2
# matrix (the four sums, hypot within one ulp, the last sum); for a 3x3 one it
# is LAPACK's largest singular value, which is backward stable and was at most
# 9u off over 2x10^4 random matrices.  The screen's Frobenius norm lies at
# most (d^2 + 2) u / 2 below (each square, d^2 - 1 sums, sqrt).  Those ulps and
# the rounding of the radius and the threshold come to under 2e-15 relative
# for d = 2 and under 4e-15 for d = 3, which _SCREEN_SLACK covers 250-fold:
#   (1 - _SCREEN_SLACK) * _operator_norm(fold) <= frobenius + radius.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# relative slack for those ulps; by the same count, a word whose Frobenius norm
# is below (1 - _SCREEN_SLACK) times a norm of its level cannot hold the largest
_SCREEN_SLACK = 1e-12


def _word_levels(units: list, max_len: int):
    """Yield (level, frobenius, radius) for each word length 1..max_len of d x d units.

    ``level`` holds the product of every word of that length as the rows of
    one (d g^length, d) array, ordered (first letter, matrix row, remaining
    letters).  The next level is ``level @ [U_0 | U_1 | ...]``, one 2-D GEMM,
    reshaped to d columns: row (w, r) times U_i is row r of the product of
    w + (i,), so the order carries over.  ``frobenius[k]`` is the Frobenius
    norm of the k-th word's product in ``itertools.product`` order (see
    ``_word_at``), read off without a copy.  The GEMM need not round as
    ``_word_product`` does; ``radius`` covers the gap, see the note above.
    """
    g, d = len(units), len(units[0])
    H = np.concatenate(units, axis=1)
    level = np.concatenate(units)
    c = max(map(math.fsum, np.abs(level).tolist()))
    scale = c
    for length in range(1, max_len + 1):
        if length > 1:
            level = (level @ H).reshape(-1, d)
            scale *= c
        squares = np.square(level).reshape(g, d, -1)  # (first letter, row, rest and column)
        rows = squares[:, 0] + squares[:, 1]
        if d == 3:
            rows += squares[:, 2]
        rows = rows.reshape(-1, d)
        frobenius = rows[:, 0] + rows[:, 1]
        if d == 3:
            frobenius += rows[:, 2]
        np.sqrt(frobenius, out=frobenius)
        n = d * (length - 1)
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        yield level, frobenius, 2.0 * math.sqrt(d) * gamma * scale


def _level_norms(level: np.ndarray, g: int, idx: np.ndarray) -> np.ndarray:
    """``_operator_norms`` of the products of the words numbered idx (an array)
    in a ``_word_levels`` level, gathered as one (n, d, d) stack."""
    d = level.shape[1]
    first, rest = np.divmod(idx, len(level) // (g * d))
    return _operator_norms(level.reshape(g, d, -1, d)[first, :, rest])


def _word_at(index: int, g: int, length: int) -> tuple:
    """The index-th word of ``itertools.product(range(g), repeat=length)``:
    index written in base g with ``length`` digits, most significant first."""
    word = [0] * length
    for k in range(length - 1, -1, -1):
        index, word[k] = divmod(index, g)
    return tuple(word)


def _random_words(units: list, min_len: int, max_len: int, rng, n_random: int):
    """Yield n_random (word, product) pairs of random words with lengths in
    [min_len, max_len].  Nothing bounds the norms of their factors, so a
    product can overflow, quietly, to inf or NaN."""
    g = len(units)
    for _ in range(n_random):
        length = int(rng.integers(min_len, max_len + 1))
        word = tuple(int(i) for i in rng.integers(0, g, size=length))
        with np.errstate(over="ignore", invalid="ignore"):
            M = _word_product(units, word)
        yield word, M


def _unbounded_prefix(units: list, word: tuple, bound: float):
    """The shortest prefix of word whose product has an ``_operator_norm`` above
    bound, with that norm.  The prefix products are the ones ``_word_product``
    folds, each one factor on from the last; a word whose product overflows
    has such a prefix, as the fold passes the bound before it overflows, and
    a word whose finite product is above the bound is one."""
    prefixes = itertools.accumulate(word[1:], lambda M, i: M @ units[i], initial=units[word[0]])
    for length, M in enumerate(prefixes, 1):
        norm = _operator_norm(M)
        if norm > bound:
            return word[:length], norm


def semigroup_distality_test(spec: SemigroupSpec, config: Config = DEFAULT_CONFIG) -> DistalityVerdict:
    """Certified distality test for a finitely generated matrix semigroup.

    Pipeline: classify each generator (a non-distal generator is a
    cyclic-subsemigroup witness); sweep normalized words up to the
    length budget against the norm growth bound; classify sampled words
    the same way.  With <= 3 generators the sweep checks every word up to
    length 8, one word length at a time, and random words beyond; it ends
    at the first word whose norm exceeds the bound, the ``UnboundedWord``.
    One GEMM per length builds every product of that length and its
    Frobenius norm, an upper bound on the operator norm.  Only the words
    whose Frobenius norm reaches the bound less a proven rounding radius are
    multiplied out from the left, one by one, and the first whose exact norm
    is above the bound is reported with that norm, the left fold's.  A random
    word above the bound, its product overflowed or not, is reported by its
    shortest prefix above the bound, as every swept word already is.  The
    generators count among the ``sample_count`` classified words; the rest
    are swept words of length >= 2 picked by the seeded generator, each
    classified on the product that replay folds.  A clean sweep is
    reported as Distal with ``words_checked``, ``max_word_norm`` (the
    largest norm of those words; for a swept word, the norm of its GEMM
    product, which equals the left fold's where the BLAS rounds as the fold
    does) and the budget attached as provenance, because compactness of the
    closure is only semi-decidable numerically.  For non-closed semigroups the cyclic
    shortcut is heuristic evidence, not a theorem: the closed-semigroup
    equivalence needs the closure.
    """
    gens = [as_matrix(G) for G in spec.generators]
    if not gens:
        raise SpecParseError("semigroup spec needs at least one generator")
    d = gens[0].shape[0]
    if any(G.shape[0] != d for G in gens):
        raise DimensionMismatch("all generators must share one dimension")
    if d not in (2, 3):
        raise DimensionUnsupported("classifier supports d in {2, 3}")

    max_len = spec.word_length_budget if spec.word_length_budget is not None else config.max_word_length
    n_oracle = spec.sample_count if spec.sample_count is not None else config.oracle_words
    seed = spec.rng_seed if spec.rng_seed is not None else config.rng_seed
    budget = {
        "word_length": max_len,
        "oracle_words": n_oracle,
        "oracle_iterations": config.oracle.iterations,
        "growth_bound": config.growth_factor * d,
    }

    # each generator is normalized just before it is classified, so a
    # non-distal generator is reported even when a later one is singular
    units = []
    ambiguous = False
    for i, G in enumerate(gens):
        _, unit = _unimodular(G, config)
        v = _classify(unit, unit, config)  # a pair walks the unit that replay walks
        if v.verdict is Verdict.NOT_DISTAL:
            return DistalityVerdict(Verdict.NOT_DISTAL, replace(v.certificate, word=(i,)), budget, seed)
        if v.verdict is Verdict.INCONCLUSIVE:
            ambiguous = True
        units.append(unit)
    g = len(units)
    bound = config.growth_factor * d

    def unbounded(word, norm):
        cert = UnboundedWord(word=word, norm=float(norm), bound=float(bound))
        return DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)

    # every word up to length 8 for <= 3 generators, one level per length.  A
    # word whose norm is above the bound has a Frobenius norm above the
    # threshold, since ||W||_2 <= ||W||_F, so only the words the screen flags
    # are multiplied out and measured, in sweep order.  For a unimodular 2x2 W,
    # ||W||_F^2 = sigma_1^2 + 1 / sigma_1^2, so against a bound well above 1
    # few words are flagged.  A very large bound lets a level overflow, in the
    # GEMM or the squares, to inf or NaN: quietly, and ``<=`` is False for
    # both, so they are flagged.  The levels are kept for ``max_word_norm``.
    exhaustive_len = min(max_len, 8) if g <= 3 else 0
    levels = []
    with np.errstate(over="ignore", invalid="ignore"):
        for length, (level, frobenius, radius) in enumerate(_word_levels(units, exhaustive_len), 1):
            for k in np.flatnonzero(~(frobenius <= bound * (1.0 - _SCREEN_SLACK) - radius)):
                word = _word_at(int(k), g, length)
                norm = _operator_norm(_word_product(units, word))
                if norm > bound:
                    return unbounded(word, norm)
            levels.append((level, frobenius))
    # random words beyond, one at a time; those longer than 1 join the
    # sampling candidates after every swept word of length >= 2.  Nothing
    # draws from the seeded generator before this point.
    rng = np.random.default_rng(seed)
    tail: list[tuple] = []
    max_norm = 0.0
    n_random = config.random_words if max_len > exhaustive_len else 0
    for word, M in _random_words(units, exhaustive_len + 1, max_len, rng, n_random):
        norm = _operator_norm(M) if np.isfinite(M).all() else math.inf
        if norm > bound:
            return unbounded(*_unbounded_prefix(units, word, bound))
        max_norm = max(max_norm, norm)
        if len(word) > 1:
            tail.append(word)

    swept = [len(frobenius) for _, frobenius in levels]  # words per length
    candidates = sum(swept[1:]) + len(tail)
    if candidates and n_oracle > g:  # the generators, classified above, fill the first g samples
        picks = rng.choice(candidates, size=min(n_oracle - g, candidates), replace=False)
        # a pick indexes the swept words of length >= 2 in sweep order, then the tail
        for p in sorted(int(p) for p in picks):
            length = 2
            while length <= exhaustive_len and p >= g**length:
                p -= g**length
                length += 1
            word = _word_at(p, g, length) if length <= exhaustive_len else tail[p]
            # a swept or drawn word's product is finite and unimodular: no check
            W = _word_product(units, word)
            v = _classify(W, W, config)
            if v.verdict is Verdict.NOT_DISTAL:
                cert = replace(v.certificate, word=word)
                return DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)

    if ambiguous:
        cert = BudgetExhausted({"reason": "ambiguous-generator", **budget})
        return DistalityVerdict(Verdict.INCONCLUSIVE, cert, budget, seed)
    # a level's largest norm is among the words whose Frobenius norm reaches
    # the norm of its largest-Frobenius product, less the slack
    for level, frobenius in levels:
        top = _level_norms(level, g, np.argmax(frobenius, keepdims=True))[0]
        near = np.flatnonzero(frobenius >= (1.0 - _SCREEN_SLACK) * top)
        max_norm = max(max_norm, float(_level_norms(level, g, near).max()))
    checked = {"words_checked": sum(swept) + n_random, "max_word_norm": float(max_norm)}
    return DistalityVerdict(Verdict.DISTAL, BudgetExhausted({**checked, **budget}), budget, seed)


# --- certificate replay --------------------------------------------------------


def replay_certificate(
    cert: Certificate,
    matrix=None,
    generators=None,
    config: Config = DEFAULT_CONFIG,
    tolerance: float = 0.10,
) -> bool:
    """Re-run a NotDistal certificate and confirm its claim within 10%.

    Proximal pairs must claim a whole number of steps, at least one, and an
    approach; they are replayed against the generating map: the
    certificate's ``word`` resolved over ``generators`` when both are given,
    else the single ``matrix``.  Step n takes two products, so the cost does
    not grow with ``steps``.  Unbounded words recompute the word norm.
    Positive certificates have nothing to falsify and return True.
    """
    units = None if generators is None else [normalize_to_unimodular(G, config).unit for G in generators]
    if isinstance(cert, UnboundedWord):
        if units is None:
            raise ValueError("replaying an unbounded word needs the generators")
        norm = operator_norm(_word_product(units, cert.word))
        return abs(norm - cert.norm) <= tolerance * cert.norm and norm > cert.bound
    if isinstance(cert, ProximalPair):
        if not isinstance(cert.steps, (int, np.integer)) or cert.steps < 1:
            return False  # names no iterate, as 2.5 or 1999.0 do (a NumPy integer counts)
        if not cert.separation_final < cert.separation_initial:
            return False  # a pair that never got closer certifies nothing
        if cert.word is not None and units is not None:
            m = AffineSphereMap.create(_word_product(units, cert.word), config=config)
        elif matrix is not None:
            m = AffineSphereMap.create(matrix, config=config)
        else:
            raise ValueError("replaying a proximal pair needs a matrix, or a word and its generators")
        sep = _separation_after(m, cert.x, cert.y, cert.steps)
        floor = max(cert.separation_final, 1e-15)
        return abs(sep - cert.separation_final) <= tolerance * floor
    return True
