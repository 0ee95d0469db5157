"""Distality verdicts with machine-checkable certificates.

A single invertible matrix acts distally on the sphere iff its
determinant-normalized form is semisimple with all eigenvalue moduli
equal to one.  The classifier decides that spectrally and backs every
negative verdict with a replayable proximal pair.  For finitely
generated semigroups the verdict combines the per-generator (cyclic)
test, a word-norm growth search, and the orbit oracle; a "distal"
answer there means "no violation within the stated budget" and says so
in its certificate.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import (
    DimensionMismatch,
    DimensionUnsupported,
    InvalidTranslation,
    NotUnimodular,
    SpecParseError,
)
from .linalg import (
    _operator_norm,
    as_matrix,
    contraction_subspace,
    determinant,
    invariant_subspace,
    matrix_inverse,
    normalize_to_unimodular,
    operator_norm,
    spectral_summary,
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
    iteration reproduces that claim.  ``word`` names the generator word
    when the map comes from a semigroup; ``recurrence_times`` carries the
    near-identity return times of the isometry factor for the
    even-sphere witness.
    """

    x: np.ndarray
    y: np.ndarray
    steps: int
    separation_initial: float
    separation_final: float
    word: tuple | None = None
    recurrence_times: tuple | None = None


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

    ``sample_count`` is how many words are handed to the orbit oracle;
    ``word_length_budget`` caps the word search.  None fields fall back
    to the Config defaults.
    """

    generators: tuple
    word_length_budget: int | None = None
    sample_count: int | None = None
    rng_seed: int | None = None


# --- orbit-pair kernel ----------------------------------------------------------

# steps a projective map advances per block, with one batched matmul and one norm
PAIR_BLOCK = 64


def _pair_blocks(m: AffineSphereMap, P: np.ndarray):
    """Endless stacks (k, n, d) holding the next k iterates of the rows of P.

    A projective map advances k = PAIR_BLOCK steps at once through its powers
    T^1..T^k, each divided by its largest absolute entry so nothing overflows;
    an affine map advances one step.  Blocks walked again from P are bit-identical.
    """
    W = m.matrix[None]
    if m.regime is Regime.PROJECTIVE:
        W = W / np.max(np.abs(W))
        while len(W) < PAIR_BLOCK:  # T^(n+j) = T^j T^n
            W = np.concatenate([W, W[: PAIR_BLOCK - len(W)] @ W[-1]])
            W = W / np.max(np.abs(W), axis=(1, 2), keepdims=True)
    stacked = replace(m, matrix=W)
    while True:
        P = apply_many(stacked, P)
        yield P
        P = P[-1]


def _separations(m: AffineSphereMap, X, Y, steps: int):
    """Yield (first, S) over steps 1..steps: S[k, j] is |X_j - Y_j| after first + k steps."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    blocks = _pair_blocks(m, np.concatenate([X, Y]).astype(float))
    done = 0
    while done < steps:
        Q = next(blocks)[: steps - done]
        yield done + 1, np.linalg.norm(Q[:, : len(X)] - Q[:, len(X) :], axis=-1)
        done += len(Q)


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
    X, Y = np.empty((2, samples, d))
    for j in range(samples):
        x = unit_vector(rng.standard_normal(d))
        for _ in range(1000):
            y = unit_vector(rng.standard_normal(d))
            if float(np.linalg.norm(x - y)) >= delta:
                break
        else:
            raise RuntimeError("could not sample a pair this far apart")
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
    budget = config.oracle
    samples = budget.samples if samples is None else samples
    iterations = budget.iterations if iterations is None else iterations
    eps = budget.eps if eps is None else eps
    delta = budget.delta if delta is None else delta
    seed = config.rng_seed if seed is None else seed
    if not eps < delta:
        raise ValueError("eps must be smaller than delta")
    if m.regime not in (Regime.PROJECTIVE, Regime.HOMEOMORPHISM):
        raise InvalidTranslation("oracle requires an invertible regime")

    rng = np.random.default_rng(seed)
    X0, Y0 = _sample_far_pairs(rng, m.dim, samples, delta)
    return _first_proximal(m, X0, Y0, iterations, eps)


# --- single-matrix classifier ------------------------------------------------


def _jordan_collapse_pair(U: np.ndarray, lam: float, config: Config):
    """Shear-type pair for a defective eigenvalue: both points share the
    generalized component, so their projective iterates merge on the
    eigen-direction side."""
    d = U.shape[0]
    gap = config.cluster_tol * max(operator_norm(U), 1.0)
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
        # cluster block is numerically scalar after all; any well-separated
        # pair is as informative as any other here
        x = unit_vector(Z[:, 0])
        y = unit_vector(x + 0.5 * Z[:, -1]) if d > 1 else x
        return x, y
    v = chain[-1]
    w_gen = chain[-2]
    c = float(v @ (M @ w_gen))
    sign = 1.0 if c >= 0 else -1.0
    x = B @ w_gen
    y = unit_vector(B @ (sign * v) + x)
    return unit_vector(x), y


def _split_moduli_pair(U: np.ndarray, config: Config):
    """Pair sharing an expanding component plus a contracting perturbation."""
    expanding = contraction_subspace(matrix_inverse(U, config), config)
    contracting = contraction_subspace(U, config)
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
    measured by actually iterating the map; ambiguous rank tests inside
    the tolerance band yield Inconclusive rather than a guess.
    """
    T = as_matrix(T)
    if T.shape[0] not in (2, 3):
        raise DimensionUnsupported("classifier supports d in {2, 3}")
    nm = normalize_to_unimodular(T, config)
    summary = spectral_summary(nm.unit, config)
    moduli = [abs(lam) for lam in summary.eigenvalues]
    budget = {
        "spectral_tol": config.spectral_tol,
        "oracle_iterations": config.oracle.iterations,
    }
    seed = config.rng_seed

    def measured_pair(x, y):
        m = AffineSphereMap.create(T, config=config)
        sep0 = float(np.linalg.norm(x - y))
        best = ProximalPair(x, y, 0, sep0, sep0)
        for first, S in _separations(m, x, y, config.oracle.iterations):
            k = int(np.argmin(S[:, 0]))
            if S[k, 0] < best.separation_final:  # earliest minimum over the whole budget
                best = replace(best, steps=first + k, separation_final=float(S[k, 0]))
        return best

    if all(abs(mod - 1.0) <= config.spectral_tol for mod in moduli):
        if summary.semisimple is True:
            cert = SpectralProof(eigenvalues=summary.eigenvalues, semisimple=True)
            return DistalityVerdict(Verdict.DISTAL, cert, budget, seed)
        if summary.semisimple is None:
            cert = BudgetExhausted(
                {
                    "reason": "ambiguous-rank-test",
                    "moduli": [float(m) for m in moduli],
                    "rank_tol": config.rank_tol,
                }
            )
            return DistalityVerdict(Verdict.INCONCLUSIVE, cert, budget, seed)
        # defective with unimodular spectrum: shear-type collapse
        x, y = _jordan_collapse_pair(nm.unit, summary.defective_eigenvalue, config)
        return DistalityVerdict(Verdict.NOT_DISTAL, measured_pair(x, y), budget, seed)

    pair = _split_moduli_pair(nm.unit, config)
    if pair is None:
        # moduli straddle the band edge too tightly to split; fall back to the oracle
        m = AffineSphereMap.create(T, config=config)
        found = proximal_pair_search(m, seed=seed, config=config)
        if found is None:
            cert = BudgetExhausted(
                {"reason": "band-edge-spectrum", "moduli": [float(m) for m in moduli]}
            )
            return DistalityVerdict(Verdict.INCONCLUSIVE, cert, budget, seed)
        return DistalityVerdict(Verdict.NOT_DISTAL, found, budget, seed)
    x, y = pair
    return DistalityVerdict(Verdict.NOT_DISTAL, measured_pair(x, y), budget, seed)


def distality_implies_linear_distality_check(T, config: Config = DEFAULT_CONFIG) -> bool:
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


# --- semigroup word search ----------------------------------------------------


def _word_product(units: list, word) -> np.ndarray:
    """The product units[word[0]] @ units[word[1]] @ ..., folded from the left."""
    M = units[word[0]]
    for idx in word[1:]:
        M = M @ units[idx]
    return M


def _enumerate_words(units: list, max_len: int, rng, n_random: int):
    """Yield (word, product) pairs: exhaustive for <= 3 generators up to
    length 8, random sampling beyond.

    The exhaustive levels come in ``itertools.product`` order, each built
    from the one before: the product of ``word + (i,)`` is the product of
    ``word`` times ``units[i]``, the same left fold as ``_word_product``,
    so every product is bit-identical to it.  Only the previous level's
    products are kept, and the last level's are not kept at all.  Random
    words are validated by ``as_matrix``: nothing bounds the norms of
    their factors, so their products can overflow.
    """
    g = len(units)
    exhaustive_len = min(max_len, 8) if g <= 3 else 0
    level = units
    for length in range(1, exhaustive_len + 1):
        products = level if length == 1 else (P @ U for P in level for U in units)
        kept = []
        for word, M in zip(itertools.product(range(g), repeat=length), products):
            yield word, M
            if length < exhaustive_len:
                kept.append(M)
        level = kept
    if g > 3 or max_len > exhaustive_len:
        lo = exhaustive_len + 1
        for _ in range(n_random):
            length = int(rng.integers(max(lo, 1), max_len + 1))
            word = tuple(int(i) for i in rng.integers(0, g, size=length))
            yield word, as_matrix(_word_product(units, word))


def semigroup_distality_test(spec: SemigroupSpec, config: Config = DEFAULT_CONFIG) -> DistalityVerdict:
    """Certified distality test for a finitely generated matrix semigroup.

    Pipeline: classify each generator (a non-distal generator is a
    cyclic-subsemigroup witness); sweep normalized words up to the
    length budget against the norm growth bound; run the orbit oracle on
    sampled words.  A clean sweep is reported as Distal with the budget
    attached as provenance, because compactness of the closure is only
    semi-decidable numerically.  For non-closed semigroups the cyclic
    shortcut is heuristic evidence, not a theorem: the closed-semigroup
    equivalence needs the closure.
    """
    gens = [as_matrix(G) for G in spec.generators]
    if not gens:
        raise SpecParseError("semigroup spec needs at least one generator")
    d = gens[0].shape[0]
    if any(G.shape[0] != d for G in gens):
        raise DimensionMismatch("all generators must share one dimension")

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
            return DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)
        if v.verdict is Verdict.INCONCLUSIVE:
            ambiguous = True

    units = [normalize_to_unimodular(G, config).unit for G in gens]
    bound = config.growth_factor * d
    rng = np.random.default_rng(seed)
    words_checked = 0
    max_norm = 0.0
    collected: list[tuple] = []
    # exhaustive products need no finiteness check: the sweep stops at the
    # first norm above the bound, so every prefix it extends is bounded
    for word, M in _enumerate_words(units, max_len, rng, config.random_words):
        norm = _operator_norm(M)
        words_checked += 1
        max_norm = max(max_norm, norm)
        if norm > bound:
            cert = UnboundedWord(word=word, norm=float(norm), bound=float(bound))
            return DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)
        if len(word) > 1:
            collected.append(word)

    oracle_words = [(i,) for i in range(len(gens))]
    if collected and n_oracle > len(oracle_words):
        extra = min(n_oracle - len(oracle_words), len(collected))
        picks = rng.choice(len(collected), size=extra, replace=False)
        oracle_words += [collected[int(p)] for p in sorted(picks)]
    for word in oracle_words[:n_oracle]:
        m = AffineSphereMap.create(_word_product(units, word), config=config)
        pair = proximal_pair_search(m, seed=seed, config=config)
        if pair is not None:
            cert = replace(pair, word=word)
            return DistalityVerdict(Verdict.NOT_DISTAL, cert, budget, seed)

    if ambiguous:
        cert = BudgetExhausted({"reason": "ambiguous-generator", **budget})
        return DistalityVerdict(Verdict.INCONCLUSIVE, cert, budget, seed)
    cert = BudgetExhausted(
        {
            "words_checked": words_checked,
            "max_word_norm": float(max_norm),
            **budget,
        }
    )
    return DistalityVerdict(Verdict.DISTAL, cert, budget, seed)


# --- certificate replay --------------------------------------------------------


def replay_certificate(
    cert: Certificate,
    matrix=None,
    generators=None,
    map: AffineSphereMap | None = None,
    config: Config = DEFAULT_CONFIG,
    tolerance: float = 0.10,
) -> bool:
    """Re-run a NotDistal certificate and confirm its claim within 10%.

    Proximal pairs must claim at least one step and an approach; they are
    replayed against the generating map (explicit ``map``, a single
    ``matrix``, or a generator ``word`` resolved over ``generators``);
    unbounded words recompute the word norm.  Positive certificates have
    nothing to falsify and return True.
    """
    units = None if generators is None else [
        normalize_to_unimodular(as_matrix(G), config).unit for G in generators
    ]
    if isinstance(cert, UnboundedWord):
        if units is None:
            raise ValueError("replaying an unbounded word needs the generators")
        norm = operator_norm(_word_product(units, cert.word))
        return abs(norm - cert.norm) <= tolerance * cert.norm and norm > cert.bound
    if isinstance(cert, ProximalPair):
        if cert.steps < 1 or not cert.separation_final < cert.separation_initial:
            return False  # a pair that never got closer certifies nothing
        if map is None:
            if cert.word is not None and units is not None:
                map = AffineSphereMap.create(_word_product(units, cert.word), config=config)
            elif matrix is not None:
                map = AffineSphereMap.create(as_matrix(matrix), config=config)
            else:
                raise ValueError("replaying a proximal pair needs a map, matrix, or word")
        for _, S in _separations(map, cert.x, cert.y, cert.steps):
            sep = float(S[-1, 0])
        floor = max(cert.separation_final, 1e-15)
        return abs(sep - cert.separation_final) <= tolerance * floor
    return True
