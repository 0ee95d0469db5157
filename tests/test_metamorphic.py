"""Metamorphic relations: changes to an input that must leave its verdict alone.

They need no label, so they check the seeded benchmark inputs themselves
(built by ``perfbench/workloads.py``, imported read-only through ``census``),
or seeded maps.
Only relations that hold today are here; exact 2^k scaling and duplicating
a generator still change verdicts (ROADMAP items 5 and 16) and land with
those fixes.
"""

import numpy as np
import pytest

import census
import sphere_distal as sd

SEED = 2718


def _inputs(name: str) -> list:
    return [op.data for ops in census.workloads.build(name, SEED, "") for op in ops]


def _orthogonal(rng, d: int) -> np.ndarray:
    """A seeded orthogonal matrix of either determinant sign."""
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


def test_inverse_transpose_and_orthogonal_conjugate_keep_every_certify_verdict():
    rng = np.random.default_rng(SEED)
    inputs = _inputs("certify")
    assert len(inputs) == 120
    for i, data in enumerate(inputs):
        T = data["matrix"]
        Q = _orthogonal(rng, T.shape[0])
        want = sd.classify_projective_distality(T).verdict
        for name, M in (("inverse", np.linalg.inv(T)), ("transpose", T.T), ("conjugate", Q @ T @ Q.T)):
            assert sd.classify_projective_distality(M).verdict is want, (i, name)


@pytest.mark.parametrize("relation", ["reversed", "with G_0 G_1"])
def test_reordering_or_adding_a_product_keeps_every_unbounded_semigroup_verdict(relation):
    config = sd.Config(oracle_words=0)
    inputs = _inputs("semigroup-unbounded")
    assert len(inputs) == 156
    for i, data in enumerate(inputs):
        gens = tuple(data["generators"])
        changed = gens[::-1] if relation == "reversed" else gens + (gens[0] @ gens[1],)
        want = sd.semigroup_distality_test(sd.SemigroupSpec(gens), config).verdict
        assert sd.semigroup_distality_test(sd.SemigroupSpec(changed), config).verdict is want, i


@pytest.mark.parametrize("d", [2, 3])
def test_scaling_an_affine_map_by_a_power_of_two_keeps_its_orbit_bytes(d):
    rng = np.random.default_rng(SEED + d)
    T = rng.standard_normal((d, d))
    u = rng.standard_normal(d)
    a = T @ (0.5 * u / np.linalg.norm(u))  # ||T^-1 a|| = 0.5: a homeomorphism
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    want = sd.orbit(sd.AffineSphereMap.create(T, a), x, 50).points
    for k in range(-10, 301):
        m = sd.AffineSphereMap.create(np.ldexp(T, k), np.ldexp(a, k))
        assert m.regime is sd.Regime.HOMEOMORPHISM
        assert sd.orbit(m, x, 50).points.tobytes() == want.tobytes(), k
