"""Projective and affine actions of invertible matrices on the unit sphere.

Constructive fixed-point solvers for affine circle maps, distality
classifiers for matrices and finitely generated semigroups, and an
orbit-based proximal-pair search kept for experiments.  A classifier's
certificate is a spectral pair, measured by walking the map.
"""

__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, Config, OracleBudget, load_config
from .distality import (
    BudgetExhausted,
    DistalityVerdict,
    ProximalPair,
    SemigroupSpec,
    SpectralProof,
    UnboundedWord,
    Verdict,
    classify_projective_distality,
    proximal_pair_search,
    replay_certificate,
    semigroup_distality_test,
)
from .errors import (
    DegenerateMap,
    DimensionMismatch,
    DimensionUnsupported,
    HypothesisNotMet,
    InvalidTranslation,
    NonInjectiveWarning,
    NoPositiveRealEigenvalue,
    NotOrthogonal,
    OutsideCoveredClasses,
    RealSpectrum,
    SingularMatrix,
    SpecParseError,
    SpectrumCollision,
    SphereDistalError,
    ZeroTranslation,
)
from .fixed_points import (
    FixedPointResult,
    PeriodicPoints2,
    choose_nondistal_witness,
    find_fixed_point,
    find_fixed_point_complex,
    find_fixed_point_real_positive,
    isometry_even_sphere_witness,
    minus_id_period2_points,
    resolvent_norm,
)
from .linalg import (
    ComplexPair,
    EigenStructure,
    JordanBlock,
    NormalizedMatrix,
    RealDiagonalizable,
    contraction_subspace,
    normalize_to_unimodular,
    operator_norm,
    real_schur_2x2,
    rotation,
)
from .sphere import (
    AffineSphereMap,
    OrbitRecord,
    Regime,
    RegimeReport,
    affine_inverse_image,
    affine_is_homeomorphism,
    apply_affine,
    apply_projective,
    orbit,
)
