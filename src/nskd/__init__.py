"""Toolkit for no-signaling correlations and CHSH-based key distribution.

The package models binary-setting/binary-outcome correlation boxes,
enumerates the no-signaling polytope, constructs the optimal individual
eavesdropping attack built from its extreme points, and computes the
resulting secrecy quantities: one-way key rates with and without
pre-processing, intrinsic information, and advantage-distillation
thresholds, plus a seeded Monte Carlo layer for finite-sample estimates.
"""

from .attack import (
    EveSymbol,
    FullAttack,
    JointABE,
    alice_bob_stats,
    attack_from_pnl,
    optimal_attack,
    sift,
    sift_alice_announces,
    table_joint,
)
from .boxes import (
    Box,
    bb84_box,
    chsh,
    chsh_symmetrized,
    isotropic,
    twirl_to_isotropic,
    validate,
    werner_box,
)
from .exceptions import (
    BoxError,
    DomainError,
    EmptyInput,
    Infeasible,
    NegativeProbability,
    NotNormalized,
    Signaling,
)
from .info import binary_entropy, conditional_mutual_information, mutual_information
from .polytope import (
    Decomposition,
    Vertex,
    is_local,
    min_nonlocal_decomposition,
    vertices,
)
from .rates import (
    Channel,
    ad_block_ensemble,
    ad_preprocessing_threshold,
    ad_rate,
    ad_threshold,
    ad_with_preprocessing,
    ck_rate,
    disturbance_to_pnl,
    intrinsic_closed,
    intrinsic_numeric,
    intrinsic_search,
    oneway_rate,
    oneway_threshold,
    optimize_preprocessing,
    pnl_to_disturbance,
    preprocessing_threshold,
)
from .simulate import EstimateReport, RoundLog, estimate, run, stream_estimate

__version__ = "0.1.0"
