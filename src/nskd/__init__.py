"""Toolkit for no-signaling correlations and CHSH-based key distribution.

The package models binary-setting/binary-outcome correlation boxes,
enumerates the no-signaling polytope, constructs the optimal individual
eavesdropping attack built from its extreme points, and computes the
resulting secrecy quantities: one-way key rates with and without
pre-processing, intrinsic information, and advantage-distillation
thresholds, plus a seeded Monte Carlo layer for finite-sample estimates.

``import nskd`` loads no submodule.  A submodule is imported the first
time it, or one of the names it exports here, is looked up (PEP 562), so
a start that needs only ``boxes`` and ``polytope`` loads only those.
"""

import sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "attack": (
        "EveSymbol",
        "FullAttack",
        "JointABE",
        "alice_bob_stats",
        "attack_from_pnl",
        "optimal_attack",
        "sift",
        "sift_alice_announces",
        "table_joint",
    ),
    "boxes": (
        "Box",
        "bb84_box",
        "chsh",
        "chsh_symmetrized",
        "isotropic",
        "twirl_to_isotropic",
        "validate",
        "werner_box",
    ),
    "exceptions": (
        "BoxError",
        "DomainError",
        "EmptyInput",
        "Infeasible",
        "NegativeProbability",
        "NotNormalized",
        "Signaling",
    ),
    "info": ("binary_entropy", "conditional_mutual_information", "mutual_information"),
    "polytope": (
        "Decomposition",
        "Vertex",
        "is_local",
        "min_nonlocal_decomposition",
        "vertices",
    ),
    "rates": (
        "Channel",
        "ad_block_ensemble",
        "ad_preprocessing_threshold",
        "ad_threshold",
        "ad_with_preprocessing",
        "ck_rate",
        "disturbance_to_pnl",
        "intrinsic_closed",
        "intrinsic_exact",
        "intrinsic_numeric",
        "intrinsic_search",
        "oneway_rate",
        "oneway_threshold",
        "optimize_preprocessing",
        "pnl_to_disturbance",
        "preprocessing_threshold",
    ),
    "simulate": ("EstimateReport", "RoundLog", "estimate", "run", "stream_estimate"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE, "__version__"])


def _submodule(module):
    # the import statement's own path, so `python -X importtime` lists the module;
    # importing binds it on the package, and later lookups skip __getattr__
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name in _SOURCE:
        value = getattr(_submodule(_SOURCE[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
