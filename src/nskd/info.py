"""Discrete information measures, all in bits.

Small helpers shared by the attack and rate modules.  Joints are plain
numpy arrays of nonnegative weights summing to one; zero cells are
handled with the usual 0*log(0) = 0 convention.
"""

from __future__ import annotations

import numpy as np

from .boxes import PROB_TOL
from .exceptions import NotNormalized, _as_fraction


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit, with h(0) = h(1) = 0."""
    p = _as_fraction("binary_entropy argument", p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(_entropy(p))


_LN2 = np.log(2.0)


def _entropy(p):
    """h(p) = -(p ln p + (1 - p) log1p(-p)) / ln 2 of a float or an array in [0, 1), h(0) = 0; unchecked.

    The second term goes through log1p(-p): 1 - p rounds away the bits of p below
    2^-53, so log2(1 - p) would be 0 for p < 1.1e-16 and h would lose its p / ln 2
    part, as large as a block rate blind - h(p) of that order.
    """
    return -(p * np.log(np.where(p > 0.0, p, 1.0)) + (1.0 - p) * np.log1p(-p)) / _LN2


def mutual_information(joint) -> float:
    """I(X:Y) from a 2-d joint distribution p(x, y)."""
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2:
        raise ValueError("mutual_information expects a 2-d joint")
    _check_normalized(p)
    return _mi(p)


def _mi(p: np.ndarray) -> float:
    """Unchecked I(X:Y) of a 2-d joint p(x, y)."""
    prod = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    mask = p > 0
    vals = p[mask] * np.log2(p[mask] / prod[mask])
    return max(0.0, float(vals.sum()))


def conditional_mutual_information(joint) -> float:
    """I(X:Y|Z) from a 3-d joint p(x, y, z), z on the last axis."""
    p = np.asarray(joint, dtype=float)
    if p.ndim != 3:
        raise ValueError("conditional_mutual_information expects a 3-d joint")
    _check_normalized(p)
    return float(_cmi(p))


def _cmi(p: np.ndarray):
    """Unchecked I(X:Y|Z) of joints p(..., x, y, z), one per leading index."""
    return np.maximum(0.0, (p * _cmi_log_ratio(p)).sum(axis=(-3, -2, -1)))


def _cmi_log_ratio(p: np.ndarray) -> np.ndarray:
    """log2(p(x,y,z) p(z) / (p(x,z) p(y,z))), set to 0 where p(x,y,z) <= 1e-300.

    I(X:Y|Z) is the p-weighted sum of this array; it is also the gradient
    of I(X:Y|Z) in p, since the +1 terms of the four entropies cancel.
    The ratio is taken as (p(x,y,z)/p(x,z)) (p(z)/p(y,z)): where p(x,y,z) > 1e-300 each
    factor lies in [1e-300, 1e300], while the products p(x,y,z) p(z) and p(x,z) p(y,z)
    of cells near 1e-200 underflow to 0/0.
    """
    pz = p.sum(axis=(-3, -2))[..., None, None, :]
    pxz = p.sum(axis=-2)[..., :, None, :]
    pyz = p.sum(axis=-3)[..., None, :, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # only where p <= 1e-300
        return np.where(p > 1e-300, np.log2(p / pxz * (pz / pyz)), 0.0)


def _check_normalized(p: np.ndarray, axis=None) -> None:
    """Raise NotNormalized unless p is finite, nonnegative and sums to one (each slice along axis)."""
    if not np.isfinite(p).all():  # array methods: the np.all/np.any/np.argmax wrappers cost more here
        raise NotNormalized("weights must be finite")
    if (p < -PROB_TOL).any():
        raise NotNormalized("weights must be nonnegative")
    totals = p.sum(axis=axis).ravel()
    worst = float(totals[abs(totals - 1.0).argmax()])
    if abs(worst - 1.0) > PROB_TOL:
        raise NotNormalized(f"weights sum to {worst!r}, not normalized to 1")
