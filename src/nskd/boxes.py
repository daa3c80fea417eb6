"""Bipartite binary-input/binary-output correlation boxes.

A box is the conditional distribution P(a,b|x,y) describing one round of
a two-party experiment: x and y are the local settings, a and b the
outcomes, all bits.  Physically admissible boxes are normalized and
no-signaling, meaning each party's marginal cannot depend on the other
party's setting.

Tables are numpy arrays of shape (2, 2, 2, 2) with axes ordered
(x, y, a, b); the same row-major order is used whenever a box is
flattened to 16 numbers for serialization.

The CHSH game and its eight relabelings g = (alpha, beta, gamma) are
written once, as ``_winning_parity`` and its win mask ``_WIN``; every
CHSH score, the twirl and the polytope's nonlocal vertices read them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NegativeProbability, NotNormalized, Signaling, _as_fraction

PROB_TOL = 1e-9  # tolerance of every sign, normalization and no-signaling check

CSV_HEADER = tuple(
    f"a{a}b{b}x{x}y{y}"
    for x in (0, 1)
    for y in (0, 1)
    for a in (0, 1)
    for b in (0, 1)
)


@dataclass(frozen=True, eq=False)
class Box:
    """An immutable no-signaling correlation, stored as its full table."""

    table: np.ndarray  # shape (2, 2, 2, 2), axes (x, y, a, b); read-only

    def to_json(self) -> str:
        return json.dumps({"p": [float(v) for v in self.table.ravel()]})

    @staticmethod
    def from_json(text: str) -> "Box":
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError("box JSON is nested too deeply") from exc
        if not isinstance(data, dict) or "p" not in data:
            raise ValueError('box JSON needs a "p" key holding the 16 probabilities')
        return validate(data["p"])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        writer.writerow([repr(float(v)) for v in self.table.ravel()])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Box":
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise ValueError(f"box CSV is unreadable: {exc}") from exc
        if len(rows) < 2:
            raise ValueError("box CSV needs a header row and one data row")
        header, data = rows[0], rows[1]
        order = {name: i for i, name in enumerate(header)}
        try:
            values = [float(data[order[name]]) for name in CSV_HEADER]
        except KeyError as exc:
            raise ValueError(f"box CSV missing column {exc}") from exc
        except IndexError as exc:
            raise ValueError("box CSV data row is shorter than its header") from exc
        return validate(values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Box(chsh={chsh(self):.6f})"


def _make_box(table: np.ndarray) -> Box:
    """Wrap a table without validity checks."""
    table = np.asarray(table, dtype=float).reshape(2, 2, 2, 2)
    table.setflags(write=False)
    return Box(table=table)


def validate(values) -> Box:
    """Check 16 raw numbers and return them as a Box.

    Raises NegativeProbability, NotNormalized or Signaling when the input
    violates the corresponding constraint beyond ``PROB_TOL``, and ValueError
    when the input is not 16 finite numbers.
    Entries are clamped to [0, 1] on success.
    """
    try:
        arr = np.asarray(values, dtype=float).ravel()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("box entries must be numbers") from exc
    if arr.size != 16:
        raise ValueError(f"expected 16 probabilities, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("box entries must be finite")
    table = arr.reshape(2, 2, 2, 2)

    if np.any(table < -PROB_TOL):
        worst = float(table.min())
        raise NegativeProbability(f"entry {worst!r} below zero")

    totals = table.sum(axis=(2, 3))
    if np.any(np.abs(totals - 1.0) > PROB_TOL):
        bad = np.unravel_index(np.argmax(np.abs(totals - 1.0)), totals.shape)
        raise NotNormalized(
            f"P(.,.|x={bad[0]},y={bad[1]}) sums to {float(totals[bad])!r}"
        )

    # Alice's marginal P(a|x, y) must not depend on y, and symmetrically.
    alice = table.sum(axis=3)  # (x, y, a)
    dev_a = np.abs(alice[:, 0, :] - alice[:, 1, :]).max(axis=1)  # per x
    if np.any(dev_a > PROB_TOL):
        x = int(np.argmax(dev_a))
        raise Signaling("alice", x, float(dev_a[x]))
    bob = table.sum(axis=2)  # (x, y, b)
    dev_b = np.abs(bob[0, :, :] - bob[1, :, :]).max(axis=1)  # per y
    if np.any(dev_b > PROB_TOL):
        y = int(np.argmax(dev_b))
        raise Signaling("bob", y, float(dev_b[y]))

    return _make_box(np.clip(table, 0.0, 1.0))


def _winning_parity(x, y, alpha, beta, gamma):
    """The a XOR b that wins the CHSH game relabeled by g = (alpha, beta, gamma).

    g = (0, 0, 0) is the canonical game; the eight g, in order, are the
    eight nonlocal vertices.  Works on ints and integer arrays alike.
    """
    return (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma


# Settings and outcomes of the 16 flattened cells, and the (16, 8) mask of
# the cells each relabeling g wins, columns in NL vertex order.
_X, _Y, _A, _B = np.indices((2, 2, 2, 2)).reshape(4, 16)
_WIN = (_A ^ _B)[:, None] == _winning_parity(
    _X[:, None], _Y[:, None], *np.indices((2, 2, 2)).reshape(3, 8)
)
# Half the mask is each nonlocal vertex's table.  Scores are taken from this
# float array: a product with the boolean mask skips BLAS, sums in another
# order and moves scores by an ulp.
_HALF_WIN = 0.5 * _WIN


def _chsh_scores(box: Box) -> np.ndarray:
    """The 8 relabeled CHSH scores of a box, in NL vertex order g = (alpha, beta, gamma)."""
    return 2.0 * (_HALF_WIN.T @ box.table.ravel())


def isotropic(v: float) -> Box:
    """The isotropic box with visibility v.

    P(a,b|x,y) = v/2 when a XOR b = x AND y, plus white noise (1-v)/4.
    At v=1 this is the PR box; at v=0 the uniform table; the local
    boundary sits at v = 1/2 and the quantum boundary at v = 1/sqrt(2).
    """
    v = _as_fraction("visibility", v)
    return _make_box(v * 0.5 * _WIN[:, 0] + (1.0 - v) * 0.25)


def chsh(box: Box) -> float:
    """The CHSH expression in winning-probability form.

    Sum of P(a=b) for settings (0,0), (0,1), (1,0) plus P(a!=b) for
    (1,1).  Local boxes stay at or below 3; the algebraic maximum is 4,
    reached only by the PR box.
    """
    return float(_chsh_scores(box)[0])


def chsh_symmetrized(box: Box) -> float:
    """Largest CHSH value over the eight input/output relabelings.

    Each relabeling replaces the winning condition a XOR b = x AND y by
    a XOR b = xy XOR alpha x XOR beta y XOR gamma.  The result is the
    labeling-independent Bell score of the box: > 3 iff the box is
    CHSH-nonlocal under some choice of labels.  It equals the ``chsh``
    field of ``polytope.min_nonlocal_decomposition`` exactly.
    """
    return float(_chsh_scores(box).max())


def werner_box(w: float) -> Box:
    """Correlation of a Werner state under the CHSH-optimal measurements.

    A Werner state with singlet weight w measured with the standard
    maximal-violation settings yields the isotropic box of visibility
    w/sqrt(2).  The Born-rule cross-check lives in the test suite.
    """
    return isotropic(_as_fraction("Werner weight", w) / math.sqrt(2.0))


def bb84_box() -> Box:
    """Ideal BB84 statistics as a two-setting box.

    Outcomes agree with certainty when the bases match (x = y) and are
    uncorrelated otherwise.  The box is local: it admits a deterministic
    hidden-variable model, so these statistics alone certify nothing.
    """
    return _make_box(np.where(_X == _Y, 0.5 * (_A == _B), 0.25))


def twirl_to_isotropic(box: Box) -> Box:
    """Average a box over the CHSH symmetry group.

    The eight relabelings that leave the CHSH expression invariant carry
    each winning cell onto every winning cell exactly once, and likewise
    the losing cells.  So the average puts the mean of the 8 winning
    cells on each winning cell and the mean of the 8 losing cells on each
    losing cell: the output lies on the isotropic line with the input's
    CHSH value, visibility chsh(box)/2 - 1.  Each mean is a balanced
    pairwise sum, which keeps equal addends exact at every level, so
    isotropic boxes are exact fixed points.
    """
    win = _WIN[:, 0]
    t = box.table.ravel()
    sums = np.stack([t[win], t[~win]])
    while sums.shape[1] > 1:
        sums = sums[:, 0::2] + sums[:, 1::2]
    means = sums[:, 0] / 8.0
    return _make_box(np.where(win, means[0], means[1]))
