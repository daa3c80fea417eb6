"""Extremal points of the binary no-signaling polytope and decompositions.

For two parties with binary settings and outcomes the no-signaling
polytope has exactly 24 extreme points: 16 deterministic (local) boxes
and 8 nonlocal boxes with uniform marginals.  Every valid box is a
convex mixture of them; the mixture minimizing the total weight on
nonlocal vertices is the geometry behind the optimal individual
eavesdropping attack, so that minimum is what this module computes.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import Box
from .exceptions import Infeasible

REPORT_TOL = 1e-8  # weights at or below it are not reported; is_local's bound on the nonlocal weight
RESIDUAL_TOL = 5e-11  # reconstruction error above which a target is infeasible


@dataclass(frozen=True, eq=False)
class Vertex:
    """One extreme point of the no-signaling polytope.

    Local vertices are parametrized by (alpha, beta, gamma, delta),
    nonlocal vertices by (alpha, beta, gamma); (0, 0, 0) is the PR box.
    ``responses`` is the vertex's answer rule (see ``_responses``), and
    ``box`` is that rule averaged over the coin.
    """

    kind: str  # "local" | "nonlocal"
    params: tuple
    box: Box
    responses: np.ndarray  # int8, [x, y, coin] -> (a, b); read-only

    @property
    def name(self) -> str:
        digits = "".join(str(p) for p in self.params)
        return f"L:{digits}" if self.kind == "local" else f"NL:{digits}"

    @property
    def is_local(self) -> bool:
        return self.kind == "local"

    @functools.cached_property
    def on_chsh_facet(self) -> bool:
        """True for the 8 deterministic points saturating CHSH = 3 (exact: entries are 0 or 1)."""
        return self.is_local and boxes.chsh(self.box) == 3.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Vertex({self.name})"


def _responses(kind: str, params: tuple) -> np.ndarray:
    """Outcomes (a, b) of a vertex at [x, y, coin], shape (2, 2, 2, 2).

    A local vertex ignores the coin: a = alpha*x XOR beta and
    b = gamma*y XOR delta.  A nonlocal vertex answers a = coin and
    b = coin XOR xy XOR alpha*x XOR beta*y XOR gamma, so its outcomes
    are uniform and a XOR b follows ``boxes._winning_parity``.
    """
    x, y, coin = np.indices((2, 2, 2), dtype=np.int8)
    if kind == "local":
        alpha, beta, gamma, delta = params
        a, b = (alpha & x) ^ beta, (gamma & y) ^ delta
    else:
        alpha, beta, gamma = params
        a, b = coin, coin ^ boxes._winning_parity(x, y, alpha, beta, gamma)
    out = np.stack([a, b], axis=-1).astype(np.int8)
    out.setflags(write=False)
    return out


@functools.cache
def vertices() -> tuple:
    """All 24 extreme points in canonical order.

    The 16 local vertices come first, ordered lexicographically in
    (alpha, beta, gamma, delta), followed by the 8 nonlocal vertices
    ordered in (alpha, beta, gamma).  Each table adds 1/2 per coin at
    the cell its responses name.
    """
    x, y, _ = np.indices((2, 2, 2))
    out = []
    for kind, n_params in (("local", 4), ("nonlocal", 3)):
        for params in itertools.product((0, 1), repeat=n_params):
            responses = _responses(kind, params)
            table = np.zeros((2, 2, 2, 2))
            np.add.at(table, (x, y, responses[..., 0], responses[..., 1]), 0.5)
            out.append(Vertex(kind, params, boxes._make_box(table), responses))
    return tuple(out)


def pr_box_vertex() -> Vertex:
    """The unique vertex violating the canonical CHSH expression."""
    return vertices()[16]


def facet_vertices() -> tuple:
    """The 8 local vertices on the canonical CHSH facet."""
    return tuple(v for v in vertices() if v.on_chsh_facet)


@functools.cache
def _vertex_matrix() -> np.ndarray:
    """Columns are flattened vertex tables; shape (16, 24)."""
    return np.column_stack([v.box.table.ravel() for v in vertices()])


@functools.cache
def _nonlocal_cost() -> np.ndarray:
    return np.array([0.0 if v.is_local else 1.0 for v in vertices()])


@dataclass(frozen=True)
class Decomposition:
    """Convex weights over the canonical vertex list."""

    weights: np.ndarray  # shape (24,), canonical vertex order
    residual: float  # max-abs reconstruction error
    relabeling: Vertex  # the nonlocal vertex of the highest-scoring CHSH expression
    chsh: float  # that score; its excess over 3 is the nonlocal weight

    @property
    def nonlocal_weight(self) -> float:
        return float(self.weights @ _nonlocal_cost())

    def as_dict(self) -> dict:
        """Vertex name -> weight, for the weights above REPORT_TOL."""
        return {v.name: float(w) for v, w in zip(vertices(), self.weights) if w > REPORT_TOL}

    def reconstruct(self) -> Box:
        flat = _vertex_matrix() @ self.weights
        return boxes._make_box(flat.reshape(2, 2, 2, 2))

    def to_json(self) -> str:
        entries = [{"vertex": name, "w": w} for name, w in self.as_dict().items()]
        return json.dumps({"weights": entries, "residual": self.residual})


@functools.cache
def _local_bases() -> tuple:
    """Every basis of the local system, as (rows, columns, solver).

    Weights w over the 16 local vertices that rebuild a target t satisfy
    V_L w = t and sum(w) = 1: 17 equations of rank 9, of which ``rows``
    are 9 that span the rest.  A set of 9 columns whose 9x9 block on
    those rows is nonsingular (4096 of the C(16, 9) = 11440) is a basis,
    and its inverse maps the 9 right-hand sides to its basic weights.
    The blocks hold 0s and 1s, so each determinant is an integer.
    ``rhs @ solver`` is every basis's weights, one basis after another;
    the 9 x 36864 layout makes that one vector-matrix product.
    """
    system = np.vstack([_vertex_matrix()[:, :16], np.ones((1, 16))])
    rows = []
    for i in range(len(system)):
        if np.linalg.matrix_rank(system[rows + [i]]) > len(rows):
            rows.append(i)
    columns = np.array(list(itertools.combinations(range(16), len(rows))))
    blocks = system[rows][:, columns].transpose(1, 0, 2)
    basis = np.abs(np.linalg.det(blocks)) > 0.5
    inverses = np.linalg.inv(blocks[basis])
    solver = np.ascontiguousarray(inverses.transpose(2, 0, 1).reshape(len(rows), -1))
    return np.array(rows), columns[basis], solver


def min_nonlocal_decomposition(box: Box) -> Decomposition:
    """Mixture of extreme points with minimal total nonlocal weight.

    The minimal weight is p = max(0, CHSH_g - 3), where g is the
    relabeling with the highest score of ``boxes._chsh_scores``, and it
    all sits on the nonlocal vertex NL:g (Barrett et al., PRA 71,
    022101, 2005; a box is local iff no relabeled CHSH score exceeds 3,
    Fine, PRL 48, 291, 1982).  The remaining 1 - p is spread over the 16
    local vertices as the lexicographically smallest weight vector in
    canonical vertex order.  That minimum is a vertex of the polytope of
    local weights, hence a basic solution: of all nonnegative basic
    solutions, the one kept is what is left after narrowing them,
    coordinate by coordinate, to those within 1e-10 of the smallest
    value.

    Raises Infeasible when the target is not inside the polytope, which
    for finite inputs means it is not a valid no-signaling box: no basic
    solution is nonnegative, or the weights rebuild the target only to
    within more than RESIDUAL_TOL.
    """
    target = box.table.ravel()
    matrix = _vertex_matrix()
    scores = boxes._chsh_scores(box)
    g = int(np.argmax(scores))
    p = float(np.clip(scores[g] - 3.0, 0.0, 1.0))

    rows, columns, solver = _local_bases()
    rhs = np.append(target - p * matrix[:, 16 + g], 1.0 - p)[rows]
    basic = (rhs @ solver).reshape(len(columns), -1)
    feasible = np.all(basic >= -1e-12, axis=1)
    if not feasible.any():
        raise Infeasible("target is not a convex mixture of no-signaling vertices")
    candidates = np.zeros((int(feasible.sum()), 16))
    np.put_along_axis(candidates, columns[feasible], basic[feasible], axis=1)
    for i in range(16):
        column = candidates[:, i]
        candidates = candidates[column <= column.min() + 1e-10]

    w = np.zeros(24)
    w[:16] = np.clip(candidates[0], 0.0, None)
    w[16 + g] = p
    residual = float(np.abs(matrix @ w - target).max())
    if residual > RESIDUAL_TOL:
        raise Infeasible(
            f"target is not a convex mixture of no-signaling vertices (residual {residual:.3g})"
        )
    return Decomposition(
        weights=w, residual=residual, relabeling=vertices()[16 + g], chsh=float(scores[g])
    )


def is_local(box: Box) -> bool:
    """True when the minimal nonlocal weight, max(0, highest CHSH score - 3), is at most REPORT_TOL.

    That weight is the one ``min_nonlocal_decomposition`` puts on NL:g,
    read from the scores alone, without building the local rest.
    """
    # no max(0, .): a score below 3 passes the test as its weight 0 would
    return float(boxes._chsh_scores(box).max() - 3.0) <= REPORT_TOL


def __getattr__(name):
    # Only perfbench/tracing.py looks this up; ROADMAP item 3 (in-package tracing) deletes this shim.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
