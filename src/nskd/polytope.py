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
from dataclasses import dataclass, field

import numpy as np

from . import boxes
from .boxes import Box
from .exceptions import Infeasible

REPORT_TOL = 1e-8  # weights at or below it are not reported; is_local's bound on the nonlocal weight
RESIDUAL_TOL = 5e-11  # reconstruction error above which a target is infeasible
_ZERO_TOL = 1e-12  # a local or artificial weight within it of 0 counts as 0


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


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex weights over the canonical vertex list."""

    weights: np.ndarray  # shape (24,), canonical vertex order
    residual: float  # max-abs reconstruction error
    relabeling: Vertex  # the nonlocal vertex of the highest-scoring CHSH expression
    chsh: float  # that score; its excess over 3 is the nonlocal weight
    _basis: tuple = field(default=(), repr=False)  # a lexicographically optimal basis: the certificate

    @property
    def nonlocal_weight(self) -> float:
        return float(self.weights[16:].sum())  # the 8 nonlocal vertices follow the 16 local ones

    def as_dict(self) -> dict:
        """Vertex name -> weight, for the weights above REPORT_TOL."""
        return {v.name: float(w) for v, w in zip(vertices(), self.weights) if w > REPORT_TOL}

    def reconstruct(self) -> Box:
        flat = _vertex_matrix() @ self.weights
        return boxes._make_box(flat.reshape(2, 2, 2, 2))

    def to_json(self) -> str:
        entries = [{"vertex": name, "w": w} for name, w in self.as_dict().items()]
        return json.dumps({"weights": entries, "residual": self.residual})


def _independent(vectors: np.ndarray, chosen: tuple = ()) -> list:
    """``chosen``, then each row of ``vectors``, in order, that is independent of the rows taken before it."""
    taken = list(chosen)
    for i in range(len(vectors)):
        if i not in taken and np.linalg.matrix_rank(vectors[taken + [i]]) > len(taken):
            taken.append(i)
    return taken


@functools.cache
def _local_system() -> tuple:
    """The local system: 9 rows of its 17 that span the rest, over the 16 local vertices.

    Weights w over the 16 local vertices that rebuild a target t satisfy
    V_L w = t and sum(w) = 1: 17 equations of rank 9.  ``rows`` are the
    first 9 that are independent; every 9x9 block of their matrix has
    determinant 0 or +-1, so every tableau entry B^-1 A is 0 or +-1.
    """
    system = np.vstack([_vertex_matrix()[:, :16], np.ones((1, 16))])
    rows = _independent(system)
    return np.array(rows), system[rows]


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    others = np.arange(len(tableau)) != row
    tableau[others] -= np.outer(tableau[others, col], tableau[row])
    np.maximum(tableau[:, -1], 0.0, out=tableau[:, -1])  # rounding can leave a basic value just below 0
    basis[row] = col


def _minimize(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Pivot until no column has a negative reduced cost under ``cost``.

    The entering column is the first that improves (Bland's rule), and a
    tie in the ratio test goes to the smallest basic index.  It assumes an
    integer tableau and costs of 0 or powers of two: each reduced cost is exact,
    and the ratio test takes the entries above 0.5 as the positive ones.
    """
    n = len(cost)
    while True:
        entering = np.flatnonzero(cost - cost[basis] @ tableau[:, :n] < 0.0)
        if not len(entering):
            return
        col = tableau[:, entering[0]]
        rows = np.flatnonzero(col > 0.5)
        ratios = tableau[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        _pivot(tableau, basis, int(ties[np.argmin(basis[ties])]), int(entering[0]))


def _lex_simplex(rhs: np.ndarray) -> tuple:
    """The optimal basis of the lexicographically smallest local weights, or None if there are none.

    A dense primal simplex on the local system: phase 1 minimizes the sum
    of 9 artificial variables and pivots out any left at zero; phase 2
    minimizes sum_j 2^-j w_j.  With tableau entries 0 or +-1, a reduced cost
    sums at most 10 signed powers of two and has the sign of its first term, so
    this has the optimal bases and Bland pivots of w_0, then w_1, ..., then w_15.
    """
    matrix = _local_system()[1]
    m, n = matrix.shape
    sign = np.where(rhs < 0.0, -1.0, 1.0)[:, None]
    tableau = np.hstack([matrix * sign, np.eye(m), rhs[:, None] * sign])
    basis = np.arange(n, n + m)
    _minimize(tableau, basis, np.concatenate([np.zeros(n), np.ones(m)]))
    if tableau[basis >= n, -1].sum() > _ZERO_TOL:
        return None
    for row in np.flatnonzero(basis >= n):
        _pivot(tableau, basis, row, int(np.flatnonzero(np.abs(tableau[row, :n]) > 0.5)[0]))
    _minimize(np.hstack([tableau[:, :n], tableau[:, -1:]]), basis, 0.5 ** np.arange(n))
    return tuple(sorted(basis.tolist()))


class _OptimalBases:
    """Every lexicographically optimal basis ``_lex_simplex`` has returned, in combination order.

    Whether a basis is optimal depends only on its reduced costs, not on
    the right-hand side.  So a kept basis whose weights are feasible for
    a new target gives that target's lexicographic minimum with no
    pivot.  ``kept`` holds the bases and their solvers side by side, so
    one product gives all their weights.
    """

    def __init__(self):
        # one tuple, replaced whole, so that a reader in another thread sees columns and
        # solver that match; an add lost to a race costs one more simplex run later
        self.kept = ([], np.empty((9, 0)))

    def add(self, columns: tuple) -> None:
        order = sorted({*self.kept[0], columns})
        self.kept = order, np.hstack([_first_basis(c)[1] for c in order])

    def first_feasible(self, rhs: np.ndarray):
        """(columns, weights) of the first kept basis whose weights are all >= -_ZERO_TOL, or None."""
        columns, solver = self.kept
        basic = (rhs @ solver).reshape(len(columns), 9)
        hit = np.flatnonzero((basic >= -_ZERO_TOL).all(axis=1))
        return (columns[hit[0]], basic[hit[0]]) if len(hit) else None


_optimal_bases = _OptimalBases()


@functools.cache
def _first_basis(support: tuple) -> tuple:
    """The first 9 columns, in combination order, that hold ``support`` and form a basis, and their solver.

    That is the greedy completion of the independent ``support``, since independent
    columns form a matroid (Gale, J. Combin. Theory 4, 176, 1968).  The solver is
    the transposed inverse of the block, so ``rhs @ solver`` is the basis's weights.
    """
    matrix = _local_system()[1]
    columns = tuple(sorted(_independent(matrix.T, support)))
    return columns, np.ascontiguousarray(np.linalg.inv(matrix[:, columns]).T)


def min_nonlocal_decomposition(box: Box) -> Decomposition:
    """Mixture of extreme points with minimal total nonlocal weight.

    The minimal weight is p = max(0, CHSH_g - 3), where g is the
    relabeling with the highest score of ``boxes._chsh_scores``, and it
    all sits on the nonlocal vertex NL:g (Barrett et al., PRA 71,
    022101, 2005; a box is local iff no relabeled CHSH score exceeds 3,
    Fine, PRL 48, 291, 1982).  The remaining 1 - p is spread over the 16
    local vertices as the lexicographically smallest weight vector in
    canonical vertex order.  That minimum is a basic solution of the
    local system.  Its optimal basis comes from a kept basis that is
    feasible for this target, or else from ``_lex_simplex`` (Bland, Math.
    Oper. Res. 2, 103, 1977) on the one objective sum_j 2^-j w_j, equivalent
    because every tableau entry is 0 or +-1, which then keeps it.  The weights
    are solved again on the first basis, in combination order, that holds the
    support, so they do not depend on which optimal basis was found.

    Raises Infeasible when the target is not inside the polytope, which
    for finite inputs means it is not a valid no-signaling box: phase 1
    of the simplex ends with artificial weight above 1e-12, or the
    weights rebuild the target only to within more than RESIDUAL_TOL.
    """
    target = box.table.ravel()
    matrix = _vertex_matrix()
    scores = boxes._chsh_scores(box)
    g = int(np.argmax(scores))
    p = float(np.clip(scores[g] - 3.0, 0.0, 1.0))

    rhs = np.append(target - p * matrix[:, 16 + g], 1.0 - p)[_local_system()[0]]
    found = _optimal_bases.first_feasible(rhs)
    if found is None:
        basis = _lex_simplex(rhs)
        if basis is None:
            raise Infeasible("target is not a convex mixture of no-signaling vertices")
        _optimal_bases.add(basis)
        found = basis, rhs @ _first_basis(basis)[1]
    basis, basic = found
    columns, solver = _first_basis(tuple(c for c, x in zip(basis, basic) if x > _ZERO_TOL))

    w = np.zeros(24)
    w[list(columns)] = np.clip(rhs @ solver, 0.0, None)
    w[16 + g] = p
    residual = float(np.abs(matrix @ w - target).max())
    if residual > RESIDUAL_TOL:
        raise Infeasible(
            f"target is not a convex mixture of no-signaling vertices (residual {residual:.3g})"
        )
    return Decomposition(
        weights=w, residual=residual, relabeling=vertices()[16 + g], chsh=float(scores[g]), _basis=basis
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
