"""The optimal individual no-signaling attack and its sifted statistics.

The eavesdropper prepares each round as one extreme point of the
no-signaling polytope and remembers which one she sent.  To fake an
isotropic box of visibility v >= 1/2 with the least nonlocal mass she
mixes the PR box (probability 2v - 1) with the eight CHSH-facet
deterministic points, uniformly.  Deterministic points she can predict;
PR rounds are monogamous and tell her nothing.

After the protocol's reconciliation step (Bob announces his settings,
Alice flips her bit when both settings were 1) Eve's useful knowledge
per round collapses onto five symbols (e_a, e_b), where "?" marks a bit
she cannot predict.  Sifting reads each vertex's ``responses`` (its
answer at every x, y and coin, written once in ``polytope``): Eve knows
a bit when it is the same over everything she cannot see.  Where each
answer lands depends on the vertex alone, so it is worked out once per
tuple of vertices, and a sift only sums each cell's weights.  The optimal
attack's table is a count of eighths per cell, so ``table_joint`` and the
rates module write it from those counts (``_optimal_table``), bit for bit
the sift's; ``sift`` stays the route for every other attack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import info, polytope
from .exceptions import _as_fraction


class EveSymbol(NamedTuple):
    """Eve's per-round record: her predictions for Alice and Bob's bits."""

    e_a: Optional[int]  # None when unknown
    e_b: Optional[int]

    def label(self) -> str:
        qa = "?" if self.e_a is None else str(self.e_a)
        qb = "?" if self.e_b is None else str(self.e_b)
        return f"({qa},{qb})"


def _symbol_sort_key(sym: EveSymbol):
    return (sym.e_a is None, sym.e_a or 0, sym.e_b is None, sym.e_b or 0)


@dataclass(frozen=True)
class FullAttack:
    """A tripartite strategy P(a, b, e | x, y) built from extreme points.

    ``components`` pairs each prepared vertex with its probability; the
    vertex identity is Eve's raw side information.  Her preparation is
    drawn independently of the settings, so the tripartite distribution
    is no-signaling by construction.
    """

    p_nl: float
    components: tuple  # ((Vertex, weight), ...)


def attack_from_pnl(p_nl: float) -> FullAttack:
    """The optimal attack parametrized by its nonlocal weight directly.

    The PR box carries p_nl and the eight CHSH-facet points (1 - p_nl)/8
    each.  ``optimal_attack(v)`` delegates here with p_nl = 2v - 1 for
    v >= 1/2, where that subtraction is exact (Sterbenz); calling this
    directly keeps the caller's p_nl without a trip through v.
    """
    p_nl = _as_fraction("p_nl", p_nl)
    facet_w = (1.0 - p_nl) / 8.0
    components = [(vertex, facet_w) for vertex in polytope.facet_vertices() if facet_w > 0.0]
    if p_nl > 0.0:
        components.append((polytope.pr_box_vertex(), p_nl))
    return FullAttack(p_nl=p_nl, components=tuple(components))


def optimal_attack(v: float) -> FullAttack:
    """Eve's best extremal-mixture preparation for isotropic visibility v.

    Above the local bound the nonlocal weight 2v - 1 is forced and lands
    entirely on the PR box, with the rest spread uniformly over the
    eight facet points.  Below the bound no nonlocal vertex is needed;
    the local vertices then carry weights (1 + 2v)/16 on the facet and
    (1 - 2v)/16 off it, which reproduces the box exactly.
    """
    v = _as_fraction("visibility", v)
    if v >= 0.5:
        return attack_from_pnl(2.0 * v - 1.0)
    on, off = (1.0 + 2.0 * v) / 16.0, (1.0 - 2.0 * v) / 16.0  # both positive for v < 1/2
    components = tuple((vertex, on if vertex.on_chsh_facet else off) for vertex in polytope.vertices()[:16])
    return FullAttack(p_nl=0.0, components=components)


@dataclass(frozen=True)
class JointABE:
    """Sifted joint distribution of Alice's bit, Bob's bit and Eve's symbol."""

    p: np.ndarray  # shape (2, 2, n_symbols); a read-only copy of the input
    symbols: tuple  # EveSymbol entries matching the last axis

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (2, 2, len(self.symbols)):
            raise ValueError(f"joint table has shape {p.shape}, not (2, 2, {len(self.symbols)})")
        info._check_normalized(p)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def ab_marginal(self) -> np.ndarray:
        return self.p.sum(axis=2)


def _known(bits: np.ndarray) -> Optional[int]:
    """The bit when every entry agrees, else None."""
    return int(bits.flat[0]) if bits.min() == bits.max() else None


@functools.cache
def _cells(vertex: polytope.Vertex, announce: bool) -> tuple:
    """(EveSymbol, kept, b) for each of the vertex's 8 answers at (x, y, coin).

    Alice keeps a XOR xy.  Eve, who knows the vertex and y, records a
    bit when it is the same over everything she cannot see: Alice's
    setting x' and the coin, or only the coin once Alice announces x.
    """
    x, y, _ = np.indices((2, 2, 2))
    kept = vertex.responses[..., 0] ^ (x & y)
    b = vertex.responses[..., 1]
    cells = []
    for xx, yy, coin in itertools.product((0, 1), repeat=3):
        e_a = _known(kept[xx, yy] if announce else kept[:, yy])
        sym = EveSymbol(e_a, _known(b[:, yy]))
        cells.append((sym, int(kept[xx, yy, coin]), int(b[xx, yy, coin])))
    return tuple(cells)


@functools.lru_cache(maxsize=64)  # bounded; the optimal attacks fill 8 entries (4 vertex tuples, 2 announce)
def _grouping(vertices: tuple, announce: bool) -> tuple:
    """Eve's symbols in canonical order, and per nonzero cell of the (2, 2, len(symbols)) table
    its flat index with the position in ``vertices`` of each answer landing there."""
    members: dict = {}
    for i, vertex in enumerate(vertices):
        for cell in _cells(vertex, announce):
            members.setdefault(cell, []).append(i)
    symbols = tuple(sorted({sym for sym, _, _ in members}, key=_symbol_sort_key))
    cells = tuple(((2 * a + b) * len(symbols) + symbols.index(sym), tuple(at)) for (sym, a, b), at in members.items())
    return symbols, cells


def _sift(attack: FullAttack, announce: bool) -> JointABE:
    """Reconciled round statistics; ``announce`` makes Alice's setting public.

    A cell is the ``math.fsum`` of an eighth of the vertex weight per answer landing there
    (``_grouping``): correctly rounded in any order, so the equal power-of-two scaled addends
    of a uniform mixture sum to their exact closed-form totals.
    """
    symbols, cells = _grouping(tuple(vertex for vertex, _ in attack.components), announce)
    eighths = [w * 0.125 for _, w in attack.components]
    p = [0.0] * (4 * len(symbols))
    for flat, at in cells:
        p[flat] = math.fsum([eighths[i] for i in at])
    return JointABE(p=np.reshape(p, (2, 2, len(symbols))), symbols=symbols)


def sift(attack: FullAttack) -> JointABE:
    """Reconciled round statistics with Eve's five-symbol knowledge.

    Settings are uniform.  Bob announces y; Alice keeps a for x*y = 0
    and flips it for x = y = 1.  Eve knows b outright for any
    deterministic vertex.  She knows Alice's kept bit only when the
    vertex makes it independent of the unannounced x; otherwise e_a is
    "?".  PR rounds give her nothing on either bit.
    """
    return _sift(attack, announce=False)


def sift_alice_announces(attack: FullAttack) -> JointABE:
    """Variant where Alice announces her setting as well.

    With both settings public every deterministic vertex hands Eve both
    reconciled bits, so her symbol set becomes the four definite pairs
    plus (?,?) for PR rounds.  The public settings themselves carry no
    extra information beyond that and are summed out.
    """
    return _sift(attack, announce=True)


@functools.cache
def _optimal_cells(announce: bool) -> tuple:
    """Eve's symbols of the optimal attack, and per cell of its (2, 2, 5) table the count of
    facet answers and of PR answers landing there, read from ``_grouping`` of its nine vertices.

    Each facet symbol takes 16 and 8 eighths, 24 and 8 once Alice announces, and the PR box 4
    eighths in (?,?) at a = b; (?,?) sorts last, and no cell mixes the two kinds.
    """
    vertices = (*polytope.facet_vertices(), polytope.pr_box_vertex())
    symbols, cells = _grouping(vertices, announce)
    facet, pr = np.zeros((2, 4 * len(symbols)), dtype=int)
    for flat, at in cells:
        pr[flat] = at.count(len(vertices) - 1)  # the PR box is the last vertex
        facet[flat] = len(at) - pr[flat]
    return symbols, facet.reshape(2, 2, -1), pr.reshape(2, 2, -1)


def _optimal_table(p_nl: float, announce: bool) -> tuple:
    """(p, symbols) of ``_sift(attack_from_pnl(p_nl), announce)``, written from its closed-form cells.

    A cell is its count times one vertex's eighth, ((1 - p_nl)/8)/8 for a facet point and
    p_nl/8 for the PR box, which is the correctly rounded sum ``_sift`` takes of that many
    equal addends, so every bit agrees; (?,?) is left out at p_nl = 0 and every facet
    symbol at p_nl = 1, where ``attack_from_pnl`` leaves out their vertices.  p_nl is unchecked.
    """
    symbols, facet_cells, pr_cells = _optimal_cells(announce)
    p = facet_cells * ((1.0 - p_nl) / 8.0 * 0.125) + pr_cells * (p_nl * 0.125)
    if p_nl == 0.0:
        return np.ascontiguousarray(p[..., :4]), symbols[:4]
    if p_nl == 1.0:
        return np.ascontiguousarray(p[..., 4:]), symbols[4:]
    return p, symbols


def table_joint(p_nl: float) -> JointABE:
    """Sifted joint of the optimal attack with given p_nl: ``sift(attack_from_pnl(p_nl))``, bit for bit."""
    p, symbols = _optimal_table(_as_fraction("p_nl", p_nl), announce=False)
    return JointABE(p=p, symbols=symbols)


class AliceBobStats(NamedTuple):
    qber: float
    i_ab: float
    i_ae: float
    i_be: float


def alice_bob_stats(joint: JointABE) -> AliceBobStats:
    """Error rate and the three pairwise mutual informations."""
    ab = joint.ab_marginal()
    return AliceBobStats(
        qber=float(ab[0, 1] + ab[1, 0]),
        i_ab=info._mi(ab),
        i_ae=info._mi(joint.p.sum(axis=1)),
        i_be=info._mi(joint.p.sum(axis=0)),
    )
