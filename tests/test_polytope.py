import functools
import itertools
import json
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

from nskd import boxes, polytope
from nskd.boxes import _make_box, bb84_box, chsh, chsh_symmetrized, isotropic, twirl_to_isotropic
from nskd.exceptions import Infeasible
from nskd.polytope import (
    is_local,
    min_nonlocal_decomposition,
    vertices,
)
from tests.conftest import random_mixture_box


def _feasible_as_mixture(target_flat, columns):
    """Independent LP feasibility oracle: is target a convex mixture?"""
    n = columns.shape[1]
    res = linprog(
        np.zeros(n),
        A_eq=np.vstack([columns, np.ones((1, n))]),
        b_eq=np.concatenate([target_flat, [1.0]]),
        bounds=(0.0, 1.0),
        method="highs",
    )
    return res.status == 0


_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class _LinprogModel:
    """The chain's LPs min c.w s.t. A w = b, 0 <= w <= 1, each solved cold by ``linprog``."""

    def __init__(self, a_eq, b_eq):
        self.a_eq, self.b_eq = a_eq, b_eq

    def minimize(self, c):
        res = linprog(c, A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0.0, 1.0), method="highs", options=_HIGHS_OPTS)
        if res.status == 2:
            raise Infeasible("target is not a convex mixture of no-signaling vertices")
        assert res.success, res.message
        return res.x

    def hold(self, row, value):
        """Add the equality row.w = value to every later LP."""
        self.a_eq, self.b_eq = np.vstack([self.a_eq, row]), np.append(self.b_eq, value)


try:  # scipy's bindings of HiGHS itself, with the same solver as linprog(method="highs")
    from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs
except ImportError:
    _Highs = None


class _WarmModel:
    """The same LPs on one HiGHS model: each minimize swaps the cost in and solves from the last basis."""

    def __init__(self, a_eq, b_eq):
        n_row, self.n_col = a_eq.shape
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = self.n_col, n_row
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = np.zeros(self.n_col), np.zeros(self.n_col), np.ones(self.n_col)
        lp.row_lower_ = lp.row_upper_ = b_eq
        matrix = lp.a_matrix_
        matrix.format_, matrix.num_col_, matrix.num_row_ = MatrixFormat.kRowwise, self.n_col, n_row
        matrix.start_ = np.arange(0, a_eq.size + 1, self.n_col)
        matrix.index_ = np.tile(np.arange(self.n_col), n_row)
        matrix.value_ = a_eq.ravel()
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        for key, value in _HIGHS_OPTS.items():
            self.highs.setOptionValue(key, value)
        self.highs.passModel(lp)

    def minimize(self, c):
        self.highs.changeColsCost(self.n_col, np.arange(self.n_col), c)
        self.highs.run()
        status = self.highs.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            raise Infeasible("target is not a convex mixture of no-signaling vertices")
        assert status == HighsModelStatus.kOptimal, self.highs.modelStatusToString(status)
        return np.array(self.highs.getSolution().col_value)

    def hold(self, row, value):
        """Add the equality row.w = value to every later LP."""
        nonzero = np.flatnonzero(row)
        self.highs.addRow(value, value, len(nonzero), nonzero, row[nonzero])


def lexicographic_lp(box, model=_LinprogModel if _Highs is None else _WarmModel):
    """Oracle: the chain of linear programs the decomposition was first computed with.

    One LP minimizes the nonlocal weight; then, in canonical vertex
    order, each coordinate that is not already at zero is minimized with
    every earlier coordinate and the optimum held fixed.  ``model`` solves
    the chain: one warm HiGHS model where scipy's bindings import, else
    one ``linprog`` call per LP.
    """
    target = box.table.ravel()
    lps = model(np.vstack([polytope._vertex_matrix(), np.ones((1, 24))]), np.concatenate([target, [1.0]]))
    cost = np.array([0.0 if v.is_local else 1.0 for v in polytope.vertices()])
    w = lps.minimize(cost)
    lps.hold(cost, float(cost @ w))
    for i in range(24):
        unit = np.eye(24)[i]
        if w[i] <= 1e-10:
            value = 0.0  # the current candidate attains zero
        else:
            w = lps.minimize(unit)
            value = float(w[i])
        lps.hold(unit, value)
    return np.clip(w, 0.0, None)


@functools.cache
def _oracle_boxes():
    rng = np.random.default_rng(31)
    local = [random_mixture_box(rng) for _ in range(200)]
    nonlocal_ = []
    while len(nonlocal_) < 200:
        box = random_mixture_box(rng, concentration=0.1)
        if chsh_symmetrized(box) > 3.0:
            nonlocal_.append(box)
    grid = [isotropic(float(v)) for v in np.linspace(0.0, 1.0, 101)]
    return {
        "local": local,
        "nonlocal": nonlocal_,
        "vertices": [v.box for v in vertices()],
        "isotropic": grid,
        "bb84": [bb84_box()],
    }


def _shifted_isotropic(shift):
    """isotropic(0.4) with Alice's x = 0 marginal under y = 0 moved by ``shift``."""
    table = isotropic(0.4).table.copy()
    table[0, 0, 0, 0] += shift
    table[0, 0, 1, 0] -= shift
    return _make_box(table)


class TestVertices:
    def test_counts(self):
        verts = vertices()
        assert len(verts) == 24
        assert sum(v.is_local for v in verts) == 16
        assert sum(not v.is_local for v in verts) == 8

    def test_canonical_order(self):
        verts = vertices()
        local_params = [v.params for v in verts[:16]]
        assert local_params == sorted(itertools.product((0, 1), repeat=4))
        nonlocal_params = [v.params for v in verts[16:]]
        assert nonlocal_params == sorted(itertools.product((0, 1), repeat=3))

    def test_pr_vertex_is_isotropic_one(self):
        pr = polytope.pr_box_vertex()
        assert pr.params == (0, 0, 0)
        assert np.array_equal(pr.box.table, isotropic(1.0).table)

    def test_unique_maximal_violation(self):
        values = [chsh(v.box) for v in vertices()]
        assert values.count(4.0) == 1

    def test_facet_split_of_locals(self):
        locals_chsh = [chsh(v.box) for v in vertices() if v.is_local]
        assert sorted(locals_chsh) == [1.0] * 8 + [3.0] * 8
        assert len(polytope.facet_vertices()) == 8
        for v in polytope.facet_vertices():
            assert chsh(v.box) == 3.0

    def test_responses_average_to_the_table(self):
        # the coin average of each vertex's answers is its box, exactly
        for v in vertices():
            assert v.responses.dtype == np.int8 and not v.responses.flags.writeable
            table = np.zeros((2, 2, 2, 2))
            for (x, y, coin), (a, b) in zip(
                itertools.product((0, 1), repeat=3), v.responses.reshape(8, 2)
            ):
                table[x, y, a, b] += 0.5
            assert np.array_equal(table, v.box.table)

    def test_nonlocal_tables_are_half_the_win_mask(self):
        # NL:g puts 1/2 on each cell where a XOR b = xy XOR alpha x XOR beta y XOR gamma
        for g, v in enumerate(vertices()[16:]):
            alpha, beta, gamma = v.params
            half = np.zeros((2, 2, 2, 2))
            for x, y, a, b in itertools.product((0, 1), repeat=4):
                if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                    half[x, y, a, b] = 0.5
            assert np.array_equal(v.box.table, half)
            assert np.array_equal(v.box.table.ravel(), boxes._HALF_WIN[:, g])

    def test_all_vertices_validate(self):
        from nskd.boxes import validate

        for v in vertices():
            validate(v.box.table.ravel())

    def test_every_vertex_is_extremal(self):
        # feasibility oracle: no vertex is a mixture of the other 23
        matrix = np.column_stack([v.box.table.ravel() for v in vertices()])
        for j in range(24):
            others = np.delete(matrix, j, axis=1)
            assert not _feasible_as_mixture(matrix[:, j], others)


class TestDecomposition:
    def test_isotropic_above_local_bound(self):
        dec = min_nonlocal_decomposition(isotropic(0.8))
        assert dec.nonlocal_weight == pytest.approx(0.6, abs=1e-9)
        assert dec.residual < 1e-8
        weights = {v.name: float(w) for v, w in zip(vertices(), dec.weights) if w > 1e-10}
        assert weights["NL:000"] == pytest.approx(0.6, abs=1e-9)
        facet_names = {v.name for v in polytope.facet_vertices()}
        assert set(weights) == facet_names | {"NL:000"}
        for name in facet_names:
            assert weights[name] == pytest.approx(0.05, abs=1e-9)

    def test_grid_matches_closed_form(self):
        for v in np.linspace(0.0, 1.0, 51):
            dec = min_nonlocal_decomposition(isotropic(float(v)))
            assert dec.nonlocal_weight == pytest.approx(
                max(0.0, 2.0 * v - 1.0), abs=1e-8
            )
            assert dec.residual < 1e-8

    def test_local_isotropic_needs_no_nonlocal_mass(self):
        dec = min_nonlocal_decomposition(isotropic(0.4))
        assert dec.nonlocal_weight <= 1e-9

    def test_bb84_is_local(self):
        dec = min_nonlocal_decomposition(bb84_box())
        assert dec.nonlocal_weight <= 1e-9
        assert is_local(bb84_box())
        # cross-check with a generic feasibility oracle over local vertices
        local_cols = np.column_stack(
            [v.box.table.ravel() for v in vertices() if v.is_local]
        )
        assert _feasible_as_mixture(bb84_box().table.ravel(), local_cols)

    def test_is_local_on_isotropic_line(self):
        assert is_local(isotropic(0.4))
        assert not is_local(isotropic(0.8))
        for vertex in vertices():
            if vertex.is_local:
                assert is_local(vertex.box)

    def test_is_local_agrees_with_the_decomposition(self, rng):
        boxes = [random_mixture_box(rng) for _ in range(300)]
        # points of the CHSH facet moved by w toward the PR box have nonlocal weight w
        facet = np.array([v.box.table for v in polytope.facet_vertices()])
        pr = polytope.pr_box_vertex().box.table
        for w in (0.0, 1e-9, 5e-9, 1e-8, 2e-8, 1e-7):
            for mix in rng.dirichlet(np.ones(8), size=8):
                boxes.append(_make_box((1.0 - w) * np.tensordot(mix, facet, 1) + w * pr))
        boxes += [v.box for v in vertices()] + [bb84_box()]
        boxes += [isotropic(float(v)) for v in np.linspace(0.0, 1.0, 101)]
        for box in boxes:
            expected = min_nonlocal_decomposition(box).nonlocal_weight <= polytope.REPORT_TOL
            assert is_local(box) == expected

    def test_reconstruction_on_random_mixtures(self, rng):
        for _ in range(300):
            box = random_mixture_box(rng)
            dec = min_nonlocal_decomposition(box)
            assert dec.residual < 1e-8
            rebuilt = dec.reconstruct()
            assert np.allclose(rebuilt.table, box.table, rtol=0.0, atol=1e-8)

    def test_lexicographic_output_is_deterministic(self, rng):
        box = random_mixture_box(rng)
        first = min_nonlocal_decomposition(box)
        second = min_nonlocal_decomposition(box)
        assert np.array_equal(first.weights, second.weights)

    def test_lexicographic_tie_break_direction(self):
        # isotropic(0.3) has many optimal decompositions; the returned one
        # must not be lexicographically larger than the symmetric one
        v = 0.3
        dec = min_nonlocal_decomposition(isotropic(v))
        symmetric = np.zeros(24)
        for i, vertex in enumerate(vertices()):
            if not vertex.is_local:
                continue
            symmetric[i] = (
                (1 + 2 * v) / 16 if vertex.on_chsh_facet else (1 - 2 * v) / 16
            )
        diff = dec.weights - symmetric
        nonzero = np.nonzero(np.abs(diff) > 1e-9)[0]
        if len(nonzero):
            assert diff[nonzero[0]] < 0.0
        # and it is still a valid optimal decomposition
        assert dec.nonlocal_weight <= 1e-9
        assert dec.residual < 1e-8

    def test_decompositions_compare_and_hash_by_identity(self):
        dec, other = (min_nonlocal_decomposition(isotropic(0.8)) for _ in range(2))
        assert (dec == other) is False and (dec == dec) is True
        assert hash(dec) == hash(dec)
        assert len({dec, other, dec}) == 2

    def test_chsh_bounded_by_three_plus_nonlocal_weight(self):
        for v in np.linspace(0.0, 1.0, 21):
            box = isotropic(float(v))
            dec = min_nonlocal_decomposition(box)
            gap = chsh(box) - 3.0
            if v >= 0.5:
                assert dec.nonlocal_weight == pytest.approx(gap, abs=1e-8)
            else:
                assert dec.nonlocal_weight <= 1e-8

    def test_infeasible_input_raises(self):
        # signaling table disguised as a box object: Alice's x=0 marginal
        # is deterministic under y=0 but uniform under y=1
        from nskd.boxes import _make_box

        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(Infeasible):
            min_nonlocal_decomposition(_make_box(table))


class TestLexicographicOracle:
    @pytest.mark.parametrize("family", list(_oracle_boxes()))
    def test_matches_the_lp_chain(self, family):
        for box in _oracle_boxes()[family]:
            expected = lexicographic_lp(box)
            dec = min_nonlocal_decomposition(box)
            assert np.abs(dec.weights - expected).max() <= 1e-12

    @pytest.mark.skipif(_Highs is None, reason="scipy without its HiGHS bindings has one chain only")
    def test_warm_model_solves_the_chain_as_linprog_does(self):
        for family in _oracle_boxes().values():
            for box in family[:3]:
                warm, cold = lexicographic_lp(box, _WarmModel), lexicographic_lp(box, _LinprogModel)
                assert np.abs(warm - cold).max() <= 1e-15

    def test_families_cover_both_sides(self):
        families = _oracle_boxes()
        assert all(chsh_symmetrized(b) <= 3.0 for b in families["local"])
        assert all(
            min_nonlocal_decomposition(b).nonlocal_weight > 0.0
            for b in families["nonlocal"]
        )

    def test_relabeling_certifies_the_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dec = min_nonlocal_decomposition(random_mixture_box(rng, concentration=0.1))
            assert dec.chsh == pytest.approx(chsh_symmetrized(dec.reconstruct()), abs=1e-12)
            assert dec.nonlocal_weight == pytest.approx(max(0.0, dec.chsh - 3.0), abs=1e-15)
            if dec.nonlocal_weight > 0.0:
                assert dec.weights[vertices().index(dec.relabeling)] == dec.nonlocal_weight

    def test_small_signaling_decomposes(self):
        dec = min_nonlocal_decomposition(_shifted_isotropic(1e-11))
        assert dec.residual <= 1e-11 * (1 + 1e-3)
        lexicographic_lp(_shifted_isotropic(1e-11))

    def test_larger_signaling_raises(self):
        with pytest.raises(Infeasible):
            min_nonlocal_decomposition(_shifted_isotropic(1e-9))
        with pytest.raises(Infeasible):
            lexicographic_lp(_shifted_isotropic(1e-9))

    def test_negative_entry_raises(self):
        # (1 + e) * PR - e * uniform: normalized and no-signaling, but four
        # entries at -1e-6
        e = 4e-6
        table = (1 + e) * isotropic(1.0).table - e * 0.25
        assert table.min() == pytest.approx(-1e-6)
        with pytest.raises(Infeasible):
            min_nonlocal_decomposition(_make_box(table))
        with pytest.raises(Infeasible):
            lexicographic_lp(_make_box(table))


@functools.cache
def _cache_boxes():
    """Random mixtures (Dirichlet 0.1, 0.3 and 1), sparse mixtures, the vertices, isotropic(v), BB84, Werner.

    A sparse mixture of 2 to 6 vertices has a degenerate minimum: several
    optimal bases hold its support, and each gives other rounding.
    """
    rng = np.random.default_rng(11)
    mixtures = [random_mixture_box(rng, concentration=c) for c in (0.1, 0.3, 1.0) for _ in range(100)]
    tables = np.array([v.box.table for v in vertices()])
    sparse = [
        _make_box(np.tensordot(rng.dirichlet(np.ones(k)), tables[rng.choice(24, size=k, replace=False)], 1))
        for k in (2, 3, 4, 5, 6)
        for _ in range(20)
    ]
    grid = [isotropic(float(v)) for v in np.linspace(0.0, 1.0, 101)]
    return mixtures + sparse + [v.box for v in vertices()] + grid + [bb84_box(), boxes.werner_box(0.8)]


def _fields(dec):
    return dec.weights.tobytes(), dec.residual, dec.relabeling.name, dec.chsh


def _local_rhs(box, dec):
    """The right-hand side of the local system that ``min_nonlocal_decomposition`` solves for ``box``."""
    g = polytope.vertices().index(dec.relabeling)
    p = dec.weights[g]
    rows, _ = polytope._local_system()
    return np.append(box.table.ravel() - p * polytope._vertex_matrix()[:, g], 1.0 - p)[rows]


def _lexicographically_optimal(basis) -> bool:
    """Every nonbasic column's reduced costs over w_0, ..., w_15 are lexicographically >= -1e-12."""
    matrix = polytope._local_system()[1]
    basis = list(basis)
    reduced = np.eye(16)
    reduced -= np.eye(16)[:, basis] @ np.linalg.solve(matrix[:, basis], matrix)
    for j in sorted(set(range(16)) - set(basis)):
        lead = np.flatnonzero(np.abs(reduced[:, j]) > 1e-12)
        if len(lead) and reduced[lead[0], j] < 0.0:
            return False
    return True


class TestOptimalBases:
    """The kept optimal bases change no result, and each is a certificate of the lexicographic minimum."""

    def test_results_do_not_depend_on_the_kept_bases(self, monkeypatch):
        cold = []
        for box in _cache_boxes():
            monkeypatch.setattr(polytope, "_optimal_bases", polytope._OptimalBases())
            cold.append(_fields(min_nonlocal_decomposition(box)))
        monkeypatch.setattr(polytope, "_optimal_bases", polytope._OptimalBases())
        filling = [_fields(min_nonlocal_decomposition(box)) for box in _cache_boxes()]
        runs, simplex = [], polytope._lex_simplex

        def counted(rhs):
            runs.append(rhs)
            return simplex(rhs)

        monkeypatch.setattr(polytope, "_lex_simplex", counted)
        full = [_fields(min_nonlocal_decomposition(box)) for box in _cache_boxes()]
        assert runs == []
        assert filling == cold
        assert full == cold

    def test_threads_sharing_the_kept_bases_get_the_serial_results(self, monkeypatch):
        serial = [_fields(min_nonlocal_decomposition(box)) for box in _cache_boxes()]
        monkeypatch.setattr(polytope, "_optimal_bases", polytope._OptimalBases())
        halves = [_cache_boxes()[i % 2::2] for i in range(4)]  # two threads on each half
        results = [None] * 4

        def decompose(i):
            results[i] = [_fields(min_nonlocal_decomposition(box)) for box in halves[i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decompose, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial[i % 2::2] for i in range(4)]

    def test_every_basis_certifies_its_weights(self, monkeypatch):
        monkeypatch.setattr(polytope, "_optimal_bases", polytope._OptimalBases())
        for box in _cache_boxes():
            dec = min_nonlocal_decomposition(box)
            assert _lexicographically_optimal(dec._basis)
            basis = list(dec._basis)
            rebuilt = np.zeros(16)
            rebuilt[basis] = np.linalg.solve(polytope._local_system()[1][:, basis], _local_rhs(box, dec))
            assert np.abs(rebuilt - dec.weights[:16]).max() <= 1e-15
        kept = polytope._optimal_bases.kept[0]
        assert 0 < len(kept) <= 64
        assert all(_lexicographically_optimal(basis) for basis in kept)

    def test_the_check_sees_a_basis_that_is_not_optimal(self):
        # the first basis in combination order is a basis, but not a lexicographically optimal one
        columns, _ = polytope._first_basis(())
        assert not _lexicographically_optimal(columns)


@functools.cache
def _all_bases() -> np.ndarray:
    """The 4096 bases of the local system, in combination order: the 9-column sets of nonzero determinant."""
    matrix = polytope._local_system()[1]
    combinations = np.array(list(itertools.combinations(range(16), 9)))
    determinants = np.linalg.det(np.moveaxis(matrix[:, combinations], 1, 0))
    return combinations[np.abs(determinants) > 0.5]


def _first_basis_by_combinations(support: tuple) -> tuple:
    """The first of ``_all_bases`` that holds ``support``.

    Among the 9-sets that hold ``support``, combination order of the full sets is
    combination order of the columns they add, the order ``_first_basis`` names.
    """
    bases = _all_bases()
    return tuple(bases[np.isin(bases, support).sum(axis=1) == len(support)][0].tolist())


class TestSimplexStructure:
    """The facts the simplex rests on: an integer tableau, one objective, one greedy completion."""

    def test_every_tableau_entry_is_zero_or_one_in_magnitude(self):
        bases = _all_bases()
        assert len(bases) == 4096
        matrix = polytope._local_system()[1]
        tableaus = np.linalg.solve(np.moveaxis(matrix[:, bases], 1, 0), matrix)
        assert np.abs(tableaus - np.round(tableaus)).max() < 1e-12
        assert set(np.unique(np.round(tableaus))) == {-1.0, 0.0, 1.0}

    def test_one_objective_has_the_lexicographic_optimal_bases(self):
        bases = _all_bases()
        matrix = polytope._local_system()[1]
        tableaus = np.round(np.linalg.solve(np.moveaxis(matrix[:, bases], 1, 0), matrix))
        cost = 0.5 ** np.arange(16)
        reduced = cost - np.einsum("bi,bij->bj", cost[bases], tableaus)
        optimal = [tuple(basis) for basis, r in zip(bases.tolist(), reduced) if r.min() >= 0.0]
        assert optimal == [tuple(basis) for basis in bases.tolist() if _lexicographically_optimal(basis)]
        assert len(optimal) == 64

    def test_first_basis_is_the_first_in_combination_order(self):
        rng = np.random.default_rng(42)
        bases = _all_bases()
        supports = [()] + [
            tuple(sorted(rng.choice(basis, size=rng.integers(1, 9), replace=False).tolist()))
            for basis in bases[rng.integers(0, len(bases), size=1000)]
        ]
        for support in supports:
            assert polytope._first_basis(support)[0] == _first_basis_by_combinations(support), support


class TestMinimalityOracle:
    """Brute-force check that the LP truly finds the minimum.

    Averaging any decomposition of an isotropic target over the box
    symmetry group yields an orbit-uniform decomposition with the same
    nonlocal mass, so searching over the five vertex orbits is exhaustive
    for isotropic targets.  Orbit mean boxes lie on the (extended)
    isotropic line at values +1 (PR), -1, 0, +1/2 (facet locals), -1/2.
    """

    ORBIT_VALUES = np.array([1.0, -1.0, 0.0, 0.5, -0.5])

    def brute_force_nonlocal_weight(self, v: float, step: float = 0.01) -> float:
        grid = np.arange(0.0, 1.0 + step / 2, step)
        w_apr, w_onl, w_non = np.meshgrid(grid, grid, grid, indexing="ij")
        c2 = 1.0 - (w_apr + w_onl + w_non)
        c1 = v + w_apr + 0.5 * w_non
        w_fac = 2.0 * (c2 - c1)
        w_pr = 2.0 * c1 - c2
        feasible = (w_fac >= -1e-12) & (w_pr >= -1e-12) & (c2 >= -1e-12)
        objective = np.where(feasible, w_pr + w_apr + w_onl, np.inf)
        return float(objective.min())

    @pytest.mark.parametrize("v", np.arange(0.0, 1.0001, 0.05).tolist())
    def test_lp_matches_brute_force(self, v):
        lp = min_nonlocal_decomposition(isotropic(float(v)))
        brute = self.brute_force_nonlocal_weight(float(v))
        assert lp.nonlocal_weight == pytest.approx(brute, abs=1e-3)


class TestSerializationFormat:
    def test_json_schema(self):
        dec = min_nonlocal_decomposition(isotropic(0.9))
        payload = json.loads(dec.to_json())
        assert set(payload) == {"weights", "residual"}
        names = {entry["vertex"] for entry in payload["weights"]}
        assert "NL:000" in names
        for entry in payload["weights"]:
            kind, digits = entry["vertex"].split(":")
            assert kind in {"L", "NL"}
            assert set(digits) <= {"0", "1"}
            assert isinstance(entry["w"], float)

    def test_twirl_connection(self):
        # the minimal nonlocal weight of a twirled box matches the raw one
        box = bb84_box()
        dec_raw = min_nonlocal_decomposition(box)
        dec_twirled = min_nonlocal_decomposition(twirl_to_isotropic(box))
        assert dec_raw.nonlocal_weight == pytest.approx(0.0, abs=1e-9)
        assert dec_twirled.nonlocal_weight == pytest.approx(0.0, abs=1e-9)
