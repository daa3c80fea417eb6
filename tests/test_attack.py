import itertools
import math

import numpy as np
import pytest

from nskd import attack, polytope
from nskd.attack import (
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
from nskd.boxes import isotropic
from nskd.exceptions import DomainError
from tests.conftest import joint_cell

# the five symbols of the facet-plus-PR attacks, in canonical order
CANONICAL_SYMBOLS = (
    EveSymbol(0, 0),
    EveSymbol(1, 1),
    EveSymbol(None, 0),
    EveSymbol(None, 1),
    EveSymbol(None, None),
)


def expected_table(p_nl: float) -> dict:
    """The eight closed-form cells of the sifted attack distribution."""
    p_l = 1.0 - p_nl
    return {
        (0, 0, EveSymbol(0, 0)): p_l / 4,
        (1, 1, EveSymbol(1, 1)): p_l / 4,
        (0, 0, EveSymbol(None, 0)): p_l / 8,
        (1, 0, EveSymbol(None, 0)): p_l / 8,
        (0, 1, EveSymbol(None, 1)): p_l / 8,
        (1, 1, EveSymbol(None, 1)): p_l / 8,
        (0, 0, EveSymbol(None, None)): p_nl / 2,
        (1, 1, EveSymbol(None, None)): p_nl / 2,
    }


class TestOptimalAttack:
    def test_pure_pr_at_full_visibility(self):
        strategy = optimal_attack(1.0)
        assert strategy.p_nl == 1.0
        assert len(strategy.components) == 1
        vertex, weight = strategy.components[0]
        assert vertex.name == "NL:000"
        assert weight == 1.0

    def test_uniform_facet_mixture_at_local_bound(self):
        strategy = optimal_attack(0.5)
        assert strategy.p_nl == 0.0
        assert len(strategy.components) == 8
        for vertex, weight in strategy.components:
            assert vertex.on_chsh_facet
            assert weight == pytest.approx(0.125, abs=1e-15)

    def test_nonlocal_weight_equals_two_v_minus_one(self):
        assert optimal_attack(0.8).p_nl == pytest.approx(0.6, abs=1e-12)

    def test_marginal_reproduces_isotropic(self):
        for v in np.linspace(0.0, 1.0, 41):
            strategy = optimal_attack(float(v))
            table = sum(w * vertex.box.table for vertex, w in strategy.components)
            assert np.abs(table - isotropic(float(v)).table).max() <= 1e-14

    def test_matches_lp_decomposition(self):
        for v in (0.55, 0.7, 0.92):
            strategy = optimal_attack(v)
            dec = polytope.min_nonlocal_decomposition(isotropic(v))
            for vertex, weight in strategy.components:
                index = polytope.vertices().index(vertex)
                assert dec.weights[index] == pytest.approx(weight, abs=1e-8)

    def test_components_are_vertices(self):
        for vertex, _ in optimal_attack(0.75).components:
            assert vertex in polytope.vertices()

    def test_eve_preparation_independent_of_settings(self):
        strategy = optimal_attack(0.83)
        for vertex, weight in strategy.components:
            for x, y in itertools.product((0, 1), repeat=2):
                assert vertex.box.table[x, y].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_visibility(self):
        with pytest.raises(DomainError):
            optimal_attack(1.5)

    def test_folds_onto_attack_from_pnl_exactly(self):
        grid = list(np.linspace(0.5, 1.0, 1001)) + [np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]
        for v in map(float, grid):
            folded, direct = optimal_attack(v), attack_from_pnl(2.0 * v - 1.0)
            assert folded.p_nl == direct.p_nl and (1.0 + folded.p_nl) / 2.0 == v
            assert [(u.name, w) for u, w in folded.components] == [
                (u.name, w) for u, w in direct.components
            ]


class TestSift:
    @pytest.mark.parametrize("p_nl", [0.0, 0.2, 0.5, 0.77, 1.0])
    def test_exact_closed_forms(self, p_nl):
        joint = table_joint(p_nl)
        for (a, b, sym), value in expected_table(p_nl).items():
            assert joint_cell(joint, a, b, sym) == value  # bitwise

    def test_no_extra_mass(self):
        joint = table_joint(0.3)
        assert float(joint.p.sum()) == pytest.approx(1.0, abs=1e-15)
        nonzero = {
            (a, b, joint.symbols[k])
            for (a, b, k), val in np.ndenumerate(joint.p)
            if val > 0
        }
        assert nonzero == set(expected_table(0.3))

    def test_symbols_are_the_table_five(self):
        joint = table_joint(0.4)
        assert joint.symbols == CANONICAL_SYMBOLS

    def test_marginal_matches_sifted_box(self):
        joint = table_joint(0.6)
        ab = joint.ab_marginal()
        # sifted pair agrees with probability 1 - p_L/4
        assert ab[0, 0] + ab[1, 1] == pytest.approx(1.0 - 0.1, abs=1e-12)
        assert ab[0, 1] == pytest.approx(0.05, abs=1e-15)

    def test_nonlocal_rounds_always_agree(self):
        joint = table_joint(0.8)
        blank = joint.symbols.index(EveSymbol(None, None))
        assert joint.p[0, 1, blank] == 0.0
        assert joint.p[1, 0, blank] == 0.0



def single_vertex_oracle(vertex, announce: bool) -> dict:
    """(kept, b, symbol) -> probability for one vertex, written from its params."""
    cells = {}
    for x, y in itertools.product((0, 1), repeat=2):
        if vertex.is_local:
            alpha, beta, gamma, delta = vertex.params
            kept = ((alpha & x) ^ beta) ^ (x & y)
            b = (gamma & y) ^ delta
            hidden = {((alpha & xx) ^ beta) ^ (xx & y) for xx in (0, 1)}
            e_a = kept if announce or len(hidden) == 1 else None
            key = (kept, b, EveSymbol(e_a, b))
            cells[key] = cells.get(key, 0.0) + 0.25
        else:
            alpha, beta, gamma = vertex.params
            for a in (0, 1):
                b = a ^ (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
                key = (a ^ (x & y), b, EveSymbol(None, None))
                cells[key] = cells.get(key, 0.0) + 0.125
    return cells


def oracle_sift(strategy: FullAttack, announce: bool) -> tuple:
    """(p, symbols) by the route before cells were grouped once per vertex tuple.

    Every answer's eighth of its vertex's weight goes into a dict of per-cell lists,
    and each list is summed by math.fsum.
    """
    contribs = {}
    for vertex, w in strategy.components:
        for cell in attack._cells(vertex, announce):
            contribs.setdefault(cell, []).append(w * 0.125)
    symbols = tuple(sorted({sym for sym, _, _ in contribs}, key=attack._symbol_sort_key))
    p = np.zeros((2, 2, len(symbols)))
    for (sym, a, b), values in contribs.items():
        p[a, b, symbols.index(sym)] = math.fsum(values)
    return p, symbols


def random_attack(seed: int) -> FullAttack:
    """A random subset of the 24 vertices in random order, Dirichlet weights; seed 0 lists a vertex twice."""
    rng = np.random.default_rng(seed)
    picked = rng.permutation(24)[: rng.integers(1, 25)].tolist()
    if seed == 0:
        picked.append(picked[0])
    weights = rng.dirichlet(np.full(len(picked), 0.5)).tolist()
    components = tuple(zip([polytope.vertices()[i] for i in picked], weights))
    return FullAttack(p_nl=math.fsum(w for vertex, w in components if not vertex.is_local), components=components)


def assert_matches_oracle(strategy: FullAttack):
    for announce, route in ((False, sift), (True, sift_alice_announces)):
        joint = route(strategy)
        p, symbols = oracle_sift(strategy, announce)
        assert joint.symbols == symbols
        assert joint.p.tobytes() == p.tobytes()


class TestSiftAgainstTheOracle:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_attacks(self, seed):
        assert_matches_oracle(random_attack(seed))

    def test_optimal_attacks_on_a_fine_grid(self):
        for p_nl in np.linspace(0.0, 1.0, 2001).tolist():
            assert_matches_oracle(attack_from_pnl(p_nl))

    def test_grouping_cache_stays_within_its_bound(self):
        bound = attack._grouping.cache_info().maxsize
        assert bound is not None
        pairs = list(itertools.permutations(polytope.vertices(), 2))[: bound + 40]
        for pair in pairs:
            sift(FullAttack(p_nl=0.0, components=tuple((vertex, 0.5) for vertex in pair)))
        assert attack._grouping.cache_info().currsize == bound
        assert_matches_oracle(FullAttack(p_nl=0.0, components=tuple((vertex, 0.5) for vertex in pairs[0])))


def negative_table() -> np.ndarray:
    """Sums to one, with a -0.5 entry."""
    table = np.zeros((2, 2, 5))
    table[0, 0, 0], table[1, 1, 0] = 1.5, -0.5
    return table


class TestJointValidation:
    @pytest.mark.parametrize(
        "table, match",
        [
            (np.full((2, 2, 5), np.nan), "finite"),
            (np.full((2, 2, 5), np.inf), "finite"),
            (negative_table(), "nonnegative"),
            (np.full(20, 1 / 20), "shape"),
            (np.full((2, 2, 4), 1 / 16), "shape"),
            (np.full((2, 2, 5), 1 / 10), "normalized"),
        ],
        ids=["nan", "inf", "negative", "flat", "symbol-count", "unnormalized"],
    )
    def test_rejects_malformed_tables(self, table, match):
        with pytest.raises(ValueError, match=match):
            JointABE(p=table, symbols=CANONICAL_SYMBOLS)

    def test_stores_a_read_only_copy(self):
        table = table_joint(0.3).p.copy()
        joint = JointABE(p=table, symbols=CANONICAL_SYMBOLS)
        assert table.flags.writeable
        assert not joint.p.flags.writeable
        table[0, 0, 0] = 0.5
        assert joint.p[0, 0, 0] == table_joint(0.3).p[0, 0, 0]


class TestSingleVertexSift:
    @pytest.mark.parametrize("announce", [False, True])
    @pytest.mark.parametrize("index", range(24))
    def test_symbols_match_the_params_oracle(self, index, announce):
        vertex = polytope.vertices()[index]
        strategy = FullAttack(p_nl=0.0 if vertex.is_local else 1.0, components=((vertex, 1.0),))
        joint = sift_alice_announces(strategy) if announce else sift(strategy)
        expected = single_vertex_oracle(vertex, announce)
        assert set(joint.symbols) == {sym for _, _, sym in expected}
        got = {
            (a, b, joint.symbols[k]): float(val)
            for (a, b, k), val in np.ndenumerate(joint.p)
            if val > 0
        }
        assert got == expected


class TestAliceBobStats:
    @pytest.mark.parametrize("p_nl", [0.0, 0.25, 0.6, 1.0])
    def test_error_rate_and_eve_information(self, p_nl):
        stats = alice_bob_stats(table_joint(p_nl))
        p_l = 1.0 - p_nl
        assert stats.qber == pytest.approx(p_l / 4, abs=1e-12)
        assert stats.i_ae == pytest.approx(p_l / 2, abs=1e-12)
        assert stats.i_be == pytest.approx(p_l, abs=1e-12)

    def test_perfect_monogamy_at_one(self):
        stats = alice_bob_stats(table_joint(1.0))
        assert stats.qber == 0.0
        assert stats.i_ab == pytest.approx(1.0, abs=1e-12)
        assert stats.i_ae == pytest.approx(0.0, abs=1e-12)

    def test_eve_knows_bob_better_than_alice(self):
        for p_nl in np.linspace(0.0, 1.0, 21):
            stats = alice_bob_stats(table_joint(float(p_nl)))
            assert stats.i_be >= stats.i_ae - 1e-12


class TestSiftAliceAnnounces:
    def test_blank_probability_is_p_nl(self):
        for p_nl in (0.0, 0.3, 0.8, 1.0):
            joint = sift_alice_announces(attack_from_pnl(p_nl))
            blank = 0.0
            if EveSymbol(None, None) in joint.symbols:
                blank = float(joint.p[:, :, joint.symbols.index(EveSymbol(None, None))].sum())
            assert blank == pytest.approx(p_nl, abs=1e-12)

    def test_local_rounds_fully_resolved(self):
        joint = sift_alice_announces(attack_from_pnl(0.0))
        # every symbol pins down the outcome pair exactly
        for k, sym in enumerate(joint.symbols):
            support = np.argwhere(joint.p[:, :, k] > 0)
            assert len(support) == 1
            a, b = support[0]
            assert (sym.e_a, sym.e_b) == (a, b)

    def test_brute_force_over_facet_vertices(self):
        # oracle: re-derive the joint from the vertex definitions
        cells = {}
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
            delta = beta ^ (alpha & gamma)
            for x, y in itertools.product((0, 1), repeat=2):
                a = (alpha & x) ^ beta
                b = (gamma & y) ^ delta
                kept = a ^ (x & y)
                key = (kept, b, EveSymbol(kept, b))
                cells[key] = cells.get(key, 0.0) + (1 / 8) * 0.25
        joint = sift_alice_announces(attack_from_pnl(0.0))
        for (a, b, sym), val in cells.items():
            assert joint_cell(joint, a, b, sym) == pytest.approx(val, abs=1e-15)
        assert sum(cells.values()) == pytest.approx(1.0, abs=1e-12)

    def test_outcome_distribution_of_local_rounds(self):
        joint = sift_alice_announces(attack_from_pnl(0.0))
        ab = joint.ab_marginal()
        assert ab[0, 0] == pytest.approx(3 / 8, abs=1e-12)
        assert ab[1, 1] == pytest.approx(3 / 8, abs=1e-12)
        assert ab[0, 1] == pytest.approx(1 / 8, abs=1e-12)

    def test_pure_pr_matches_plain_sift(self):
        announced = sift_alice_announces(attack_from_pnl(1.0))
        plain = sift(attack_from_pnl(1.0))
        assert announced.symbols == plain.symbols
        assert np.allclose(announced.p, plain.p, atol=1e-15)


class TestSerialization:
    def test_symbol_labels(self):
        assert EveSymbol(None, 0).label() == "(?,0)"
        assert EveSymbol(1, 1).label() == "(1,1)"
        assert EveSymbol(None, None).label() == "(?,?)"
