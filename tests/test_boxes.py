import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nskd import boxes
from nskd.boxes import (
    Box,
    bb84_box,
    chsh,
    chsh_symmetrized,
    isotropic,
    twirl_to_isotropic,
    validate,
    werner_box,
)
from nskd.exceptions import (
    DomainError,
    NegativeProbability,
    NotNormalized,
    Signaling,
)
from nskd.polytope import min_nonlocal_decomposition
from tests.conftest import random_mixture_box

SQRT2 = math.sqrt(2.0)


class TestValidate:
    def test_accepts_pr_box(self):
        box = validate(isotropic(1.0).table.ravel())
        assert box.table[0, 0, 0, 0] == 0.5

    def test_accepts_uniform(self):
        box = validate(np.full(16, 0.25))
        assert np.allclose(box.table, 0.25)

    def test_rejects_signaling(self):
        # Alice's a=0 marginal is 1 for y=0 but 1/2 for y=1
        table = np.zeros((2, 2, 2, 2))
        table[:, :, :, :] = 0.25
        table[0, 0] = [[0.5, 0.5], [0.0, 0.0]]
        with pytest.raises(Signaling) as err:
            validate(table.ravel())
        assert err.value.party == "alice"
        assert err.value.setting == 0

    def test_rejects_bob_side_signaling(self):
        # at (x, y) = (1, 1) only, mass moves from b = 0 to b = 1: Bob's y = 1 marginal then
        # depends on x, while Alice's marginals, the sums and the signs stay valid
        table = np.full((2, 2, 2, 2), 0.25)
        table[1, 1] = [[0.1, 0.4], [0.1, 0.4]]
        with pytest.raises(Signaling) as err:
            validate(table.ravel())
        assert err.value.party == "bob"
        assert err.value.setting == 1
        assert err.value.deviation == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        values = np.full(16, 0.25)
        values[5] = bad
        with pytest.raises(ValueError) as err:
            validate(values)
        assert str(err.value) == "box entries must be finite"

    def test_rejects_unnormalized(self):
        values = np.full(16, 0.25)
        values[0] = 0.45  # the x=0, y=0 block sums to 1.2
        with pytest.raises(NotNormalized) as err:
            validate(values)
        assert str(err.value) == "P(.,.|x=0,y=0) sums to 1.2"

    def test_rejects_negative(self):
        values = np.full(16, 0.25)
        values[0] = -0.01
        values[3] = 0.51
        with pytest.raises(NegativeProbability):
            validate(values)

    def test_tolerance_is_honored(self):
        values = np.full(16, 0.25)
        values[0] += 5e-10
        box = validate(values)  # inside PROB_TOL
        assert box is not None
        values[0] += 1e-9  # now 1.5e-9 off, beyond it
        with pytest.raises(NotNormalized):
            validate(values)

    @pytest.mark.parametrize("values", [{"a": 1}, [{"a": 1}] + [0.0625] * 15, [10**400] + [0] * 15])
    def test_rejects_non_numeric_entries(self, values):
        with pytest.raises(ValueError, match="box entries must be numbers"):
            validate(values)

    def test_isotropic_grid_validates(self):
        for v in np.linspace(0.0, 1.0, 1001):
            validate(isotropic(float(v)).table.ravel())


class TestIsotropic:
    def test_endpoints(self):
        pr = isotropic(1.0)
        assert pr.table[0, 0, 0, 0] == 0.5
        assert pr.table[0, 0, 0, 1] == 0.0
        assert np.allclose(isotropic(0.0).table, 0.25)

    def test_local_bound_at_half(self):
        assert chsh(isotropic(0.5)) == pytest.approx(3.0, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            isotropic(1.2)
        with pytest.raises(DomainError):
            isotropic(-0.1)


class TestChsh:
    def test_pr_box_reaches_four(self):
        assert chsh(isotropic(1.0)) == 4.0

    @pytest.mark.parametrize(
        "v,expected",
        [(0.0, 2.0), (0.25, 2.5), (0.5, 3.0), (1.0 / SQRT2, 2.0 + SQRT2), (1.0, 4.0)],
    )
    def test_isotropic_line(self, v, expected):
        assert chsh(isotropic(v)) == pytest.approx(expected, abs=1e-12)

    def test_isotropic_identity_on_grid(self):
        for v in np.linspace(0.0, 1.0, 101):
            assert chsh(isotropic(float(v))) == pytest.approx(
                2.0 * (1.0 + v), abs=1e-12
            )

    def test_oracle_direct_sum(self, rng):
        # independent arithmetic straight from the definition, for all 8 relabelings
        box = random_mixture_box(rng)
        scores = boxes._chsh_scores(box)
        for g, (alpha, beta, gamma) in enumerate(itertools.product((0, 1), repeat=3)):
            total = 0.0
            for x, y, a, b in itertools.product((0, 1), repeat=4):
                win = (a ^ b) == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
                if win:
                    total += box.table[x, y, a, b]
            assert scores[g] == pytest.approx(total, abs=1e-12)
        assert chsh(box) == scores[0]

    def test_symmetrized_at_least_canonical(self, rng):
        for _ in range(50):
            box = random_mixture_box(rng)
            assert chsh_symmetrized(box) >= chsh(box) - 1e-12

    def test_symmetrized_is_the_decomposition_score(self, rng):
        for _ in range(300):
            box = random_mixture_box(rng)
            assert chsh_symmetrized(box) == min_nonlocal_decomposition(box).chsh


class TestWerner:
    def _born_rule_box(self, w: float) -> np.ndarray:
        """Two-qubit cross-check from first principles."""
        ket = np.zeros(4)
        ket[0] = ket[3] = 1.0 / SQRT2
        rho = w * np.outer(ket, ket) + (1.0 - w) * np.eye(4) / 4.0
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        alice_ops = [sz, sx]
        bob_ops = [(sz + sx) / SQRT2, (sz - sx) / SQRT2]
        table = np.empty((2, 2, 2, 2))
        eye = np.eye(2)
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            pa = (eye + (-1) ** a * alice_ops[x]) / 2.0
            pb = (eye + (-1) ** b * bob_ops[y]) / 2.0
            table[x, y, a, b] = float(np.trace(rho @ np.kron(pa, pb)).real)
        return table

    @pytest.mark.parametrize("w", [0.0, 0.3, SQRT2 * 0.6, 0.9, 1.0])
    def test_born_rule_agreement(self, w):
        assert np.allclose(werner_box(w).table, self._born_rule_box(w), atol=1e-12)

    def test_maximal_violation(self):
        assert chsh(werner_box(1.0)) == pytest.approx(2.0 + SQRT2, abs=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(werner_box(0.0).table, isotropic(0.0).table, rtol=0.0, atol=1e-12)

    def test_visibility_correspondence(self):
        w = SQRT2 * 0.6
        assert np.allclose(werner_box(w).table, isotropic(0.6).table, rtol=0.0, atol=1e-15)

    def test_tsirelson_consistency(self):
        for w in np.linspace(0.0, 1.0, 51):
            box = validate(werner_box(float(w)).table.ravel())
            assert chsh(box) <= 2.0 + SQRT2 + 1e-12


class TestBB84:
    def test_cells(self):
        box = bb84_box()
        assert box.table[0, 0, 0, 0] == 0.5
        assert box.table[0, 1, 0, 1] == 0.25
        assert box.table[1, 1, 0, 1] == 0.0

    def test_no_signaling(self):
        validate(bb84_box().table.ravel())

    def test_canonical_chsh_is_two(self):
        # matched-basis agreement sits in only two of the four terms
        assert chsh(bb84_box()) == pytest.approx(2.0, abs=1e-15)

    def test_relabeled_chsh_saturates_local_bound(self):
        assert chsh_symmetrized(bb84_box()) == pytest.approx(3.0, abs=1e-15)


def _group_average(box: Box) -> np.ndarray:
    """Reference twirl: the mean of the 8 images under the CHSH-preserving relabelings.

    Relabeling (s, t, c) maps x -> x^s, y -> y^t, a -> a ^ (t & x) ^ c and
    b -> b ^ (s & y) ^ (s & t) ^ c; the 8 images are summed as a balanced
    pairwise tree in (s, t, c) order.
    """
    flat = box.table.ravel()
    images = np.empty((8, 16))
    for k, (s, t, c) in enumerate(itertools.product((0, 1), repeat=3)):
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            dst = (((x ^ s) * 2 + (y ^ t)) * 2 + (a ^ (t & x) ^ c)) * 2 + (b ^ (s & y) ^ (s & t) ^ c)
            images[k, dst] = flat[((x * 2 + y) * 2 + a) * 2 + b]
    while images.shape[0] > 1:
        images = images[0::2] + images[1::2]
    return (images[0] / 8.0).reshape(2, 2, 2, 2)


class TestTwirl:
    def test_matches_group_average_bitwise(self, rng):
        for _ in range(300):
            box = random_mixture_box(rng)
            assert np.array_equal(twirl_to_isotropic(box).table, _group_average(box))
        for box in (bb84_box(), isotropic(0.3)):
            assert np.array_equal(twirl_to_isotropic(box).table, _group_average(box))

    def test_fixed_point_is_bitwise(self):
        for v in (0.0, 0.3, 0.5, 0.77, 1.0):
            iso = isotropic(v)
            assert np.array_equal(twirl_to_isotropic(iso).table, iso.table)

    def test_pr_vertex_maps_to_itself(self):
        assert np.allclose(twirl_to_isotropic(isotropic(1.0)).table, isotropic(1.0).table, rtol=0.0, atol=1e-12)

    def test_facet_vertex_maps_to_half(self):
        from nskd import polytope

        for vertex in polytope.vertices():
            if vertex.on_chsh_facet:
                twirled = twirl_to_isotropic(vertex.box)
                assert np.allclose(twirled.table, isotropic(0.5).table, rtol=0.0, atol=1e-15)

    def test_output_is_isotropic(self, rng):
        for _ in range(100):
            box = random_mixture_box(rng)
            twirled = twirl_to_isotropic(box)
            v = chsh(box) / 2.0 - 1.0
            # entries depend only on the winning-condition indicator
            for x, y, a, b in itertools.product((0, 1), repeat=4):
                expected = v * 0.5 + (1 - v) * 0.25 if (a ^ b) == (x & y) else (1 - v) * 0.25
                assert twirled.table[x, y, a, b] == pytest.approx(expected, abs=1e-12)

    def test_chsh_preserved_on_thousand_boxes(self, rng):
        worst = 0.0
        for _ in range(1000):
            box = random_mixture_box(rng)
            drift = abs(chsh(twirl_to_isotropic(box)) - chsh(box))
            worst = max(worst, drift)
        assert worst < 1e-12


class TestSerialization:
    def test_json_round_trip(self):
        box = isotropic(0.8)
        again = Box.from_json(box.to_json())
        assert np.allclose(again.table, box.table, rtol=0.0, atol=1e-15)

    def test_json_order_is_row_major(self):
        import json

        box = bb84_box()
        flat = json.loads(box.to_json())["p"]
        assert flat == list(box.table.ravel())

    def test_csv_round_trip(self):
        box = werner_box(0.73)
        again = Box.from_csv(box.to_csv())
        assert np.allclose(again.table, box.table, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("text", ['{"q": 1}', "[0.25]"])
    def test_json_without_p_key_says_so(self, text):
        with pytest.raises(ValueError, match='"p" key'):
            Box.from_json(text)

    def test_csv_short_data_row_raises_value_error(self):
        header = ",".join(boxes.CSV_HEADER)
        with pytest.raises(ValueError, match="shorter than its header"):
            Box.from_csv(header + "\n0.25,0.25\n")

    def test_csv_missing_column_names_it(self):
        header = ",".join(boxes.CSV_HEADER[:-1] + ("extra",))
        with pytest.raises(ValueError) as err:
            Box.from_csv(header + "\n" + ",".join(["0.25"] * 16) + "\n")
        assert str(err.value) == "box CSV missing column 'a1b1x1y1'"

    def test_csv_header_labels(self):
        header = boxes.CSV_HEADER
        assert header[0] == "a0b0x0y0"
        assert header[-1] == "a1b1x1y1"
        assert len(set(header)) == 16


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_isotropic_always_validates(v):
    validate(isotropic(v).table.ravel())


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_chsh_isotropic_linear(v):
    assert chsh(isotropic(v)) == pytest.approx(2.0 * (1.0 + v), abs=1e-9)
