import decimal
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nskd import attack, info, polytope, rates
from nskd.attack import JointABE, alice_bob_stats, table_joint
from nskd.exceptions import DomainError, NotNormalized
from nskd.info import (
    binary_entropy,
    conditional_mutual_information,
    mutual_information,
)

SQRT2 = math.sqrt(2.0)
OPT_TOL = 1e-3  # agreement tolerance for the numerical intrinsic minimum


class TestEntropy:
    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_binary_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_binary_entropy_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_mutual_information_trivia(self):
        independent = np.full((2, 2), 0.25)
        assert mutual_information(independent) == pytest.approx(0.0, abs=1e-12)
        correlated = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(correlated) == pytest.approx(1.0, abs=1e-12)

    def test_mutual_information_symmetry(self, rng):
        joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
        assert mutual_information(joint) == pytest.approx(
            mutual_information(joint.T), abs=1e-12
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("e", [1e-200, 1e-290, 5e-324])
    def test_mutual_information_of_a_tiny_cell_is_finite(self, e):
        # the product of the two marginals, e * e, underflows to 0; the ratio is taken factor by factor
        value = mutual_information([[e, 0.0], [0.0, 1.0 - e]])
        assert math.isfinite(value) and abs(value - binary_entropy(e)) <= 1e-15

    def test_mutual_information_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            mutual_information(np.full((2, 2), 0.3))

    @pytest.mark.parametrize(
        "measure, ndim, shape",
        [
            (mutual_information, 2, (4,)),
            (mutual_information, 2, (2, 2, 2)),
            (conditional_mutual_information, 3, (2, 2)),
            (conditional_mutual_information, 3, (2, 2, 2, 2)),
        ],
        ids=["mi-1d", "mi-3d", "cmi-2d", "cmi-4d"],
    )
    def test_information_rejects_the_wrong_ndim(self, measure, ndim, shape):
        # each joint sums to 1, so only its dimension is wrong
        with pytest.raises(ValueError) as err:
            measure(np.full(shape, 1.0 / math.prod(shape)))
        assert type(err.value) is ValueError
        assert str(err.value) == f"{measure.__name__} expects a {ndim}-d joint"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_information_rejects_non_finite(self, bad):
        with pytest.raises(NotNormalized):
            mutual_information(np.full((2, 2), bad))
        with pytest.raises(NotNormalized):
            conditional_mutual_information(np.full((2, 2, 5), bad))

    def test_cmi_kernel_batches_over_leading_axes(self, rng):
        joints = rng.dirichlet(np.ones(20), size=(3, 4)).reshape(3, 4, 2, 2, 5)
        batched = info._cmi(joints)
        assert batched.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert batched[idx] == conditional_mutual_information(joints[idx])

    def test_eve_alice_information_from_joint(self):
        for p_nl in (0.1, 0.5, 0.9):
            joint = table_joint(p_nl)
            ae = joint.p.sum(axis=1)
            assert mutual_information(ae) == pytest.approx(
                (1 - p_nl) / 2, abs=1e-12
            )

    def test_cmi_of_table_joint_is_p_nl(self):
        for p_nl in (0.0, 0.4, 1.0):
            joint = table_joint(p_nl)
            assert conditional_mutual_information(joint.p) == pytest.approx(
                p_nl, abs=1e-12
            )


class TestOneWayRate:
    def test_perfect_key_at_one(self):
        assert rates.ck_rate(1.0) == 1.0

    def test_closed_form_matches_joint_route(self):
        for p_nl in np.linspace(0.0, 1.0, 101):
            direct = rates.ck_rate(float(p_nl))
            stats = alice_bob_stats(table_joint(float(p_nl)))
            assert direct == pytest.approx(stats.i_ab - stats.i_ae, abs=1e-12)

    def test_root_location(self):
        root = rates.oneway_threshold()
        assert root == pytest.approx(0.318, abs=1e-3)
        assert rates.ck_rate(root + 1e-6) > 0.0
        assert rates.ck_rate(root - 1e-6) < 0.0

    def test_positive_inside_quantum_region(self):
        assert rates.ck_rate(SQRT2 - 1.0) > 0.0

    @pytest.mark.parametrize("announce", [False, True], ids=["table", "announce"])
    def test_rates_equal_the_stats_route_bit_for_bit(self, announce):
        # oneway_rate and intrinsic_upper_bound take only the informations they read
        for p_nl in np.linspace(0.0, 1.0, 2001).tolist():
            joint = attack.sift_alice_announces(attack.attack_from_pnl(p_nl)) if announce else table_joint(p_nl)
            stats = alice_bob_stats(joint)
            assert rates.oneway_rate(joint) == stats.i_ab - stats.i_ae, p_nl
            assert rates.intrinsic_upper_bound(joint) == min(stats.i_ab, conditional_mutual_information(joint.p)), p_nl

    @pytest.mark.filterwarnings("error")
    def test_rates_of_a_tiny_cell_are_finite(self):
        # A = B = 1 and E = 2 together, with probability 1e-200: every pair of marginals
        # multiplies to 1e-400, which underflows to 0
        p = np.zeros((2, 2, 3))
        p[0, 0, :2] = 0.5
        p[1, 1, 2] = 1e-200
        joint = JointABE(p=p, symbols=(0, 1, 2))
        stats = alice_bob_stats(joint)
        for value in (stats.i_ab, stats.i_ae, stats.i_be):
            assert math.isfinite(value) and abs(value - binary_entropy(1e-200)) <= 1e-15
        assert math.isfinite(rates.oneway_rate(joint))
        assert math.isfinite(rates.intrinsic_upper_bound(joint))


def preprocess_joint(joint: JointABE, q: float) -> JointABE:
    """Oracle: Alice flips her bit with probability q before reconciliation."""
    p = (1.0 - q) * joint.p + q * joint.p[::-1, :, :]
    return JointABE(p=p, symbols=joint.symbols)


def single_round_rate(p_nl: float, q: float) -> float:
    """Pre-processed one-way rate as the length-1 distillation block."""
    return rates.ad_block_ensemble(p_nl, 1).rate(q)


class TestPreprocessing:
    def test_zero_noise_reduces_to_plain_rate(self):
        for p_nl in (0.2, 0.5, 0.9):
            assert single_round_rate(p_nl, 0.0) == pytest.approx(
                rates.ck_rate(p_nl), abs=1e-12
            )

    def test_half_noise_kills_everything(self):
        for p_nl in (0.1, 0.6):
            assert single_round_rate(p_nl, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rate_is_continuous_in_q(self):
        qs = np.linspace(0.0, 0.5, 201)
        vals = [single_round_rate(0.3, float(q)) for q in qs]
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.01

    def test_noise_helps_at_quarter(self):
        assert rates.ck_rate(0.25) < 0.0
        best = max(
            single_round_rate(0.25, float(q)) for q in np.arange(0.0, 0.5, 1e-3)
        )
        assert best > 0.0

    def test_block_matches_joint_route(self):
        for p_nl in np.linspace(0.0, 1.0, 41):
            joint = table_joint(float(p_nl))
            for q in np.linspace(0.0, 0.5, 41):
                oracle = rates.oneway_rate(preprocess_joint(joint, float(q)))
                assert single_round_rate(float(p_nl), float(q)) == pytest.approx(
                    oracle, abs=1e-12
                )

    @pytest.mark.parametrize("p_nl", [0.2, 0.236, 0.25, 0.4, 0.8])
    def test_optimum_beats_joint_route_grid(self, p_nl):
        joint = table_joint(p_nl)
        grid_best = max(
            rates.oneway_rate(preprocess_joint(joint, float(q)))
            for q in np.arange(0.0, 0.5, 1e-3)
        )
        assert rates.optimize_preprocessing(p_nl).rate >= grid_best - 1e-12

    def test_rejects_p_nl_outside_unit_interval(self):
        with pytest.raises(DomainError):
            rates.ad_block_ensemble(-0.1, 3).rate()
        with pytest.raises(DomainError):
            rates.optimize_preprocessing(1.5)

    def test_optimizer_beats_grid_start(self):
        for p_nl in (0.25, 0.4, 0.8):
            opt = rates.optimize_preprocessing(p_nl)
            assert opt.rate >= rates.ck_rate(p_nl) - 1e-12

    def test_no_noise_needed_at_perfect_correlation(self):
        opt = rates.optimize_preprocessing(1.0)
        assert opt.q_opt == 0.0
        assert opt.rate == pytest.approx(1.0, abs=1e-12)

    def test_optimized_rate_monotone_in_p_nl(self):
        values = [rates.optimize_preprocessing(float(p)).rate for p in np.linspace(0.1, 1.0, 19)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_threshold_value(self):
        threshold = rates.preprocessing_threshold()
        assert threshold == pytest.approx(0.236, abs=3e-3)
        assert rates.pnl_to_disturbance(threshold) == pytest.approx(0.063, abs=2e-3)


class TestDisturbance:
    def test_reference_points(self):
        assert rates.disturbance_to_pnl(0.0) == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert rates.disturbance_to_pnl(0.063) == pytest.approx(0.236, abs=1e-3)
        assert rates.disturbance_to_pnl(0.1136) == pytest.approx(0.093, abs=1e-3)

    def test_clamped_to_unit_interval(self):
        assert rates.disturbance_to_pnl(0.5) == 0.0
        assert rates.disturbance_to_pnl(0.3) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rates.disturbance_to_pnl(-0.01)
        with pytest.raises(DomainError):
            rates.pnl_to_disturbance(0.6)

    @given(st.floats(min_value=0.0, max_value=0.1464, allow_nan=False))
    @settings(max_examples=200)
    def test_round_trip(self, d):
        p = rates.disturbance_to_pnl(d)
        if p > 0.0:
            assert rates.pnl_to_disturbance(p) == pytest.approx(d, abs=1e-12)


class TestIntrinsicClosed:
    def test_endpoints(self):
        assert rates.intrinsic_closed(0.0) == pytest.approx(0.0, abs=1e-12)
        assert rates.intrinsic_closed(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_positive_on_fine_grid(self):
        for p in np.arange(1e-3, 1.0, 1e-3):
            assert rates.intrinsic_closed(float(p)) > 0.0

    def test_known_value(self):
        # h(3/4) - (3/8) h(1/3), spot-checked by hand
        expected = binary_entropy(0.75) - 0.375 * binary_entropy(1.0 / 3.0)
        assert rates.intrinsic_closed(0.5) == pytest.approx(expected, abs=1e-12)


def _announce(p_nl: float) -> JointABE:
    return attack.sift_alice_announces(attack.attack_from_pnl(p_nl))


def einsum_gradient(p_abe, w):
    """The einsum form of the gradient, the oracle for the fused kernel; channels w[..., e, z].

    The log-ratio is a sum of four logs, as in the kernel: a ratio of products would
    underflow to 0/0 once a channel's entries near 1e-200 make m(a,b,z) p(z) tiny.
    """
    m = p_abe @ w[..., None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(m) + np.log2(m.sum(axis=(-3, -2), keepdims=True))
        logs -= np.log2(m.sum(axis=-2, keepdims=True)) + np.log2(m.sum(axis=-3, keepdims=True))
    return np.einsum("abe,...abz->...ez", p_abe, np.where(m > 1e-300, logs, 0.0))


def fused_gradient(p_abe, w):
    """allocating_gradient on channels w[i, e, z] laid side by side, returned as [i, e, z]."""
    q = rates._MARGINALS @ p_abe.reshape(4, -1)
    side_by_side = allocating_gradient(q, np.concatenate(list(w), axis=1))
    return side_by_side.reshape(len(w[0]), len(w), -1).transpose(1, 0, 2)


def einsum_descent(p_abe, starts):
    """The einsum form of the descent, the oracle for rates._descend: every start's final channel."""
    w = (1.0 - rates.START_MIX) * starts + rates.START_MIX / starts.shape[-1]
    v = np.log(w)
    for _ in range(rates.EG_STEPS):
        v = v - rates.EG_STEP * einsum_gradient(p_abe, w)
        v = v - v.max(axis=-1, keepdims=True)
        w = np.exp(v)
        w /= w.sum(axis=-1, keepdims=True)
    return w


def allocating_gradient(q, w):
    """The gradient in rates._descend of channels w[e, z] side by side, each product a new array."""
    lin = q @ w
    empty = lin[:4] <= 1e-300
    log_ratio = rates._LOG_RATIO @ np.log2(np.maximum(lin, 1e-300))
    log_ratio[empty] = 0.0
    return q[:4].T @ log_ratio


def allocating_descent(q, starts):
    """The descent with a new array at every step, the bit-for-bit oracle for rates._descend.

    The kernel folds EG_STEP into its last product's matrix; scaling the gradient after the
    product rounds the same, since EG_STEP is a power of two.  Bitwise equality was verified
    with numpy 2.4.6 on scipy-openblas 0.3.31, where the matmul and dot products alike go to
    OpenBLAS dgemm.
    """
    w = ((1.0 - rates.START_MIX) * starts + rates.START_MIX / starts.shape[-1]).transpose(1, 2, 0).copy()
    v = np.log(w)
    for _ in range(rates.EG_STEPS):
        v -= rates.EG_STEP * allocating_gradient(q, w.reshape(len(w), -1)).reshape(w.shape)
        v -= v.max(axis=1, keepdims=True)
        w = np.exp(v)
        w /= w.sum(axis=1, keepdims=True)
    return w.transpose(2, 0, 1)


def exact_intrinsic(p_nl: float, announce: bool) -> float:
    """I(A:B down E) of the sifted joint: 1 - h(eps) on the definite symbols, the rest merged.

    Sifted table: ((1+p)/2)(1 - h(eps)), eps = (1-p)/(2(1+p)).  Announce variant:
    ((1+3p)/4)(1 - h(eps)), eps = (1-p)/(1+3p), and 0 at or below p = 1/5.
    """
    if announce and p_nl <= 0.2:
        return 0.0
    if announce:
        weight, eps = (1.0 + 3.0 * p_nl) / 4.0, (1.0 - p_nl) / (1.0 + 3.0 * p_nl)
    else:
        weight, eps = (1.0 + p_nl) / 2.0, (1.0 - p_nl) / (2.0 * (1.0 + p_nl))
    return weight * (1.0 + eps * math.log2(eps) + (1.0 - eps) * math.log2(1.0 - eps))


@st.composite
def sparse_joints(draw):
    """p(a, b, e) over 1 to 7 Eve symbols: Dirichlet(0.1) cells, about 30% of them zeroed."""
    k = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cells = rng.dirichlet(np.full(4 * k, 0.1))
    cells[rng.random(4 * k) < 0.3] = 0.0
    if not cells.any():
        cells[rng.integers(4 * k)] = 1.0
    return JointABE(p=(cells / cells.sum()).reshape(2, 2, k), symbols=tuple(range(k)))


# A sparse joint drawn by sparse_joints, to the digits recorded when restarts 1 returned
# 0.001635 on it against I(A:B) = 0.001467; the joint written here gave 0.001646 against 0.001478.
_TWO_SYMBOL_CELLS = np.array([[[1.1e-5, 0.93], [0.044, 0.0]], [[1.8e-5, 0.0229], [0.00167, 0.00133]]])
TWO_SYMBOL_JOINT = JointABE(p=_TWO_SYMBOL_CELLS / _TWO_SYMBOL_CELLS.sum(), symbols=(0, 1))


def _without_01_row(p_abe):
    """p(a, b, e) with its (a, b) = (0, 1) row zeroed and the rest renormalized."""
    p_abe = p_abe.copy()
    p_abe[0, 1] = 0.0
    return p_abe / p_abe.sum()


def partition_starts(p_abe, restarts, seed, m):
    """The start list with one deterministic map per partition: the first in np.ndindex order."""
    k = p_abe.shape[2]
    identity = np.zeros((k, m))
    identity[np.arange(k), np.arange(k) % m] = 1.0
    constant = np.zeros((k, m))
    constant[:, 0] = 1.0
    structured = [identity, constant, np.full((k, m), 1.0 / m)]
    if restarts > len(structured):
        firsts = {}
        for code in np.ndindex(*([m] * k)):
            # the partition of Eve's symbols: each symbol's block, blocks named by first use
            label = tuple(code.index(z) for z in code)
            firsts.setdefault(label, code)
        codes = np.array(list(firsts.values()))
        det = np.zeros((len(codes), k, m))
        np.put_along_axis(det, codes[:, :, None], 1.0, axis=2)
        structured.extend(det[np.argsort(info._cmi(p_abe @ det[:, None]), kind="stable")[:8]])
    rng = np.random.default_rng(seed)
    starts = structured[:restarts]
    starts += [rng.dirichlet(np.ones(m), size=k) for _ in range(restarts - len(starts))]
    return np.array(starts)


class TestIntrinsicNumeric:
    def test_identity_channel_is_an_upper_bound(self):
        joint = table_joint(0.5)
        value = rates.intrinsic_numeric(joint, restarts=2, seed=1)
        assert value <= conditional_mutual_information(joint.p) + 1e-9

    def test_never_exceeds_min_of_bounds(self):
        for p_nl in (0.2, 0.5, 0.8):
            joint = table_joint(p_nl)
            value = rates.intrinsic_numeric(joint, restarts=4, seed=0)
            assert value <= rates.intrinsic_upper_bound(joint) + OPT_TOL

    def test_nine_eve_symbols_are_searched(self):
        rng = np.random.default_rng(9)
        joint = JointABE(p=rng.dirichlet(np.ones(36)).reshape(2, 2, 9), symbols=tuple(range(9)))
        assert rates.intrinsic_search(joint, restarts=4).value <= rates.intrinsic_upper_bound(joint)

    def test_more_than_nine_eve_symbols_raise_before_the_search(self):
        # the Bell(10) partition maps alone would take 93 MB
        joint = JointABE(p=np.full((2, 2, 10), 1.0 / 40), symbols=tuple(range(10)))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as err:
                rates.intrinsic_search(joint, restarts=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "10 Eve symbols is above 9, the most a sift yields"
        assert peak < 2**20

    def test_monotone_in_restarts(self):
        joint = table_joint(0.6)
        v4 = rates.intrinsic_numeric(joint, restarts=4, seed=3)
        v12 = rates.intrinsic_numeric(joint, restarts=12, seed=3)
        assert v12 <= v4 + 1e-12

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError) as err:
            rates.intrinsic_search(table_joint(0.5), restarts=2, seed=-3)
        assert str(err.value) == "seed -3 must be at least 0"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda j: rates.intrinsic_search(j, restarts=2.5), "restarts 2.5 must be an integer"),
            (lambda j: rates.intrinsic_search(j, restarts=4, seed=1.5), "seed 1.5 must be an integer"),
            (lambda j: rates.curve_rows([0.01], restarts=2.5), "restarts 2.5 must be an integer"),
            (lambda j: rates.curve_rows([0.01], restarts=2, seed=2.0), "seed 2.0 must be an integer"),
        ],
        ids=["search-restarts", "search-seed", "rows-restarts", "rows-seed"],
    )
    def test_rejects_non_integer_restarts_and_seed(self, call, message):
        with pytest.raises(DomainError) as err:
            call(table_joint(0.5))
        assert str(err.value) == message

    def test_accepts_numpy_integers(self):
        joint = table_joint(0.5)
        expected = rates.intrinsic_search(joint, restarts=4, seed=1).value
        for kind in (np.int8, np.int64, np.uint32):
            assert rates.intrinsic_search(joint, restarts=kind(4), seed=kind(1)).value == expected

    def test_channel_validation(self):
        with pytest.raises(NotNormalized, match="sum to 0.9"):
            rates.Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(NotNormalized, match="sum to 1.1"):  # each row, not only the total
            rates.Channel(np.array([[0.6, 0.5], [0.5, 0.4]]))
        with pytest.raises(NotNormalized, match="nonnegative"):
            rates.Channel(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(NotNormalized, match="finite"):
            rates.Channel(np.full((5, 5), np.nan))
        with pytest.raises(ValueError, match="2-d"):
            rates.Channel(np.full(4, 0.25))
        good = rates.Channel(np.array([[0.5, 0.5], [0.0, 1.0]]))
        joint = table_joint(0.3)
        # mapping through a valid channel never goes below the found min
        value = rates.cmi_given_channel(
            joint, rates.Channel(np.eye(len(joint.symbols)))
        )
        assert value == pytest.approx(0.3, abs=1e-12)

    def test_channel_copies_its_input(self):
        matrix = np.eye(2)
        channel = rates.Channel(matrix)
        matrix[0] = [0.0, 1.0]  # the caller's array stays writable
        assert np.array_equal(channel.matrix, np.eye(2))
        assert not channel.matrix.flags.writeable

    def test_search_value_is_certified_by_its_channel(self):
        for joint in (table_joint(0.5), attack.sift_alice_announces(attack.attack_from_pnl(0.25))):
            result = rates.intrinsic_search(joint, restarts=12, seed=0)
            certified = rates.cmi_given_channel(joint, rates.Channel(result.channel))
            assert result.value == pytest.approx(certified, abs=1e-12)
            assert result.value == rates.intrinsic_numeric(joint, restarts=12, seed=0)
            assert 0 <= result.start < 12 and result.steps in (0, rates.EG_STEPS)

    @pytest.mark.parametrize("p_nl", [0.3, 0.7])
    def test_gradient_matches_central_differences(self, p_nl, rng):
        p_abe = table_joint(p_nl).p
        step = 1e-6
        for w in rng.dirichlet(np.ones(5), size=(5, 5)):
            numeric = np.zeros_like(w)
            for idx in np.ndindex(*w.shape):
                dw = np.zeros_like(w)
                dw[idx] = step
                numeric[idx] = (info._cmi(p_abe @ (w + dw)) - info._cmi(p_abe @ (w - dw))) / (2 * step)
            q = rates._MARGINALS @ p_abe.reshape(4, -1)
            assert np.allclose(allocating_gradient(q, w), numeric, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("joint", [table_joint(0.3), _announce(0.3)], ids=["table", "announce"])
    def test_fused_gradient_matches_the_einsum_oracle(self, joint, rng):
        w = rng.dirichlet(np.ones(5), size=(12, 5))
        assert np.allclose(fused_gradient(joint.p, w), einsum_gradient(joint.p, w), rtol=0.0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_fused_gradient_masks_empty_cells_like_the_oracle(self, rng):
        p_abe = table_joint(0.5).p
        w = rng.dirichlet(np.ones(5), size=(2, 5))
        w[0, :, 2] = 0.0  # output 2 is never used
        w[1, p_abe[0, 1] > 0, 4] = 0.0  # output 4 is empty on the support of (a, b) = (0, 1) alone
        w /= w.sum(axis=-1, keepdims=True)
        assert (p_abe @ w[1])[0, 1, 4] == 0.0 < (p_abe @ w[1])[..., 4].sum()
        fused = fused_gradient(p_abe, w)
        assert np.all(np.isfinite(fused))
        assert np.allclose(fused, einsum_gradient(p_abe, w), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "joint",
        [table_joint(0.1), table_joint(0.5), table_joint(0.9), _announce(0.15), _announce(0.3)],
        ids=["table-0.1", "table-0.5", "table-0.9", "announce-0.15", "announce-0.3"],
    )
    def test_fused_descent_is_no_worse_than_the_einsum_loop(self, joint):
        # the oracle loop keeps the mixed constant start frozen, an exact
        # stationary point; the fused rounding may let it descend further
        p_abe = joint.p
        starts = rates._starts(p_abe, 12, 0)
        reference = einsum_descent(p_abe, starts)
        fused = rates._descend(rates._MARGINALS @ p_abe.reshape(4, -1), starts)
        assert np.all(info._cmi(p_abe @ fused[:, None]) <= info._cmi(p_abe @ reference[:, None]) + 1e-12)
        candidates = np.concatenate([starts, reference])
        best = candidates[np.argmin(info._cmi(p_abe @ candidates[:, None]))]
        oracle = rates.cmi_given_channel(joint, rates.Channel(best))
        assert abs(rates.intrinsic_numeric(joint, restarts=12, seed=0) - oracle) <= 1e-15

    @pytest.mark.parametrize("joint", [table_joint(0.5), _announce(0.3)], ids=["table", "announce"])
    def test_each_start_descends_the_same_alone_or_in_a_batch(self, joint):
        # exact, so a larger restart count only adds candidates to the search
        p_abe = joint.p
        q = rates._MARGINALS @ p_abe.reshape(4, -1)
        starts = rates._starts(p_abe, 12, 0)
        batch = rates._descend(q, starts)
        for i in range(len(starts)):
            assert np.array_equal(rates._descend(q, starts[i : i + 1])[0], batch[i])

    @pytest.mark.parametrize("restarts", [1, 12, 64])
    @pytest.mark.parametrize(
        "p_abe",
        [f(p_nl).p for f in (table_joint, _announce) for p_nl in (0.05, 0.25, 0.5, 0.75, 0.95)]
        + [np.array([0.3, 0.1, 0.05, 0.15, 0.1, 0.05, 0.05, 0.2]).reshape(2, 2, 2)]
        + [_without_01_row(table_joint(0.5).p)]
        # one to seven Eve symbols, one output each
        + [np.random.default_rng(k).dirichlet(np.ones(4 * k)).reshape(2, 2, k) for k in (1, 3, 4, 6, 7)],
        ids=[f"{v}-{p_nl}" for v in ("table", "announce") for p_nl in (0.05, 0.25, 0.5, 0.75, 0.95)]
        + ["two-eve-symbols", "no-01-row"]
        + [f"dirichlet-{k}-eve-symbols" for k in (1, 3, 4, 6, 7)],
    )
    def test_descent_equals_the_allocating_loop_bit_for_bit(self, p_abe, restarts):
        starts = rates._starts(p_abe, restarts, 0)
        q = rates._MARGINALS @ p_abe.reshape(4, -1)
        assert np.array_equal(rates._descend(q, starts), allocating_descent(q, starts))

    def test_a_step_allocates_nothing(self, monkeypatch):
        # the work arrays are allocated once per descent, so 990 more steps hold no more memory
        # (the broadcasting ufuncs take numpy's iterator workspace, about 3.5 KB, within each call)
        p_abe = table_joint(0.5).p
        q = rates._MARGINALS @ p_abe.reshape(4, -1)
        starts = rates._starts(p_abe, 12, 0)
        rates._descend(q, starts)  # numpy's first-call caches are filled before tracing
        peaks = []
        for steps in (10, 1000):
            monkeypatch.setattr(rates, "EG_STEPS", steps)
            tracemalloc.start()
            try:
                rates._descend(q, starts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) - min(peaks) <= 1024, peaks

    @pytest.mark.parametrize("step", [rates.EG_STEP, 8.0], ids=["eg-step", "step-8"])
    @given(joint=st.one_of(sparse_joints(), st.floats(min_value=0.05, max_value=0.95).map(_announce)))
    @example(joint=_announce(0.55))
    @example(joint=TWO_SYMBOL_JOINT)
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_search_is_finite_and_bounded(self, step, joint):
        # the max-shift keeps a largest entry of 1 in every row, so even step 8 stays finite;
        # the multiplicative update W exp(-8 G) underflowed whole rows to 0/0 on the announce
        # variant at p_nl 0.49 to 0.58.  The constant channel, of value I(A:B), is scored at
        # every restart count: one start is the identity alone, whose descent stopped above
        # I(A:B) on TWO_SYMBOL_JOINT.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rates, "EG_STEP", step)
            for restarts in (1, 12):
                result = rates.intrinsic_search(joint, restarts=restarts, seed=0)
                assert np.all(np.isfinite(result.channel)) and np.all(result.channel >= 0.0)
                assert np.allclose(result.channel.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
                for start in rates._starts(joint.p, restarts, 0):
                    assert 0.0 <= result.value <= rates.cmi_given_channel(joint, rates.Channel(start))
                assert result.value <= rates.intrinsic_upper_bound(joint) + 1e-12

    def test_one_restart_never_exceeds_the_bound(self):
        # sifted joints of random attacks; with I(A:B) taken from ab_marginal's sum the bound
        # fell below the constant channel's value, which the search scores, on 7 of them
        rng = np.random.default_rng(2024)
        for _ in range(4000):
            w = rng.dirichlet(np.full(24, 0.3))
            strategy = attack.FullAttack(p_nl=math.fsum(w[16:]), components=tuple(zip(polytope.vertices(), w.tolist())))
            joint = attack.sift(strategy)
            assert rates.intrinsic_search(joint, restarts=1).value <= rates.intrinsic_upper_bound(joint)

    @pytest.mark.parametrize("announce", [False, True], ids=["table", "announce"])
    def test_search_reaches_the_exact_minimum_of_both_sifted_joints(self, announce):
        # the closed forms of the merge channels, exact I(A:B down E) of the paper's joints
        for p_nl in np.linspace(0.05, 0.95, 19).tolist():
            joint = _announce(p_nl) if announce else table_joint(p_nl)
            exact = exact_intrinsic(p_nl, announce)
            assert abs(rates.intrinsic_numeric(joint, restarts=12, seed=0) - exact) <= 1e-15, p_nl
            assert rates.intrinsic_numeric(joint, restarts=1, seed=0) >= exact - 1e-15, p_nl

    @pytest.mark.parametrize("restarts", [1, 4, 12, 64])
    @pytest.mark.parametrize("joint", [table_joint(0.5), _announce(0.3)], ids=["table", "announce"])
    def test_starts_score_one_map_per_partition(self, joint, restarts):
        starts = rates._starts(joint.p, restarts, 7)
        assert np.array_equal(starts, partition_starts(joint.p, restarts, 7, 5))

    def test_partitions_are_the_bell_numbers(self):
        # 1, 2, 5, 15, 52 partitions of 1..5 symbols
        assert [len(rates._partitions(k)) for k in range(1, 6)] == [1, 2, 5, 15, 52]

    @pytest.mark.parametrize("p_nl", np.linspace(0.05, 0.95, 19).tolist())
    def test_sandwich_between_key_rate_and_merge_channel(self, p_nl):
        # S <= I(A:B down E) (Maurer & Wolf 1999); the channel that keeps
        # (0,0) and (1,1) and merges the three e_a = ? symbols bounds it above
        joint = table_joint(p_nl)
        merge = np.array([[s.e_a == 0, s.e_a == 1, s.e_a is None] for s in joint.symbols], dtype=float)
        upper = rates.cmi_given_channel(joint, rates.Channel(merge))
        closed = (1 + p_nl) / 2 * (1 - binary_entropy((1 - p_nl) / (2 * (1 + p_nl))))
        assert upper == pytest.approx(closed, abs=1e-12)
        value = rates.intrinsic_numeric(joint, restarts=12)
        assert rates.optimize_preprocessing(p_nl).rate - 1e-9 <= value <= upper + 1e-9

    @pytest.mark.parametrize("p_nl", [0.05, 0.1, 0.15, 0.19, 0.21])
    def test_announce_variant_vanishes_up_to_one_fifth(self, p_nl):
        joint = attack.sift_alice_announces(attack.attack_from_pnl(p_nl))
        value = rates.intrinsic_numeric(joint, restarts=12)
        if p_nl < 0.2:
            assert value <= 1e-9
        else:
            assert value > 1e-4

    def test_vanishes_at_zero_nonlocality(self):
        value = rates.intrinsic_numeric(table_joint(0.0), restarts=8, seed=0)
        assert value <= 1e-6

    def test_announce_variant_threshold_behavior(self):
        below = rates.intrinsic_numeric(
            attack.sift_alice_announces(attack.attack_from_pnl(0.15)),
            restarts=16,
            seed=0,
        )
        above = rates.intrinsic_numeric(
            attack.sift_alice_announces(attack.attack_from_pnl(0.25)),
            restarts=16,
            seed=0,
        )
        assert below <= 1e-3
        assert above >= 5e-3

    def test_matches_reference_curve_at_unit_nonlocality(self):
        value = rates.intrinsic_numeric(table_joint(1.0), restarts=4, seed=0)
        assert value == pytest.approx(1.0, abs=1e-6)


def brute_force_block(p_nl: float, n: int):
    """Exhaustive oracle for the distillation block statistics.

    Enumerates every outcome/symbol string, Alice's mask bit and the
    public messages, then reconstructs Eve's posterior from scratch.
    """
    joint = table_joint(p_nl)
    cells = [
        ((a, b, joint.symbols[k]), float(pr))
        for (a, b, k), pr in np.ndenumerate(joint.p)
        if pr > 0
    ]
    p_accept = 0.0
    bob_error = 0.0
    views = {}
    for r in (0, 1):
        for combo in itertools.product(cells, repeat=n):
            prob = 0.5
            for _, w in combo:
                prob *= w
            outcomes = [c[0] for c in combo]
            errors = {a ^ b for a, b, _ in outcomes}
            if len(errors) != 1:
                continue
            sigma = errors.pop()
            p_accept += prob
            if sigma == 1:
                bob_error += prob
            key = (
                tuple(sym for _, _, sym in outcomes),
                tuple(a ^ r for a, _, _ in outcomes),
            )
            slot = views.setdefault(key, [0.0, 0.0])
            slot[r] += prob
    bob_error /= p_accept
    equivocation = 0.0
    for w0, w1 in views.values():
        total = w0 + w1
        equivocation += total * binary_entropy(w0 / total)
    equivocation /= p_accept
    eve_info = 1.0 - equivocation
    rate = (1.0 - binary_entropy(bob_error)) - eve_info
    return p_accept, bob_error, eve_info, rate


class TestAdvantageDistillation:
    @pytest.mark.parametrize("p_nl", [0.15, 0.3, 0.6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_type_count_engine_matches_brute_force(self, p_nl, n):
        ens = rates.ad_block_ensemble(p_nl, n)
        p_acc, bob_err, eve_info, rate = brute_force_block(p_nl, n)
        assert ens.p_accept == pytest.approx(p_acc, abs=1e-12)
        assert ens.bob_error == pytest.approx(bob_err, abs=1e-12)
        assert ens.eve_information() == pytest.approx(eve_info, abs=1e-12)
        assert ens.rate() == pytest.approx(rate, abs=1e-12)

    def test_negative_for_every_length_up_to_one_fifth(self):
        for p_nl in np.linspace(0.0, rates.AD_LIMIT, 201):
            for n in range(1, 301):
                assert rates.ad_block_ensemble(float(p_nl), n).rate() < 0.0, (p_nl, n)

    def test_per_n_zeros_approach_one_fifth_from_above(self):
        # the exact zeros, from decimal_block_rate; h without log1p once put the n = 30 zero at 0.2227
        zeros = dict(rates.ad_threshold(300).per_n_curve)
        picked = [zeros[n] for n in (30, 100, 300)]
        assert picked[0] > picked[1] > picked[2] > rates.AD_LIMIT
        assert picked == pytest.approx([0.2228277, 0.2086237, 0.2034351], abs=1e-7)

    def test_noise_cannot_lower_the_limit(self):
        # a negative margin up to 1/5 means no noise q makes any block rate positive there
        for p_nl in np.linspace(0.0, rates.AD_LIMIT, 41)[1:]:
            for n in range(1, 512):
                assert rates.ad_block_ensemble(float(p_nl), n).noise_margin() < 0.0, (p_nl, n)

    def test_long_block_underflow_raises(self):
        # every length above AD_MAX_N is refused at every p_nl, also those (629 at 0.02) that do not underflow
        for n in (629, 630, 2700):
            with pytest.raises(DomainError) as err:
                rates.ad_block_ensemble(0.02, n)
            assert str(err.value) == f"block length {n} is above 511: a longer block underflows at p_nl = 1/5"

    def test_no_block_up_to_ad_max_n_underflows(self):
        # one of (u/s)^n and (p_nl/s)^n is at least 4^-n at every p_nl, and both are 4^-n at 1/5
        def both_underflow(p_nl, n):
            u = (1.0 - p_nl) / 4.0
            s = 1.0 - u
            odds, blank = (np.array([pow(x, n) for x in ratio.tolist()]) for ratio in (u / s, p_nl / s))
            return (odds < sys.float_info.min) & (blank < sys.float_info.min)

        assert rates.AD_MAX_N == 511
        near_fifth = [0.2]
        for direction in (0.0, 1.0):
            p = 0.2
            for _ in range(1000):
                p = math.nextafter(p, direction)
                near_fifth.append(p)
        for p_nl in (np.linspace(0.0, 1.0, 100_001), np.array(near_fifth)):
            assert not both_underflow(p_nl, rates.AD_MAX_N).any()
        assert both_underflow(np.array([0.2]), rates.AD_MAX_N + 1).all()

    @pytest.mark.parametrize("n_max", [512, 513, 700, 3000, 10**6])
    @pytest.mark.parametrize(
        "threshold", [rates.ad_threshold, rates.ad_preprocessing_threshold], ids=["plain", "preprocessing"]
    )
    def test_thresholds_refuse_n_max_above_the_bound(self, threshold, n_max):
        # refused before any search, so neither time nor memory grows with n_max
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as raised:
                threshold(n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"n_max {n_max} is above 511: a longer block underflows at p_nl = 1/5"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "entry, name",
        [
            (lambda n: rates.ad_block_ensemble(0.3, n), "block length"),
            (lambda n: rates.ad_with_preprocessing(0.3, n), "n_max"),
            (rates.ad_threshold, "n_max"),
            (rates.ad_preprocessing_threshold, "n_max"),
        ],
        ids=["ensemble", "with_preprocessing", "plain", "preprocessing"],
    )
    def test_every_entry_refuses_one_block_past_the_bound(self, entry, name):
        # one domain for the whole layer, checked before any block is built
        n = rates.AD_MAX_N + 1
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as raised:
                entry(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"{name} 512 is above 511: a longer block underflows at p_nl = 1/5"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "call",
        [
            lambda: rates.ad_threshold(30.0),
            lambda: rates.ad_preprocessing_threshold(np.float64(3.7)),
            lambda: rates.ad_with_preprocessing(0.5, 2.5),
        ],
        ids=["plain", "preprocessing", "with_preprocessing"],
    )
    def test_rejects_n_max_that_is_not_an_integer(self, call):
        # range() once raised a bare TypeError here
        with pytest.raises(DomainError, match="must be an integer"):
            call()

    def test_accepts_numpy_integer_n_max(self):
        assert rates.ad_threshold(np.int64(30)) == rates.ad_threshold(30)
        assert rates.ad_with_preprocessing(0.5, np.int32(3)) == rates.ad_with_preprocessing(0.5, 3)
        # n_max + 1 once wrapped for an int8, and the empty loop gave best_rate -inf
        assert rates.ad_with_preprocessing(0.5, np.int8(127)) == rates.ad_with_preprocessing(0.5, 127)
        assert rates.ad_threshold(np.int8(127)) == rates.ad_threshold(127)

    def test_noise_rate_is_continuous_at_tiny_q(self):
        # eps ~ 2e-7 >> q: a Taylor series in eps around q fails here (it gave 31.6 bits at q = 1e-15)
        ens = rates.ad_block_ensemble(0.6, 7)
        for q in (1e-300, 1e-15, 1e-12, 1e-9):
            assert ens.rate(q) == pytest.approx(ens.rate(0.0), abs=1e-5)
        assert 0.0 < rates.ad_with_preprocessing(0.6, 12)["best_rate"] < 1.0

    def test_single_round_reduces_to_oneway(self):
        for p_nl in (0.2, 0.318, 0.5):
            assert rates.ad_block_ensemble(p_nl, 1).rate() == pytest.approx(
                rates.ck_rate(p_nl), abs=1e-12
            )
        zeros = dict(rates.ad_threshold(2).per_n_curve)
        assert zeros[1] == pytest.approx(0.318, abs=1e-3)

    def test_positive_block_exists_above_one_fifth(self):
        assert any(rates.ad_block_ensemble(0.3, n).rate() > 0.0 for n in range(1, 31))

    def test_threshold_extrapolation(self):
        result = rates.ad_threshold(30)
        assert result.threshold_estimate == pytest.approx(0.2, abs=0.02)
        tail = [z for n, z in result.per_n_curve if n >= 15]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_acceptance_probability_formula(self):
        # the accepted mass is (1-eps)^n + eps^n with eps the error rate
        for p_nl, n in ((0.4, 5), (0.7, 9)):
            eps = (1 - p_nl) / 4
            ens = rates.ad_block_ensemble(p_nl, n)
            assert ens.p_accept == pytest.approx(
                (1 - eps) ** n + eps**n, abs=1e-12
            )

    def test_preprocessing_composition_helps(self):
        # at p_nl = 0.21 plain distillation fails for every n <= 30 but
        # the noisy composition recovers a positive rate
        assert all(rates.ad_block_ensemble(0.21, n).rate() <= 0.0 for n in range(1, 31))
        combined = rates.ad_with_preprocessing(0.21, 30)
        assert combined["best_rate"] > 0.0
        assert 0.0 < combined["q_used"] < 0.5

    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "block length 0 must be at least 1"),
            (-3, "block length -3 must be at least 1"),
            (2.5, "block length 2.5 must be an integer"),
            (2.0, "block length 2.0 must be an integer"),
            (np.float64(3.0), "block length np.float64(3.0) must be an integer"),
        ],
        ids=["0", "-3", "2.5", "2.0", "3.0"],
    )
    def test_rejects_block_length_that_is_not_a_positive_integer(self, n, message):
        # a real n once gave a block rate of 0.195 at n = 2.5, the rate of no block
        with pytest.raises(DomainError) as err:
            rates.ad_block_ensemble(0.5, n).rate()
        assert str(err.value) == message

    def test_accepts_numpy_integer_block_length(self):
        assert rates.ad_block_ensemble(0.5, np.int64(3)).rate() == rates.ad_block_ensemble(0.5, 3).rate()

    def test_preprocessing_rejects_empty_block_range(self):
        # no block is evaluated for n_max < 1, so there is no rate to report
        for p_nl, n_max in ((0.3, 0), (1.7, 0), (0.3, -1)):
            with pytest.raises(DomainError) as err:
                rates.ad_with_preprocessing(p_nl, n_max)
            assert str(err.value) == f"n_max {n_max} must be at least 1"
        with pytest.raises(DomainError, match="outside"):
            rates.ad_with_preprocessing(1.7, 1)

    def test_preprocessing_threshold_below_plain(self):
        plain = rates.ad_threshold(20).threshold_estimate
        combined = rates.ad_preprocessing_threshold(20).threshold_estimate
        assert combined < plain

    def test_zero_noise_slice_is_plain_distillation(self):
        # the q = 0 slice of the noisy machinery is exactly the plain rate, blind - h(eps), bit for
        # bit; rate(0) returns _entropy_deficit, the sign that ad_threshold bisects
        rng = np.random.default_rng(2005)
        p_values = [0.0, 0.2, 0.2 + 1e-16, 0.25, 0.35, 0.5, 0.6, math.sqrt(5.0) - 2.0, 1.0]
        for p_nl in [*p_values, *rng.random(2000).tolist()]:
            for n in (1, 2, 3, 4, 7, 9, 30, 100, 511):
                ens = rates.ad_block_ensemble(p_nl, n)
                oracle = -binary_entropy(ens.bob_error) + ens.blind
                assert ens.rate(0.0).hex() == oracle.hex(), (p_nl, n)
        # and searching over q can only improve on the plain optimum
        result = rates.ad_with_preprocessing(0.35, 8)
        plain_best = max(rates.ad_block_ensemble(0.35, n).rate() for n in range(1, 9))
        assert result["best_rate"] >= plain_best - 1e-12

    def test_block_length_one_with_noise_matches_preprocessing(self):
        # composing noise with a length-1 block is exactly the one-way
        # preprocessed rate, so the zeros must coincide
        combined = rates.ad_preprocessing_threshold(2)
        zeros = dict(combined.per_n_curve)
        assert rates.preprocessing_threshold() == math.sqrt(5.0) - 2.0
        assert zeros[1] == pytest.approx(rates.preprocessing_threshold(), abs=1e-6)


class TestNoiseMargin:
    """noise_margin() > 0 exactly when some noise q makes the block rate positive."""

    def test_threshold_matches_the_noise_search(self):
        # the noise search finds no positive rate at the double below each margin zero and
        # one just above it; within about 1e-11 of a zero the best rate is below the rate
        # formula's rounding, so the two zero curves are not compared bit for bit
        exact = rates.ad_preprocessing_threshold(30)
        for n, z in exact.per_n_curve:
            below = rates.ad_block_ensemble(math.nextafter(z, 0.0), n)
            assert rates._best_noise_rate(below) == (0.5, 0.0), n
            for delta in (1e-10, 1e-6, 1e-3):
                assert rates._best_noise_rate(rates.ad_block_ensemble(z + delta, n))[1] > 0.0, (n, delta)
        assert exact.threshold_estimate == 0.19994694747161373

    def test_flat_top_keeps_half_noise(self):
        # a margin just above 0 whose slope at the double below 1/2 computes to 0: the sign
        # search for the slope's zero has no bracket (``_sign_change`` returns None), so q is 1/2
        ens = rates.ad_block_ensemble(0.23795278302649883, 3)
        assert ens.noise_margin() == 6.938893903907228e-18
        assert rates._noise_slope(ens, math.nextafter(0.5, 0.0)) == 0.0
        assert rates._noise_slope(ens, sys.float_info.min) > 0.0
        assert rates._best_noise_rate(ens) == (0.5, 0.0)

    @pytest.mark.parametrize("delta", [1e-9, 1e-7])
    def test_noise_helps_just_above_the_threshold(self, delta):
        # the rate is positive only within a few sqrt(delta) of q = 1/2
        opt = rates.optimize_preprocessing(math.sqrt(5.0) - 2.0 + delta)
        assert opt.rate > 0.0
        assert 0.499 < opt.q_opt < 0.5

    @pytest.mark.parametrize("delta", [-1e-9, -1e-7, -0.1])
    def test_no_noise_helps_at_or_below_the_threshold(self, delta):
        opt = rates.optimize_preprocessing(math.sqrt(5.0) - 2.0 + delta)
        assert (opt.q_opt, opt.rate) == (0.5, 0.0)

    def test_rate_is_unimodal_in_noise(self):
        # so bisecting the sign of the slope finds the best q: diff(rate) changes sign at most once
        qs = np.linspace(0.0, 0.5, 201)
        for p_nl in np.linspace(0.0, 1.0, 21):
            for n in range(1, 31):
                ens = rates.ad_block_ensemble(float(p_nl), n)
                steps = np.sign(np.diff([ens.rate(float(q)) for q in qs]))
                steps = steps[steps != 0]
                assert np.count_nonzero(steps[1:] != steps[:-1]) <= 1, (p_nl, n)

    def test_margin_bounds_every_noisy_rate(self):
        qs = np.linspace(0.0, 0.4999, 201)
        for p_nl in np.linspace(0.0, 1.0, 21):
            for n in range(1, 31):
                ens = rates.ad_block_ensemble(float(p_nl), n)
                margin = ens.noise_margin()
                for q in qs:
                    bound = margin * (rates._one_minus_h(float(q)) if q > 0.0 else 1.0)  # 1 - h(0) = 1
                    assert ens.rate(float(q)) <= bound + 1e-15, (p_nl, n, q)

    @pytest.mark.parametrize("p_nl, n", [(0.1, 1), (0.236, 1), (0.3, 2), (0.6, 5), (0.9, 3)])
    def test_margin_is_the_limit_at_half_noise(self, p_nl, n):
        ens = rates.ad_block_ensemble(p_nl, n)
        q = 0.5 - 1e-4
        assert ens.rate(q) / rates._one_minus_h(q) == pytest.approx(ens.noise_margin(), abs=1e-8)


def decimal_zero(fn, lo: str, hi: str) -> decimal.Decimal:
    """Bisect the sign change of fn on [lo, hi] at 50 significant digits."""
    with decimal.localcontext(decimal.Context(prec=50)):
        lo, hi = decimal.Decimal(lo), decimal.Decimal(hi)
        while hi - lo > decimal.Decimal("1e-45"):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if fn(mid) > 0 else (mid, hi)
        return hi


def decimal_ck_rate(p_nl: decimal.Decimal) -> decimal.Decimal:
    """1 - h(u) - 2u with u = (1 - p_nl)/4, at the context's precision."""
    u = (1 - p_nl) / 4
    return 1 + (u * u.ln() + (1 - u) * (1 - u).ln()) / decimal.Decimal(2).ln() - 2 * u


def decimal_ensemble(p_nl: float, n: int) -> tuple:
    """(eps, blind) of the length-n block at the double p_nl, at the context's precision."""
    p = decimal.Decimal(p_nl)
    u = (1 - p) / 4
    s = 1 - u
    odds = (u / s) ** n
    return odds / (1 + odds), (2 * odds + (p / s) ** n) / (1 + odds)


def decimal_block_rate(p_nl: float, n: int) -> decimal.Decimal:
    """blind - h(eps), the plain block rate; -(1 - eps) ln(1 - eps) is its series where 1 - eps loses eps."""
    eps, blind = decimal_ensemble(p_nl, n)
    if eps == 0:
        return blind
    if eps < decimal.Decimal("1e-15"):
        second = eps - eps**2 / 2 - eps**3 / 6  # eps - sum_k eps^k / (k (k - 1))
    else:
        second = -(1 - eps) * (1 - eps).ln()
    return blind - (second - eps * eps.ln()) / decimal.Decimal(2).ln()


def decimal_noise_margin(p_nl: float, n: int) -> decimal.Decimal:
    eps, blind = decimal_ensemble(p_nl, n)
    return blind - 4 * eps * (1 - eps)


def doubles_away(x: float, k: int) -> float:
    """The double k steps above x (below for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


class TestExactSearch:
    """Each zero is the smallest double with a positive sign test, and q_opt sits on the slope's sign change."""

    @pytest.mark.parametrize(
        "threshold, sign",
        [
            (rates.ad_threshold, lambda p, n: rates.ad_block_ensemble(p, n).rate()),
            (rates.ad_preprocessing_threshold, lambda p, n: rates.ad_block_ensemble(p, n).noise_margin()),
        ],
        ids=["plain", "preprocessing"],
    )
    def test_each_zero_is_the_smallest_positive_double(self, threshold, sign):
        for n, z in threshold(511).per_n_curve:
            assert sign(math.nextafter(z, 0.0), n) <= 0.0 < sign(z, n), n

    @pytest.mark.parametrize("n_max", [2, 30, 511])
    @pytest.mark.parametrize(
        "threshold, half, sign",
        [
            (rates.ad_threshold, 0, rates.AdBlockEnsemble.rate),
            (rates.ad_preprocessing_threshold, 1, rates.AdBlockEnsemble.noise_margin),
        ],
        ids=["plain", "preprocessing"],
    )
    def test_lockstep_search_equals_one_search_per_length(self, threshold, half, sign, n_max):
        # the scalar oracle: each n bisected alone by _sign_change on the scalar ensemble; both
        # the single-rate entry and its half of the joint search must meet it
        zeros = tuple(
            (n, rates._sign_change(lambda p: sign(rates.ad_block_ensemble(p, n)), 0.02, 0.95))
            for n in range(1, n_max + 1)
        )
        for result in (threshold(n_max), rates.ad_thresholds(n_max)[half]):
            assert result.per_n_curve == zeros
            assert result.threshold_estimate == rates._extrapolate_zeros(zeros)

    def test_lockstep_bisection_equals_one_bisection_per_bracket(self):
        # monotone increasing sign functions, each <= 0 at lo and > 0 at hi, closing at different steps
        brackets = [
            (lambda p: p - 0.3, 0.0, 1.0),
            (lambda p: p**3 - 0.125, 0.1, 0.9),
            (lambda p: math.log(p) + 1.0, 0.01, 2.0),
            (lambda p: math.tanh(p - 1e-9), -1.0, 1e-3),
        ]
        fns = [fn for fn, _, _ in brackets]

        def sign_fn(p):
            return np.array([fn(x) for fn, x in zip(fns, p.tolist())])

        lo = np.array([b[1] for b in brackets])
        hi = np.array([b[2] for b in brackets])
        found = rates._sign_changes(sign_fn, lo, hi)
        assert found.tolist() == [rates._sign_change(fn, a, b) for fn, a, b in brackets]

    def test_every_block_length_changes_sign_inside_the_bracket(self):
        # the proof in ad_thresholds: both sign quantities are <= 0 at 0.02 and > 0 at 0.95; the least
        # at 0.95 is 2.56e-9 (n = 511) and the greatest at 0.02 is -1.4e-247, far from rounding
        ns = np.arange(1, rates.AD_MAX_N + 1)
        for p_nl, positive in [(0.02, False), (0.95, True)]:
            u = (1.0 - p_nl) / 4.0
            s = 1.0 - u
            eps, blind = rates._eps_blind(*(np.array([pow(x, n) for n in ns.tolist()]) for x in (u / s, p_nl / s)))
            for sign in (rates._entropy_deficit(eps, blind), rates._noise_margin(eps, blind)):
                assert ((sign > 0.0) == positive).all(), p_nl

    def test_each_zero_is_the_only_sign_change_within_64_doubles(self):
        # why any valid bracket closes on the same zero: the search's own sign formula, at the 129
        # doubles z - 64 ... z + 64, is <= 0 below z and > 0 from z on, for every n
        offsets = np.arange(-64, 65)
        exponents = np.repeat(np.arange(1, rates.AD_MAX_N + 1), offsets.size).tolist()
        for result, rate in zip(rates.ad_thresholds(rates.AD_MAX_N), (rates._entropy_deficit, rates._noise_margin)):
            z = np.array([zero for _, zero in result.per_n_curve])
            p = (z.view(np.int64)[:, None] + offsets).view(float)
            u = (1.0 - p) / 4.0
            s = 1.0 - u
            ratios = (u / s).ravel().tolist(), (p / s).ravel().tolist()
            odds, blank = (np.array(list(map(math.pow, x, exponents))).reshape(p.shape) for x in ratios)
            up = rate(*rates._eps_blind(odds, blank)) > 0.0
            assert (up == (offsets >= 0)).all(), np.flatnonzero((up != (offsets >= 0)).any(axis=1)) + 1

    @pytest.mark.parametrize("n_max", [2, 30, 511])
    def test_search_takes_at_most_20_evaluations(self, n_max, monkeypatch):
        # each secant step evaluates _log_gap once and each sign step _eps_blind once; halving
        # every bracket from [0.02, 0.95] needs 55 sign steps
        steps = []

        def counted(name):
            fn = getattr(rates, name)

            def call(*args):
                steps.append(name)
                return fn(*args)

            return call

        for name in ("_log_gap", "_eps_blind"):
            monkeypatch.setattr(rates, name, counted(name))
        rates.ad_thresholds(n_max)
        assert len(steps) <= 20, steps

    @pytest.mark.parametrize(
        "threshold, exact, ulps",
        [(rates.ad_threshold, decimal_block_rate, 2), (rates.ad_preprocessing_threshold, decimal_noise_margin, 3)],
        ids=["plain", "preprocessing"],
    )
    def test_every_zero_is_within_ulps_of_the_exact_zero(self, threshold, exact, ulps):
        # the exact zero is the smallest double whose exact sign quantity is positive; that
        # quantity increases through it, so these two signs put it within ulps doubles of z.
        # The pre-processing zero at n = 1 is sqrt(5) - 2 as rounded, 3 doubles above the exact one.
        zeros = dict(threshold(511).per_n_curve)
        with decimal.localcontext(decimal.Context(prec=60)):
            for n in [*range(1, 31), 50, 100, 200, 300, 400, 511]:
                z = zeros[n]
                assert exact(doubles_away(z, -ulps - 1), n) <= 0 < exact(doubles_away(z, ulps), n), n

    def test_oneway_zero_is_the_smallest_positive_double(self):
        z = rates.oneway_threshold()
        assert rates.ck_rate(math.nextafter(z, 0.0)) <= 0.0 < rates.ck_rate(z)

    def test_two_routes_to_the_oneway_zero_agree(self):
        # ck_rate is the closed form of the length-1 block rate, so both are zeros of one function
        assert rates.oneway_threshold() == dict(rates.ad_threshold(2).per_n_curve)[1]

    def test_single_round_preprocessing_zero_is_sqrt5_minus_2(self):
        assert dict(rates.ad_preprocessing_threshold(2).per_n_curve)[1] == math.sqrt(5.0) - 2.0

    def test_zeros_agree_with_fifty_digits(self):
        with decimal.localcontext(decimal.Context(prec=50)):
            sqrt5_minus_2 = decimal.Decimal(5).sqrt() - 2
        oneway = decimal_zero(decimal_ck_rate, "0.1", "0.9")
        pre = dict(rates.ad_preprocessing_threshold(2).per_n_curve)[1]
        assert abs(decimal.Decimal(pre) - sqrt5_minus_2) < decimal.Decimal("2e-16")
        assert abs(decimal.Decimal(rates.oneway_threshold()) - oneway) < decimal.Decimal("2e-16")

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_best_noise_sits_on_the_slope_sign_change(self, n):
        for p_nl in np.linspace(0.25, 0.95, 21):
            ens = rates.ad_block_ensemble(float(p_nl), n)
            q = rates._best_noise_rate(ens)[0]
            assert 0.0 < q < 0.5, (p_nl, n)
            assert rates._noise_slope(ens, q) >= 0.0 > rates._noise_slope(ens, math.nextafter(q, 1.0)), (p_nl, n)

    def test_no_noise_is_best_for_the_pr_box(self):
        assert rates.optimize_preprocessing(1.0).q_opt == 0.0

    def test_best_noise_beats_a_grid(self):
        qs = np.linspace(0.0, 0.5, 201)
        for p_nl in np.linspace(0.0, 1.0, 21):
            for n in range(1, 31):
                ens = rates.ad_block_ensemble(float(p_nl), n)
                best_on_grid = max(ens.rate(float(q)) for q in qs)
                assert rates._best_noise_rate(ens)[1] >= best_on_grid - 1e-15, (p_nl, n)


class TestRateReport:
    def test_report_fields_and_invariants(self):
        d = rates.pnl_to_disturbance(0.35)
        row = rates.curve_rows([d], restarts=4, seed=0)[0]
        assert row["rate_q0"] <= row["rate_opt"] + 1e-9
        assert row["intrinsic_numeric"] <= row["intrinsic_closed"] + OPT_TOL
        assert 0.0 <= row["q_opt"] <= 0.5
        assert row["p_nl"] == pytest.approx(0.35, abs=1e-12)

    @pytest.mark.parametrize(
        "restarts, seed, message",
        [(0, 0, "restarts 0 must be at least 1"), (1, -1, "seed -1 must be at least 0")],
    )
    def test_curve_rows_checks_restarts_and_seed_before_any_row(self, restarts, seed, message):
        def grid():
            raise AssertionError("a row was computed")
            yield 0.0

        with pytest.raises(DomainError) as err:
            rates.curve_rows(grid(), restarts=restarts, seed=seed)
        assert str(err.value) == message

    def test_curve_rows_columns(self):
        rows = rates.curve_rows([0.0, 0.05], restarts=2, seed=0)
        assert list(rows[0]) == list(rates.CURVE_COLUMNS)
        assert rows[0]["p_nl"] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert rows[0]["rate_q0"] == pytest.approx(
            rates.ck_rate(SQRT2 - 1.0), abs=1e-12
        )
