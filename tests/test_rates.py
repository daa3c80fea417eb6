import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nskd import attack, info, rates
from nskd.attack import JointABE, alice_bob_stats, table_joint
from nskd.exceptions import DomainError, NotNormalized
from nskd.info import (
    binary_entropy,
    conditional_mutual_information,
    mutual_information,
)

SQRT2 = math.sqrt(2.0)


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

    def test_mutual_information_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            mutual_information(np.full((2, 2), 0.3))

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


def preprocess_joint(joint: JointABE, q: float) -> JointABE:
    """Oracle: Alice flips her bit with probability q before reconciliation."""
    p = (1.0 - q) * joint.p + q * joint.p[::-1, :, :]
    return JointABE(p=p, symbols=joint.symbols, p_nl=joint.p_nl)


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
            rates.ad_rate(-0.1, 3)
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
    """The einsum form of the gradient, the oracle for the fused kernel; channels w[..., e, z]."""
    return np.einsum("abe,...abz->...ez", p_abe, info._cmi_log_ratio(p_abe @ w[..., None, :, :]))


def fused_gradient(p_abe, w):
    """rates._cmi_gradient on channels w[i, e, z] laid side by side, returned as [i, e, z]."""
    q = rates._MARGINALS @ p_abe.reshape(4, -1)
    side_by_side = rates._cmi_gradient(q, np.concatenate(list(w), axis=1))
    return side_by_side.reshape(len(w[0]), len(w), -1).transpose(1, 0, 2)


def einsum_descent(p_abe, starts):
    """The einsum form of the descent, the oracle for rates._descend: every start's final channel."""
    w = (1.0 - rates.START_MIX) * starts + rates.START_MIX / starts.shape[-1]
    for _ in range(rates.EG_STEPS):
        grad = einsum_gradient(p_abe, w)
        w = w * np.exp(-rates.EG_STEP * (grad - grad.min(axis=-1, keepdims=True)))
        w /= w.sum(axis=-1, keepdims=True)
    return w


def ndindex_starts(p_abe, restarts, seed, m):
    """The start list with the deterministic maps enumerated by np.ndindex."""
    k = p_abe.shape[2]
    identity = np.zeros((k, m))
    identity[np.arange(k), np.arange(k) % m] = 1.0
    constant = np.zeros((k, m))
    constant[:, 0] = 1.0
    structured = [identity, constant, np.full((k, m), 1.0 / m)]
    if restarts > len(structured):
        codes = np.array(list(np.ndindex(*([m] * k))))
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
            assert value <= rates.intrinsic_upper_bound(joint) + rates.OPT_TOL

    def test_monotone_in_restarts(self):
        joint = table_joint(0.6)
        v4 = rates.intrinsic_numeric(joint, restarts=4, seed=3)
        v12 = rates.intrinsic_numeric(joint, restarts=12, seed=3)
        assert v12 <= v4 + 1e-12

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            rates.Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            rates.Channel(np.full((5, 5), np.nan))
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
            assert np.allclose(rates._cmi_gradient(q, w), numeric, rtol=0.0, atol=1e-6)

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
        starts = rates._starts(p_abe, 12, 0, 5)
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
        starts = rates._starts(p_abe, 12, 0, 5)
        batch = rates._descend(q, starts)
        for i in range(len(starts)):
            assert np.array_equal(rates._descend(q, starts[i : i + 1])[0], batch[i])

    @pytest.mark.parametrize("restarts", [1, 4, 12, 64])
    def test_starts_enumerate_maps_in_ndindex_order(self, restarts):
        p_abe = _announce(0.3).p
        assert np.array_equal(rates._starts(p_abe, restarts, 7, 5), ndindex_starts(p_abe, restarts, 7, 5))

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
                assert rates.ad_rate(float(p_nl), n) < 0.0, (p_nl, n)

    def test_per_n_zeros_approach_one_fifth_from_above(self):
        zeros = dict(rates.ad_threshold(300).per_n_curve)
        picked = [zeros[n] for n in (30, 100, 300)]
        assert picked[0] > picked[1] > picked[2] > rates.AD_LIMIT
        assert picked == pytest.approx([0.2227, 0.2086, 0.2034], abs=1e-4)

    def test_noise_cannot_lower_the_limit(self):
        # a negative margin up to 1/5 means no noise q makes any block rate positive there
        for p_nl in np.linspace(0.0, rates.AD_LIMIT, 41)[1:]:
            for n in range(1, 512):
                assert rates.ad_block_ensemble(float(p_nl), n).noise_margin() < 0.0, (p_nl, n)

    def test_long_block_underflow_raises(self):
        # odds (u/s)^n and (p_nl/s)^n both fall below the smallest double at n = 630
        assert rates.ad_block_ensemble(0.02, 629).rate() < 0.0
        for n in (630, 2700):
            with pytest.raises(DomainError, match=f"block length {n} at p_nl 0.02"):
                rates.ad_block_ensemble(0.02, n)

    def test_noise_rate_is_continuous_at_tiny_q(self):
        # eps ~ 2e-7 >> q: a Taylor series in eps around q fails here (it gave 31.6 bits at q = 1e-15)
        ens = rates.ad_block_ensemble(0.6, 7)
        for q in (1e-300, 1e-15, 1e-12, 1e-9):
            assert ens.rate(q) == pytest.approx(ens.rate(0.0), abs=1e-5)
        assert 0.0 < rates.ad_with_preprocessing(0.6, 12)["best_rate"] < 1.0

    def test_single_round_reduces_to_oneway(self):
        for p_nl in (0.2, 0.318, 0.5):
            assert rates.ad_rate(p_nl, 1) == pytest.approx(
                rates.ck_rate(p_nl), abs=1e-12
            )
        zeros = dict(rates.ad_threshold(2).per_n_curve)
        assert zeros[1] == pytest.approx(0.318, abs=1e-3)

    def test_positive_block_exists_above_one_fifth(self):
        assert any(rates.ad_rate(0.3, n) > 0.0 for n in range(1, 31))

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
        assert all(rates.ad_rate(0.21, n) <= 0.0 for n in range(1, 31))
        combined = rates.ad_with_preprocessing(0.21, 30)
        assert combined["best_rate_sign"] == 1
        assert 0.0 < combined["q_used"] < 0.5

    def test_preprocessing_rejects_empty_block_range(self):
        # no block is evaluated for n_max < 1, so there is no rate to report
        for p_nl, n_max in ((0.3, 0), (1.7, 0), (0.3, -1)):
            with pytest.raises(DomainError, match="n_max must be at least 1"):
                rates.ad_with_preprocessing(p_nl, n_max)
        with pytest.raises(DomainError, match="outside"):
            rates.ad_with_preprocessing(1.7, 1)

    def test_preprocessing_threshold_below_plain(self):
        plain = rates.ad_threshold(20).threshold_estimate
        combined = rates.ad_preprocessing_threshold(20).threshold_estimate
        assert combined < plain

    def test_zero_noise_slice_is_plain_distillation(self):
        # the q = 0 slice of the noisy machinery is exactly the plain rate
        for p_nl in (0.25, 0.35, 0.6):
            for n in (1, 4, 9):
                ens = rates.ad_block_ensemble(p_nl, n)
                assert ens.rate(0.0) == pytest.approx(
                    rates.ad_rate(p_nl, n), abs=1e-15
                )
        # and searching over q can only improve on the plain optimum
        result = rates.ad_with_preprocessing(0.35, 8)
        plain_best = max(rates.ad_rate(0.35, n) for n in range(1, 9))
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
        exact = rates.ad_preprocessing_threshold(30)
        search = rates._block_zeros(30, lambda e: rates._best_noise_rate(e)[1])
        assert search.per_n_curve == exact.per_n_curve
        assert exact.threshold_estimate == 0.19994692792228388

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
        # so one golden-section search finds the best q: diff(rate) changes sign at most once
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
                    bound = margin * rates._one_minus_h(float(q))
                    assert ens.rate(float(q)) <= bound + 1e-15, (p_nl, n, q)

    @pytest.mark.parametrize("p_nl, n", [(0.1, 1), (0.236, 1), (0.3, 2), (0.6, 5), (0.9, 3)])
    def test_margin_is_the_limit_at_half_noise(self, p_nl, n):
        ens = rates.ad_block_ensemble(p_nl, n)
        q = 0.5 - 1e-4
        assert ens.rate(q) / rates._one_minus_h(q) == pytest.approx(ens.noise_margin(), abs=1e-8)


class TestRateReport:
    def test_report_fields_and_invariants(self):
        d = rates.pnl_to_disturbance(0.35)
        row = rates.curve_rows([d], restarts=4, seed=0)[0]
        assert row["rate_q0"] <= row["rate_opt"] + 1e-9
        assert row["intrinsic_numeric"] <= row["intrinsic_closed"] + rates.OPT_TOL
        assert 0.0 <= row["q_opt"] <= 0.5
        assert row["p_nl"] == pytest.approx(0.35, abs=1e-12)

    def test_curve_rows_columns(self):
        rows = rates.curve_rows([0.0, 0.05], restarts=2, seed=0)
        assert list(rows[0]) == list(rates.CURVE_COLUMNS)
        assert rows[0]["p_nl"] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert rows[0]["rate_q0"] == pytest.approx(
            rates.ck_rate(SQRT2 - 1.0), abs=1e-12
        )
