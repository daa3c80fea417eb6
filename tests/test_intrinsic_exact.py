"""The exact intrinsic information of both sifted joints and its certificate.

``rates.intrinsic_exact`` brackets I(A:B down E) between the value of an
explicit channel and dual . p_E.  These tests check that the bracket is
closed to rounding, that the search never finds a lower value, and that
the dual is feasible on the simplex's vertices, its edges, the point
where it is tight and seeded Dirichlet samples.  Sampling is evidence,
not a proof of feasibility.
"""

import math

import numpy as np
import pytest

from nskd import attack, info, rates
from nskd.exceptions import DomainError
from tests.conftest import edge_pnls

POINTS = [k / 20 for k in range(21)]  # p_nl = 0, 0.05, ..., 0.95, 1
CONCENTRATIONS = (0.05, 0.2, 1.0, 5.0)
SAMPLES = 5000  # per concentration: 20 000 Dirichlet points per p_nl
EDGE_STEPS = 65
RAY_STEPS = 33
ROUNDING = 1e-15

CASES = [(p, False) for p in POINTS] + [(p, True) for p in POINTS]
IDS = [f"{'announce' if a else 'table'}-{p}" for p, a in CASES]


def sifted(p_nl, announce):
    strategy = attack.attack_from_pnl(p_nl)
    return attack.sift_alice_announces(strategy) if announce else attack.sift(strategy)


def mixtures(cert, joint, rng):
    """Points pi of the simplex of Eve's symbols: vertices, edges, rays from the tangent point, Dirichlet draws.

    The tangent point is the merged symbols' own mixture, where c . pi = g(pi);
    a dual that is not the tangent there is violated close to it, on a ray.
    """
    k = len(joint.symbols)
    vertices = np.eye(k)
    t = np.linspace(0.0, 1.0, EDGE_STEPS)[:, None]
    points = [vertices]
    for i in range(k):
        for j in range(i + 1, k):
            points.append(t * vertices[i] + (1.0 - t) * vertices[j])
    merged = joint.p.sum(axis=(0, 1)) * cert.channel[:, 2]
    tangent = merged / merged.sum()
    s = np.geomspace(1e-4, 1.0, RAY_STEPS)[:, None]
    points += [tangent + s * (vertex - tangent) for vertex in vertices]
    points += [rng.dirichlet(np.full(k, a), size=SAMPLES) for a in CONCENTRATIONS]
    return np.concatenate(points)


@pytest.mark.parametrize("p_nl, announce", CASES, ids=IDS)
def test_certificate_brackets_the_search(p_nl, announce):
    cert = rates.intrinsic_exact(p_nl, announce)
    joint = sifted(p_nl, announce)
    assert cert.value - cert.lower <= ROUNDING
    assert cert.value == rates.cmi_given_channel(joint, rates.Channel(cert.channel))
    assert cert.lower == float(cert.dual @ joint.p.sum(axis=(0, 1)))
    found = rates.intrinsic_search(joint, restarts=12, seed=0).value
    assert found >= cert.lower - 1e-12
    assert abs(found - cert.value) <= ROUNDING


@pytest.mark.parametrize("p_nl, announce", CASES, ids=IDS)
def test_dual_is_feasible_on_samples_of_the_simplex(p_nl, announce):
    # c . pi <= g(pi) = I(A:B) under sum_e pi_e p(a,b|e) at every sampled pi
    cert = rates.intrinsic_exact(p_nl, announce)
    joint = sifted(p_nl, announce)
    pi = mixtures(cert, joint, np.random.default_rng([round(p_nl * 20), int(announce)]))
    assert len(pi) >= 4 * SAMPLES
    conditional = (joint.p / joint.p.sum(axis=(0, 1))).reshape(4, -1)
    g = info._cmi((pi @ conditional.T).reshape(-1, 2, 2, 1))
    gap = g - pi @ cert.dual
    assert gap.min() >= -ROUNDING, pi[np.argmin(gap)]


def test_the_table_dual_is_the_tangent_in_symbol_order():
    # (0, 0, c2 + f'/2, c2 + f'/2, c2) over (0,0), (1,1), (?,0), (?,1), (?,?)
    cert = rates.intrinsic_exact(0.5)
    eps = 0.5 / 3.0
    slope = np.log2(eps / (1.0 - eps))
    c2 = 1.0 - info._entropy(eps) - eps * slope
    assert np.allclose(cert.dual, [0.0, 0.0, c2 + slope / 2, c2 + slope / 2, c2], rtol=0.0, atol=1e-15)
    assert np.array_equal(cert.channel, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1], [0, 0, 1]])


def test_the_announce_channel_mixes_the_kept_symbols_below_one_fifth():
    # lambda = (1 - 5p)/(3(1 - p)) of (0,0) and of (1,1) goes to the merged output; the dual is 0
    cert = rates.intrinsic_exact(0.1, announce=True)
    symbols = sifted(0.1, True).symbols
    lam = 0.5 / 2.7
    assert [s.label() for s in symbols] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(?,?)"]
    expected = [[1.0 - lam, 0.0, lam], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0 - lam, lam], [0.0, 0.0, 1.0]]
    assert np.allclose(cert.channel, expected, rtol=0.0, atol=1e-15)
    assert not cert.dual.any() and cert.lower == 0.0 <= cert.value <= ROUNDING


@pytest.mark.parametrize("announce", [False, True], ids=["table", "announce"])
def test_a_single_symbol_at_unit_nonlocality(announce):
    # eps = 0 makes f' = -inf; the dual is the value itself, so nothing computes 0 * inf
    cert = rates.intrinsic_exact(1.0, announce)
    assert cert.channel.shape == (1, 3)
    assert cert.value == cert.lower == 1.0
    assert cert.dual.tolist() == [1.0]


def sift_route(p_nl, announce):
    """(value, lower, channel, dual) by the route before the table was written from its cells.

    The sift, ``Channel`` and ``cmi_given_channel``, and the dual as it was: a symbol of zero
    mass divides 0 by 0 and makes its coefficient and ``lower`` NaN.
    """
    joint = sifted(p_nl, announce)
    if announce:
        eps = (1.0 - p_nl) / (1.0 + 3.0 * p_nl)
        fraction = (1.0 - 5.0 * p_nl) / (3.0 * (1.0 - p_nl)) if p_nl < 0.2 else 0.0
    else:
        eps, fraction = (1.0 - p_nl) / (2.0 * (1.0 + p_nl)), 0.0
    channel = np.zeros((len(joint.symbols), 3))
    kept = np.array([s.e_a is not None and s.e_a == s.e_b for s in joint.symbols])
    for row, symbol, keep in zip(channel, joint.symbols, kept):
        if keep:
            row[symbol.e_a], row[2] = 1.0 - fraction, fraction
        else:
            row[2] = 1.0
    value = rates.cmi_given_channel(joint, rates.Channel(channel))
    p_e = joint.p.sum(axis=(0, 1))
    if eps == 0.0:
        dual = np.array([value])
    elif fraction > 0.0:
        dual = np.zeros(len(p_e))
    else:
        slope = (math.log(eps) - math.log1p(-eps)) * rates.LOG2E
        with np.errstate(invalid="ignore"):
            errors = (joint.p[0, 1] + joint.p[1, 0]) / p_e
        dual = np.where(kept, 0.0, 1.0 - info._entropy(eps) + slope * (errors - eps))
    return value, float(dual @ p_e), channel, dual


@pytest.mark.parametrize("announce", [False, True], ids=["table", "announce"])
def test_every_field_equals_the_sift_route(announce):
    for p_nl in edge_pnls():
        cert = rates.intrinsic_exact(p_nl, announce)
        value, lower, channel, dual = sift_route(p_nl, announce)
        zero_mass = np.isnan(dual)  # only where the old route divided 0 by 0
        assert cert.value == value, p_nl
        assert cert.channel.shape == channel.shape and cert.channel.tobytes() == channel.tobytes(), p_nl
        assert cert.dual.tobytes() == np.where(zero_mass, 0.0, dual).tobytes(), p_nl
        assert cert.lower == (0.0 if zero_mass.any() else lower), p_nl
        if zero_mass.any():
            assert math.isnan(lower) and not announce and p_nl < 2.5e-323


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p_nl", [5e-324, 1e-323, 1.5e-323, 2e-323])
def test_a_symbol_of_zero_mass_gets_a_zero_coefficient(p_nl):
    # the PR box's eighths underflow to 0 while (?,?) stays; lower was 0/0 = NaN
    cert = rates.intrinsic_exact(p_nl)
    p_e = attack.table_joint(p_nl).p.sum(axis=(0, 1))
    assert p_e[-1] == 0.0 and cert.dual[-1] == 0.0
    assert cert.lower == 0.0 <= cert.value


@pytest.mark.parametrize("p_nl", [-0.1, 1.5, float("nan")])
def test_rejects_p_nl_outside_the_unit_interval(p_nl):
    with pytest.raises(DomainError, match="outside"):
        rates.intrinsic_exact(p_nl)


def refuse_checks(monkeypatch):
    """Make every normalization check raise: no table the package writes itself may reach one."""

    def refuse(*args, **kwargs):
        raise AssertionError("a table the package wrote itself was re-checked")

    monkeypatch.setattr(info, "_check_normalized", refuse)


def test_the_sweep_checks_no_table_it_writes(monkeypatch):
    # the d values of nskd rates at its default --grid 0.005
    d_values = np.clip(np.arange(0.0, rates.MAX_DISTURBANCE + 0.0025, 0.005), 0.0, rates.MAX_DISTURBANCE)
    expected = rates.curve_rows(d_values)
    refuse_checks(monkeypatch)
    assert rates.curve_rows(d_values) == expected


@pytest.mark.parametrize("announce", [False, True], ids=["table", "announce"])
def test_the_exact_certificate_checks_no_table_it_writes(announce, monkeypatch):
    expected = [rates.intrinsic_exact(p_nl, announce).value for p_nl in edge_pnls()]
    refuse_checks(monkeypatch)
    assert [rates.intrinsic_exact(p_nl, announce).value for p_nl in edge_pnls()] == expected
