"""Secrecy quantifiers for the sifted attack statistics.

Everything here consumes the five-symbol joint distribution produced by
the attack module and is expressed in bits per sifted symbol.  The
module covers:

* the one-way key-rate bound I(A:B) - I(A:E) and its closed form,
* Alice's Bernoulli pre-processing, evaluated exactly as the length-1
  distillation block, its rate unimodal in the noise; every threshold
  with noise is the exact sign test ``AdBlockEnsemble.noise_margin()``,
  not a noise search (for one round it is sqrt(5) - 2),
* intrinsic information: the closed-form reference curve, the exact
  I(A:B down E) of both sifted joints (``intrinsic_exact``: the merge
  channel that attains it and a tangent dual that bounds it below, the
  sweep's intrinsic column), and an honest numerical minimization over
  Eve's processing channels,
* the two-way advantage-distillation protocol (repetition blocks with a
  random mask bit), in closed form: accepted blocks fall into two
  classes, Eve knowing the mask bit or blind to it; the rate is negative
  for every block length exactly when p_nl <= 1/5; every entry takes
  block lengths up to AD_MAX_N = 511, the longest whose rate terms
  cannot all underflow double precision, and noise q in [0, 1/2],
* the map between channel disturbance and the nonlocal weight.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import info
from .attack import JointABE, _optimal_table
from .attack import alice_bob_stats, table_joint  # noqa: F401  perfbench/tracing.py patches them here
from .exceptions import DomainError, _as_count, _as_fraction
from .info import binary_entropy, conditional_mutual_information
from .info import mutual_information  # noqa: F401  perfbench/tracing.py patches it here

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# one-way rates and pre-processing
# ---------------------------------------------------------------------------


def ck_rate(p_nl: float) -> float:
    """Closed-form one-way rate bound 1 - h(p_L/4) - p_L/2.

    With p_L = 1 - p_nl this equals I(A:B) - I(A:E) for the optimal
    individual attack; the generic route via the joint distribution is
    ``oneway_rate(table_joint(p_nl))``.
    """
    p_l = 1.0 - _as_fraction("p_nl", p_nl)
    return 1.0 - binary_entropy(p_l / 4.0) - p_l / 2.0


def oneway_rate(joint: JointABE) -> float:
    """I(A:B) - I(A:E) for an arbitrary sifted joint."""
    return float(info._cmi(joint.ab_marginal()[..., None]) - info._cmi(joint.p.sum(axis=1)[..., None]))


@dataclass(frozen=True)
class PreprocessingOptimum:
    q_opt: float
    rate: float


def optimize_preprocessing(p_nl: float) -> PreprocessingOptimum:
    """Maximize the rate over Alice's Bernoulli(q) pre-processing noise.

    A single round with noise q on Alice's bit is the length-1
    distillation block with that noise on its secret, so the rate is
    1 - h(eps*q) - (p_L/2)(1 - h(q)) with eps = p_L/4.  It is unimodal in
    q (see ``_best_noise_rate``); at or below sqrt(5) - 2 its maximum is
    exactly 0, at q = 1/2.
    """
    return PreprocessingOptimum(*_best_noise_rate(ad_block_ensemble(p_nl, 1)))


def oneway_threshold() -> float:
    """Smallest double p_nl with a positive one-way rate (no pre-processing); ck_rate(0.1) is -0.219."""
    return _sign_change(ck_rate, 0.1, 0.9)


def preprocessing_threshold() -> float:
    """Smallest p_nl with a positive rate after optimal pre-processing: sqrt(5) - 2.

    Some noise q gives a positive rate exactly when the length-1 block's
    ``noise_margin`` is positive.  With u = p_L/4 = (1 - p_nl)/4 that
    block has eps = u and blind = p_nl + 2u = (1 + p_nl)/2, so

        4 margin = 2(1 + p_nl) - (1 - p_nl)(3 + p_nl) = p_nl^2 + 4 p_nl - 1,

    whose root in [0, 1] is sqrt(5) - 2 = 0.2360680 (Kraus, Gisin &
    Renner, PRL 95, 080501, 2005), a disturbance of 6.298%.
    """
    return math.sqrt(5.0) - 2.0


# ---------------------------------------------------------------------------
# intrinsic information
# ---------------------------------------------------------------------------


def intrinsic_closed(p_nl: float) -> float:
    """Reference curve h(1 - p/2) - ((1+p)/4) h((1-p)/(1+p))."""
    p_nl = _as_fraction("p_nl", p_nl)
    first = binary_entropy(1.0 - p_nl / 2.0)
    inner = binary_entropy((1.0 - p_nl) / (1.0 + p_nl))  # h(0) = 0.0 at p_nl = 1, so first - 0.0
    return first - (1.0 + p_nl) / 4.0 * inner


@dataclass(frozen=True)
class Channel:
    """Row-stochastic post-processing map for Eve's symbol."""

    matrix: np.ndarray  # shape (n_in, n_out); a read-only copy of the input

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("channel matrix must be 2-d")
        info._check_normalized(m, axis=1)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def cmi_given_channel(joint: JointABE, channel: Channel) -> float:
    """I(A:B | Ē) after Eve pipes her symbol through the channel."""
    mapped = joint.p @ channel.matrix
    return conditional_mutual_information(mapped)


# Exponentiated-gradient descent on the channel rows: the step count, the step size, and the
# weight of the uniform channel mixed into every start (a multiplicative update never moves
# an entry away from zero).  The step is a power of two, so scaling the gradient by it is exact.
EG_STEPS = 400
EG_STEP = 4.0
START_MIX = 1e-2


@dataclass(frozen=True)
class IntrinsicResult:
    """The minimum found, with the channel that attains it as certificate."""

    value: float  # cmi_given_channel(joint, Channel(channel))
    channel: np.ndarray  # shape (n_in, n_out)
    start: int  # index of the winning start in the start list
    steps: int  # descent steps from that start: 0 or EG_STEPS


# q = _MARGINALS @ p(a,b,e).reshape(4, k), rows (a, b) = 00, 01, 10, 11, maps
# a channel W to m(a,b,z), p(z), p(a=0,z), p(a=1,z), p(b=0,z), p(b=1,z), and
# _LOG_RATIO combines their logs into log2(m(a,b,z) p(z) / (p(a,z) p(b,z))).
_MARGINALS = np.vstack([np.eye(4), np.ones(4), np.repeat(np.eye(2), 2, 1), np.tile(np.eye(2), 2)])
_LOG_RATIO = _MARGINALS.T * np.repeat([1.0, -1.0], [5, 4])
# 0-d operands of the descent: a Python float would be converted on every call
_TINY, _ZERO = np.array(1e-300), np.array(0.0)


def _partitions(k: int) -> np.ndarray:
    """Restricted-growth strings of k symbols, in lexicographic order.

    Each is the lexicographically (np.ndindex) first of the deterministic
    maps that induce its partition of the k symbols.
    """
    codes = [()]
    for _ in range(k):
        codes = [c + (z,) for c in codes for z in range(max(c, default=-1) + 2)]
    return np.array(codes)


def _starts(p_abe: np.ndarray, restarts: int, seed: int) -> np.ndarray:
    """Identity, constant, uniform, the 8 best partitions of Eve's symbols, then Dirichlet draws.

    Every deterministic start is a set of rows of one identity matrix.  A
    deterministic map's value depends only on the partition of Eve's
    symbols it induces, so one map per partition is scored.
    """
    k = p_abe.shape[2]
    maps = np.eye(k)
    structured = [maps, maps[np.zeros(k, int)], np.full((k, k), 1.0 / k)]
    if restarts > len(structured):
        det = maps[_partitions(k)]
        scores = info._cmi(p_abe @ det[:, None])
        structured.extend(det[np.argsort(scores, kind="stable")[:8]])
    rng = np.random.default_rng(seed)
    starts = structured[:restarts]
    starts += [rng.dirichlet(np.ones(k), size=k) for _ in range(restarts - len(starts))]
    return np.array(starts)


def _descend(q: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The channels after EG_STEPS steps of size EG_STEP from each start[i] mixed with START_MIX of uniform.

    The descent runs on V = ln W, taken once from the mixed starts.  A step is
    V <- V - EG_STEP G, then V <- V - max_z V, then W = exp(V) with rows renormalized, with the
    gradient G[e, z] = dI(A:B|Ē)/dW[e, z] = sum_ab p(a,b,e) log-ratio(a,b,z) of each channel:
    the update W <- W exp(-EG_STEP G) of exponentiated gradient.  After the shift each row's
    largest entry is exp(0) = 1, so no row sums to 0 however long the step.  The step is folded
    into the last product's matrix, EG_STEP Q[:4]^T, exact for a power of two.  Logs are of
    values clamped at 1e-300, and the log-ratio is 0 where m(a,b,z) <= 1e-300, as in
    ``info._cmi_log_ratio``.  The channels sit side by side in one matrix, so each column's
    rounding is its own, whatever columns sit beside it.  Every step runs in work arrays
    allocated once per descent.  Each array holds at most 45 entries per start, so a step
    costs more in call overhead than in arithmetic: the products are bound ``ndarray.dot``
    methods writing into their ``out`` argument, which skip the Python dispatcher function
    that ``np.dot`` runs first; every other call is a local name with positional arguments;
    and the operands are 0-d arrays, since a Python float is converted on every call.
    """
    w = ((1.0 - START_MIX) * starts + START_MIX / starts.shape[-1]).transpose(1, 2, 0).copy()
    k, m, r = w.shape  # w[e, z, start], the z sums and maxima run across contiguous rows
    v = np.log(w)
    lin, log_ratio, grad = np.empty((len(q), m * r)), np.empty((4, m * r)), np.empty((k, m * r))
    empty, (vmax, total) = np.empty((4, m * r), bool), np.empty((2, k, 1, r))
    flat, grad3, lin4 = w.reshape(k, -1), grad.reshape(w.shape), lin[:4]
    q_dot, ratio_dot, step_dot = q.dot, _LOG_RATIO.dot, (EG_STEP * q[:4]).T.dot
    less_equal, maximum, log2, putmask, exp = np.less_equal, np.maximum, np.log2, np.putmask, np.exp
    zmax, zsum, subtract, divide = np.maximum.reduce, np.add.reduce, np.subtract, np.divide
    for _ in range(EG_STEPS):
        q_dot(flat, lin)
        less_equal(lin4, _TINY, empty)
        log2(maximum(lin, _TINY, out=lin), lin)  # a positional out is deprecated for maximum
        ratio_dot(lin, log_ratio)
        putmask(log_ratio, empty, _ZERO)
        step_dot(log_ratio, grad)
        subtract(v, grad3, v)
        zmax(v, 1, None, vmax, True)  # axis, dtype, out, keepdims
        exp(subtract(v, vmax, v), w)  # exp(V - max_z V) <= 1
        divide(w, zsum(w, 1, None, total, True), w)
    return w.transpose(2, 0, 1)


def intrinsic_search(joint: JointABE, restarts: int = 64, seed: int = 0) -> IntrinsicResult:
    """Minimize I(A:B|Ē) over channels acting on Eve's symbol.

    Every start (identity, constant, uniform, the deterministic maps of
    the best partitions of Eve's symbols, then seeded row-Dirichlet
    draws) is mixed with START_MIX of the uniform channel and descends
    by EG_STEPS exponentiated-gradient steps of size EG_STEP,
    W <- W exp(-EG_STEP G), rows renormalized, taken in log space, all starts at
    once in one gradient per step (``_descend``).  The result is the best of the
    unmixed starts and the final channels (the lowest index on a tie), so
    it never exceeds a start's exact value; at restarts = 1 the unmixed
    constant channel is scored as well, undescended, so the value never
    exceeds I(A:B).  A start's descent rounds the same alone or in any
    batch, so the value is nonincreasing in ``restarts``.

    The channel has one output per Eve symbol, which suffices to reach
    the minimum (Christandl, Renner & Wolf, ISIT 2003), and makes the
    identity start exact: the value never exceeds I(A:B|E).  A local
    method cannot certify the global minimum; the returned channel
    certifies that the minimum is at most ``value``.
    """
    restarts, seed = _as_count("restarts", restarts, 1), _as_count("seed", seed, 0)
    p_abe = np.asarray(joint.p, dtype=float)
    # at one restart the constant channel, start 1, is scored too: its value I(A:B) bounds I down E
    scored = _starts(p_abe, max(restarts, 2), seed)
    candidates = np.concatenate([scored, _descend(_MARGINALS @ p_abe.reshape(4, -1), scored[:restarts])])
    best = int(np.argmin(info._cmi(p_abe @ candidates[:, None])))
    certificate = Channel(candidates[best])
    return IntrinsicResult(
        value=float(info._cmi(p_abe @ certificate.matrix)),
        channel=certificate.matrix,
        start=best % len(scored),
        steps=EG_STEPS if best >= len(scored) else 0,
    )


def intrinsic_numeric(joint: JointABE, restarts: int = 64, seed: int = 0) -> float:
    """The value of ``intrinsic_search``: the best I(A:B|Ē) found, at least 0."""
    return intrinsic_search(joint, restarts, seed).value


def intrinsic_upper_bound(joint: JointABE) -> float:
    """min(I(A:B), I(A:B|E)); any channel value must stay below this."""
    return float(min(info._cmi(joint.ab_marginal()[..., None]), info._cmi(joint.p)))


@dataclass(frozen=True)
class IntrinsicCertificate:
    """I(A:B down E) of a sifted joint, bracketed: lower <= I(A:B down E) <= value."""

    value: float  # cmi_given_channel(joint, Channel(channel)), attained by the channel
    lower: float  # dual . p_E, a lower bound wherever the dual is feasible
    channel: np.ndarray  # shape (n_symbols, 3): outputs (0,0), (1,1) and the merged symbol
    dual: np.ndarray  # one coefficient per Eve symbol


def _exact(p_nl: float, announce: bool) -> tuple:
    """(value, p, channel, kept, eps, fraction) of ``intrinsic_exact``; p_nl is unchecked.

    The table comes from its closed-form cells (``attack._optimal_table``) and none of the
    three tables is re-checked: ``TestClosedFormTable`` and ``test_every_field_equals_the_sift_route``
    prove them equal, bit for bit, to the checked ``sift`` and ``cmi_given_channel`` route.
    """
    p, symbols = _optimal_table(p_nl, announce)
    if announce:
        eps = (1.0 - p_nl) / (1.0 + 3.0 * p_nl)
        fraction = (1.0 - 5.0 * p_nl) / (3.0 * (1.0 - p_nl)) if p_nl < 0.2 else 0.0
    else:
        eps, fraction = (1.0 - p_nl) / (2.0 * (1.0 + p_nl)), 0.0
    kept = [s.e_a is not None and s.e_a == s.e_b for s in symbols]
    rows = [[0.0, 0.0, 1.0] for _ in symbols]
    for row, symbol, keep in zip(rows, symbols, kept):
        if keep:
            row[symbol.e_a], row[2] = 1.0 - fraction, fraction
    channel = np.array(rows)
    return float(info._cmi(p @ channel)), p, channel, kept, eps, fraction


def intrinsic_exact(p_nl: float, announce: bool = False) -> IntrinsicCertificate:
    """I(A:B down E) of ``table_joint(p_nl)``, or of its announce variant, with its certificate.

    The channel keeps (0,0) and (1,1) and merges every other symbol.  In
    the merged output Bob's bit differs from Alice's with probability eps,
    eps = (1-p)/(2(1+p)) for the table and (1-p)/(1+3p) once Alice also
    announces her setting, so I(A:B down E) <= W (1 - h(eps)), W the merged
    weight.  In the announce variant below p = 1/5 the channel also sends a
    fraction lambda = (1-5p)/(3(1-p)) of (0,0) and of (1,1) to the merged
    output, which leaves A and B independent there: I(A:B down E) = 0.
    ``value`` is ``cmi_given_channel`` on that channel, and the table is
    written from its closed-form cells (``_exact``), bit for bit the sift's.

    I(A:B down E) is the lower convex envelope, at p_E, of g(pi) = I(A:B)
    under sum_e pi_e p(a,b|e) over the simplex of Eve's symbols (Christandl,
    Renner & Wolf, ISIT 2003), so every c with c . pi <= g(pi) on the
    simplex gives I(A:B down E) >= c . p_E.  With f(t) = 1 - h(t), the
    dual is 0 on the kept symbols and, on a merged symbol whose own error
    rate is t_e, the tangent to f at eps taken at t_e:
    c_e = f(eps) + f'(eps) (t_e - eps), f'(eps) = log2(eps/(1-eps)).  In
    symbol order that is (0, 0, c2 + f'/2, c2 + f'/2, c2) for the table and
    (0, c2 + f', c2 + f', 0, c2) for the announce variant, c2 = f(eps) - eps f'.
    The merged errors average to eps, so ``lower`` = c . p_E = W f(eps), the
    value, up to rounding.  Below p = 1/5 in the announce variant the dual
    is 0.  At p_nl = 1 Eve has the single symbol (?,?), eps = 0 and f' is
    -inf, so the dual is (value,) and ``lower`` is the value.  A symbol of
    zero mass gets 0, which adds nothing to c . p_E: (?,?) below p_nl =
    2.5e-323, where the PR box's eighths underflow and its t_e would be 0/0.

    Feasibility, c . pi <= g(pi) on the simplex, is checked on its
    vertices, its edges and Dirichlet samples (tests/test_intrinsic_exact.py),
    not proved.
    """
    value, p, channel, kept, eps, fraction = _exact(_as_fraction("p_nl", p_nl), announce)
    p_e = p.sum(axis=(0, 1))
    if eps == 0.0:
        dual = np.array([value])
    elif fraction > 0.0:
        dual = np.zeros(len(p_e))
    else:
        slope = (math.log(eps) - math.log1p(-eps)) * LOG2E
        merged = ~np.array(kept) & (p_e > 0.0)
        errors = np.divide(p[0, 1] + p[1, 0], p_e, out=np.zeros(len(p_e)), where=merged)  # 0, 1/2 or 1
        dual = np.where(merged, 1.0 - info._entropy(eps) + slope * (errors - eps), 0.0)
    return IntrinsicCertificate(value=value, lower=float(dual @ p_e), channel=channel, dual=dual)


# ---------------------------------------------------------------------------
# disturbance map
# ---------------------------------------------------------------------------

MAX_QUANTUM_PNL = SQRT2 - 1.0  # reachable with a perfect channel
MAX_DISTURBANCE = 0.5 * (1.0 - 1.0 / SQRT2)  # where p_nl hits zero


def disturbance_to_pnl(d: float) -> float:
    """Nonlocal weight produced through a channel with disturbance d."""
    d = _as_fraction("disturbance", d, 0.5)
    return max(0.0, SQRT2 * (1.0 - 2.0 * d) - 1.0)  # at most sqrt(2) - 1, at d = 0


def pnl_to_disturbance(p_nl: float) -> float:
    """Inverse of disturbance_to_pnl on the quantum-reachable range."""
    return 0.5 * (1.0 - (1.0 + _as_fraction("p_nl", p_nl, MAX_QUANTUM_PNL)) / SQRT2)


# ---------------------------------------------------------------------------
# advantage distillation
# ---------------------------------------------------------------------------


LOG2E = 1.0 / math.log(2.0)


def _one_minus_h(s: float) -> float:
    """1 - h(s) for s in (0, 1/2], with absolute error about 1e-16 |1 - 2s| near s = 1/2.

    Uses 1 - h(s) = s log2(2s) + (1-s) log2(2(1-s)); 2s is exact, and
    the second factor is log1p(1 - 2s)/ln 2, whose argument is exact for
    s in [1/4, 3/4], so neither logarithm is rounded near s = 1/2.
    """
    t1 = s * math.log(2.0 * s)
    t2 = (1.0 - s) * math.log1p(1.0 - 2.0 * s)
    return (t1 + t2) * LOG2E


def _capacity_drop(t: float, q: float) -> float:
    """[1 - h(q*t)] - [1 - h(q)] for the binary convolution q*t, q in (0, 1/2].

    With d = t(1 - 2q) the shift of q*t away from q, the difference is
    -d log2((1-q)/q) plus a remainder of order d^2/q written through
    log1p, whose rounding error stays near 1e-16 d however small d is
    against q; a truncated Taylor series in t fails once t >> q.
    """
    d = t * (1.0 - 2.0 * q)
    p = 1.0 - q
    remainder = (q + d) * math.log1p(d / q) + (p - d) * math.log1p(-d / p)
    return -d * math.log2(p / q) + remainder * LOG2E


@dataclass(frozen=True)
class AdBlockEnsemble:
    """Exact statistics of accepted repetition blocks of length n.

    Alice announces her n bits masked by one random bit r; Bob accepts
    when his block is consistent with a single common error value sigma
    and decodes r from it.  Given acceptance, Eve either knows r or is
    blind to it: she is blind exactly when every round carries the blank
    PR symbol or every round shows her only Bob's bit, and any other
    accepted block reveals r.
    """

    p_accept: float
    bob_error: float
    blind: float  # P(Eve's posterior on r is uniform | accept)

    def eve_information(self) -> float:
        """I(R : Eve's view | accept)."""
        return 1.0 - self.blind

    def noise_margin(self) -> float:
        """blind - 4 eps (1 - eps): positive exactly when some noise q gives rate(q) > 0.

        Bob's bit is the block secret through a binary symmetric channel
        with crossover eps, and Alice's noisy secret is that secret
        through one with crossover q.  The strong data-processing
        constant of the first channel is (1 - 2 eps)^2 (Ahlswede & Gacs,
        Ann. Probab. 4, 925, 1976), so

            1 - h(q*eps) <= (1 - 2 eps)^2 (1 - h(q))   for every q,

        and since (1 - 2 eps)^2 = 1 - 4 eps (1 - eps),
        rate(q) <= margin (1 - h(q)).  The bound is tight at q -> 1/2:
        with q = (1 - t)/2, q*eps = (1 - t(1 - 2 eps))/2, and
        1 - h((1 - x)/2) = x^2 / (2 ln 2) + O(x^4), so
        rate(q) / (1 - h(q)) -> margin.  Hence a margin of at most 0
        keeps every rate(q) at most 0, and a positive margin makes
        rate(q) positive for q close enough to 1/2.  Written as
        (1 - 2 eps)^2 - (1 - blind) the two terms would cancel to
        rounding noise once blind and eps are tiny (n of about 20 and
        more), so keep this form.
        """
        return _noise_margin(self.bob_error, self.blind)

    def rate(self, q: float = 0.0) -> float:
        """Key-rate sign quantity for the block, with optional noise q in [0, 1/2].

        The noise is applied to the distilled bit before the final
        one-way step, the same Bernoulli pre-processing as in the
        single-round analysis but acting on the block-level secret:
        [1 - h(q*eps)] - (1 - blind)[1 - h(q)].  The two 1-bit constants
        cancel exactly.  For q > 0 the tiny remaining quantities go through
        cancellation-free helpers; at q = 0 the rate is ``_entropy_deficit``,
        blind - h(eps), the function the threshold search signs.  Either way
        the sign survives for long blocks.  Noise q and 1 - q give the same
        rate, so q is taken in [0, 1/2], the range ``_best_noise_rate`` searches.
        """
        q = _as_fraction("noise", q, 0.5)
        if q == 0.0:
            return float(_entropy_deficit(self.bob_error, self.blind))
        return _capacity_drop(self.bob_error, q) + self.blind * _one_minus_h(q)


# With u = (1 - p_nl)/4 and s = 1 - u, u/s >= 1/4 exactly when p_nl <= 1/5, and p_nl/s >= 1/4
# exactly when p_nl >= 1/5.  So at every p_nl one of odds = (u/s)^n and (p_nl/s)^n is at least
# 4^-n = 2^-2n, a normal double exactly when 2n <= 1 - min_exp, and no block of length at most
# AD_MAX_N = 511 underflows.  At p_nl = 1/5 both equal 4^-n, and they underflow from n = 512.
AD_MAX_N = (1 - sys.float_info.min_exp) // 2


def _as_length(name: str, n, least: int) -> int:
    """``_as_count`` of a block length, at most AD_MAX_N; else DomainError."""
    n = _as_count(name, n, least)
    if n > AD_MAX_N:
        raise DomainError(f"{name} {n} is above {AD_MAX_N}: a longer block underflows at p_nl = 1/5")
    return n


def ad_block_ensemble(p_nl: float, n: int) -> AdBlockEnsemble:
    """Exact accepted-block ensemble in closed form, for n up to AD_MAX_N.

    A round is an error with probability u = p_L/4; with s = 1 - u the
    block is accepted with probability s^n + u^n.  Eve is blind on the
    all-blank block (probability p_nl^n) and on the blocks where every
    round shows her only Bob's bit (u^n for each sigma).  Everything is
    scaled by s^n, so with odds = (u/s)^n:

        p_accept = s^n (1 + odds),  eps = odds / (1 + odds),
        blind = (2 odds + (p_nl/s)^n) / (1 + odds).
    """
    return _ensemble(_as_fraction("p_nl", p_nl), _as_length("block length", n, 1))


def _ensemble(p_nl: float, n: int) -> AdBlockEnsemble:
    """The ensemble of ``ad_block_ensemble``, unchecked."""
    u = (1.0 - p_nl) / 4.0
    s = 1.0 - u
    odds = pow(u / s, n)
    eps, blind = _eps_blind(odds, pow(p_nl / s, n))
    return AdBlockEnsemble(p_accept=pow(s, n) * (1.0 + odds), bob_error=eps, blind=blind)


def _eps_blind(odds, blank):
    """(eps, blind) from odds = (u/s)^n and blank = (p_nl/s)^n, for ``_ensemble``'s floats and the search's arrays."""
    scale = 1.0 + odds
    return odds / scale, (2.0 * odds + blank) / scale


def _sign_change(sign_fn, lo: float, hi: float):
    """Halve [lo, hi] until they are adjacent doubles with sign_fn(lo) <= 0 < sign_fn(hi); return hi.

    The caller vouches for sign_fn(lo) <= 0, never evaluated.  None when sign_fn(hi) <= 0.
    """
    if sign_fn(hi) <= 0.0:
        return None
    mid = (lo + hi) / 2.0
    while lo < mid < hi:
        if sign_fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = (lo + hi) / 2.0
    return hi


def _sign_changes(sign_fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_sign_change`` on every bracket [lo[i], hi[i]] at once, in lockstep.

    sign_fn(p) signs the midpoints p, one per bracket.  The caller vouches for sign_fn(lo) <= 0
    < sign_fn(hi), so no end is evaluated: ``ad_thresholds`` passes ends it has signed, or 0.02 and
    0.95, whose signs it proves.  Each bracket meets the midpoints its own ``_sign_change`` takes,
    so each result is the same double; one whose ends are adjacent doubles keeps them, as its
    midpoint rounds to an end of known sign.  For one bracket the scalar loop is 10 to 20 times
    faster, so scalar callers keep it.
    """
    while True:
        mid = (lo + hi) / 2.0
        if not ((lo < mid) & (mid < hi)).any():
            return hi
        up = sign_fn(mid) > 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)


def _extrapolate_zeros(zeros: list) -> float:
    """Least-squares intercept of z_N against 1/N, upper half of the Ns."""
    n_max = max(n for n, _ in zeros)
    tail = [(n, z) for n, z in zeros if n >= max(3, n_max // 2)]
    if len(tail) < 2:
        return min(z for _, z in zeros)
    xs, ys = np.array([(1.0 / n, z) for n, z in tail]).T
    return float(np.polyfit(xs, ys, 1)[1])  # the intercept


@dataclass(frozen=True)
class AdThreshold:
    threshold_estimate: float
    per_n_curve: tuple  # ((n, zero_crossing), ...)


def ad_thresholds(n_max: int) -> tuple:
    """(``ad_threshold(n_max)``, ``ad_preprocessing_threshold(n_max)``) from one lockstep search.

    For the plain rate and for the noise margin, the smallest double p_nl where it is > 0, for each
    n <= n_max, the zeros extrapolated.  The 2 n_max brackets, the lengths 1..n_max for each of the
    two, are searched together, so each guess and sign evaluation pays numpy's per-call cost once.

    Each n changes sign in [0.02, 0.95]: the rate and the noise margin are <= 0 at p_nl <= 1/5 (see
    ``ad_threshold``) and > 0 at 0.95.  There u = 1/80, s = 79/80, odds = (u/s)^n and
    blank = (p_nl/s)^n = 76^n odds, so margin >= blind - 4 eps = (blank - 2 odds)/(1 + odds) > 0;
    and by h(x) <= 2 sqrt(x(1 - x)), rate(0) >= blank/(1 + odds) - 2 sqrt(odds) > 0, since
    blank/sqrt(odds) = (p_nl/sqrt(us))^n >= 8.55 > 2(1 + odds).

    A sign evaluation computes only what it reads: odds and blank by C ``pow`` (``math.pow``, as
    float ** int; ``np.power`` can differ by an ulp) in one ``map``, then ``_eps_blind``, then each
    sign quantity on its own brackets.  Every operation is elementwise, so a bracket's signs, hence
    its zero, are the same doubles as in a search of that bracket alone, on the eps and blind of
    ``ad_block_ensemble``.  Three stages find the zeros in about 17 sign and guess evaluations:

    * guess: a lockstep secant on ``_log_gap`` in t = ln(p/(1 - p)) from p = 0.22 and 0.30, its
      points kept in [0.02, 0.95]; a bracket freezes, and takes no further step, once its step is
      at most 16 ulps of t.  A bracket's path depends on its n and rate alone, and every one of
      the 2 AD_MAX_N paths freezes within 7 steps, so the loop ends;
    * verify: the sign at the guess -/+ 64 doubles narrows [0.02, 0.95] to the part that still
      holds a sign change, so sign(lo) <= 0 < sign(hi) holds whatever the guess;
    * finish: one ``_sign_changes`` on all the brackets, about 7 halvings.

    For every n <= AD_MAX_N and both rates the computed sign changes exactly once within 256
    doubles of each zero, so the adjacent pair is unique and any valid bracket closes on the
    double a bisection of [0.02, 0.95] finds; a bad guess costs halvings, never a different zero.
    An n_max above AD_MAX_N raises DomainError before any search, so no block underflows.
    """
    n_max = _as_length("n_max", n_max, 2)
    ns = list(range(1, n_max + 1))

    def sign_fn(p):
        # p: the plain rate's points, then the margin's, as k runs over n = 1..n_max (k = 2 when
        # verifying, else 1)
        u = (1.0 - p) / 4.0
        s = 1.0 - u
        ratios = np.concatenate([u / s, p / s]).tolist()
        powers = np.fromiter(map(math.pow, ratios, ns * (len(ratios) // n_max)), float, len(ratios))
        (eps_plain, eps_noisy), (blind_plain, blind_noisy) = _eps_blind(*powers.reshape(2, 2, -1))
        return np.concatenate([_entropy_deficit(eps_plain, blind_plain), _noise_margin(eps_noisy, blind_noisy)])

    n = np.tile(np.arange(1.0, n_max + 1), 2)
    plain = np.repeat([True, False], n_max)
    t_lo, t_hi = math.log(0.02 / 0.98), math.log(0.95 / 0.05)
    t0, t1 = np.full(n.size, math.log(0.22 / 0.78)), np.full(n.size, math.log(0.30 / 0.70))
    g0, g1 = _log_gap(t0, n, plain), _log_gap(t1, n, plain)
    live = np.ones(n.size, bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # once g1 == g0 the step is 0/0 or inf
        while True:
            step = g1 * (t1 - t0) / (g1 - g0)
            live &= abs(step) > 16.0 * np.spacing(abs(t1))
            if not live.any():
                break
            t0, g0 = t1, g1
            t1 = np.where(live, np.clip(t1 - step, t_lo, t_hi), t1)
            g1 = _log_gap(t1, n, plain)
    guess = (1.0 / (1.0 + np.exp(-t1))).reshape(2, 1, n_max)
    near = np.clip((guess.view(np.int64) + np.array([[-64], [64]])).view(float), 0.02, 0.95)
    up = sign_fn(near.ravel()).reshape(near.shape) > 0.0
    below, above = near[:, 0].ravel(), near[:, 1].ravel()
    below_up, above_up = up[:, 0].ravel(), up[:, 1].ravel()
    lo = np.where(below_up, 0.02, np.where(above_up, below, above))
    hi = np.where(below_up, below, np.where(above_up, above, 0.95))
    found = _sign_changes(sign_fn, lo, hi).reshape(-1, n_max)
    curves = [tuple(zip(ns, row)) for row in found.tolist()]
    return tuple(AdThreshold(threshold_estimate=_extrapolate_zeros(z), per_n_curve=z) for z in curves)


def _log_gap(t, n, plain):
    """ln(blind) - ln(loss) at p_nl = 1/(1 + e^-t), loss h(eps) where plain, else 4 eps (1 - eps).

    The surrogate whose zeros ``ad_thresholds`` guesses; it only picks points, never a sign.  With
    w = ln(4 + 3 e^-t), u/s = e^-t / (4 + 3 e^-t) and p_nl/s = 4 / (4 + 3 e^-t), so
    a = ln odds = -n (t + w) and ln blank = n (ln 4 - w).  Then l1 = ln(1 + odds) = -ln(1 - eps),
    ln eps = a - l1 and h(eps) ln 2 = eps (l1 - a + l1/odds), where l1/odds -> 1 once odds
    underflows.  Everything stays in logs, so no length up to AD_MAX_N underflows at any t.
    """
    ln2, ln4 = math.log(2.0), math.log(4.0)
    w = np.logaddexp(ln4, math.log(3.0) - t)
    a = -n * (t + w)
    l1 = np.logaddexp(0.0, a)
    odds = np.exp(a)
    per_odds = np.divide(l1, odds, out=np.ones_like(a), where=odds > 0.0)
    ln_loss = np.where(plain, np.log((l1 - a + per_odds) / ln2), ln4 - l1) + a - l1
    return np.logaddexp(ln2 + a, n * (ln4 - w)) - l1 - ln_loss


def _entropy_deficit(eps, blind):
    """``AdBlockEnsemble.rate(0)`` = blind - h(eps) of floats or arrays, with the h of ``binary_entropy``."""
    return blind - info._entropy(eps)


def _noise_margin(eps, blind):
    """``AdBlockEnsemble.noise_margin`` of floats or arrays: blind - 4 eps (1 - eps)."""
    return blind - 4.0 * eps * (1.0 - eps)


AD_LIMIT = 0.2  # exact asymptotic threshold, with or without noise; see ad_threshold


def ad_threshold(n_max: int) -> AdThreshold:
    """Asymptotic positivity threshold of plain advantage distillation.

    Locates the zero crossing of the block rate for every length up to
    n_max and extrapolates the crossings against 1/N.  The exact limit
    is AD_LIMIT = 1/5, where p_nl = u = p_L/4:

    * blind = (2 + r) eps exactly, with r = (p_nl/u)^n, so
      rate(0) = blind - h(eps), and blind <= 3 eps whenever p_nl <= u,
      that is whenever p_nl <= 1/5;
    * on (0, 1/4], h(eps) > 3 eps, and 0 < eps <= u <= 1/4 there, so
      the rate is negative for every n;
    * for p_nl > 1/5, r grows geometrically while h(eps)/eps grows like
      n log2(s/u), so the rate turns positive at large n;
    * noise cannot lower the limit: some q gives a positive rate
      exactly when ``noise_margin`` = blind - 4 eps (1 - eps) > 0, and
      for p_nl <= 1/5, blind <= 3 eps with eps <= u <= 1/4, so the
      margin is at most -eps (1 - 4 eps) <= 0 for every n and q.

    The per-n zeros therefore approach 1/5 from above, and the 1/N
    extrapolation only estimates it.
    """
    return ad_thresholds(n_max)[0]


def _noise_slope(ensemble: AdBlockEnsemble, q: float) -> float:
    """ln 2 times d rate/dq, for q from the smallest normal double to 1/2.

    With t = 1 - 2q and c = 1 - 2 eps, 1 - h((1 - x)/2) has x-derivative
    atanh(x) / ln 2, so the slope is

        2 [(1 - blind) atanh(t) - c atanh(ct)]
          = 2 [atanh(2 eps t / (1 - ct^2)) + 2 eps atanh(ct) - blind atanh(t)],

    whose first form cancels once blind and eps are tiny.  With
    r = q*eps = q + eps t, each atanh is half the log1p of a ratio of
    positive terms, t/q, ct/r and eps t / (q (1 - r)), finite for a normal
    q.  The slope is about -2t noise_margin near q = 1/2, and 0 there.
    """
    eps, t = ensemble.bob_error, 1.0 - 2.0 * q
    r = q + eps * t
    return (
        math.log1p(eps * t / (q * (1.0 - r)))
        + 2.0 * eps * math.log1p((1.0 - 2.0 * eps) * t / r)
        - ensemble.blind * math.log1p(t / q)
    )


def _best_noise_rate(ensemble: AdBlockEnsemble) -> tuple:
    """(q, rate(q)) maximizing the block rate over noise q in [0, 1/2].

    With t = 1 - 2q and c = 1 - 2 eps, 1 - 2 (q*eps) = ct; the series
    1 - h((1 - x)/2) = sum_k x^{2k} / (2k (2k - 1) ln 2) then gives

        rate(q) = sum_k (c^{2k} - (1 - blind)) t^{2k} / (2k (2k - 1) ln 2).

    The numerators fall in k, so the coefficients change sign at most
    once; by Descartes' rule of signs for power series the t-derivative
    then has at most one zero in (0, 1), and so has ``_noise_slope``.
    The first coefficient is noise_margin / (2 ln 2): a margin of at most
    0 makes every coefficient at most 0, so the maximum is rate(1/2) = 0.
    Otherwise the slope falls from +inf at q -> 0 (if blind < 1 and
    eps > 0) to about -2t margin < 0, and q is the double below its sign
    change: slope(q) >= 0 > slope(next double).  When that change lies
    below the smallest normal double, as at p_nl = 1, q is 0.
    """
    if ensemble.noise_margin() <= 0.0:
        return 0.5, 0.0
    lo = sys.float_info.min
    if _noise_slope(ensemble, lo) < 0.0:
        return 0.0, ensemble.rate(0.0)
    z = _sign_change(lambda q: -_noise_slope(ensemble, q), lo, math.nextafter(0.5, 0.0))  # slope(1/2) = 0
    q = 0.5 if z is None else math.nextafter(z, 0.0)
    return q, ensemble.rate(q)


def ad_with_preprocessing(p_nl: float, n_max: int) -> dict:
    """Best block rate at p_nl over lengths up to n_max (at most AD_MAX_N) and noise q.

    The Bernoulli noise is composed with the distillation step: it is
    applied to the block secret before the final one-way distillation,
    which penalizes the eavesdropper's mostly-certain posterior more
    than Bob's estimate.
    """
    n_max = _as_length("n_max", n_max, 1)
    p_nl = _as_fraction("p_nl", p_nl)
    best = {"best_rate": -math.inf, "q_used": 0.0, "n_used": 1}
    for n in range(1, n_max + 1):
        q, rate = _best_noise_rate(_ensemble(p_nl, n))
        if rate > best["best_rate"]:
            best.update(best_rate=rate, q_used=q, n_used=n)
    return best


def ad_preprocessing_threshold(n_max: int) -> AdThreshold:
    """Positivity threshold of distillation with pre-processing: the zeros of ``noise_margin``."""
    return ad_thresholds(n_max)[1]


# ---------------------------------------------------------------------------
# disturbance sweep
# ---------------------------------------------------------------------------


CURVE_COLUMNS = (
    "d",
    "p_nl",
    "rate_q0",
    "rate_opt",
    "q_opt",
    "intrinsic_closed",
    "intrinsic_numeric",
)


def curve_rows(d_values, restarts: int = 16, seed: int = 0):
    """Disturbance sweep used by the command-line rates report.

    ``intrinsic_numeric`` is ``intrinsic_exact(p_nl).value``, I(A:B down E)
    attained by the merge channel, so no row runs the search; ``restarts``
    and ``seed`` are only checked, as ``intrinsic_search`` checks them.
    """
    _as_count("restarts", restarts, 1)
    _as_count("seed", seed, 0)
    rows = []
    for d in d_values:
        p_nl = disturbance_to_pnl(float(d))
        opt = optimize_preprocessing(p_nl)
        rows.append(
            {
                "d": float(d),
                "p_nl": p_nl,
                "rate_q0": ck_rate(p_nl),
                "rate_opt": opt.rate,
                "q_opt": opt.q_opt,
                "intrinsic_closed": intrinsic_closed(p_nl),
                "intrinsic_numeric": _exact(p_nl, False)[0],
            }
        )
    return rows


def __getattr__(name):
    # Only perfbench/tracing.py looks this up; ROADMAP item 3 (in-package tracing) deletes this shim.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
