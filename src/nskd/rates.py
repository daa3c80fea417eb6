"""Secrecy quantifiers for the sifted attack statistics.

Everything here consumes the five-symbol joint distribution produced by
the attack module and is expressed in bits per sifted symbol.  The
module covers:

* the one-way key-rate bound I(A:B) - I(A:E) and its closed form,
* Alice's Bernoulli pre-processing, evaluated exactly as the length-1
  distillation block, its rate unimodal in the noise; every threshold
  with noise is the exact sign test ``AdBlockEnsemble.noise_margin()``,
  not a noise search (for one round it is sqrt(5) - 2),
* intrinsic information, both the closed-form reference curve and an
  honest numerical minimization over Eve's processing channels,
* the two-way advantage-distillation protocol (repetition blocks with a
  random mask bit), in closed form: accepted blocks fall into two
  classes, Eve knowing the mask bit or blind to it; the rate is negative
  for every block length exactly when p_nl <= 1/5, and a block whose
  rate terms all underflow double precision raises DomainError,
* the map between channel disturbance and the nonlocal weight.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import info
from .attack import JointABE, alice_bob_stats, table_joint
from .exceptions import DomainError
from .info import (  # noqa: F401  perfbench/tracing.py patches mutual_information here
    binary_entropy,
    conditional_mutual_information,
    mutual_information,
)

SQRT2 = math.sqrt(2.0)
OPT_TOL = 1e-3  # agreement tolerance for the numerical intrinsic minimum


# ---------------------------------------------------------------------------
# one-way rates and pre-processing
# ---------------------------------------------------------------------------


def ck_rate(p_nl: float) -> float:
    """Closed-form one-way rate bound 1 - h(p_L/4) - p_L/2.

    With p_L = 1 - p_nl this equals I(A:B) - I(A:E) for the optimal
    individual attack; the generic route via the joint distribution is
    ``oneway_rate(table_joint(p_nl))``.
    """
    if not 0.0 <= p_nl <= 1.0:
        raise DomainError(f"p_nl {p_nl!r} outside [0, 1]")
    p_l = 1.0 - p_nl
    return 1.0 - binary_entropy(p_l / 4.0) - p_l / 2.0


def oneway_rate(joint: JointABE) -> float:
    """I(A:B) - I(A:E) for an arbitrary sifted joint."""
    stats = alice_bob_stats(joint)
    return stats.i_ab - stats.i_ae


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
    """Smallest p_nl with a positive one-way rate (no pre-processing)."""
    return _rate_zero(ck_rate, 0.1, 0.9, 1e-9)


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
    if not 0.0 <= p_nl <= 1.0:
        raise DomainError(f"p_nl {p_nl!r} outside [0, 1]")
    first = binary_entropy(1.0 - p_nl / 2.0)
    if p_nl == 1.0:
        return first
    inner = binary_entropy((1.0 - p_nl) / (1.0 + p_nl))
    return first - (1.0 + p_nl) / 4.0 * inner


@dataclass(frozen=True)
class Channel:
    """Row-stochastic post-processing map for Eve's symbol."""

    matrix: np.ndarray  # shape (n_in, n_out); a read-only copy of the input

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("channel matrix must be 2-d")
        if not np.all(np.isfinite(m)):
            raise ValueError("channel entries must be finite")
        if np.any(m < -info.NORM_TOL):
            raise ValueError("channel rows must be nonnegative")
        rows = m.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > info.NORM_TOL):
            raise ValueError("channel rows must sum to one")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def cmi_given_channel(joint: JointABE, channel: Channel) -> float:
    """I(A:B | Ē) after Eve pipes her symbol through the channel."""
    mapped = joint.p @ channel.matrix
    return conditional_mutual_information(mapped)


# Exponentiated-gradient descent on the channel rows: step size, step
# count, and the weight of the uniform channel mixed into every start (a
# multiplicative update never moves an entry away from zero).
EG_STEP = 1.0
EG_STEPS = 1000
START_MIX = 1e-2
MAX_OUTPUTS = 5  # the channel maps Eve's symbol to min(MAX_OUTPUTS, |E|) outputs


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


def _cmi_gradient(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dI(A:B|Ē)/dW[e, z] = sum_ab p(a,b,e) log-ratio(a,b,z), channels side by side in w[e, :].

    Logs are of values clamped at 1e-300, and the log-ratio is 0 where m(a,b,z) <= 1e-300, as in
    ``info._cmi_log_ratio``.  Each column's rounding is its own, whatever columns sit beside it.
    """
    lin = q @ w
    empty = lin[:4] <= 1e-300
    log_ratio = _LOG_RATIO @ np.log2(np.maximum(lin, 1e-300, out=lin), out=lin)
    log_ratio[empty] = 0.0
    return q[:4].T @ log_ratio


def _starts(p_abe: np.ndarray, restarts: int, seed: int, m: int) -> np.ndarray:
    """Identity, constant, uniform, the 8 best deterministic maps, then Dirichlet draws."""
    k = p_abe.shape[2]
    identity = np.zeros((k, m))
    identity[np.arange(k), np.arange(k) % m] = 1.0
    constant = np.zeros((k, m))
    constant[:, 0] = 1.0
    structured = [identity, constant, np.full((k, m), 1.0 / m)]
    if restarts > len(structured):
        codes = np.indices((m,) * k).reshape(k, -1).T  # all m**k deterministic maps, ndindex order
        det = np.zeros((len(codes), k, m))
        np.put_along_axis(det, codes[:, :, None], 1.0, axis=2)
        scores = info._cmi(p_abe @ det[:, None])
        structured.extend(det[np.argsort(scores, kind="stable")[:8]])
    rng = np.random.default_rng(seed)
    starts = structured[:restarts]
    starts += [rng.dirichlet(np.ones(m), size=k) for _ in range(restarts - len(starts))]
    return np.array(starts)


def _descend(q: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The channels after EG_STEPS steps from each start[i] mixed with START_MIX of uniform."""
    w = ((1.0 - START_MIX) * starts + START_MIX / starts.shape[-1]).transpose(1, 2, 0).copy()
    for _ in range(EG_STEPS):  # w[e, z, start], the z sums and minima run across contiguous rows
        grad = _cmi_gradient(q, w.reshape(len(w), -1)).reshape(w.shape)
        grad -= grad.min(axis=1, keepdims=True)
        w *= np.exp(np.multiply(grad, -EG_STEP, out=grad), out=grad)
        w /= w.sum(axis=1, keepdims=True)
    return w.transpose(2, 0, 1)


def intrinsic_search(joint: JointABE, restarts: int = 64, seed: int = 0) -> IntrinsicResult:
    """Minimize I(A:B|Ē) over channels acting on Eve's symbol.

    Every start (identity, constant, uniform, the best deterministic
    maps, then seeded row-Dirichlet draws) is mixed with START_MIX of the
    uniform channel and descends by EG_STEPS exponentiated-gradient steps
    W <- W exp(-EG_STEP (G - min_z G)), rows renormalized, all starts at
    once in one ``_cmi_gradient`` per step.  The result is the best of the
    unmixed starts and the final channels (the lowest index on a tie), so
    it never exceeds a start's exact value.  A start's descent rounds the
    same alone or in any batch, so the value is nonincreasing in ``restarts``.

    A local method cannot certify the global minimum; the returned
    channel certifies that the minimum is at most ``value``.
    """
    if restarts < 1:
        raise DomainError("restarts must be at least 1")
    p_abe = np.asarray(joint.p, dtype=float)
    m = min(MAX_OUTPUTS, p_abe.shape[2])
    starts = _starts(p_abe, restarts, seed, m)
    candidates = np.concatenate([starts, _descend(_MARGINALS @ p_abe.reshape(4, -1), starts)])
    best = int(np.argmin(info._cmi(p_abe @ candidates[:, None])))
    certificate = Channel(candidates[best])
    return IntrinsicResult(
        value=cmi_given_channel(joint, certificate),
        channel=certificate.matrix,
        start=best % restarts,
        steps=EG_STEPS if best >= restarts else 0,
    )


def intrinsic_numeric(joint: JointABE, restarts: int = 64, seed: int = 0) -> float:
    """The value of ``intrinsic_search``: the best I(A:B|Ē) found, at least 0."""
    return intrinsic_search(joint, restarts, seed).value


def intrinsic_upper_bound(joint: JointABE) -> float:
    """min(I(A:B), I(A:B|E)); any channel value must stay below this."""
    stats = alice_bob_stats(joint)
    return min(stats.i_ab, conditional_mutual_information(joint.p))


# ---------------------------------------------------------------------------
# disturbance map
# ---------------------------------------------------------------------------

MAX_QUANTUM_PNL = SQRT2 - 1.0  # reachable with a perfect channel
MAX_DISTURBANCE = 0.5 * (1.0 - 1.0 / SQRT2)  # where p_nl hits zero


def disturbance_to_pnl(d: float) -> float:
    """Nonlocal weight produced through a channel with disturbance d."""
    if not 0.0 <= d <= 0.5:
        raise DomainError(f"disturbance {d!r} outside [0, 1/2]")
    return min(1.0, max(0.0, SQRT2 * (1.0 - 2.0 * d) - 1.0))


def pnl_to_disturbance(p_nl: float) -> float:
    """Inverse of disturbance_to_pnl on the quantum-reachable range."""
    if not 0.0 <= p_nl <= MAX_QUANTUM_PNL:
        raise DomainError(
            f"p_nl {p_nl!r} outside [0, sqrt(2)-1]; not channel-reachable"
        )
    return 0.5 * (1.0 - (1.0 + p_nl) / SQRT2)


# ---------------------------------------------------------------------------
# advantage distillation
# ---------------------------------------------------------------------------


LOG2E = 1.0 / math.log(2.0)


def _one_minus_h(s: float) -> float:
    """1 - h(s), with absolute error about 1e-16 |1 - 2s| near s = 1/2.

    Uses 1 - h(s) = s log2(2s) + (1-s) log2(2(1-s)); 2s is exact, and
    the second factor is log1p(1 - 2s)/ln 2, whose argument is exact for
    s in [1/4, 3/4], so neither logarithm is rounded near s = 1/2.
    """
    if s <= 0.0 or s >= 1.0:
        return 1.0
    t1 = s * math.log(2.0 * s)
    t2 = (1.0 - s) * math.log1p(1.0 - 2.0 * s)
    return (t1 + t2) * LOG2E


def _capacity_drop(t: float, q: float) -> float:
    """[1 - h(q*t)] - [1 - h(q)] for the binary convolution q*t.

    With d = t(1 - 2q) the shift of q*t away from q, the difference is
    -d log2((1-q)/q) plus a remainder of order d^2/q written through
    log1p, whose rounding error stays near 1e-16 d however small d is
    against q; a truncated Taylor series in t fails once t >> q.
    """
    if q <= 0.0:
        return -binary_entropy(t)
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

    n: int
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
        return self.blind - 4.0 * self.bob_error * (1.0 - self.bob_error)

    def rate(self, q: float = 0.0) -> float:
        """Key-rate sign quantity for the block, with optional noise q.

        The noise is applied to the distilled bit before the final
        one-way step, the same Bernoulli pre-processing as in the
        single-round analysis but acting on the block-level secret:
        [1 - h(q*eps)] - (1 - blind)[1 - h(q)].  The two 1-bit constants
        cancel exactly, and the remaining tiny quantities are evaluated
        through cancellation-free helpers so the sign survives for long
        blocks.
        """
        return _capacity_drop(self.bob_error, q) + self.blind * _one_minus_h(q)


def ad_block_ensemble(p_nl: float, n: int) -> AdBlockEnsemble:
    """Exact accepted-block ensemble in closed form.

    A round is an error with probability u = p_L/4; with s = 1 - u the
    block is accepted with probability s^n + u^n.  Eve is blind on the
    all-blank block (probability p_nl^n) and on the blocks where every
    round shows her only Bob's bit (u^n for each sigma).  Everything is
    scaled by s^n, so with odds = (u/s)^n:

        p_accept = s^n (1 + odds),  eps = odds / (1 + odds),
        blind = (2 odds + (p_nl/s)^n) / (1 + odds).

    When both odds and (p_nl/s)^n underflow, every term of the rate is
    lost and its sign is meaningless, so that raises DomainError.
    """
    if not 0.0 <= p_nl <= 1.0:
        raise DomainError(f"p_nl {p_nl!r} outside [0, 1]")
    if n < 1:
        raise DomainError("block length must be at least 1")
    u = (1.0 - p_nl) / 4.0
    s = 1.0 - u
    odds = (u / s) ** n
    blank = (p_nl / s) ** n
    if u > 0.0 and max(odds, blank) < sys.float_info.min:
        raise DomainError(
            f"block length {n} at p_nl {p_nl!r} underflows double precision"
        )
    return AdBlockEnsemble(
        n=n,
        p_accept=s**n * (1.0 + odds),
        bob_error=odds / (1.0 + odds),
        blind=(2.0 * odds + blank) / (1.0 + odds),
    )


def ad_rate(p_nl: float, n: int) -> float:
    """Block rate of plain advantage distillation at length n."""
    return ad_block_ensemble(p_nl, n).rate()


def _rate_zero(rate_fn, lo: float = 0.02, hi: float = 0.95, tol: float = 1e-6):
    """Bisect the sign change of a rate that increases with p_nl."""
    if rate_fn(hi) <= 0.0:
        return None
    if rate_fn(lo) > 0.0:
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if rate_fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def _extrapolate_zeros(zeros: list) -> float:
    """Least-squares intercept of z_N against 1/N, upper half of the Ns."""
    usable = [(n, z) for n, z in zeros if z is not None]
    if not usable:
        raise ValueError("no positive-rate block length found")
    n_max = max(n for n, _ in usable)
    tail = [(n, z) for n, z in usable if n >= max(3, n_max // 2)]
    if len(tail) < 2:
        return min(z for _, z in usable)
    xs = np.array([1.0 / n for n, _ in tail])
    ys = np.array([z for _, z in tail])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(intercept)


@dataclass(frozen=True)
class AdThreshold:
    threshold_estimate: float
    per_n_curve: tuple  # ((n, zero_crossing or None), ...)


def _block_zeros(n_max: int, block_rate) -> AdThreshold:
    """Zero crossing in p_nl of block_rate(ensemble) for each n <= n_max, extrapolated."""
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    zeros = tuple(
        (n, _rate_zero(lambda p: block_rate(ad_block_ensemble(p, n))))
        for n in range(1, n_max + 1)
    )
    return AdThreshold(threshold_estimate=_extrapolate_zeros(zeros), per_n_curve=zeros)


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
    return _block_zeros(n_max, AdBlockEnsemble.rate)


def _golden_max(fun, lo: float, hi: float):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(60):  # the bracket shrinks by invphi^60, about 3e-13
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = (a + b) / 2.0
    return x, fun(x)


def _best_noise_rate(ensemble: AdBlockEnsemble) -> tuple:
    """(q, rate(q)) maximizing the block rate over noise q in [0, 1/2].

    With t = 1 - 2q and c = 1 - 2 eps, 1 - 2 (q*eps) = ct; the series
    1 - h((1 - x)/2) = sum_k x^{2k} / (2k (2k - 1) ln 2) then gives

        rate(q) = sum_k (c^{2k} - (1 - blind)) t^{2k} / (2k (2k - 1) ln 2).

    The numerators fall in k, so the coefficients change sign at most
    once; by Descartes' rule of signs for power series the t-derivative
    then has at most one zero in (0, 1).  So the rate is unimodal in q,
    and one golden-section search finds its maximum (q = 0, which the
    search never evaluates, is compared apart).  The first coefficient
    is noise_margin / (2 ln 2): a margin of at most 0 makes every
    coefficient at most 0, so the maximum is rate(1/2) = 0.
    """
    if ensemble.noise_margin() <= 0.0:
        return 0.5, 0.0
    best = _golden_max(ensemble.rate, 0.0, 0.5)
    return max(best, (0.0, ensemble.rate(0.0)), key=lambda qr: qr[1])


def ad_with_preprocessing(p_nl: float, n_max: int) -> dict:
    """Best block rate at p_nl over lengths up to n_max and noise q.

    The Bernoulli noise is composed with the distillation step: it is
    applied to the block secret before the final one-way distillation,
    which penalizes the eavesdropper's mostly-certain posterior more
    than Bob's estimate.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    best = {"best_rate": -math.inf, "best_rate_sign": -1, "q_used": 0.0, "n_used": 1}
    for n in range(1, n_max + 1):
        ensemble = ad_block_ensemble(p_nl, n)
        q, rate = _best_noise_rate(ensemble)
        if rate > best["best_rate"]:
            best.update(best_rate=rate, q_used=q, n_used=n)
    best["best_rate_sign"] = 1 if best["best_rate"] > 0.0 else (-1 if best["best_rate"] < 0.0 else 0)
    return best


def ad_preprocessing_threshold(n_max: int) -> AdThreshold:
    """Positivity threshold of distillation with pre-processing: the zeros of ``noise_margin``."""
    return _block_zeros(n_max, AdBlockEnsemble.noise_margin)


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
    """Disturbance sweep used by the command-line rates report."""
    rows = []
    for d in d_values:
        p_nl = disturbance_to_pnl(float(d))
        opt = optimize_preprocessing(p_nl)
        joint = table_joint(p_nl)
        rows.append(
            {
                "d": float(d),
                "p_nl": p_nl,
                "rate_q0": ck_rate(p_nl),
                "rate_opt": opt.rate,
                "q_opt": opt.q_opt,
                "intrinsic_closed": intrinsic_closed(p_nl),
                "intrinsic_numeric": intrinsic_numeric(
                    joint, restarts=restarts, seed=seed
                ),
            }
        )
    return rows


def __getattr__(name):
    # Only perfbench/tracing.py looks this up; ROADMAP item 3 (in-package tracing) deletes this shim.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
