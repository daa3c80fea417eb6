"""Round-level Monte Carlo simulation of the protocol under attack.

Each round draws uniform settings, lets the eavesdropper pick an extreme
point from her optimal mixture, samples outcomes from that point, and
applies the reconciliation flip.  Generation is blocked: block j of a
run is seeded by (seed, j), so shards computed in parallel reproduce the
serial stream exactly and merging is plain concatenation.

Each block is one ``random_raw`` call of its bit generator, made on
the caller's thread and read bit for bit as numpy's ``Generator`` would
draw it.  Within a block the vertex is the number of cumulative mixture
weights at or below a uniform draw, read from a table over the top 16
bits of the raw word and counted exactly only for the few words whose
16-bit bucket has a threshold strictly inside it; the outcomes are one
lookup in a packed table over (vertex, x, y, coin), stacked from the
vertices' ``responses`` arrays (``polytope``).  Each block writes its
columns in place: ``run`` keeps the rounds in one 6n-byte buffer, 6
bytes per round, and each block writes its slices of it; ``estimate``
tallies a log one block at a time, from seven ``count_nonzero`` calls
per block; ``stream_estimate`` tallies the same blocks as they are drawn
into one reused block of columns, and can write their records CSV as it
goes, and keeps none, so its memory does not grow with the number of
rounds.
``nskd simulate`` always streams: 20 million rounds take 0.40 to 0.56 s
cold (medians of two sets of 15 runs on a shared machine; single runs
spread from 0.34 to 0.69 s) and peak at about 38 MB RSS (2 cores,
Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import attack as attack_mod
from .exceptions import DomainError, EmptyInput, _as_count

BLOCK_ROUNDS = 1 << 16


class RoundLog:
    """Columnar store of simulated rounds.

    x, y, a, b and sifted_a hold bits and vertex_index indexes
    vertex_names (at most 24), all int8, 6 bytes per round, so
    million-round runs stay cheap.  ``run`` returns the six columns as
    the rows of one 6n-byte buffer, so one column kept alone keeps the
    whole buffer alive.  Columns of different lengths or of a dtype
    other than bool or integer, or a vertex index outside vertex_names,
    raise DomainError, at construction and again in ``to_csv`` and (all
    but the indices) ``estimate``.
    """

    def __init__(self, x, y, a, b, vertex_index, sifted_a, vertex_names):
        self.x = x
        self.y = y
        self.a = a
        self.b = b
        self.vertex_index = vertex_index
        self.sifted_a = sifted_a
        self.vertex_names = tuple(vertex_names)
        self._check()

    def __len__(self) -> int:
        return len(self.x)

    def _check(self, indices: bool = True) -> None:
        """Raise DomainError unless the columns as they are now have one length and a bool or
        integer dtype and, with ``indices`` (one pass over the column), every vertex index is a name's."""
        columns = (self.x, self.y, self.a, self.b, self.vertex_index, self.sifted_a)
        if len({len(col) for col in columns}) != 1:
            raise DomainError("round log columns must have the same length")
        if any(np.asarray(col).dtype.kind not in "biu" for col in columns):
            raise DomainError("round log columns must hold bools or integers")
        k, names = self.vertex_index, self.vertex_names
        if indices and len(k) and not 0 <= k.min() <= k.max() < len(names):
            raise DomainError(f"vertex indices must lie in [0, {len(names)})")

    def to_csv(self) -> str:
        """The rounds as csv.writer writes them, one looked-up line per round.

        Lines are looked up one BLOCK_ROUNDS slice at a time, so the
        lookup keys stay one block long however long the log is.  The
        columns are checked as at construction, since they may have been
        replaced since.
        """
        self._check()
        lines = _csv_lines(self.vertex_names)
        parts = [_RECORDS_HEADER]
        for start in range(0, len(self), BLOCK_ROUNDS):
            part = slice(start, start + BLOCK_ROUNDS)
            bits = (self.x[part], self.y[part], self.a[part], self.b[part], self.sifted_a[part])
            parts.append(_csv_block(lines, self.vertex_index[part], bits))
        return "".join(parts)


def _csv_line(row) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()


_RECORDS_HEADER = _csv_line(("x", "y", "a", "b", "e", "sifted_a"))


def _csv_lines(names) -> np.ndarray:
    """The CSV line of every (vertex k, x, y, a, b, sifted_a), at index k << 5 | bits.

    csv.writer writes a bit as its digit and never quotes it, so only
    the vertex name goes through the writer, once per vertex.
    """
    lines = []
    for name in names:
        field = _csv_line((0, name, 0))[2:-4]  # between "0," and ",0\r\n"
        for x, y, a, b, s in itertools.product((0, 1), repeat=5):
            lines.append(f"{x},{y},{a},{b},{field},{s}\r\n")
    return np.array(lines, dtype=object)


def _check_bits(use: str, columns) -> None:
    if any(np.bitwise_or.reduce(col) & ~1 for col in columns):
        raise DomainError(f"{use} columns x, y, a, b and sifted_a must hold bits")


def _csv_block(lines, k, bits) -> str:
    """The records lines of one block: vertex indices k, bits (x, y, a, b, sifted_a)."""
    _check_bits("records", bits)
    key = k.astype(np.intp) << 5
    for shift, col in zip((4, 3, 2, 1, 0), bits):
        key |= col.astype(np.intp) << shift
    return "".join(lines[key].tolist())


class _Strategy:
    """Eve's preparation at visibility v as one table over (vertex, x, y, coin).

    Flat index k * 8 + x * 4 + y * 2 + coin gives
    a | b << 1 | sifted_a << 2, Alice's and Bob's outcomes and Alice's
    sifted bit when Eve prepares vertex k.
    """

    def __init__(self, v: float):
        components = attack_mod.optimal_attack(v).components
        self.names = [vert.name for vert, _ in components]
        # u falls in bin k = #{j : cumulative[j] <= u}; the last edge is 1 > u
        self.thresholds = _word_thresholds(np.cumsum([w for _, w in components])[:-1])
        self.buckets = _bucket_table(self.thresholds)
        responses = np.stack([vert.responses for vert, _ in components])
        a, b = responses[..., 0], responses[..., 1]
        x, y, _ = np.indices((2, 2, 2), dtype=np.int8)
        self.outcomes = (a | b << 1 | (a ^ (x & y)) << 2).ravel()

    def blocks(self, n: int, seed: int, first_round: int = 0, out=None):
        """Per block, (x, y, k, a, b, sifted_a) of the rounds [first_round, first_round + n) in it.

        The columns are written in place, into ``out``'s slices when it
        holds the six rows (``_columns``) of all n rounds, and otherwise
        into one block of columns that every block reuses, so a yielded
        block is overwritten by the next.

        Every block draws x, y, u and the coin for all its BLOCK_ROUNDS
        rounds from its own (seed, block index) sequence, in that order,
        and then keeps the part inside the window.  The draws are read
        from ``_block_draws``, one ``random_raw`` call of the block's
        PCG64, bit for bit what ``default_rng`` on the same SeedSequence
        returns (verified on numpy 2.4.6):

        - ``integers(0, 2, size=B, dtype=np.int8)`` buffers the bytes of
          ``next_uint32``, the low then the high half of each 64-bit
          word, and Lemire's method maps a byte to (2 * byte) >> 8, its
          top bit; so x, y and the coin take B / 8 words each;
        - ``random(B)`` is (word >> 11) * 2**-53, one word per round, so
          u >= edge exactly when word >= the edge's threshold
          (``_word_thresholds``) and u is never formed.

        k * 8 is read by ``_vertex_x8``.  Bits are scaled by multiplication:
        numpy's left shift of small integers is about ten times slower.
        """
        reuse = out is None
        columns = _columns(BLOCK_ROUNDS) if reuse else out
        for block in range(first_round // BLOCK_ROUNDS, (first_round + n - 1) // BLOCK_ROUNDS + 1):
            x_bytes, y_bytes, u_words, coin_bytes = _block_draws(seed, block)
            base = block * BLOCK_ROUNDS
            window = slice(max(first_round - base, 0), min(first_round + n - base, BLOCK_ROUNDS))
            start = 0 if reuse else base + window.start - first_round
            part = slice(start, start + window.stop - window.start)
            k, x, y, a, b, sifted = columns[:, part]
            np.right_shift(x_bytes[window], 7, out=x.view(np.uint8))
            np.right_shift(y_bytes[window], 7, out=y.view(np.uint8))
            key = _vertex_x8(self.buckets, self.thresholds, u_words[window])
            np.right_shift(key, 3, out=k.view(np.uint8))
            key += x.view(np.uint8) * 4
            key += y.view(np.uint8) * 2
            key += coin_bytes[window] >> 7
            del x_bytes, y_bytes, u_words, coin_bytes  # free the words before the next block's
            packed = np.take(self.outcomes, key)
            np.bitwise_and(packed, 1, out=a)
            np.right_shift(packed, 1, out=b)
            b &= 1
            np.right_shift(packed, 2, out=sifted)
            yield x, y, k, a, b, sifted


def _columns(n: int) -> np.ndarray:
    """(k, x, y, a, b, sifted_a) of n rounds, the int8 rows of one 6n-byte buffer."""
    # One buffer: once glibc's malloc has freed a mapped block, it serves blocks
    # up to that size (at most 32 MiB) from its heap, so the next log this size
    # reuses pages already touched instead of faulting in fresh ones.
    return np.empty((6, n), dtype=np.int8)


_BLOCK_WORDS = 3 * (BLOCK_ROUNDS // 8) + BLOCK_ROUNDS  # x, y, u, coin


def _bit_generator(seed: int, block: int) -> np.random.PCG64:
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _split(words: np.ndarray):
    """One block's raw words as x's and y's bytes, u's words, the coin's bytes."""
    bits = BLOCK_ROUNDS // 8  # words of a bit column, 8 bytes each
    x, y, u_words, coin = np.split(words.astype("<u8", copy=False), (bits, 2 * bits, 2 * bits + BLOCK_ROUNDS))
    return x.view(np.uint8), y.view(np.uint8), u_words, coin.view(np.uint8)


def _block_draws(seed: int, block: int):
    """Block (seed, block)'s raw draws: x's and y's bytes, u's words, the coin's bytes."""
    return _split(_bit_generator(seed, block).random_raw(_BLOCK_WORDS))


def _word_thresholds(edges) -> np.ndarray:
    """The uint64 t of each edge with (word >> 11) * 2**-53 >= edge exactly when word >= t.

    edge * 2**53 is exact, so the condition is word >> 11 >= ceil(edge * 2**53).
    An edge at or below 0 gets t = 0 and always counts; an edge at or above
    1 has no t (2**53 << 11 overflows uint64) and never counts.
    """
    scaled = np.ceil(np.asarray(edges, dtype=float) * 2.0**53)
    scaled = np.maximum(scaled[scaled < 2.0**53], 0.0)
    return scaled.astype(np.uint64) << np.uint64(11)


_BUCKET_SHIFT = 48  # a word's bucket is its top 16 bits
_SPLIT = 255  # no real entry: there are at most 24 vertices, so k * 8 <= 184


def _bucket_table(thresholds) -> np.ndarray:
    """Per bucket word >> 48: k * 8 when all its words share k, else _SPLIT.

    k counts the thresholds at or below the word, and the thresholds are
    sorted, so k steps up by one at bucket ceil(t / 2**48) of each
    threshold t: the table is one repeat of the values k * 8.  A
    threshold strictly inside a bucket splits it.
    """
    firsts = [-(-t >> _BUCKET_SHIFT) for t in thresholds.tolist()]  # ceil(t / 2**48)
    runs = np.diff([0, *firsts, 1 << (64 - _BUCKET_SHIFT)])
    table = np.repeat(np.arange(0, 8 * len(runs), 8, dtype=np.uint8), runs)
    inside = thresholds[(thresholds & np.uint64((1 << _BUCKET_SHIFT) - 1)) != 0]
    table[inside >> np.uint64(_BUCKET_SHIFT)] = _SPLIT
    return table


def _vertex_x8(buckets, thresholds, u_words) -> np.ndarray:
    """k * 8 of each word: its bucket's entry, or where that is _SPLIT, searchsorted's count."""
    # a bucket is below 2**16, so its uint64 bits read as int64 are the same number
    k8 = np.take(buckets, (u_words >> np.uint64(_BUCKET_SHIFT)).view(np.int64))
    split = np.flatnonzero(k8 == _SPLIT)
    k8[split] = np.searchsorted(thresholds, u_words[split], side="right") * 8
    return k8


def run(v: float, n: int, seed: int = 0, first_round: int = 0) -> RoundLog:
    """Simulate rounds [first_round, first_round + n) of a seeded stream.

    The stream is defined blockwise, each block fully generated from its
    own (seed, block index) sequence, so any window of it is identical
    whether produced serially or by parallel shards; merging shards is
    plain concatenation.
    """
    # as Python ints: numpy integers of few bits overflow in block arithmetic
    n, seed = _as_count("rounds", n, 1), _as_count("seed", seed, 0)
    first_round = _as_count("first_round", first_round, 0)
    strategy = _Strategy(v)
    columns = _columns(n)
    for _ in strategy.blocks(n, seed, first_round, out=columns):
        pass  # each block writes its slices of the columns
    k, x, y, a, b, sifted = columns
    return RoundLog(
        x=x, y=y, a=a, b=b, vertex_index=k, sifted_a=sifted, vertex_names=strategy.names
    )


@dataclass(frozen=True)
class EstimateReport:
    n_rounds: int
    chsh_hat: float
    chsh_stderr: float
    qber_hat: float
    qber_stderr: float
    p_nl_hat: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# Inclusion-exclusion, one factor per bit: (rounds, rounds with the bit set)
# -> (rounds with it clear, rounds with it set).
_ONE_BIT = np.array([[1, -1], [0, 1]])
_CELLS_FROM_SUBSETS = np.kron(np.kron(_ONE_BIT, _ONE_BIT), _ONE_BIT)


def _tally(x, y, a, b, sifted_a) -> np.ndarray:
    """Rounds per (x, y, a != b) at index x * 4 + y * 2 + (a != b), then errors.

    Seven ``count_nonzero`` calls count the rounds with every bit of each
    nonempty subset S of (x, y, d = a ^ b) set, at the index of S's
    indicator, and ``_CELLS_FROM_SUBSETS`` turns them into the 8 cells.
    """
    d = a ^ b
    xy = x & y
    subsets = (d, y, y & d, x, x & d, xy, xy & d)
    counts = np.array([len(x)] + [np.count_nonzero(s) for s in subsets], dtype=np.int64)
    return np.append(_CELLS_FROM_SUBSETS @ counts, np.count_nonzero(sifted_a ^ b))


def _report(n: int, tally) -> EstimateReport:
    """Plug-in CHSH and error-rate estimators with binomial errors, from a tally."""
    chsh = 0.0
    var = 0.0
    for setting, (sx, sy) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        differ = int(tally[2 * setting + 1])
        n_xy = int(tally[2 * setting]) + differ
        if n_xy == 0:
            raise EmptyInput(f"no rounds with settings x={sx}, y={sy}")
        p_hat = differ / n_xy if (sx, sy) == (1, 1) else (n_xy - differ) / n_xy
        chsh += p_hat
        var += p_hat * (1.0 - p_hat) / n_xy

    qber = int(tally[8]) / n
    qber_se = math.sqrt(qber * (1.0 - qber) / n)
    return EstimateReport(
        n_rounds=n,
        chsh_hat=chsh,
        chsh_stderr=math.sqrt(var),
        qber_hat=qber,
        qber_stderr=qber_se,
        p_nl_hat=max(0.0, chsh - 3.0),
    )


def estimate(log: RoundLog) -> EstimateReport:
    """Plug-in CHSH and error-rate estimators with binomial errors.

    The log is tallied one BLOCK_ROUNDS slice at a time, so the count
    arrays stay one block long however long the log is.  The tally is
    exact only on bits, so other values raise DomainError, as do columns
    of different lengths.
    """
    n = len(log)
    if n == 0:
        raise EmptyInput("no rounds to estimate from")
    log._check(indices=False)
    tally = np.zeros(9, dtype=np.int64)
    for start in range(0, n, BLOCK_ROUNDS):
        part = slice(start, start + BLOCK_ROUNDS)
        columns = (log.x[part], log.y[part], log.a[part], log.b[part], log.sifted_a[part])
        _check_bits("estimate", columns)
        tally += _tally(*columns)
    return _report(n, tally)


def stream_estimate(v: float, n: int, seed: int = 0, records=None) -> EstimateReport:
    """estimate(run(v, n, seed)), tallied block by block without keeping the rounds.

    With a ``records`` path, the file receives run(v, n, seed).to_csv(),
    written one block at a time as the blocks are drawn.  Memory stays at
    a few blocks whatever n is.
    """
    n, seed = _as_count("rounds", n, 1), _as_count("seed", seed, 0)  # Python ints, as in run
    strategy = _Strategy(v)
    tally = np.zeros(9, dtype=np.int64)
    with open(records, "w") if records else contextlib.nullcontext() as out:
        if out is not None:
            lines = _csv_lines(strategy.names)
            out.write(_RECORDS_HEADER)
        for x, y, k, a, b, sifted in strategy.blocks(n, seed):
            tally += _tally(x, y, a, b, sifted)
            if out is not None:
                out.write(_csv_block(lines, k, (x, y, a, b, sifted)))
    return _report(n, tally)
