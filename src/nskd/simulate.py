"""Round-level Monte Carlo simulation of the protocol under attack.

Each round draws uniform settings, lets the eavesdropper pick an extreme
point from her optimal mixture, samples outcomes from that point, and
applies the reconciliation flip.  Generation is blocked: block j of a
run is seeded by (seed, j), so shards computed in parallel reproduce the
serial stream exactly and merging is plain concatenation.

Within a block the vertex is the number of cumulative mixture weights
at or below a uniform draw, and every outcome is one lookup in a table
over (vertex, x, y, coin).  ``run`` keeps the rounds, at 7 bytes per
round; ``estimate`` tallies a log one block at a time; ``stream_estimate``
tallies the same blocks as they are drawn, and can write their records
CSV as it goes, and keeps none, so its memory does not grow with the
number of rounds.  ``nskd simulate`` always streams: 20 million rounds
take about 1.7 s and peak at about 80 MB RSS (2 cores, Python 3.11),
against 3.5-4.3 s and 347 MB when the rounds were kept.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import attack as attack_mod
from .exceptions import DomainError, EmptyInput

BLOCK_ROUNDS = 1 << 16


@dataclass(frozen=True)
class RoundRecord:
    x: int
    y: int
    a: int
    b: int
    eve_label: str  # canonical name of the prepared vertex
    sifted_a: int


class RoundLog:
    """Columnar store of simulated rounds.

    Behaves like a sequence of RoundRecord but keeps numpy arrays
    internally so million-round runs stay cheap: x, y, a, b and sifted_a
    hold bits (int8) and vertex_index indexes vertex_names (int16), 7
    bytes per round.
    """

    def __init__(self, x, y, a, b, vertex_index, sifted_a, vertex_names):
        self.x = x
        self.y = y
        self.a = a
        self.b = b
        self.vertex_index = vertex_index
        self.sifted_a = sifted_a
        self.vertex_names = tuple(vertex_names)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int) -> RoundRecord:
        return RoundRecord(
            x=int(self.x[i]),
            y=int(self.y[i]),
            a=int(self.a[i]),
            b=int(self.b[i]),
            eve_label=self.vertex_names[self.vertex_index[i]],
            sifted_a=int(self.sifted_a[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def to_csv(self) -> str:
        """The rounds as csv.writer writes them, one looked-up line per round.

        Lines are looked up one BLOCK_ROUNDS slice at a time, so the
        lookup keys stay one block long however long the log is.
        """
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


def _csv_block(lines, k, bits) -> str:
    """The records lines of one block: vertex indices k, bits (x, y, a, b, sifted_a)."""
    if any(np.any(col & ~1) for col in bits):
        raise DomainError("records columns x, y, a, b and sifted_a must hold bits")
    key = k.astype(np.intp) << 5
    for shift, col in zip((4, 3, 2, 1, 0), bits):
        key |= col.astype(np.intp) << shift
    return "".join(lines[key].tolist())


class _Strategy:
    """Eve's preparation at visibility v as tables over (vertex, x, y, coin).

    Flat index (k << 3) | (x << 2) | (y << 1) | coin gives Alice's and
    Bob's outcomes and Alice's sifted bit when Eve prepares vertex k.
    """

    def __init__(self, v: float):
        components = attack_mod.optimal_attack(v).components
        self.names = [vert.name for vert, _ in components]
        # u falls in bin k = #{j : cumulative[j] <= u}; the last edge is 1 > u
        self.edges = np.cumsum([w for _, w in components])[:-1]
        x, y, coin = np.indices((2, 2, 2), dtype=np.int8)
        a = np.empty((len(components), 2, 2, 2), dtype=np.int8)
        b = np.empty_like(a)
        for k, (vert, _) in enumerate(components):
            if vert.is_local:
                alpha, beta, gamma, delta = vert.params
                a[k] = (alpha & x) ^ beta
                b[k] = (gamma & y) ^ delta
            else:
                alpha, beta, gamma = vert.params
                a[k] = coin
                b[k] = coin ^ (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
        self.a = a.ravel()
        self.b = b.ravel()
        self.sifted_a = (a ^ (x & y)).ravel()

    def blocks(self, n: int, seed: int, first_round: int = 0):
        """Per block, (x, y, k, index) of the rounds [first_round, first_round + n) in it.

        Every block draws x, y, u and the coin for all its BLOCK_ROUNDS
        rounds from its own (seed, block index) sequence, in that order,
        and then keeps the part inside the window.
        """
        lo_block = first_round // BLOCK_ROUNDS
        hi_block = (first_round + n - 1) // BLOCK_ROUNDS
        for block in range(lo_block, hi_block + 1):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(block,))
            )
            x = rng.integers(0, 2, size=BLOCK_ROUNDS, dtype=np.int8)
            y = rng.integers(0, 2, size=BLOCK_ROUNDS, dtype=np.int8)
            u = rng.random(BLOCK_ROUNDS)
            coin = rng.integers(0, 2, size=BLOCK_ROUNDS, dtype=np.int8)

            base = block * BLOCK_ROUNDS
            window = slice(max(first_round - base, 0), min(first_round + n - base, BLOCK_ROUNDS))
            x, y, u, coin = x[window], y[window], u[window], coin[window]
            k = np.zeros(len(u), dtype=np.int16)
            for edge in self.edges:
                k += u >= edge
            yield x, y, k, (k << 3) | (x << 2) | (y << 1) | coin


def _check_rounds(n: int, first_round: int = 0) -> None:
    if n < 1:
        raise DomainError("need at least one round")
    if first_round < 0:
        raise DomainError("first_round must be nonnegative")


def run(v: float, n: int, seed: int = 0, first_round: int = 0) -> RoundLog:
    """Simulate rounds [first_round, first_round + n) of a seeded stream.

    The stream is defined blockwise, each block fully generated from its
    own (seed, block index) sequence, so any window of it is identical
    whether produced serially or by parallel shards; merging shards is
    plain concatenation.
    """
    _check_rounds(n, first_round)
    strategy = _Strategy(v)
    x, y, a, b, sifted = (np.empty(n, dtype=np.int8) for _ in range(5))
    k = np.empty(n, dtype=np.int16)
    stop = 0
    for bx, by, bk, index in strategy.blocks(n, seed, first_round):
        part = slice(stop, stop + len(bk))
        stop = part.stop
        x[part], y[part], k[part] = bx, by, bk
        for table, out in ((strategy.a, a), (strategy.b, b), (strategy.sifted_a, sifted)):
            np.take(table, index, out=out[part])
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
        return json.dumps(
            {
                "n_rounds": self.n_rounds,
                "chsh_hat": self.chsh_hat,
                "chsh_stderr": self.chsh_stderr,
                "qber_hat": self.qber_hat,
                "qber_stderr": self.qber_stderr,
                "p_nl_hat": self.p_nl_hat,
            }
        )


def _tally(x, y, a, b, sifted_a) -> np.ndarray:
    """Rounds per (x, y, a != b) at index (x << 2) | (y << 1) | (a != b), then errors."""
    cells = np.bincount((x << 2) | (y << 1) | (a != b), minlength=8)
    return np.append(cells, np.count_nonzero(sifted_a != b))


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
    arrays stay one block long however long the log is.
    """
    n = len(log)
    if n == 0:
        raise EmptyInput("no rounds to estimate from")
    tally = np.zeros(9, dtype=np.int64)
    for start in range(0, n, BLOCK_ROUNDS):
        part = slice(start, start + BLOCK_ROUNDS)
        tally += _tally(log.x[part], log.y[part], log.a[part], log.b[part], log.sifted_a[part])
    return _report(n, tally)


def stream_estimate(v: float, n: int, seed: int = 0, records=None) -> EstimateReport:
    """estimate(run(v, n, seed)), tallied block by block without keeping the rounds.

    With a ``records`` path, the file receives run(v, n, seed).to_csv(),
    written one block at a time as the blocks are drawn.  Memory stays at
    a few blocks whatever n is.
    """
    _check_rounds(n)
    strategy = _Strategy(v)
    tally = np.zeros(9, dtype=np.int64)
    with open(records, "w") if records else contextlib.nullcontext() as out:
        if out is not None:
            lines = _csv_lines(strategy.names)
            out.write(_RECORDS_HEADER)
        for x, y, k, index in strategy.blocks(n, seed):
            a, b, sifted = (np.take(t, index) for t in (strategy.a, strategy.b, strategy.sifted_a))
            tally += _tally(x, y, a, b, sifted)
            if out is not None:
                out.write(_csv_block(lines, k, (x, y, a, b, sifted)))
    return _report(n, tally)
