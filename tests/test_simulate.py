import csv
import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from nskd import attack, simulate
from nskd.exceptions import DomainError, EmptyInput

FIELDS = ("x", "y", "a", "b", "vertex_index", "sifted_a")
REPORT_FIELDS = ("chsh_hat", "chsh_stderr", "qber_hat", "qber_stderr", "p_nl_hat")


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


class TestRun:
    def test_deterministic_given_seed(self):
        a = simulate.run(0.8, 5000, seed=11)
        b = simulate.run(0.8, 5000, seed=11)
        for field in ("x", "y", "a", "b", "vertex_index", "sifted_a"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seeds_differ(self):
        a = simulate.run(0.8, 5000, seed=1)
        b = simulate.run(0.8, 5000, seed=2)
        assert not np.array_equal(a.a, b.a)

    def test_block_split_is_invisible(self):
        # one run crossing a block boundary equals its per-block pieces
        n = simulate.BLOCK_ROUNDS + 1234
        log = simulate.run(0.7, n, seed=5)
        head = simulate.run(0.7, simulate.BLOCK_ROUNDS, seed=5)
        assert np.array_equal(log.x[: simulate.BLOCK_ROUNDS], head.x)
        assert np.array_equal(log.a[: simulate.BLOCK_ROUNDS], head.a)

    def test_shards_reproduce_serial_stream(self):
        serial = simulate.run(0.8, 10_000, seed=13)
        pieces = [
            simulate.run(0.8, 3_000, seed=13, first_round=0),
            simulate.run(0.8, 4_500, seed=13, first_round=3_000),
            simulate.run(0.8, 2_500, seed=13, first_round=7_500),
        ]
        for field in ("x", "y", "a", "b", "vertex_index", "sifted_a"):
            merged = np.concatenate([getattr(p, field) for p in pieces])
            assert np.array_equal(getattr(serial, field), merged)

    def test_shard_across_block_boundary(self):
        around = simulate.BLOCK_ROUNDS - 50
        serial = simulate.run(0.6, around + 200, seed=3)
        shard = simulate.run(0.6, 200, seed=3, first_round=around)
        assert np.array_equal(serial.a[around:], shard.a)
        assert np.array_equal(serial.b[around:], shard.b)

    def test_sifting_rule(self):
        log = simulate.run(0.6, 20000, seed=3)
        flip = (log.x == 1) & (log.y == 1)
        assert np.array_equal(log.sifted_a[flip], log.a[flip] ^ 1)
        assert np.array_equal(log.sifted_a[~flip], log.a[~flip])

    def test_perfect_visibility_gives_perfect_key(self):
        log = simulate.run(1.0, 30000, seed=9)
        assert (log.sifted_a == log.b).all()

    def test_record_interface(self):
        log = simulate.run(0.9, 100, seed=0)
        rec = log[7]
        assert rec.x in (0, 1) and rec.b in (0, 1)
        assert rec.sifted_a == rec.a ^ (rec.x & rec.y)
        assert rec.eve_label.startswith(("L:", "NL:"))
        assert len(list(iter(log))) == 100

    def test_rejects_empty_run(self):
        with pytest.raises(DomainError):
            simulate.run(0.8, 0)


class TestEstimate:
    def test_chsh_exact_at_full_visibility(self):
        rep = simulate.estimate(simulate.run(1.0, 40000, seed=2))
        assert rep.chsh_hat == 4.0
        assert rep.p_nl_hat == 1.0

    def test_statistics_converge(self):
        n = 200_000
        rep = simulate.estimate(simulate.run(0.8, n, seed=17))
        assert abs(rep.qber_hat - 0.1) < 4 * rep.qber_stderr
        assert abs(rep.chsh_hat - 3.6) < 4 * rep.chsh_stderr
        assert abs(rep.p_nl_hat - 0.6) < 4 * rep.chsh_stderr

    def test_local_boundary_estimate_shrinks(self):
        rep = simulate.estimate(simulate.run(0.5, 400_000, seed=23))
        assert rep.p_nl_hat < 0.01

    def test_conditional_frequencies_match_box(self):
        from nskd.boxes import isotropic

        v = 0.75
        log = simulate.run(v, 400_000, seed=31)
        box = isotropic(v)
        worst = 0.0
        for sx, sy in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sel = (log.x == sx) & (log.y == sy)
            n_xy = int(sel.sum())
            for a in (0, 1):
                for b in (0, 1):
                    freq = float(((log.a[sel] == a) & (log.b[sel] == b)).mean())
                    p = box.prob(a, b, sx, sy)
                    se = max(np.sqrt(p * (1 - p) / n_xy), 1e-6)
                    worst = max(worst, abs(freq - p) / se)
        assert worst < 5.0

    def test_eve_symbol_frequencies_match_table(self):
        p_nl = 0.6
        log = simulate.run((1 + p_nl) / 2, 400_000, seed=41)
        joint = attack.table_joint(p_nl)
        # blank rounds are exactly the nonlocal preparations
        blank = np.array(
            [name.startswith("NL") for name in log.vertex_names], dtype=bool
        )
        freq_blank = float(blank[log.vertex_index].mean())
        se = np.sqrt(p_nl * (1 - p_nl) / len(log))
        assert abs(freq_blank - p_nl) < 5 * se
        # and the sifted pair distribution matches the table marginal
        ab = joint.ab_marginal()
        for a in (0, 1):
            for b in (0, 1):
                freq = float(((log.sifted_a == a) & (log.b == b)).mean())
                se = max(np.sqrt(ab[a, b] * (1 - ab[a, b]) / len(log)), 1e-6)
                assert abs(freq - ab[a, b]) < 5 * se

    def test_empty_estimate_raises(self):
        log = simulate.run(0.8, 10, seed=0)
        log.x = log.x[:0]
        with pytest.raises(EmptyInput):
            simulate.estimate(log)

    def test_report_serialization(self):
        import json

        rep = simulate.estimate(simulate.run(0.8, 1000, seed=1))
        payload = json.loads(rep.to_json())
        assert payload["n_rounds"] == 1000
        assert 0.0 <= payload["qber_hat"] <= 1.0

    def test_records_csv(self):
        log = simulate.run(0.8, 50, seed=1)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "x,y,a,b,e,sifted_a"
        assert len(lines) == 51


class TestStreamEstimate:
    @pytest.mark.parametrize(
        "v, n, seed",
        [
            (0.3, 1000, 1),
            (0.8, simulate.BLOCK_ROUNDS + 1234, 2),
            (0.0, 5000, 3),
            (1.0, 4000, 4),
            (0.6, 3 * simulate.BLOCK_ROUNDS, 5),
            (0.75, 200_001, 6),
        ],
    )
    def test_equals_estimate_of_run(self, v, n, seed):
        streamed = simulate.stream_estimate(v, n, seed=seed)
        stored = simulate.estimate(simulate.run(v, n, seed=seed))
        for field in ("n_rounds", *REPORT_FIELDS):
            assert getattr(streamed, field) == getattr(stored, field), field

    def test_records_file_is_to_csv_of_run(self, tmp_path):
        path = tmp_path / "records.csv"
        n = 2 * simulate.BLOCK_ROUNDS + 17
        streamed = simulate.stream_estimate(0.3, n, seed=9, records=path)
        log = simulate.run(0.3, n, seed=9)
        assert streamed == simulate.estimate(log)
        assert path.read_bytes() == log.to_csv().encode()

    def test_same_errors_as_estimate_of_run(self):
        with pytest.raises(DomainError):
            simulate.stream_estimate(0.8, 0)
        with pytest.raises(DomainError):
            simulate.stream_estimate(1.5, 10)
        with pytest.raises(EmptyInput, match="no rounds with settings x=0, y=1"):
            simulate.stream_estimate(0.7, 1, seed=5)

    def test_memory_stays_bounded(self):
        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2_000_000
        # the kept log costs 7 bytes per round; the streamed tally a few blocks
        assert traced_peak(lambda: simulate.run(0.8, n, seed=1)) > 7 * n
        assert traced_peak(lambda: simulate.stream_estimate(0.8, n, seed=1)) < 4_000_000


class TestRecordsCsv:
    NAMES = ("L:0000", "L:0101", "NL:000", "a,b", 'say "hi"', "", "two\nlines", " pad ", "L:1111")

    def _oracle(self, log) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x", "y", "a", "b", "e", "sifted_a"])
        for i in range(len(log)):
            writer.writerow(
                [
                    log.x[i],
                    log.y[i],
                    log.a[i],
                    log.b[i],
                    log.vertex_names[log.vertex_index[i]],
                    log.sifted_a[i],
                ]
            )
        return buf.getvalue()

    def _log(self, n=4000):
        rng = np.random.default_rng(99)
        x, y, a, b, sifted = rng.integers(0, 2, size=(5, n), dtype=np.int8)
        k = rng.integers(0, len(self.NAMES), size=n).astype(np.int16)
        return simulate.RoundLog(x, y, a, b, k, sifted, self.NAMES)

    def test_equals_csv_writer(self):
        log = self._log()
        # the stored sifted bit is written as it is, not rebuilt from a, x and y
        assert (log.sifted_a != log.a ^ (log.x & log.y)).any()
        assert set(log.vertex_index.tolist()) == set(range(len(self.NAMES)))
        assert log.to_csv() == self._oracle(log)

    def test_empty_log_is_the_header(self):
        log = self._log(0)
        assert log.to_csv() == "x,y,a,b,e,sifted_a\r\n" == self._oracle(log)

    def test_rejects_columns_that_are_not_bits(self):
        log = self._log(10)
        log.b = log.b.copy()
        log.b[3] = 2
        with pytest.raises(DomainError, match="must hold bits"):
            log.to_csv()


# sha256 and dtype of every RoundLog column, the records CSV and the exact
# estimate of seeded runs, as produced by the searchsorted-and-gather kernel
# this module started from: a rewrite of the round kernel, the estimator or
# the CSV writer must keep the stream bit for bit.
_B = simulate.BLOCK_ROUNDS
PINNED_STREAMS = {
    "local v=0.3": {
        "args": (0.3, 5000, 1, 0),
        "columns": {
            "x": ("int8", "81b0c70635548c007d84bd41337228a294abd633625340d95a20f17998e393fb"),
            "y": ("int8", "cde0f6f4123cfc3f08e501a6fc627214f2c90e2184e89d20f372aecbb4c84e89"),
            "a": ("int8", "cc1a3ad6caa6f87ce0396db48932c57bd133ff33eda96f7ee7ac330d8661c16f"),
            "b": ("int8", "dc4db4c0801abb1f3b5b9b581f88ed580a46ce67cd49133efb05d13089365edc"),
            "vertex_index": ("int16", "c7670346ffec67e17f6cbdecdd8523112cbf826b60c27d56dee2045eac29c9fb"),
            "sifted_a": ("int8", "aad1866cd14e0cf696871ea834a5ff339b79e5034a125be49c1dad09e11f67cb"),
        },
        "csv": "e90135fa675cd085947b81f8c31a78d30e5138953b11e7678ad8670476ef05e1",
        "report": (
            5000,
            ("0x1.4a51134dae7bcp+1", "0x1.bba574345c51cp-6", "0x1.6b851eb851eb8p-2",
             "0x1.bb7ec8016fe34p-8", "0x0.0p+0"),
        ),
    },
    "nonlocal v=0.8": {
        "args": (0.8, 5000, 2, 0),
        "columns": {
            "x": ("int8", "8cd243131f610a6b533708cd081fc93d1f5c5b4243ad967a1cd76264c75ea6d5"),
            "y": ("int8", "198300e479ef600f83beda4130983716f36537582863348f43a4f822f648d78f"),
            "a": ("int8", "9641a37e9f9c1e35469c907453211faf47d79ffc1ecd3c774241b9cc5cd48f48"),
            "b": ("int8", "7d25b70e3be0afc0aca6e9ad9d5bedc8f3a5b5e2703e7c0789ddabad98ce7ca7"),
            "vertex_index": ("int16", "929479d7c860576b3ad9700def36381730b6d96d8a8c4393be609898dc2f13af"),
            "sifted_a": ("int8", "62cfd8c1761f5bc438f34b4a0fe166c3b92162f426a48b149d9f3678d11b3f27"),
        },
        "csv": "cb52f25262008c0f4229480a6895f61bd89e4d7d83df8a4af29cef938cfbd369",
        "report": (
            5000,
            ("0x1.ce2040449ccd7p+1", "0x1.12e94a03a0985p-6", "0x1.8ef34d6a161e5p-4",
             "0x1.12cdaa5e5ef49p-8", "0x1.388101127335cp-1"),
        ),
    },
    "v=0": {
        "args": (0.0, 3000, 3, 0),
        "columns": {
            "x": ("int8", "33442c8c74ef6d586ccea5a3a176ca76e753599011310faebab956e26cc4c9b4"),
            "y": ("int8", "49e8b6c81e94eb6cabefb3014179ef1ad49ba807ce95725023e20bc4f5ba24e8"),
            "a": ("int8", "c41731a646fb44835df1db35bde6af6186a71a599222ce23205db9ade81250b3"),
            "b": ("int8", "16f4c680fba03a34abeb527d30ced4a26c1e2a834e3866f1b92a9af7b4b45002"),
            "vertex_index": ("int16", "39237718109e1ea2d7617ddef2f181b0a50df2fc574268d916e9249346110e01"),
            "sifted_a": ("int8", "07b229cb138478e8a1533aca4e804b18634eae2c74f15a8949a2519511abc0a2"),
        },
        "csv": "ac2896a86a7907a4a28e8c6474e85b1bd6830a196e2bfe31ad6116338e9d5876",
        "report": (
            3000,
            ("0x1.f7facbc125ba5p+0", "0x1.2b3dd46b50b3dp-5", "0x1.03ece2a53490cp-1",
             "0x1.2b18294406d54p-7", "0x0.0p+0"),
        ),
    },
    "v=1": {
        "args": (1.0, 3000, 4, 0),
        "columns": {
            "x": ("int8", "31d5315e19a86a9fd8b56c3bcbd4bca9dedbda42a0bfcc782d35eebeb33db20b"),
            "y": ("int8", "9cd6b96db6c65928ca191c0a6cc8200126f850856b3a02d0c8509a9ed4cbc16f"),
            "a": ("int8", "49aea7ce595e7188de070d577caee8c63fda4f405840fd2bc6c7ba91fa77eee4"),
            "b": ("int8", "7b3257df094b325d480ce49bca0ae9259499322c7cdb8214bcde82842271b1b3"),
            "vertex_index": ("int16", "a6bedce1e512d6531cd02fe7a0b72bb64f229cdb254ec48d63308877004e620a"),
            "sifted_a": ("int8", "7b3257df094b325d480ce49bca0ae9259499322c7cdb8214bcde82842271b1b3"),
        },
        "csv": "8b66d1fe95471188098f2841767fd4d0b8fb9c0848c4babca99cbb0ea3849af0",
        "report": (
            3000,
            ("0x1.0000000000000p+2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
        ),
    },
    "n=1": {
        "args": (0.7, 1, 5, 0),
        "columns": {
            "x": ("int8", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
            "y": ("int8", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
            "a": ("int8", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
            "b": ("int8", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
            "vertex_index": ("int16", "e545d395bb3fd971f91bf9a2b6722831df704efae6c1aa9da0989ed0970b77bb"),
            "sifted_a": ("int8", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
        },
        "csv": "e74ebbe40d99a45752e0788ae716069e3521f45d4feb16a4e4ec1c7de577dfc4",
        "report": None,  # one round leaves three settings empty
    },
    "window across a block boundary": {
        "args": (0.6, 300, 6, _B - 100),
        "columns": {
            "x": ("int8", "35ce6c0cfd6c1600dc5bc1e2e3a573bc7fa95a0c938e02c8f1110da53ae01940"),
            "y": ("int8", "1fc5db88b78e901358691dcd0089c8fd4dcf01991c557453a4b2e2351b1c0342"),
            "a": ("int8", "de80057e548aa5bf6b48254032cb66a2e09a58c822fd5c3d98a3b9ddab23c0ed"),
            "b": ("int8", "b1322ed2d8efe5417379095cd2e788b7cc8adfb1797b5c4711b56890b122a4bc"),
            "vertex_index": ("int16", "f787463285e519f9118d3bb8afe67a11b6644d1ec7c8b0e38feafd455defef6e"),
            "sifted_a": ("int8", "e47d51e3b60ec5036f4e27346caacba3f5b6e5d52918732129d7340243a125a8"),
        },
        "csv": "42f8eddc016060518de54d38cb6257514f38c7d18544d6091f489973d12ff20c",
        "report": (
            300,
            ("0x1.a5bd8b3dfe37cp+1", "0x1.673bf4e04fd58p-4", "0x1.69d0369d0369dp-3",
             "0x1.68c3daeb8f94cp-6", "0x1.2dec59eff1be0p-2"),
        ),
    },
    "200000 rounds": {
        "args": (0.75, 200_000, 7, 0),
        "columns": {
            "x": ("int8", "3a4620a5d8019c26f282ad1d76250af0b1d3f367529646f2be0a317a00a5068d"),
            "y": ("int8", "e6a721b741dd56cc0c9ff211c8457c4b545e8f746d651f9285f3a447259f6dd5"),
            "a": ("int8", "456dedc213a5886134387ce0bfa100902e67e871543d0aea05f734d3dbd3d6f0"),
            "b": ("int8", "d805d220f707b0baae5fc51fd9b75a799d19967683fdf29fa21b238a28f63d26"),
            "vertex_index": ("int16", "ad0e9c56ae4e51a75ec086f199e82f78c1f29ed6fdb6bd2a9556cdb01552ab6a"),
            "sifted_a": ("int8", "f3fbc975dda49848d67a91d0a264366708186a7d42d645c13cf038bdf0cd8add"),
        },
        "csv": "631e1c80feacf0b87ec487c83762b688889143f56185b76d312f292245209890",
        "report": (
            200_000,
            ("0x1.bfbd4def3974fp+1", "0x1.8465e02700e7bp-9", "0x1.0108c3f3e0371p-3",
             "0x1.8462f01aa207dp-11", "0x1.fdea6f79cba78p-2"),
        ),
    },
}


class TestPinnedStream:
    @pytest.mark.parametrize("case", list(PINNED_STREAMS))
    def test_columns(self, case):
        pin = PINNED_STREAMS[case]
        v, n, seed, first = pin["args"]
        log = simulate.run(v, n, seed=seed, first_round=first)
        got = {f: (str(getattr(log, f).dtype), _sha(getattr(log, f).tobytes())) for f in FIELDS}
        assert got == pin["columns"]

    @pytest.mark.parametrize("case", list(PINNED_STREAMS))
    def test_records_csv(self, case):
        pin = PINNED_STREAMS[case]
        v, n, seed, first = pin["args"]
        log = simulate.run(v, n, seed=seed, first_round=first)
        assert _sha(log.to_csv().encode()) == pin["csv"]

    @pytest.mark.parametrize("case", list(PINNED_STREAMS))
    def test_estimate(self, case):
        pin = PINNED_STREAMS[case]
        v, n, seed, first = pin["args"]
        log = simulate.run(v, n, seed=seed, first_round=first)
        if pin["report"] is None:
            with pytest.raises(EmptyInput, match="no rounds with settings x=0, y=1"):
                simulate.estimate(log)
            return
        rep = simulate.estimate(log)
        n_rounds, hexes = pin["report"]
        assert rep.n_rounds == n_rounds
        assert tuple(float.hex(getattr(rep, f)) for f in REPORT_FIELDS) == hexes
