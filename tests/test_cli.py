import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nskd
from nskd import attack, boxes, cli, polytope, rates, simulate
from nskd.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVertices:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(capsys, "vertices")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 25  # header + 24 rows
        assert sum("facet" in line for line in lines) == 8
        assert sum(line.endswith("PR") for line in lines) == 1

    def test_json_output(self, capsys, tmp_path):
        out_file = tmp_path / "vertices.json"
        code, _, _ = run_cli(capsys, "vertices", "--format", "json", "--out", str(out_file))
        assert code == 0
        rows = json.loads(out_file.read_text())
        assert len(rows) == 24
        assert {r["kind"] for r in rows} == {"local", "nonlocal"}


class TestDecompose:
    def test_isotropic_file(self, capsys, tmp_path):
        box_file = tmp_path / "box.json"
        box_file.write_text(boxes.isotropic(0.8).to_json())
        out_file = tmp_path / "dec.json"
        code, out, _ = run_cli(capsys, "decompose", str(box_file), "--out", str(out_file))
        assert code == 0
        printed = float(out.splitlines()[0].split(":")[1])
        assert printed == pytest.approx(0.6, abs=1e-8)
        payload = json.loads(out_file.read_text())
        weights = {e["vertex"]: e["w"] for e in payload["weights"]}
        assert weights["NL:000"] == pytest.approx(0.6, abs=1e-8)
        assert payload["residual"] < 1e-8

    def test_prints_the_certifying_relabeling(self, capsys, tmp_path):
        box_file = tmp_path / "box.json"
        box_file.write_text(boxes.isotropic(0.8).to_json())
        code, out, _ = run_cli(capsys, "decompose", str(box_file))
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "relabeling:      NL:000 (CHSH 3.6000000000000001)"
        assert lines[3] == "vertex    weight"

    def test_bb84_csv_file(self, capsys, tmp_path):
        box_file = tmp_path / "bb84.csv"
        box_file.write_text(boxes.bb84_box().to_csv())
        code, out, _ = run_cli(capsys, "decompose", str(box_file))
        assert code == 0
        weight = float(out.splitlines()[0].split(":")[1])
        assert weight <= 1e-9

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": [0.1, 0.2]}')
        code, _, err = run_cli(capsys, "decompose", str(bad))
        assert code == 2
        assert "error" in err

    def test_signaling_box_exits_two(self, capsys, tmp_path):
        table = np.full(16, 0.25)
        table[0:4] = [1.0, 0.0, 0.0, 0.0]
        bad = tmp_path / "sig.json"
        bad.write_text(json.dumps({"p": table.tolist()}))
        code, _, err = run_cli(capsys, "decompose", str(bad))
        assert code == 2

    def test_unnormalized_box_prints_a_float(self, capsys, tmp_path):
        table = np.full(16, 0.25)
        table[0] = 0.45  # the x=0, y=0 block sums to 1.2
        bad = tmp_path / "unnormalized.json"
        bad.write_text(json.dumps({"p": table.tolist()}))
        code, out, err = run_cli(capsys, "decompose", str(bad))
        assert code == 2
        assert err == "error: P(.,.|x=0,y=0) sums to 1.2\n"
        assert out == ""

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "/nonexistent/box.json")
        assert code == 2

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("dict.json", '{"p": {"a": 1}}', "box entries must be numbers"),
            ("object.json", '{"p": [{"a": 1}]}', "box entries must be numbers"),
            ("no_p.json", '{"q": [0.25]}', '"p" key'),
            ("short.csv", ",".join(boxes.CSV_HEADER) + "\n0.25\n", "shorter than its header"),
            ("list.json", "[0.25, 0.25]", '"p" key'),
            ("deep.json", "[" * 100_000, "nested too deeply"),
            ("wide.csv", ",".join(boxes.CSV_HEADER) + "\n" + "0" * 200_000 + "\n", "box CSV is unreadable"),
            ("huge.json", json.dumps({"p": [10**400] + [0] * 15}), "box entries must be numbers"),
        ],
        ids=["p_dict", "p_object", "no_p", "short_csv_row", "bare_list", "deep_json", "wide_csv_field", "huge_int"],
    )
    def test_unreadable_box_exits_two(self, capsys, tmp_path, name, text, message):
        bad = tmp_path / name
        bad.write_text(text)
        code, _, err = run_cli(capsys, "decompose", str(bad))
        assert code == 2
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, tolerance):
        # every check reads PROB_TOL; the flag is refused, never read
        box_file = tmp_path / "box.json"
        box_file.write_text(boxes.isotropic(0.8).to_json())
        with pytest.raises(SystemExit) as exit_info:
            main(["decompose", str(box_file), "--tolerance", tolerance])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: --tolerance {tolerance}" in err


class TestRates:
    def test_curve_zero_crossings(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys,
            "rates",
            "--grid",
            "0.002",
            "--restarts",
            "1",
            "--out",
            str(out_file),
        )
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(rates.CURVE_COLUMNS)

        def crossing(col):
            for lo, hi in zip(rows, rows[1:]):
                if float(lo[col]) > 0.0 >= float(hi[col]):
                    return 0.5 * (float(lo["d"]) + float(hi["d"]))
            return None

        assert crossing("rate_q0") == pytest.approx(0.034, abs=0.003)
        assert crossing("rate_opt") == pytest.approx(0.063, abs=0.003)
        first = rows[0]
        assert float(first["d"]) == 0.0
        assert float(first["rate_q0"]) == pytest.approx(
            rates.ck_rate(math.sqrt(2.0) - 1.0), abs=1e-12
        )

    def test_rows_ordered_by_grid(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "rates", "--grid", "0.03", "--restarts", "1", "--out", str(out_file)
        )
        with open(out_file) as fh:
            ds = [float(r["d"]) for r in csv.DictReader(fh)]
        assert ds == sorted(ds)

    def test_each_row_is_printed_before_the_next_is_computed(self, capsys, monkeypatch):
        seen = []  # stdout printed before each call of curve_rows

        def one_row_at_a_time(d_values, restarts, seed):
            seen.append(capsys.readouterr().out)
            return compute(d_values, restarts, seed)

        compute = rates.curve_rows
        monkeypatch.setattr(rates, "curve_rows", one_row_at_a_time)
        code = main(["rates", "--grid", "0.05", "--restarts", "1"])
        seen.append(capsys.readouterr().out)
        assert code == 0
        # nothing before the first row, then the header with the first row, then one row per call
        assert [part.count("\n") for part in seen] == [0, 2, 1, 1, 1]
        assert "".join(seen).splitlines()[0] == ",".join(rates.CURVE_COLUMNS)

    def test_rows_equal_one_sweep_over_the_grid(self, capsys, tmp_path):
        out_file = tmp_path / "curve.json"
        argv = ["rates", "--grid", "0.03", "--restarts", "1", "--format", "json", "--out", str(out_file)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        d_values = np.clip(np.arange(0.0, rates.MAX_DISTURBANCE + 0.015, 0.03), 0.0, rates.MAX_DISTURBANCE)
        assert json.loads(out_file.read_text()) == rates.curve_rows(d_values, restarts=1)

    def test_restarts_and_seed_do_not_change_the_sweep(self, capsys, tmp_path):
        outputs = []
        for i, flags in enumerate((["--restarts", "1"], ["--restarts", "8", "--seed", "5"])):
            out_file = tmp_path / f"{i}.csv"
            code, out, _ = run_cli(capsys, "rates", "--grid", "0.03", *flags, "--out", str(out_file))
            assert code == 0
            outputs.append((out, out_file.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_default_sweep_runs_no_descent(self, capsys, tmp_path, monkeypatch):
        # the intrinsic column is the merge channel's exact value, equal to the search's to rounding
        def no_descent(*args):
            raise AssertionError("rates._descend called")

        out_file = tmp_path / "curve.csv"
        with monkeypatch.context() as patch:
            patch.setattr(rates, "_descend", no_descent)
            code, _, _ = run_cli(capsys, "rates", "--out", str(out_file))
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[0] == list(rates.CURVE_COLUMNS) and len(rows) == 31
        for line in rows[1:]:
            row = dict(zip(rates.CURVE_COLUMNS, line))
            p_nl = float(row["p_nl"])
            found = rates.intrinsic_search(attack.table_joint(p_nl), restarts=12, seed=0).value
            assert abs(float(row["intrinsic_numeric"]) - found) <= 1e-15, p_nl
            opt = rates.optimize_preprocessing(p_nl)
            assert row["p_nl"] == repr(rates.disturbance_to_pnl(float(row["d"])))
            assert [row["rate_q0"], row["rate_opt"], row["q_opt"], row["intrinsic_closed"]] == [
                repr(rates.ck_rate(p_nl)),
                repr(opt.rate),
                repr(opt.q_opt),
                repr(rates.intrinsic_closed(p_nl)),
            ]

    # 1e-15 asks numpy for a 1 PiB grid, and that allocation fails at once
    @pytest.mark.parametrize("grid", ["0", "-0.1", "nan", "inf", "1e-15"])
    def test_bad_grid_exits_two(self, capsys, grid):
        code, out, err = run_cli(capsys, "rates", "--grid", grid, "--restarts", "1")
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in out + err


class TestSimulateCommand:
    def test_report_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--visibility",
            "0.8",
            "--rounds",
            "50000",
            "--seed",
            "5",
            "--out",
            str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["n_rounds"] == 50000
        assert abs(payload["qber_hat"] - 0.1) < 0.01

    def test_deterministic_across_invocations(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--rounds", "2000", "--seed", "7")
        _, out2, _ = run_cli(capsys, "simulate", "--rounds", "2000", "--seed", "7")
        assert out1 == out2

    def test_records_file(self, capsys, tmp_path):
        rec_file = tmp_path / "records.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--rounds",
            "100",
            "--records",
            str(rec_file),
        )
        assert code == 0
        lines = rec_file.read_text().strip().splitlines()
        assert lines[0] == "x,y,a,b,e,sifted_a"
        assert len(lines) == 101

    def test_records_file_is_the_run(self, capsys, tmp_path):
        rec_file = tmp_path / "records.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--rounds", "70000", "--seed", "3", "--records", str(rec_file)
        )
        assert code == 0
        assert rec_file.read_bytes() == simulate.run(0.8, 70_000, seed=3).to_csv().encode()

    def test_report_lines_are_pinned(self, capsys):
        # printed by the kernel this command started from, before it streamed
        code, out, _ = run_cli(capsys, "simulate", "--rounds", "1000000", "--seed", "42")
        assert code == 0
        assert out.splitlines() == [
            "rounds:   1000000",
            "chsh_hat: 3.6001851653078201 +- 0.0012",
            "qber_hat: 0.099953 +- 0.0003",
            "p_nl_hat: 0.60018516530782007",
        ]

    def test_streamed_with_or_without_records(self, capsys, tmp_path):
        argv = ("simulate", "--visibility", "0.6", "--rounds", "140000", "--seed", "8")
        _, streamed, _ = run_cli(capsys, *argv)
        _, stored, _ = run_cli(capsys, *argv, "--records", str(tmp_path / "r.csv"))
        assert streamed == stored

    def test_zero_rounds_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--rounds", "0")
        assert code == 2
        assert err == "error: rounds 0 must be at least 1\n"
        assert out == ""

    @staticmethod
    def _child_peak_kb(argv):
        """Run the command in a child; return its stdout lines and its own peak RSS in kB.

        The peak is the child's VmHWM, read inside it: on Linux ru_maxrss
        keeps the forking parent's high-water mark across exec, so it
        reports the test runner's memory when that is larger.
        """
        script = (
            "import sys\n"
            "from nskd import cli\n"
            f"code = cli.main({list(argv)!r})\n"
            "with open('/proc/self/status') as fh:\n"
            "    peak_kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
            "print(code, peak_kb, file=sys.stderr)\n"
        )
        src = str(Path(nskd.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kb = map(int, proc.stderr.split())
        assert code == 0
        return proc.stdout.splitlines(), peak_kb

    def test_long_run_memory_is_bounded(self):
        # the command's own peak RSS, measured inside the child that runs it
        out, peak_kb = self._child_peak_kb(["simulate", "--rounds", "20000000"])
        assert out[0] == "rounds:   20000000"
        assert peak_kb < 150 * 1024

    def test_records_run_memory_is_bounded(self, tmp_path):
        # the records file is written block by block: about 85 MB here, where
        # keeping the rounds and the whole CSV string took about 165 MB
        rec_file = tmp_path / "records.csv"
        argv = ["simulate", "--rounds", "2000000", "--records", str(rec_file)]
        out, peak_kb = self._child_peak_kb(argv)
        assert out[0] == "rounds:   2000000"
        assert rec_file.stat().st_size == 20 + 2_000_000 * 18
        assert peak_kb < 120 * 1024


class TestIntrinsicCommand:
    def test_perfect_monogamy(self, capsys):
        code, out, _ = run_cli(capsys, "intrinsic", "--p-nl", "1.0", "--restarts", "2")
        assert code == 0
        numeric = float(out.splitlines()[2].split(":")[1])
        assert numeric == pytest.approx(1.0, abs=1e-6)

    def test_json_payload(self, capsys, tmp_path):
        out_file = tmp_path / "intrinsic.json"
        code, out, _ = run_cli(
            capsys,
            "intrinsic",
            "--p-nl",
            "0.5",
            "--restarts",
            "2",
            "--out",
            str(out_file),
        )
        payload = json.loads(out_file.read_text())
        assert payload["p_nl"] == 0.5
        assert payload["intrinsic_numeric"] <= payload["upper_bound"] + 1e-9
        assert payload["start"] in (0, 1)
        assert payload["steps"] in (0, rates.EG_STEPS)
        assert f"winning start:     {payload['start']} ({payload['steps']} descent steps)" in out
        joint = attack.sift(attack.attack_from_pnl(0.5))
        certified = rates.cmi_given_channel(joint, rates.Channel(np.array(payload["channel"])))
        assert certified == pytest.approx(payload["intrinsic_numeric"], abs=1e-12)

    @pytest.mark.parametrize("announce", [False, True])
    def test_reference_curve_only_for_the_sifted_table(self, capsys, tmp_path, announce):
        # intrinsic_closed is the sifted table's curve: 0.146 at p_nl = 0.15, where the
        # announce variant's intrinsic information is exactly 0
        out_file = tmp_path / "intrinsic.json"
        argv = ["intrinsic", "--p-nl", "0.15", "--restarts", "2", "--out", str(out_file)]
        code, out, _ = run_cli(capsys, *argv, *(["--announce"] if announce else []))
        assert code == 0
        payload = json.loads(out_file.read_text())
        closed_lines = [line for line in out.splitlines() if line.startswith("intrinsic_closed:")]
        if announce:
            assert closed_lines == [] and "intrinsic_closed" not in payload
            assert payload["intrinsic_numeric"] == pytest.approx(0.0, abs=1e-9)
        else:
            closed = rates.intrinsic_closed(0.15)
            assert closed_lines == [f"intrinsic_closed:  {closed:.17g}"]
            assert list(payload)[:4] == ["p_nl", "announce", "intrinsic_closed", "intrinsic_numeric"]
            assert payload["intrinsic_closed"] == closed

    def test_bad_p_nl_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "intrinsic", "--p-nl", "1.5", "--restarts", "2")
        assert code == 2


class TestAdCommand:
    def test_threshold_output(self, capsys, tmp_path):
        out_file = tmp_path / "ad.json"
        code, out, _ = run_cli(capsys, "ad", "--n-max", "30", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["threshold_estimate"] == pytest.approx(0.2, abs=0.02)
        assert len(payload["per_n_curve"]) == 30
        assert (
            payload["preprocessing_threshold_estimate"] < payload["threshold_estimate"]
        )

    @pytest.mark.parametrize(
        "argv, stdout_sha, out_sha",
        [
            (
                [],
                "ddbcf6213ec079622ccf2885cccfaf29b86e0a2a896be888ca28027f820b18b2",
                "8cce1cfac1e8812513f0de82a9e83df9d9323426981d0dfce4c51e103d97231b",
            ),
            (
                ["--n-max", "511"],
                "7179183e0622aba9a47531a615843ab577db9d0642606aac7be5ee94f6f4c175",
                "3daf3d3dc001a1e1178bd594061e7468353de5064ef65ad9ed37dfc1c43acac2",
            ),
            (
                ["--n-max", "2"],
                "1f6dbcce45dbe6f1ad6c25f1ebe7ba2cdd09c01b6ee75c351e7391624e0d433d",
                "3b10b8409c2840a4904dce9d270caff67324a8fb98c5fe5d6d629e826e23ed0c",
            ),
        ],
        ids=["n_max-30", "n_max-511", "n_max-2"],
    )
    def test_output_is_pinned(self, capsys, tmp_path, argv, stdout_sha, out_sha):
        # SHA-256 of stdout and of --out: a per-n zero that moves by one double fails here, and
        # a deliberate move re-pins both hashes
        out_file = tmp_path / "ad.json"
        code, out, _ = run_cli(capsys, "ad", *argv, "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == out_sha

    def test_one_lockstep_search_serves_both_thresholds(self, capsys, monkeypatch):
        # the plain and the pre-processing zeros are bisected together: 2 x 30 brackets, one search
        searches = []
        search = rates._sign_changes

        def counted(sign_fn, lo, hi):
            searches.append(len(lo))
            return search(sign_fn, lo, hi)

        monkeypatch.setattr(rates, "_sign_changes", counted)
        assert run_cli(capsys, "ad", "--n-max", "30")[0] == 0
        assert searches == [60]

    def test_underflowing_block_length_exits_two(self, capsys):
        # from n = 512 every term of the block rate underflows at p_nl = 1/5
        code, out, err = run_cli(capsys, "ad", "--n-max", "3000")
        assert code == 2
        assert err == "error: n_max 3000 is above 511: a longer block underflows at p_nl = 1/5\n"
        assert out == ""

    def test_documented_block_length_limit(self, capsys):
        # the README's limit, rates.AD_MAX_N: every length up to 511 answers, and 512 is refused
        code, _, _ = run_cli(capsys, "ad", "--n-max", "511")
        assert code == 0
        code, out, err = run_cli(capsys, "ad", "--n-max", "512")
        assert code == 2
        assert err == "error: n_max 512 is above 511: a longer block underflows at p_nl = 1/5\n"
        assert out == ""


def _write_boxes(tmp_path) -> dict:
    """Box files the pinned decompositions read: isotropic(0.8), a seeded local mixture, the PR box."""
    local = np.array([vertex.box.table.ravel() for vertex in polytope.vertices()[:16]])
    texts = {
        "isotropic": boxes.isotropic(0.8).to_json(),
        "local": boxes.validate(np.random.default_rng(11).dirichlet(np.ones(16)) @ local).to_json(),
        "pr": polytope.pr_box_vertex().box.to_json(),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    return {name: str(tmp_path / f"{name}.json") for name in texts} | {"records": str(tmp_path / "records.csv")}


# argv (paths as {name} fields of _write_boxes), then the SHA-256 of stdout and of --out
OUTPUT_PINS = {
    "vertices-csv": (
        ["vertices"],
        "56ce791c27e242b74fa958efdd101f8354b839ce9e3ea4fdf5f96ee7e72ec12b",
        "6bc35ed2831e170408fdd324d6cb74223f3fd8f22f9f834f292777f40093a1ba",
    ),
    "vertices-json": (
        ["vertices", "--format", "json"],
        "56ce791c27e242b74fa958efdd101f8354b839ce9e3ea4fdf5f96ee7e72ec12b",
        "2ac663e1595648f20cdc9e51b97603cc7edb5c874d17628a1d4765a3f4cdc77a",
    ),
    "decompose-isotropic": (
        ["decompose", "{isotropic}"],
        "55fb1662fd832f0a768c8892142eefd36288501a69a9736331d37f97797321dc",
        "d06b65c0e37e6b5733b96f25351af7d05ebc4747c342db97311f22c592f3a03d",
    ),
    "decompose-local": (
        ["decompose", "{local}"],
        "f5254324b141360ee5863e61842bccbb75e7f9fcc737eaba7f4f09c92aa95afe",
        "edccf0179f5dc5b241edb9d2b85a4edf3e32e7fccafa5c97c0085f193b01597f",
    ),
    "decompose-pr": (
        ["decompose", "{pr}"],
        "b8e995eed71b6dace7503f46d33a02d02aec115b39a67c37d8bb4a91f88f880d",
        "bd6da982b8394247e260d8a25a1da979ab355a46dffd7e08b08d43e5fadba298",
    ),
    "rates-csv": (
        ["rates"],
        "f43341f0aff1ca9320fce8c466992d3288d5a77bfaf35361a913ef4afef6090c",
        "f43341f0aff1ca9320fce8c466992d3288d5a77bfaf35361a913ef4afef6090c",
    ),
    "rates-json": (
        ["rates", "--format", "json"],
        "f43341f0aff1ca9320fce8c466992d3288d5a77bfaf35361a913ef4afef6090c",
        "a42502baf3268e91f0fde59f5e160765e548f909adc05b223dfc2cd8fe15a27d",
    ),
    "rates-grid": (
        ["rates", "--grid", "0.03"],
        "5650bd0d8bf8019418fab27027c3562b0040450b20044f5b85116d6afa8d1f84",
        "5650bd0d8bf8019418fab27027c3562b0040450b20044f5b85116d6afa8d1f84",
    ),
    "intrinsic-table": (
        ["intrinsic", "--p-nl", "0.5"],
        "77edd4b8ecf36762234aa6d1282ff37fe653477b2eb82254026ab8fedd1941a7",
        "654441a37b5a0d17cd00fa2a334b85e1d674143a28e2883a39df520af9cf5558",
    ),
    "intrinsic-announce": (
        ["intrinsic", "--p-nl", "0.15", "--announce", "--restarts", "12"],
        "434edaaf587b8afcde6dfa6342f1a014bbb42f0e2868d9e855327f9a4e2ea447",
        "0a897a5e091eb95f95d87d084e7a82b907593f155db4bf69a2333bdd175ae001",
    ),
    "simulate": (
        ["simulate", "--rounds", "300000", "--seed", "5"],
        "ec3ac4500ac7972ab548bc4efb16841e68e87f77468387668dc7186059855311",
        "e7778c70de0cb5f4223b75249891d42ef7551306c74aab0665333357d65e4801",
    ),
    "simulate-records": (
        ["simulate", "--rounds", "300000", "--seed", "5", "--records", "{records}"],
        "ec3ac4500ac7972ab548bc4efb16841e68e87f77468387668dc7186059855311",
        "e7778c70de0cb5f4223b75249891d42ef7551306c74aab0665333357d65e4801",
    ),
}
RECORDS_SHA = "8c306d745e3b595e214230ab0abade968f2f2dbda29380a090f6ba2fbc65ec7b"

# argv of one bad flag per command, and its stderr ({missing} is a path under a directory that is not there)
ERROR_PINS = {
    "vertices": (["vertices", "--out", "{missing}"], "error: [Errno 2] No such file or directory: {missing!r}\n"),
    "decompose": (["decompose", "{missing}"], "error: [Errno 2] No such file or directory: {missing!r}\n"),
    "rates": (["rates", "--grid", "0"], "error: grid step 0.0 must be positive and finite\n"),
    "simulate": (["simulate", "--visibility", "1.5"], "error: visibility 1.5 outside [0, 1]\n"),
    "intrinsic": (["intrinsic", "--p-nl", "1.5"], "error: p_nl 1.5 outside [0, 1]\n"),
    "ad": (["ad", "--n-max", "1"], "error: n_max 1 must be at least 2\n"),
}


class TestEveryCommandIsPinned:
    """SHA-256 of what each command prints and writes, taken before a change that must keep its bits.

    A value that moves by one double fails here, and a deliberate move re-pins its hashes.  The
    pins belong to this platform: the intrinsic search's channel goes through ``ndarray.dot`` and
    the rates through libm, as the ``nskd ad`` pins go through libm's ``pow``.
    """

    @pytest.mark.parametrize("name", list(OUTPUT_PINS))
    def test_output_is_pinned(self, capsys, tmp_path, name):
        argv, stdout_sha, out_sha = OUTPUT_PINS[name]
        paths = _write_boxes(tmp_path)
        out_file = tmp_path / "out"
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv), "--out", str(out_file))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == out_sha
        if "--records" in argv:
            assert hashlib.sha256(Path(paths["records"]).read_bytes()).hexdigest() == RECORDS_SHA

    @pytest.mark.parametrize("name", list(ERROR_PINS))
    def test_bad_flag_is_pinned(self, capsys, tmp_path, name):
        argv, message = ERROR_PINS[name]
        missing = str(tmp_path / "missing" / "file")
        code, _, err = run_cli(capsys, *(arg.format(missing=missing) for arg in argv))
        assert code == 2
        assert err == message.format(missing=missing)


class TestFlagPlacement:
    def test_flags_accepted_after_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--rounds", "1000", "--seed", "1")
        assert code == 0

    def test_flags_accepted_before_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "--seed", "1", "simulate", "--rounds", "1000")
        assert code == 0

    @pytest.mark.parametrize(
        "before, after",
        [
            (["--format", "json", "vertices"], ["vertices", "--format", "json"]),
            (["--seed", "4", "simulate", "--rounds", "20000"], ["simulate", "--rounds", "20000", "--seed", "4"]),
        ],
        ids=["vertices", "simulate"],
    )
    def test_flag_before_subcommand_takes_effect(self, capsys, tmp_path, before, after):
        outputs = []
        for i, argv in enumerate((before, after, after[:-2])):
            out_file = tmp_path / f"{i}.out"
            assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]  # the last run leaves the flag out

    @pytest.mark.parametrize("argv", [["--help"], ["ad", "--help"], ["rates", "--help"]], ids=["top", "ad", "rates"])
    def test_help_says_which_commands_read_grid_and_format(self, capsys, argv):
        # as the README says: only rates reads --grid, and only vertices and rates read --format
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
        assert "--grid GRID sweep resolution, positive; only rates reads it" in text
        assert (
            "--format {csv,json} format of --out; only vertices and rates read it, the others always write JSON"
            in text
        )

    def test_calls_share_no_flag_state(self, capsys, tmp_path):
        # main builds its parser once per process, and each call still starts from the defaults
        json_file, csv_file = tmp_path / "v.json", tmp_path / "v.csv"
        assert run_cli(capsys, "--format", "json", "vertices", "--out", str(json_file))[0] == 0
        assert run_cli(capsys, "vertices", "--out", str(csv_file))[0] == 0
        assert run_cli(capsys, "vertices", "--format", "json")[0] == 0  # no --out: nothing written
        assert len(json.loads(json_file.read_text())) == 24
        assert csv_file.read_text().startswith("vertex,kind,chsh,flag\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.csv", "v.json"]
        assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1"],
        ["intrinsic", "--p-nl", "0.5", "--seed", "-1"],
        ["rates", "--grid", "0.2", "--seed", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == "error: seed -1 must be at least 0\n"
    assert out == ""


@pytest.mark.parametrize("argv", [["vertices"], ["ad", "--n-max", "5"]], ids=lambda argv: argv[0])
def test_commands_without_randomness_ignore_the_seed(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 0
    assert err == ""


# nskd.* modules each start holds after it ran; each command imports what it runs
_CLI = {"nskd.boxes", "nskd.cli", "nskd.exceptions"}
_ATTACK = _CLI | {"nskd.attack", "nskd.info", "nskd.polytope"}
COLD_STARTS = {
    "import": (None, set()),
    "vertices": (["vertices"], _CLI | {"nskd.polytope"}),
    "decompose": (["decompose", "{box}"], _CLI | {"nskd.polytope"}),
    "rates": (["rates", "--grid", "0.2", "--restarts", "1"], _ATTACK | {"nskd.rates"}),
    "simulate": (["simulate", "--rounds", "1000"], _ATTACK | {"nskd.simulate"}),
    "intrinsic": (["intrinsic", "--p-nl", "0.5", "--restarts", "2"], _ATTACK | {"nskd.rates"}),
    "ad": (["ad", "--n-max", "5"], _ATTACK | {"nskd.rates"}),
}


@pytest.mark.parametrize("start", list(COLD_STARTS))
def test_cold_start_loads_only_what_it_runs(start, tmp_path):
    # scipy costs most of a cold start, and every command runs on numpy alone
    argv, expected = COLD_STARTS[start]
    box_file = tmp_path / "box.json"
    box_file.write_text(boxes.isotropic(0.8).to_json())
    script = (
        "import json, sys\n"
        "import nskd\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    from nskd import cli\n"
        "    assert cli.main(argv) == 0\n"
        "print(json.dumps({\n"
        "    'nskd': sorted(m for m in sys.modules if m.startswith('nskd.')),\n"
        "    'scipy': sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),\n"
        "}))\n"
    )
    if argv is not None:
        argv = [arg.format(box=box_file) for arg in argv]
    src = str(Path(nskd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["scipy"] == []
    assert set(loaded["nskd"]) == expected
