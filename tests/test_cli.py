import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nskd
from nskd import attack, boxes, rates, simulate
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

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "/nonexistent/box.json")
        assert code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, tolerance):
        box_file = tmp_path / "box.json"
        box_file.write_text(boxes.isotropic(0.8).to_json())
        code, _, err = run_cli(capsys, "decompose", str(box_file), "--tolerance", tolerance)
        assert code == 2
        assert err.startswith("error:") and "tolerance" in err


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

    @pytest.mark.parametrize("grid", ["0", "-0.1", "nan", "inf"])
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
        assert err == "error: need at least one round\n"
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
        code, _, _ = run_cli(
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
        joint = attack.sift(attack.attack_from_pnl(0.5))
        certified = rates.cmi_given_channel(joint, rates.Channel(np.array(payload["channel"])))
        assert certified == pytest.approx(payload["intrinsic_numeric"], abs=1e-12)

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

    def test_underflowing_block_length_exits_two(self, capsys):
        # past n ~ 510 every term of the block rate underflows near p_nl = 1/5
        code, out, err = run_cli(capsys, "ad", "--n-max", "3000")
        assert code == 2
        assert re.match(r"error: block length \d+ at p_nl [0-9.]+ underflows", err)
        assert out == ""


class TestFlagPlacement:
    def test_flags_accepted_after_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--rounds", "1000", "--seed", "1")
        assert code == 0

    def test_flags_accepted_before_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "--seed", "1", "simulate", "--rounds", "1000")
        assert code == 0
