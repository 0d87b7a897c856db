"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mfroots
from mfroots.cli import main
from mfroots.io import load_mf, load_recipe

from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_j3_report(self, capsys):
        code, out, _ = run(capsys, "analyze", data_path("j3_target.mf"))
        assert code == 0
        assert "jumps: 1/2 3/4 1" in out
        assert "class[1]: J3 ell=1" in out
        assert "intensity: 1" in out
        assert "hypothesis-H: holds" in out

    def test_growth_report(self, capsys):
        code, out, _ = run(capsys, "analyze", data_path("growth_target.mf"))
        assert code == 0
        assert "intensity: 2" in out
        assert "delta: none" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "analyze", data_path("chain_target.mf"))
        _, out2, _ = run(capsys, "analyze", data_path("chain_target.mf"))
        assert out1 == out2


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", data_path("square_target.mf"),
                           data_path("square_root.mf"), "--order", "2")
        assert code == 0 and "pass" in out

    def test_fail_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", data_path("square_target.mf"),
                           data_path("square_root.mf"), "--order", "3")
        assert code == 1 and "fail" in out

    def test_j4_fixture(self, capsys):
        code, out, _ = run(capsys, "verify", data_path("j4_target.mf"),
                           data_path("j4_root.mf"), "--order", "2")
        assert code == 0


class TestCertify:
    def test_j3_bound(self, capsys):
        code, out, _ = run(capsys, "certify", data_path("j3_target.mf"),
                           "--order", "4", "--monotone", "inc")
        assert code == 0
        assert out.startswith("J3OrderBound m=3 ell=1 n=4")

    def test_inconclusive_exit_two(self, capsys):
        code, out, _ = run(capsys, "certify", data_path("j3_target.mf"),
                           "--order", "2", "--monotone", "inc")
        assert code == 2 and "inconclusive" in out

    def test_unique_jump(self, capsys):
        code, out, _ = run(capsys, "certify", data_path("growth_target.mf"),
                           "--order", "2")
        assert code == 0 and out.startswith("UniqueJumpIntensity")

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_order_below_one_exit_three(self, capsys, order):
        code, out, err = run(capsys, "certify", data_path("growth_target.mf"),
                             "--order", order)
        assert code == 3 and out == ""
        assert err == f"error: root order must be >= 1, got {order}\n"


class TestRoot:
    def test_exact_root_prints_mf(self, capsys, tmp_path):
        recipe = tmp_path / "root.mfr"
        code, out, _ = run(capsys, "root", data_path("absorbing_target.mf"),
                           "--order", "2", "--monotone", "inc",
                           "-o", str(recipe))
        assert code == 0
        assert "branch 0 1/2 affine 1/2 0" in out
        assert "jump 1/2 [1/4,3/8]" in out
        assert recipe.exists()
        assert load_recipe(recipe).pipeline == "increasing"

    def test_generic_root_prints_preview(self, capsys, tmp_path):
        recipe = tmp_path / "root.mfr"
        code, out, _ = run(capsys, "root", data_path("tail_jump_target.mf"),
                           "--order", "2", "--monotone", "inc",
                           "-o", str(recipe))
        assert code == 0
        assert "preview" in out

    def test_decreasing_square(self, capsys, tmp_path):
        recipe = tmp_path / "root.mfr"
        code, out, _ = run(capsys, "root", data_path("square_target.mf"),
                           "--order", "2", "--monotone", "dec",
                           "-o", str(recipe))
        assert code == 0
        assert "branch 0 1/2 affine -1 1" in out

    def test_seed_file(self, capsys, tmp_path):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"affine": ["-1", "1"]}))
        recipe = tmp_path / "root.mfr"
        code, out, _ = run(capsys, "root", data_path("square_target.mf"),
                           "--order", "2", "--monotone", "dec",
                           "--seed", str(seed), "-o", str(recipe))
        assert code == 0
        assert "branch 1/2 1 affine -1/4 3/8" in out

    @pytest.mark.parametrize("text,why", [
        ('{"anchor": "1/2"', "Expecting ',' delimiter"),
        ("[1, 2]", "a seed is a JSON object, not a list"),
        ('{"anchor": "abc"}', "seed anchor: not a rational literal: 'abc'"),
        ('{"divisions": 3}', "seed divisions: expected a list, got 3"),
        ('{"affine": ["1"]}', "seed affine: expected [slope, intercept]"),
    ], ids=["malformed", "list", "bad-literal", "scalar-divisions", "short-affine"])
    def test_hostile_seed_file_exit_three(self, capsys, tmp_path, text, why):
        seed = tmp_path / "seed.json"
        seed.write_text(text)
        code, out, err = run(capsys, "root", data_path("square_target.mf"),
                             "--order", "2", "--monotone", "dec",
                             "--seed", str(seed), "-o", str(tmp_path / "r.mfr"))
        assert code == 3 and out == ""
        assert err.startswith(f"error: seed file {seed}: ") and why in err
        assert not (tmp_path / "r.mfr").exists()

    @pytest.mark.parametrize("slope", ["99999999999999999999999/100000000000000000000000",
                                       "999999999999/1000000000000"],
                             ids=["log-rounds-to-zero", "jump-of-1e13-steps"])
    def test_slope_near_one_exit_three_in_seconds(self, tmp_path, slope):
        # a separate process, so that a hang fails at the timeout
        target = tmp_path / "near_one.mf"
        target.write_text(f"domain 0 1\nmonotone inc\nbranch 0 1 affine {slope} 0\n")
        src = str(Path(mfroots.__file__).resolve().parents[1])
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mfroots.cli", "root", str(target), "--order", "2",
             "--monotone", "inc", "-o", str(tmp_path / "r.mfr")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == "error: orbit normalization diverged\n"
        assert time.perf_counter() - start < 10

    def test_certificate_outcome(self, capsys, tmp_path):
        code, out, _ = run(capsys, "root", data_path("j3_target.mf"),
                           "--order", "4", "--monotone", "inc",
                           "-o", str(tmp_path / "r.mfr"))
        assert code == 0
        assert out.startswith("J3OrderBound")

    def test_seed_specific_certificate_exit_two(self, capsys, tmp_path):
        # census target 9: the cross pairing's seed sends 0 onto the jump
        # 61/64, which says nothing of other seeds
        target = tmp_path / "census9.mf"
        target.write_text("domain 0 1\nmonotone inc\n"
                          "branch 0 55/128 affine 79/110 15/256\n"
                          "jump 55/128 [47/128,31/64]\n"
                          "branch 55/128 61/64 affine 9/67 3659/8576\n"
                          "jump 61/64 [71/128,73/128]\n"
                          "branch 61/64 1 affine 77/12 -4259/768\n")
        code, out, err = run(capsys, "root", str(target), "--order", "2",
                             "--monotone", "dec", "-o", str(tmp_path / "r.mfr"))
        assert code == 2 and err == ""
        assert out.splitlines() == [
            "EndpointInfeasible endpoint=0 image=61/64 power=1",
            "claim: an image of a domain endpoint under the constructed root lands "
            "exactly on a jump, which would create a jump of the iterate at the "
            "endpoint; the construction with this seed fails"]
        assert not (tmp_path / "r.mfr").exists()

    def test_error_exit_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "root", data_path("growth_target.mf"),
                           "--order", "2", "--monotone", "inc",
                           "-o", str(tmp_path / "r.mfr"))
        assert code == 3 and "error" in err


class TestPointCounts:
    """Sample counts below two are refused before anything is written."""

    @pytest.mark.parametrize("count", ["1", "0"])
    def test_preview_below_two(self, capsys, tmp_path, count):
        recipe = tmp_path / "root.mfr"
        code, out, err = run(capsys, "root", data_path("tail_jump_target.mf"),
                             "--order", "2", "--monotone", "inc",
                             "--preview", count, "-o", str(recipe))
        assert code == 3 and out == ""
        assert err == f"error: --preview must be at least 2, got {count}\n"
        assert not recipe.exists()

    @pytest.mark.parametrize("name", ["plot.csv", "plot.svg"])
    def test_samples_below_two(self, capsys, tmp_path, name):
        out_path = tmp_path / name
        code, out, err = run(capsys, "plot-data", data_path("j3_target.mf"),
                             "-o", str(out_path), "--samples", "1")
        assert code == 3 and out == ""
        assert err == "error: --samples must be at least 2, got 1\n"
        assert not out_path.exists()


class TestIterate:
    def test_square_of_root_equals_target(self, capsys, tmp_path):
        out_path = tmp_path / "it.mf"
        code, _, _ = run(capsys, "iterate", data_path("square_root.mf"),
                         "-n", "2", "-o", str(out_path))
        assert code == 0
        G = load_mf(out_path)
        F = load_mf(data_path("square_target.mf"))
        import mfroots as mf
        assert mf.equivalent(G, F).equal

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_order_below_one_exit_three(self, capsys, tmp_path, n):
        out_path = tmp_path / "it.mf"
        code, out, err = run(capsys, "iterate", data_path("square_root.mf"),
                             "-n", n, "-o", str(out_path))
        assert code == 3 and out == ""
        assert err == f"error: iteration order must be >= 1, got {n}\n"
        assert not out_path.exists()


class TestPlotData:
    def test_csv(self, capsys, tmp_path):
        out_path = tmp_path / "plot.csv"
        code, _, _ = run(capsys, "plot-data", data_path("j3_target.mf"),
                         "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,ymin,ymax,kind"
        branch_rows = [l for l in lines if l.endswith(",branch")]
        jump_rows = [l for l in lines if l.endswith(",jump")]
        assert len(branch_rows) == 3 * 512
        assert len(jump_rows) == 3

    def test_svg(self, capsys, tmp_path):
        out_path = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot-data", data_path("j3_target.mf"),
                         "-o", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3
        assert text.count("<line") == 3

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "plot-data", data_path("square_target.mf"), "-o", str(a))
        run(capsys, "plot-data", data_path("square_target.mf"), "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
