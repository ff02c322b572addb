"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spw
from spw.cli import main
from spw.data import RngHandle, write_csv
from spw.simulate import FiniteSampleDgp, LargeSampleDgp


@pytest.fixture
def large_csv(tmp_path):
    data = LargeSampleDgp(n=300).generate(RngHandle(1).generator())
    path = tmp_path / "large.csv"
    write_csv(data, path)
    return path


@pytest.fixture
def finite_csv(tmp_path):
    data = FiniteSampleDgp(n=30, lam1=0.2).generate(RngHandle(2).generator())
    path = tmp_path / "finite.csv"
    write_csv(data, path)
    return path


class TestEstimate:
    def test_happy_path(self, large_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        code = main(
            ["estimate", "--data", str(large_csv), "--nu", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert len(payload["beta"]) == 2
        assert payload["nu"] == 1.0
        assert payload["n"] == 300
        assert (out / "manifest.json").exists()

    def test_missing_propensity_column_exit_3(self, finite_csv, tmp_path, capsys):
        code = main(
            [
                "estimate",
                "--data",
                str(finite_csv),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "e" in capsys.readouterr().err

    def test_bad_level_exit_2(self, large_csv, tmp_path):
        code = main(
            [
                "estimate",
                "--data",
                str(large_csv),
                "--level",
                "1.5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_reruns_byte_identical(self, large_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                main(["estimate", "--data", str(large_csv), "--out", str(out)]) == 0
            )
        assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()

    def test_manifest_config_reruns_identically(self, large_csv, tmp_path):
        out1 = tmp_path / "a"
        assert (
            main(
                [
                    "estimate",
                    "--data",
                    str(large_csv),
                    "--nu",
                    "0.5",
                    "--basis",
                    "poly:2",
                    "--out",
                    str(out1),
                ]
            )
            == 0
        )
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg = {
            k: v
            for k, v in manifest["config"].items()
            if k not in ("data", "out", "config")
        }
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(cfg))
        out2 = tmp_path / "b"
        assert (
            main(
                [
                    "estimate",
                    "--data",
                    str(large_csv),
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out2),
                ]
            )
            == 0
        )
        assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()


class TestFpw:
    def test_happy_path(self, finite_csv, tmp_path):
        out = tmp_path / "fpw"
        code = main(
            [
                "fpw",
                "--data",
                str(finite_csv),
                "--bounds",
                "w=0:6,14",
                "--bounds",
                "w=1:13,27",
                "--kappa=-1,1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "fpw.json").read_text())
        assert payload["lo"] <= payload["hi"]
        assert set(payload["per_w_intervals"]) == {"0", "1"}

    def test_malformed_bounds_exit_2(self, finite_csv, tmp_path):
        code = main(
            [
                "fpw",
                "--data",
                str(finite_csv),
                "--bounds",
                "nonsense",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2


class TestTest:
    def test_happy_path(self, finite_csv, tmp_path):
        out = tmp_path / "test"
        code = main(
            [
                "test",
                "--data",
                str(finite_csv),
                "--grid",
                "0:20:1",
                "--c1",
                "0.5",
                "--lambda-box",
                "k=0:0.1,0.3",
                "--lambda-box",
                "k=1:0.7,0.9",
                "--resolution",
                "3",
                "--draws",
                "200",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "pvalues.csv").read_text().strip().splitlines()
        assert rows[0] == "Tbar,p_lo,p_hi"
        body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(body[:, 1] <= body[:, 2])
        meta = json.loads((out / "pvalues_meta.json").read_text())
        assert meta["n_models"] == 9
        assert meta["draws"] == 200

    def test_seeded_rerun_identical(self, finite_csv, tmp_path):
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            main(
                [
                    "test",
                    "--data",
                    str(finite_csv),
                    "--grid",
                    "5:15:1",
                    "--lambda-box",
                    "k=0:0.2,0.2",
                    "--lambda-box",
                    "k=1:0.8,0.8",
                    "--draws",
                    "100",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            outs.append((out / "pvalues.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSimulate:
    def test_finite_study(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--dgp",
                "finite",
                "--n",
                "50",
                "--reps",
                "30",
                "--lam",
                "0.1",
                "--estimators",
                "fpw,wmd,ipw_fs",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "fpw.mid" in summary["summary"]
        assert (out / "estimates.csv").exists()

    def test_unknown_estimator_exit_2(self, tmp_path):
        code = main(
            [
                "simulate",
                "--dgp",
                "finite",
                "--estimators",
                "banana",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_bad_split_size_exit_2(self, tmp_path):
        code = main(
            [
                "simulate",
                "--dgp",
                "finite",
                "--n",
                "52",
                "--estimators",
                "wmd",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_missing_dgp_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--dgp" in capsys.readouterr().err


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "moment_zero" in out
        assert "robinson" in out

    def test_check_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["check", "--out", str(out)]) == 0
        payload = json.loads((out / "check.json").read_text())
        assert payload["all_ok"] is True

    def test_check_extra_kind_json(self, capsys):
        code = main(
            ["check", "--kind", '{"kind": "gnpw", "nu1": 1, "theta": [1, 0, -2, 1]}']
        )
        assert code == 0
        assert "user:gnpw" in capsys.readouterr().out

    def test_check_bad_kind_json_exit_2(self, capsys):
        assert main(["check", "--kind", "{not json"]) == 2


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, finite_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"kappa": "-1,1", "bounds": ["w=0:6,14", "w=1:13,27"]})
        )
        out = tmp_path / "out"
        code = main(
            [
                "fpw",
                "--data",
                str(finite_csv),
                "--config",
                str(cfg),
                "--bounds",
                "w=0:0,20",
                "--bounds",
                "w=1:0,30",
                "--out",
                str(out),
            ]
        )
        # Flag-provided bounds win; config fills nothing else unusual.
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["bounds"] == ["w=0:0,20", "w=1:0,30"]

    def test_flag_at_default_value_beats_config(self, large_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": 0.5, "level": 0.9}))
        out = tmp_path / "out"
        argv = ["estimate", "--data", str(large_csv), "--config", str(cfg), "--out", str(out)]
        assert main([*argv, "--nu", "1.0"]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["nu"] == 1.0
        assert fit["wald_ci"]["level"] == 0.9
        assert main(argv) == 0
        assert json.loads((out / "fit.json").read_text())["nu"] == 0.5

    def test_unknown_config_key_exit_2(self, finite_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"who": "me"}))
        code = main(
            [
                "fpw",
                "--data",
                str(finite_csv),
                "--config",
                str(cfg),
                "--bounds",
                "w=0:0,20",
                "--bounds",
                "w=1:0,30",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(spw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, spw.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
