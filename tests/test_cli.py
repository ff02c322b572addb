"""End-to-end tests of the command-line interface."""

import hashlib
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
from spw.inference import DRAW_LIMIT
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


def _exit_code(argv) -> int:
    """main's return value, or the status of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    def test_non_binary_treatment_exit_3(self, tmp_path, capsys):
        path = tmp_path / "w2.csv"
        path.write_text("y,w,x,e\n1,0,0.1,0.5\n2,1,0.4,0.5\n3,2,0.6,0.5\n4,2,0.9,0.5\n")
        code = main(["estimate", "--data", str(path), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"y,w,x,e\n\xff\xfe,1,0.5,0.5\n"], ids=["absent", "latin1"])
    def test_unreadable_data_file_exit_3(self, tmp_path, capsys, content):
        # Both used to exit 1 with a traceback.
        path = tmp_path / "data.csv"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "fit"
        assert main(["estimate", "--data", str(path), "--out", str(out)]) == 3
        assert "error (data): cannot read --data" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("nu", ["nan", "inf", "-inf"])
    def test_non_finite_nu_exit_2(self, large_csv, tmp_path, capsys, nu):
        # nan used to exit 1 with LinAlgError, inf to exit 4.
        out = tmp_path / "fit"
        assert main(["estimate", "--data", str(large_csv), f"--nu={nu}", "--out", str(out)]) == 2
        assert "nu must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_polynomial_degree_exit_2(self, large_csv, tmp_path, capsys):
        # Used to exit 1 with numpy's "Maximum allowed size exceeded".
        out = tmp_path / "fit"
        argv = ["estimate", "--data", str(large_csv), "--basis", f"poly:{10**30}"]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"polynomial degree {10**30} is above the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_polynomial_degree_exit_2(self, large_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        argv = ["estimate", "--data", str(large_csv), "--basis", "poly:x", "--out", str(out)]
        assert main(argv) == 2
        assert "cannot parse polynomial degree in 'poly:x'" in capsys.readouterr().err
        assert not out.exists()

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


    def test_malformed_kappa_exit_2(self, finite_csv, tmp_path, capsys):
        out = tmp_path / "fpw"
        argv = ["fpw", "--data", str(finite_csv), "--bounds", "w=0:0,10", "--bounds", "w=1:0,10"]
        argv += ["--kappa", "a,b", "--out", str(out)]
        assert main(argv) == 2
        assert "cannot parse contrast weights 'a,b'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def vacant_csv(self, tmp_path):
        # Stratum 1 has no control unit, so its control mean is pooled
        # from the bounds: a non-finite bound used to reach fpw.json.
        path = tmp_path / "vacant.csv"
        path.write_text("y,w,x\n1,0,0\n2,1,0\n3,0,0\n4,1,1\n5,1,1\n")
        return path

    @pytest.mark.parametrize(
        "flags, what",
        [
            (["--bounds", "w=0:0,nan", "--bounds", "w=1:0,9"], "bounds"),
            (["--bounds", "w=0:0,inf", "--bounds", "w=1:0,9"], "bounds"),
            (["--bounds", "w=0:nan,1", "--bounds", "w=1:0,9"], "bounds"),
            (["--bounds", "w=0:0,1", "--bounds", "w=1:0,9", "--kappa=nan,1"], "contrast weight"),
        ],
        ids=["bound_nan", "bound_inf", "lower_bound_nan", "kappa_nan"],
    )
    def test_non_finite_config_exit_2(self, vacant_csv, tmp_path, capsys, flags, what):
        out = tmp_path / "fpw"
        assert main(["fpw", "--data", str(vacant_csv), *flags, "--out", str(out)]) == 2
        assert f"error (config): {what}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_bounds_label_exit_2(self, finite_csv, tmp_path, capsys):
        # The last of the two used to win silently, while manifest.json
        # echoed both.
        out = tmp_path / "fpw"
        flags = ["--bounds", "w=0:6,14", "--bounds", "w=1:13,27", "--bounds", "w=1:0,30"]
        assert main(["fpw", "--data", str(finite_csv), *flags, "--out", str(out)]) == 2
        assert "bounds spec 'w=1:0,30' repeats label 1" in capsys.readouterr().err
        assert not out.exists()


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

    def test_repeated_lambda_box_label_exit_2(self, finite_csv, tmp_path, capsys):
        out = tmp_path / "test"
        argv = ["test", "--data", str(finite_csv), "--grid", "0:20:1", "--out", str(out)]
        argv += ["--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9"]
        assert main([*argv, "--lambda-box", "k=0:0.2,0.2"]) == 2
        assert "lambda box 'k=0:0.2,0.2' repeats label 0" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _run(finite_csv, out, *extra):
        argv = [
            "test", "--data", str(finite_csv), "--grid", "0:20:1",
            "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9",
            "--resolution", "2", "--seed", "5", "--out", str(out), *extra,
        ]
        return main(argv)

    def test_meta_counts_and_mc_standard_errors(self, finite_csv, tmp_path):
        out = tmp_path / "t"
        assert self._run(finite_csv, out, "--c1", "0.5", "--draws", "200") == 0
        meta = json.loads((out / "pvalues_meta.json").read_text())
        rows = (out / "pvalues.csv").read_text().strip().splitlines()[1:]
        p = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        for col, curve in enumerate(("p_lo", "p_hi")):
            k = np.array(meta["exceedance_counts"][curve])
            assert k.dtype.kind == "i"
            np.testing.assert_array_equal(k / 200, p[:, col])
            se = np.sqrt(p[:, col] * (1 - p[:, col]) / 200)
            np.testing.assert_allclose(meta["mc_standard_error"][curve], se, rtol=1e-15)
        assert meta["warnings"] == []

    @pytest.mark.parametrize("draws,alpha,warned", [
        (200, "0.05", False), (199, "0.05", True), (100, "0.1", False), (19, "0.05", True),
    ])
    def test_small_draws_warning(self, finite_csv, tmp_path, capsys, draws, alpha, warned):
        out = tmp_path / "t"
        code = self._run(finite_csv, out, "--draws", str(draws), "--alpha", alpha)
        assert code == 0
        err = capsys.readouterr().err
        meta = json.loads((out / "pvalues_meta.json").read_text())
        if warned:
            expected = (
                f"B={draws} draws at alpha={alpha} give alpha*B < 10; "
                "the Monte-Carlo error of p near alpha exceeds about alpha/3"
            )
            assert err == f"warning: {expected}\n"
            assert meta["warnings"] == [expected]
        else:
            assert err == ""
            assert meta["warnings"] == []

    @pytest.mark.parametrize("c1", ["nan", "inf"])
    def test_non_finite_c1_exit_2(self, finite_csv, tmp_path, capsys, c1):
        out = tmp_path / "t"
        assert self._run(finite_csv, out, "--c1", c1, "--draws", "200") == 2
        assert "heterogeneity bound" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid",
        ["nan:2:1", "0:nan:1", "0:2:nan", "-inf:2:1", "0:inf:1", "0:2:inf", "-1e308:1e308:1"],
    )
    def test_non_finite_grid_exit_2(self, finite_csv, tmp_path, capsys, grid):
        out = tmp_path / "t"
        code = main([
            "test", "--data", str(finite_csv), f"--grid={grid}",
            "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9",
            "--draws", "200", "--out", str(out),
        ])
        assert code == 2
        assert "error (config): grid" in capsys.readouterr().err

    # Only counts that fail the check before anything is allocated.
    @pytest.mark.parametrize("draws", [DRAW_LIMIT + 1, 10**12], ids=["limit+1", "1e12"])
    def test_draws_over_limit_exit_2(self, finite_csv, tmp_path, capsys, draws):
        out = tmp_path / "t"
        assert self._run(finite_csv, out, "--draws", str(draws)) == 2
        assert f"{draws} Monte Carlo draws requested (limit" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_resolution_exit_2(self, finite_csv, tmp_path, capsys):
        # np.linspace used to build each axis before the models were counted.
        out = tmp_path / "t"
        assert self._run(finite_csv, out, "--resolution", str(10**30), "--draws", "50") == 2
        assert f"would create {10**60} models (limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,points", [("0:1e20:1", 10**20 + 1), ("0:1e6:1", 10**6 + 1)]
    )
    def test_oversized_grid_exit_2(self, finite_csv, tmp_path, capsys, grid, points):
        out = tmp_path / "t"
        code = main([
            "test", "--data", str(finite_csv), f"--grid={grid}",
            "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9",
            "--draws", "200", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error (config): grid ")
        assert f" has {points} points" in err
        assert not out.exists()


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

    def test_finite_ipw_is_ipw_fs(self, tmp_path):
        out = tmp_path / "sim"
        argv = ["simulate", "--dgp", "finite", "--n", "50", "--reps", "5", "--estimators", "ipw"]
        assert main(argv + ["--out", str(out)]) == 0
        header = (out / "estimates.csv").read_text().splitlines()[0]
        assert header == "ipw_fs.est"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["ipw_fs.est"]["truth"] == 10.0
        assert summary["errors"] == {"ipw_fs": 0}

    def test_estimator_of_other_dgp_exit_2(self, tmp_path, capsys):
        argv = ["simulate", "--dgp", "large", "--estimators", "fpw", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "not available for the large DGP" in capsys.readouterr().err

    def test_large_sample_below_basis_dimension_exit_2(self, tmp_path, capsys):
        argv = ["simulate", "--dgp", "large", "--n", "2", "--reps", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "basis dimension" in capsys.readouterr().err

    def test_large_study_counts_empty_arm_errors(self, tmp_path):
        # At n = 3 a draw has no treated unit with probability about 0.51;
        # such fits used to succeed, and no error was counted.
        out = tmp_path / "sim"
        argv = ["simulate", "--dgp", "large", "--n", "3", "--reps", "5", "--out", str(out)]
        assert main(argv) == 0
        errors = json.loads((out / "summary.json").read_text())["errors"]
        assert errors["npw"] == errors["ipw"] > 0

    # Only sizes whose arrays numpy refuses outright: 10**15 float64s are
    # past any address space, so the parent of this check raised MemoryError.
    @pytest.mark.parametrize("dgp", ["large", "finite"])
    @pytest.mark.parametrize(
        "option, message",
        [("--n", f"sample size {10**15} is above the limit"), ("--reps", "replications requested")],
    )
    def test_huge_size_exit_2(self, tmp_path, capsys, dgp, option, message):
        out = tmp_path / "sim"
        argv = ["simulate", "--dgp", dgp, "--n", "20", "--reps", "3", "--estimators", "ipw"]
        assert main([*argv, option, str(10**15), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("names", [",", " , ", ""])
    def test_no_estimator_exit_2(self, tmp_path, capsys, names):
        out = tmp_path / "sim"
        argv = ["simulate", "--dgp", "finite", "--n", "20", "--reps", "3"]
        assert main([*argv, f"--estimators={names}", "--out", str(out)]) == 2
        assert "--estimators names no estimator" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps, expected", [(29, set()), (30, {"fpw.hi", "fpw.lo", "fpw.mid"})])
    def test_density_files_need_30_varying_values(self, tmp_path, capsys, reps, expected):
        # fpw.is_interval is 1 in every replication, so it never gets one.
        out = tmp_path / "sim"
        argv = ["simulate", "--dgp", "finite", "--n", "20", "--lam", "0.3", "--estimators", "fpw"]
        assert main([*argv, "--reps", str(reps), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert summary["fpw.is_interval"]["sd"] == 0.0
        names = {p.name[len("density_"):-len(".csv")] for p in out.glob("density_*.csv")}
        assert names == expected

    def test_missing_dgp_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--dgp" in capsys.readouterr().err

    # The seed-0 sha256 of each study's estimates.csv, copied from
    # PINNED in perfbench/workloads.py, at the `study` workload's settings.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--dgp", "finite", "--n", "50", "--lam", "0.02", "--reps", "2000",
                 "--estimators", "fpw,wmd,ipw_fs,scaled"],
                "c0e1556e4b926061bd10f9d676b881508265fd74738080cbba1a9f6d0a8a4e4a",
            ),
            (
                ["--dgp", "large", "--n", "2000", "--reps", "200", "--estimators", "npw,ipw"],
                "24a1d1bfd44ce8b4daa0aff8f572eb0d9da9d485c1a735868373e726b3377040",
            ),
        ],
        ids=["finite", "large"],
    )
    def test_seed0_estimates_match_benchmark_pin(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "sim"
        assert main(["simulate", *argv, "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "estimates.csv").read_bytes()).hexdigest() == digest


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

    def test_check_repeated_kind_tag_probes_each(self, tmp_path, capsys):
        out = tmp_path / "report"
        argv = ["check", "--out", str(out)]
        argv += ["--kind", '{"kind": "gnpw", "theta": [1, 0, -2, 1]}']
        argv += ["--kind", '{"kind": "gnpw", "nu1": 2}']
        assert main(argv) == 0
        rows = json.loads((out / "check.json").read_text())["rows"]
        users = [r["kind"] for r in rows if r["kind"].startswith("user:")]
        assert users == ["user:gnpw"] * 4 + ["user:gnpw#2"] * 4

    def test_check_bad_kind_json_exit_2(self, capsys):
        assert main(["check", "--kind", "{not json"]) == 2

    @pytest.mark.parametrize(
        "spec, field",
        [
            ('{"kind": "srp_no_propensity"}', "theta1"),
            ('{"kind": "multivalued_cqr", "w": 1}', "v"),
            ('{"kind": "gnpw", "nu1": "abc"}', "nu1"),
            ('{"kind": "gnpw", "theta": [1, 0]}', "theta"),
            ('{"kind": "gnpw", "nu": 2}', "'nu'"),
            ('{"kind": "robinson", "eta": 3}', "'eta'"),
            ('{"kind": "gnpw", "theta": [NaN, 1, 0, -1]}', "finite"),
            ('{"kind": "gnpw", "nu1": Infinity}', "finite"),
            ('{"kind": "stabilized_aipw", "bound": NaN}', "finite"),
            ('{"kind": "srp_no_propensity", "theta1": Infinity, "theta2": 0}', "finite"),
            ('{"kind": "multivalued_cqr", "v": 0.5, "w": 1.7}', "'w'"),
            ('{"kind": "multivalued_cqr", "v": 0.5, "w": true}', "'w'"),
            (
                '{"kind": "multivalued_cac", "treatments": [0, 1.5], "kappa": [-1, 1]}',
                "'treatments'",
            ),
            (
                '{"kind": "multivalued_cac", "treatments": [0, 2], "kappa": [-1, 1]}',
                "contrast must use {0, 1}",
            ),
        ],
        ids=[
            "srp-without-theta1",
            "cqr-without-v",
            "gnpw-nu1-text",
            "gnpw-short-theta",
            "gnpw-misspelled-nu",
            "robinson-extra-field",
            "gnpw-nan-theta",
            "gnpw-infinite-nu1",
            "stabilized-nan-bound",
            "srp-infinite-theta1",
            "cqr-fractional-w",
            "cqr-boolean-w",
            "cac-fractional-treatment",
            "cac-non-binary-treatment",
        ],
    )
    def test_check_malformed_kind_fields_exit_2(self, capsys, spec, field):
        assert main(["check", "--kind", spec]) == 2
        assert field in capsys.readouterr().err


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


    def test_threads_key_from_older_manifest_exit_2(self, tmp_path, capsys):
        # Studies run in one thread; a replayed manifest must drop "threads".
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dgp": "finite", "n": 10, "reps": 2, "threads": 1}))
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dgp", "finite", "--threads", "2"])
        assert exc.value.code == 2

    # (command, flags on the line, config file text, the flags the file
    # stands for, or None where the run must exit 2).
    CASES = {
        "nu_text": ("estimate", [], '{"nu": "2"}', ["--nu", "2"]),
        "nu_null": ("estimate", [], '{"nu": null}', []),
        "level_text": ("estimate", [], '{"level": "0.9"}', ["--level", "0.9"]),
        "draws_text": ("test", ["--grid", "0:5:1"], '{"draws": "100"}', ["--draws", "100"]),
        "c1_text": (
            "test", ["--grid", "0:5:1", "--draws", "60"], '{"c1": "0.5"}', ["--c1", "0.5"]
        ),
        "lam_text": ("simulate", ["--reps", "3"], '{"lam": "0.5"}', ["--lam", "0.5"]),
        "check_manifest_nulls": (
            "check", [], '{"command": "check", "out": null, "config": null, "kind": null}', []
        ),
        "reps_fraction": ("simulate", [], '{"reps": 3.5}', None),
        "reps_nan": ("simulate", [], '{"reps": NaN}', None),
        "seed_fraction": ("simulate", ["--reps", "3"], '{"seed": 1.5}', None),
        "basis_number": ("estimate", [], '{"basis": 3}', None),
        "grid_number": ("test", ["--draws", "60"], '{"grid": 5}', None),
        "kappa_list": ("fpw", [], '{"kappa": [-1, 1]}', None),
        "estimators_list": ("simulate", ["--reps", "3"], '{"estimators": ["fpw"]}', None),
        "top_level_list": ("estimate", [], '["nu", 2]', None),
        "nested_too_deep": ("estimate", [], "[" * 10**5 + "]" * 10**5, None),
        "dgp_choice": ("simulate", ["--reps", "3"], '{"dgp": "medium"}', None),
        "nu_boolean": ("estimate", [], '{"nu": true}', None),
        "other_command": ("estimate", [], '{"command": "fpw"}', None),
    }

    @pytest.fixture
    def bases(self, large_csv, finite_csv):
        return {
            "estimate": ["estimate", "--data", str(large_csv)],
            "fpw": ["fpw", "--data", str(finite_csv), "--bounds", "w=0:6,14", "--bounds", "w=1:13,27"],
            "test": [
                "test", "--data", str(finite_csv), "--resolution", "2",
                "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9",
            ],
            "simulate": ["simulate", "--n", "20", "--estimators", "fpw"],
            "check": ["check"],
        }

    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_config_values_parse_as_flag_text(self, bases, tmp_path, capsys, case):
        command, line, text, flags = self.CASES[case]
        if command == "simulate" and "dgp" not in text:
            line = [*line, "--dgp", "finite"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "from_config"
        code = _exit_code([*bases[command], *line, "--config", str(cfg), "--out", str(out)])
        if flags is None:
            assert code == 2
            assert not out.exists()
            return
        assert code == 0
        ref = tmp_path / "from_flags"
        assert main([*bases[command], *line, *flags, "--out", str(ref)]) == 0
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        configs = [json.loads((d / "manifest.json").read_text())["config"] for d in (out, ref)]
        for config in configs:
            del config["out"], config["config"]
        assert configs[0] == configs[1]

    def test_config_list_fills_a_repeatable_option(self, finite_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bounds": ["w=0:6,14", "w=1:13,27"], "kappa": "1,-1"}))
        out = tmp_path / "out"
        argv = ["fpw", "--data", str(finite_csv), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["bounds"] == ["w=0:6,14", "w=1:13,27"]
        assert config["kappa"] == "1,-1"


class TestSeed:
    @pytest.fixture
    def runs(self, finite_csv):
        return {
            "test": [
                "test", "--data", str(finite_csv), "--grid", "0:5:1", "--draws", "50",
                "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9",
            ],
            "simulate": ["simulate", "--dgp", "finite", "--n", "20", "--reps", "3"],
        }

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_negative_seed_exit_2(self, runs, tmp_path, capsys, command):
        # Both used to exit 1 with numpy's SeedSequence ValueError.
        out = tmp_path / "x"
        assert _exit_code([*runs[command], "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        assert _exit_code([*runs[command], "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "fpw", "check"])
    def test_commands_without_draws_take_no_seed(self, tmp_path, capsys, command):
        assert _exit_code([command, "--seed", "0"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 0}')
        assert main([command, "--config", str(cfg)]) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err


class TestOutputs:
    def test_out_at_a_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["check", "--out", str(path)]) == 2
        assert "error (config): cannot write outputs to --out" in capsys.readouterr().err


class _NonFinite(str):
    """A NaN or Infinity constant met while parsing JSON."""


def _non_finite_fields(node, path=()):
    """Paths (keys, with "[]" for a list item) of every _NonFinite in node."""
    if isinstance(node, _NonFinite):
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _non_finite_fields(value, (*path, key))
    elif isinstance(node, list):
        for value in node:
            yield from _non_finite_fields(value, (*path, "[]"))


def _may_be_nan(name: str, path: tuple, payload) -> bool:
    """The fields documented as possibly NaN: in summary.json, a column's
    sd and mc_se when at most one replication succeeded, and its mean,
    quantiles and bias when none did."""
    if name != "summary.json" or len(path) != 3 or path[0] != "summary":
        return False
    n_ok = payload["summary"][path[1]]["n_ok"]
    if path[2] in ("sd", "mc_se"):
        return n_ok <= 1
    return path[2] in ("mean", "q05", "q50", "q95", "bias") and n_ok == 0


class TestStrictJson:
    """Every JSON file a run writes parses without NaN or Infinity, apart
    from the fields ``_may_be_nan`` lists."""

    RUNS = {
        "estimate": ["estimate", "--data", "{large}"],
        "estimate-ipw-poly": ["estimate", "--data", "{large}", "--nu", "-1", "--basis", "poly:2"],
        "fpw": ["fpw", "--data", "{finite}", "--bounds", "w=0:6,14", "--bounds", "w=1:13,27"],
        "fpw-vacant": ["fpw", "--data", "{vacant}", "--bounds", "w=0:0,20", "--bounds", "w=1:0,30"],
        **{
            f"test-{stat}": [
                "test", "--data", "{finite}", "--grid=-5:15:1", "--statistic", stat, "--c1", "0.5",
                "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9", "--draws", "100",
            ]
            for stat in ("t_hat", "wmd", "ipw")
        },
        "simulate-finite": [
            "simulate", "--dgp", "finite", "--n", "50", "--reps", "30", "--lam", "0.1",
            "--estimators", "fpw,wmd,ipw_fs,scaled",
        ],
        # Seed 1: one replication of two has a treated unit, so n_ok = 1.
        "simulate-one-success": [
            "simulate", "--dgp", "large", "--n", "3", "--reps", "2", "--seed", "1",
        ],
        "check": ["check"],
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_json_outputs_are_finite(self, run, large_csv, finite_csv, tmp_path, capsys):
        vacant = tmp_path / "vacant.csv"
        vacant.write_text("y,w,x\n1,0,0\n2,1,0\n3,0,0\n4,1,1\n5,1,1\n6,1,1\n")
        paths = {"large": large_csv, "finite": finite_csv, "vacant": vacant}
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in self.RUNS[run]]
        assert main([*argv, "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) >= 2
        allowed = 0
        for path in files:
            payload = json.loads(path.read_text(), parse_constant=_NonFinite)
            for field in _non_finite_fields(payload):
                assert _may_be_nan(path.name, field, payload), (path.name, field)
                allowed += 1
        assert (allowed > 0) == (run == "simulate-one-success")


def test_cli_import_leaves_scipy_unloaded(large_csv, finite_csv, tmp_path):
    src = str(Path(spw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, spw.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
    # Nor does estimate or test load numpy.ma (np.unique's hash path probes
    # for a masked array), and test does not load statistics either: only
    # estimate's Wald intervals need NormalDist. numpy 1.24 imports
    # numpy.ma with numpy itself, so only the modules main() adds count.
    probe = (
        "import json, sys, numpy, spw.cli; before = set(sys.modules); "
        "code = spw.cli.main(sys.argv[1:]); "
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
    )
    runs = {
        ("numpy.ma",): ["estimate", "--data", str(large_csv), "--out", str(tmp_path / "fit")],
        ("numpy.ma", "statistics"): [
            "test", "--data", str(finite_csv), "--grid", "0:20:1",
            "--lambda-box", "k=0:0.1,0.3", "--lambda-box", "k=1:0.7,0.9",
            "--draws", "50", "--out", str(tmp_path / "test"),
        ],
    }
    for unloaded, argv in runs.items():
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        status, added = json.loads(done.stdout.splitlines()[-1])
        assert status == 0, argv[0]
        loaded = [m for m in added if any(m == u or m.startswith(u + ".") for u in unloaded)]
        assert loaded == [], argv[0]
