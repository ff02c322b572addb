"""Command-line front end: estimate, fpw, test, simulate, check.

Every run echoes its effective configuration, package versions, and
seed into a manifest next to the outputs, so a run can be reproduced
from the manifest alone. Numeric outputs are serialized with full
(17 significant digit) precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import check_suite
from .data import Dataset, RngHandle, build_strata, load_csv
from .errors import ConfigError, DataError, NumericError, SpwError
from .finite_sample import FsConfig, fpw_set
from .gpw import BasisSpec, gpw_estimate, pate_estimate, wald_ci
from .inference import HetBounds, ModelClass, NullGrid, confidence_set, pvalue_bounds
from .residuals import residual_from_json
from .simulate import (
    FiniteSampleDgp,
    LargeSampleDgp,
    density_summary,
    fs_study_estimators,
    gpw_study_estimator,
    run_study,
    scaled_ate_study_estimator,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_ready(payload), indent=2) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "spw": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _basis_from_spec(spec: str) -> BasisSpec:
    if spec in ("1", "const", "constant"):
        return BasisSpec.constant()
    if spec == "linear":
        return BasisSpec.linear()
    if spec.startswith("poly:"):
        try:
            return BasisSpec.polynomial(int(spec.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"cannot parse polynomial degree in {spec!r}") from None
    raise ConfigError(f"unknown basis spec {spec!r} (use const, linear, or poly:K)")


def _parse_bounds(items: list[str]) -> dict[int, tuple[float, float]]:
    # Format: w=1:0,20
    bounds = {}
    for item in items:
        try:
            _, rest = item.split("=", 1)
            label, span = rest.split(":", 1)
            lo, hi = span.split(",")
            bounds[int(label)] = (float(lo), float(hi))
        except (ValueError, IndexError):
            raise ConfigError(f"cannot parse bounds spec {item!r}; expected w=LABEL:LO,HI")
    return bounds


def _parse_lambda_boxes(items: list[str]) -> dict[int, tuple[float, float]]:
    # Format: k=0:0.01,0.10 (dense stratum index)
    boxes = {}
    for item in items:
        try:
            _, rest = item.split("=", 1)
            label, span = rest.split(":", 1)
            lo, hi = span.split(",")
            boxes[int(label)] = (float(lo), float(hi))
        except (ValueError, IndexError):
            raise ConfigError(f"cannot parse lambda box {item!r}; expected k=K:LO,HI")
    return boxes


def _parse_kappa(text: str) -> dict[int, float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse contrast weights {text!r}") from None
    return {w: v for w, v in enumerate(values)}


def _require_args(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} is required (as a flag or in --config)")


def _load_dataset(args, mode: str) -> Dataset:
    _require_args(args, "data")
    schema = (args.y_col, args.w_col, args.x_col)
    return load_csv(
        args.data,
        schema,
        mode=mode,
        propensity_col=getattr(args, "propensity_col", None),
    )


def _explicit_options(argv) -> set[str]:
    """Destinations of the options given on the command line.

    The arguments are parsed again with every default replaced by
    argparse's "not given" sentinel, so an option passed with its
    default value still counts as given.
    """
    parser = build_parser()
    pending = [parser]
    while pending:
        p = pending.pop()
        for action in p._actions:
            action.default = argparse.SUPPRESS
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    return set(vars(parser.parse_args(argv)))


def _merge_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Apply values from --config JSON for options not given as flags."""
    if not getattr(args, "config", None):
        return args
    try:
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    explicit = _explicit_options(argv)
    for key, value in file_values.items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if key not in explicit:
            setattr(args, key, value)
    return args


def cmd_estimate(args) -> int:
    data = _load_dataset(args, mode="large")
    basis = _basis_from_spec(args.basis)
    fit = gpw_estimate(data, None, basis, nu=args.nu)
    pate = pate_estimate(fit, data, basis)
    cis = [wald_ci(fit, np.eye(basis.dim)[j], args.level) for j in range(basis.dim)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "beta": fit.beta,
        "sigma": fit.sigma,
        "condition": fit.condition,
        "n": fit.n,
        "nu": fit.nu,
        "se": fit.se,
        "wald_ci": {"level": args.level, "intervals": cis},
        "average_effect": pate,
    }
    _write_json(out_dir / "fit.json", payload)
    _write_manifest(out_dir, "estimate", _config_echo(args))
    print(f"beta = {[_fmt(b) for b in fit.beta]}  (condition {fit.condition:.3e})")
    return EXIT_OK


def cmd_fpw(args) -> int:
    _require_args(args, "bounds")
    data = _load_dataset(args, mode="finite")
    strata = build_strata(data)
    cfg = FsConfig(bounds=_parse_bounds(args.bounds), kappa=_parse_kappa(args.kappa))
    est = fpw_set(data, strata, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "lo": est.interval.lo,
        "hi": est.interval.hi,
        "per_w_intervals": {str(w): [iv.lo, iv.hi] for w, iv in est.per_w.items()},
    }
    if est.is_point:
        payload["point"] = est.interval.lo
    _write_json(out_dir / "fpw.json", payload)
    _write_manifest(out_dir, "fpw", _config_echo(args))
    print(f"contrast set-estimate [{_fmt(est.interval.lo)}, {_fmt(est.interval.hi)}]")
    return EXIT_OK


def cmd_test(args) -> int:
    _require_args(args, "grid", "lambda_box")
    data = _load_dataset(args, mode="finite")
    strata = build_strata(data)
    try:
        lo, hi, step = (float(v) for v in args.grid.split(":"))
    except ValueError:
        raise ConfigError(f"cannot parse grid {args.grid!r}; expected LO:HI:STEP") from None
    grid = NullGrid.from_range(lo, hi, step)
    boxes = _parse_lambda_boxes(args.lambda_box)
    models = ModelClass.from_lambda_boxes(boxes, strata.n_strata, resolution=args.resolution)
    het = HetBounds(c1=args.c1)
    pvb = pvalue_bounds(
        data,
        strata,
        args.statistic,
        grid,
        models,
        het,
        args.draws,
        RngHandle(args.seed),
    )
    retained = confidence_set(pvb, args.alpha)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "pvalues.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Tbar", "p_lo", "p_hi"])
        for t, pl, ph in zip(pvb.grid, pvb.p_lo, pvb.p_hi):
            writer.writerow([_fmt(t), _fmt(pl), _fmt(ph)])
    _write_json(
        out_dir / "pvalues_meta.json",
        {
            "statistic": pvb.statistic,
            "observed": pvb.observed,
            "draws": pvb.draws,
            "n_models": pvb.n_models,
            "c1": pvb.c1,
            "alpha": args.alpha,
            "confidence_set": retained,
            "grid_resolution": step,
        },
    )
    _write_manifest(out_dir, "test", _config_echo(args))
    print(
        f"p-value bounds over {pvb.grid.size} grid points "
        f"({pvb.n_models} model(s), B={pvb.draws}); "
        f"{retained.size} points retained at alpha={args.alpha}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    _require_args(args, "dgp")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    if args.dgp == "large":
        dgp = LargeSampleDgp(n=args.n)
        basis = BasisSpec.linear()
        estimators = {}
        truth = {}
        for name in names:
            if name == "npw":
                estimators["npw"] = gpw_study_estimator(1.0, basis, truth_beta=dgp.beta)
                truth.update({"npw.b0": dgp.beta[0], "npw.b1": dgp.beta[1], "npw.ate": 2.0})
            elif name == "ipw":
                estimators["ipw"] = gpw_study_estimator(-1.0, basis)
                truth.update({"ipw.b0": dgp.beta[0], "ipw.b1": dgp.beta[1], "ipw.ate": 2.0})
            else:
                raise ConfigError(f"estimator {name!r} is not available for the large DGP")
    else:
        dgp = FiniteSampleDgp(n=args.n, lam1=args.lam)
        cfg = dgp.fs_config()
        fs = fs_study_estimators(cfg)
        estimators = {}
        truth = {}
        for name in names:
            if name == "ipw":
                name = "ipw_fs"
            if name in fs:
                estimators[name] = fs[name]
                key = "mid" if name == "fpw" else "est"
                truth[f"{name}.{key}"] = dgp.true_ate
            elif name == "scaled":
                estimators["scaled"] = scaled_ate_study_estimator()
            else:
                raise ConfigError(f"estimator {name!r} is not available for the finite DGP")
    result = run_study(dgp, estimators, reps=args.reps, seed=args.seed, threads=args.threads)
    summary = result.summary(truth)
    _write_json(out_dir / "summary.json", {"summary": summary, "errors": result.error_counts})
    with open(out_dir / "estimates.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        for row in result.matrix:
            writer.writerow([_fmt(v) for v in row])
    for j, col in enumerate(result.columns):
        series = result.matrix[:, j]
        series = series[np.isfinite(series)]
        if series.size < 30 or np.std(series) == 0.0:
            continue
        dens = density_summary(series)
        with open(out_dir / f"density_{col}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "density"])
            for x, d in zip(dens.grid, dens.density):
                writer.writerow([_fmt(x), _fmt(d)])
    _write_manifest(out_dir, "simulate", _config_echo(args))
    for col, entry in summary.items():
        line = f"{col}: mean {entry['mean']:.4f} (sd {entry['sd']:.4f})"
        if "bias" in entry:
            line += f", bias {entry['bias']:+.4f}"
        print(line)
    return EXIT_OK


def cmd_check(args) -> int:
    extra = {}
    for i, text in enumerate(args.kind or []):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse residual JSON: {exc}")
        extra[spec.get("kind", f"kind{i}")] = residual_from_json(spec)
    report = check_suite(extra_kinds=extra or None)
    print(report.render())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(
            out_dir / "check.json",
            {
                "rows": [
                    {
                        "kind": r.kind,
                        "property": r.prop,
                        "magnitude": r.magnitude,
                        "threshold": r.threshold,
                        "passed": r.passed,
                        "expected_pass": r.expected_pass,
                    }
                    for r in report.rows
                ],
                "all_ok": report.all_ok,
            },
        )
        _write_manifest(out_dir, "check", _config_echo(args))
    return EXIT_OK if report.all_ok else EXIT_NUMERIC


def _config_echo(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spw",
        description="Stable probability weighting estimators and finite-sample inference",
    )
    parser.add_argument("--version", action="version", version=f"spw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default="spw_out")
        p.add_argument("--config", default=None, help="JSON file; flags override its values")
        if data:
            # Required, but possibly supplied through --config; checked post-merge.
            p.add_argument("--data", default=None)
            p.add_argument("--y-col", default="y")
            p.add_argument("--w-col", default="w")
            p.add_argument("--x-col", default="x")

    p_est = sub.add_parser("estimate", help="large-sample weighting estimator")
    add_common(p_est)
    p_est.add_argument("--propensity-col", default="e")
    p_est.add_argument("--nu", type=float, default=1.0)
    p_est.add_argument("--basis", default="linear")
    p_est.add_argument("--level", type=float, default=0.95)
    p_est.set_defaults(func=cmd_estimate)

    p_fpw = sub.add_parser("fpw", help="finite-sample set-estimate of a contrast")
    add_common(p_fpw)
    p_fpw.add_argument("--bounds", action="append", default=None, metavar="w=LABEL:LO,HI")
    p_fpw.add_argument("--kappa", default="-1,1")
    p_fpw.set_defaults(func=cmd_fpw)

    p_test = sub.add_parser("test", help="finite-sample p-value bounds for weak nulls")
    add_common(p_test)
    p_test.add_argument("--grid", default=None, metavar="LO:HI:STEP")
    p_test.add_argument("--c1", type=float, default=0.0)
    p_test.add_argument("--lambda-box", action="append", default=None, metavar="k=K:LO,HI")
    p_test.add_argument("--resolution", type=int, default=5)
    p_test.add_argument("--draws", type=int, default=2000)
    p_test.add_argument("--statistic", choices=("t_hat", "wmd", "ipw"), default="t_hat")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="replication study over a built-in DGP")
    add_common(p_sim, data=False)
    p_sim.add_argument("--dgp", choices=("large", "finite"), default=None)
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.02)
    p_sim.add_argument("--estimators", default="npw,ipw")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the residual property suite")
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--config", default=None)
    p_check.add_argument(
        "--kind",
        action="append",
        metavar="JSON",
        help='extra residual kind to probe, e.g. \'{"kind": "gnpw", "theta": [1,0,-2,1]}\'',
    )
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SpwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
