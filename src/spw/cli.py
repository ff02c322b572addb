"""Command-line front end: estimate, fpw, test, simulate, check.

Every run echoes its effective configuration (with the seed of the
commands that draw random numbers) and package versions into a manifest
next to the outputs, so a run can be reproduced from the manifest alone.
Numeric outputs are serialized with full (17 significant digit)
precision.
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
from .errors import ConfigError, DataError, DegenerateSamples, NumericError, TooFewSamples
from .finite_sample import FsConfig, fpw_set
from .gpw import BasisSpec, gpw_estimate, pate_estimate, wald_ci
from .inference import STATISTICS, HetBounds, ModelClass, NullGrid, confidence_set, pvalue_bounds
from .residuals import residual_from_json
from .simulate import FiniteSampleDgp, LargeSampleDgp, density_summary, run_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Options given with action="append": only these take a list in --config.
_REPEATABLE = ("bounds", "lambda_box", "kind")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_default(obj):
    # json writes float64 itself (it subclasses float); other numpy values
    # become Python lists and scalars.
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=_json_default)
    path.write_text(text + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_outputs(args: argparse.Namespace, files: dict) -> None:
    """Write each file into --out, then manifest.json. A .csv is (header, rows)."""
    manifest = {
        "command": args.command,
        "config": _config_echo(args),
        "versions": {
            "spw": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in [*files.items(), ("manifest.json", manifest)]:
            if name.endswith(".csv"):
                _write_csv(out_dir / name, *content)
            else:
                _write_json(out_dir / name, content)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to --out {args.out!r}: {exc}") from None


def _seed(text: str) -> int:
    # A negative seed would reach numpy's SeedSequence, which raises ValueError.
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


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


def _parse_spans(items: list[str], what: str, example: str) -> dict[int, tuple[float, float]]:
    # Format: NAME=KEY:LO,HI, e.g. w=1:0,20 (response bounds of treatment 1)
    # or k=0:0.01,0.10 (treatment-probability box of dense stratum 0).
    spans = {}
    for item in items:
        try:
            _, rest = item.split("=", 1)
            label, span = rest.split(":", 1)
            lo, hi = span.split(",")
            key, value = int(label), (float(lo), float(hi))
        except (ValueError, IndexError):
            raise ConfigError(f"cannot parse {what} {item!r}; expected {example}")
        if key in spans:
            raise ConfigError(f"{what} {item!r} repeats label {key}")
        spans[key] = value
    return spans


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
    try:
        return load_csv(
            args.data,
            schema,
            mode=mode,
            propensity_col=getattr(args, "propensity_col", None),
        )
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read --data: {exc}") from None


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The --config file's values as flag tokens for args.command.

    A string value is the flag's text, any other value its JSON text,
    and null leaves the default. A list gives a repeatable option one
    flag per item; the option's flags on the command line replace it.
    """
    try:
        values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    known = _config_echo(args)
    tokens = []
    for key, value in values.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "command":
            if value != args.command:
                raise ConfigError(f"config file is for command {value!r}, not {args.command!r}")
            continue
        if isinstance(value, list) and key not in _REPEATABLE:
            raise ConfigError(f"config key {key!r} takes one value, not a list")
        if value is None or (key in _REPEATABLE and known[key] is not None):
            continue
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            tokens.append(f"{flag}={item if isinstance(item, str) else json.dumps(item)}")
    return tokens


def cmd_estimate(args) -> tuple[int, dict | None]:
    data = _load_dataset(args, mode="large")
    basis = _basis_from_spec(args.basis)
    fit = gpw_estimate(data, None, basis, nu=args.nu)
    pate = pate_estimate(fit, data, basis)
    cis = [wald_ci(fit, np.eye(basis.dim)[j], args.level) for j in range(basis.dim)]
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
    print(f"beta = {[_fmt(b) for b in fit.beta]}  (condition {fit.condition:.3e})")
    return EXIT_OK, {"fit.json": payload}


def cmd_fpw(args) -> tuple[int, dict | None]:
    _require_args(args, "bounds")
    data = _load_dataset(args, mode="finite")
    strata = build_strata(data)
    bounds = _parse_spans(args.bounds, "bounds spec", "w=LABEL:LO,HI")
    cfg = FsConfig(bounds=bounds, kappa=_parse_kappa(args.kappa))
    est = fpw_set(data, strata, cfg)
    payload = {
        "lo": est.interval.lo,
        "hi": est.interval.hi,
        "per_w_intervals": {str(w): [iv.lo, iv.hi] for w, iv in est.per_w.items()},
    }
    if est.is_point:
        payload["point"] = est.interval.lo
    print(f"contrast set-estimate [{_fmt(est.interval.lo)}, {_fmt(est.interval.hi)}]")
    return EXIT_OK, {"fpw.json": payload}


def cmd_test(args) -> tuple[int, dict | None]:
    _require_args(args, "grid", "lambda_box")
    data = _load_dataset(args, mode="finite")
    strata = build_strata(data)
    try:
        lo, hi, step = (float(v) for v in args.grid.split(":"))
    except ValueError:
        raise ConfigError(f"cannot parse grid {args.grid!r}; expected LO:HI:STEP") from None
    grid = NullGrid.from_range(lo, hi, step)
    boxes = _parse_spans(args.lambda_box, "lambda box", "k=K:LO,HI")
    models = ModelClass.from_lambda_boxes(boxes, strata.n_strata, resolution=args.resolution)
    het = HetBounds(c1=args.c1)
    pvb = pvalue_bounds(
        data, strata, args.statistic, grid, models, het, args.draws, RngHandle(args.seed)
    )
    retained = confidence_set(pvb, args.alpha)
    warnings = []
    if args.alpha * pvb.draws < 10:
        warnings.append(
            f"B={pvb.draws} draws at alpha={args.alpha:g} give alpha*B < 10; "
            "the Monte-Carlo error of p near alpha exceeds about alpha/3"
        )
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    se_lo, se_hi = pvb.mc_standard_errors()
    meta = {
        "statistic": pvb.statistic,
        "observed": pvb.observed,
        "draws": pvb.draws,
        "n_models": pvb.n_models,
        "c1": pvb.c1,
        "alpha": args.alpha,
        "confidence_set": retained,
        "grid_resolution": step,
        "exceedance_counts": {"p_lo": pvb.k_lo, "p_hi": pvb.k_hi},
        "mc_standard_error": {"p_lo": se_lo, "p_hi": se_hi},
        "warnings": warnings,
    }
    print(
        f"p-value bounds over {pvb.grid.size} grid points "
        f"({pvb.n_models} model(s), B={pvb.draws}); "
        f"{retained.size} points retained at alpha={args.alpha}"
    )
    curves = (["Tbar", "p_lo", "p_hi"], zip(pvb.grid, pvb.p_lo, pvb.p_hi))
    return EXIT_OK, {"pvalues.csv": curves, "pvalues_meta.json": meta}


def cmd_simulate(args) -> tuple[int, dict | None]:
    _require_args(args, "dgp")
    if args.dgp == "large":
        dgp = LargeSampleDgp(n=args.n)
    else:
        dgp = FiniteSampleDgp(n=args.n, lam1=args.lam)
    table = dgp.study_estimators()
    estimators, truth = {}, {}
    for name in [s.strip() for s in args.estimators.split(",") if s.strip()]:
        # On the finite DGP, ipw names its finite-sample form ipw_fs.
        if name == "ipw" and name not in table:
            name = "ipw_fs"
        if name not in table:
            raise ConfigError(f"estimator {name!r} is not available for the {args.dgp} DGP")
        estimators[name], truths = table[name]
        truth.update({f"{name}.{col}": value for col, value in truths.items()})
    if not estimators:
        raise ConfigError("--estimators names no estimator")
    result = run_study(dgp, estimators, reps=args.reps, seed=args.seed)
    summary = result.summary(truth)
    files = {
        "summary.json": {"summary": summary, "errors": result.error_counts},
        "estimates.csv": (result.columns, result.matrix),
    }
    for j, col in enumerate(result.columns):
        try:
            dens = density_summary(result.matrix[:, j])
        except (TooFewSamples, DegenerateSamples):
            continue
        files[f"density_{col}.csv"] = (["x", "density"], zip(dens.grid, dens.density))
    for col, entry in summary.items():
        line = f"{col}: mean {entry['mean']:.4f} (sd {entry['sd']:.4f})"
        if "bias" in entry:
            line += f", bias {entry['bias']:+.4f}"
        print(line)
    return EXIT_OK, files


def cmd_check(args) -> tuple[int, dict | None]:
    extra = {}
    for text in args.kind or []:
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse residual JSON: {exc}")
        kind = residual_from_json(spec)
        # A repeated tag gets a suffix, so every --kind is probed.
        repeat = sum(other.name == kind.name for other in extra.values())
        extra[f"{kind.name}#{repeat + 1}" if repeat else kind.name] = kind
    report = check_suite(extra_kinds=extra or None)
    print(report.render())
    code = EXIT_OK if report.all_ok else EXIT_NUMERIC
    if not args.out:
        return code, None
    rows = [
        {
            "kind": r.kind,
            "property": r.prop,
            "magnitude": r.magnitude,
            "threshold": r.threshold,
            "passed": r.passed,
            "expected_pass": r.expected_pass,
        }
        for r in report.rows
    ]
    return code, {"check.json": {"rows": rows, "all_ok": report.all_ok}}


def _config_echo(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spw",
        description="Stable probability weighting estimators and finite-sample inference",
    )
    parser.add_argument("--version", action="version", version=f"spw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, seed=False):
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default="spw_out")
        p.add_argument("--config", default=None, help="JSON file; flags override its values")
        if data:
            # Required, but possibly supplied through --config; checked by each command.
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
    add_common(p_test, seed=True)
    p_test.add_argument("--grid", default=None, metavar="LO:HI:STEP")
    p_test.add_argument("--c1", type=float, default=0.0)
    p_test.add_argument("--lambda-box", action="append", default=None, metavar="k=K:LO,HI")
    p_test.add_argument("--resolution", type=int, default=5)
    p_test.add_argument("--draws", type=int, default=2000)
    p_test.add_argument("--statistic", choices=STATISTICS, default="t_hat")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="replication study over a built-in DGP")
    add_common(p_sim, data=False, seed=True)
    p_sim.add_argument("--dgp", choices=("large", "finite"), default=None)
    p_sim.add_argument("--n", type=int, default=2000)
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.02)
    p_sim.add_argument("--estimators", default="npw,ipw")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the residual property suite")
    p_check.add_argument("--out", default=None)
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
        if args.config:
            # The file's flags go right after the command, so the line's win.
            argv = sys.argv[1:] if argv is None else list(argv)
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_tokens(args), *argv[at:]])
        code, files = args.func(args)
        if files is not None:
            _write_outputs(args, files)
        return code
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
