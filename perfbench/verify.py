"""Output checks, one per workload step, independent of the code under test.

Each check reads what a step wrote and returns a list of problems (empty
when the output is right). Oracles are computed here from the inputs
with plain numpy and the standard library: the large-sample fit from a
direct solve of its moment equation, p-values from the k/B lattice they
must lie on, and the exact laws from their closed forms.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

BETA_RTOL = 1e-9
SIGMA_RTOL = 1e-7
LAW_TOL = 1e-12


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(name, got, want, rtol, problems):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= rtol * scale):
        problems.append(f"{name}: got {got.tolist()}, expected {want.tolist()}")


def estimate(out_dir: Path, design: dict, nu: float, level: float) -> list[str]:
    """fit.json against a direct numpy fit of the moment equation
    E_n[q^nu Z {(W - e) Y - q Z'b}] = 0, q = e(1-e), with basis (1, x),
    its sandwich covariance, and Wald intervals b +- z se."""
    fit = json.loads((out_dir / "fit.json").read_text())
    y, w, x, e = (np.asarray(design[k], dtype=float) for k in ("y", "w", "x", "e"))
    n = y.size
    z = np.column_stack([np.ones(n), x])
    q = e * (1.0 - e)
    bread = (z * (q ** (nu + 1.0))[:, None]).T @ z / n
    score = (z * ((q**nu) * (w - e) * y)[:, None]).mean(axis=0)
    beta = np.linalg.solve(bread, score)
    resid = (q**nu) * ((w - e) * y - q * (z @ beta))
    meat = (z * (resid**2)[:, None]).T @ z / n
    bread_inv = np.linalg.inv(bread)
    sigma = bread_inv @ meat @ bread_inv
    sigma = 0.5 * (sigma + sigma.T)
    se = np.sqrt(np.diag(sigma) / n)
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * se
    zbar = z.mean(axis=0)

    problems: list[str] = []
    if fit["n"] != n:
        problems.append(f"n: got {fit['n']}, expected {n}")
    _close("beta", fit["beta"], beta, BETA_RTOL, problems)
    _close("sigma", fit["sigma"], sigma, SIGMA_RTOL, problems)
    _close("se", fit["se"], se, SIGMA_RTOL, problems)
    _close(
        "wald_ci",
        fit["wald_ci"]["intervals"],
        np.column_stack([beta - half, beta + half]),
        BETA_RTOL,
        problems,
    )
    _close("average_effect", fit["average_effect"]["estimate"], beta @ zbar, BETA_RTOL, problems)
    return problems


def pcurve(out_dir: Path, draws: int, grid_size: int, alpha: float) -> list[str]:
    """Every p is k/B for an integer k, p_lo <= p_hi, and the confidence
    set is exactly the grid points with p_hi > alpha."""
    with open(out_dir / "pvalues.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    meta = json.loads((out_dir / "pvalues_meta.json").read_text())
    problems: list[str] = []
    if rows[0] != ["Tbar", "p_lo", "p_hi"] or len(rows) != grid_size + 1:
        return [f"pvalues.csv: header {rows[0]} and {len(rows) - 1} rows, expected {grid_size}"]
    values = [tuple(float(v) for v in row) for row in rows[1:]]
    if meta["draws"] != draws:
        problems.append(f"draws: got {meta['draws']}, expected {draws}")
    for t, p_lo, p_hi in values:
        for p in (p_lo, p_hi):
            if not (0.0 <= p <= 1.0 and round(p * draws) / draws == p):
                problems.append(f"p = {p!r} at Tbar = {t!r} is not on the k/{draws} lattice")
        if p_lo > p_hi:
            problems.append(f"p_lo {p_lo!r} > p_hi {p_hi!r} at Tbar = {t!r}")
    retained = [t for t, _, p_hi in values if p_hi > alpha]
    if meta["confidence_set"] != retained:
        problems.append("confidence set differs from {Tbar : p_hi > alpha}")
    return problems[:10]


def study(out_dir: Path, columns: list[str], reps: int) -> list[str]:
    """estimates.csv has one finite row per replication, the expected
    columns, lo <= mid <= hi for the set-estimator, and 0/1 indicators."""
    with open(out_dir / "estimates.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != columns:
        return [f"estimates.csv columns {rows[0]}, expected {columns}"]
    if len(rows) - 1 != reps:
        return [f"estimates.csv has {len(rows) - 1} rows, expected {reps}"]
    m = np.array(rows[1:], dtype=float)
    problems: list[str] = []
    if not np.all(np.isfinite(m)):
        problems.append(f"{int(np.sum(~np.isfinite(m)))} non-finite estimates")
    col = {name: m[:, j] for j, name in enumerate(columns)}
    if "fpw.mid" in col:
        if not np.all((col["fpw.lo"] <= col["fpw.mid"]) & (col["fpw.mid"] <= col["fpw.hi"])):
            problems.append("fpw: lo <= mid <= hi fails")
    for name, values in col.items():
        if (".cover_" in name or name.endswith("is_interval")) and not np.all(
            (values == 0.0) | (values == 1.0)
        ):
            problems.append(f"{name} is not a 0/1 indicator")
    return problems


def exact(result_path: Path, designs: dict) -> list[str]:
    """The three exact laws at 1e-12 and a passing check suite.

    bias: E[shrinkage mean] = mean(y1) (1 - (1 - lam)^N).
    scaled: E[scaled_ate] = mean over units of lam (1 - lam) (y1 - y0).
    fpw: E[lo] <= mean(y1) - mean(y0) <= E[hi].
    """
    got = json.loads(result_path.read_text())
    problems: list[str] = []

    bias = designs["bias"]
    n = bias["sizes"][0]
    lam = bias["lam"][0]
    y1 = np.asarray(bias["outcomes"])[:, 1]
    want = math.fsum(y1) / n * (1.0 - (1.0 - lam) ** n)
    if not abs(got["bias"] - want) <= LAW_TOL:
        problems.append(f"bias law: {got['bias']!r} vs {want!r}")

    scaled = designs["scaled"]
    lam_unit = np.repeat(scaled["lam"], scaled["sizes"])
    pot = np.asarray(scaled["outcomes"])
    want = math.fsum(lam_unit * (1.0 - lam_unit) * (pot[:, 1] - pot[:, 0])) / len(lam_unit)
    if not abs(got["scaled"] - want) <= LAW_TOL:
        problems.append(f"scaled law: {got['scaled']!r} vs {want!r}")

    pot = np.asarray(designs["fpw"]["outcomes"])
    theta = math.fsum(pot[:, 1]) / len(pot) - math.fsum(pot[:, 0]) / len(pot)
    lo, hi = got["fpw"]
    if not (theta - lo >= -LAW_TOL and hi - theta >= -LAW_TOL):
        problems.append(f"fpw law: [{lo!r}, {hi!r}] does not cover {theta!r}")

    suite = got["check_suite"]
    if not (suite["all_ok"] is True and suite["rows"] > 0):
        problems.append(f"check_suite: {suite}")
    return problems
