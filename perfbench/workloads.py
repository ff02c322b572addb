"""The four workloads: their inputs, steps, work counts and output checks.

Each workload is a closed loop with one client: its steps run one after
another, each in a fresh interpreter, and a pass is every step once.

- ``estimate-200k``: one ``spw estimate`` on a 200 000-row CSV from the
  limited-overlap design; the only path through CSV parsing and a large
  moment fit. Bypasses inference, finite_sample and simulate.
- ``pcurve``: one ``spw test`` (B = 4000 draws, 25 models, 4
  heterogeneity corners, 401 grid points) on an n = 200 finite-design
  CSV; omega draws and curve assembly, separable. Bypasses CSV cost, gpw
  and finite_sample.
- ``study``: two ``spw simulate`` replication studies, many small calls
  through gpw, finite_sample and data (from arrays, not CSV).
- ``exact``: one library process running the enumeration oracle for
  the three exact laws, then the residual check suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import verify

DEFAULT_SEED = 0

# sha256 of the byte-pinned outputs at DEFAULT_SEED.
PINNED = {
    ("pcurve", "pvalues.csv"): "27328e5027497a1478c73a37dbd75811b4cf7e53d98feead3fd039fc83971ba1",
    ("study-finite", "estimates.csv"): (
        "c0e1556e4b926061bd10f9d676b881508265fd74738080cbba1a9f6d0a8a4e4a"
    ),
    ("study-large", "estimates.csv"): (
        "24a1d1bfd44ce8b4daa0aff8f572eb0d9da9d485c1a735868373e726b3377040"
    ),
}

STEP = "perfbench/step.py"
CLI_SETUP = (STEP, "cli", "--version")


@dataclass(frozen=True)
class Step:
    """One process: ``python <argv>``. ``out`` is wiped before it runs;
    ``check`` returns the problems found in what it wrote."""

    label: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[], list[str]]
    pinned: tuple[str, ...] = ()


@dataclass
class Plan:
    setup_argv: tuple[str, ...]
    steps: list[Step]
    work: int
    work_unit: str
    sizes: dict
    inputs: list[dict] = field(default_factory=list)


def estimate_200k(seed: int, work: Path) -> Plan:
    n = 200_000
    design = inputs.large_design(n, inputs.generator(seed, 1))
    record = inputs.write_csv(work / "large.csv", design)
    out = work / "fit"
    argv = (
        STEP, "cli", "estimate", "--data", str(work / "large.csv"), "--nu", "1",
        "--basis", "linear", "--propensity-col", "e", "--out", str(out),
    )
    step = Step("estimate", argv, out, lambda: verify.estimate(out, design, 1.0, 0.95))
    return Plan(CLI_SETUP, [step], n, "rows", {"rows": n}, [record])


def pcurve(seed: int, work: Path) -> Plan:
    n, draws, grid, corners, models = 200, 4000, 401, 4, 25
    design = inputs.finite_design(n, 0.02, inputs.generator(seed, 2))
    record = inputs.write_csv(work / "finite.csv", design)
    out = work / "pcurve"
    argv = (
        STEP, "cli", "test", "--data", str(work / "finite.csv"), "--statistic", "t_hat",
        "--c1", "0.5", "--grid=-5:15:0.05", "--draws", str(draws),
        "--lambda-box", "k=0:0.01,0.10", "--lambda-box", "k=1:0.90,0.99",
        "--seed", str(seed), "--out", str(out),
    )
    step = Step(
        "pcurve", argv, out, lambda: verify.pcurve(out, draws, grid, 0.05), ("pvalues.csv",)
    )
    sizes = {"n": n, "draws": draws, "grid": grid, "corners": corners, "models": models}
    return Plan(CLI_SETUP, [step], draws * grid * corners * models, "cells", sizes, [record])


FINITE_COLUMNS = [
    "fpw.mid", "fpw.lo", "fpw.hi", "fpw.is_interval", "wmd.est", "ipw_fs.est", "scaled.est",
]
LARGE_COLUMNS = [
    "npw.b0", "npw.b1", "npw.ate", "npw.cover_b0", "npw.cover_b1", "ipw.b0", "ipw.b1", "ipw.ate",
]


def study(seed: int, work: Path) -> Plan:
    finite_reps, large_reps = 2000, 200
    finite_out, large_out = work / "finite", work / "large"
    finite = (
        STEP, "cli", "simulate", "--dgp", "finite", "--n", "50", "--lam", "0.02",
        "--reps", str(finite_reps), "--estimators", "fpw,wmd,ipw_fs,scaled",
        "--seed", str(seed), "--out", str(finite_out),
    )
    large = (
        STEP, "cli", "simulate", "--dgp", "large", "--n", "2000", "--reps", str(large_reps),
        "--estimators", "npw,ipw", "--seed", str(seed), "--out", str(large_out),
    )
    steps = [
        Step(
            "study-finite", finite, finite_out,
            lambda: verify.study(finite_out, FINITE_COLUMNS, finite_reps), ("estimates.csv",),
        ),
        Step(
            "study-large", large, large_out,
            lambda: verify.study(large_out, LARGE_COLUMNS, large_reps), ("estimates.csv",),
        ),
    ]
    sizes = {"finite": {"n": 50, "reps": finite_reps}, "large": {"n": 2000, "reps": large_reps}}
    return Plan(CLI_SETUP, steps, finite_reps + large_reps, "replications", sizes)


def exact(seed: int, work: Path) -> Plan:
    designs = inputs.exact_designs(inputs.generator(seed, 4))
    record = inputs.write_json(work / "exact.json", designs)
    out = work / "exact"
    result = out / "result.json"
    argv = (STEP, "exact", str(work / "exact.json"), str(result))
    step = Step("exact", argv, out, lambda: verify.exact(result, designs))
    sizes = {name: 2 ** sum(d["sizes"]) for name, d in designs.items()}
    return Plan(("-c", "import spw"), [step], sum(sizes.values()), "assignments",
                {"assignments": sizes}, [record])


WORKLOADS = {"estimate-200k": estimate_200k, "pcurve": pcurve, "study": study, "exact": exact}
