"""Per-layer metrics of one traced pass, derived from its spans.

Layers are spw's modules. A layer's ``_s`` metric is the self time of
its spans (span time minus direct child spans), summed over the pass's
steps; ``.calls`` counts spans and the other counts sum the work the
spans were handed. The import span is split by package with the
``-X importtime`` lines the step wrote between its import markers.
Interpreter start (spawn to the first line of the step script) and exit
(end of the span dump to reap) are measured from the parent.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import spans

# Layer spans reported as self time ("<name>_s"), in output order.
TIMED = (
    "cli",
    "bench.job",
    "bench.statistic",
    "data.load_csv",
    "data.from_arrays",
    "data.build_strata",
    "gpw.basis_matrix",
    "gpw.gpw_estimate",
    "gpw.pate_estimate",
    "gpw.wald_ci",
    "inference.statistic_weights",
    "inference.draw_omegas",
    "inference.curve",
    "finite_sample.fpw_set",
    "finite_sample.shrinkage_mean",
    "finite_sample.wmd_estimate",
    "finite_sample.ipw_fs_estimate",
    "finite_sample.scaled_ate",
    "finite_sample.enumerate",
    "simulate.generate",
    "simulate.run_study",
    "simulate.density_summary",
    "checks.check_suite",
)
CALLS = (
    "data.from_arrays",
    "data.build_strata",
    "gpw.basis_matrix",
    "gpw.wald_ci",
    "finite_sample.fpw_set",
    "finite_sample.shrinkage_mean",
    "simulate.generate",
)
# metric name -> span whose summed work counts it reports
WORK = {
    "data.load_csv.rows": "data.load_csv",
    "inference.draw_omegas.cells": "inference.draw_omegas",
    "inference.curve.cells": "inference.curve",
    "finite_sample.enumerate.assignments": "finite_sample.enumerate",
    "checks.rows": "checks.check_suite",
}
# Replication-time percentiles: metric -> (study step label, percentile).
REP_PERCENTILES = {
    "simulate.rep_p50_ms": ("study-finite", 50),
    "simulate.rep_p99_ms": ("study-finite", 99),
    "simulate.rep_p90_ms": ("study-large", 90),
}
PACKAGES = ("scipy", "numpy")
LAYER_ORDER = (
    "import", "cli", "data", "gpw", "inference", "finite_sample", "simulate", "checks",
    "bench", "proc", "trace",
)


def _name(span: str) -> str:
    return "cli.self_s" if span == "cli" else f"{span}_s"


def import_split(stderr: str) -> dict[str, float]:
    """Seconds of import between the step's markers owned by each of
    PACKAGES: a module's own time, and that of everything it imported,
    belongs to its outermost scipy or numpy ancestor."""
    lines = stderr.splitlines()
    try:
        window = lines[lines.index(spans.IMPORT_START) + 1 : lines.index(spans.IMPORT_END)]
    except ValueError:
        return {}
    pending: list[tuple[int, dict]] = []  # importtime prints children before parents
    for line in window:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, field = line[len("import time:") :].split("|", 2)
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        name = field.strip()
        owned = defaultdict(float)
        while pending and pending[-1][0] > depth:
            for key, value in pending.pop()[1].items():
                owned[key] += value
        package = name.split(".")[0]
        owned[package if package in PACKAGES else "other"] += int(self_us) / 1e6
        if package in PACKAGES:
            owned = defaultdict(float, {package: sum(owned.values())})
        pending.append((depth, owned))
    total = defaultdict(float)
    for _, owned in pending:
        for key, value in owned.items():
            total[key] += value
    return {p: total[p] for p in PACKAGES}


def traced_pass(results, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the StepResults of its steps)."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    packages = defaultdict(float)
    reps = defaultdict(list)
    start_s = exit_s = 0.0
    errors = 0
    for r in results:
        head, records, t_end = spans.read(r.spans_path)
        s, c, w = spans.self_times(head["names"], records)
        for table, part in ((self_s, s), (calls, c), (work, w)):
            for key, value in part.items():
                table[key] += value
        for key, value in import_split(r.stderr).items():
            packages[key] += value
        reps[r.label].extend(spans.rep_times_ms(head["names"], records))
        start_s += (head["t_script"] - r.t_spawn_ns) / 1e9
        exit_s += (r.t_reaped_ns - t_end) / 1e9
        errors += r.estimator_errors

    out = {
        "import.spw_s": self_s["import"] - sum(packages[p] for p in PACKAGES),
        "import.scipy_s": packages["scipy"],
        "import.numpy_s": packages["numpy"],
    }
    out.update({_name(span): self_s[span] for span in TIMED})
    out.update({f"{span}.calls": calls[span] for span in CALLS})
    out.update({metric: work[span] for metric, span in WORK.items()})
    assignments = work["finite_sample.enumerate"]
    out["finite_sample.enumerate.us_per_assignment"] = (
        self_s["finite_sample.enumerate"] / assignments * 1e6 if assignments else 0.0
    )
    for metric, (label, q) in REP_PERCENTILES.items():
        out[metric] = float(np.percentile(reps[label], q)) if reps[label] else 0.0
    out["simulate.estimator_errors"] = errors
    out["proc.start_s"] = start_s
    out["proc.exit_s"] = exit_s
    out["trace.coverage"] = (start_s + exit_s + sum(self_s.values())) / wall_s
    return out


def ordered(metrics: dict) -> dict:
    """The metrics grouped by layer, in LAYER_ORDER, then by name."""
    return dict(
        sorted(metrics.items(), key=lambda kv: (LAYER_ORDER.index(kv[0].split(".")[0]), kv[0]))
    )
