"""The ``exact`` workload: spw's enumeration oracle and check suite as a
library user runs them.

Three ``enumerate_expectation`` calls integrate the statistics behind
the package's exact laws over every assignment of the designs in the
input file, building each statistic with ``dataclasses.replace`` the
way the acceptance tests do; then ``check_suite()`` runs. The results
are written to the output file. The laws themselves are checked by the
benchmark's parent process, against closed forms it computes itself.

    python perfbench/step.py exact INPUT.json OUTPUT.json
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from spw import checks, data, finite_sample


def _base(sizes):
    labels = [k for k, n_k in enumerate(sizes) for _ in range(n_k)]
    n = len(labels)
    base = data.Dataset.from_arrays(
        np.zeros(n), np.zeros(n, dtype=int), labels, treatments=(0, 1)
    )
    return base, data.build_strata(base)


def _expectation(design, statistic, wrap):
    base, strata = _base(design["sizes"])

    def stat(w_vec, y_vec):
        return statistic(replace(base, y=y_vec, w=w_vec), strata)

    model = finite_sample.AssignmentModel.binary(design["lam"])
    return finite_sample.enumerate_expectation(
        wrap("bench.statistic", stat), np.asarray(design["outcomes"]), model, strata
    )


def main(argv, wrap=lambda name, fn: fn) -> int:
    """Run the job; ``wrap(name, fn)`` may put the statistics in spans."""
    in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        designs = json.load(fh)
    fpw = designs["fpw"]
    cfg = finite_sample.FsConfig(
        bounds={int(w): tuple(b) for w, b in fpw["bounds"].items()}, kappa={0: -1.0, 1: 1.0}
    )

    def fpw_endpoints(d, strata):
        est = finite_sample.fpw_set(d, strata, cfg)
        return (est.interval.lo, est.interval.hi)

    results = {
        "bias": _expectation(
            designs["bias"], lambda d, s: finite_sample.shrinkage_mean(d, s, 1, 0), wrap
        ),
        "scaled": _expectation(
            designs["scaled"], lambda d, s: finite_sample.scaled_ate(d, s, 1, 0), wrap
        ),
        "fpw": _expectation(fpw, fpw_endpoints, wrap).tolist(),
    }
    report = checks.check_suite()
    results["check_suite"] = {"rows": len(report.rows), "all_ok": report.all_ok}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0
