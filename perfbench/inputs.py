"""Seeded workload inputs, drawn with plain numpy.

The two designs follow the docstrings of ``spw.simulate.LargeSampleDgp``
and ``spw.simulate.FiniteSampleDgp``, but are drawn here rather than by
calling ``spw.simulate``: a change to the program under test must not
be able to change what it is fed. Every input file is recorded with its
size and sha256 so a run can be matched to its inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def generator(seed: int, stream: int) -> np.random.Generator:
    """Independent stream ``stream`` of workload seed ``seed``."""
    return np.random.default_rng([seed, stream])


def large_design(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """X ~ U(0,1), e = X^4, W ~ Bernoulli(e), effect 3 - 2X.

    Y = 10 (1 - e) + e u1 + W (3 - 2X + 2 u2), (u1, u2) ~ U(-2, 2)^2.
    """
    x = rng.uniform(0.0, 1.0, n)
    e = x**4
    w = (rng.random(n) < e).astype(np.int64)
    u1 = rng.uniform(-2.0, 2.0, n)
    u2 = rng.uniform(-2.0, 2.0, n)
    y = 10.0 * (1.0 - e) + e * u1 + w * (3.0 - 2.0 * x + 2.0 * u2)
    return {"y": y, "w": w, "x": x, "e": e}


def finite_design(n: int, lam1: float, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Strata of 0.8n (x = 0) and 0.2n (x = 1) units, treated with
    probability lam1 and 1 - lam1; Y = 10 + 2(1+X) u1 + W [10 + (1+2X) u2]
    with (u1, u2) ~ U(-1, 1)^2."""
    x = (np.arange(1, n + 1) > 0.8 * n).astype(np.int64)
    lam = np.where(x == 1, 1.0 - lam1, lam1)
    w = (rng.random(n) < lam).astype(np.int64)
    u1 = rng.uniform(-1.0, 1.0, n)
    u2 = rng.uniform(-1.0, 1.0, n)
    y = 10.0 + 2.0 * (1.0 + x) * u1 + w * (10.0 + (1.0 + 2.0 * x) * u2)
    return {"y": y, "w": w, "x": x}


def exact_designs(rng: np.random.Generator) -> dict:
    """Designs for the three exact-enumeration laws.

    ``bias``: one stratum of 16 units (2^16 assignments), outcomes under
    treatment drawn freely. ``scaled``: strata of 8 and 6 units (2^14),
    free potential outcomes. ``fpw``: two strata of 6 units (2^12) whose
    potential outcomes have the same mean in every stratum, the setting
    in which the pooled set-estimator is unbiased.
    """
    y1 = rng.uniform(1.0, 3.0, 16)
    bias = {
        "sizes": [16],
        "lam": [float(rng.uniform(0.05, 0.5))],
        "outcomes": np.column_stack([np.zeros(16), y1]).tolist(),
    }
    scaled = {
        "sizes": [8, 6],
        "lam": rng.uniform(0.05, 0.95, 2).tolist(),
        "outcomes": rng.uniform(0.0, 5.0, (14, 2)).tolist(),
    }
    sizes = [6, 6]
    mu = [float(rng.uniform(2.0, 6.0)), float(rng.uniform(9.0, 13.0))]
    columns = []
    for arm in range(2):
        parts = []
        for n_k in sizes:
            dev = rng.uniform(-1.5, 1.5, n_k)
            parts.append(mu[arm] + (dev - dev.mean()))
        columns.append(np.concatenate(parts))
    fpw = {
        "sizes": sizes,
        "lam": rng.uniform(0.05, 0.5, 2).tolist(),
        "outcomes": np.column_stack(columns).tolist(),
        "mu": mu,
        "bounds": {"0": [0.0, 8.0], "1": [6.0, 16.0]},
    }
    return {"bias": bias, "scaled": scaled, "fpw": fpw}


def _record(path: Path, payload: bytes) -> dict:
    path.write_bytes(payload)
    return {
        "file": path.name,
        "bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> dict:
    """Write columns as CSV (floats by ``repr``, so they round-trip
    exactly) and return the file's record."""
    cells = []
    for values in columns.values():
        fmt = str if np.issubdtype(values.dtype, np.integer) else repr
        cells.append(map(fmt, values.tolist()))
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in zip(*cells))
    return _record(path, ("\n".join(lines) + "\n").encode())


def write_json(path: Path, payload: dict) -> dict:
    """Write a JSON input (floats by ``repr``) and return its record."""
    return _record(path, (json.dumps(payload, indent=1) + "\n").encode())
