"""Observation storage, stratum indexing, CSV I/O, and RNG plumbing.

Datasets come in two flavors selected at load time. The finite-sample
flavor stores integer stratum labels (remapped to dense 0-based codes,
with the original labels retained); the large-sample flavor stores real
covariates and optionally a propensity column. Operations elsewhere in
the package declare which flavor they accept.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyDataset,
    FlavorMismatch,
    MissingColumn,
    NonFiniteValue,
    StratumTooSmall,
    UnknownTreatmentLabel,
)

FINITE = "finite"
LARGE = "large"


@dataclass(frozen=True)
class RngHandle:
    """Reproducible random stream identified by (seed, stream).

    Streams are derived with ``SeedSequence`` spawn keys over a
    counter-based Philox generator, so identical (seed, stream) pairs
    reproduce draws bit-for-bit and distinct streams are independent
    by construction. ``child`` nests another level, keeping the full
    stream path in the spawn key.
    """

    seed: int
    stream: int = 0
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(*self.path, self.stream))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, stream: int) -> "RngHandle":
        return RngHandle(self.seed, stream, (*self.path, self.stream))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated, immutable observation table.

    ``x`` holds dense 0-based stratum codes in finite mode, or a float
    array (n,) or (n, p) of covariates in large mode. ``x_labels`` maps
    dense codes back to the original stratum labels. ``from_arrays``
    copies its inputs and stores them read-only.
    """

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    treatments: tuple[int, ...]
    mode: str
    x_labels: np.ndarray | None = None
    propensity: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_strata(self) -> int:
        if self.mode != FINITE:
            raise FlavorMismatch("n_strata is only defined for finite-sample datasets")
        return len(self.x_labels)

    @classmethod
    def from_arrays(
        cls,
        y: Sequence[float],
        w: Sequence[int],
        x: Sequence,
        *,
        mode: str = FINITE,
        treatments: Iterable[int] | None = None,
        propensity: Sequence[float] | None = None,
    ) -> "Dataset":
        y = np.array(y, dtype=float)
        w = np.asarray(w)
        if y.size == 0:
            raise EmptyDataset()
        y_finite = np.isfinite(y)
        if not np.all(y_finite):
            raise NonFiniteValue(int(np.argmax(~y_finite)) + 1, "y")
        w_int = _validate_treatments(w)
        declared = _declare_treatments(w_int, treatments)
        if mode == FINITE:
            x_arr = np.asarray(x)
            if not np.issubdtype(x_arr.dtype, np.integer):
                x_float = np.asarray(x, dtype=float)
                finite = np.isfinite(x_float)
                if not np.all(finite):
                    raise NonFiniteValue(int(np.argmax(~finite)) + 1, "x")
                fractional = x_float != np.round(x_float)
                if np.any(fractional):
                    row = int(np.argmax(fractional)) + 1
                    raise DataError(
                        f"stratum label {x_float[row - 1]!r} at data row {row} is not an integer"
                    )
                x_arr = x_float.astype(np.int64)
            labels, codes = np.unique(x_arr, return_inverse=True)
            dataset_x = codes.astype(np.int64)
            x_labels = labels
        elif mode == LARGE:
            dataset_x = np.array(x, dtype=float)
            flat = dataset_x.reshape(dataset_x.shape[0], -1)
            bad = ~np.all(np.isfinite(flat), axis=1)
            if np.any(bad):
                raise NonFiniteValue(int(np.argmax(bad)) + 1, "x")
            x_labels = None
        else:
            raise FlavorMismatch(f"unknown dataset mode {mode!r}")
        e = None
        if propensity is not None:
            e = np.array(propensity, dtype=float)
            if not np.all(np.isfinite(e)):
                raise NonFiniteValue(int(np.argmax(~np.isfinite(e))) + 1, "propensity")
        for arr in (y, w_int, dataset_x, x_labels, e):
            if arr is not None:
                arr.flags.writeable = False
        return cls(
            y=y,
            w=w_int,
            x=dataset_x,
            treatments=declared,
            mode=mode,
            x_labels=x_labels,
            propensity=e,
        )

    def restrict(self, strata_labels: Iterable) -> "Dataset":
        """Subset to the given original stratum labels (finite mode).

        This is the pre-filter used when conditional means are constant
        only within a coarser grouping of the strata: analyze one group
        at a time.
        """
        if self.mode != FINITE:
            raise FlavorMismatch("restrict() requires a finite-sample dataset")
        keep = np.isin(self.x_labels[self.x], np.asarray(list(strata_labels)))
        return Dataset.from_arrays(
            self.y[keep],
            self.w[keep],
            self.x_labels[self.x[keep]],
            mode=FINITE,
            treatments=self.treatments,
        )


def _validate_treatments(w: np.ndarray) -> np.ndarray:
    if np.issubdtype(w.dtype, np.integer):
        w_int = w.astype(np.int64)
    else:
        w_float = np.asarray(w, dtype=float)
        finite = np.isfinite(w_float)
        if not np.all(finite):
            raise NonFiniteValue(int(np.argmax(~finite)) + 1, "w")
        fractional = w_float != np.round(w_float)
        if np.any(fractional):
            bad = int(np.argmax(fractional))
            raise UnknownTreatmentLabel(w_float[bad], row=bad + 1)
        w_int = w_float.astype(np.int64)
    if np.any(w_int < 0):
        bad = int(np.argmax(w_int < 0))
        raise UnknownTreatmentLabel(int(w_int[bad]), row=bad + 1)
    return w_int


def _declare_treatments(w: np.ndarray, treatments) -> tuple[int, ...]:
    observed = set(int(v) for v in np.unique(w))
    if treatments is None:
        return tuple(sorted(observed))
    declared = tuple(sorted(int(t) for t in treatments))
    extra = observed - set(declared)
    if extra:
        label = sorted(extra)[0]
        row = int(np.argmax(w == label)) + 1
        raise UnknownTreatmentLabel(label, row=row)
    return declared


def load_csv(
    path,
    schema: Sequence[str] = ("y", "w", "x"),
    *,
    mode: str = FINITE,
    treatments: Iterable[int] | None = None,
    propensity_col: str | None = None,
) -> Dataset:
    """Read a validated Dataset from a UTF-8 CSV file with a header row.

    ``schema`` names the (outcome, treatment, stratum-or-covariate)
    columns; the covariate entry may itself be a sequence of column
    names in large-sample mode. Row order is preserved.
    """
    y_col, w_col, x_col = schema
    x_cols = [x_col] if isinstance(x_col, str) else list(x_col)
    columns = [y_col, w_col, *x_cols] + ([propensity_col] if propensity_col else [])
    block = _read_columns(path, columns)
    x_arr = block[:, 2] if isinstance(x_col, str) else block[:, 2 : 2 + len(x_cols)]
    return Dataset.from_arrays(
        block[:, 0],
        block[:, 1],
        x_arr,
        mode=mode,
        treatments=treatments,
        propensity=block[:, -1] if propensity_col else None,
    )


def _read_columns(path, columns: Sequence[str]) -> np.ndarray:
    """Parse the named columns into an (n, len(columns)) float block.

    One C-level ``np.loadtxt`` pass reads the whole file. When it
    rejects a value, finds no rows, reads a non-finite one, or the file
    holds a character that it strips but ``float()`` rejects, the file
    is parsed again by ``_read_rows``, which accepts exactly what
    ``float()`` accepts and names the offending row and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise EmptyDataset()
        index = {name: i for i, name in enumerate(header)}  # last duplicate wins
        for col in columns:
            if col not in index:
                raise MissingColumn(col)
        try:
            with warnings.catch_warnings():
                # A header-only file is handled below, not warned about.
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(
                    fh,
                    delimiter=",",
                    usecols=[index[c] for c in columns],
                    dtype=float,
                    comments=None,
                    quotechar='"',
                    ndmin=2,
                )
        except ValueError:
            block = None
    if (
        block is None
        or block.shape[0] == 0
        or not np.all(np.isfinite(block))
        or _has_separator(path)
    ):
        return _read_rows(path, columns)
    return block


# The ASCII separators 0x1c-0x1f: whitespace to loadtxt, invalid to float().
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _has_separator(path) -> bool:
    """Whether the file holds a byte 0x1c-0x1f. It is read in 64 KiB
    chunks, below glibc's default mmap threshold, so the scan neither
    grows with the file nor raises that threshold for later arrays."""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            if any(sep in chunk for sep in _SEPARATORS):
                return True
    return False


def _read_rows(path, columns: Sequence[str]) -> np.ndarray:
    """Row-by-row parse with ``float()``; the reference for ``_read_columns``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyDataset()
        header = set(reader.fieldnames)
        for col in columns:
            if col not in header:
                raise MissingColumn(col)
        rows = list(reader)
    if not rows:
        raise EmptyDataset()
    values = [
        [_parse_float(row[c], i, c) for c in columns] for i, row in enumerate(rows, start=1)
    ]
    return np.asarray(values, dtype=float).reshape(len(rows), len(columns))


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise NonFiniteValue(row, column) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column)
    return value


def write_csv(data: Dataset, path, schema: Sequence[str] = ("y", "w", "x")) -> None:
    """Write a Dataset back to CSV; load_csv(write_csv(d)) == d.

    Floats are serialized with ``repr``, the shortest representation
    that round-trips the IEEE double exactly (at most 17 significant
    digits).
    """
    y_col, w_col, x_col = schema
    x_cols = [x_col] if isinstance(x_col, str) else list(x_col)
    header = [y_col, w_col, *x_cols]
    if data.propensity is not None:
        header.append("e")
    x = data.x if data.mode == LARGE else data.x_labels[data.x]
    x2d = np.asarray(x).reshape(data.n, -1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(data.y[i])), str(int(data.w[i]))]
            if data.mode == FINITE:
                row.extend(str(int(v)) for v in x2d[i])
            else:
                row.extend(repr(float(v)) for v in x2d[i])
            if data.propensity is not None:
                row.append(repr(float(data.propensity[i])))
            writer.writerow(row)


@dataclass(frozen=True, eq=False)
class StrataIndex:
    """Partition of observation indices by dense stratum code."""

    members: tuple[np.ndarray, ...]
    counts: np.ndarray
    labels: np.ndarray  # unit -> dense stratum code

    @property
    def n_strata(self) -> int:
        return len(self.members)

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Number of True entries of the boolean ``mask`` per stratum, along
        its last axis: (K,) for one assignment (n,), (B, K) for a batch (B, n)."""
        if mask.ndim == 1:
            return np.bincount(self.labels[mask], minlength=self.n_strata)
        order, starts = self._runs
        return np.add.reduceat(mask.take(order, axis=-1), starts, axis=-1, dtype=np.int64)

    @cached_property
    def _loo_sizes(self) -> np.ndarray:
        """N_k - 1 per stratum, as floats: a unit's stratum without it."""
        return self.counts - 1.0

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Units sorted by stratum, and where each stratum's run of them
        starts: one ``reduceat`` then counts a whole batch."""
        return np.concatenate(self.members), np.cumsum(self.counts) - self.counts


def build_strata(data: Dataset) -> StrataIndex:
    """Group observations by stratum; finite-sample mode requires N_k >= 2."""
    if data.mode != FINITE:
        raise FlavorMismatch("build_strata requires a finite-sample dataset")
    k = data.n_strata
    members = tuple(np.flatnonzero(data.x == code) for code in range(k))
    counts = np.array([m.size for m in members], dtype=np.int64)
    for code in range(k):
        if counts[code] < 2:
            raise StratumTooSmall(data.x_labels[code], int(counts[code]))
    return StrataIndex(members=members, counts=counts, labels=data.x.copy())

