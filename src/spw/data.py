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
    ConfigError,
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
    dense codes back to the original stratum labels; a Dataset holds
    them exactly when it is finite. ``from_arrays`` copies its inputs
    and stores them read-only.
    """

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    treatments: tuple[int, ...]
    x_labels: np.ndarray | None = None
    propensity: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return LARGE if self.x_labels is None else FINITE

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
        y = _dims(_floats(y, "y"), "y")
        if y.size == 0:
            raise EmptyDataset()
        w = _dims(_labels(w, "w", UnknownTreatmentLabel), "w")
        negative = w < 0
        if np.any(negative):
            bad = int(np.argmax(negative))
            raise UnknownTreatmentLabel(int(w[bad]), row=bad + 1)
        declared = _declare_treatments(w, treatments)
        if mode == FINITE:
            x = _dims(_labels(x, "x", _bad_stratum), "x")
            x_labels, x = np.unique(x, return_inverse=True)
            x = x.astype(np.int64)
        elif mode == LARGE:
            x, x_labels = _dims(_floats(x, "x"), "x", (1, 2)), None
        else:
            raise FlavorMismatch(f"unknown dataset mode {mode!r}")
        e = None if propensity is None else _dims(_floats(propensity, "propensity"), "propensity")
        for column, arr in (("w", w), ("x", x), ("propensity", e)):
            if arr is not None and len(arr) != len(y):
                raise DataError(f"column {column!r} has {len(arr)} rows where y has {len(y)}")
        for arr in (y, w, x, x_labels, e):
            if arr is not None:
                arr.flags.writeable = False
        return cls(y=y, w=w, x=x, treatments=declared, x_labels=x_labels, propensity=e)

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


def _floats(values, column: str) -> np.ndarray:
    """A float copy of one column, (n,) or (n, p) for a covariate block.
    The first row holding a non-finite value raises ``NonFiniteValue``."""
    arr = np.array(values, dtype=float)
    finite = np.isfinite(arr)
    if not np.all(finite):
        # argmax indexes the flattened array; a row spans shape[1:] of it.
        row = int(np.argmax(~finite)) // math.prod(arr.shape[1:])
        raise NonFiniteValue(row + 1, column)
    return arr


def _dims(arr: np.ndarray, column: str, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """``arr`` if it has one of the ``ndims`` dimensions; else ``DataError``."""
    if arr.ndim not in ndims:
        want = " or ".join(f"{d}-D" for d in ndims)
        raise DataError(f"column {column!r} has shape {arr.shape}; expected a {want} array")
    return arr


def _labels(values, column: str, non_integer) -> np.ndarray:
    """Integer labels of one column as int64. An integer array keeps its
    values; anything else is read by ``_floats`` and must be whole. A label
    outside the int64 range would wrap, so it is refused as well:
    ``non_integer(value, row)`` is the error for the first bad one."""
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.integer):
        bad = arr > np.iinfo(np.int64).max  # only uint64 holds such labels
    else:
        arr = _floats(arr, column)
        bad = (arr != np.round(arr)) | (arr < -(2.0**63)) | (arr >= 2.0**63)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise non_integer(arr.flat[i].item(), i + 1)
    return arr.astype(np.int64)


def _bad_stratum(label, row: int) -> DataError:
    return DataError(
        f"stratum label {label!r} at data row {row} is not an integer in the int64 range"
    )


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for an array without NaN, signed zeros included."""
    # Not np.unique: without a return_* flag it probes np.ma.is_masked,
    # which imports numpy.ma on first use, a cost paid by every CLI step.
    s = np.sort(a, axis=None)
    keep = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _bad_treatment(value, position: int) -> ConfigError:
    return ConfigError(
        f"declared treatment {value!r} (entry {position}) is not an integer in 0 .. 2**63 - 1"
    )


def _declare_treatments(w: np.ndarray, treatments) -> tuple[int, ...]:
    observed = _sorted_unique(w).tolist()
    if treatments is None:
        return tuple(observed)
    given = np.asarray(list(treatments))
    try:
        labels = _labels(given, "treatments", _bad_treatment)
    except NonFiniteValue as exc:
        raise _bad_treatment(given.tolist()[exc.row - 1], exc.row) from None
    if np.any(labels < 0):
        i = int(np.argmax(labels < 0))
        raise _bad_treatment(labels[i].item(), i + 1)
    declared = tuple(_sorted_unique(labels).tolist())
    extra = sorted(set(observed) - set(declared))
    if extra:
        raise UnknownTreatmentLabel(extra[0], row=int(np.argmax(w == extra[0])) + 1)
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

