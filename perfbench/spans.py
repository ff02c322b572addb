"""Spans around spw's public functions, installed from outside the package.

``install`` rebinds each traced function in its defining module and in
every ``spw`` module that imported it by name (``spw.cli.gpw_estimate``,
``spw.gpw_estimate``, ...), so calls from any importer are recorded.
Each span records its name, start, end, parent span and a count of the
work it was handed. Spans stay in memory and are written out once, by
``Recorder.dump``, when the step ends. ``read`` and ``self_times`` turn
a dump back into per-name self times (span time minus the time of its
direct children) and counts.

Parents come from one stack per process, so spans assume that spw runs
single threaded, as it does in every workload.
"""

from __future__ import annotations

import inspect
import json
import struct
import sys
import time
from array import array
from collections import defaultdict

FIELDS = 5  # name id, start ns, end ns, parent index (-1 = none), count

# Written to stderr around the import span, to delimit its -X importtime lines.
IMPORT_START = "perfbench: import start"
IMPORT_END = "perfbench: import end"


def _cells_omegas(a, result):
    return a["draws"] * a["data"].n


def _cells_curve(a, result):
    return (
        a["draws"]
        * a["grid"].values.size
        * len(a["het"].epsilon_corners())
        * len(a["models"].models)
    )


def _assignments(a, result):
    return len(a["model"].treatments) ** len(a["potential_outcomes"])


# (module, attribute, span name, count of work handed to the call or None).
# A span without a count function records 1 per call.
TARGETS = (
    ("spw.data", "load_csv", "data.load_csv", lambda a, r: r.n),
    ("spw.data", "Dataset.from_arrays", "data.from_arrays", None),
    ("spw.data", "build_strata", "data.build_strata", None),
    ("spw.gpw", "BasisSpec.matrix", "gpw.basis_matrix", None),
    ("spw.gpw", "gpw_estimate", "gpw.gpw_estimate", None),
    ("spw.gpw", "pate_estimate", "gpw.pate_estimate", None),
    ("spw.gpw", "wald_ci", "gpw.wald_ci", None),
    ("spw.inference", "statistic_weights", "inference.statistic_weights", None),
    ("spw.inference", "draw_omegas", "inference.draw_omegas", _cells_omegas),
    ("spw.inference", "pvalue_bounds", "inference.curve", _cells_curve),
    ("spw.finite_sample", "fpw_set", "finite_sample.fpw_set", None),
    ("spw.finite_sample", "shrinkage_mean", "finite_sample.shrinkage_mean", None),
    ("spw.finite_sample", "wmd_estimate", "finite_sample.wmd_estimate", None),
    ("spw.finite_sample", "ipw_fs_estimate", "finite_sample.ipw_fs_estimate", None),
    ("spw.finite_sample", "scaled_ate", "finite_sample.scaled_ate", None),
    ("spw.finite_sample", "enumerate_expectation", "finite_sample.enumerate", _assignments),
    ("spw.simulate", "FiniteSampleDgp.generate", "simulate.generate", None),
    ("spw.simulate", "LargeSampleDgp.generate", "simulate.generate", None),
    ("spw.simulate", "run_study", "simulate.run_study", None),
    ("spw.simulate", "density_summary", "simulate.density_summary", None),
    ("spw.checks", "check_suite", "checks.check_suite", lambda a, r: len(r.rows)),
)


class Recorder:
    """In-memory span log for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]  # index of the open span, -1 at top level

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(bound_arguments, result)`` gives the work the call was
        handed; without it the span counts 1.
        """
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            work = 1
            if count is not None:
                work = count(signature.bind(*args, **kwargs).arguments, result)
            spans[index] = (name_id, start, end, parent, work)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def dump(self, path: str, header: dict) -> None:
        """Write the header, the spans, and as the last 8 bytes the
        clock reading after everything else was written."""
        flat = array("q")
        for record in self.spans:
            flat.extend(record)
        head = dict(header, names=self.names, count=len(self.spans))
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            fh.write(flat.tobytes())
            fh.flush()
            fh.write(struct.pack("<q", time.perf_counter_ns()))


def install(recorder: Recorder) -> None:
    """Rebind every target in its defining module and in every loaded
    ``spw`` module that holds it under some name."""
    importers = [
        m for name, m in list(sys.modules.items()) if name == "spw" or name.startswith("spw.")
    ]
    for module_name, attr, span_name, count in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(recorder.wrap(span_name, raw.__func__, count)))
            else:
                setattr(owner, method, recorder.wrap(span_name, raw, count))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(span_name, original, count)
        for importer in importers:
            for key, value in list(vars(importer).items()):
                if value is original:
                    setattr(importer, key, traced)


def read(path) -> tuple[dict, list[tuple[int, int, int, int, int]], int]:
    """Load a dump: (header, spans, clock reading at the end of the dump)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.index(b"\n")
    head = json.loads(blob[:newline])
    body = array("q")
    body.frombytes(blob[newline + 1 : -8])
    (t_end,) = struct.unpack("<q", blob[-8:])
    spans = [tuple(body[i : i + FIELDS]) for i in range(0, len(body), FIELDS)]
    return head, spans, t_end


def self_times(names: list[str], spans) -> tuple[dict, dict, dict]:
    """Per span name: self seconds, number of calls, summed work counts."""
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for index, (name_id, start, end, _, count) in enumerate(spans):
        name = names[name_id]
        self_s[name] += (end - start - child_ns[index]) / 1e9
        calls[name] += 1
        work[name] += count
    return self_s, calls, work


def rep_times_ms(names: list[str], spans) -> list[float]:
    """Replication times inside each ``simulate.run_study`` span.

    A replication runs from the start of its ``simulate.generate`` span
    to the start of the next one; the last ends with the last child of
    the study. The first generate call of a study is the probe that
    discovers the estimators' columns, not a replication.
    """
    if "simulate.run_study" not in names:
        return []
    study_id = names.index("simulate.run_study")
    generate_id = names.index("simulate.generate")
    children = defaultdict(list)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((name_id, start, end))
    out = []
    for index, (name_id, start, end, _, _) in enumerate(spans):
        if name_id != study_id:
            continue
        kids = children[index]
        starts = sorted(s for n, s, _ in kids if n == generate_id)[1:]
        last = max(e for _, _, e in kids)
        bounds = starts + [last]
        out.extend((b - a) / 1e6 for a, b in zip(bounds, bounds[1:]))
    return out
