"""spw benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding ``src/spw``);
it exits with code 2 and prints no result anywhere else. It draws the
workload's inputs from ``--seed``, then measures rounds until the next
round would end after ``--seconds``; if the first set-up probe fails,
spw cannot start and it exits with code 1. Each step is a fresh interpreter
(``PYTHONPATH=src``), timed from spawn to reap with ``os.wait4``, which
also gives its peak RSS and CPU time; the workload's steps run one at a
time (a closed loop with one client). Every step's output is checked
against an oracle that does not use spw.

``--trace 0`` rounds are one untraced pass, preceded in the first three
rounds by a set-up probe, and the result carries the end-to-end metrics:

- ``wall_s``: median wall time of a pass (sum of its steps, spawn to exit)
- ``items_per_s``: the workload's work count / ``wall_s``
- ``setup_s``: median time from spawn to package ready (``spw --version``,
  or ``python -c "import spw"`` for ``exact``)
- ``peak_rss_mb``: median over passes of the largest step RSS

``error_rate`` (failed steps / attempted steps) is printed with them and
is the result's ``failed`` / ``attempted``.

``--trace 1`` rounds are one untraced and one traced pass (``-X
importtime`` plus spans, see ``spans.py``), and the result carries the
per-layer metrics of ``layers.py`` (medians over traced passes) with
``proc.cpu_s``/``proc.cpu_util`` from the untraced passes and
``trace.overhead_s``, the traced minus the untraced median wall.

All timings are wall-clock ``perf_counter`` readings, on a machine that
may be shared; nothing traces the whole machine or drops caches, so other
load shows up as noise. Outputs go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import verify
import workloads

DEADLINE_S = 170.0  # a run must end within 180 s, even if a step hangs
# setup_s is the median of this many probes, made in the first rounds; the
# rest of the run goes to passes, whose median wall is the noisier metric.
SETUP_PROBES = 3


@dataclass
class StepResult:
    label: str
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    t_spawn_ns: int
    t_reaped_ns: int
    stderr: str
    spans_path: Path | None = None
    estimator_errors: int = 0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


class Runner:
    """Spawns step processes from the checkout root with PYTHONPATH=src."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, argv, label="setup", spans_path: Path | None = None) -> StepResult:
        cmd = [sys.executable]
        if spans_path is not None:
            cmd += ["-X", "importtime", argv[0], "--trace", str(spans_path), *argv[1:]]
        else:
            cmd += list(argv)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            remaining = DEADLINE_S - (time.perf_counter() - self.started)
            signal.alarm(max(1, int(remaining)))
            t_spawn = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                t_reaped = time.perf_counter_ns()
                signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StepResult(
            label=label,
            code=proc.returncode,
            wall_s=(t_reaped - t_spawn) / 1e9,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            t_spawn_ns=t_spawn,
            t_reaped_ns=t_reaped,
            stderr=err_path.read_text(errors="replace"),
            spans_path=spans_path,
        )


def run_pass(runner: Runner, plan, seed: int, traced: bool, failures: list) -> list[StepResult]:
    results = []
    for index, step in enumerate(plan.steps):
        shutil.rmtree(step.out, ignore_errors=True)
        step.out.mkdir(parents=True)
        spans_path = runner.work / f"spans-{index}.bin" if traced else None
        result = runner.run(step.argv, step.label, spans_path)
        results.append(result)
        if result.code != 0:
            tail = result.stderr.strip().splitlines()[-3:]
            failures.append(f"{step.label}: exit code {result.code}: {' | '.join(tail)}")
            continue
        try:
            problems = step.check()
            summary = step.out / "summary.json"
            if summary.exists():
                result.estimator_errors = sum(json.loads(summary.read_text())["errors"].values())
            if seed == workloads.DEFAULT_SEED:
                for name in step.pinned:
                    got = verify.sha256(step.out / name)
                    want = workloads.PINNED[(step.label, name)]
                    if got != want:
                        problems.append(f"{name} sha256 {got} differs from the pinned {want}")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            result.code = -1
            failures.append(f"{step.label}: " + "; ".join(problems[:3]))
    return results


def environment(root: Path, plan) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "sizes": plan.sizes,
        "loop": "closed loop, one client: steps run one at a time, each a fresh interpreter",
        "timing": "wall-clock perf_counter on a shared machine; "
        "no machine-wide tracing, no cache dropping",
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "spw" / "__init__.py").is_file():
        print("perfbench: src/spw not found; run from the root of an spw checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.WORKLOADS[args.workload](args.seed, work)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(environment(root, plan)))
    for record in plan.inputs:
        print("input: " + json.dumps(record))

    runner = Runner(root, work, started)
    t_begin = time.perf_counter()
    setups = [runner.run(plan.setup_argv)]
    if setups[0].code != 0:
        print(f"perfbench: spw does not start:\n{setups[0].stderr}", file=sys.stderr)
        return 1

    failures: list[str] = []
    plain: list[list[StepResult]] = []
    traced: list[list[StepResult]] = []
    layer_runs: list[dict] = []
    while True:
        round_start = time.perf_counter()
        if args.trace:
            plain.append(run_pass(runner, plan, args.seed, False, failures))
            traced.append(run_pass(runner, plan, args.seed, True, failures))
            walls = sum(r.wall_s for r in traced[-1])
            if all(r.code == 0 for r in traced[-1]):
                layer_runs.append(layers.traced_pass(traced[-1], walls))
        else:
            if plain and len(setups) < SETUP_PROBES:
                setups.append(runner.run(plan.setup_argv))
                if setups[-1].code != 0:
                    failures.append(f"setup: exit code {setups[-1].code}")
            plain.append(run_pass(runner, plan, args.seed, False, failures))
        now = time.perf_counter()
        if now - t_begin + 0.5 * (now - round_start) > args.seconds:  # next round ends late
            break

    steps = setups + [r for p in plain + traced for r in p]
    attempted = len(steps)
    failed = sum(r.code != 0 for r in steps)
    pass_walls = [sum(r.wall_s for r in p) for p in plain]
    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in layer_runs[0] if layer_runs else ():
            values = [run[name] for run in layer_runs]
            if isinstance(values[0], int) and len(set(values)) == 1:
                metrics[name] = values[0]
                continue
            if isinstance(values[0], int):
                print(f"perfbench: count {name} differs across passes: {values}", file=sys.stderr)
            metrics[name] = _median(values)
        traced_walls = [sum(r.wall_s for r in p) for p in traced]
        cpu = [sum(r.cpu_s for r in p) for p in plain]
        metrics["proc.cpu_s"] = _median(cpu)
        metrics["proc.cpu_util"] = _median([c / w for c, w in zip(cpu, pass_walls)])
        metrics["trace.overhead_s"] = _median(traced_walls) - _median(pass_walls)
        metrics = layers.ordered(metrics)
        units = {name: _unit(name) for name in metrics}
        print(f"traced passes: {len(layer_runs)}, untraced passes: {len(plain)}")
    else:
        wall = _median(pass_walls)
        metrics = {
            "wall_s": wall,
            "items_per_s": plan.work / wall if wall else 0.0,
            "setup_s": _median([r.wall_s for r in setups]),
            "peak_rss_mb": _median([max(r.rss_mb for r in p) for p in plain]),
        }
        units = {"wall_s": "s", "items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"passes: {len(plain)} (wall_s samples), set-up probes: {len(setups)}, "
              f"items: {plan.work} {plan.work_unit} per pass")
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in pass_walls))
    if not args.trace:
        print("set-up probes (s): " + " ".join(f"{r.wall_s:.3f}" for r in setups))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6f} {units[name]}")
    print(f"  {'error_rate':42s} {failed / attempted:>16.6f} ratio ({failed} of {attempted} steps)")

    result = {
        "correct": failed == 0 and (bool(layer_runs) or not args.trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_assignment"):
        return "us"
    if name in ("proc.cpu_util", "trace.coverage"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
