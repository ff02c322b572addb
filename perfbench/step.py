"""One benchmark step in a fresh interpreter.

    python perfbench/step.py cli ARGS...           # what the `spw` script runs
    python perfbench/step.py exact INPUT OUTPUT    # the exact-enumeration job
    python perfbench/step.py --trace SPANS ...     # the same, with spans

Untraced, ``cli`` does exactly what the installed ``spw`` console script
does: ``sys.exit(spw.cli.main())``. Traced, it first writes
``spans.IMPORT_START`` to stderr, imports spw inside an ``import`` span, writes
``spans.IMPORT_END``, rebinds spw's public functions to record spans (see
``spans.py``), runs the step inside a top-level span, and dumps the
spans. Run the interpreter with ``-X importtime`` to break the import
span down by package from the stderr lines between the two markers.
"""

import sys
import time

T_SCRIPT = time.perf_counter_ns()


def _run(argv, recorder=None):
    kind, rest = argv[0], argv[1:]
    if kind == "cli":
        from spw.cli import main

        if recorder is None:
            return main(rest)
        return recorder.span("cli", main, rest)
    if kind == "exact":
        import exact_job

        if recorder is None:
            return exact_job.main(rest)
        return recorder.span("bench.job", exact_job.main, rest, recorder.wrap)
    raise SystemExit(f"unknown step kind {kind!r}")


def _traced(spans_path, argv):
    import spans

    recorder = spans.Recorder()
    print(spans.IMPORT_START, file=sys.stderr, flush=True)
    if argv[0] == "cli":
        recorder.span("import", __import__, "spw.cli")
    else:
        recorder.span("import", __import__, "spw.checks")
    print(spans.IMPORT_END, file=sys.stderr, flush=True)
    spans.install(recorder)
    try:
        code = _run(argv, recorder)
    finally:
        recorder.dump(spans_path, {"t_script": T_SCRIPT})
    return code


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--trace"]:
        return _traced(argv[1], argv[2:])
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main())
