"""Run the orbigenus CLI in this fresh process and report timings to the parent.

Usage: python3 child.py REPORT_FD MODE [CLI ARGUMENT ...]

MODE is ``plain`` (run the CLI as the installed ``orbigenus`` entry point
does: import ``orbigenus.cli``, then ``sys.exit(main())``), ``trace`` (the
same, with per-layer spans installed by ``tracer.py`` between import and
``main``), or ``probe`` (import only).  Stdout and stderr belong to the CLI;
the report goes to REPORT_FD as one JSON object, written after ``main``
returns.  ``setup_done_ns`` is CLOCK_MONOTONIC after ``import orbigenus.cli``,
which the parent compares with its own clock at spawn time.
"""
import os
import sys
import time


def main() -> int:
    report_fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import orbigenus.cli as cli

    setup_done_ns = time.monotonic_ns()
    import json

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0
    try:
        if mode != "probe":
            code = cli.main(argv)
    finally:
        report = {
            "setup_done_ns": setup_done_ns,
            "orbigenus": sys.modules["orbigenus"].__file__,
            "python": sys.version.split()[0],
        }
        if tracer is not None:
            report["trace"] = tracer.report()
        with os.fdopen(report_fd, "w") as f:
            json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
