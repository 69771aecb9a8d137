"""Run a module as ``__main__`` under the benchmark's profile hook.

Usage::

    python3 perfbench/profiled.py TRACE_DIR MODULE [ARGS...]

e.g. ``profiled.py .perfbench/t repro serve --port 0`` runs the scenario
service exactly as ``python -m repro serve --port 0`` would, with this
process and every pool worker it forks profiled into TRACE_DIR.  The
stats are written when the process exits.
"""

from __future__ import annotations

import atexit
import runpy
import sys

import tracing


def main() -> None:
    trace_dir, module, *args = sys.argv[1:]
    recorder = tracing.Recorder(trace_dir).install()
    atexit.register(recorder.dump)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
