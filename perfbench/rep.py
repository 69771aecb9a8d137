"""One measured repetition of a batch workload, in a fresh process.

Usage (the harness runs it; PYTHONPATH must reach ``src``)::

    python3 perfbench/rep.py WORKLOAD SEED MODE WORKDIR TRACE

MODE is ``setup`` (import and build, then exit), ``full`` (build and run)
``reference`` (mc-chaos: the same study in-process at one worker;
serve-mixed: the offline response bytes of every request listed in
WORKDIR/payloads.json).  WORKDIR holds the run's scratch files.  With TRACE=1 the build
and run are profiled into WORKDIR, pool workers included.  The last
stdout line is one JSON record; its times are ``time.monotonic`` stamps,
comparable with the parent's.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def main(argv) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    traced = argv[4] == "1"
    if mode == "reference":
        if name == "serve-mixed":
            reference = workloads.serve_reference(workdir)
        else:
            reference = workloads.mc_reference(seed)
        print(json.dumps({"reference": reference}))
        return 0
    build, run, _build_metric = workloads.BATCH[name]
    workloads.import_modules(name)

    recorder = None
    if traced:
        import tracing

        recorder = tracing.Recorder(workdir).install()
    started = time.monotonic()
    handle = build(seed, workdir)
    ready = time.monotonic()
    record = {"ready": ready, "build_s": ready - started}
    if mode == "full":
        cpu_before = cpu_s()
        began = time.monotonic()
        outcome = run(handle)
        ended = time.monotonic()
        record["wall_s"] = ended - began
        record["began"], record["ended"] = began, ended
        record["cpu_s"] = cpu_s() - cpu_before
        if recorder is not None:
            recorder.dump()
        record["peak_rss_mb"] = peak_rss_mb()
        record["outcome"] = outcome
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
