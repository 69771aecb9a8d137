"""How fast the host ran while something was timed, from probe processes.

Usage (the harness starts it; it runs until SIGTERM)::

    python3 perfbench/hostspeed.py OUT_JSON CPU

A shared VM does not run at one speed.  On the 2-CPU VM this benchmark
was built on, a fixed loop of Python took 1.5x longer in some stretches
than in others; the stretches lasted from half a second to over an
hour, and slowed the simulator by about the same factor.  So every time
the end-to-end metrics report is scaled to a reference host speed.

A probe process, pinned to one CPU, runs a fixed pure-Python loop (dict,
list and call work, like the simulator's) every ``PERIOD_S`` seconds
and times it twice: in wall time, so that time the hypervisor takes the
CPU away (steal) slows the probe as it slows a wall time, and in thread
CPU time, which leaves steal out as a process's CPU time does.  The
probe wakes with priority over the work beside it and, at 0.5 ms, is
rarely preempted by it.  Each sample gives the CPU's speed at that
moment as ``REFERENCE_S / duration``.

``HostSpeed`` runs one probe on each CPU the workload may use.  An
interval's speed is the mean over the samples taken inside it, which
weights the samples evenly in time and across the CPUs counted, and the
interval's time at the reference speed is its measured time times that
mean.  A probe on an idle CPU reads it as up to 20% slower than the
same CPU kept busy, since each sample wakes it from idle, so an
interval counts the probes on the CPUs its work keeps busy.  Each probe
uses about 3% of its CPU.  The probes live in the benchmark, so a
change to the program cannot change them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Iterable, List, Optional, Tuple

#: One probe every PERIOD_S seconds of wall time.
PERIOD_S = 0.025
#: Loop length of one probe: 0.5 to 0.8 ms on the reference host.
PROBE_LOOPS = 3000
#: The duration of one probe at the reference speed: the fast stretches
#: of the 2-CPU VM (Intel Xeon at 2.1 GHz) the benchmark was built on.
REFERENCE_S = 0.00045
#: A probe reports ready after this many samples, once it is warm.
WARM_SAMPLES = 4


def probe() -> Tuple[float, float]:
    """Wall and thread CPU seconds of one fixed loop."""
    table = {}
    wall, cpu = time.perf_counter(), time.thread_time()
    for i in range(PROBE_LOOPS):
        key = i & 63
        table[key] = table.get(key, 0) + i
        pair = [key, i]
        len(pair)
    return time.perf_counter() - wall, time.thread_time() - cpu


class ProbeError(RuntimeError):
    """A probe left no samples."""


def main(argv: List[str]) -> int:
    out_path, cpu = argv[0], int(argv[1])
    stopping: List[int] = []
    # SIGTERM only sets a flag, so the loop ends between samples and the
    # samples are always written.
    signal.signal(signal.SIGTERM, lambda signum, _frame: stopping.append(signum))
    samples: List[Tuple[float, float, float]] = []
    try:
        os.sched_setaffinity(0, {cpu})
        tick = time.monotonic()
        while not stopping:
            tick += PERIOD_S
            delay = tick - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            else:
                tick = time.monotonic()
            at = time.monotonic()
            samples.append((at, *probe()))
            if len(samples) == WARM_SAMPLES:
                print("ready", flush=True)
    finally:
        with open(out_path, "w") as handle:
            json.dump(samples, handle)
    return 0


class HostSpeed:
    """Running probes, one per CPU, and once stopped their samples."""

    def __init__(self, workdir: str,
                 cpus: Optional[Iterable[int]] = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        if cpus is None:
            cpus = os.sched_getaffinity(0)
        self.cpus = sorted(cpus)
        self.paths = []
        self.procs = []
        for cpu in self.cpus:
            path = os.path.join(workdir, f"hostspeed-{cpu}.json")
            command = [sys.executable, os.path.abspath(__file__), path,
                       str(cpu)]
            self.paths.append(path)
            self.procs.append(
                subprocess.Popen(command, stdout=subprocess.PIPE)
            )
        #: (monotonic stamp, wall seconds, thread CPU seconds, CPU) per
        #: probe.
        self.samples: List[Tuple[float, float, float, int]] = []
        # Time nothing until the probes run: their start would slow the
        # first interval and miss its first samples.
        for proc in self.procs:
            if not proc.stdout.readline():
                self._end()
                raise ProbeError(
                    f"a host-speed probe ended before it was ready "
                    f"(exit status {proc.returncode})"
                )

    def _end(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()

    def stop(self) -> "HostSpeed":
        self._end()
        lost = [p.returncode for p in self.procs if p.returncode != 0]
        if lost:
            raise ProbeError(
                f"a host-speed probe failed (exit status {lost[0]})"
            )
        samples = []
        for path, on in zip(self.paths, self.cpus):
            try:
                with open(path) as handle:
                    samples.extend(
                        (at, wall, cpu, on)
                        for at, wall, cpu in json.load(handle)
                        if wall > 0 and cpu > 0
                    )
            except (OSError, ValueError):
                raise ProbeError(f"a host-speed probe left no {path}")
        if not samples:
            raise ProbeError("the host-speed probes took no samples")
        self.samples = sorted(samples)
        return self

    def speed(self, start: float, end: float, cpu: bool = False,
              on: Optional[Iterable[int]] = None) -> float:
        """Mean host speed over [start, end] (``time.monotonic`` stamps).

        By default in wall time, the speed for scaling a wall time; with
        ``cpu``, in thread CPU time, which leaves out steal just as a
        process's CPU time does.  ``on`` limits the samples to the probes
        on those CPUs; by default all count.  An interval too short to
        hold a sample from every probe counted takes the samples nearest
        to it.
        """
        probes = set(self.cpus if on is None else on)
        pool = [s for s in self.samples if s[3] in probes]
        inside = [s for s in pool if start <= s[0] <= end]
        if len(inside) < len(probes):
            middle = (start + end) / 2.0
            nearest = sorted(pool, key=lambda s: abs(s[0] - middle))
            inside = nearest[:2 * len(probes)]
        column = 2 if cpu else 1
        return sum(REFERENCE_S / s[column] for s in inside) / len(inside)

    def scale(self, seconds: float, start: float, end: float,
              cpu: bool = False, on: Optional[Iterable[int]] = None) -> float:
        """``seconds`` measured over [start, end], at the reference speed."""
        return seconds * self.speed(start, end, cpu, on)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
