"""The centurysim benchmark: four pinned workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs generated from ``--seed``; default 2021):

* ``fifty-year``  -- the as-designed scenario, 50 simulated years.
* ``city-cohort`` -- a 20k-device LA streetlight fleet, 28 days, cohort
  engine.
* ``mc-chaos``    -- a 48-run, 8-year study under the ten-fault chaos
  plan with the auditor collecting, as two sealed ``.mcr`` shards run on
  two workers each, then merged.
* ``serve-mixed`` -- ``python -m repro serve`` under an open-loop mix
  of cache hits, fresh runs and coalesced twins (see serve_load.py).

Every measured repetition is a fresh process, so memory and module
caches start cold.  ``--trace 0`` prints the end-to-end metrics, timed
untraced and scaled to a reference host speed (see hostspeed.py);
``--trace 1`` makes one untraced and two profiled runs (under
PYTHONHASHSEED 1 and 2) and prints the per-layer metrics.  Output
checks run in both modes; the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the error share: failed output checks,
failed Monte-Carlo runs, and non-200 or unanswered requests.  The
process exits 0 when every check passed and 1 otherwise; it exits 2
without a result when the checkout lacks ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import hostspeed
import serve_load
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SRC_REPRO = os.path.join(SRC, "repro")
WORK = os.path.join(ROOT, ".perfbench")
RECORDED = os.path.join(HERE, "recorded.json")

WORKLOADS = ("fifty-year", "city-cohort", "mc-chaos", "serve-mixed")

#: Fresh-process set-ups per invocation; setup_s is their median.
SETUP_REPS = 5
#: serve-mixed splits its offered load over this many fresh servers.
SERVE_SESSIONS = 5
#: Pipelined bursts of hits after each serve-mixed session.
BURSTS_PER_SESSION = 2
#: No child may outlive this; the whole invocation must end in 180 s.
CHILD_TIMEOUT_S = 170.0

#: Metric names, units and bounds live in BENCHMARK.json at the root.
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(section: str) -> Dict[str, str]:
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


#: Plain functions whose call counts depend on host timing by design,
#: per workload, as ``pkg/module.py:function``.  Each maps to the layer
#: counter of the same run that accounts for the difference, which is
#: subtracted before the exact check, or to None: left out of it.
#: Every other plain function's count must repeat exactly.
#:
#: * mc-chaos: the Monte-Carlo scheduler sizes chunks from observed run
#:   times and turns its dispatch loop once per wake-up, so the chunk
#:   count and the loop's turns vary.
#: * serve-mixed: a twin's second copy coalesces onto the running first
#:   copy (a miss and a coalesced wait: two counter increments) or, if
#:   the first copy already finished, hits the cache (one increment).
TIMING_DEPENDENT_CALLS: Dict[str, Dict[str, Optional[str]]] = {
    "mc-chaos": {
        "runtime/queue.py:_run_chunk": None,
        "runtime/queue.py:<genexpr>": None,
        "runtime/queue.py:_adaptive_chunk_size": None,
    },
    "serve-mixed": {"obs/metrics.py:inc": "serve.coalesced"},
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


# ---------------------------------------------------------------------------
# Fresh-process repetitions
# ---------------------------------------------------------------------------
def child_env(hash_seed: str = "0") -> dict:
    """Children import ``src`` and hash strings with a pinned seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    return env


def compile_sources() -> None:
    """Compile ``src`` and the benchmark to bytecode before any timing.

    Set-up then loads cached bytecode, as an installed program does,
    whatever the environment says about writing it: with
    PYTHONDONTWRITEBYTECODE set and no cache, every fresh process
    compiled all of ``repro`` again, and set-up read about 25% longer
    than with the cache.  Later invocations only check the sources'
    modification times.
    """
    try:
        result = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC, HERE],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("compiling the sources timed out")
    if result.returncode != 0:
        tail = result.stdout.decode("utf-8", "replace")[-2000:]
        raise BenchError(f"compiling the sources failed:\n{tail}")


def start_rep(workload: str, seed: int, mode: str, workdir: str,
              trace: bool = False, hash_seed: str = "0",
              cpu: Optional[int] = None):
    """Start one repetition; with ``cpu``, pinned to that CPU."""
    os.makedirs(workdir, exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed),
        mode, workdir, "1" if trace else "0",
    ]
    pin = None
    if cpu is not None:
        def pin() -> None:
            os.sched_setaffinity(0, {cpu})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, env=child_env(hash_seed), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, preexec_fn=pin,
    )
    return proc, spawned


class Killed(BenchError):
    """A repetition was killed by a signal, not ended by an error."""


def exit_status(code: int) -> str:
    if code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exit status {code}"


def finish_rep(handle) -> dict:
    proc, spawned = handle
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        serve_load.kill_tree(proc)
        proc.communicate()
        raise BenchError("a repetition timed out")
    lines = out.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode("utf-8", "replace")[-2000:].rstrip()
        error = Killed if proc.returncode < 0 else BenchError
        raise error(f"a repetition failed ({exit_status(proc.returncode)})"
                    + (f":\n{tail}" if tail else ""))
    record = json.loads(lines[-1])
    record["spawned"] = spawned
    record["elapsed"] = time.monotonic() - spawned
    return record


def finish_all(handles) -> List[dict]:
    """Finish concurrent repetitions; on a failure, stop the others."""
    try:
        return [finish_rep(handle) for handle in handles]
    finally:
        for proc, _spawned in handles:
            if proc.poll() is None:
                serve_load.kill_tree(proc)
                proc.communicate()


def run_rep(*args, **kwargs) -> dict:
    """One repetition; run again once if it could not start or was killed.

    On a shared host the kernel may refuse a fork or kill a process for
    reasons of its own.  A repetition that ends in an error of the
    program's is never run again, and neither is one killed twice.
    """
    try:
        return finish_rep(start_rep(*args, **kwargs))
    except (Killed, OSError) as exc:
        print(f"perfbench: {exc}; running it again", file=sys.stderr)
    try:
        return finish_rep(start_rep(*args, **kwargs))
    except (Killed, OSError) as exc:
        raise BenchError(f"{exc} (the second time)")


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
class Checks:
    """Operations attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ops(self, attempted: int, failed: int, why: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(why)

    def require(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def load_recorded() -> dict:
    with open(RECORDED) as handle:
        return json.load(handle)


def check_batch(checks: Checks, workload: str, seed: int, outcome: dict,
                reference: Optional[dict]) -> None:
    if workload == "fifty-year":
        why = workloads.fifty_year_failures(outcome, seed, ROOT)
        checks.ops(1, 1 if why else 0, why)
    elif workload == "city-cohort":
        why = workloads.city_failures(outcome, seed, load_recorded())
        checks.ops(1, 1 if why else 0, why)
    else:
        why = workloads.mc_failures(outcome, reference)
        failed = workloads.MC_RUNS if why else outcome["failed_runs"]
        if outcome["failed_runs"]:
            why.append(f"{outcome['failed_runs']} Monte-Carlo runs failed")
        checks.ops(workloads.MC_RUNS, failed, why)


def same_summaries(checks: Checks, records: List[dict], what: str) -> None:
    digests = {workloads.canonical_sha256(r["outcome"]["summary"])
               for r in records}
    checks.require(len(digests) == 1, f"result summaries differ across {what}")


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------
def pinned_cpu(workload: str) -> Optional[int]:
    """The CPU a single-process workload and its probe share, else None."""
    if expected_processes(workload) > 1:
        return None
    return max(os.sched_getaffinity(0))


def batch_end_to_end(workload: str, seed: int, seconds: float,
                     workdir: str) -> Tuple[Checks, dict]:
    checks = Checks()
    cpu = pinned_cpu(workload)
    probe = hostspeed.HostSpeed(workdir, None if cpu is None else [cpu])
    full: List[dict] = []
    setup_reps: List[dict] = []
    try:
        used = 0.0
        while True:
            record = run_rep(workload, seed, "full",
                             os.path.join(workdir, f"full-{len(full)}"),
                             cpu=cpu)
            full.append(record)
            used += record["elapsed"]
            if used + used / len(full) > seconds:
                break
        while len(full) + len(setup_reps) < SETUP_REPS:
            setup_reps.append(run_rep(
                workload, seed, "setup",
                os.path.join(workdir, f"setup-{len(setup_reps)}"), cpu=cpu,
            ))
    finally:
        probe.stop()
    setups = [probe.scale(r["ready"] - r["spawned"], r["spawned"], r["ready"])
              for r in full + setup_reps]
    walls = [probe.scale(r["wall_s"], r["began"], r["ended"]) for r in full]
    cpus = [probe.scale(r["cpu_s"], r["began"], r["ended"], cpu=True)
            for r in full]
    reference = None
    if workload == "mc-chaos":
        reference = run_rep(workload, seed, "reference",
                            os.path.join(workdir, "reference"))["reference"]
    for record in full:
        check_batch(checks, workload, seed, record["outcome"], reference)
    same_summaries(checks, full, "repetitions")
    ops = full[0]["outcome"]["ops"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_us_per_op": 1e6 * statistics.median(walls) / ops,
        "cpu_us_per_op": 1e6 * statistics.median(cpus) / ops,
        "peak_rss_kb_per_op": statistics.median(
            1024 * r["peak_rss_mb"] / r["outcome"]["ops"] for r in full
        ),
    }
    report = [
        f"{workload} seed {seed}: {len(full)} timed run(s), "
        f"{len(setups)} set-ups, {ops} ops per run",
        "wall_s per run, measured: "
        + ", ".join(f"{r['wall_s']:.3f}" for r in full)
        + "; at reference speed: " + ", ".join(f"{w:.3f}" for w in walls),
        "set-up s, measured: "
        + ", ".join(f"{r['ready'] - r['spawned']:.3f}"
                    for r in full + setup_reps)
        + "; at reference speed: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    return checks, {"metrics": metrics, "report": report}


def expected_processes(workload: str) -> int:
    if workload == "mc-chaos":
        return 1 + workloads.MC_SHARDS * workloads.MC_WORKERS
    if workload == "serve-mixed":
        return 1 + serve_load.SERVER_WORKERS
    return 1


def profile_layers(checks: Checks, workload: str, dirs: List[str],
                   counters: List[dict]) -> dict:
    """Summaries of the two traced runs; checks the call counts repeat.

    ``counters`` holds each traced run's layer counters.
    """
    summaries = []
    for path, run_counters in zip(dirs, counters):
        stats, processes = tracing.load_stats(path)
        summary = tracing.summarize(stats, SRC_REPRO)
        summary["processes"] = processes
        summary["counters"] = run_counters
        summaries.append(summary)
    for problem in call_count_differences(workload, summaries):
        checks.require(False, problem)
    expected = expected_processes(workload)
    for summary in summaries:
        summary["unmeasured"] = max(0, expected - summary["processes"])
        checks.require(
            summary["unmeasured"] == 0,
            f"{summary['unmeasured']} worker process(es) left no profile",
        )
    return summaries[0]


def call_count_differences(workload: str, runs: List[dict]) -> List[str]:
    """Plain functions whose call counts differ between two traced runs.

    Each run is a profile summary plus the run's layer ``counters``.
    """
    counts = []
    for run in runs:
        calls = dict(run["function_calls"])
        for name, counter in TIMING_DEPENDENT_CALLS.get(workload, {}).items():
            if counter is None:
                calls.pop(name, None)
            else:
                calls[name] = calls.get(name, 0) - run["counters"][counter]
        counts.append(calls)
    a, b = counts
    return [
        f"{name} calls differ across traced runs "
        f"(PYTHONHASHSEED 1: {a.get(name, 0)}, 2: {b.get(name, 0)})"
        for name in sorted(set(a) | set(b)) if a.get(name, 0) != b.get(name, 0)
    ]


def layer_metrics(profile: dict, untraced_cpu_s: float,
                  traced_cpu_s: float) -> Dict[str, float]:
    """Profile-derived metrics; every per-layer metric starts at 0."""
    metrics = {name: 0 for name in metric_units("per_layer")}
    for pkg in tracing.PACKAGES:
        metrics[f"{pkg}.calls"] = profile["calls"][pkg]
        metrics[f"{pkg}.self_s"] = profile["self_s"][pkg]
    total = profile["total_s"]
    metrics["obs.self_share"] = profile["self_s"]["obs"] / total if total else 0.0
    metrics["runtime.shard_write_s"] = profile["shard_write_s"]
    metrics["runtime.wait_s"] = profile["wait_s"]["runtime"]
    metrics["serve.wait_s"] = profile["wait_s"]["serve"]
    metrics["trace.wait_s"] = sum(profile["wait_s"].values())
    metrics["trace.idle_s"] = profile["idle_s"]
    metrics["trace.overhead_ratio"] = traced_cpu_s / untraced_cpu_s
    metrics["trace.boundary_calls"] = profile["boundary_calls"]
    metrics["trace.unattributed_s"] = profile["unattributed_s"]
    metrics["trace.processes"] = profile["processes"]
    metrics["trace.unmeasured_workers"] = profile["unmeasured"]
    return metrics


def write_trace(workload: str, seed: int, profile: dict) -> str:
    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.json")
    payload = {
        "workload": workload,
        "seed": seed,
        "packages": {
            pkg: {"calls": profile["calls"][pkg],
                  "self_s": profile["self_s"][pkg],
                  "wait_s": profile["wait_s"][pkg]}
            for pkg in tracing.PACKAGES
        },
        "unattributed_s": profile["unattributed_s"],
        "total_s": profile["total_s"],
        "spans": profile["boundaries"],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return path


def batch_per_layer(workload: str, seed: int, seconds: float,
                    workdir: str) -> Tuple[Checks, dict]:
    checks = Checks()
    cpu = pinned_cpu(workload)
    probe = hostspeed.HostSpeed(workdir, None if cpu is None else [cpu])
    try:
        untraced = run_rep(workload, seed, "full",
                           os.path.join(workdir, "plain"), cpu=cpu)
    finally:
        probe.stop()
    dirs = [os.path.join(workdir, f"traced-{h}") for h in ("1", "2")]
    if workload == "mc-chaos":
        # Four pool workers per traced run already fill both CPUs.
        traced = [run_rep(workload, seed, "full", d, trace=True, hash_seed=h)
                  for d, h in zip(dirs, ("1", "2"))]
    else:
        handles = [start_rep(workload, seed, "full", d, trace=True, hash_seed=h)
                   for d, h in zip(dirs, ("1", "2"))]
        traced = finish_all(handles)
    reference = None
    if workload == "mc-chaos":
        reference = run_rep(workload, seed, "reference",
                            os.path.join(workdir, "reference"))["reference"]
    for record in [untraced, *traced]:
        check_batch(checks, workload, seed, record["outcome"], reference)
    same_summaries(checks, [untraced, *traced], "traced and untraced runs")
    profile = profile_layers(checks, workload, dirs,
                             [r["outcome"]["layers"] for r in traced])
    metrics = layer_metrics(profile, untraced["cpu_s"], traced[0]["cpu_s"])
    metrics.update(untraced["outcome"]["layers"])
    metrics["wall_s"] = untraced["wall_s"]
    metrics["host.speed"] = probe.speed(untraced["began"], untraced["ended"])
    metrics["peak_rss_mb"] = untraced["peak_rss_mb"]
    build_metric = workloads.BATCH[workload][2]
    if build_metric:
        metrics[build_metric] = untraced["build_s"]
    metrics["error_share"] = checks.failed / max(1, checks.attempted)
    report = [f"trace: {write_trace(workload, seed, profile)}"]
    return checks, {"metrics": metrics, "report": report}


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
def check_serve(checks: Checks, seed: int, requests, workdir: str) -> dict:
    """Every 200 body against the offline bytes; non-200 are failures."""
    plan_payloads = {}
    for request in requests:
        plan_payloads[request.key] = json.loads(request.key)
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "payloads.json"), "w") as handle:
        json.dump(plan_payloads, handle)
    reference = run_rep("serve-mixed", seed, "reference", workdir)["reference"]
    bad_status = sum(1 for r in requests if r.status != 200)
    bad_body = sum(
        1 for r in requests
        if r.status == 200 and r.sha256 != reference["sha256"][r.key]
    )
    why = []
    if bad_status:
        why.append(f"{bad_status} requests were refused, failed or unanswered")
    if bad_body:
        why.append(f"{bad_body} response bodies differ from offline bytes")
    checks.ops(len(requests), bad_status + bad_body, why)
    if seed == workloads.DEFAULT_SEED:
        recorded = load_recorded()["serve-mixed"]["hot_sha256"]
        checks.require(
            all(reference["sha256"].get(k) == v for k, v in recorded.items()),
            "hot-set bodies differ from the recorded reference",
        )
    return reference


def serve_summary(requests) -> str:
    return workloads.canonical_sha256(
        sorted({(r.key, r.sha256) for r in requests if r.status == 200})
    )


#: X-Cache values of requests that waited for an execution.
MISS = ("miss", "coalesced")


def latency_ms(requests, start: float, kinds) -> List[float]:
    """Latency from due time of the answered requests of some kinds.

    Hits that came due behind an execution on their connection are left
    out: their latency is the execution's (see serve_load.mark_blocked).
    """
    return [
        1e3 * (r.done - (start + r.due)) for r in requests
        if r.status == 200 and r.cache in kinds
        and not (r.cache == "hit" and r.blocked)
    ]


def serve_end_to_end(seed: int, seconds: float,
                     workdir: str) -> Tuple[Checks, dict]:
    """Set up SETUP_REPS servers; the last SESSIONS each serve a slice.

    The offered load is split into SESSIONS schedules of equal length,
    each against a freshly started server and followed by a pipelined
    burst of hits, twice; each metric is the median over the sessions
    (over the bursts, for the burst time).
    """
    checks = Checks()
    probe = hostspeed.HostSpeed(workdir)
    # The server starts in one process, pinned beside one probe, as the
    # batch workloads run; the hot set is computed on every CPU.
    server_cpu = max(os.sched_getaffinity(0))
    setups = []
    answered = []
    sessions = []
    try:
        for index in range(SETUP_REPS):
            part = index - (SETUP_REPS - SERVE_SESSIONS)
            plan = serve_load.make_plan(seed, seconds / SERVE_SESSIONS,
                                        max(0, part))
            server, hot = serve_load.start_warm(
                os.path.join(workdir, f"server-{index}"), child_env(), False,
                plan.hot, server_cpu,
            )
            setups.append((server.spawned, server.listening, server.ready))
            answered.extend(hot)
            try:
                if part >= 0:
                    began = time.monotonic()
                    result = serve_load.session(server, plan)
                    result["window"] = (began, time.monotonic())
                    result["bursts"] = [
                        serve_load.burst(server, plan)
                        for _ in range(BURSTS_PER_SESSION)
                    ]
                    sessions.append(result)
                    answered.extend(result["requests"])
                    for burst in result["bursts"]:
                        answered.extend(burst["requests"])
            finally:
                server.stop()
    finally:
        probe.stop()
    check_serve(checks, seed, answered, os.path.join(workdir, "ref"))
    per_hit, cpu, rss, hits, misses = [], [], [], [], []
    medians = []
    for result in sessions:
        done = [r for r in result["requests"] if r.status == 200]
        cpu_s = probe.scale(result["cpu_s"], *result["window"], cpu=True)
        cpu.append(1e6 * cpu_s / max(1, len(done)))
        rss.append(1024 * result["peak_rss_mb"] / max(1, len(done)))
        for burst in result["bursts"]:
            per_hit.append(
                1e6 * probe.scale(burst["wall_s"], *burst["window"])
                / len(burst["requests"])
            )
        waits = [1e3 * (r.done - (result["start"] + r.due)) for r in done]
        medians.append(statistics.median(waits) if waits else 0.0)
        hits += latency_ms(result["requests"], result["start"], ("hit",))
        misses += latency_ms(result["requests"], result["start"], MISS)
    setup_s = [
        probe.scale(listening - spawned, spawned, listening, on=[server_cpu])
        + probe.scale(ready - listening, listening, ready)
        for spawned, listening, ready in setups
    ]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_us_per_op": statistics.median(per_hit),
        "cpu_us_per_op": statistics.median(cpu),
        "peak_rss_kb_per_op": statistics.median(rss),
    }
    report = [
        f"serve-mixed seed {seed}: {len(hits)} hits and {len(misses)} "
        f"misses answered in {len(sessions)} "
        f"sessions over {seconds:g} s",
        f"hit p50/p99 {quantile(hits, 50):.3f}/{quantile(hits, 99):.3f} ms, "
        f"miss p50/p99 {quantile(misses, 50):.3f}/"
        f"{quantile(misses, 99):.3f} ms (measured)",
        "median latency per session, measured (ms): "
        + ", ".join(f"{m:.3f}" for m in medians),
        "CPU per request, at reference speed (us): "
        + ", ".join(f"{c:.1f}" for c in cpu),
        "set-up s (to listening + warm-up), measured: "
        + ", ".join(f"{l - s:.3f} + {r - l:.3f}" for s, l, r in setups)
        + "; at reference speed: " + ", ".join(f"{v:.3f}" for v in setup_s),
        "burst per hit, at reference speed (us): "
        + ", ".join(f"{t:.1f}" for t in per_hit)
        + "; measured: " + ", ".join(
            f"{1e6 * b['wall_s'] / len(b['requests']):.1f}"
            for r in sessions for b in r["bursts"]),
    ]
    return checks, {"metrics": metrics, "report": report}


def serve_per_layer(seed: int, seconds: float,
                    workdir: str) -> Tuple[Checks, dict]:
    checks = Checks()
    plan = serve_load.make_plan(seed, seconds)
    sessions = []
    dirs = []
    for label, hash_seed, trace in (("plain", "0", False),
                                    ("traced-1", "1", True),
                                    ("traced-2", "2", True)):
        path = os.path.join(workdir, label)
        server, hot = serve_load.start_warm(
            path, child_env(hash_seed), trace, plan.hot
        )
        probe = None if trace else hostspeed.HostSpeed(path)
        try:
            began = time.monotonic()
            result = serve_load.session(server, plan)
            result["window"] = (began, time.monotonic())
        finally:
            server.stop()
            if probe is not None:
                probe.stop()
        if probe is not None:
            speed = probe.speed(*result["window"])
        result["warmed"] = hot
        sessions.append(result)
        if trace:
            dirs.append(path)
    everything = [r for s in sessions for r in s["warmed"] + s["requests"]]
    reference = check_serve(checks, seed, everything,
                            os.path.join(workdir, "ref"))
    checks.require(
        len({serve_summary(s["requests"]) for s in sessions}) == 1,
        "served bodies differ between traced and untraced sessions",
    )
    profile = profile_layers(checks, "serve-mixed", dirs,
                             [s["counters"] for s in sessions[1:]])
    plain, traced = sessions[0], sessions[1]
    metrics = layer_metrics(profile, plain["cpu_s"], traced["cpu_s"])
    metrics.update(reference["layers"])
    metrics.update(plain["counters"])
    requests, start = plain["requests"], plain["start"]
    done = [r for r in requests if r.status == 200]
    hits = latency_ms(requests, start, ("hit",))
    misses = latency_ms(requests, start, MISS)
    late = [1e3 * (r.sent - (start + r.due)) for r in requests if r.sent]
    metrics.update({
        "wall_s": plain["end"] - start,
        "host.speed": speed,
        "peak_rss_mb": plain["peak_rss_mb"],
        "hit_p50_ms": quantile(hits, 50),
        "hit_p99_ms": quantile(hits, 99),
        "miss_p50_ms": quantile(misses, 50),
        "miss_p99_ms": quantile(misses, 99),
        "achieved_rps": len(done) / (plain["end"] - start),
        "loadgen.requests": len(requests),
        "loadgen.blocked_hits": sum(
            1 for r in done if r.cache == "hit" and r.blocked
        ),
        "loadgen.late_p99_ms": quantile(late, 99),
        "error_share": checks.failed / max(1, checks.attempted),
    })
    report = [f"trace: {write_trace('serve-mixed', seed, profile)}",
              f"{len(hits)} hit and {len(misses)} miss latency samples"]
    return checks, {"metrics": metrics, "report": report}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> Tuple[Checks, dict]:
    if workload == "serve-mixed":
        if trace:
            return serve_per_layer(seed, seconds, workdir)
        return serve_end_to_end(seed, seconds, workdir)
    if trace:
        return batch_per_layer(workload, seed, seconds, workdir)
    return batch_end_to_end(workload, seed, seconds, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(SRC_REPRO):
        print(f"perfbench: no simulator sources at {SRC_REPRO}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(
        WORK, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        compile_sources()
        checks, outcome = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except (BenchError, serve_load.LoadError, hostspeed.ProbeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    for line in outcome["report"]:
        print(line)
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
