"""The serve-mixed workload: ``repro serve`` under an open-loop load.

The server runs as ``python -m repro serve`` in its own process with a
fresh ``--cache-dir`` and two pool workers.  This process is the load
generator.  It drives the server over two keep-alive connections, each
an independent user on a seeded Poisson schedule:

* connection 0, the *dashboard*: requests drawn from a small hot set
  that set-up computed once, so they are memory-tier cache hits;
* connection 1, the *analyst*: fresh short ``/v1/run`` requests, each a
  pool execution that writes a sealed ``.rsp`` cache file;
* *twins*: a fresh request sent on both connections at the same due
  time, which the service's single-flight table coalesces (or, if the
  first copy has already finished, answers from the cache).

A request is timed from its due time, not its send time, so a stall
delays every request queued behind it; how late the generator sent is
reported too.  The server answers a connection's requests in order, so
each connection's schedule is sent pipelined by a sender thread while
another thread reads the replies.  Refused (429), timed-out (504) and
unanswered requests count as failures.

After the open-loop session, ``burst`` times the hit path alone: a
pipelined burst of hot-set requests on both connections.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HOT_SCENARIOS = (
    "as-designed", "owned-only", "helium-only", "unmaintained",
    "network-collapse", "instance-bound", "underfunded-wallet",
    "growing-fleet",
)
HOT_YEARS = 0.1
FRESH_SCENARIO = "owned-only"
FRESH_YEARS = 0.05
REPORT_DAYS = 1.0

#: Offered load, requests per second, per kind of traffic.
HOT_RATE = 500.0
FRESH_RATE = 25.0
TWIN_RATE = 2.0

#: Hot-set hits per connection in the pipelined burst after a session.
BURST_PER_CONNECTION = 6000

SERVER_WORKERS = 2
#: The service's bound on queued executions.  Each connection is
#: answered in order, so this load never has more than two executions
#: waiting (one per connection) and never meets the bound.
QUEUE_LIMIT = 256
SERVER_TIMEOUT_S = 20.0
#: How long the generator waits on a silent connection before giving up.
REPLY_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Request:
    due: float
    key: str
    wire: bytes
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    cache: str = ""
    sha256: str = ""
    #: Due while an earlier execution on its connection was unanswered.
    blocked: bool = False


@dataclass
class Plan:
    """Everything the seed decides: the hot set and both schedules."""

    hot: List[dict]
    #: (due time, request key) per connection: dashboard, analyst.
    schedules: Tuple[List[Tuple[float, str]], ...]


def request_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def wire_bytes(key: str) -> bytes:
    body = key.encode("utf-8")
    head = (
        f"POST /v1/run HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def make_plan(seed: int, seconds: float, part: int = 0) -> Plan:
    """The hot set and the two connections' schedules, from ``seed``.

    Every ``part`` of one seed shares the hot set and has a schedule of
    its own.
    """
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 10**9), len(HOT_SCENARIOS))
    rng = random.Random(f"{seed}/{part}")
    hot = [
        {"scenario": name, "seed": s, "years": HOT_YEARS,
         "report_days": REPORT_DAYS}
        for name, s in zip(HOT_SCENARIOS, seeds)
    ]
    hot_keys = [request_key(payload) for payload in hot]
    dashboard: List[Tuple[float, str]] = []
    analyst: List[Tuple[float, str]] = []

    def arrivals(rate: float) -> List[float]:
        # A Poisson process conditioned on its count: every seed offers
        # the same number of requests of each kind, at random times.
        return sorted(rng.uniform(0.0, seconds)
                      for _ in range(round(rate * seconds)))

    def fresh() -> str:
        payload = {"scenario": FRESH_SCENARIO, "seed": rng.randrange(10**9),
                   "years": FRESH_YEARS, "report_days": REPORT_DAYS}
        return request_key(payload)

    for due in arrivals(HOT_RATE):
        dashboard.append((due, rng.choice(hot_keys)))
    for due in arrivals(FRESH_RATE):
        analyst.append((due, fresh()))
    for due in arrivals(TWIN_RATE):
        key = fresh()
        dashboard.append((due, key))
        analyst.append((due, key))
    return Plan(hot, (sorted(dashboard), sorted(analyst)))


# ---------------------------------------------------------------------------
# HTTP over blocking sockets, one sender and one receiver thread each
# ---------------------------------------------------------------------------
class LoadError(RuntimeError):
    """The server could not be started or driven."""


def read_response(stream) -> Tuple[int, Dict[str, str], bytes]:
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("the server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def drive(port: int, schedule: List[Request], start: float) -> None:
    """Send one connection's schedule open-loop; match replies in order.

    A sender thread sleeps until each request is due and writes it
    without waiting for earlier replies; this thread reads the replies.
    A request left unanswered keeps status 0.
    """
    sock = connect(port)
    stream = sock.makefile("rb")

    def send() -> None:
        try:
            for request in schedule:
                delay = start + request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.perf_counter()
                sock.sendall(request.wire)
        except OSError:
            pass  # the receiver gave up and closed the socket

    sender = threading.Thread(target=send)
    sender.start()
    try:
        for request in schedule:
            status, headers, body = read_response(stream)
            request.done = time.perf_counter()
            request.status = status
            request.cache = headers.get("x-cache", "")
            request.sha256 = hashlib.sha256(body).hexdigest()
    except (OSError, ValueError):
        pass  # timed out or cut off: the rest count as failures
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sender.join()
        stream.close()
        sock.close()


def mark_blocked(connection: List[Request], start: float) -> None:
    """Flag the requests that came due behind an unanswered execution.

    The server answers a connection's requests in order, so a cache hit
    sent after a twin waits for the twin's pool run, and so does every
    request that comes due while that backlog drains; their latency is
    the execution's, not the hit path's.
    """
    busy_until = 0.0
    for request in connection:
        request.blocked = start + request.due < busy_until
        if (request.cache != "hit" or request.blocked) and request.done:
            busy_until = max(busy_until, request.done)


def drive_all(port: int, connections: List[List[Request]], start: float) -> None:
    threads = [threading.Thread(target=drive, args=(port, c, start))
               for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def get(port: int, path: str) -> bytes:
    sock = connect(port)
    try:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        with sock.makefile("rb") as stream:
            return read_response(stream)[2]
    finally:
        sock.close()


def warm(port: int, hot: List[dict]) -> List[Request]:
    """Compute the hot set once, over the two connections."""
    requests = [
        Request(due=0.0, key=request_key(p), wire=wire_bytes(request_key(p)))
        for p in hot
    ]
    drive_all(port, [requests[0::2], requests[1::2]], time.perf_counter())
    return requests


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------
def proc_children(pid: int) -> List[int]:
    children = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(name))
    return children


def running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill a process and its children (pool workers); wait for all."""
    children = proc_children(proc.pid)
    for pid in [proc.pid, *children]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while any(map(running, children)) and time.monotonic() < deadline:
        time.sleep(0.05)


def proc_cpu_s(pids: List[int]) -> float:
    """CPU seconds the processes' threads have run, to the nanosecond.

    ``/proc/<pid>/stat`` counts in 10 ms ticks, too coarse for a session
    of a few seconds; each thread's ``schedstat`` counts nanoseconds.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total / 1e9


def proc_peak_rss_mb(pids: List[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` process, started cold and stopped gracefully.

    With ``cpu``, the process starts pinned to that CPU and is released
    to every CPU once it listens, before it forks its pool workers.
    """

    def __init__(self, workdir: str, env: dict, trace: bool,
                 cpu: Optional[int] = None) -> None:
        os.makedirs(os.path.join(workdir, "cache"), exist_ok=True)
        prefix = [sys.executable, "-m"]
        if trace:
            here = os.path.dirname(os.path.abspath(__file__))
            prefix = [sys.executable, os.path.join(here, "profiled.py"), workdir]
        command = prefix + [
            "repro", "serve", "--host", "127.0.0.1", "--port", "0",
            "--workers", str(SERVER_WORKERS),
            "--queue-limit", str(QUEUE_LIMIT),
            "--timeout-s", str(SERVER_TIMEOUT_S),
            "--cache-dir", os.path.join(workdir, "cache"),
        ]
        pin = None
        if cpu is not None:
            def pin() -> None:
                os.sched_setaffinity(0, {cpu})
        self.log = open(os.path.join(workdir, "server.log"), "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=self.log,
            preexec_fn=pin,
        )
        self.port = self._await_port()
        self.listening = time.monotonic()
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, os.sched_getaffinity(0))
        #: When the hot set was computed (set by ``start_warm``).
        self.ready = self.listening

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
                if not line:
                    break
        self.stop()
        raise LoadError("repro serve did not start; see server.log")

    def pids(self) -> List[int]:
        return [self.proc.pid] + proc_children(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                kill_tree(self.proc)
        self.proc.stdout.close()
        self.log.close()


def start_warm(workdir: str, env: dict, trace: bool, hot: List[dict],
               cpu: Optional[int] = None):
    """Start a server and compute its hot set: the serve set-up.

    The set-up runs from ``server.spawned`` through ``server.listening``
    to ``server.ready``.
    """
    server = Server(workdir, env, trace, cpu)
    try:
        warmed = warm(server.port, hot)
    except BaseException:
        server.stop()
        raise
    server.ready = time.monotonic()
    return server, warmed


def parse_prometheus(text: str) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = values.get(name, 0.0) + float(value)
    return values


def serve_counters(text: str) -> Dict[str, float]:
    raw = parse_prometheus(text)
    refused = sum(v for k, v in raw.items()
                  if k.startswith("serve_requests_total") and '"429"' in k)
    hits = raw.get("serve_cache_hits_total", 0.0)
    misses = raw.get("serve_cache_misses_total", 0.0)
    return {
        "serve.hits": int(hits),
        "serve.misses": int(misses),
        "serve.coalesced": int(raw.get("serve_coalesced_total", 0.0)),
        "serve.executions": int(raw.get("serve_executions_total", 0.0)),
        "serve.refused": int(refused),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache_disk_bytes": int(raw.get("serve_cache_disk_bytes", 0.0)),
    }


def session(server: Server, plan: Plan) -> dict:
    """Drive one server through the whole schedule and measure it."""
    connections = [
        [Request(due=due, key=key, wire=wire_bytes(key)) for due, key in schedule]
        for schedule in plan.schedules
    ]

    pids = server.pids()
    cpu_before = proc_cpu_s(pids)
    start = time.perf_counter() + 0.05
    interval = sys.getswitchinterval()
    # A waking sender waits for the interpreter lock at most this long.
    sys.setswitchinterval(0.0005)
    try:
        drive_all(server.port, connections, start)
    finally:
        sys.setswitchinterval(interval)
    end = time.perf_counter()
    for connection in connections:
        mark_blocked(connection, start)
    metrics_text = get(server.port, "/metrics")
    pids = server.pids()
    cpu_s = proc_cpu_s(pids) - cpu_before
    peak_rss_mb = proc_peak_rss_mb(pids)
    requests = [r for c in connections for r in c]
    return {
        "requests": requests,
        "start": start,
        "end": end,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "counters": serve_counters(metrics_text.decode("utf-8")),
    }



def _parse_replies(buffer: bytearray, requests: List[Request],
                   answered: int, bodies: Dict[str, Tuple[bytes, str]]) -> int:
    """Fill in every complete reply in ``buffer``; return how many now.

    Bodies repeat, so each distinct body is hashed once.
    """
    while True:
        end = buffer.find(b"\r\n\r\n")
        if end < 0:
            return answered
        head = bytes(buffer[:end]).lower()
        at = head.find(b"content-length:")
        length = int(head[at + 15:head.find(b"\r\n", at)]) if at >= 0 else 0
        if len(buffer) < end + 4 + length:
            return answered
        request = requests[answered]
        request.done = time.perf_counter()
        request.status = int(head.split(b" ", 2)[1])
        at = head.find(b"x-cache:")
        if at >= 0:
            request.cache = head[at + 8:head.find(b"\r\n", at)].strip().decode()
        body = bytes(buffer[end + 4:end + 4 + length])
        known = bodies.get(request.key)
        if known is None or known[0] != body:
            known = (body, hashlib.sha256(body).hexdigest())
            bodies[request.key] = known
        request.sha256 = known[1]
        del buffer[:end + 4 + length]
        answered += 1


def burst(server: Server, plan: Plan) -> dict:
    """Time a pipelined burst of hot-set hits on both connections.

    Every request is sent at once, so the server always has work queued:
    the burst's wall time per request is the hit path's cost, free of
    the wake-up and contention delays that make up much of an
    open-loop latency.  One thread drives both connections through a
    selector, so the generator stays cheap beside the server.  The
    server's event loop and this thread are pinned to different CPUs:
    left to the scheduler, they sometimes share one and the burst takes
    twice as long.  Run it after the session, with the pool idle; the
    server is to be stopped after it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(server.proc.pid, {cpus[-1]})
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        return _burst(server, plan)
    finally:
        os.sched_setaffinity(0, previous)


def _burst(server: Server, plan: Plan) -> dict:
    keys = [request_key(payload) for payload in plan.hot]
    connections = [
        [Request(due=0.0, key=keys[(c + 2 * i) % len(keys)],
                 wire=wire_bytes(keys[(c + 2 * i) % len(keys)]))
         for i in range(BURST_PER_CONNECTION)]
        for c in range(2)
    ]
    socks = [connect(server.port) for _ in connections]
    selector = selectors.DefaultSelector()
    bodies: Dict[str, Tuple[bytes, str]] = {}
    state = {}
    for sock, requests in zip(socks, connections):
        sock.setblocking(False)
        state[sock] = {
            "requests": requests,
            "out": memoryview(b"".join(r.wire for r in requests)),
            "in": bytearray(),
            "answered": 0,
        }
        selector.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
    began = time.monotonic()
    start = time.perf_counter()
    try:
        open_socks = len(socks)
        while open_socks:
            events = selector.select(timeout=REPLY_TIMEOUT_S)
            if not events:
                break  # silent server: the unanswered count as failures
            for key, mask in events:
                sock, entry = key.fileobj, state[key.fileobj]
                if mask & selectors.EVENT_WRITE and entry["out"]:
                    sent = sock.send(entry["out"][:1 << 16])
                    entry["out"] = entry["out"][sent:]
                    if not entry["out"]:
                        selector.modify(sock, selectors.EVENT_READ)
                if mask & selectors.EVENT_READ:
                    data = sock.recv(1 << 20)
                    entry["in"] += data
                    entry["answered"] = _parse_replies(
                        entry["in"], entry["requests"], entry["answered"],
                        bodies,
                    )
                    if not data or entry["answered"] == len(entry["requests"]):
                        selector.unregister(sock)
                        open_socks -= 1
    except OSError:
        pass  # cut off: the unanswered count as failures
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    requests = [r for c in connections for r in c]
    return {
        "requests": requests,
        "wall_s": max(r.done for r in requests) - start,
        "window": (began, time.monotonic()),
    }
